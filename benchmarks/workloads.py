"""The benchmark's three workloads and the checks run on their outputs.

Every workload is a closed loop with one client: the next request starts when
the previous one has finished.  Three request kinds exist:

* ``pipeline``: every CLI subcommand in order, in-process, in a fresh workdir;
* ``projector``: ``cli.build_subspaces`` then ``ProjectorCache.for_excluded(c)``
  at one energy mode, ``preset`` (the config's epsilon and build batch) or
  ``exact`` (the config's ``acceptance.exact_mode``);
* ``unlearn``: ``cli.run_unlearn_variant`` for one variant, then scoring the
  result with ``evaluate.utility`` and ``evaluate.mia``.

Each run opens with one reference round, one request of every kind, so that
every end-to-end metric has a sample on every workload.  The workload's own
request kind then repeats until the measuring time is used up.

Durations are in reference-speed seconds (see ``Yardstick``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import shutil
import time
import traceback

import numpy as np

from nullspace_unlearn import cli, evaluate, nn, subspace
from nullspace_unlearn.config import load_config

STAGES = ("gen-data", "train", "retrain", "subspace", "unlearn", "evaluate", "contour", "ablate", "report")
VARIANTS = ("calibrated", "random-label", "random-label+nullspace", "gradient-ascent")
PROJECTED = ("calibrated", "random-label+nullspace")
MODES = ("preset", "exact")

# Shortening, recorded with every result.  The shipped preset trains for 4000
# epochs, which puts one pipeline pass near a minute; a twentieth of that keeps
# a pass, a projector build and a stream of unlearn requests inside one run.
SHORTENING = ("train.epochs=200", "train.milestones=[160]")
# The pipeline's three merges at the preset build batch (193x120 blocks) would
# take most of a pass; the pipeline merges 193x48 blocks instead.
PIPELINE_SHORTENING = ("subspace.build_batch=16",)

# Unlearn requests are short and jittery, so the reference round cycles through
# every (variant, mode) pair four times to give each percentile more samples.
REFERENCE_UNLEARN_CYCLES = 4

C1_BOUND = 1.0e-6  # exact-mode audit residual and 1 - retained energy

# Layers each workload must exercise; a traced run fails if one records no span.
EXPECTED_LAYERS = {
    "pipeline": ("cli", "data", "determinism", "nn", "linalg", "subspace", "unlearn", "evaluate"),
    "projector-build": ("cli", "nn", "linalg", "subspace"),
    "unlearn-requests": ("cli", "determinism", "nn", "linalg", "unlearn", "evaluate"),
}


class Yardstick:
    """A fixed kernel, timed at every request boundary, that measures machine speed.

    On a shared machine the same request runs up to 1.5x slower from one
    second to the next, because the cores' speed changes under neighbouring
    load.  The kernel runs no package code: 100 products of a 192x193 and a
    193x25 matrix with a relu, the shapes of one unlearn step.  A duration is
    scaled by ``NOMINAL_S`` over the mean kernel time at its two boundaries,
    so it reads as if the machine had run at the kernel's nominal speed.
    """

    NOMINAL_S = 0.005

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((192, 193))
        self.b = rng.standard_normal((193, 25))
        self.samples = []

    def mark(self) -> tuple:
        """(time before the kernel, time after it, kernel seconds)."""
        t0 = time.perf_counter()
        for _ in range(100):
            np.maximum(self.a @ self.b, 0.0).sum()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        return t0, t1, t1 - t0

    def segments(self, *steps) -> tuple:
        """Run steps back to back, each given the previous step's result (the first gets None).

        Returns (results, scaled seconds per step, raw seconds per step).
        """
        results, scaled, raw = [], [], []
        prev, result = self.mark(), None
        for step in steps:
            result = step(result)
            mark = self.mark()
            seconds = mark[0] - prev[1]
            results.append(result)
            raw.append(seconds)
            scaled.append(seconds * self.NOMINAL_S * 2.0 / (prev[2] + mark[2]))
            prev = mark
        return results, scaled, raw


def _tree_digest(root) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _tree_sizes(root) -> dict:
    out = {}
    for name in os.listdir(root) if os.path.isdir(root) else ():
        st = os.stat(os.path.join(root, name))
        out[name] = (st.st_size, st.st_mtime_ns)
    return out


class Bench:
    """State of one benchmark run: config, set-up products, samples and checks."""

    def __init__(self, seed: int, workdir: str):
        self.overrides = SHORTENING
        self.cfg = load_config(None, self.overrides).with_seed(seed)
        exact = self.cfg.doc["acceptance"]["exact_mode"]
        exact_overrides = (f"subspace.epsilon={exact['epsilon']}", f"subspace.build_batch={exact['build_batch']}")
        self.mode_cfg = {
            "preset": self.cfg,
            "exact": load_config(None, self.overrides + exact_overrides).with_seed(seed),
        }
        pipeline_cfg = load_config(None, self.overrides + PIPELINE_SHORTENING).with_seed(seed)
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "pipeline-config.json")
        os.makedirs(workdir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(pipeline_cfg.doc, fh)
        self.forget = self.cfg.unlearn_plan().unlearn_classes[0]
        self.yardstick = Yardstick()
        self.tracer = None  # a tracing.Tracer while a traced window runs
        self.attempted = 0
        self.failures = []
        self.caches = {}
        self.original_utility = None
        self.passes = 0
        self.pass_digest = None
        self.requests = 0
        self.reset_samples()

    def reset_samples(self) -> None:
        """Forget timings and counts taken so far; failures and the pass digest stay."""
        kinds = ("setup", "pipeline", "projector.preset", "projector.exact", "unlearn.projected", "unlearn.plain", "score")
        self.samples = {k: [] for k in kinds}
        self.raw = {k: [] for k in kinds}
        self.stage_busy = {s: [] for s in STAGES}
        self.quality = {}

    def _record(self, kind: str, scaled: float, raw: float) -> None:
        self.samples[kind].append(scaled)
        self.raw[kind].append(raw)

    # -- bookkeeping --------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextlib.contextmanager
    def request(self, kind: str):
        """One operation of the closed loop; an exception fails it and the loop goes on."""
        self.requests += 1
        if self.tracer is not None:
            self.tracer.request = (self.requests, kind)
        self.attempted += 1
        try:
            yield
        except Exception:  # the loop must survive a failing operation and report it
            self.failures.append(f"{kind}: {traceback.format_exc(limit=3).strip()}")

    # -- set-up -------------------------------------------------------------
    def set_up(self) -> None:
        """Data, splits and the trained original."""
        cfg = self.cfg

        def build(_):
            sp = cfg.splits(cfg.dataset())
            return sp, cli.train_original(cfg, sp)

        (result,), (scaled,), (raw,) = self.yardstick.segments(build)
        self._record("setup", scaled, raw)
        self.sp, self.net_o = result
        self.member, self.nonmember = cfg.mia_holdouts(self.sp)
        self.build_batches = {}
        for mode, mode_cfg in self.mode_cfg.items():
            batches = []
            for c in range(self.sp.train.n_classes):
                cls = self.sp.train.class_filter((c,), keep=True)
                batches.append(cls.subset(mode_cfg.build_indices(c, len(cls))))
            self.build_batches[mode] = batches

    def remaining_trace(self, mode: str, excluded: int):
        """Layer inputs of the original on the build batches of every class but `excluded`."""
        feats = np.vstack([b.features for c, b in enumerate(self.build_batches[mode]) if c != excluded])
        return nn.forward(self.net_o, feats, record=True)[1]

    # -- requests -------------------------------------------------------------
    def pipeline_pass(self) -> float:
        with self.request("pipeline"):
            wd = os.path.join(self.workdir, f"pass-{self.passes}")
            self.passes += 1
            shutil.rmtree(wd, ignore_errors=True)
            codes, scaled, raw = self.yardstick.segments(
                *(lambda _, stage=stage: self._cli_stage(wd, stage) for stage in STAGES)
            )
            for stage, code, seconds in zip(STAGES, codes, raw):
                self.stage_busy[stage].append(seconds)
                self.check(code == 0, f"pipeline stage {stage} exited {code}")
            if any(codes):
                return sum(scaled)
            self._record("pipeline", sum(scaled), sum(raw))
            digest = _tree_digest(wd)
            if self.pass_digest is None:
                self.pass_digest = digest
            self.check(digest == self.pass_digest, "pipeline artifacts differ between passes at one seed")
            shutil.rmtree(wd, ignore_errors=True)
            return sum(scaled)
        return 0.0

    def _cli_stage(self, wd: str, stage: str) -> int:
        """Exit code of one subcommand; in a traced run also the bytes it wrote."""
        args = ["--config", self.config_path, "--workdir", wd, stage]
        tracer = self.tracer
        before = _tree_sizes(wd) if tracer is not None else None
        span = tracer.begin(f"cli.{stage}") if tracer is not None else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rv = cli.main(args, standalone_mode=False)
            return rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        finally:
            if tracer is not None:
                tracer.end(span)
                after = _tree_sizes(wd)
                written = sum(size for name, (size, mt) in after.items() if before.get(name) != (size, mt))
                tracer.note(span, bytes_written=written)

    def projector_build(self, mode: str, excluded: int) -> float:
        with self.request("projector"):
            cfg = self.mode_cfg[mode]
            (cache, proj), scaled, raw = self.yardstick.segments(
                lambda _: cli.build_subspaces(cfg, self.net_o, self.sp.train)[1],
                lambda built: built.for_excluded(excluded),
            )
            self._record(f"projector.{mode}", sum(scaled), sum(raw))
            if excluded == self.forget:
                self.caches[mode] = cache
            if mode == "exact":
                kept = subspace.retained_energy(proj, self.remaining_trace(mode, excluded))
                worst = max(1.0 - e for e in kept)
                self.check(worst <= C1_BOUND, f"exact build excluding {excluded}: 1 - retained energy {worst:.3e}")
            return sum(scaled)
        return 0.0

    def unlearn_request(self, variant: str, mode: str) -> float:
        with self.request("unlearn"):
            cfg = self.mode_cfg[mode]
            projected = variant in PROJECTED
            cache = self.caches[mode] if projected else None
            sp = self.sp
            (res, (utility, mia)), scaled, raw = self.yardstick.segments(
                lambda _: cli.run_unlearn_variant(cfg, self.net_o, sp, cache, variant),
                lambda res: (
                    evaluate.utility(res.network, sp.test_remaining, sp.test_unlearn),
                    evaluate.mia(res.network, sp.d_u, self.member, self.nonmember),
                ),
            )
            self._record("unlearn.projected" if projected else "unlearn.plain", scaled[0], raw[0])
            self._record("score", scaled[1], raw[1])
            if variant == "calibrated" and mode == "preset":
                self._record_quality(utility, mia)
            if projected and mode == "exact":
                audit = evaluate.orthogonality_audit(self.net_o, res.network, self.remaining_trace(mode, self.forget))
                worst = max(audit.per_layer_residual)
                self.quality["audit_residual_exact"] = max(worst, self.quality.get("audit_residual_exact", 0.0))
                self.check(worst <= C1_BOUND, f"{variant} exact-mode audit residual {worst:.3e}")
            return sum(scaled)
        return 0.0

    def _record_quality(self, calibrated, mia) -> None:
        """c2 and c3 of the calibrated model at the preset: recorded, not checked (see the README)."""
        if self.original_utility is None:
            self.original_utility = evaluate.utility(self.net_o, self.sp.test_remaining, self.sp.test_unlearn)
        self.quality.update(
            acc_remaining=calibrated.acc_remaining_test,
            acc_remaining_original=self.original_utility.acc_remaining_test,
            acc_forget=calibrated.acc_unlearn_test,
            mia=mia.acc_mia,
        )

    # -- the closed loops ------------------------------------------------------
    def reference_round(self) -> float:
        """One request of every kind; returns their summed reference-speed seconds.

        Build times vary with the excluded class and one build varies by up to
        a fifth from run to run, so the round builds for every class in both
        modes, and twice in the short exact mode.  The forget class comes
        first because unlearn requests use its caches.
        """
        classes = [self.forget] + [c for c in range(self.sp.train.n_classes) if c != self.forget]
        total = sum(self.projector_build(mode, c) for c in classes for mode in MODES)
        total += sum(self.projector_build("exact", c) for c in classes)
        for _ in range(REFERENCE_UNLEARN_CYCLES):
            total += sum(self.unlearn_request(v, m) for m in MODES for v in VARIANTS)
        return total + self.pipeline_pass()

    def own_requests(self, workload: str):
        """The workload's own request stream, continuing after the reference round."""
        if workload == "pipeline":
            return itertools.repeat(self.pipeline_pass)
        if workload == "projector-build":
            classes = range(self.sp.train.n_classes)
            return itertools.cycle([functools.partial(self.projector_build, m, c) for c in classes for m in MODES])
        return itertools.cycle([functools.partial(self.unlearn_request, v, m) for m in MODES for v in VARIANTS])
