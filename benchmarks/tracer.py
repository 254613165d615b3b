"""Spans around the package's public functions, recorded from outside the package.

The tracer patches module attributes for the length of a traced run and puts
them back afterwards; nothing in ``src/`` knows it is being measured.  A name
is patched where callers look it up: ``subspace`` binds ``svd`` with ``from
.linalg import svd`` and ``unlearn`` binds ``apply_projection`` the same way,
so those two are patched in the importing module as well as in ``linalg``.

Spans are kept in memory as lists ``[id, parent, request, name, start, end,
counts]`` and turned into per-layer numbers once the run ends.  Counts are
taken after a span closes, so computing them never inflates a span.
"""

from __future__ import annotations

import os
import time

import numpy as np

from nullspace_unlearn import cli, data, determinism, evaluate, linalg, nn, subspace, unlearn

# Layers the benchmark measures, named after the package's modules.
LAYERS = ("cli", "data", "determinism", "nn", "linalg", "subspace", "unlearn", "evaluate")

ID, PARENT, REQUEST, NAME, START, END, COUNTS = range(7)


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _flops_per_row(net) -> int:
    """Multiply-adds of one sample through every layer, counted as 2 flops each."""
    return sum(2 * w.shape[0] * w.shape[1] for w in net.weights)


def _count_train(tracer, args, result):
    meta = result.metadata
    return {"epochs_run": int(meta["epochs_run"]), "best_epoch": int(meta["best_epoch"])}


def _count_loss_and_grads(tracer, args, result):
    rows = int(np.shape(args[1])[0])
    # A forward pass plus the two backward products (weight gradient, back-propagated delta).
    return {"rows": rows, "flops": 3 * rows * _flops_per_row(args[0])}


def _count_rows(tracer, args, result):
    return {"rows": int(np.shape(args[1])[0])}


def _count_forward(tracer, args, result):
    x = np.asarray(args[1], dtype=np.float64)
    scorer = tracer.outermost("evaluate.")
    if scorer is not None:
        tracer.unique_eval_rows.setdefault(scorer, set()).update(row.tobytes() for row in x)
    return {"rows": int(x.shape[0])}


def _count_svd(tracer, args, result):
    rows, cols = np.shape(args[0])
    return {"rows": int(rows), "cols": int(cols)}


def _count_apply_projection(tracer, args, result):
    g, p = np.asarray(args[0]), np.asarray(args[1])
    norm = float(np.linalg.norm(g))
    removed = float(np.linalg.norm(g - result)) / norm if norm > 0.0 else 0.0
    return {
        "flops": 2 * g.shape[0] * g.shape[1] * p.shape[1],
        "projector_bytes": int(p.nbytes),
        "removed": removed,
    }


def _count_merge(tracer, args, result):
    return {
        "exact": min(result.epsilons) == 1.0,
        "ranks": tuple(int(k) for k in result.ranks),
        "key": (result.merged_classes, result.epsilons, result.ranks),
    }


# (owner, attribute, span name, counter).  Re-bound names are listed once per
# module that looks them up.
TARGETS = (
    (cli, "build_subspaces", "cli.build_subspaces", None),
    (cli, "run_unlearn_variant", "cli.run_unlearn_variant", None),
    (cli, "_read_json", "cli.read", lambda t, a, r: _file_bytes(a[0])),
    (cli, "_file_hash", "cli.read", lambda t, a, r: _file_bytes(a[0])),
    (data, "load_csv", "data.load_csv", lambda t, a, r: _file_bytes(a[0])),
    (data, "split", "data.split", None),
    (determinism.PortableRng, "permutation", "determinism.permutation", None),
    (nn, "train", "nn.train", _count_train),
    (nn, "loss_and_grads", "nn.loss_and_grads", _count_loss_and_grads),
    (nn, "accuracy", "nn.accuracy", _count_rows),
    (nn, "forward", "nn.forward", _count_forward),
    (nn, "save_checkpoint", "nn.save_checkpoint", lambda t, a, r: _file_bytes(a[1])),
    (nn, "load_checkpoint", "nn.load_checkpoint", lambda t, a, r: _file_bytes(a[0])),
    (linalg, "svd", "linalg.svd", _count_svd),
    (subspace, "svd", "linalg.svd", _count_svd),
    (linalg, "apply_projection", "linalg.apply_projection", _count_apply_projection),
    (unlearn, "apply_projection", "linalg.apply_projection", _count_apply_projection),
    (subspace, "class_subspace", "subspace.class_subspace", None),
    (subspace, "merge_null_projector", "subspace.merge_null_projector", _count_merge),
    (subspace, "load_subspace", "subspace.load_subspace", lambda t, a, r: _file_bytes(a[0])),
    (unlearn, "pseudo_label_set", "unlearn.label_set", None),
    (unlearn, "random_label_set", "unlearn.label_set", None),
    (unlearn, "calibrated_unlearn", "unlearn.unlearn", None),
    (unlearn, "baseline_unlearn", "unlearn.unlearn", None),
    (evaluate, "utility", "evaluate.utility", None),
    (evaluate, "mia", "evaluate.mia", None),
    (evaluate, "loss_contour", "evaluate.loss_contour", None),
    (evaluate, "orthogonality_audit", "evaluate.orthogonality_audit", None),
)


class Tracer:
    """Patches TARGETS while active and records one span per call."""

    def __init__(self):
        self.spans = []
        self.request = None  # id of the benchmark request being served
        self.unique_eval_rows = {}  # outermost evaluate span id -> distinct input rows
        self._stack = []
        self._patches = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.request, name, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    def note(self, sid: int, **counts) -> None:
        """Attach counts to a span the caller opened with begin()."""
        self.spans[sid][COUNTS] = counts

    def outermost(self, prefix: str):
        """Id of the outermost open span whose name starts with prefix, or None."""
        return next((sid for sid in self._stack if self.spans[sid][NAME].startswith(prefix)), None)

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name: str, count):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if count is not None:
                tracer.spans[sid][COUNTS] = count(tracer, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- reading the spans back ----------------------------------------------
    def ancestors(self, span):
        parent = span[PARENT]
        while parent is not None:
            span = self.spans[parent]
            yield span
            parent = span[PARENT]

    def under(self, span, prefix: str) -> bool:
        return any(a[NAME].startswith(prefix) for a in self.ancestors(span))

    def layer_spans(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[NAME].startswith(layer + "."))


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tr: Tracer, bench) -> dict:
    """Per-layer numbers of one traced window: name -> (value, unit).

    ``busy`` is the summed span time of a function, ``self`` its busy time
    minus that of its child spans.  Flops and bytes marked ``computed`` come
    from array shapes, not from hardware counters.
    """
    spans = [s for s in tr.spans if s[END] is not None]
    child_time = {}
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]

    def of(name, where=None):
        return [s for s in spans if s[NAME] == name and (where is None or where(s))]

    def of_prefix(prefix, where):
        return [s for s in spans if s[NAME].startswith(prefix) and where(s)]

    def busy(group):
        return sum(s[END] - s[START] for s in group)

    def total(group, key):
        return sum(s[COUNTS].get(key, 0) for s in group if s[COUNTS])

    out = {}
    passes = max(len(bench.samples["pipeline"]), 1)
    in_pipeline = lambda s: s[REQUEST] is not None and s[REQUEST][1] == "pipeline"  # noqa: E731

    # cli
    for stage, times in bench.stage_busy.items():
        out[f"cli.{stage}.busy_s"] = (_median(times), "s")
    out["cli.bytes_written_per_pass"] = (total(of_prefix("cli.", in_pipeline), "bytes_written") / passes, "bytes")
    reads = [s for s in spans if in_pipeline(s) and s[NAME] in (
        "cli.read", "data.load_csv", "nn.load_checkpoint", "subspace.load_subspace")]
    out["cli.bytes_read_per_pass"] = (total(reads, "bytes") / passes, "bytes")

    # data, determinism
    for name in ("data.load_csv", "data.split", "determinism.permutation"):
        group = of(name)
        out[f"{name}.calls"] = (len(group), "count")
        out[f"{name}.busy_s"] = (busy(group), "s")

    # nn
    trains = of("nn.train")
    epochs = total(trains, "epochs_run")
    out["nn.train.calls"] = (len(trains), "count")
    out["nn.train.busy_s"] = (busy(trains), "s")
    out["nn.train.self_s"] = (sum(s[END] - s[START] - child_time.get(s[ID], 0.0) for s in trains), "s")
    out["nn.train.epochs_run"] = (epochs, "count")
    out["nn.train.best_epoch_ratio"] = (total(trains, "best_epoch") / epochs if epochs else 0.0, "ratio")
    lg = of("nn.loss_and_grads")
    out["nn.loss_and_grads.calls"] = (len(lg), "count")
    out["nn.loss_and_grads.us_per_call"] = (1e6 * busy(lg) / len(lg) if lg else 0.0, "us")
    out["nn.loss_and_grads.flop_per_call_computed"] = (total(lg, "flops") / len(lg) if lg else 0.0, "flop")
    for name in ("nn.accuracy", "nn.forward"):
        group = of(name)
        out[f"{name}.calls"] = (len(group), "count")
        out[f"{name}.rows"] = (total(group, "rows"), "count")
        out[f"{name}.busy_s"] = (busy(group), "s")
    for name, label in (("nn.save_checkpoint", "checkpoint_save"), ("nn.load_checkpoint", "checkpoint_load")):
        group = of(name)
        out[f"nn.{label}.busy_s"] = (busy(group), "s")
        out[f"nn.{label}.bytes"] = (total(group, "bytes"), "bytes")

    # linalg
    for kind in ("class", "merge"):
        group = of("linalg.svd", lambda s: tr.under(s, "subspace.merge_null_projector") == (kind == "merge"))
        out[f"linalg.svd.{kind}.calls"] = (len(group), "count")
        out[f"linalg.svd.{kind}.busy_s"] = (busy(group), "s")
        out[f"linalg.svd.{kind}.rows"] = (max((s[COUNTS]["rows"] for s in group), default=0), "count")
        out[f"linalg.svd.{kind}.max_cols"] = (max((s[COUNTS]["cols"] for s in group), default=0), "count")
    ap = of("linalg.apply_projection")
    n_ap = max(len(ap), 1)
    out["linalg.apply_projection.calls"] = (len(ap), "count")
    out["linalg.apply_projection.us_per_call"] = (1e6 * busy(ap) / n_ap, "us")
    out["linalg.apply_projection.flop_per_call_computed"] = (total(ap, "flops") / n_ap, "flop")
    out["linalg.apply_projection.projector_bytes_computed"] = (total(ap, "projector_bytes") / n_ap, "bytes")
    out["linalg.apply_projection.removed_share_mean"] = (total(ap, "removed") / n_ap, "ratio")

    # subspace
    for name in ("subspace.class_subspace", "subspace.merge_null_projector"):
        group = of(name)
        out[f"{name}.calls"] = (len(group), "count")
        out[f"{name}.busy_s"] = (busy(group), "s")
    merges = of("subspace.merge_null_projector")
    pipe_merges = [s for s in merges if in_pipeline(s)]
    distinct = {}
    for s in pipe_merges:
        distinct.setdefault(s[REQUEST], set()).add(s[COUNTS]["key"])
    out["subspace.merges_per_pass"] = (len(pipe_merges) / passes, "count")
    out["subspace.distinct_projectors_per_pass"] = (sum(len(v) for v in distinct.values()) / passes, "count")
    for mode in ("preset", "exact"):
        last = [s[COUNTS]["ranks"] for s in merges if s[COUNTS]["exact"] == (mode == "exact") and not in_pipeline(s)]
        ranks = last[-1] if last else ()
        for li in range(3):
            out[f"subspace.rank.{mode}.l{li}"] = (ranks[li] if li < len(ranks) else 0, "count")

    # unlearn
    entries = of("unlearn.unlearn")
    labels = of("unlearn.label_set", lambda s: tr.under(s, "unlearn.unlearn"))
    out["unlearn.label_set.busy_s"] = (busy(labels), "s")
    out["unlearn.finetune.busy_s"] = (busy(entries) - busy(labels), "s")
    out["unlearn.finetune.steps"] = (len(of("nn.loss_and_grads", lambda s: tr.under(s, "unlearn.unlearn"))), "count")

    # evaluate
    for name in ("evaluate.utility", "evaluate.mia", "evaluate.loss_contour", "evaluate.orthogonality_audit"):
        group = of(name)
        out[f"{name}.calls"] = (len(group), "count")
        out[f"{name}.busy_s"] = (busy(group), "s")
    eval_rows = total(of("nn.forward", lambda s: tr.under(s, "evaluate.")), "rows")
    unique = sum(len(rows) for rows in tr.unique_eval_rows.values())
    out["evaluate.rows_per_unique_row"] = (eval_rows / unique if unique else 0.0, "ratio")
    for key in ("acc_remaining", "acc_remaining_original", "acc_forget", "mia", "audit_residual_exact"):
        out[f"evaluate.quality.{key}"] = (float(bench.quality.get(key, 0.0)), "ratio")

    out["trace.spans"] = (len(spans), "count")
    return out
