"""Benchmark of the nullspace-unlearn pipeline.

    python3 benchmarks/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Workloads: ``pipeline``, ``projector-build``, ``unlearn-requests`` (see
``workloads.py`` and the README next to this file).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a traced
run plus the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when an operation or a correctness check failed, 2 when the package sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pipeline_s": "s",
    "projector_s.preset": "s",
    "projector_s.exact": "s",
    "unlearn_ms.projected.p50": "ms",
    "unlearn_ms.projected.p90": "ms",
    "unlearn_ms.plain.p50": "ms",
    "unlearn_ms.plain.p90": "ms",
    "score_ms.p50": "ms",
    "score_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("pipeline", "projector-build", "unlearn-requests"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads() -> tuple:
    """(nproc, thread count): OPENBLAS_NUM_THREADS when set, else one, never above nproc.

    One thread is the default because the toy network's matrices are small:
    on a shared two-core machine, a second OpenBLAS thread made unlearn
    requests slower and about twice as jittery as one thread did.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    setting = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = int(setting) if setting.isdigit() and int(setting) > 0 else 1
    return nproc, min(threads, nproc)


def _git_commit():
    """The checked-out commit, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def _environment(np, nproc, threads, seed, overrides) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "src_nonblank_lines": _src_lines(),
        "seed": seed,
        "overrides": list(overrides),
    }


def summarize(values, scale: float = 1.0) -> dict:
    """Median, p90, and the highest percentile that still has ten samples beyond it."""
    import numpy as np

    xs = np.sort(np.asarray(values, dtype=np.float64)) * scale
    n = int(xs.size)
    if n == 0:
        return {"n": 0}
    out = {"n": n, "p50": float(np.median(xs)), "p90": float(np.percentile(xs, 90))}
    if n <= 10:
        out["tail"] = None  # no percentile has ten samples beyond it
    else:
        pct = 100.0 * (n - 10) / n
        out["tail"] = {"pct": round(pct, 2), "value": float(np.percentile(xs, pct))}
    return out


def end_to_end(bench, wall: float) -> tuple:
    """(metrics for the result line, per-kind sample statistics for the details line)."""
    medians = {"setup": "setup_s", "pipeline": "pipeline_s",
               "projector.preset": "projector_s.preset", "projector.exact": "projector_s.exact"}
    latencies = {"unlearn.projected": "unlearn_ms.projected", "unlearn.plain": "unlearn_ms.plain", "score": "score_ms"}
    stats, values = {}, {"wall_s": wall}
    for kind, name in medians.items():
        stats[name] = dict(summarize(bench.samples[kind]), raw=summarize(bench.raw[kind]))
        values[name] = stats[name]["p50"]
    for kind, name in latencies.items():
        stats[name] = dict(summarize(bench.samples[kind], 1e3), raw=summarize(bench.raw[kind], 1e3))
        values[f"{name}.p50"] = stats[name]["p50"]
        values[f"{name}.p90"] = stats[name]["p90"]
    y = bench.yardstick.samples
    stats["yardstick_s"] = {"n": len(y), "mean": sum(y) / len(y), "nominal": bench.yardstick.NOMINAL_S}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, stats


def _run_window(bench, workload: str, seconds: float) -> float:
    """The reference round, then the workload's own requests until `seconds` have passed."""
    t0 = time.perf_counter()
    wall = bench.reference_round()
    stream = bench.own_requests(workload)
    # A pipeline run makes at least two passes so that their artifacts can be compared.
    while time.perf_counter() - t0 < seconds or (workload == "pipeline" and bench.passes < 2):
        next(stream)()
    return wall


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "nullspace_unlearn", "__init__.py")):
        print(f"benchmark: package sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc, threads = _blas_threads()
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)  # read once, when numpy loads OpenBLAS
    sys.path.insert(0, SRC)
    import numpy as np

    import tracer as tracing
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        bench = workloads.Bench(args.seed, workdir)
        for _ in range(SETUP_REPEATS):
            bench.set_up()
        detail = {"workload": args.workload, "trace": args.trace,
                  "environment": _environment(np, nproc, threads, args.seed, bench.overrides),
                  "pipeline_overrides": list(workloads.PIPELINE_SHORTENING),
                  "loop": "closed, one client"}
        if args.trace:
            untraced_wall = bench.reference_round()
            bench.reset_samples()
            with tracing.Tracer() as tr:
                bench.tracer = tr
                wall = _run_window(bench, args.workload, args.seconds)
                bench.tracer = None
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in tracing.layer_metrics(tr, bench).items()}
            metrics["trace.overhead_s"] = {"value": wall - untraced_wall, "unit": "s"}
            metrics["trace.overhead_pct"] = {"value": 100.0 * (wall - untraced_wall) / untraced_wall, "unit": "%"}
            for layer in workloads.EXPECTED_LAYERS[args.workload]:
                bench.check(tr.layer_spans(layer) > 0, f"tracer recorded no {layer} span")
            detail["spans_per_layer"] = {layer: tr.layer_spans(layer) for layer in tracing.LAYERS}
        else:
            wall = _run_window(bench, args.workload, args.seconds)
            metrics, detail["samples"] = end_to_end(bench, wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still has its workdir there

    failed = len(bench.failures)
    detail["quality"] = bench.quality
    detail["error_rate"] = failed / bench.attempted
    detail["failures"] = bench.failures[:20]
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':48s} {detail['error_rate']:>16.6g} ratio  ({failed} of {bench.attempted})")
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
