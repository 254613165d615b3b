"""Smoke test of the benchmark harness: python3 -m pytest -q benchmarks

Runs every workload in-process on a shrunken config (``workloads.SHORTENING``
patched to ``TINY``) for a fraction of a second, traced and untraced, and
checks the result line against BENCHMARK.json.  The numbers themselves are
not checked here.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = (
    "data.n_per_class=300",
    "train.epochs=20",
    "train.milestones=[16]",
    "subspace.build_batch=4",
    "unlearn.epochs=3",
    "contour.steps=3",
    "mia.nonmember_size=50",
)


def _run(monkeypatch, capsys, workload, trace, shortening=TINY):
    """(exit code, details line, result line) of one in-process run."""
    monkeypatch.setattr(workloads, "SHORTENING", shortening)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.EXPECTED_LAYERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, workload, trace):
    code, detail, result = _run(monkeypatch, capsys, workload, trace)
    assert code == 0, detail["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert detail["environment"]["overrides"] == list(TINY)
    quality = detail["quality"]
    assert {"acc_remaining", "acc_remaining_original", "acc_forget", "mia"} <= set(quality)
    if trace:
        for layer in workloads.EXPECTED_LAYERS[workload]:
            assert detail["spans_per_layer"][layer] > 0, layer
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    # At epsilon 0.5 the "exact" projectors keep only half the energy, so the
    # exact-mode retained-energy and audit checks must fail.
    code, _, result = _run(monkeypatch, capsys, "projector-build", 0,
                           shortening=TINY + ("acceptance.exact_mode.epsilon=0.5",))
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, str(tmp_path / "benchmarks" / "run.py"), "--workload", "pipeline",
           "--seed", "5", "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_tracer_wraps_names_where_they_are_looked_up_and_restores_them():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracer.TARGETS]
    with tracer.Tracer():
        # `subspace` and `unlearn` bound these with `from .linalg import ...`.
        assert tracer.subspace.svd.__wrapped__ is tracer.linalg.svd.__wrapped__
        assert tracer.unlearn.apply_projection.__wrapped__ is tracer.linalg.apply_projection.__wrapped__
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn


def test_summary_reports_a_tail_percentile_only_with_ten_samples_beyond_it():
    assert run.summarize([1.0] * 10)["tail"] is None
    stats = run.summarize(list(range(1, 41)))
    assert stats["n"] == 40 and stats["p50"] == 20.5
    assert stats["tail"]["pct"] == 75.0
