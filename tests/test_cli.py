"""Command-line pipeline: artifacts, determinism, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
from click.testing import CliRunner

from nullspace_unlearn import cli, data, evaluate, nn, subspace, unlearn
from nullspace_unlearn.config import ConfigError, load_config
from nullspace_unlearn.linalg import NumericError

MINI_CONFIG = {
    "preset_version": 1,
    "name": "mini",
    "seed": 5,
    "paths": {"workdir": "runs/mini"},
    "data": {
        "kind": "gaussian_mixture",
        "means": [[3.0, 0.0], [-1.5, 2.6], [-1.5, -2.6]],
        "covariances": [
            [[0.2, 0.0], [0.0, 0.2]],
            [[0.2, 0.0], [0.0, 0.2]],
            [[0.2, 0.0], [0.0, 0.2]],
        ],
        "n_per_class": 60,
    },
    "split": {
        "train_fraction": 0.3,
        "val_fraction": 0.2,
        "test_fraction": 0.5,
        "unlearn_classes": [0],
    },
    "network": {
        "input_shape": [2],
        "layers": [
            {"kind": "dense", "activation": "relu", "in_features": 2, "out_features": 24},
            {"kind": "dense", "activation": "identity", "in_features": 24, "out_features": 3},
        ],
    },
    "train": {
        "lr": 0.3,
        "epochs": 40,
        "batch_size": 16,
        "milestones": [30],
        "gamma": 0.2,
        "patience": None,
    },
    "subspace": {"epsilon": 0.99, "build_batch": 12},
    "unlearn": {
        "lr": 0.02,
        "epochs": 10,
        "batch_size": 8,
    },
    "mia": {"nonmember_size": 30},
    "contour": {"half_range": 0.2, "steps": 3, "eval_subsample": 40},
    "acceptance": {
        "seeds": [5],
        "exact_mode": {"epsilon": 1.0, "build_batch": 8},
        "mia_probe": {"epochs": 20, "milestones": [15]},
    },
}


@pytest.fixture()
def env(tmp_path):
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    workdir = tmp_path / "work"
    return CliRunner(), str(cfg_path), str(workdir)


def run(runner, cfg_path, workdir, *args):
    return runner.invoke(
        cli.main, ["--config", cfg_path, "--workdir", workdir, *args], catch_exceptions=False
    )


def stderr_error(result):
    return json.loads(result.output.strip().splitlines()[-1])


def test_full_pipeline_produces_every_artifact(env, tmp_path):
    runner, cfg_path, workdir = env
    steps = [
        ("gen-data",),
        ("train",),
        ("retrain",),
        ("subspace",),
        ("unlearn",),
        ("evaluate",),
        ("contour",),
        ("ablate",),
        ("report",),
    ]
    for step in steps:
        result = run(runner, cfg_path, workdir, *step)
        assert result.exit_code == 0, f"{step} failed: {result.output}"

    produced = {
        "dataset.csv", "dataset.meta.json",
        "original.json", "retrain.json",
        "subspace.json",
        "unlearned_calibrated.json", "run_unlearned_calibrated.json",
        "unlearned_random-label.json", "run_unlearned_random-label.json",
        "unlearned_random-label+nullspace.json", "run_unlearned_random-label+nullspace.json",
        "unlearned_gradient-ascent.json", "run_unlearned_gradient-ascent.json",
        "evaluate.json", "contour.csv", "contour.json",
        "ablation.csv", "ablation.json", "report.json",
    }
    names = {p.name for p in (tmp_path / "work").iterdir()}
    assert names == produced

    report = json.loads((tmp_path / "work" / "evaluate.json").read_text())
    assert set(report["utility"]) >= {
        "original", "retrain", "calibrated", "random-label", "random-label+nullspace", "gradient-ascent"
    }
    assert set(report["mia"]) == {"original", "retrain", "calibrated"}
    assert report["agreement"] is not None
    for rep in report["mia"].values():
        assert 0.0 <= rep["acc_mia"] <= 1.0

    lines = (tmp_path / "work" / "ablation.csv").read_text().splitlines()
    assert lines[0] == "method,acc_remaining_test,acc_unlearn_test"
    assert [l.split(",")[0] for l in lines[1:]] == list(cli._CHECKPOINTS)
    # ablate and evaluate score the same weights.
    for row in json.loads((tmp_path / "work" / "ablation.json").read_text())["rows"]:
        scored = report["utility"][row["method"]]
        assert (row["acc_remaining_test"], row["acc_unlearn_test"]) == (
            scored["acc_remaining_test"], scored["acc_unlearn_test"]
        ), row["method"]

    contour_lines = (tmp_path / "work" / "contour.csv").read_text().splitlines()
    assert contour_lines[0] == "alpha,beta,loss"
    assert len(contour_lines) == 1 + 3 * 3
    # The table spells contour.json's grid, alpha-major.
    grid = json.loads((tmp_path / "work" / "contour.json").read_text())
    assert contour_lines[1:] == [
        f"{a:.17g},{b:.17g},{grid['losses'][i][j]:.17g}" for i, a in enumerate(grid["alphas"]) for j, b in enumerate(grid["betas"])
    ]

    final = json.loads((tmp_path / "work" / "report.json").read_text())
    assert set(final["sections"]) == {"evaluate", "ablation", "contour"}


def test_pipeline_is_byte_reproducible(env, tmp_path):
    runner, cfg_path, _ = env
    steps = ("gen-data", "train", "subspace", "unlearn")
    outs = []
    for sub in ("a", "b"):
        workdir = str(tmp_path / sub)
        for step in steps:
            result = run(runner, cfg_path, workdir, step)
            assert result.exit_code == 0, result.output
        outs.append(tmp_path / sub)
    # One process per step: every step parses dataset.csv itself.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "nullspace_unlearn.cli", "--config", cfg_path, "--workdir", str(tmp_path / "c"),
             step], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    outs.append(tmp_path / "c")
    names = sorted(p.name for p in outs[0].iterdir())
    for out in outs[1:]:
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), name


_EXACT_PASS = ("train.epochs=200", "train.milestones=[160]", "subspace.epsilon=1.0", "subspace.build_batch=16")


def test_a_pass_agrees_across_blas_thread_counts(tmp_path):
    # Bytes are promised for one numpy/BLAS build at one BLAS thread count
    # only; across thread counts the ranks, the accuracies and the
    # guarantee must still hold.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    sets = [arg for item in _EXACT_PASS for arg in ("--set", item)]
    script = (
        "import sys\n"
        "from nullspace_unlearn import cli\n"
        "for step in ('gen-data', 'train', 'subspace', 'unlearn', 'evaluate'):\n"
        "    cli.main(['--workdir', sys.argv[1], *sys.argv[2:], step], standalone_mode=False)\n"
    )
    workdirs = {threads: tmp_path / f"blas{threads}" for threads in (1, 2)}
    for threads, workdir in workdirs.items():
        proc = subprocess.run(
            [sys.executable, "-c", script, str(workdir), *sets], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)},
        )
        assert proc.returncode == 0, proc.stderr
    ranks, accuracies = [], []
    cfg = load_config(overrides=_EXACT_PASS)
    held = cfg.unlearn_plan().unlearn_classes
    for workdir in workdirs.values():
        ranks.append(json.loads((workdir / "subspace.json").read_text())["ranks"])
        report = json.loads((workdir / "evaluate.json").read_text())
        accuracies.append({m: (u["acc_remaining_test"], u["acc_unlearn_test"]) for m, u in report["utility"].items()})
        # Layer 0's basis spans its input, so both projected runs keep its
        # bits and move layers 1 and 2; the plain variants move every layer.
        assert set(report["weight_change"]) == set(unlearn.VARIANTS)
        for variant, (_, projected, _) in unlearn.VARIANTS.items():
            change = report["weight_change"][variant]
            assert (change[0] == 0.0) if projected else (change[0] > 0.0)
            assert min(change[1:]) > 0.0
        ds, _ = cli.load_dataset_artifact(cfg, workdir)
        net_o = nn.load_checkpoint(cli.checkpoint_path(workdir, "original"))
        net_u = nn.load_checkpoint(cli.checkpoint_path(workdir, "unlearned_calibrated"))
        inputs, _ = cli.build_subspaces(cfg, net_o, cfg.splits(ds).train)
        remaining = [inputs[c] for c in sorted(inputs) if c not in held]
        trace = nn.ActivationTrace(per_layer=[np.hstack(layer) for layer in zip(*remaining)])
        assert max(evaluate.orthogonality_audit(net_o, net_u, trace).per_layer_residual) <= 1e-6
    assert ranks[0] == ranks[1]
    assert accuracies[0] == accuracies[1]
    assert set(accuracies[0]) == {"original", "calibrated", "random-label", "random-label+nullspace", "gradient-ascent"}


def test_missing_artifact_exits_2(env, tmp_path):
    runner, cfg_path, workdir = env
    result = run(runner, cfg_path, workdir, "train")
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT
    assert stderr_error(result)["error"] == "missing-artifact"

    run(runner, cfg_path, workdir, "gen-data")
    result = run(runner, cfg_path, workdir, "subspace")  # needs original.json
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT

    result = run(runner, cfg_path, workdir, "report")  # nothing to join yet
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT

    for step in ("train", "subspace"):
        assert run(runner, cfg_path, workdir, step).exit_code == 0
    result = run(runner, cfg_path, workdir, "ablate")  # needs evaluate.json
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT
    assert "evaluate.json" in stderr_error(result)["message"]

    (tmp_path / "work" / "subspace.json").unlink()
    result = run(runner, cfg_path, workdir, "unlearn")
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT
    assert "subspace.json" in stderr_error(result)["message"]


def test_invalid_config_exits_3(env):
    runner, cfg_path, workdir = env
    result = run(runner, cfg_path, workdir, "--set", "subspace.epsilon=1.5", "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert stderr_error(result)["error"] == "validation"
    result = run(runner, cfg_path, workdir, "--set", "contour.steps=4", "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    result = run(runner, cfg_path, workdir, "--set", "split.unlearn_classes=[0,1,2]", "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    for bad in ("contour.eval_subsample=0", "contour.eval_subsample=-5", "train.gamma=-1",
                "train.gamma=0", "train.milestones=[0,-4]"):
        assert run(runner, cfg_path, workdir, "--set", bad, "gen-data").exit_code == cli.EXIT_VALIDATION, bad
    # An override path through a list names the path instead of crashing.
    result = run(runner, cfg_path, workdir, "--set", "network.layers.0.in_features=3", "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "network.layers" in stderr_error(result)["message"]
    # A misspelt key names the closest known one instead of being ignored.
    for bad, named in (("trian.epochs=3", "train"), ("unlearn.epoch=5", "unlearn.epochs"), ("foo=1", "foo")):
        result = run(runner, cfg_path, workdir, "--set", bad, "gen-data")
        assert result.exit_code == cli.EXIT_VALIDATION, bad
        assert named in stderr_error(result)["message"], bad
    # A value of the wrong JSON type, a non-finite number, a repeated class, a
    # dataset kind nothing generates, or a zero batch is refused, not cast.
    for bad, named in (
        ("train.epochs=2.5", "train.epochs"), ("train.epochs=true", "train.epochs"), ("seed=true", "seed"),
        ("seed=1.9", "seed"), ("split.unlearn_classes=[0.7]", "split.unlearn_classes"),
        ("split.unlearn_classes=[0,0]", "split.unlearn_classes"), ("contour.steps=5.5", "contour.steps"),
        ("split.train_fraction=NaN", "split.train_fraction"), ("contour.half_range=Infinity", "contour.half_range"),
        ('data.kind="glyphs"', "data.kind"), ("train.batch_size=0", "batch_size"),
    ):
        result = run(runner, cfg_path, workdir, "--set", bad, "gen-data")
        assert result.exit_code == cli.EXIT_VALIDATION, bad
        assert named in stderr_error(result)["message"], bad


@pytest.mark.parametrize(
    "content, overrides",
    [
        (b"[1]", ("--set", "seed=1")),
        (b"null", ("--set", "a.b=1")),
        (None, ()),  # --config names a directory
        (b"\xff\xfe{", ()),
    ],
    ids=["list-root-with-override", "null-root-with-override", "directory", "undecodable"],
)
def test_a_config_that_is_not_a_readable_json_object_exits_3(tmp_path, content, overrides):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    result = CliRunner().invoke(
        cli.main, ["--config", str(path), "--workdir", str(tmp_path / "work"), *overrides, "gen-data"],
        catch_exceptions=False,
    )
    assert result.exit_code == cli.EXIT_VALIDATION
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0])["error"] == "validation"


def test_config_file_missing_a_key_exits_3(env, tmp_path):
    runner, _, workdir = env
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(dict(MINI_CONFIG, train={k: v for k, v in MINI_CONFIG["train"].items() if k != "gamma"})))
    result = run(runner, str(partial), workdir, "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "train.gamma" in stderr_error(result)["message"]


@pytest.mark.parametrize(
    "exc,code,kind",
    [
        (FileNotFoundError("no such file"), cli.EXIT_MISSING_ARTIFACT, "missing-artifact"),
        (ConfigError("bad key"), cli.EXIT_VALIDATION, "validation"),
        (NumericError("overflow"), cli.EXIT_NUMERIC, "numeric"),
        (KeyError("layers"), cli.EXIT_VALIDATION, "validation"),
        (ValueError("bad value"), cli.EXIT_VALIDATION, "validation"),
    ],
    ids=["FileNotFoundError", "ConfigError", "NumericError", "KeyError", "ValueError"],
)
def test_guarded_maps_each_error_to_its_exit_code(exc, code, kind, capsys):
    def step():
        raise exc

    with pytest.raises(SystemExit) as caught:
        cli._guarded(step)()
    assert caught.value.code == code
    assert json.loads(capsys.readouterr().err) == {"error": kind, "message": str(exc)}


def test_train_reports_the_checkpoint_score_without_rescoring(tmp_path, monkeypatch):
    # No validation rows and one full batch: validation falls back to the
    # train split, and `nn.train` scores only its final weights separately.
    doc = dict(MINI_CONFIG, split=dict(MINI_CONFIG["split"], train_fraction=0.5, val_fraction=0.0),
               train=dict(MINI_CONFIG["train"], batch_size=None))
    cfg_path = tmp_path / "noval.json"
    cfg_path.write_text(json.dumps(doc))
    runner, workdir = CliRunner(), str(tmp_path / "work")
    assert run(runner, str(cfg_path), workdir, "gen-data").exit_code == 0
    calls = []
    scored = nn.accuracy
    monkeypatch.setattr(nn, "accuracy", lambda *args: calls.append(1) or scored(*args))
    result = run(runner, str(cfg_path), workdir, "train")
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    printed = json.loads(result.output.strip().splitlines()[-1])
    ckpt = json.loads((tmp_path / "work" / "original.json").read_text())
    assert printed["best_val_accuracy"] == ckpt["metadata"]["best_val_accuracy"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_exits_4(env):
    runner, cfg_path, workdir = env
    run(runner, cfg_path, workdir, "gen-data")
    result = run(runner, cfg_path, workdir, "--set", "train.lr=1e8", "train")
    assert result.exit_code == cli.EXIT_NUMERIC
    assert stderr_error(result)["error"] == "numeric"


def test_set_override_changes_behaviour(env, tmp_path):
    runner, cfg_path, workdir = env
    run(runner, cfg_path, workdir, "gen-data")
    result = run(runner, cfg_path, workdir, "--set", "train.epochs=0", "train")
    assert result.exit_code == 0
    ckpt = json.loads((tmp_path / "work" / "original.json").read_text())
    assert ckpt["metadata"]["epochs_run"] == 0
    # A zero budget writes the same metadata keys as a trained run.
    assert run(runner, cfg_path, workdir, "--set", "train.epochs=0", "retrain").exit_code == 0
    zero = json.loads((tmp_path / "work" / "retrain.json").read_text())["metadata"]
    assert run(runner, cfg_path, workdir, "--set", "train.epochs=1", "retrain").exit_code == 0
    one = json.loads((tmp_path / "work" / "retrain.json").read_text())["metadata"]
    assert sorted(zero) == sorted(one)
    assert {"best_val_accuracy", "final_lr", "train_seed"} <= set(zero)


def test_override_seed_changes_dataset(env, tmp_path):
    runner, cfg_path, _ = env
    wa, wb, wc = (str(tmp_path / s) for s in ("sa", "sb", "sc"))
    run(runner, cfg_path, wa, "gen-data")
    run(runner, cfg_path, wb, "--set", "seed=6", "gen-data")
    run(runner, cfg_path, wc, "gen-data")
    a = (tmp_path / "sa" / "dataset.csv").read_bytes()
    b = (tmp_path / "sb" / "dataset.csv").read_bytes()
    c = (tmp_path / "sc" / "dataset.csv").read_bytes()
    assert a != b
    assert a == c


def test_gradient_ascent_variant_ascends(env, tmp_path):
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train", "subspace", "unlearn"):
        result = run(runner, cfg_path, workdir, step)
        assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "work" / "run_unlearned_gradient-ascent.json").read_text())
    assert record["variant"] == "gradient-ascent"
    assert record["epoch_losses"][-1] > record["epoch_losses"][0]


def test_gradient_ascent_stops_inside_a_long_first_epoch(tmp_path):
    # The toy preset with 98 % of the data in train: 4900 forget samples, 196
    # ascent steps per epoch, and the weights overflow inside the first epoch
    # unless the stop rule runs after each step.  One epoch bounds the other
    # three variants' runs on the same forget set.
    runner, workdir = CliRunner(), str(tmp_path / "work")
    sets = ["split.train_fraction=0.98", "split.val_fraction=0", "split.test_fraction=0.02",
            "train.epochs=20", "train.milestones=[16]", "unlearn.epochs=1"]
    args = ["--workdir", workdir, *(a for s in sets for a in ("--set", s))]
    for step in ("gen-data", "train", "subspace", "unlearn"):
        result = runner.invoke(cli.main, [*args, step], catch_exceptions=False)
        assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "work" / "run_unlearned_gradient-ascent.json").read_text())
    assert len(record["epoch_losses"]) == 1 and record["epoch_losses"][0] > math.log(4)


def test_variant_keys_in_the_config_exit_3(env, tmp_path):
    runner, _, workdir = env
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(dict(MINI_CONFIG, unlearn=dict(MINI_CONFIG["unlearn"], labeling="pseudo"))))
    result = run(runner, str(stale), workdir, "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "unlearn.VARIANTS" in stderr_error(result)["message"]
    result = run(runner, str(stale), workdir, "--set", "unlearn.labeling=random", "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION


def test_evaluate_agreement_does_not_read_the_run_record(env, tmp_path):
    runner, cfg_path, workdir = env
    for step in (("gen-data",), ("train",), ("retrain",), ("subspace",), ("unlearn",), ("evaluate",)):
        assert run(runner, cfg_path, workdir, *step).exit_code == 0, step
    work = tmp_path / "work"
    record = json.loads((work / "run_unlearned_calibrated.json").read_text())
    agreement = json.loads((work / "evaluate.json").read_text())["agreement"]
    # The agreement scores the same pseudo-labels the calibrated run trained on.
    assert agreement["pseudo_histogram"] == [record["assigned_labels"].count(c) for c in range(3)]
    (work / "run_unlearned_calibrated.json").unlink()
    assert run(runner, cfg_path, workdir, "evaluate").exit_code == 0
    assert json.loads((work / "evaluate.json").read_text())["agreement"] == agreement


def _evaluated(env, *sets, skip=()):
    """Run every step up to evaluate, leaving out skip; returns the workdir as a Path."""
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train", "retrain", "subspace", "unlearn", "evaluate"):
        if step not in skip:
            assert run(runner, cfg_path, workdir, *sets, step).exit_code == 0, step
    return pathlib.Path(workdir)


def test_ablate_is_a_view_over_evaluate_json(env, monkeypatch):
    runner, cfg_path, workdir = env
    work = _evaluated(env)
    calls = []
    for module, name in ((data, "load_csv"), (nn, "load_checkpoint"), (evaluate, "utility"),
                         (unlearn, "baseline_unlearn")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    assert run(runner, cfg_path, workdir, "ablate").exit_code == 0
    assert calls == []
    utility = json.loads((work / "evaluate.json").read_text())["utility"]
    rows = json.loads((work / "ablation.json").read_text())["rows"]
    assert [r["method"] for r in rows] == list(cli._CHECKPOINTS)
    for row in rows:
        scored = utility[row["method"]]
        assert row == {"method": row["method"], "acc_remaining_test": scored["acc_remaining_test"],
                       "acc_unlearn_test": scored["acc_unlearn_test"]}
    written = {name: (work / name).read_bytes() for name in ("ablation.csv", "ablation.json")}
    # No checkpoint and no basis is read: without them the view is unchanged.
    for path in work.iterdir():
        if path.name.startswith(("original", "retrain", "unlearned_", "subspace", "ablation")):
            path.unlink()
    assert run(runner, cfg_path, workdir, "ablate").exit_code == 0
    assert {name: (work / name).read_bytes() for name in written} == written


def test_ablate_exits_2_naming_a_model_evaluate_did_not_score(env):
    runner, cfg_path, workdir = env
    _evaluated(env, *_SHORT, skip=("retrain",))
    result = run(runner, cfg_path, workdir, *_SHORT, "ablate")
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT
    assert "['retrain']" in stderr_error(result)["message"]


def test_ablate_refuses_an_evaluate_json_from_another_config_or_dataset(env):
    runner, cfg_path, workdir = env
    work = _evaluated(env, *_SHORT)
    result = run(runner, cfg_path, workdir, "ablate")  # not the _SHORT config
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "evaluate.json (config hash, data hash)" in stderr_error(result)["message"]
    with open(work / "dataset.csv", "a") as fh:
        fh.write("0.0,0.0,0\n")
    result = run(runner, cfg_path, workdir, *_SHORT, "ablate")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "evaluate.json (config hash, data hash)" in stderr_error(result)["message"]
    assert not (work / "ablation.json").exists()


def test_an_unlearned_checkpoint_records_its_lineage_not_the_originals_training(env):
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train", "subspace", "unlearn"):
        assert run(runner, cfg_path, workdir, *_SHORT, step).exit_code == 0, step
    original = json.loads((pathlib.Path(workdir) / "original.json").read_text())["metadata"]
    assert {"best_epoch", "best_val_accuracy", "epochs_run", "final_lr", "train_seed"} <= set(original)
    source = cli._file_hash(cli.checkpoint_path(workdir, "original"))
    for variant in unlearn.VARIANTS:
        meta = json.loads((pathlib.Path(workdir) / f"unlearned_{variant}.json").read_text())["metadata"]
        assert sorted(meta) == ["config_hash", "data_hash", "root_seed", "source_checkpoint_hash"], variant
        assert meta["source_checkpoint_hash"] == source, variant


def test_unlearn_writes_no_checkpoint_unless_every_variant_runs(env, monkeypatch):
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train", "subspace"):
        assert run(runner, cfg_path, workdir, *_SHORT, step).exit_code == 0, step
    real = cli.run_unlearn_variant

    def fail_last(cfg, net_o, sp, cache, variant):
        if variant == list(unlearn.VARIANTS)[-1]:
            raise NumericError("unlearning loss went non-finite")
        return real(cfg, net_o, sp, cache, variant)

    monkeypatch.setattr(cli, "run_unlearn_variant", fail_last)
    assert run(runner, cfg_path, workdir, *_SHORT, "unlearn").exit_code == cli.EXIT_NUMERIC
    assert not [name for name in os.listdir(workdir) if "unlearned_" in name]


def test_report_refuses_mismatched_hashes(env, tmp_path):
    runner, cfg_path, workdir = env
    for step in (("gen-data",), ("train",), ("retrain",), ("subspace",), ("unlearn",), ("evaluate",), ("ablate",)):
        result = run(runner, cfg_path, workdir, *step)
        assert result.exit_code == 0, result.output
    evaluate_path = tmp_path / "work" / "evaluate.json"
    doc = json.loads(evaluate_path.read_text())
    doc["data_hash"] = "0" * 16
    evaluate_path.write_text(json.dumps(doc))
    result = run(runner, cfg_path, workdir, "report")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "disagree" in stderr_error(result)["message"]


def test_report_refuses_sections_from_another_config(env):
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train", "evaluate"):
        assert run(runner, cfg_path, workdir, *_SHORT, step).exit_code == 0
    for step in ("evaluate", "report"):
        result = run(runner, cfg_path, workdir, *_SHORT, "--set", "seed=6", step)
        assert result.exit_code == cli.EXIT_VALIDATION, step
    assert "evaluate.json config hash" in stderr_error(result)["message"]
    assert not os.path.exists(os.path.join(workdir, "report.json"))


def test_checkpoint_from_another_config_is_refused(env):
    runner, cfg_path, workdir = env
    for step in (("gen-data",), ("train",), ("--set", "train.epochs=0", "retrain"), ("subspace",)):
        assert run(runner, cfg_path, workdir, *step).exit_code == 0
    result = run(runner, cfg_path, workdir, "evaluate")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "retrain checkpoint" in stderr_error(result)["message"]
    # An original retrained after `subspace` no longer matches this run either.
    assert run(runner, cfg_path, workdir, "--set", "train.epochs=1", "train").exit_code == 0
    result = run(runner, cfg_path, workdir, "unlearn")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "original checkpoint" in stderr_error(result)["message"]


def test_subspaces_from_another_original_are_refused(env):
    runner, cfg_path, workdir = env
    other = ("--set", "train.epochs=1")
    for step in (("gen-data",), (*other, "train"), (*other, "subspace"), ("train",)):
        assert run(runner, cfg_path, workdir, *step).exit_code == 0
    for step in (("unlearn",), ("contour", "--model", "original")):
        result = run(runner, cfg_path, workdir, *step)
        assert result.exit_code == cli.EXIT_VALIDATION, step
        assert "source checkpoint hash" in stderr_error(result)["message"]


def test_evaluate_refuses_unlearned_checkpoints_from_another_original(env):
    # A train rerun under another BLAS thread count rewrites original.json
    # with the same config and data hashes; one ulp stands in for it here.
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train", "subspace", "unlearn"):
        assert run(runner, cfg_path, workdir, *_SHORT, step).exit_code == 0, step
    path = cli.checkpoint_path(workdir, "original")
    before = cli._file_hash(path)
    net = nn.load_checkpoint(path)
    net.weights[0][0, 0] = np.nextafter(net.weights[0][0, 0], np.inf)
    nn.save_checkpoint(net, path)
    result = run(runner, cfg_path, workdir, *_SHORT, "evaluate")
    assert result.exit_code == cli.EXIT_VALIDATION
    message = stderr_error(result)["message"]
    assert "unlearned_" in message and "source checkpoint hash" in message
    assert before in message and cli._file_hash(path) in message
    assert not os.path.exists(os.path.join(workdir, "evaluate.json"))


_SHORT = ("--set", "train.epochs=2", "--set", "train.milestones=[1]")


def _edit_artifact(workdir, name, keys, value):
    """Set doc[keys[0]]...[keys[-1]] = value in the JSON artifact workdir/name."""
    path = os.path.join(workdir, name)
    with open(path) as fh:
        doc = json.load(fh)
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize(
    "name, keys, value, step, named",
    [
        ("original.json", ("layers", 0, "bogus"), 1, "subspace", "original.json"),
        ("original.json", ("input_shape",), 2, "evaluate", "original.json"),
        ("original.json", ("metadata",), 5, "unlearn", "original.json: malformed checkpoint: metadata"),
        ("subspace.json", ("ranks",), 5, "unlearn", "subspace.json"),
        ("original.json", ("weights", 1), [[0.0]], "subspace", "original.json weights[1]"),
        ("subspace.json", ("bases", 0, "base64"), "not base64!", "unlearn", "subspace.json bases[0]"),
    ],
)
def test_a_malformed_model_state_field_exits_3_naming_the_file(env, name, keys, value, step, named):
    runner, cfg_path, workdir = env
    for made in ("gen-data", "train", "subspace"):
        assert run(runner, cfg_path, workdir, *_SHORT, made).exit_code == 0
    _edit_artifact(workdir, name, keys, value)
    result = run(runner, cfg_path, workdir, *_SHORT, step)
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert named in stderr_error(result)["message"]


@pytest.mark.parametrize(
    "layers, named",
    [
        ([0], "holds 1 bases, but the network has 2 layers"),
        ([0, 1, 1], "holds 3 bases, but the network has 2 layers"),
        ([0, 0], "basis 1 has 3 rows, but layer 1's input is 25 wide"),
    ],
    ids=["too-few", "one-too-many", "too-short"],
)
def test_a_basis_that_does_not_fit_the_network_exits_3(env, layers, named):
    # subspace.json keeps its stamps and holds consistent bases and ranks,
    # taken from its own layers, so only the network's shapes can refuse it.
    runner, cfg_path, workdir = env
    for made in ("gen-data", "train", "subspace"):
        assert run(runner, cfg_path, workdir, *_SHORT, made).exit_code == 0
    path = os.path.join(workdir, "subspace.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["bases"], doc["ranks"] = [doc["bases"][li] for li in layers], [doc["ranks"][li] for li in layers]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for step in (("unlearn",), ("contour", "--model", "original")):
        result = run(runner, cfg_path, workdir, *_SHORT, *step)
        assert result.exit_code == cli.EXIT_VALIDATION, result.output
        assert stderr_error(result)["message"] == f"{path} {named}"
    assert not [name for name in os.listdir(workdir) if name.startswith(("unlearned_", "run_", "contour"))]


@pytest.mark.parametrize(
    "name, keys, value, step, named",
    [
        ("dataset.meta.json", (), [], "train", "dataset.meta.json"),
        ("dataset.meta.json", ("provenance",), [1], "train", "provenance"),
        ("evaluate.json", (), [], "report", "evaluate.json"),
    ],
    ids=["meta-root", "meta-provenance", "evaluate-root"],
)
def test_a_json_record_whose_root_or_provenance_is_not_an_object_exits_3(env, name, keys, value, step, named):
    runner, cfg_path, workdir = env
    for made in ("gen-data", "train", "evaluate"):
        assert run(runner, cfg_path, workdir, *_SHORT, made).exit_code == 0
    if keys:
        _edit_artifact(workdir, name, keys, value)
    else:
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(value, fh)
    result = run(runner, cfg_path, workdir, *_SHORT, step)
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert named in stderr_error(result)["message"]


@pytest.mark.parametrize(
    "name, keys, value, step, code, named",
    [
        ("dataset.meta.json", ("n_classes",), [4], "train", 0, None),
        ("dataset.meta.json", ("provenance", "means"), 4, "train", cli.EXIT_VALIDATION, "means"),
        ("evaluate.json", ("config_hash",), [], "report", cli.EXIT_VALIDATION, "evaluate.json config hash"),
        ("evaluate.json", ("utility",), [1], "ablate", cli.EXIT_VALIDATION, "evaluate.json utility"),
        ("evaluate.json", ("utility", "retrain"), 5, "ablate", cli.EXIT_VALIDATION, "evaluate.json utility"),
        ("evaluate.json", ("utility", "retrain"), {"acc_remaining_test": 0.5}, "ablate", cli.EXIT_VALIDATION,
         "evaluate.json utility"),
        ("evaluate.json", ("utility", "retrain", "acc_unlearn_test"), [0.5], "ablate", cli.EXIT_VALIDATION,
         "evaluate.json utility"),
        ("evaluate.json", ("utility", "retrain", "acc_unlearn_test"), "0.5", "ablate", cli.EXIT_VALIDATION,
         "evaluate.json utility"),
    ],
    ids=["meta-n-classes-list", "meta-means-number", "evaluate-config-hash-list", "utility-list",
         "utility-entry-number", "utility-entry-missing-key", "utility-field-list", "utility-field-string"],
)
def test_a_record_field_of_the_wrong_type_does_not_crash(env, name, keys, value, step, code, named):
    # The class count comes from the config, not from a record field, and
    # report compares the sections' hashes without hashing them.
    runner, cfg_path, workdir = env
    for made in ("gen-data", "train", "retrain", "subspace", "unlearn", "evaluate", "ablate"):
        assert run(runner, cfg_path, workdir, *_SHORT, made).exit_code == 0
    _edit_artifact(workdir, name, keys, value)
    result = run(runner, cfg_path, workdir, *_SHORT, step)
    assert result.exit_code == code, result.output
    if named:
        assert named in stderr_error(result)["message"]


def test_a_version_1_checkpoint_with_nested_list_weights_exits_3(env):
    runner, cfg_path, workdir = env
    for made in ("gen-data", "train"):
        assert run(runner, cfg_path, workdir, *_SHORT, made).exit_code == 0
    net = nn.load_checkpoint(os.path.join(workdir, "original.json"))
    _edit_artifact(workdir, "original.json", ("weights",), [w.tolist() for w in net.weights])
    _edit_artifact(workdir, "original.json", ("format_version",), 1)
    result = run(runner, cfg_path, workdir, *_SHORT, "subspace")
    assert result.exit_code == cli.EXIT_VALIDATION
    message = stderr_error(result)["message"]
    assert f"format_version 1, expected {nn.CHECKPOINT_FORMAT_VERSION}" in message


def test_subspace_merges_once_and_later_steps_load_its_basis(env, tmp_path, monkeypatch):
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train", "retrain"):
        assert run(runner, cfg_path, workdir, step).exit_code == 0, step
    merges = []
    real_merge = subspace.merge_null_projector

    def spy(*args, **kwargs):
        merges.append(real_merge(*args, **kwargs))
        return merges[-1]

    monkeypatch.setattr(subspace, "merge_null_projector", spy)
    counts = {}
    for step in ("subspace", "unlearn", "evaluate", "contour", "ablate"):
        before = len(merges)
        assert run(runner, cfg_path, workdir, step).exit_code == 0, step
        counts[step] = len(merges) - before
    assert counts == {"subspace": 1, "unlearn": 0, "evaluate": 0, "contour": 0, "ablate": 0}

    # The saved basis is bit-equal to the one built in memory.
    cfg = load_config(cfg_path)
    sp = cfg.splits(cli.load_dataset_artifact(cfg, workdir)[0])
    net = nn.load_checkpoint(cli.checkpoint_path(workdir, "original"))
    built = cli.build_subspaces(cfg, net, sp.train)[1].for_excluded(*cfg.unlearn_plan().unlearn_classes)
    loaded, _ = subspace.load_subspace(tmp_path / "work" / "subspace.json")
    assert (loaded.merged_classes, loaded.excluded_classes) == (built.merged_classes, built.excluded_classes)
    assert (loaded.epsilons, loaded.ranks) == (built.epsilons, built.ranks)
    for a, b in zip(loaded.bases, built.bases):
        assert a.tobytes() == b.tobytes()


def test_dataset_from_other_generator_inputs_is_refused(env):
    runner, cfg_path, workdir = env
    assert run(runner, cfg_path, workdir, "--set", "data.n_per_class=50", "gen-data").exit_code == 0
    result = run(runner, cfg_path, workdir, "train")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "n_per_class" in stderr_error(result)["message"]
    # The data seed derives from the root seed.
    assert run(runner, cfg_path, workdir, "--set", "seed=6", "gen-data").exit_code == 0
    result = run(runner, cfg_path, workdir, "train")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "seed" in stderr_error(result)["message"]


def _spy(monkeypatch, module, name) -> list:
    """Calls of module.name from now on, one tuple of positional arguments per call."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def _fresh_process(monkeypatch) -> None:
    """Drop the kept dataset, as a step started in a new process finds nothing kept."""
    monkeypatch.setattr(cli, "_kept", dict.fromkeys(cli._kept))


_SPLIT_SETS = ("train", "val", "test", "d_u", "d_r", "val_remaining", "test_remaining", "test_unlearn")


def _same_splits(a: data.Splits, b: data.Splits) -> bool:
    return a.unlearn_classes == b.unlearn_classes and all(
        np.array_equal(getattr(a, v).features, getattr(b, v).features)
        and np.array_equal(getattr(a, v).labels, getattr(b, v).labels)
        for v in _SPLIT_SETS
    )


def test_tampered_dataset_is_rejected(env, tmp_path, monkeypatch):
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train"):
        assert run(runner, cfg_path, workdir, step).exit_code == 0, step
    csv_path = tmp_path / "work" / "dataset.csv"
    kept = csv_path.read_bytes()
    lines = kept.decode().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[0], "9.9", 1)
    csv_path.write_text("\n".join(lines) + "\n")
    parses = _spy(monkeypatch, data, "load_csv")
    # The kept dataset is refused by the file's hash, without a parse.
    result = run(runner, cfg_path, workdir, "retrain")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "hash" in stderr_error(result)["message"]
    assert parses == []
    # Parsed in a new process, the bytes are refused by the hash of what was parsed.
    _fresh_process(monkeypatch)
    result = run(runner, cfg_path, workdir, "train")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "hash" in stderr_error(result)["message"]
    assert len(parses) == 1
    # Another split section gets its own splits of the kept dataset.
    csv_path.write_bytes(kept)
    assert run(runner, cfg_path, workdir, "retrain").exit_code == 0
    got = _spy(monkeypatch, cli, "train_retrain")
    other = ("--set", "split.unlearn_classes=[1]")
    assert run(runner, cfg_path, workdir, *other, "retrain").exit_code == 0
    cfg = load_config(cfg_path, other[1:])
    assert _same_splits(got[-1][1], cfg.splits(data.load_csv(csv_path, n_classes=3)))
    # A metadata file without a recorded hash cannot vouch for any dataset.
    _edit_artifact(workdir, "dataset.meta.json", ("data_hash",), None)
    result = run(runner, cfg_path, workdir, "train")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "data_hash must be a string" in stderr_error(result)["message"]


_READING_STEPS = ("train", "retrain", "subspace", "unlearn", "evaluate", "contour")


def test_a_step_reads_dataset_csv_once(env, monkeypatch):
    runner, cfg_path, workdir = env
    csv_path = os.path.join(workdir, "dataset.csv")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == csv_path:
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    _fresh_process(monkeypatch)
    parses, splits = _spy(monkeypatch, data, "load_csv"), _spy(monkeypatch, data, "split")
    # In one process gen-data keeps what it wrote: no step parses, one splits, each hashes the file once.
    opens = {}
    for step in ("gen-data", *_READING_STEPS):
        monkeypatch.setattr("builtins.open", counting_open)
        assert run(runner, cfg_path, workdir, step).exit_code == 0, step
        monkeypatch.setattr("builtins.open", real_open)
        opens[step], opened[:] = list(opened), []
    assert opens == {"gen-data": [], **{step: ["rb"] for step in _READING_STEPS}}
    assert (len(parses), len(splits)) == (0, 1)
    # A step in a new process parses the file once, hashing the bytes it parses.
    _fresh_process(monkeypatch)
    monkeypatch.setattr("builtins.open", counting_open)
    ctx = types.SimpleNamespace(obj=(load_config(cfg_path), workdir))
    _, _, sp, data_hash = cli._inputs(ctx)
    assert opened == ["rb"]
    monkeypatch.undo()
    assert (len(parses), len(splits)) == (1, 2)
    assert data_hash == cli._file_hash(csv_path)
    assert len(sp.train) + len(sp.val) + len(sp.test) == len(data.load_csv(csv_path, n_classes=3))


def test_the_kept_dataset_is_read_only(env):
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train"):
        assert run(runner, cfg_path, workdir, step).exit_code == 0, step
    _, _, sp, _ = cli._inputs(types.SimpleNamespace(obj=(load_config(cfg_path), workdir)))
    with pytest.raises(ValueError, match="read-only"):
        sp.train.features[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sp.d_u.labels[0] = 1
    sets = [cli._kept["dataset"], *(getattr(sp, v) for v in _SPLIT_SETS)]
    assert not any(a.flags.writeable for ds in sets for a in (ds.features, ds.labels))


def test_bad_config_file_exits_3(env, tmp_path):
    runner, _, workdir = env
    broken = tmp_path / "broken.json"
    doc = dict(MINI_CONFIG, subspace={"epsilon": 0.0, "build_batch": 12})
    broken.write_text(json.dumps(doc))
    result = run(runner, str(broken), workdir, "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    # A network as wide as its input_shape but not as the data exits at load, not at train.
    layers = [dict(MINI_CONFIG["network"]["layers"][0], in_features=3), MINI_CONFIG["network"]["layers"][1]]
    broken.write_text(json.dumps(dict(MINI_CONFIG, network={"input_shape": [3], "layers": layers})))
    result = run(runner, str(broken), workdir, "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "network.input_shape" in stderr_error(result)["message"]
    assert "data.means" in stderr_error(result)["message"]


def test_a_projected_unlearn_that_cannot_move_the_weights_exits_3(tmp_path):
    # One dense 2->3 head: at epsilon 1 its basis spans its 3-D augmented input.
    head = {"kind": "dense", "activation": "identity", "in_features": 2, "out_features": 3}
    doc = dict(MINI_CONFIG, network={"input_shape": [2], "layers": [head]},
               subspace=dict(MINI_CONFIG["subspace"], epsilon=1.0))
    cfg_path = tmp_path / "head.json"
    cfg_path.write_text(json.dumps(doc))
    runner, workdir = CliRunner(), str(tmp_path / "work")
    for step in ("gen-data", "train", "subspace"):
        assert run(runner, str(cfg_path), workdir, step).exit_code == 0
    assert json.loads((tmp_path / "work" / "subspace.json").read_text())["ranks"] == [3]
    result = run(runner, str(cfg_path), workdir, "unlearn")
    assert result.exit_code == cli.EXIT_VALIDATION
    error = stderr_error(result)
    assert error["error"] == "validation" and "ranks [3]" in error["message"]
    assert not [p.name for p in (tmp_path / "work").iterdir() if "unlearned_" in p.name]


def test_numeric_failure_keeps_stderr_to_one_json_line(env):
    # In a process of its own, as a user runs it, so numpy's warnings would reach stderr.
    runner, cfg_path, workdir = env
    assert run(runner, cfg_path, workdir, "gen-data").exit_code == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nullspace_unlearn.cli", "--config", cfg_path, "--workdir", workdir,
         "--set", "train.lr=1e8", "train"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == cli.EXIT_NUMERIC
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "numeric"


def test_an_overflowing_full_batch_train_on_two_workers_keeps_stderr_to_one_json_line(tmp_path):
    # The toy preset trains in full batches of 200 rows, so with two workers
    # each step's layer-1 weight gradient runs on a pool thread while the
    # caller goes on to layer 0.  Scaling the gradient's factors by 1e300
    # makes that product overflow there, and the next forward fails.  The
    # job runs in the caller's error state, so stderr holds only the JSON
    # error and no RuntimeWarning from a matmul on the pool thread.
    workdir = str(tmp_path / "work")
    assert CliRunner().invoke(cli.main, ["--workdir", workdir, "gen-data"]).exit_code == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import time\n"
        "from nullspace_unlearn import cli, nn\n"
        "real = nn.SGDStep._weight_grad\n"
        "def overflowing(step, li, dz, aug):\n"
        "    if li == 0:\n"
        "        time.sleep(0.05)  # the pool starts layer 1's job meanwhile\n"
        "    return real(step, li, dz * 1e300, aug * 1e300)\n"
        "nn._WORKERS, nn.SGDStep._weight_grad = 2, overflowing\n"
        "cli.main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "--workdir", workdir, "--set", "train.epochs=5", "train"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == cli.EXIT_NUMERIC
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "numeric"
