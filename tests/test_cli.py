"""Command-line pipeline: artifacts, determinism, exit codes."""

import json

import pytest
from click.testing import CliRunner

from nullspace_unlearn import cli, nn

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
        ("unlearn", "--variant", "random-label"),
        ("unlearn", "--variant", "random-label+nullspace"),
        ("unlearn", "--variant", "gradient-ascent"),
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
        "subspace_class_0.json", "subspace_class_1.json", "subspace_class_2.json",
        "subspaces.meta.json",
        "unlearned_calibrated.json", "run_unlearned_calibrated.json",
        "unlearned_random-label.json", "run_unlearned_random-label.json",
        "unlearned_random-label+nullspace.json", "run_unlearned_random-label+nullspace.json",
        "unlearned_gradient-ascent.json", "run_unlearned_gradient-ascent.json",
        "evaluate.json", "contour.csv", "contour.json",
        "ablation.csv", "ablation.json", "report.json",
    }
    names = {p.name for p in (tmp_path / "work").iterdir()}
    assert produced <= names

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

    final = json.loads((tmp_path / "work" / "report.json").read_text())
    assert set(final["sections"]) == {"evaluate", "ablation", "contour"}


def test_pipeline_is_byte_reproducible(env, tmp_path):
    runner, cfg_path, _ = env
    outs = []
    for sub in ("a", "b"):
        workdir = str(tmp_path / sub)
        for step in (("gen-data",), ("train",), ("subspace",), ("unlearn",)):
            result = run(runner, cfg_path, workdir, *step)
            assert result.exit_code == 0, result.output
        outs.append(tmp_path / sub)
    for name in ("dataset.csv", "original.json", "subspace_class_1.json", "unlearned_calibrated.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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
    result = run(runner, cfg_path, workdir, "ablate")  # needs retrain.json
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT
    assert "retrain" in stderr_error(result)["message"]

    (tmp_path / "work" / "subspace_class_1.json").unlink()
    result = run(runner, cfg_path, workdir, "unlearn")
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT
    assert "subspace_class_1.json" in stderr_error(result)["message"]


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


def test_config_file_missing_a_key_exits_3(env, tmp_path):
    runner, _, workdir = env
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(dict(MINI_CONFIG, train={k: v for k, v in MINI_CONFIG["train"].items() if k != "gamma"})))
    result = run(runner, str(partial), workdir, "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "train.gamma" in stderr_error(result)["message"]


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


def test_random_label_variant_runs_without_subspaces(env):
    runner, cfg_path, workdir = env
    run(runner, cfg_path, workdir, "gen-data")
    run(runner, cfg_path, workdir, "train")
    result = run(runner, cfg_path, workdir, "unlearn", "--variant", "random-label")
    assert result.exit_code == 0
    # The projected variant genuinely needs the subspace artifacts.
    result = run(runner, cfg_path, workdir, "unlearn", "--variant", "random-label+nullspace")
    assert result.exit_code == cli.EXIT_MISSING_ARTIFACT


def test_gradient_ascent_variant_ascends(env, tmp_path):
    runner, cfg_path, workdir = env
    for step in (("gen-data",), ("train",), ("unlearn", "--variant", "gradient-ascent")):
        result = run(runner, cfg_path, workdir, *step)
        assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "work" / "run_unlearned_gradient-ascent.json").read_text())
    assert record["plan"] == "keep+ascend"
    assert record["epoch_losses"][-1] > record["epoch_losses"][0]


def test_variant_keys_in_the_config_exit_3(env, tmp_path):
    runner, _, workdir = env
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(dict(MINI_CONFIG, unlearn=dict(MINI_CONFIG["unlearn"], labeling="pseudo"))))
    result = run(runner, str(stale), workdir, "gen-data")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "unlearn --variant" in stderr_error(result)["message"]
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


def test_ablate_runs_missing_variants_in_memory_and_saves_nothing(env, tmp_path):
    runner, cfg_path, workdir = env
    for step in ("gen-data", "train", "retrain", "subspace", "ablate"):
        assert run(runner, cfg_path, workdir, step).exit_code == 0, step
    work = tmp_path / "work"
    assert not [p.name for p in work.iterdir() if "unlearned_" in p.name]
    in_memory = (work / "ablation.json").read_bytes()
    for variant in ("calibrated", "random-label", "random-label+nullspace", "gradient-ascent"):
        assert run(runner, cfg_path, workdir, "unlearn", "--variant", variant).exit_code == 0, variant
    assert run(runner, cfg_path, workdir, "ablate").exit_code == 0
    assert (work / "ablation.json").read_bytes() == in_memory
    # A saved checkpoint is what gets scored.
    (work / "unlearned_calibrated.json").write_bytes((work / "unlearned_gradient-ascent.json").read_bytes())
    assert run(runner, cfg_path, workdir, "ablate").exit_code == 0
    rows = {r["method"]: r for r in json.loads((work / "ablation.json").read_text())["rows"]}
    assert dict(rows["calibrated"], method="gradient-ascent") == rows["gradient-ascent"]


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


def test_checkpoint_from_another_config_is_refused(env):
    runner, cfg_path, workdir = env
    for step in (("gen-data",), ("train",), ("--set", "train.epochs=0", "retrain"), ("subspace",)):
        assert run(runner, cfg_path, workdir, *step).exit_code == 0
    for step in ("ablate", "evaluate"):
        result = run(runner, cfg_path, workdir, step)
        assert result.exit_code == cli.EXIT_VALIDATION, step
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
    for step in (("unlearn",), ("contour", "--model", "original"), ("ablate",)):
        result = run(runner, cfg_path, workdir, *step)
        assert result.exit_code == cli.EXIT_VALIDATION, step
        assert "source checkpoint hash" in stderr_error(result)["message"]


def test_tampered_dataset_is_rejected(env, tmp_path):
    runner, cfg_path, workdir = env
    run(runner, cfg_path, workdir, "gen-data")
    csv_path = tmp_path / "work" / "dataset.csv"
    lines = csv_path.read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[0], "9.9", 1)
    csv_path.write_text("\n".join(lines) + "\n")
    result = run(runner, cfg_path, workdir, "train")
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "hash" in stderr_error(result)["message"]


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
