"""Command-line driver: end-to-end workflows over versioned JSON/CSV artifacts.

Every subcommand reads one config document (the bundled toy preset by
default), derives all randomness from its root seed, and writes artifacts
that embed the config hash plus the dataset hash they were computed from.
Re-running a subcommand with identical inputs on the same numpy/BLAS build
and BLAS thread count rewrites byte-identical artifacts, each written
atomically by `artifacts.write_atomic`.  Failures exit with a single-line
JSON error on stderr: missing input file 2, validation 3, numeric
breakdown 4.

Steps that share a process parse and split the dataset once: the process
keeps one dataset, read-only, under the hash it was written or read with.
A later step still checks dataset.meta.json and hashes dataset.csv, but
does not parse it.  A step in a process of its own parses it as before.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from . import data, evaluate, nn, subspace, unlearn
from .artifacts import file_hash as _file_hash
from .artifacts import read_json as _read_json
from .artifacts import write_json, write_table
from .config import ConfigError, RunConfig, load_config
from .linalg import NumericError

EXIT_MISSING_ARTIFACT = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

# Model name -> checkpoint file stem under the workdir.
_CHECKPOINTS = {"original": "original", "retrain": "retrain", **{v: f"unlearned_{v}" for v in unlearn.VARIANTS}}


def _write_record(doc: dict, path, cfg: RunConfig, data_hash: str) -> None:
    """A JSON record stamped with the config, root seed and dataset it was computed from."""
    write_json({**doc, "config_hash": cfg.hash, "seed": cfg.seed, "data_hash": data_hash}, path)


# ---------------------------------------------------------------------------
# Pipeline helpers.  The CLI subcommands and the acceptance suite both run
# through these, so the seed-derivation tags and artifact shapes cannot drift
# apart between the two.
# ---------------------------------------------------------------------------


def dataset_path(workdir) -> str:
    return os.path.join(workdir, "dataset.csv")


def checkpoint_path(workdir, name: str) -> str:
    return os.path.join(workdir, f"{name}.json")


def _read_only(*sets: data.Dataset) -> None:
    for ds in sets:
        ds.features.flags.writeable = ds.labels.flags.writeable = False


# The process's one kept dataset, so that steps sharing a process parse and split dataset.csv once:
# the (data_hash, n_classes) it is kept under, the Dataset, and the Splits of the last split spec
# asked for.  Every array it hands out is read-only, so no step can alter the next step's input.
_kept = {"key": None, "dataset": None, "spec": None, "splits": None}


def _keep(key: tuple, ds: data.Dataset) -> data.Dataset:
    _read_only(ds)
    _kept.update(key=key, dataset=ds, spec=None, splits=None)
    return ds


def generate_dataset(cfg: RunConfig, workdir) -> tuple:
    """Write dataset.csv + dataset.meta.json and keep the dataset for later steps; returns (dataset, data_hash)."""
    os.makedirs(workdir, exist_ok=True)
    ds = cfg.dataset()
    data_hash = data.save_csv(ds, dataset_path(workdir))
    _write_record({"provenance": cfg.data_inputs()}, os.path.join(workdir, "dataset.meta.json"), cfg, data_hash)
    return _keep((data_hash, ds.n_classes), ds), data_hash


def load_dataset_artifact(cfg: RunConfig, workdir) -> tuple:
    """dataset.csv, verified against its sidecar metadata and this config's data section.

    The dataset kept under the recorded hash serves if the file still hashes to it; else one read parses and hashes it.
    """
    path = dataset_path(workdir)
    meta = _read_json(os.path.join(workdir, "dataset.meta.json"))
    data_hash = meta.get("data_hash")
    if not isinstance(data_hash, str):
        raise ConfigError(f"dataset.meta.json data_hash must be a string, got {data_hash!r}")
    provenance = meta.get("provenance")
    if not isinstance(provenance, dict):
        raise ConfigError(f"dataset.meta.json provenance must be a JSON object, got {provenance!r}")
    inputs = cfg.data_inputs()
    differ = sorted(k for k, v in inputs.items() if provenance.get(k) != v)
    if differ:
        raise ConfigError(f"dataset.meta.json records generator inputs {differ} other than this config's")
    key = (data_hash, len(inputs["means"]))
    if _kept["key"] != key:
        return _keep(key, data.load_csv(path, n_classes=key[1], data_hash=data_hash)), data_hash
    found = _file_hash(path)
    if found != data_hash:
        raise ConfigError(f"{path} hash {found} does not match the recorded {data_hash}")
    return _kept["dataset"], data_hash


def train_original(cfg: RunConfig, sp: data.Splits) -> nn.Network:
    """Train the original model; validation falls back to the train split when empty."""
    val = sp.val if len(sp.val) else sp.train
    schedule = cfg.train_schedule(n_train=len(sp.train), tag="train")
    return nn.train(cfg.init_net("init"), sp.train, val, schedule)


def train_retrain(cfg: RunConfig, sp: data.Splits) -> nn.Network:
    """Reference model trained from scratch on the remaining data only."""
    d_r = sp.d_r
    val = sp.val_remaining if len(sp.val_remaining) else d_r
    schedule = cfg.train_schedule(n_train=len(d_r), tag="retrain")
    return nn.train(cfg.init_net("retrain-init"), d_r, val, schedule)


def build_subspaces(cfg: RunConfig, net: nn.Network, train_set: data.Dataset) -> tuple:
    """({class id: its recorded layer inputs on its seeded build batch}, the cache that merges them per unlearn set)."""
    inputs = {}
    for c in range(train_set.n_classes):
        cls = train_set.class_filter((c,), keep=True)
        if len(cls) == 0:
            raise ConfigError(f"class {c} has no training samples to build a subspace from")
        inputs[c] = subspace.class_subspace(net, cls.subset(cfg.build_indices(c, len(cls))))
    return inputs, subspace.ProjectorCache(inputs, cfg.epsilon)


def run_unlearn_variant(cfg: RunConfig, net_o, sp, cache, variant: str) -> unlearn.UnlearnResult:
    """The config's plan for `variant`, run by `unlearn.baseline_unlearn`.

    In the CLI only `unlearn` calls it, once per `unlearn.VARIANTS` row.
    `cache`, a ProjectorCache or the run's NullProjector (the CLI passes
    the latter), is used only if the variant projects.
    """
    return unlearn.baseline_unlearn(net_o, sp.d_u, cfg.unlearn_plan(variant), cache)


def _save_net(net: nn.Network, path, cfg: RunConfig, data_hash: str) -> None:
    net.metadata.update({"config_hash": cfg.hash, "data_hash": data_hash, "root_seed": cfg.seed})
    nn.save_checkpoint(net, path)


def _require_lineage(what: str, recorded, expected) -> None:
    """Refuse an upstream artifact that records another run's hashes."""
    if recorded != expected:
        raise ConfigError(f"{what} records {recorded}, but this run expects {expected}")


def _load_net(cfg: RunConfig, workdir, name: str, data_hash: str, source=None) -> nn.Network:
    """A checkpoint, refused unless this run's config and dataset made it; an unlearned one must also record `source`.

    `source` is the hash of the current original.json, the checkpoint an unlearned one must have started from.
    """
    net = nn.load_checkpoint(checkpoint_path(workdir, name))
    keys = ("config hash", "data hash", "source checkpoint hash")[: 3 if name.startswith("unlearned_") else 2]
    made_by = tuple(net.metadata.get(k.replace(" ", "_")) for k in keys)
    _require_lineage(f"{name} checkpoint ({', '.join(keys)})", made_by, (cfg.hash, data_hash, source)[: len(keys)])
    return net


def _load_basis(cfg: RunConfig, workdir, data_hash: str, source: str) -> subspace.NullProjector:
    """The run's retained basis, refused unless this run built it from `source`, the current original.json's hash."""
    path = os.path.join(workdir, "subspace.json")
    proj, stamp = subspace.load_subspace(path)
    made_by = tuple(stamp.get(k) for k in ("source_checkpoint_hash", "config_hash", "data_hash"))
    expected = (source, cfg.hash, data_hash)
    _require_lineage(f"{path} (source checkpoint hash, config hash, data hash)", made_by, expected)
    return proj


# ---------------------------------------------------------------------------
# Click wiring.
# ---------------------------------------------------------------------------


def _fail(kind: str, code: int, message: str):
    click.echo(json.dumps({"error": kind, "message": str(message)}), err=True)
    sys.exit(code)


def _guarded(fn):
    """Run a step with numpy's floating-point warnings off, mapping its errors to exit codes.

    stderr then holds only the one-line JSON error; the package's own
    finiteness checks still raise NumericError.
    """

    def run(*args, **kwargs):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return fn(*args, **kwargs)
        except FileNotFoundError as exc:
            _fail("missing-artifact", EXIT_MISSING_ARTIFACT, exc)
        except NumericError as exc:
            _fail("numeric", EXIT_NUMERIC, exc)
        except (ValueError, KeyError, OSError) as exc:
            _fail("validation", EXIT_VALIDATION, exc)

    run.__name__ = fn.__name__
    run.__doc__ = fn.__doc__
    return run


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Config JSON (default: the bundled toy preset).")
@click.option("--set", "overrides", multiple=True, metavar="KEY.PATH=VALUE",
              help="Override a config entry; value parses as JSON.")
@click.option("--workdir", default=None, help="Artifact directory (default: paths.workdir).")
@click.pass_context
def main(ctx, config_path, overrides, workdir):
    """Null-space calibrated class unlearning: data, training, subspaces, unlearning, reports."""
    try:
        cfg = load_config(config_path, overrides)
    except ConfigError as exc:
        _fail("validation", EXIT_VALIDATION, exc)
    ctx.obj = (cfg, workdir or cfg.workdir)


def _inputs(ctx) -> tuple:
    """(cfg, workdir, splits, data_hash) for a step that reads the dataset artifact."""
    cfg, workdir = ctx.obj
    ds, data_hash = load_dataset_artifact(cfg, workdir)
    spec = cfg.split_spec()
    if _kept["spec"] != spec:
        sp = cfg.splits(ds)
        _read_only(sp.train, sp.val, sp.test, sp.d_u, sp.d_r, sp.val_remaining, sp.test_remaining, sp.test_unlearn)
        _kept.update(spec=spec, splits=sp)
    return cfg, workdir, _kept["splits"], data_hash


@main.command("gen-data")
@click.pass_context
@_guarded
def gen_data_cmd(ctx):
    """Generate the dataset artifact (dataset.csv + dataset.meta.json)."""
    cfg, workdir = ctx.obj
    ds, data_hash = generate_dataset(cfg, workdir)
    click.echo(json.dumps({"dataset": dataset_path(workdir), "n_samples": len(ds), "data_hash": data_hash}))


@main.command("train")
@click.pass_context
@_guarded
def train_cmd(ctx):
    """Train the original model on the train split (checkpoint: original.json)."""
    cfg, workdir, sp, data_hash = _inputs(ctx)
    net = train_original(cfg, sp)
    path = checkpoint_path(workdir, "original")
    _save_net(net, path, cfg, data_hash)
    click.echo(json.dumps({"checkpoint": path, "best_val_accuracy": net.metadata["best_val_accuracy"]}))


@main.command("retrain")
@click.pass_context
@_guarded
def retrain_cmd(ctx):
    """Train the retrain reference on the remaining data only (checkpoint: retrain.json)."""
    cfg, workdir, sp, data_hash = _inputs(ctx)
    net = train_retrain(cfg, sp)
    path = checkpoint_path(workdir, "retrain")
    _save_net(net, path, cfg, data_hash)
    click.echo(json.dumps({"checkpoint": path}))


@main.command("subspace")
@click.pass_context
@_guarded
def subspace_cmd(ctx):
    """Merge the retained basis of the unlearn set from the original model (subspace.json)."""
    cfg, workdir, sp, data_hash = _inputs(ctx)
    net = _load_net(cfg, workdir, "original", data_hash)
    _, cache = build_subspaces(cfg, net, sp.train)
    proj = cache.for_excluded(*cfg.unlearn_plan().unlearn_classes)
    path = os.path.join(workdir, "subspace.json")
    subspace.save_subspace(
        proj, path, source_checkpoint_hash=_file_hash(checkpoint_path(workdir, "original")),
        config_hash=cfg.hash, seed=cfg.seed, data_hash=data_hash,
    )
    click.echo(json.dumps({"basis": path, "ranks": list(proj.ranks), "epsilon": cfg.epsilon}))


@main.command("unlearn")
@click.pass_context
@_guarded
def unlearn_cmd(ctx):
    """Run every `unlearn.VARIANTS` row from the original model (checkpoints: unlearned_<variant>.json).

    Every variant runs before any is written, so a refused or failed run leaves no new checkpoint.
    """
    cfg, workdir, sp, data_hash = _inputs(ctx)
    net_o = _load_net(cfg, workdir, "original", data_hash)
    source = _file_hash(checkpoint_path(workdir, "original"))
    basis = _load_basis(cfg, workdir, data_hash, source)
    results = {v: run_unlearn_variant(cfg, net_o, sp, basis, v) for v in unlearn.VARIANTS}
    for variant, res in results.items():
        name = _CHECKPOINTS[variant]
        res.network.metadata["source_checkpoint_hash"] = source
        _save_net(res.network, checkpoint_path(workdir, name), cfg, data_hash)
        _write_record(
            {
                "variant": variant, "epoch_losses": res.epoch_losses,
                "assigned_labels": res.labeled.assigned_labels.tolist(),
                "original_labels": res.labeled.original_labels.tolist(),
            },
            os.path.join(workdir, f"run_{name}.json"), cfg, data_hash,
        )
    click.echo(json.dumps({"checkpoints": [checkpoint_path(workdir, _CHECKPOINTS[v]) for v in results]}))


@main.command("evaluate")
@click.pass_context
@_guarded
def evaluate_cmd(ctx):
    """Utility for every checkpoint present, MIA and agreement where the inputs allow (evaluate.json).

    Agreement scores the original model's pseudo-labels, the ones the
    calibrated run trains on, against the retrained model's predictions.
    `weight_change` gives each unlearned model's per-layer relative weight
    change against the original (`evaluate.weight_change`).
    """
    cfg, workdir, sp, data_hash = _inputs(ctx)
    source = _file_hash(checkpoint_path(workdir, "original"))
    nets = {
        name: _load_net(cfg, workdir, fname, data_hash, source)
        for name, fname in _CHECKPOINTS.items()
        if name == "original" or os.path.exists(checkpoint_path(workdir, fname))
    }
    report = {"utility": {}, "mia": {}, "agreement": None, "weight_change": {}}
    for name, net in nets.items():
        report["utility"][name] = asdict(evaluate.utility(net, sp.test_remaining, sp.test_unlearn))
        if name in unlearn.VARIANTS:
            report["weight_change"][name] = evaluate.weight_change(nets["original"], net)
    member, nonmember = cfg.mia_holdouts(sp)
    for name in ("original", "retrain", "calibrated"):
        if name in nets:
            report["mia"][name] = asdict(evaluate.mia(nets[name], sp.d_u, member, nonmember))
    if "retrain" in nets:
        labeled = unlearn.pseudo_label_set(nets["original"], sp.d_u, sp.unlearn_classes)
        report["agreement"] = asdict(evaluate.pseudo_label_agreement(labeled, nets["retrain"]))
    _write_record(report, os.path.join(workdir, "evaluate.json"), cfg, data_hash)
    click.echo(json.dumps({"report": os.path.join(workdir, "evaluate.json"), "models": sorted(nets)}))


@main.command("contour")
@click.option("--model", type=click.Choice(["original", "calibrated", "retrain"]), default="calibrated",
              help="Checkpoint the loss surface is probed around.")
@click.pass_context
@_guarded
def contour_cmd(ctx, model):
    """Remaining-loss grid along an in-null-space and an off-null-space direction."""
    cfg, workdir, sp, data_hash = _inputs(ctx)
    source = _file_hash(checkpoint_path(workdir, "original"))
    net = _load_net(cfg, workdir, _CHECKPOINTS[model], data_hash, source)
    basis = _load_basis(cfg, workdir, data_hash, source)
    null_dir, off_dir = evaluate.contour_directions(basis, net, cfg.seed_for("contour-dirs"))
    axes = cfg.contour_axes()
    grid = evaluate.loss_contour(net, null_dir, off_dir, axes, axes, cfg.contour_eval_set(sp))
    cells = ((a, b, loss) for a, row in zip(grid.alphas, grid.losses) for b, loss in zip(grid.betas, row))
    write_table(os.path.join(workdir, "contour.csv"), ("alpha", "beta", "loss"), cells)
    _write_record({**asdict(grid), "model": model}, os.path.join(workdir, "contour.json"), cfg, data_hash)
    click.echo(json.dumps({"grid": os.path.join(workdir, "contour.csv"), "base_loss": grid.base_loss}))


@main.command("ablate")
@click.pass_context
@_guarded
def ablate_cmd(ctx):
    """Remaining/forget test accuracy of every model side by side (ablation.csv + ablation.json).

    A view over `evaluate.json`: one row per `_CHECKPOINTS` entry (original,
    retrain and each unlearn variant) copied from its `utility` section.  It
    reads no dataset rows, checkpoint or basis and runs nothing; the file
    must come from this config and the current dataset.csv.
    """
    cfg, workdir = ctx.obj
    path = os.path.join(workdir, "evaluate.json")
    doc = _read_json(path)
    data_hash = _file_hash(dataset_path(workdir))
    made_by = (doc.get("config_hash"), doc.get("data_hash"))
    _require_lineage(f"{path} (config hash, data hash)", made_by, (cfg.hash, data_hash))
    utility = doc.get("utility")
    if not isinstance(utility, dict):
        raise ConfigError(f"{path} utility must be a JSON object, got {utility!r}")
    missing = [name for name in _CHECKPOINTS if name not in utility]
    if missing:
        raise FileNotFoundError(f"{path} has no utility for {missing}; evaluate scores only the checkpoints present")
    keys = ("acc_remaining_test", "acc_unlearn_test")
    entries = {name: utility[name] if isinstance(utility[name], dict) else {} for name in _CHECKPOINTS}
    rows = [{"method": name, **{k: entry.get(k) for k in keys}} for name, entry in entries.items()]
    bad = [r["method"] for r in rows if not all(isinstance(r[k], float) for k in keys)]
    if bad:
        raise ConfigError(f"{path} utility entries {bad} must be objects with number fields {list(keys)}")
    csv_path = os.path.join(workdir, "ablation.csv")
    write_table(csv_path, ("method", *keys), [r.values() for r in rows])
    _write_record({"rows": rows}, os.path.join(workdir, "ablation.json"), cfg, data_hash)
    click.echo(json.dumps({"table": csv_path, "methods": [r["method"] for r in rows]}))


@main.command("report")
@click.pass_context
@_guarded
def report_cmd(ctx):
    """Join evaluate/ablation/contour artifacts into report.json.

    Each section must come from this config, and all from one dataset.
    """
    cfg, workdir = ctx.obj
    sections = {}
    for name in ("evaluate", "ablation", "contour"):
        path = os.path.join(workdir, f"{name}.json")
        if os.path.exists(path):
            sections[name] = _read_json(path)
            _require_lineage(f"{path} config hash", sections[name].get("config_hash"), cfg.hash)
    if not sections:
        raise FileNotFoundError(f"no evaluate/ablation/contour artifacts under {workdir}")
    data_hashes = [(name, doc.get("data_hash")) for name, doc in sections.items()]
    if any(h != data_hashes[0][1] for _, h in data_hashes):
        raise ConfigError(f"artifacts disagree on data hashes: {data_hashes}")
    path = os.path.join(workdir, "report.json")
    write_json({"config_hash": cfg.hash, "data_hash": data_hashes[0][1], "sections": sections}, path)
    click.echo(json.dumps({"report": path, "sections": sorted(sections)}))


if __name__ == "__main__":
    main()
