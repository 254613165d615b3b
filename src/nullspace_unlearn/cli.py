"""Command-line driver: end-to-end workflows over versioned JSON/CSV artifacts.

Every subcommand reads one config document (the bundled toy preset by
default), derives all randomness from its root seed, and writes artifacts
that embed the config hash plus the dataset hash they were computed from.
Re-running a subcommand with identical inputs rewrites byte-identical
artifacts.  Failures exit with a single-line JSON error on stderr: missing
upstream artifact 2, validation 3, numeric breakdown 4.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import click
import numpy as np

from . import data, evaluate, nn, subspace, unlearn
from .config import ConfigError, RunConfig, load_config
from .linalg import NumericError

EXIT_MISSING_ARTIFACT = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

ABLATION_METHODS = ("original", "retrain", "random-label", "random-label+nullspace", "calibrated")

_VARIANT_PLANS = {
    "calibrated": dict(labeling="pseudo", use_null_space=True),
    "random-label": dict(labeling="random", use_null_space=False),
    "random-label+nullspace": dict(labeling="random", use_null_space=True),
    "gradient-ascent": dict(labeling="keep", use_null_space=False, ascend=True),
}


class MissingArtifact(FileNotFoundError):
    """A subcommand's upstream artifact is absent."""


def _file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_json(path, what: str) -> dict:
    if not os.path.exists(path):
        raise MissingArtifact(f"{what} artifact not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Pipeline helpers.  The CLI subcommands and the acceptance suite both run
# through these, so the seed-derivation tags and artifact shapes cannot drift
# apart between the two.
# ---------------------------------------------------------------------------


def dataset_path(workdir) -> str:
    return os.path.join(workdir, "dataset.csv")


def checkpoint_path(workdir, name: str) -> str:
    return os.path.join(workdir, f"{name}.json")


def generate_dataset(cfg: RunConfig, workdir) -> tuple:
    """Write dataset.csv + dataset.meta.json; returns (dataset, data_hash)."""
    os.makedirs(workdir, exist_ok=True)
    ds = cfg.dataset()
    path = dataset_path(workdir)
    data.save_csv(ds, path)
    data_hash = _file_hash(path)
    _write_json(
        {
            "config_hash": cfg.hash,
            "seed": cfg.seed,
            "data_hash": data_hash,
            "n_classes": ds.n_classes,
            "n_samples": len(ds),
            "provenance": {k: v for k, v in ds.provenance.items() if k != "config_hash"},
        },
        os.path.join(workdir, "dataset.meta.json"),
    )
    return ds, data_hash


def load_dataset_artifact(cfg: RunConfig, workdir) -> tuple:
    """Read back dataset.csv, verified against its sidecar metadata."""
    path = dataset_path(workdir)
    meta = _read_json(os.path.join(workdir, "dataset.meta.json"), "dataset metadata")
    if not os.path.exists(path):
        raise MissingArtifact(f"dataset artifact not found: {path}")
    data_hash = _file_hash(path)
    if data_hash != meta.get("data_hash"):
        raise ConfigError(
            f"dataset.csv hash {data_hash} does not match its metadata {meta.get('data_hash')}"
        )
    ds = data.load_csv(path, n_classes=int(meta["n_classes"]))
    return ds, data_hash


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
    return unlearn.retrain(
        d_r, val, cfg.layer_specs(), cfg.input_shape, schedule, seed=cfg.seed_for("retrain-init")
    )


def build_subspaces(cfg: RunConfig, net: nn.Network, train_set: data.Dataset, epsilon=None) -> tuple:
    """Per-class activation subspaces from seeded build batches, plus the projector cache."""
    eps = cfg.epsilon if epsilon is None else float(epsilon)
    subs = {}
    for c in range(train_set.n_classes):
        cls = train_set.class_filter((c,), keep=True)
        if len(cls) == 0:
            raise ConfigError(f"class {c} has no training samples to build a subspace from")
        batch = cls.subset(cfg.build_indices(c, len(cls)))
        subs[c] = subspace.class_subspace(net, batch)
    return subs, subspace.ProjectorCache(subs, eps)


def run_unlearn_variant(cfg: RunConfig, net_o, sp, cache, variant: str) -> unlearn.UnlearnResult:
    if variant not in _VARIANT_PLANS:
        raise ConfigError(f"unknown unlearn variant {variant!r}; expected one of {sorted(_VARIANT_PLANS)}")
    plan = cfg.unlearn_plan(**_VARIANT_PLANS[variant])
    if plan.use_null_space:
        return unlearn.calibrated_unlearn(net_o, sp.d_u, cache, plan) if variant == "calibrated" else unlearn.baseline_unlearn(net_o, sp.d_u, plan, cache)
    return unlearn.baseline_unlearn(net_o, sp.d_u, plan)


def _save_net(net: nn.Network, path, cfg: RunConfig, data_hash: str) -> None:
    net.metadata.update({"config_hash": cfg.hash, "data_hash": data_hash, "root_seed": cfg.seed})
    nn.save_checkpoint(net, path)


def _load_net(workdir, name: str) -> nn.Network:
    path = checkpoint_path(workdir, name)
    if not os.path.exists(path):
        raise MissingArtifact(f"{name} checkpoint not found: {path}")
    return nn.load_checkpoint(path)


def _load_cache(cfg: RunConfig, workdir, n_classes: int) -> subspace.ProjectorCache:
    subs = {}
    for c in range(n_classes):
        path = os.path.join(workdir, f"subspace_class_{c}.json")
        if not os.path.exists(path):
            raise MissingArtifact(f"class-{c} subspace artifact not found: {path}")
        subs[c] = subspace.load_subspace(path)
    return subspace.ProjectorCache(subs, cfg.epsilon)


def evaluate_models(cfg: RunConfig, sp: data.Splits, nets: dict, labeled=None) -> dict:
    """Utility for every supplied model; MIA and agreement where the inputs allow."""
    report = {"utility": {}, "mia": {}, "agreement": None}
    for name, net in nets.items():
        report["utility"][name] = evaluate.utility(net, sp.test_remaining, sp.test_unlearn).to_json()
    member, nonmember = cfg.mia_holdouts(sp)
    for name in ("original", "retrain", "calibrated"):
        if name in nets:
            report["mia"][name] = evaluate.mia(
                nets[name], sp.d_u, member, nonmember,
                member_source="remaining-train", nonmember_source="remaining-test",
            ).to_json()
    if labeled is not None and "retrain" in nets:
        report["agreement"] = evaluate.pseudo_label_agreement(labeled, nets["retrain"]).to_json()
    return report


def ablation_rows(sp: data.Splits, nets: dict) -> list:
    rows = []
    for method in ABLATION_METHODS:
        rep = evaluate.utility(nets[method], sp.test_remaining, sp.test_unlearn)
        rows.append(
            {
                "method": method,
                "acc_remaining_test": rep.acc_remaining_test,
                "acc_unlearn_test": rep.acc_unlearn_test,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Click wiring.
# ---------------------------------------------------------------------------


def _fail(kind: str, code: int, message: str):
    click.echo(json.dumps({"error": kind, "message": str(message)}), err=True)
    sys.exit(code)


def _guarded(fn):
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MissingArtifact as exc:
            _fail("missing-artifact", EXIT_MISSING_ARTIFACT, exc)
        except ConfigError as exc:
            _fail("validation", EXIT_VALIDATION, exc)
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
    ctx.obj = {"cfg": cfg, "workdir": workdir or cfg.workdir}


def _setup(ctx) -> tuple:
    return ctx.obj["cfg"], ctx.obj["workdir"]


@main.command("gen-data")
@click.pass_context
@_guarded
def gen_data_cmd(ctx):
    """Generate the dataset artifact (dataset.csv + dataset.meta.json)."""
    cfg, workdir = _setup(ctx)
    ds, data_hash = generate_dataset(cfg, workdir)
    click.echo(json.dumps({"dataset": dataset_path(workdir), "n_samples": len(ds), "data_hash": data_hash}))


@main.command("train")
@click.pass_context
@_guarded
def train_cmd(ctx):
    """Train the original model on the train split (checkpoint: original.json)."""
    cfg, workdir = _setup(ctx)
    ds, data_hash = load_dataset_artifact(cfg, workdir)
    sp = cfg.splits(ds)
    net = train_original(cfg, sp)
    path = checkpoint_path(workdir, "original")
    _save_net(net, path, cfg, data_hash)
    click.echo(json.dumps({"checkpoint": path, "train_accuracy": nn.accuracy(net, sp.train.features, sp.train.labels)}))


@main.command("retrain")
@click.pass_context
@_guarded
def retrain_cmd(ctx):
    """Train the retrain reference on the remaining data only (checkpoint: retrain.json)."""
    cfg, workdir = _setup(ctx)
    ds, data_hash = load_dataset_artifact(cfg, workdir)
    sp = cfg.splits(ds)
    net = train_retrain(cfg, sp)
    path = checkpoint_path(workdir, "retrain")
    _save_net(net, path, cfg, data_hash)
    click.echo(json.dumps({"checkpoint": path}))


@main.command("subspace")
@click.pass_context
@_guarded
def subspace_cmd(ctx):
    """Build per-class activation subspaces from the original model."""
    cfg, workdir = _setup(ctx)
    ds, data_hash = load_dataset_artifact(cfg, workdir)
    sp = cfg.splits(ds)
    net = _load_net(workdir, "original")
    ckpt_hash = _file_hash(checkpoint_path(workdir, "original"))
    subs, _ = build_subspaces(cfg, net, sp.train)
    for c, sub in subs.items():
        subspace.save_subspace(
            sub, os.path.join(workdir, f"subspace_class_{c}.json"),
            epsilon=cfg.epsilon, source_checkpoint_hash=ckpt_hash,
        )
    _write_json(
        {"config_hash": cfg.hash, "seed": cfg.seed, "data_hash": data_hash,
         "epsilon": cfg.epsilon, "classes": sorted(subs)},
        os.path.join(workdir, "subspaces.meta.json"),
    )
    click.echo(json.dumps({"classes": sorted(subs), "epsilon": cfg.epsilon}))


@main.command("unlearn")
@click.option("--variant", type=click.Choice(sorted(_VARIANT_PLANS)), default="calibrated",
              help="Labeling/projection combination to run.")
@click.pass_context
@_guarded
def unlearn_cmd(ctx, variant):
    """Unlearn the forget classes from the original model (checkpoint: unlearned_<variant>.json)."""
    cfg, workdir = _setup(ctx)
    ds, data_hash = load_dataset_artifact(cfg, workdir)
    sp = cfg.splits(ds)
    net_o = _load_net(workdir, "original")
    plan = cfg.unlearn_plan(**_VARIANT_PLANS[variant])
    cache = _load_cache(cfg, workdir, ds.n_classes) if plan.use_null_space else None
    res = run_unlearn_variant(cfg, net_o, sp, cache, variant)
    name = f"unlearned_{variant}"
    _save_net(res.network, checkpoint_path(workdir, name), cfg, data_hash)
    _write_json(
        {
            "config_hash": cfg.hash, "seed": cfg.seed, "data_hash": data_hash,
            "variant": variant, "plan": res.plan.describe(),
            "epoch_losses": res.epoch_losses,
            "assigned_labels": res.labeled.assigned_labels.tolist(),
            "original_labels": res.labeled.original_labels.tolist(),
        },
        os.path.join(workdir, f"run_{name}.json"),
    )
    click.echo(json.dumps({"checkpoint": checkpoint_path(workdir, name), "variant": variant}))


def _gather_models(workdir) -> dict:
    nets = {}
    for name, fname in (
        ("original", "original"),
        ("retrain", "retrain"),
        ("calibrated", "unlearned_calibrated"),
        ("random-label", "unlearned_random-label"),
        ("random-label+nullspace", "unlearned_random-label+nullspace"),
        ("gradient-ascent", "unlearned_gradient-ascent"),
    ):
        path = checkpoint_path(workdir, fname)
        if os.path.exists(path):
            nets[name] = nn.load_checkpoint(path)
    return nets


@main.command("evaluate")
@click.pass_context
@_guarded
def evaluate_cmd(ctx):
    """Utility/MIA/agreement report over every checkpoint present (evaluate.json)."""
    cfg, workdir = _setup(ctx)
    ds, data_hash = load_dataset_artifact(cfg, workdir)
    sp = cfg.splits(ds)
    nets = _gather_models(workdir)
    if "original" not in nets:
        raise MissingArtifact(f"original checkpoint not found: {checkpoint_path(workdir, 'original')}")
    labeled = None
    run_record = os.path.join(workdir, "run_unlearned_calibrated.json")
    if os.path.exists(run_record) and "retrain" in nets:
        rec = _read_json(run_record, "calibrated run record")
        d_u = sp.d_u
        labeled = unlearn.PseudoLabeledSet(
            features=d_u.features,
            original_labels=np.asarray(rec["original_labels"]),
            assigned_labels=np.asarray(rec["assigned_labels"]),
            labeling="pseudo",
        )
    report = evaluate_models(cfg, sp, nets, labeled)
    report.update({"config_hash": cfg.hash, "seed": cfg.seed, "data_hash": data_hash})
    _write_json(report, os.path.join(workdir, "evaluate.json"))
    click.echo(json.dumps({"report": os.path.join(workdir, "evaluate.json"), "models": sorted(nets)}))


@main.command("contour")
@click.option("--model", type=click.Choice(["original", "calibrated", "retrain"]), default="calibrated",
              help="Checkpoint the loss surface is probed around.")
@click.pass_context
@_guarded
def contour_cmd(ctx, model):
    """Remaining-loss grid along an in-null-space and an off-null-space direction."""
    cfg, workdir = _setup(ctx)
    ds, data_hash = load_dataset_artifact(cfg, workdir)
    sp = cfg.splits(ds)
    fname = {"original": "original", "calibrated": "unlearned_calibrated", "retrain": "retrain"}[model]
    net = _load_net(workdir, fname)
    cache = _load_cache(cfg, workdir, ds.n_classes)
    proj = cache.for_excluded(cfg.unlearn_plan().unlearn_classes[0])
    null_dir, off_dir = evaluate.contour_directions(proj, net, cfg.seed_for("contour-dirs"))
    axes = cfg.contour_axes()
    grid = evaluate.loss_contour(net, null_dir, off_dir, axes, axes, cfg.contour_eval_set(sp))
    grid.to_csv(os.path.join(workdir, "contour.csv"))
    doc = grid.to_json()
    doc.update({"config_hash": cfg.hash, "seed": cfg.seed, "data_hash": data_hash, "model": model})
    _write_json(doc, os.path.join(workdir, "contour.json"))
    click.echo(json.dumps({"grid": os.path.join(workdir, "contour.csv"), "base_loss": grid.base_loss}))


@main.command("ablate")
@click.pass_context
@_guarded
def ablate_cmd(ctx):
    """Run the five-method comparison grid and emit ablation.csv + ablation.json."""
    cfg, workdir = _setup(ctx)
    ds, data_hash = load_dataset_artifact(cfg, workdir)
    sp = cfg.splits(ds)
    net_o = _load_net(workdir, "original")
    cache = _load_cache(cfg, workdir, ds.n_classes)
    nets = {
        "original": net_o,
        "retrain": _load_net(workdir, "retrain"),
        "random-label": run_unlearn_variant(cfg, net_o, sp, None, "random-label").network,
        "random-label+nullspace": run_unlearn_variant(cfg, net_o, sp, cache, "random-label+nullspace").network,
        "calibrated": run_unlearn_variant(cfg, net_o, sp, cache, "calibrated").network,
    }
    rows = ablation_rows(sp, nets)
    csv_path = os.path.join(workdir, "ablation.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,acc_remaining_test,acc_unlearn_test\n")
        for row in rows:
            fh.write(f"{row['method']},{row['acc_remaining_test']:.17g},{row['acc_unlearn_test']:.17g}\n")
    _write_json(
        {"config_hash": cfg.hash, "seed": cfg.seed, "data_hash": data_hash, "rows": rows},
        os.path.join(workdir, "ablation.json"),
    )
    click.echo(json.dumps({"table": csv_path, "methods": [r["method"] for r in rows]}))


@main.command("report")
@click.pass_context
@_guarded
def report_cmd(ctx):
    """Join evaluate/ablation/contour artifacts into report.json, verifying hashes agree."""
    cfg, workdir = _setup(ctx)
    sections = {}
    hashes = {}
    for name in ("evaluate", "ablation", "contour"):
        path = os.path.join(workdir, f"{name}.json")
        if os.path.exists(path):
            doc = _read_json(path, name)
            sections[name] = doc
            hashes[name] = (doc.get("config_hash"), doc.get("data_hash"))
    if not sections:
        raise MissingArtifact(f"no evaluate/ablation/contour artifacts under {workdir}")
    distinct = set(hashes.values())
    if len(distinct) > 1:
        raise ConfigError(f"artifacts disagree on config/data hashes: {sorted(hashes.items())}")
    (config_hash_value, data_hash_value) = next(iter(distinct))
    _write_json(
        {"config_hash": config_hash_value, "data_hash": data_hash_value, "sections": sections},
        os.path.join(workdir, "report.json"),
    )
    click.echo(json.dumps({"report": os.path.join(workdir, "report.json"), "sections": sorted(sections)}))


if __name__ == "__main__":
    main()
