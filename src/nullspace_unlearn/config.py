"""One JSON document drives every subcommand: parsing, overrides, validation, hashing.

The document has per-subcommand sections (data, split, network, train,
subspace, unlearn, mia, contour) plus a root seed.  Every random choice in a
run flows from that root through `derive_seed` with the component tags used
here, so changing one section never reshuffles another.  `config_hash` is the
identity every artifact embeds; byte-identical configs give byte-identical
artifacts.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.resources
import json
from dataclasses import dataclass

import numpy as np

from . import data, nn, unlearn
from .determinism import PortableRng, derive_seed


class ConfigError(ValueError):
    """A config document that parses but does not validate."""


def builtin_preset(name: str = "toy") -> dict:
    """The packaged preset document (deep copy, safe to mutate)."""
    ref = importlib.resources.files("nullspace_unlearn") / "presets" / f"{name}.json"
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no builtin preset named {name!r}") from None
    return json.loads(text)


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply `a.b.c=value` overrides; values parse as JSON, falling back to string.

    Missing objects along the path are created; a path that runs through a
    list or a scalar is a ConfigError.
    """
    out = copy.deepcopy(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        path, raw = item.split("=", 1)
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            raise ConfigError(f"override {item!r} has an empty key path")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        for i, k in enumerate(keys[:-1]):
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {path!r}: {'.'.join(keys[:i + 1])} is not a JSON object")
        node[keys[-1]] = value
    return out


def config_hash(doc: dict) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON serialization."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"config is missing the {name!r} section")
    return sec


@dataclass
class RunConfig:
    """A validated config document plus builders for every pipeline object.

    Builders are the single source of truth for seed-derivation tags: "data",
    "split", "init", "train", "retrain-init", "retrain", "subspace-batch" (+
    class id), "unlearn", "mia-member", "mia-nonmember", "contour-dirs",
    "contour-set".
    """

    doc: dict
    hash: str

    @property
    def seed(self) -> int:
        return int(self.doc["seed"])

    def seed_for(self, *tags) -> int:
        return derive_seed(self.seed, *tags)

    @property
    def workdir(self) -> str:
        return str(self.doc.get("paths", {}).get("workdir", "runs/default"))

    def with_seed(self, seed: int) -> "RunConfig":
        out = copy.deepcopy(self.doc)
        out["seed"] = int(seed)
        return make_config(out)

    # -- data ---------------------------------------------------------------
    def dataset(self) -> data.Dataset:
        sec = _section(self.doc, "data")
        ds = data.gaussian_mixture(
            sec["means"], sec["covariances"], int(sec["n_per_class"]), derive_seed(self.seed, "data")
        )
        ds.provenance["config_hash"] = self.hash
        return ds

    def split_spec(self) -> data.SplitSpec:
        sec = _section(self.doc, "split")
        return data.SplitSpec(
            train_fraction=float(sec["train_fraction"]),
            val_fraction=float(sec["val_fraction"]),
            test_fraction=float(sec["test_fraction"]),
            unlearn_classes=tuple(sec["unlearn_classes"]),
            seed=derive_seed(self.seed, "split"),
        )

    def splits(self, ds: data.Dataset) -> data.Splits:
        return data.split(ds, self.split_spec())

    # -- network ------------------------------------------------------------
    @property
    def input_shape(self) -> tuple:
        return tuple(int(d) for d in _section(self.doc, "network")["input_shape"])

    def layer_specs(self) -> tuple:
        layers = _section(self.doc, "network")["layers"]
        return tuple(nn.LayerSpec(**{str(k): v for k, v in spec.items()}) for spec in layers)

    def init_net(self, tag: str = "init") -> nn.Network:
        return nn.init_network(self.layer_specs(), self.input_shape, seed=derive_seed(self.seed, tag))

    def train_schedule(self, n_train: int, tag: str = "train", **replace) -> nn.TrainSchedule:
        sec = dict(_section(self.doc, "train"))
        sec.update(replace)
        batch = sec.get("batch_size")
        return nn.TrainSchedule(
            lr=float(sec["lr"]),
            epochs=int(sec["epochs"]),
            batch_size=int(n_train if batch is None else batch),
            milestones=tuple(int(m) for m in sec.get("milestones", ())),
            gamma=float(sec.get("gamma", 0.2)),
            patience=None if sec.get("patience") is None else int(sec["patience"]),
            seed=derive_seed(self.seed, tag),
        )

    # -- subspace / unlearn --------------------------------------------------
    @property
    def epsilon(self) -> float:
        return float(_section(self.doc, "subspace")["epsilon"])

    @property
    def build_batch(self) -> int:
        return int(_section(self.doc, "subspace")["build_batch"])

    def build_indices(self, class_id: int, n_available: int) -> np.ndarray:
        rng = PortableRng(derive_seed(self.seed, "subspace-batch", class_id))
        return rng.choice(n_available, min(self.build_batch, n_available))

    def unlearn_plan(self, variant: str = "calibrated") -> unlearn.UnlearnPlan:
        """The `unlearn.VARIANTS` entry for `variant` with this config's SGD settings."""
        if variant not in unlearn.VARIANTS:
            raise ConfigError(f"unknown unlearn variant {variant!r}; expected one of {sorted(unlearn.VARIANTS)}")
        labeling, use_null_space, ascend = unlearn.VARIANTS[variant]
        sec = _section(self.doc, "unlearn")
        return unlearn.UnlearnPlan(
            unlearn_classes=tuple(_section(self.doc, "split")["unlearn_classes"]),
            labeling=labeling,
            use_null_space=use_null_space,
            ascend=ascend,
            lr=float(sec["lr"]),
            epochs=int(sec["epochs"]),
            batch_size=int(sec["batch_size"]),
            seed=derive_seed(self.seed, "unlearn"),
        )

    # -- evaluation ----------------------------------------------------------
    def mia_holdouts(self, sp: data.Splits):
        """Member/non-member holdouts for the confidence attack, seeded and recorded."""
        size = int(_section(self.doc, "mia")["nonmember_size"])
        rng_m = PortableRng(derive_seed(self.seed, "mia-member"))
        rng_n = PortableRng(derive_seed(self.seed, "mia-nonmember"))
        d_r = sp.d_r
        member = d_r.subset(rng_m.choice(len(d_r), len(d_r)))
        nonmember = sp.test_remaining.subset(
            rng_n.choice(len(sp.test_remaining), min(size, len(sp.test_remaining)))
        )
        return member, nonmember

    def contour_axes(self) -> list:
        sec = _section(self.doc, "contour")
        steps = int(sec["steps"])
        half = float(sec["half_range"])
        mid = steps // 2
        return [half * (i - mid) / mid for i in range(steps)]

    def contour_eval_set(self, sp: data.Splits) -> data.Dataset:
        sec = _section(self.doc, "contour")
        rng = PortableRng(derive_seed(self.seed, "contour-set"))
        rem = sp.test_remaining
        return rem.subset(rng.choice(len(rem), min(int(sec["eval_subsample"]), len(rem))))


def validate(doc: dict) -> None:
    """Raise ConfigError describing the first problem found."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if "seed" not in doc:
        raise ConfigError("config is missing the root seed")
    try:
        int(doc["seed"])
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be an integer, got {doc['seed']!r}") from None

    sec = _section(doc, "data")
    means = np.asarray(sec.get("means", []), dtype=np.float64)
    covs = np.asarray(sec.get("covariances", []), dtype=np.float64)
    if means.ndim != 2 or means.shape[0] < 2:
        raise ConfigError("data.means must be a list of at least two class means")
    if covs.shape[:1] != means.shape[:1]:
        raise ConfigError("data.covariances must pair up with data.means")
    if int(sec.get("n_per_class", 0)) < 1:
        raise ConfigError("data.n_per_class must be >= 1")

    k = means.shape[0]
    split_sec = _section(doc, "split")
    unlearn_classes = split_sec.get("unlearn_classes", [])
    if not unlearn_classes:
        raise ConfigError("split.unlearn_classes must name at least one class")
    if any(int(c) < 0 or int(c) >= k for c in unlearn_classes):
        raise ConfigError(f"split.unlearn_classes must lie in [0, {k})")
    if len(set(int(c) for c in unlearn_classes)) >= k:
        raise ConfigError("split.unlearn_classes must leave at least one remaining class")

    eps_sec = _section(doc, "subspace")
    eps = float(eps_sec.get("epsilon", -1.0))
    if not (0.0 < eps <= 1.0):
        raise ConfigError(f"subspace.epsilon must lie in (0, 1], got {eps}")
    if int(eps_sec.get("build_batch", 0)) < 1:
        raise ConfigError("subspace.build_batch must be >= 1")

    stale = sorted({"labeling", "use_null_space"} & set(_section(doc, "unlearn")))
    if stale:
        raise ConfigError(f"unlearn.{stale[0]} is not a config key; choose the variant with `unlearn --variant`")

    train_sec = _section(doc, "train")
    if train_sec.get("batch_size") is not None and int(train_sec["batch_size"]) < 1:
        raise ConfigError("train.batch_size must be >= 1 or null for full-batch")

    contour = _section(doc, "contour")
    steps = int(contour.get("steps", 0))
    if steps < 3 or steps % 2 == 0:
        raise ConfigError("contour.steps must be an odd integer >= 3 so the grid has a center")
    if float(contour.get("half_range", 0.0)) <= 0.0:
        raise ConfigError("contour.half_range must be positive")
    if int(contour.get("eval_subsample", 0)) < 1:
        raise ConfigError("contour.eval_subsample must be >= 1")
    if int(_section(doc, "mia").get("nonmember_size", 0)) < 1:
        raise ConfigError("mia.nonmember_size must be >= 1")


def make_config(doc: dict) -> RunConfig:
    """Validate a document and construct every pipeline object once to surface errors early."""
    validate(doc)
    cfg = RunConfig(doc=doc, hash=config_hash(doc))
    try:
        cfg.split_spec()
        cfg.layer_specs()
        cfg.train_schedule(n_train=1)
        cfg.unlearn_plan()
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path=None, overrides=()) -> RunConfig:
    """Load a config file (the bundled toy preset when path is None) and validate."""
    if path is None:
        doc = builtin_preset("toy")
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if overrides:
        doc = apply_overrides(doc, overrides)
    return make_config(doc)
