"""One JSON document drives every subcommand: parsing, overrides, validation, hashing.

The document has per-subcommand sections (data, split, network, train,
subspace, unlearn, mia, contour) plus a root seed.  Every random choice in a
run flows from that root through `derive_seed` with the component tags used
here, so changing one section never reshuffles another.  `config_hash` is the
identity every artifact embeds; byte-identical configs give byte-identical
artifacts on the same numpy/BLAS build and BLAS thread count.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import importlib.resources
import json
import math
from dataclasses import dataclass

import numpy as np

from . import data, nn, unlearn
from .determinism import PortableRng, derive_seed


class ConfigError(ValueError):
    """A config document that parses but does not validate."""


def builtin_preset() -> dict:
    """The packaged toy preset document (a fresh parse, safe to mutate); a missing preset file is a ConfigError."""
    ref = importlib.resources.files("nullspace_unlearn") / "presets" / "toy.json"
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"the packaged preset {ref} is missing") from None
    return json.loads(text)


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply `a.b.c=value` overrides; values parse as JSON, falling back to string.

    Missing objects along the path are created; a root that is not an
    object, or a path that runs through a list or a scalar, is a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
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


# Every key of a config document and its JSON type: `int`, `float` (finite),
# `str`, `dict` (an object its builder checks), `[t]` (a list of t), `(int,
# type(None))` (nullable) or a nested section.  The preset holds every value.
_KEYS = {
    "preset_version": int,
    "name": str,
    "seed": int,
    "paths": {"workdir": str},
    "data": {"kind": str, "means": [[float]], "covariances": [[[float]]], "n_per_class": int},
    "split": {"train_fraction": float, "val_fraction": float, "test_fraction": float, "unlearn_classes": [int]},
    "network": {"input_shape": [int], "layers": [dict]},
    "train": {"lr": float, "epochs": int, "batch_size": (int, type(None)), "milestones": [int],
              "gamma": float, "patience": (int, type(None))},
    "subspace": {"epsilon": float, "build_batch": int},
    "unlearn": {"lr": float, "epochs": int, "batch_size": int},
    "mia": {"nonmember_size": int},
    "contour": {"half_range": float, "steps": int, "eval_subsample": int},
    "acceptance": {"seeds": [int], "exact_mode": {"epsilon": float, "build_batch": int},
                   "mia_probe": {"epochs": int, "milestones": [int]}},
}
_TYPE_NAMES = {int: "an integer", (int, type(None)): "an integer or null", str: "a string", dict: "a JSON object"}


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
        return self.doc["seed"]

    def seed_for(self, *tags) -> int:
        return derive_seed(self.seed, *tags)

    @property
    def workdir(self) -> str:
        return self.doc["paths"]["workdir"]

    def with_seed(self, seed: int) -> "RunConfig":
        out = copy.deepcopy(self.doc)
        out["seed"] = seed
        return make_config(out)

    # -- data ---------------------------------------------------------------
    def data_inputs(self) -> dict:
        """The generator inputs that identify the dataset; dataset.meta.json records them as its provenance."""
        sec = self.doc["data"]
        return {"generator": sec["kind"], "means": sec["means"], "covariances": sec["covariances"],
                "n_per_class": sec["n_per_class"], "seed": derive_seed(self.seed, "data")}

    def dataset(self) -> data.Dataset:
        inputs = self.data_inputs()
        return data.gaussian_mixture(inputs["means"], inputs["covariances"], inputs["n_per_class"], inputs["seed"])

    def split_spec(self) -> data.SplitSpec:
        return data.SplitSpec(**self.doc["split"], seed=derive_seed(self.seed, "split"))

    def splits(self, ds: data.Dataset) -> data.Splits:
        return data.split(ds, self.split_spec())

    # -- network ------------------------------------------------------------
    @property
    def input_shape(self) -> tuple:
        return tuple(self.doc["network"]["input_shape"])

    def layer_specs(self) -> tuple:
        return tuple(nn.LayerSpec(**spec) for spec in self.doc["network"]["layers"])

    def init_net(self, tag: str = "init") -> nn.Network:
        return nn.init_network(self.layer_specs(), self.input_shape, seed=derive_seed(self.seed, tag))

    def train_schedule(self, n_train: int, tag: str = "train") -> nn.TrainSchedule:
        """The `train` section as a schedule; a null batch_size is one full batch of n_train rows."""
        sec = self.doc["train"]
        batch = n_train if sec["batch_size"] is None else sec["batch_size"]
        return nn.TrainSchedule(**{**sec, "batch_size": batch}, seed=derive_seed(self.seed, tag))

    # -- subspace / unlearn --------------------------------------------------
    @property
    def epsilon(self) -> float:
        return self.doc["subspace"]["epsilon"]

    @property
    def build_batch(self) -> int:
        return self.doc["subspace"]["build_batch"]

    def build_indices(self, class_id: int, n_available: int) -> np.ndarray:
        rng = PortableRng(derive_seed(self.seed, "subspace-batch", class_id))
        return rng.choice(n_available, min(self.build_batch, n_available))

    def unlearn_plan(self, variant: str = "calibrated") -> unlearn.UnlearnPlan:
        """The `unlearn.VARIANTS` entry for `variant` with this config's SGD settings."""
        return unlearn.UnlearnPlan(
            **self.doc["unlearn"], unlearn_classes=self.doc["split"]["unlearn_classes"], variant=variant,
            seed=derive_seed(self.seed, "unlearn"),
        )

    # -- evaluation ----------------------------------------------------------
    def mia_holdouts(self, sp: data.Splits):
        """Member/non-member holdouts for the confidence attack, seeded and recorded."""
        size = self.doc["mia"]["nonmember_size"]
        rng_m = PortableRng(derive_seed(self.seed, "mia-member"))
        rng_n = PortableRng(derive_seed(self.seed, "mia-nonmember"))
        d_r = sp.d_r
        member = d_r.subset(rng_m.choice(len(d_r), len(d_r)))
        nonmember = sp.test_remaining.subset(
            rng_n.choice(len(sp.test_remaining), min(size, len(sp.test_remaining)))
        )
        return member, nonmember

    def contour_axes(self) -> list:
        sec = self.doc["contour"]
        half, mid = sec["half_range"], sec["steps"] // 2
        return [half * (i - mid) / mid for i in range(sec["steps"])]

    def contour_eval_set(self, sp: data.Splits) -> data.Dataset:
        rng = PortableRng(derive_seed(self.seed, "contour-set"))
        rem = sp.test_remaining
        return rem.subset(rng.choice(len(rem), min(self.doc["contour"]["eval_subsample"], len(rem))))


def _check(value, kind, path: str) -> None:
    """Raise ConfigError unless `value` matches `kind`, a `_KEYS` entry, at `path`."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config root'} must be a JSON object")
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in kind:
                _reject_unknown(prefix + key, [prefix + k for k in kind])
        for key, sub in kind.items():
            if key not in value:
                raise ConfigError(f"config is missing {prefix + key}")
            _check(value[key], sub, prefix + key)
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a JSON list, got {value!r}")
        for i, item in enumerate(value):
            _check(item, kind[0], f"{path}[{i}]")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{path} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _reject_unknown(path: str, known: list) -> None:
    if path in ("unlearn.labeling", "unlearn.use_null_space"):
        raise ConfigError(f"{path} is not a config key; `unlearn` runs every variant in `unlearn.VARIANTS`")
    near = difflib.get_close_matches(path, known, n=1)
    raise ConfigError(f"unknown config key {path}" + (f"; did you mean {near[0]}?" if near else ""))


def validate(doc: dict) -> None:
    """Raise ConfigError describing the first problem found.

    One walk over `_KEYS`, then the rules that span keys or that no pipeline
    object checks before `gen-data`.  Split fractions, layer shapes and the
    SGD settings are checked by the objects `make_config` builds, which
    then checks the layer chain and the network against the data.
    """
    _check(doc, _KEYS, "")
    if doc["data"]["kind"] != "gaussian_mixture":
        raise ConfigError(f"data.kind must be 'gaussian_mixture', got {doc['data']['kind']!r}")
    k = len(doc["data"]["means"])
    if k < 2 or len(doc["data"]["covariances"]) != k:
        raise ConfigError("data.means must list at least two class means, each paired with data.covariances")
    classes = doc["split"]["unlearn_classes"]
    if not classes:
        raise ConfigError("split.unlearn_classes must name at least one class")
    if len(set(classes)) != len(classes):
        raise ConfigError(f"split.unlearn_classes must be distinct, got {classes}")
    if any(c < 0 or c >= k for c in classes):
        raise ConfigError(f"split.unlearn_classes must lie in [0, {k})")
    if len(classes) >= k:
        raise ConfigError("split.unlearn_classes must leave at least one remaining class")
    if not 0.0 < doc["subspace"]["epsilon"] <= 1.0:
        raise ConfigError(f"subspace.epsilon must lie in (0, 1], got {doc['subspace']['epsilon']}")
    steps = doc["contour"]["steps"]
    if steps < 3 or steps % 2 == 0:
        raise ConfigError("contour.steps must be an odd integer >= 3 so the grid has a center")
    if doc["contour"]["half_range"] <= 0.0:
        raise ConfigError("contour.half_range must be positive")
    for section, key in (("data", "n_per_class"), ("subspace", "build_batch"),
                         ("contour", "eval_subsample"), ("mia", "nonmember_size")):
        if doc[section][key] < 1:
            raise ConfigError(f"{section}.{key} must be >= 1")


def _check_network(doc: dict, specs) -> None:
    """The layer chain, and the network's input width and class count against the data's."""
    shape, means = doc["network"]["input_shape"], doc["data"]["means"]
    if math.prod(shape) != len(means[0]):
        raise ConfigError(
            f"network.input_shape {shape} holds {math.prod(shape)} features, but data.means[0] has {len(means[0])}"
        )
    try:
        net = nn.Network(specs=specs, weights=[np.zeros(spec.weight_shape()) for spec in specs], input_shape=shape)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc
    if net.n_classes != len(means):
        raise ConfigError(
            f"network.layers[{len(specs) - 1}].out_features is {net.n_classes}, but data.means has {len(means)} classes"
        )


def make_config(doc: dict) -> RunConfig:
    """Validate a document and construct every pipeline object once to surface errors early.

    An object's own check fails with the config section it was built from
    ahead of its message.
    """
    validate(doc)
    cfg = RunConfig(doc=doc, hash=config_hash(doc))
    builders = [(f"network.layers[{i}]", lambda layer=layer: nn.LayerSpec(**layer))
                for i, layer in enumerate(doc["network"]["layers"])]
    builders += [("split", cfg.split_spec), ("train", lambda: cfg.train_schedule(n_train=1)),
                 ("unlearn", cfg.unlearn_plan)]
    for section, build in builders:
        try:
            build()
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    _check_network(doc, cfg.layer_specs())
    return cfg


def load_config(path=None, overrides=()) -> RunConfig:
    """Load a config file (the bundled toy preset when path is None) and validate."""
    if path is None:
        doc = builtin_preset()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc}") from None
        except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if overrides:
        doc = apply_overrides(doc, overrides)
    return make_config(doc)
