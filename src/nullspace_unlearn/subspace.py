"""Per-class activation subspaces and merged null-space projectors.

A class subspace is the SVD of the recorded layer inputs for one class: the
full set of left singular vectors together with their singular values.  No
truncation happens at the class level.  When projectors are built, the kept
subspaces are merged per layer by concatenating each basis scaled by its
singular values - column-equivalent to concatenating the raw activation
matrices themselves - then a single SVD plus energy cutoff picks the retained
directions and P = I - S S^T annihilates them.  Scaling by the singular
values is what lets one energy threshold weigh classes against each other;
concatenating bare orthonormal bases would flatten the spectrum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .linalg import as_matrix, null_projector, rank_cutoff, svd

SUBSPACE_FORMAT_VERSION = 1


@dataclass
class ClassSubspace:
    """Layer-wise activation basis for one class: full U and singular values per layer."""

    class_id: int
    sample_count: int
    bases: list
    singular_values: list

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if len(self.bases) != len(self.singular_values):
            raise ValueError("one singular-value vector per basis required")
        self.bases = [as_matrix(b, f"layer {i} basis") for i, b in enumerate(self.bases)]
        self.singular_values = [
            np.asarray(s, dtype=np.float64).reshape(-1) for s in self.singular_values
        ]
        for i, (b, s) in enumerate(zip(self.bases, self.singular_values)):
            if b.shape[1] != s.size:
                raise ValueError(
                    f"layer {i}: basis has {b.shape[1]} columns but {s.size} singular values"
                )


def class_subspace(net: nn.Network, class_batch) -> ClassSubspace:
    """SVD of each layer's recorded inputs for a single-class batch.

    The batch must be non-empty and single-label; mixed labels would blend
    class directions and poison every projector built downstream.
    """
    labels = np.asarray(class_batch.labels, dtype=np.int64).reshape(-1)
    if labels.size == 0:
        raise ValueError("class batch is empty")
    unique = np.unique(labels)
    if unique.size != 1:
        raise ValueError(f"class batch mixes labels {unique.tolist()}; expected exactly one class")
    _, trace = nn.forward(net, class_batch.features, record=True)
    bases = []
    svals = []
    for r in trace.per_layer:
        res = svd(r)
        bases.append(res.u)
        svals.append(res.s)
    return ClassSubspace(
        class_id=int(unique[0]),
        sample_count=int(labels.size),
        bases=bases,
        singular_values=svals,
    )


@dataclass
class NullProjector:
    """Per-layer projectors onto the null space of the merged retained subspaces."""

    merged_classes: tuple
    excluded_classes: tuple
    epsilons: tuple
    projectors: list
    ranks: tuple

    def __post_init__(self):
        self.merged_classes = tuple(sorted(int(c) for c in self.merged_classes))
        self.excluded_classes = tuple(sorted(int(c) for c in self.excluded_classes))
        self.projectors = [as_matrix(p, f"layer {i} projector") for i, p in enumerate(self.projectors)]


def _layer_epsilons(epsilons, n_layers: int) -> tuple:
    if np.isscalar(epsilons):
        eps = (float(epsilons),) * n_layers
    else:
        eps = tuple(float(e) for e in epsilons)
        if len(eps) != n_layers:
            raise ValueError(f"{len(eps)} epsilons for {n_layers} layers")
    for e in eps:
        if not (0.0 < e <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {e}")
    return eps


def merge_null_projector(subspaces, epsilons, excluded_classes=()) -> NullProjector:
    """Merge class subspaces layer-wise and return null projectors of the kept energy.

    Per layer: concatenate U_c * diag(s_c) over the supplied classes, SVD the
    concatenation, keep the smallest rank holding epsilon of the squared
    energy, and project off it.  Duplicate or overlapping class subspaces add
    energy but no new directions, so the merge is order-invariant.
    """
    subs = list(subspaces)
    if not subs:
        raise ValueError("need at least one class subspace to merge")
    ids = [s.class_id for s in subs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate class ids in merge: {sorted(ids)}")
    n_layers = len(subs[0].bases)
    for s in subs:
        if len(s.bases) != n_layers:
            raise ValueError("subspaces disagree on layer count")
    eps = _layer_epsilons(epsilons, n_layers)
    projectors = []
    ranks = []
    for li in range(n_layers):
        scaled = [s.bases[li] * s.singular_values[li][np.newaxis, :] for s in subs]
        concat = np.hstack(scaled)
        res = svd(concat)
        k = rank_cutoff(res.s, eps[li])
        basis = res.u[:, :k]
        projectors.append(null_projector(basis))
        ranks.append(k)
    return NullProjector(
        merged_classes=tuple(sorted(ids)),
        excluded_classes=tuple(excluded_classes),
        epsilons=eps,
        projectors=projectors,
        ranks=tuple(ranks),
    )


def retained_energy(projector: NullProjector, trace: nn.ActivationTrace) -> list[float]:
    """Per layer, the fraction of activation energy the projector removes: ||(I-P)R||_F^2 / ||R||_F^2."""
    if len(trace.per_layer) != len(projector.projectors):
        raise ValueError("trace and projector disagree on layer count")
    out = []
    for p, r in zip(projector.projectors, trace.per_layer):
        total = float(np.sum(r * r))
        if total == 0.0:
            raise ValueError("trace layer carries no energy")
        removed = r - p @ r
        out.append(float(np.sum(removed * removed)) / total)
    return out


class ProjectorCache:
    """Lazily merges and caches one NullProjector per excluded class.

    Holds every class's subspace; `for_excluded(c)` merges all the others.
    Projectors are built once and reused, so an unlearning run merges once
    per excluded class instead of once per batch group in every epoch.
    """

    def __init__(self, subspaces: dict, epsilons):
        self.subspaces = {int(c): s for c, s in subspaces.items()}
        for c, s in self.subspaces.items():
            if s.class_id != c:
                raise ValueError(f"subspace keyed {c} carries class_id {s.class_id}")
        self.epsilons = epsilons
        self._cache: dict = {}

    def for_excluded(self, class_id: int) -> NullProjector:
        c = int(class_id)
        if c not in self.subspaces:
            raise ValueError(f"no subspace recorded for class {c}")
        if c not in self._cache:
            kept = [s for cid, s in sorted(self.subspaces.items()) if cid != c]
            if not kept:
                raise ValueError("cannot exclude the only recorded class")
            self._cache[c] = merge_null_projector(kept, self.epsilons, excluded_classes=(c,))
        return self._cache[c]


def save_subspace(sub: ClassSubspace, path, epsilon=None, source_checkpoint_hash: str = "") -> None:
    """Versioned JSON artifact; decimal arrays round-trip bit-exactly."""
    doc = {
        "format_version": SUBSPACE_FORMAT_VERSION,
        "class_id": sub.class_id,
        "sample_count": sub.sample_count,
        "epsilon": epsilon,
        "source_checkpoint_hash": source_checkpoint_hash,
        "layers": [
            {
                "rows": int(b.shape[0]),
                "cols": int(b.shape[1]),
                "basis": b.tolist(),
                "singular_values": s.tolist(),
            }
            for b, s in zip(sub.bases, sub.singular_values)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_subspace(path) -> ClassSubspace:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != SUBSPACE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported subspace format_version {version!r}, expected {SUBSPACE_FORMAT_VERSION}"
        )
    bases = []
    svals = []
    for i, layer in enumerate(doc["layers"]):
        b = np.asarray(layer["basis"], dtype=np.float64).reshape(layer["rows"], layer["cols"])
        bases.append(b)
        svals.append(np.asarray(layer["singular_values"], dtype=np.float64))
    return ClassSubspace(
        class_id=int(doc["class_id"]),
        sample_count=int(doc["sample_count"]),
        bases=bases,
        singular_values=svals,
    )
