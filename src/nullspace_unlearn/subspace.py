"""Per-class activation subspaces and the merged retained basis of an unlearn set.

A class subspace is the SVD of the recorded layer inputs for one class: the
full set of left singular vectors together with their singular values.  No
truncation happens at the class level.  For an unlearn set, the subspaces of
every other class are merged per layer by concatenating each basis scaled by
its singular values - column-equivalent to concatenating the raw activation
matrices themselves - then a single SVD plus energy cutoff picks the retained
directions, kept as an orthonormal basis B (n x k).  Updates are projected
off span(B) with `linalg.apply_projection`.  Scaling by the singular values
is what lets one energy threshold weigh classes against each other;
concatenating bare orthonormal bases would flatten the spectrum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .linalg import as_matrix, rank_cutoff, svd

SUBSPACE_FORMAT_VERSION = 2


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
    """Per-layer orthonormal bases B (n x k) of the merged retained subspaces.

    Updates are projected onto the null space, g - (g B) B^T; no dense
    n x n projector is ever formed.  A basis stands in for the
    `ProjectorCache` it came from: `for_excluded` returns it for its own
    unlearn set.
    """

    merged_classes: tuple
    excluded_classes: tuple
    epsilons: tuple
    bases: list
    ranks: tuple

    def __post_init__(self):
        self.merged_classes = tuple(sorted(int(c) for c in self.merged_classes))
        self.excluded_classes = tuple(sorted(int(c) for c in self.excluded_classes))
        self.bases = [as_matrix(b, f"layer {i} retained basis") for i, b in enumerate(self.bases)]
        self.ranks = tuple(self.ranks)
        if self.ranks != tuple(b.shape[1] for b in self.bases):
            raise ValueError(f"ranks {list(self.ranks)} do not match the bases' column counts")

    def for_excluded(self, *class_ids: int) -> "NullProjector":
        excluded = tuple(sorted({int(c) for c in class_ids}))
        if excluded != self.excluded_classes:
            raise ValueError(f"retained basis excludes classes {list(self.excluded_classes)}, not {list(excluded)}")
        return self


def merge_null_projector(subspaces, epsilon: float, excluded_classes=()) -> NullProjector:
    """Merge class subspaces layer-wise and return the retained basis of the kept energy.

    Per layer: concatenate U_c * diag(s_c) over the supplied classes, SVD the
    concatenation, and keep the leading left singular vectors of the smallest
    rank holding epsilon of the squared energy (one epsilon for every
    layer; `rank_cutoff` checks its range).  Duplicate or overlapping
    class subspaces add energy but no new directions, so the merge is
    order-invariant.
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
    bases = []
    for li in range(n_layers):
        scaled = [s.bases[li] * s.singular_values[li][np.newaxis, :] for s in subs]
        concat = np.hstack(scaled)
        res = svd(concat)
        k = rank_cutoff(res.s, epsilon)
        bases.append(np.ascontiguousarray(res.u[:, :k]))
    return NullProjector(
        merged_classes=tuple(sorted(ids)),
        excluded_classes=tuple(excluded_classes),
        epsilons=(float(epsilon),) * n_layers,
        bases=bases,
        ranks=tuple(b.shape[1] for b in bases),
    )


def retained_energy(projector: NullProjector, trace: nn.ActivationTrace) -> list[float]:
    """Per layer, the fraction of activation energy inside the retained basis: ||B^T R||_F^2 / ||R||_F^2."""
    if len(trace.per_layer) != len(projector.bases):
        raise ValueError("trace and projector disagree on layer count")
    out = []
    for b, r in zip(projector.bases, trace.per_layer):
        total = float(np.sum(r * r))
        if total == 0.0:
            raise ValueError("trace layer carries no energy")
        kept = b.T @ r
        out.append(float(np.sum(kept * kept)) / total)
    return out


class ProjectorCache:
    """Lazily merges and caches one NullProjector per excluded set of classes.

    Holds every class's subspace; `for_excluded(*class_ids)` merges all the
    others into one retained basis.  An unlearn run excludes its whole unlearn
    set, so it merges once, and the merge is reused across runs.
    """

    def __init__(self, subspaces: dict, epsilon: float):
        self.subspaces = {int(c): s for c, s in subspaces.items()}
        for c, s in self.subspaces.items():
            if s.class_id != c:
                raise ValueError(f"subspace keyed {c} carries class_id {s.class_id}")
        self.epsilon = epsilon
        self._cache: dict = {}

    def for_excluded(self, *class_ids: int) -> NullProjector:
        excluded = tuple(sorted({int(c) for c in class_ids}))
        for c in excluded:
            if c not in self.subspaces:
                raise ValueError(f"no subspace recorded for class {c}")
        if excluded not in self._cache:
            kept = [s for cid, s in sorted(self.subspaces.items()) if cid not in excluded]
            if not kept:
                raise ValueError(f"excluding {list(excluded)} leaves no recorded class to merge")
            self._cache[excluded] = merge_null_projector(kept, self.epsilon, excluded_classes=excluded)
        return self._cache[excluded]


def save_subspace(proj: NullProjector, path, **stamp) -> None:
    """Versioned JSON artifact of one retained basis plus the caller's stamp keys; arrays round-trip bit-exactly."""
    doc = {
        **stamp,
        "format_version": SUBSPACE_FORMAT_VERSION,
        "merged_classes": list(proj.merged_classes),
        "excluded_classes": list(proj.excluded_classes),
        "epsilons": list(proj.epsilons),
        "ranks": list(proj.ranks),
        "bases": [b.tolist() for b in proj.bases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_subspace(path) -> tuple:
    """(NullProjector, stamp): the basis save_subspace wrote and the stamp keys saved with it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.pop("format_version", None)
    if version != SUBSPACE_FORMAT_VERSION:
        raise ValueError(f"unsupported subspace format_version {version!r}, expected {SUBSPACE_FORMAT_VERSION}")
    proj = NullProjector(
        merged_classes=doc.pop("merged_classes"),
        excluded_classes=doc.pop("excluded_classes"),
        epsilons=tuple(doc.pop("epsilons")),
        bases=doc.pop("bases"),
        ranks=doc.pop("ranks"),
    )
    return proj, doc
