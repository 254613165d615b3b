"""Per-class layer inputs and the merged retained basis of an unlearn set.

A class subspace is the recorded layer inputs R_c (n x m_c) of one class's
build batch; no SVD runs per class.  For an unlearn set, the inputs of every
other class are stacked per layer, hstack(R_c), and one SVD plus energy
cutoff picks the retained directions, kept as an orthonormal basis B
(n x k).  Updates are projected off span(B) with `linalg.apply_projection`.
Stacking the raw inputs is exact, not an approximation of a per-class
factorisation: any per-class SVD R_c = U_c S_c V_c^T gives
hstack(U_c S_c) the same Gram matrix, sum_c R_c R_c^T, hence the same left
singular vectors and values, so one energy threshold weighs the classes
against each other as it would their factors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .artifacts import decode_array, encode_array, read_json, write_json
from .linalg import as_matrix, rank_cutoff, svd

SUBSPACE_FORMAT_VERSION = 3


def class_subspace(net: nn.Network, class_batch) -> list:
    """Each layer's recorded inputs for a single-class batch, augmented (features x samples); the merge SVDs them.

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
    return trace.per_layer


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
        self.epsilons = tuple(self.epsilons)
        self.bases = [as_matrix(b, f"layer {i} retained basis") for i, b in enumerate(self.bases)]
        self.ranks = tuple(self.ranks)
        if self.ranks != tuple(b.shape[1] for b in self.bases):
            raise ValueError(f"ranks {list(self.ranks)} do not match the bases' column counts")

    def for_excluded(self, *class_ids: int) -> "NullProjector":
        excluded = tuple(sorted({int(c) for c in class_ids}))
        if excluded != self.excluded_classes:
            raise ValueError(f"retained basis excludes classes {list(self.excluded_classes)}, not {list(excluded)}")
        return self


def merge_null_projector(inputs: dict, epsilon: float, excluded_classes=()) -> NullProjector:
    """The retained basis of every recorded class outside `excluded_classes`.

    `inputs` maps each class id to its `class_subspace` layer inputs.  Per
    layer: stack the kept classes' inputs side by side in ascending class
    order, SVD the stack once, and keep the leading left singular vectors of
    the smallest rank holding epsilon of the squared energy (one epsilon for
    every layer; `rank_cutoff` checks its range).  The stack's column order
    changes neither its Gram matrix nor, therefore, the retained span.  The
    layers' SVDs are independent, so each layer is one `nn.map_shares` job;
    a job's result does not depend on the thread that runs it.
    """
    excluded = tuple(sorted({int(c) for c in excluded_classes}))
    for c in excluded:
        if c not in inputs:
            raise ValueError(f"no subspace recorded for class {c}")
    kept = sorted(c for c in inputs if c not in excluded)
    if not kept:
        raise ValueError(f"excluding {list(excluded)} leaves no recorded class to merge")

    def retained_basis(layer):
        res = svd(np.hstack(layer))
        return np.ascontiguousarray(res.u[:, : rank_cutoff(res.s, epsilon)])

    bases = nn.map_shares(retained_basis, zip(*(inputs[c] for c in kept), strict=True))
    return NullProjector(
        merged_classes=kept,
        excluded_classes=excluded,
        epsilons=(float(epsilon),) * len(bases),
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
    """Memoises `merge_null_projector` over every class's recorded layer inputs, one merge per excluded set.

    An unlearn run excludes its whole unlearn set, so it merges once, and
    the merge is reused across runs.
    """

    def __init__(self, inputs: dict, epsilon: float):
        self.inputs = inputs
        self.epsilon = epsilon
        self._cache: dict = {}

    def for_excluded(self, *class_ids: int) -> NullProjector:
        excluded = tuple(sorted({int(c) for c in class_ids}))
        if excluded not in self._cache:
            self._cache[excluded] = merge_null_projector(self.inputs, self.epsilon, excluded_classes=excluded)
        return self._cache[excluded]


def save_subspace(proj: NullProjector, path, **stamp) -> None:
    """Versioned JSON artifact of one retained basis plus the caller's stamp keys, written atomically.

    The bases are exact float64 bytes (`encode_array`); every other field is plain JSON.
    """
    doc = {f.name: getattr(proj, f.name) for f in fields(proj)}
    doc["bases"] = [encode_array(b) for b in proj.bases]
    write_json({**stamp, "format_version": SUBSPACE_FORMAT_VERSION, **doc}, path)


def load_subspace(path) -> tuple:
    """(NullProjector, stamp): the basis save_subspace wrote and the stamp keys saved with it.

    A malformed field raises ValueError naming path.
    """
    doc = read_json(path, SUBSPACE_FORMAT_VERSION)
    try:
        kw = {f.name: doc.pop(f.name) for f in fields(NullProjector)}
        kw["bases"] = [decode_array(b, f"{path} bases[{i}]") for i, b in enumerate(kw["bases"])]
        return NullProjector(**kw), doc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed subspace: {exc}") from None
