"""Dense linear algebra kernels: deterministic SVD, energy-rank selection, null-space projection.

A retained subspace is held as an orthonormal basis B (n x k), never as a
dense n x n projector: projecting a gradient off it costs two thin products,
g - (g B) B^T.  Everything here is float64.  The SVD is LAPACK's, through numpy; with the
same BLAS build and thread count, the same input bytes give the same output
bytes on every run, and a fixed sign convention keeps the singular vectors
byte-stable too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericError(ValueError):
    """Raised when an input carries NaN/Inf or an iteration loses finiteness."""


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, naming the first offending entry."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    bad = ~np.isfinite(a)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericError(f"{name} has non-finite entry {a[i, j]!r} at ({i}, {j})")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD m = u @ diag(s) @ vt with s non-increasing.

    u has orthonormal columns, vt has orthonormal rows, and the sign of each
    left singular vector is fixed so its largest-magnitude entry is positive
    (first index wins ties), which makes downstream artifacts byte-stable.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


# Singular values at or below this fraction of the largest are rounding noise.
_NOISE_FLOOR = 1.0e-13


def svd(m) -> SvdResult:
    """Thin SVD by LAPACK (``np.linalg.svd``), with a deterministic sign convention.

    u and vt are orthonormal even where a singular value is zero.  Each left
    singular vector is flipped, together with its right partner, so that its
    largest-magnitude entry is positive.
    """
    a = as_matrix(m, "svd input")
    if a.size == 0:
        raise ValueError(f"svd input must be non-empty, got shape {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    signs = np.where(peak < 0.0, -1.0, 1.0)
    return SvdResult(u=u * signs, s=s, vt=vt * signs[:, np.newaxis])


def rank_cutoff(s, epsilon: float) -> int:
    """Smallest k whose leading k squared singular values hold epsilon of the energy.

    epsilon = 1.0 keeps every direction whose singular value exceeds 1e-13 of
    the largest; anything smaller is rounding noise of the SVD.  The
    cumulative-sum comparison is bypassed there so float rounding cannot drop
    a genuine direction.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError(f"singular values must be a non-empty 1-D sequence, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NumericError("singular values contain non-finite entries")
    if (s < 0.0).any():
        raise ValueError("singular values must be non-negative")
    if (np.diff(s) > 0.0).any():
        raise ValueError("singular values must be non-increasing")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    energy = s * s
    total = float(energy.sum())
    if total == 0.0:
        raise ValueError("all singular values are zero; no direction carries energy")
    if epsilon == 1.0:
        return int(np.count_nonzero(s > _NOISE_FLOOR * s[0]))
    cum = np.cumsum(energy)
    return int(np.searchsorted(cum, epsilon * total, side="left")) + 1


def null_projector(basis) -> np.ndarray:
    """P = I - B B^T for an orthonormal-column basis B; symmetric and idempotent.

    The dense form of what apply_projection does with B itself; kept as the
    reference the tests compare against.  The orthonormality precondition is checked to 1e-8 and the error message
    reports the worst deviation, since a skewed basis silently breaks the
    idempotence guarantee downstream.
    """
    b = as_matrix(basis, "projector basis")
    n, k = b.shape
    if k > n:
        raise ValueError(f"basis has more columns ({k}) than rows ({n})")
    gram_dev = np.abs(b.T @ b - np.eye(k)).max() if k else 0.0
    if gram_dev > 1.0e-8:
        raise ValueError(
            f"basis columns are not orthonormal: max |B^T B - I| = {gram_dev:.3e} exceeds 1e-8"
        )
    if k == n:
        # A spanning basis leaves only the zero vector; I - B B^T would keep
        # rounding dust that downstream SGD steps happily accumulate.
        return np.zeros((n, n))
    p = np.eye(n) - b @ b.T
    return (p + p.T) / 2.0


def apply_projection(grad, basis) -> np.ndarray:
    """Project gradient rows off span(basis): g - (g B) B^T for an orthonormal-column B.

    A spanning basis (k == n) returns exact zeros: g - (g B) B^T would keep
    rounding dust that downstream SGD steps happily accumulate.
    """
    g = as_matrix(grad, "gradient")
    b = as_matrix(basis, "projector basis")
    n, k = b.shape
    if k > n:
        raise ValueError(f"basis has more columns ({k}) than rows ({n})")
    if g.shape[1] != n:
        raise ValueError(f"gradient columns ({g.shape[1]}) do not match basis dimension ({n})")
    if k == n:
        return np.zeros_like(g)
    return g - (g @ b) @ b.T
