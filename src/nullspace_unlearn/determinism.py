"""Seed derivation and a portable, fully specified random number generator.

Reproducibility contract: every random choice in this package flows from one
root seed through `derive_seed`, and every draw comes from `PortableRng`.
Both are specified tightly enough to reimplement in another language:

* derive_seed(root, *labels) = first 8 bytes, big-endian, of
  SHA-256("{root}/{label_1}/{label_2}/...").
* PortableRng draws raw 64-bit words from the Philox-4x32-10 counter-based
  generator (numpy's bit-stream implementation, keyed with the seed, counter
  starting at zero).
* uniform doubles in [0, 1) are (word >> 11) * 2**-53.
* standard normals come from Box-Muller on pairs (u1, u2):
  r = sqrt(-2 ln(1 - u1)), z0 = r cos(2 pi u2), z1 = r sin(2 pi u2),
  taken in that order.
* bounded integers use rejection sampling: draw a word x, accept x % n
  unless x >= 2**64 - (2**64 % n).
* permutations are a descending Fisher-Yates shuffle driven by those
  bounded draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root: int, *labels) -> int:
    """Expand a root seed into an independent component seed, stable across runs."""
    text = str(int(root)) + "".join(f"/{label}" for label in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PortableRng:
    """Deterministic generator with documented primitives (see module docstring)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bitgen = np.random.Philox(key=self.seed)

    def raw(self, n: int) -> np.ndarray:
        return np.asarray(self._bitgen.random_raw(int(n)), dtype=np.uint64).reshape(-1)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def standard_normal(self, shape) -> np.ndarray:
        shape = tuple(int(d) for d in np.atleast_1d(shape))
        count = int(np.prod(shape)) if shape else 1
        pairs = (count + 1) // 2
        u = self.uniform(2 * pairs)
        u1, u2 = u[:pairs], u[pairs:]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:count].reshape(shape)

    def integers_below(self, bounds) -> np.ndarray:
        """One uniform draw in [0, bound_i) per entry of bounds (each >= 1); rejected entries redraw in index order."""
        bounds = np.asarray(bounds, dtype=np.uint64).reshape(-1)
        if (bounds < 1).any():
            raise ValueError("bounds must all be >= 1")
        # Reject a word in the short tail [2**64 - (2**64 % b), 2**64), empty when b divides 2**64.
        # In uint64, 0 - b wraps to 2**64 - b, and (2**64 - b) % b == 2**64 % b.
        tail = (np.uint64(0) - bounds) % bounds
        first_rejected = np.uint64(0) - tail
        words = self.raw(bounds.size)
        out = words % bounds
        idx = np.flatnonzero((tail != 0) & (words >= first_rejected))
        while idx.size:
            words = self.raw(idx.size)
            out[idx] = words % bounds[idx]
            idx = idx[(tail[idx] != 0) & (words >= first_rejected[idx])]
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates from the top: for i = n-1 .. 1 swap a[i] with a[draw(i+1)]."""
        n = int(n)
        if n < 2:
            return np.arange(n)
        # Swapping Python ints in a list costs a fraction of numpy scalar indexing.
        a = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self.integers_below(np.arange(n, 1, -1)).tolist()):
            a[i], a[j] = a[j], a[i]
        return np.array(a, dtype=np.int64)

    def choice(self, n: int, size: int) -> np.ndarray:
        """First `size` entries of a permutation of range(n): sampling without replacement."""
        if size < 0:
            raise ValueError(f"cannot choose a negative number of items ({size})")
        if size > n:
            raise ValueError(f"cannot choose {size} items from {n} without replacement")
        return self.permutation(n)[:size]
