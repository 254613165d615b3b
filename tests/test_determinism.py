"""The portable generator's bounded draws and permutations."""

import hashlib

import numpy as np
import pytest

from nullspace_unlearn.determinism import PortableRng


@pytest.mark.parametrize("bound", [1, 2, 3, 2**32, 2**63 + 5, 2**64 - 1])
def test_integers_below_rejects_exactly_the_short_tail(bound, monkeypatch):
    # Words from 2**64 - (2**64 % bound) up are rejected; the word just below is kept.
    first_rejected = 2**64 - 2**64 % bound
    words = iter([w for w in (first_rejected, first_rejected - 1) if w < 2**64])
    rng = PortableRng(0)
    monkeypatch.setattr(rng, "raw", lambda n: np.array([next(words) for _ in range(n)], dtype=np.uint64))
    assert int(rng.integers_below([bound])[0]) == (first_rejected - 1) % bound
    assert next(words, None) is None


def test_seeded_permutation_is_pinned():
    perm = PortableRng(12345).permutation(5000)
    assert sorted(perm.tolist()) == list(range(5000))
    digest = hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest()
    assert digest == "fe0d98a697e8d4b14bad18b69455eeac0746e343e0b4f76218407c90aff76d7b"


@pytest.mark.parametrize("size", [-3, -1, 11])
def test_choice_rejects_sizes_outside_zero_to_n(size):
    with pytest.raises(ValueError, match="cannot choose"):
        PortableRng(0).choice(10, size)
