"""The portable generator's bounded draws and permutations."""

import hashlib

import numpy as np
import pytest

import oracles
from nullspace_unlearn.determinism import PortableRng, derive_seed


@pytest.mark.parametrize("bound", [1, 2, 3, 2**32, 2**63 + 5, 2**64 - 1])
def test_integers_below_rejects_exactly_the_short_tail(bound, monkeypatch):
    # Words from 2**64 - (2**64 % bound) up are rejected; the word just below is kept.
    first_rejected = 2**64 - 2**64 % bound
    words = iter([w for w in (first_rejected, first_rejected - 1) if w < 2**64])
    rng = PortableRng(0)
    monkeypatch.setattr(rng, "raw", lambda n: np.array([next(words) for _ in range(n)], dtype=np.uint64))
    assert int(rng.integers_below([bound])[0]) == (first_rejected - 1) % bound
    assert next(words, None) is None


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_integers_below_matches_the_pending_loop_when_draws_are_rejected(seed):
    # 2**63 + 1 rejects about half of all words and 3 * 2**62 + 1 a quarter,
    # so several rounds of redraws run; the draws and the stream position
    # after them match the loop that redraws every pending entry each round.
    bounds = np.array([2**63 + 1] * 40 + [1, 2, 3, 2**64 - 1, 3 * 2**62 + 1, 2**63 + 5, 50] * 3, dtype=np.uint64)
    rng, ref_rng = PortableRng(seed), PortableRng(seed)
    drawn = []
    raw = ref_rng.raw
    ref_rng.raw = lambda n: drawn.append(n) or raw(n)
    got, ref = rng.integers_below(bounds), oracles.integers_below_loop(ref_rng, bounds)
    assert len(drawn) > 2 and sum(drawn) > bounds.size
    assert got.dtype == np.uint64 and got.tobytes() == ref.tobytes()
    assert (got < bounds).all()
    assert rng.raw(1) == raw(1)


def test_seeded_permutation_is_pinned():
    perm = PortableRng(12345).permutation(5000)
    assert sorted(perm.tolist()) == list(range(5000))
    digest = hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest()
    assert digest == "fe0d98a697e8d4b14bad18b69455eeac0746e343e0b4f76218407c90aff76d7b"


@pytest.mark.parametrize("n", [0, 1, 2, 50, 5000])
@pytest.mark.parametrize("seed", [0, 7, 12345, derive_seed(1, "unlearn-shuffle")])
def test_permutation_and_choice_match_the_numpy_swap_loop(seed, n):
    # The list-based shuffle gives the same bytes and leaves the stream where the array loop did.
    perm, ref_rng = PortableRng(seed), PortableRng(seed)
    got, ref = perm.permutation(n), oracles.numpy_swap_permutation(ref_rng, n)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert perm.raw(1) == ref_rng.raw(1)
    for size in (0, n // 2, n):
        chosen = PortableRng(seed).choice(n, size)
        assert chosen.dtype == ref.dtype and chosen.tobytes() == ref[:size].tobytes()


@pytest.mark.parametrize("size", [-3, -1, 11])
def test_choice_rejects_sizes_outside_zero_to_n(size):
    with pytest.raises(ValueError, match="cannot choose"):
        PortableRng(0).choice(10, size)
