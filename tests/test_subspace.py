"""Per-class layer inputs, merged retained bases, and their cache."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import trained_dense_net
from nullspace_unlearn import linalg, nn, subspace


@pytest.fixture(scope="module")
def fitted():
    net, sp = trained_dense_net(seed=40)
    inputs = {c: subspace.class_subspace(net, sp.train.class_filter((c,), keep=True)) for c in range(3)}
    return net, sp, inputs


def kept(inputs, *classes):
    """The class-keyed inputs of just `classes`."""
    return {c: inputs[c] for c in classes}


# ---------------------------------------------------------------------------
# class_subspace
# ---------------------------------------------------------------------------


def test_class_subspace_shapes_follow_the_trace(fitted):
    net, sp, inputs = fitted
    batch = sp.train.class_filter((1,), keep=True)
    _, trace = nn.forward(net, batch.features, record=True)
    assert len(inputs[1]) == len(trace.per_layer) == 2
    for a, r in zip(inputs[1], trace.per_layer):
        assert a.tobytes() == r.tobytes() and a.shape == r.shape


def test_class_subspace_rejects_mixed_or_empty(fitted):
    net, sp, _ = fitted
    with pytest.raises(ValueError, match="mixes labels"):
        subspace.class_subspace(net, sp.train)
    with pytest.raises(ValueError, match="empty"):
        subspace.class_subspace(net, sp.train.subset(np.array([], dtype=int)))


# ---------------------------------------------------------------------------
# merge_null_projector
# ---------------------------------------------------------------------------


def test_merged_projector_properties(fitted):
    _, _, inputs = fitted
    proj = subspace.merge_null_projector(inputs, 0.99, excluded_classes=(0,))
    assert proj.merged_classes == (1, 2)
    assert proj.excluded_classes == (0,)
    assert len(proj.bases) == 2
    for b, k in zip(proj.bases, proj.ranks):
        assert b.shape[1] == k
        npt.assert_allclose(b.T @ b, np.eye(k), atol=1e-10)


def test_merge_is_order_invariant(fitted):
    # The kept classes are stacked in ascending class order, whatever order the dict was built in.
    _, _, inputs = fitted
    ab = subspace.merge_null_projector({1: inputs[1], 2: inputs[2]}, 0.99)
    ba = subspace.merge_null_projector({2: inputs[2], 1: inputs[1]}, 0.99)
    assert (ab.merged_classes, ab.ranks) == (ba.merged_classes, ba.ranks)
    for qa, qb in zip(ab.bases, ba.bases):
        assert qa.tobytes() == qb.tobytes()


def test_full_energy_projector_annihilates_build_activations(fitted):
    net, sp, inputs = fitted
    proj = subspace.merge_null_projector(kept(inputs, 1, 2), 1.0)
    for c in (1, 2):
        batch = sp.train.class_filter((c,), keep=True)
        _, trace = nn.forward(net, batch.features, record=True)
        for b, r in zip(proj.bases, trace.per_layer):
            assert np.linalg.norm(linalg.apply_projection(r.T, b)) <= 1e-8 * np.linalg.norm(r)


def test_rank_grows_with_epsilon(fitted):
    _, _, inputs = fitted
    pair = kept(inputs, 1, 2)
    ranks = [subspace.merge_null_projector(pair, eps).ranks for eps in (0.5, 0.99, 1.0)]
    for lo, hi in zip(ranks, ranks[1:]):
        assert all(a <= b for a, b in zip(lo, hi))


def test_svd_runs_once_per_layer_per_merge_and_never_per_class(fitted, monkeypatch):
    net, sp, _ = fitted
    shapes = []
    real_svd = subspace.svd

    def spy(m):
        shapes.append(np.shape(m))
        return real_svd(m)

    monkeypatch.setattr(subspace, "svd", spy)
    inputs = {c: subspace.class_subspace(net, sp.train.class_filter((c,), keep=True)) for c in (1, 2)}
    assert shapes == []
    subspace.merge_null_projector(inputs, 0.99)
    assert shapes == [(a.shape[0], a.shape[1] + b.shape[1]) for a, b in zip(inputs[1], inputs[2])]


@pytest.mark.parametrize("epsilon", [0.5, 0.99, 1.0])
def test_merge_matches_the_per_class_svd_route(fitted, epsilon):
    _, _, inputs = fitted
    proj = subspace.merge_null_projector(kept(inputs, 1, 2), epsilon)
    for li, b in enumerate(proj.bases):
        ref, _ = oracles.per_class_merge_basis([inputs[1][li], inputs[2][li]], epsilon)
        assert b.shape == ref.shape
        npt.assert_allclose(b @ b.T, ref @ ref.T, rtol=0.0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(2, 12),
    span=st.integers(1, 12),
    classes=st.lists(st.tuples(st.integers(1, 24), st.integers(1, 12)), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_matches_the_per_class_svd_route_on_rank_deficient_classes(rows, span, classes, seed):
    # Every class lies in one shared span of at most `rows` directions, with a
    # rank of its own; a class may have fewer samples than rows or more.
    rng = np.random.default_rng(seed)
    span = min(span, rows)
    shared = rng.standard_normal((rows, span))
    per_class = []
    for cols, rank in classes:
        rank = min(rank, span)
        per_class.append(shared @ rng.standard_normal((span, rank)) @ rng.standard_normal((rank, cols)))
    ref, ref_s = oracles.per_class_merge_basis(per_class, 1.0)
    stacked_s = linalg.svd(np.hstack(per_class)).s
    npt.assert_allclose(stacked_s, ref_s, rtol=0.0, atol=1e-10 * ref_s[0])
    proj = subspace.merge_null_projector({c: [r] for c, r in enumerate(per_class)}, 1.0)
    assert proj.ranks == (ref.shape[1],)
    b = proj.bases[0]
    npt.assert_allclose(b @ b.T, ref @ ref.T, rtol=0.0, atol=1e-9)


def test_merge_validation(fitted):
    _, _, inputs = fitted
    with pytest.raises(ValueError, match="no subspace recorded"):
        subspace.merge_null_projector(inputs, 0.99, excluded_classes=(7,))
    with pytest.raises(ValueError, match="no recorded class"):
        subspace.merge_null_projector({}, 0.99)
    with pytest.raises(ValueError, match="no recorded class"):
        subspace.merge_null_projector(inputs, 0.99, excluded_classes=(0, 1, 2))
    with pytest.raises(ValueError, match="epsilon"):
        subspace.merge_null_projector(kept(inputs, 1), 0.0)
    with pytest.raises(ValueError, match="zip"):
        subspace.merge_null_projector({1: inputs[1], 2: inputs[2][:1]}, 0.99)


def test_retained_energy_bounds(fitted):
    net, sp, inputs = fitted
    proj = subspace.merge_null_projector(kept(inputs, 1, 2), 1.0)
    batch = sp.train.class_filter((1,), keep=True)
    _, trace = nn.forward(net, batch.features, record=True)
    removed = subspace.retained_energy(proj, trace)
    for frac in removed:
        assert 0.0 <= frac <= 1.0 + 1e-12
    # Full-energy merge removes essentially all of a merged class's activations.
    assert min(removed) >= 1.0 - 1e-10


# ---------------------------------------------------------------------------
# ProjectorCache
# ---------------------------------------------------------------------------


def test_cache_builds_once_and_matches_direct_merge(fitted):
    _, _, inputs = fitted
    cache = subspace.ProjectorCache(inputs, 0.99)
    first = cache.for_excluded(0)
    assert cache.for_excluded(0) is first
    direct = subspace.merge_null_projector(kept(inputs, 1, 2), 0.99)
    assert first.merged_classes == direct.merged_classes
    for pa, pb in zip(first.bases, direct.bases):
        npt.assert_array_equal(pa, pb)
    # An unlearn set is one merge over the classes outside it, in any order.
    pair = cache.for_excluded(0, 1)
    assert cache.for_excluded(1, 0) is pair
    assert pair.merged_classes == (2,)
    assert pair.excluded_classes == (0, 1)
    direct = subspace.merge_null_projector(kept(inputs, 2), 0.99)
    for pa, pb in zip(pair.bases, direct.bases):
        npt.assert_array_equal(pa, pb)


def test_cache_validation(fitted):
    _, _, inputs = fitted
    with pytest.raises(ValueError, match="no subspace recorded"):
        subspace.ProjectorCache(inputs, 0.99).for_excluded(7)
    with pytest.raises(ValueError, match="no recorded class"):
        subspace.ProjectorCache(kept(inputs, 1), 0.99).for_excluded(1)
    with pytest.raises(ValueError, match="no recorded class"):
        subspace.ProjectorCache(inputs, 0.99).for_excluded(0, 1, 2)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_subspace_round_trip_is_bit_exact(fitted, tmp_path):
    _, _, inputs = fitted
    proj = subspace.ProjectorCache(inputs, 0.99).for_excluded(0)
    path = tmp_path / "subspace.json"
    subspace.save_subspace(proj, path, source_checkpoint_hash="abc123", seed=7)
    back, stamp = subspace.load_subspace(path)
    assert stamp == {"source_checkpoint_hash": "abc123", "seed": 7}
    assert (back.merged_classes, back.excluded_classes) == ((1, 2), (0,))
    assert (back.epsilons, back.ranks) == (proj.epsilons, proj.ranks)
    assert type(back.epsilons) is tuple
    for b0, b1 in zip(proj.bases, back.bases):
        npt.assert_array_equal(b0, b1)
    # Rewriting the loaded artifact reproduces the bytes.
    path2 = tmp_path / "subspace2.json"
    subspace.save_subspace(back, path2, **stamp)
    assert path.read_bytes() == path2.read_bytes()
    # Ranks that disagree with the bases are refused.
    path2.write_text(path2.read_text().replace('"ranks": [\n  ', '"ranks": [\n  9'))
    with pytest.raises(ValueError, match="ranks"):
        subspace.load_subspace(path2)


def test_subspace_load_rejects_unknown_version(fitted, tmp_path):
    _, _, inputs = fitted
    path = tmp_path / "subspace.json"
    subspace.save_subspace(subspace.ProjectorCache(inputs, 0.99).for_excluded(0), path)
    version = subspace.SUBSPACE_FORMAT_VERSION
    path.write_text(path.read_text().replace(f'"format_version": {version}', f'"format_version": {version + 1}'))
    with pytest.raises(ValueError, match="format_version"):
        subspace.load_subspace(path)


def test_basis_stands_in_for_its_cache_only_for_its_own_unlearn_set(fitted):
    _, _, inputs = fitted
    proj = subspace.ProjectorCache(inputs, 0.99).for_excluded(0, 1)
    assert proj.for_excluded(1, 0) is proj
    for other in ((0,), (1,), (0, 1, 2), ()):
        with pytest.raises(ValueError, match="excludes classes"):
            proj.for_excluded(*other)
