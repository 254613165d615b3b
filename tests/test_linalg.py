"""Core linear algebra: SVD, energy rank cutoff, null projectors."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from nullspace_unlearn import linalg


def random_matrix(seed, rows, cols, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.standard_normal((rows, cols))
    left = rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols))
    return left @ right


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rows,cols", [(5, 3), (3, 5), (4, 4), (1, 1), (7, 2), (2, 7)])
def test_svd_matches_lapack_singular_values(rows, cols):
    a = random_matrix(seed=rows * 10 + cols, rows=rows, cols=cols)
    res = linalg.svd(a)
    ref = oracles.reference_singular_values(a)
    npt.assert_allclose(res.s, ref, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("rows,cols", [(6, 4), (4, 6), (5, 5)])
def test_svd_reconstruction(rows, cols):
    a = random_matrix(seed=rows + cols, rows=rows, cols=cols)
    res = linalg.svd(a)
    k = min(rows, cols)
    assert res.u.shape == (rows, k)
    assert res.s.shape == (k,)
    assert res.vt.shape == (k, cols)
    npt.assert_allclose(res.u @ np.diag(res.s) @ res.vt, a, atol=1e-8)


@pytest.mark.parametrize("rows,cols", [(6, 4), (4, 6), (5, 5), (8, 3)])
def test_svd_orthonormal_factors(rows, cols):
    a = random_matrix(seed=3 * rows + cols, rows=rows, cols=cols)
    res = linalg.svd(a)
    k = min(rows, cols)
    npt.assert_allclose(res.u.T @ res.u, np.eye(k), atol=1e-8)
    npt.assert_allclose(res.vt @ res.vt.T, np.eye(k), atol=1e-8)


def test_svd_singular_values_descending_nonnegative():
    a = random_matrix(seed=9, rows=8, cols=5)
    s = linalg.svd(a).s
    assert (s >= 0.0).all()
    assert (np.diff(s) <= 0.0).all()


def test_svd_sign_convention():
    a = random_matrix(seed=11, rows=6, cols=4)
    u = linalg.svd(a).u
    for k in range(u.shape[1]):
        idx = np.argmax(np.abs(u[:, k]))
        assert u[idx, k] > 0.0


def test_svd_rank_deficient_reconstruction_and_column_space():
    a = random_matrix(seed=21, rows=7, cols=5, rank=2)
    res = linalg.svd(a)
    npt.assert_allclose(res.u @ np.diag(res.s) @ res.vt, a, atol=1e-8)
    assert np.sum(res.s > 1e-10 * res.s[0]) == 2
    # The leading singular vectors span the same column space LAPACK finds.
    mine = res.u[:, :2] @ res.u[:, :2].T
    npt.assert_allclose(mine, oracles.reference_column_space_projector(a), atol=1e-8)
    # Directions with zero singular value are still orthonormal, not junk.
    npt.assert_allclose(res.u.T @ res.u, np.eye(5), atol=1e-8)


@pytest.mark.parametrize("rows,cols", [(7, 5), (5, 7)])
def test_full_energy_rank_ignores_svd_noise(rows, cols):
    # LAPACK leaves rounding-level singular values where the exact ones are zero.
    a = random_matrix(seed=21, rows=rows, cols=cols, rank=2)
    assert linalg.rank_cutoff(linalg.svd(a).s, 1.0) == 2


def test_svd_zero_matrix():
    res = linalg.svd(np.zeros((4, 3)))
    npt.assert_allclose(res.s, np.zeros(3))
    npt.assert_allclose(res.u.T @ res.u, np.eye(3), atol=1e-12)


def test_svd_one_by_one():
    res = linalg.svd([[-2.0]])
    npt.assert_allclose(res.s, [2.0])
    npt.assert_allclose(res.u @ np.diag(res.s) @ res.vt, [[-2.0]], atol=1e-15)


def test_svd_rejects_empty():
    with pytest.raises(ValueError):
        linalg.svd(np.zeros((0, 3)))


def test_svd_deterministic():
    a = random_matrix(seed=30, rows=10, cols=6)
    r1, r2 = linalg.svd(a), linalg.svd(a.copy())
    npt.assert_array_equal(r1.u, r2.u)
    npt.assert_array_equal(r1.s, r2.s)
    npt.assert_array_equal(r1.vt, r2.vt)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_svd_property_reconstruction_and_values(rows, cols, seed):
    a = random_matrix(seed=seed, rows=rows, cols=cols)
    res = linalg.svd(a)
    npt.assert_allclose(res.u @ np.diag(res.s) @ res.vt, a, atol=1e-8)
    npt.assert_allclose(res.s, oracles.reference_singular_values(a), rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# rank_cutoff
# ---------------------------------------------------------------------------


def test_rank_cutoff_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for trial in range(50):
        s = np.sort(rng.uniform(0.0, 3.0, size=rng.integers(1, 12)))[::-1]
        if s.sum() == 0.0:
            continue
        for eps in (0.1, 0.25, 0.5, 0.9, 0.99, 0.999):
            assert linalg.rank_cutoff(s, eps) == oracles.rank_by_energy_loop(s, eps)


def test_rank_cutoff_full_energy_counts_nonzero_values():
    s = np.array([3.0, 1.0, 1e-9, 0.0, 0.0])
    assert linalg.rank_cutoff(s, 1.0) == 3
    assert linalg.rank_cutoff(np.array([2.0]), 1.0) == 1


def test_rank_cutoff_known_values():
    s = np.array([2.0, 1.0, 1.0])  # energies 4, 1, 1 -> cumulative 4/6, 5/6, 6/6
    assert linalg.rank_cutoff(s, 0.5) == 1
    assert linalg.rank_cutoff(s, 4.0 / 6.0) == 1
    assert linalg.rank_cutoff(s, 0.7) == 2
    assert linalg.rank_cutoff(s, 0.9) == 3


def test_rank_cutoff_validation():
    with pytest.raises(ValueError):
        linalg.rank_cutoff(np.array([]), 0.5)
    with pytest.raises(ValueError):
        linalg.rank_cutoff(np.array([1.0, -0.1]), 0.5)
    with pytest.raises(ValueError):
        linalg.rank_cutoff(np.array([1.0, 2.0]), 0.5)  # increasing
    with pytest.raises(ValueError):
        linalg.rank_cutoff(np.array([0.0, 0.0]), 0.5)  # no energy at all
    with pytest.raises(ValueError):
        linalg.rank_cutoff(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        linalg.rank_cutoff(np.array([1.0]), 1.5)
    with pytest.raises(linalg.NumericError):
        linalg.rank_cutoff(np.array([np.inf, 1.0]), 0.5)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10),
    eps=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
)
# The pairwise energy total exceeds the running sum's last entry here.
@example(values=[10.0, 5.0, 3.013179778101383, 3.0, 2.048903800645854, 1.2381200673825623, 0.0, 0.0],
         eps=0.9999999999999999)
def test_rank_cutoff_property_matches_oracle(values, eps):
    s = np.sort(np.asarray(values))[::-1]
    if (s * s).sum() == 0.0:
        return  # squares underflow: no energy, which rank_cutoff rejects
    assert linalg.rank_cutoff(s, eps) == oracles.rank_by_energy_loop(s, eps)


# ---------------------------------------------------------------------------
# null_projector
# ---------------------------------------------------------------------------


def orthonormal_basis(seed, n, k):
    a = random_matrix(seed=seed, rows=n, cols=k)
    q, _ = np.linalg.qr(a)
    return q[:, :k]


@pytest.mark.parametrize("n,k", [(6, 2), (8, 5), (3, 1), (10, 9)])
def test_null_projector_idempotent_symmetric(n, k):
    p = linalg.null_projector(orthonormal_basis(seed=n * k, n=n, k=k))
    npt.assert_allclose(p @ p, p, atol=1e-10)
    npt.assert_array_equal(p, p.T)
    # Rank of the null projector is the codimension.
    assert round(np.trace(p)) == n - k


def test_null_projector_annihilates_basis_and_keeps_complement():
    b = orthonormal_basis(seed=4, n=7, k=3)
    p = linalg.null_projector(b)
    npt.assert_allclose(p @ b, np.zeros_like(b), atol=1e-12)
    # A vector orthogonal to the basis is untouched.
    v = random_matrix(seed=8, rows=7, cols=1)
    v -= b @ (b.T @ v)
    npt.assert_allclose(p @ v, v, atol=1e-12)


def test_null_projector_spanning_basis_is_exactly_zero():
    b = orthonormal_basis(seed=13, n=5, k=5)
    p = linalg.null_projector(b)
    npt.assert_array_equal(p, np.zeros((5, 5)))


def test_null_projector_rejects_bad_bases():
    with pytest.raises(ValueError):
        linalg.null_projector(np.ones((3, 4)))  # more columns than rows
    skew = orthonormal_basis(seed=2, n=5, k=2)
    skew[:, 0] *= 1.001  # not unit norm any more
    with pytest.raises(ValueError, match="not orthonormal"):
        linalg.null_projector(skew)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_null_projector_property_idempotent(n, seed, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    p = linalg.null_projector(orthonormal_basis(seed=seed, n=n, k=k))
    npt.assert_allclose(p @ p, p, atol=1e-10)


# ---------------------------------------------------------------------------
# apply_projection / as_matrix
# ---------------------------------------------------------------------------


def test_apply_projection_projects_rows():
    g = random_matrix(seed=18, rows=4, cols=6)
    for k in (2, 6):
        b = orthonormal_basis(seed=17, n=6, k=k)
        out = linalg.apply_projection(g, b)
        npt.assert_allclose(out, g @ linalg.null_projector(b), atol=1e-12)
        # Projected rows have no component along the basis.
        npt.assert_allclose(out @ b, np.zeros((4, k)), atol=1e-12)
    # A spanning basis leaves exact zeros, not rounding dust.
    npt.assert_array_equal(out, np.zeros((4, 6)))


def test_apply_projection_validation():
    with pytest.raises(ValueError):
        linalg.apply_projection(np.ones((2, 3)), np.eye(4))
    with pytest.raises(ValueError):
        linalg.apply_projection(np.ones((2, 3)), np.ones((3, 4)))


def test_as_matrix_validation():
    npt.assert_array_equal(linalg.as_matrix([[1, 2]]), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 2, 2)), "cube")
    with pytest.raises(linalg.NumericError):
        linalg.as_matrix(np.array([[np.nan, 1.0]]))
