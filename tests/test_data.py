"""Synthetic data generation, stratified splits, and file round trips."""

import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLOB_COV, BLOB_MEANS, blob_dataset
from nullspace_unlearn import data

# ---------------------------------------------------------------------------
# gaussian_mixture
# ---------------------------------------------------------------------------


def test_mixture_shapes_and_labels():
    ds = blob_dataset(seed=1, n_per_class=10)
    assert ds.features.shape == (30, 4)
    npt.assert_array_equal(ds.labels, np.repeat([0, 1, 2], 10))
    assert ds.n_classes == 3
    assert ds.provenance["generator"] == "gaussian_mixture"


def test_mixture_is_seed_deterministic():
    a = blob_dataset(seed=3)
    b = blob_dataset(seed=3)
    c = blob_dataset(seed=4)
    npt.assert_array_equal(a.features, b.features)
    assert (a.features != c.features).any()


def test_mixture_empirical_moments():
    means = [[0.0, 0.0], [5.0, -5.0]]
    cov = [[1.0, 0.3], [0.3, 0.5]]
    ds = data.gaussian_mixture(means, cov, n_per_class=10000, seed=9)
    for c in range(2):
        rows = ds.features[ds.labels == c]
        # Mean-of-n standard error: sigma/sqrt(n); allow 4 of them.
        for j in range(2):
            se = np.sqrt(cov[j][j] / 10000.0)
            assert abs(rows[:, j].mean() - means[c][j]) < 4 * se
        emp = np.cov(rows.T)
        npt.assert_allclose(emp, cov, atol=0.05)


def test_mixture_degenerate_covariance_pins_samples():
    ds = data.gaussian_mixture(
        [[1.0, -2.0]], np.diag([1e-12, 1e-12]), n_per_class=50, seed=2
    )
    npt.assert_allclose(ds.features, np.tile([1.0, -2.0], (50, 1)), atol=1e-5)


def test_mixture_validation():
    with pytest.raises(ValueError, match="positive definite"):
        data.gaussian_mixture([[0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]], 5, seed=0)
    with pytest.raises(ValueError, match="not symmetric"):
        data.gaussian_mixture([[0.0, 0.0]], [[1.0, 0.5], [0.0, 1.0]], 5, seed=0)
    with pytest.raises(ValueError, match="means"):
        data.gaussian_mixture([0.0, 1.0], [[1.0]], 5, seed=0)
    with pytest.raises(ValueError, match="n_per_class"):
        data.gaussian_mixture([[0.0]], [[1.0]], 0, seed=0)


def test_dataset_views():
    ds = blob_dataset(seed=5, n_per_class=4)
    sub = ds.subset(np.array([0, 5, 9]))
    assert len(sub) == 3
    npt.assert_array_equal(sub.labels, ds.labels[[0, 5, 9]])
    only = ds.class_filter((1,), keep=True)
    assert set(only.labels.tolist()) == {1}
    rest = ds.class_filter((1,), keep=False)
    assert set(rest.labels.tolist()) == {0, 2}
    assert len(only) + len(rest) == len(ds)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def spec(train=0.5, val=0.25, test=0.25, unlearn=(0,), seed=0):
    return data.SplitSpec(
        train_fraction=train,
        val_fraction=val,
        test_fraction=test,
        unlearn_classes=unlearn,
        seed=seed,
    )


def test_split_is_an_exact_partition():
    ds = blob_dataset(seed=6, n_per_class=41)  # awkward size on purpose
    sp = data.split(ds, spec())
    assert len(sp.train) + len(sp.val) + len(sp.test) == len(ds)
    # Every feature row appears exactly once across the three parts.
    stacked = np.vstack([sp.train.features, sp.val.features, sp.test.features])
    order = np.lexsort(stacked.T)
    expect = np.lexsort(ds.features.T)
    npt.assert_array_equal(stacked[order], ds.features[expect])


def test_split_is_stratified_within_one_sample():
    ds = blob_dataset(seed=7, n_per_class=41)
    sp = data.split(ds, spec())
    for c in range(3):
        for part, frac in ((sp.train, 0.5), (sp.val, 0.25), (sp.test, 0.25)):
            count = int(np.sum(part.labels == c))
            assert abs(count - frac * 41) <= 1


def test_split_seed_determinism():
    ds = blob_dataset(seed=8)
    a = data.split(ds, spec(seed=1))
    b = data.split(ds, spec(seed=1))
    c = data.split(ds, spec(seed=2))
    npt.assert_array_equal(a.train.features, b.train.features)
    assert (a.train.features != c.train.features).any()


def test_split_zero_fraction_leaves_part_empty():
    ds = blob_dataset(seed=9)
    sp = data.split(ds, spec(train=0.6, val=0.0, test=0.4))
    assert len(sp.val) == 0
    assert len(sp.train) + len(sp.test) == len(ds)


def test_split_views_partition_by_unlearn_classes():
    ds = blob_dataset(seed=10)
    sp = data.split(ds, spec(unlearn=(0,)))
    assert set(sp.d_u.labels.tolist()) == {0}
    assert set(sp.d_r.labels.tolist()) == {1, 2}
    assert len(sp.d_u) + len(sp.d_r) == len(sp.train)
    assert set(sp.test_unlearn.labels.tolist()) == {0}
    assert set(sp.test_remaining.labels.tolist()) == {1, 2}
    assert 0 not in sp.val_remaining.labels


def test_split_validation():
    ds = blob_dataset(seed=11, n_per_class=3)
    with pytest.raises(ValueError, match="sum to 1"):
        spec(train=0.5, val=0.5, test=0.5)
    with pytest.raises(ValueError, match="non-negative"):
        spec(train=1.2, val=-0.2, test=0.0)
    with pytest.raises(ValueError, match="outside"):
        data.split(ds, spec(unlearn=(5,)))
    # 3 samples cannot give a sliver fraction its one sample for every class.
    with pytest.raises(ValueError, match="received no samples"):
        data.split(ds, spec(train=0.9, val=0.05, test=0.05))


@settings(max_examples=30, deadline=None)
@given(
    n_per_class=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31),
    train=st.floats(min_value=0.25, max_value=0.5),
    val=st.floats(min_value=0.2, max_value=0.3),
)
def test_split_property_partition_sizes(n_per_class, seed, train, val):
    # Every fraction is >= 0.2 with n >= 5, so each class owes each part a sample.
    ds = blob_dataset(seed=seed % 100, n_per_class=n_per_class)
    sp = data.split(ds, spec(train=train, val=val, test=1.0 - train - val, seed=seed))
    assert len(sp.train) + len(sp.val) + len(sp.test) == len(ds)
    for part in (sp.train, sp.val, sp.test):
        for c in range(3):
            assert np.sum(part.labels == c) >= 1


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_bit_exact(tmp_path):
    ds = blob_dataset(seed=12, n_per_class=17)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    back = data.load_csv(path, n_classes=3)
    npt.assert_array_equal(back.features, ds.features)
    npt.assert_array_equal(back.labels, ds.labels)
    path2 = tmp_path / "ds2.csv"
    data.save_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_header_format(tmp_path):
    ds = blob_dataset(seed=13, n_per_class=2)
    path = tmp_path / "ds.csv"
    data.save_csv(ds, path)
    assert path.read_text().splitlines()[0] == "f0,f1,f2,f3,label"


def test_csv_load_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: expected 3 fields, found 2"):
        data.load_csv(path, n_classes=2)
    path.write_text("x0,f1,label\n")
    with pytest.raises(ValueError, match="malformed header"):
        data.load_csv(path, n_classes=2)
    path.write_text("f0,f1,label\n1.0,2.0,7\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: label 7 outside"):
        data.load_csv(path, n_classes=2)
    path.write_text("f0,f1,label\n1.0,oops,0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: unparseable"):
        data.load_csv(path, n_classes=2)


def test_csv_skips_blank_trailing_lines(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("f0,label\n0.5,1\n\n")
    back = data.load_csv(path, n_classes=2)
    assert len(back) == 1


# ---------------------------------------------------------------------------
# IDX round trip
# ---------------------------------------------------------------------------


def idx_pair(tmp_path, pixels, labels, rows=2, cols=2):
    images = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    with open(images, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, len(labels), rows, cols))
        fh.write(bytes(pixels))
    with open(lab, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return images, lab


def test_idx_load_and_normalization(tmp_path):
    images, labels = idx_pair(tmp_path, pixels=[0, 255, 128, 64] * 2, labels=[1, 0])
    ds = data.load_idx(images, labels, n_classes=2)
    assert ds.features.shape == (2, 4)
    npt.assert_allclose(ds.features[0], [0.0, 1.0, 128 / 255.0, 64 / 255.0])
    npt.assert_array_equal(ds.labels, [1, 0])
    raw = data.load_idx(images, labels, n_classes=2, normalize=False)
    npt.assert_array_equal(raw.features[0], [0.0, 255.0, 128.0, 64.0])


def test_idx_round_trip(tmp_path):
    images, labels = idx_pair(tmp_path, pixels=list(range(8)), labels=[0, 1])
    ds = data.load_idx(images, labels, n_classes=2)
    out_i = tmp_path / "out_img.idx"
    out_l = tmp_path / "out_lab.idx"
    data.save_idx(ds, out_i, out_l, image_shape=(1, 2, 2))
    assert images.read_bytes() == out_i.read_bytes()
    assert labels.read_bytes() == out_l.read_bytes()


def test_idx_error_cases(tmp_path):
    images, labels = idx_pair(tmp_path, pixels=list(range(8)), labels=[0, 1])
    bad = tmp_path / "badmagic.idx"
    bad.write_bytes(struct.pack(">IIII", 0x00000804, 2, 2, 2) + bytes(range(8)))
    with pytest.raises(ValueError, match="bad magic"):
        data.load_idx(bad, labels, n_classes=2)
    with pytest.raises(ValueError, match="bad magic"):
        data.load_idx(images, images, n_classes=2)
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(range(4)))
    with pytest.raises(ValueError, match="pixel bytes"):
        data.load_idx(trunc, labels, n_classes=2)
    with pytest.raises(ValueError, match="outside"):
        data.load_idx(images, labels, n_classes=1)
