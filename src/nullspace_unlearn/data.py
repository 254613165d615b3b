"""Datasets: seeded Gaussian-mixture generation, stratified splits, CSV/IDX round-trips.

Generation is fully portable: all randomness comes from
`determinism.PortableRng` (Philox words, Box-Muller normals) and samples are
drawn class 0 .. K-1, each class as an (n_per_class, dim) row-major block of
standard normals mapped through the Cholesky factor of its covariance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .determinism import PortableRng
from .linalg import as_matrix


@dataclass
class Dataset:
    """Feature rows, integer labels, and where they came from."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.features.shape[0] != self.labels.size:
            raise ValueError(
                f"{self.features.shape[0]} feature rows but {self.labels.size} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")

    def __len__(self) -> int:
        return self.labels.size

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
            n_classes=self.n_classes,
            provenance=dict(self.provenance),
        )

    def class_filter(self, classes, keep: bool = True) -> "Dataset":
        wanted = np.isin(self.labels, np.asarray(sorted(classes), dtype=np.int64))
        mask = wanted if keep else ~wanted
        return self.subset(np.flatnonzero(mask))


def gaussian_mixture(means, covariances, n_per_class: int, seed: int) -> Dataset:
    """Sample a K-class Gaussian mixture with n_per_class rows per class.

    covariances may be one shared matrix or one per class; each must be
    symmetric positive definite (checked by Cholesky).
    """
    mu = np.asarray(means, dtype=np.float64)
    if mu.ndim != 2:
        raise ValueError(f"means must be (classes, dim), got shape {mu.shape}")
    k, dim = mu.shape
    cov = np.asarray(covariances, dtype=np.float64)
    if cov.ndim == 2:
        cov = np.broadcast_to(cov, (k, dim, dim)).copy()
    if cov.shape != (k, dim, dim):
        raise ValueError(f"covariances must be (dim, dim) or (classes, dim, dim), got {cov.shape}")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    chols = []
    for c in range(k):
        if not np.allclose(cov[c], cov[c].T, atol=1.0e-12):
            raise ValueError(f"covariance for class {c} is not symmetric")
        try:
            chols.append(np.linalg.cholesky(cov[c]))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"covariance for class {c} is not positive definite") from exc
    rng = PortableRng(seed)
    rows = []
    for c in range(k):
        z = rng.standard_normal((n_per_class, dim))
        rows.append(mu[c] + z @ chols[c].T)
    features = np.vstack(rows)
    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_class)
    return Dataset(
        features=features,
        labels=labels,
        n_classes=k,
        provenance={
            "generator": "gaussian_mixture",
            "means": mu.tolist(),
            "covariances": cov.tolist(),
            "n_per_class": int(n_per_class),
            "seed": int(seed),
        },
    )


@dataclass(frozen=True)
class SplitSpec:
    """Stratified split fractions plus which classes are marked for unlearning."""

    train_fraction: float
    val_fraction: float
    test_fraction: float
    unlearn_classes: tuple
    seed: int

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f < 0.0 for f in fracs):
            raise ValueError("split fractions must be non-negative")
        if abs(sum(fracs) - 1.0) > 1.0e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")
        object.__setattr__(self, "unlearn_classes", tuple(sorted(int(c) for c in self.unlearn_classes)))


@dataclass
class Splits:
    """Train/val/test partition plus the unlearn/remaining views of each part."""

    train: Dataset
    val: Dataset
    test: Dataset
    unlearn_classes: tuple

    @property
    def d_u(self) -> Dataset:
        """Training samples of the unlearn classes: the forget set."""
        return self.train.class_filter(self.unlearn_classes, keep=True)

    @property
    def d_r(self) -> Dataset:
        """Training samples of the remaining classes."""
        return self.train.class_filter(self.unlearn_classes, keep=False)

    @property
    def val_remaining(self) -> Dataset:
        return self.val.class_filter(self.unlearn_classes, keep=False)

    @property
    def test_remaining(self) -> Dataset:
        return self.test.class_filter(self.unlearn_classes, keep=False)

    @property
    def test_unlearn(self) -> Dataset:
        return self.test.class_filter(self.unlearn_classes, keep=True)


def _allot(n: int, fractions) -> list[int]:
    """Largest-remainder apportionment of n items to fractions (sums exactly to n)."""
    raw = [f * n for f in fractions]
    base = [int(np.floor(r)) for r in raw]
    short = n - sum(base)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def split(dataset: Dataset, spec: SplitSpec) -> Splits:
    """Seeded stratified partition; per-class counts deviate from exact fractions by at most 1.

    Classes marked for unlearning must be valid class ids, and every class must
    land at least one sample in every non-zero fraction.
    """
    for c in spec.unlearn_classes:
        if c < 0 or c >= dataset.n_classes:
            raise ValueError(f"unlearn class {c} outside [0, {dataset.n_classes})")
    rng = PortableRng(spec.seed)
    parts = {name: [] for name in ("train", "val", "test")}
    fracs = (spec.train_fraction, spec.val_fraction, spec.test_fraction)
    for c in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size == 0:
            raise ValueError(f"class {c} has no samples")
        perm = idx[rng.permutation(idx.size)]
        n_tr, n_va, n_te = _allot(idx.size, fracs)
        for name, count in zip(("train", "val", "test"), (n_tr, n_va, n_te)):
            if count == 0 and fracs[("train", "val", "test").index(name)] > 0.0:
                raise ValueError(f"class {c} received no samples in the {name} split")
        parts["train"].append(perm[:n_tr])
        parts["val"].append(perm[n_tr : n_tr + n_va])
        parts["test"].append(perm[n_tr + n_va :])
    out = {name: dataset.subset(np.concatenate(chunks)) for name, chunks in parts.items()}
    return Splits(
        train=out["train"], val=out["val"], test=out["test"], unlearn_classes=spec.unlearn_classes
    )


def save_csv(dataset: Dataset, path) -> None:
    """Header f0..f{d-1},label; floats printed with 17 significant digits (bit-exact)."""
    d = dataset.features.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{i}" for i in range(d)] + ["label"]) + "\n")
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{label}\n")


def load_csv(path, n_classes: int) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if cols[-1] != "label" or any(c != f"f{i}" for i, c in enumerate(cols[:-1])):
            raise ValueError(f"{path}: malformed header {header!r}")
        d = len(cols) - 1
        features = []
        labels = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, found {len(parts)}")
            try:
                features.append([float(v) for v in parts[:-1]])
                label = int(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from None
            if label < 0 or label >= n_classes:
                raise ValueError(
                    f"{path}:{lineno}: label {label} outside [0, {n_classes})"
                )
            labels.append(label)
    return Dataset(
        features=np.asarray(features, dtype=np.float64).reshape(len(labels), d),
        labels=np.asarray(labels, dtype=np.int64),
        n_classes=n_classes,
        provenance={"source": str(path), "format": "csv"},
    )


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def load_idx(images_path, labels_path, n_classes: int, normalize: bool = True) -> Dataset:
    """Big-endian IDX image/label pair; pixel rows are flattened, /255 when normalize."""
    with open(images_path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError(f"{images_path}: truncated header at byte {len(head)}")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != _IDX_IMAGE_MAGIC:
            raise ValueError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_IMAGE_MAGIC:08x}"
            )
        body = fh.read(count * rows * cols)
        if len(body) != count * rows * cols:
            raise ValueError(
                f"{images_path}: expected {count * rows * cols} pixel bytes, found {len(body)}"
            )
    with open(labels_path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise ValueError(f"{labels_path}: truncated header at byte {len(head)}")
        magic, label_count = struct.unpack(">II", head)
        if magic != _IDX_LABEL_MAGIC:
            raise ValueError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_LABEL_MAGIC:08x}"
            )
        label_body = fh.read(label_count)
        if len(label_body) != label_count:
            raise ValueError(
                f"{labels_path}: expected {label_count} label bytes, found {len(label_body)}"
            )
    if label_count != count:
        raise ValueError(f"{images_path} holds {count} images but {labels_path} {label_count} labels")
    labels = np.frombuffer(label_body, dtype=np.uint8).astype(np.int64)
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        offset = 8 + int(bad[0])
        raise ValueError(
            f"{labels_path}: label {labels[bad[0]]} at byte offset {offset} outside [0, {n_classes})"
        )
    pixels = np.frombuffer(body, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)
    if normalize:
        pixels = pixels / 255.0
    return Dataset(
        features=pixels,
        labels=labels,
        n_classes=n_classes,
        provenance={
            "source": str(images_path),
            "labels_source": str(labels_path),
            "format": "idx",
            "image_shape": [1, int(rows), int(cols)],
            "normalized": bool(normalize),
        },
    )


def save_idx(dataset: Dataset, images_path, labels_path, image_shape) -> None:
    """Write features (assumed in [0, 1]) back to the byte-valued IDX pair."""
    c, h, w = (int(v) for v in image_shape)
    if c != 1:
        raise ValueError("IDX image files hold single-channel images")
    if dataset.features.shape[1] != h * w:
        raise ValueError(f"features have {dataset.features.shape[1]} columns, expected {h * w}")
    pixels = np.clip(np.rint(dataset.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IDX_IMAGE_MAGIC, len(dataset), h, w))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", _IDX_LABEL_MAGIC, len(dataset)))
        fh.write(dataset.labels.astype(np.uint8).tobytes())
