"""Datasets: seeded Gaussian-mixture generation, stratified splits, CSV round-trips.

Generation is fully portable: all randomness comes from
`determinism.PortableRng` (Philox words, Box-Muller normals) and samples are
drawn class 0 .. K-1, each class as an (n_per_class, dim) row-major block of
standard normals mapped through the Cholesky factor of its covariance.

The CSV codec is the dataset artifact.  `save_csv` prints each float with 17
significant digits, which round-trips bit-exactly, and writes the file
atomically.  `load_csv` checks the header, then parses every row in one
`np.loadtxt` call into a structured (d float64 features, int64 label) array;
numpy's parser rounds as `float()` does, so the features read back are the
floats written.  When numpy rejects a file, or a label leaves [0, K), the
file is scanned again line by line with `float` and `int`, so the error
names the first bad line whatever numpy reports.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .artifacts import HashingReader, write_atomic
from .determinism import PortableRng
from .linalg import as_matrix


@dataclass
class Dataset:
    """Feature rows and integer labels.  Nothing reads `provenance`; dataset.meta.json records the generator inputs."""

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
            labels=self.labels[idx],
            n_classes=self.n_classes,
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
    return Dataset(features=features, labels=labels, n_classes=k)


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
        if not all(math.isfinite(f) and f >= 0.0 for f in fracs):
            raise ValueError(f"split fractions must be finite and non-negative, got {list(fracs)}")
        if abs(sum(fracs) - 1.0) > 1.0e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")
        object.__setattr__(self, "unlearn_classes", tuple(sorted(int(c) for c in self.unlearn_classes)))


@dataclass
class Splits:
    """Train/val/test partition plus the unlearn/remaining views of each part, each filtered once, when first read."""

    train: Dataset
    val: Dataset
    test: Dataset
    unlearn_classes: tuple

    @cached_property
    def d_u(self) -> Dataset:
        """Training samples of the unlearn classes: the forget set."""
        return self.train.class_filter(self.unlearn_classes, keep=True)

    @cached_property
    def d_r(self) -> Dataset:
        """Training samples of the remaining classes."""
        return self.train.class_filter(self.unlearn_classes, keep=False)

    @cached_property
    def val_remaining(self) -> Dataset:
        return self.val.class_filter(self.unlearn_classes, keep=False)

    @cached_property
    def test_remaining(self) -> Dataset:
        return self.test.class_filter(self.unlearn_classes, keep=False)

    @cached_property
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


def save_csv(dataset: Dataset, path) -> str:
    """Header f0..f{d-1},label; floats printed with 17 significant digits (bit-exact).

    Written atomically by `write_atomic`, in blocks of rows; returns the
    sha256 prefix of the file.
    """
    d = dataset.features.shape[1]
    row_format = "%.17g," * d + "%d\n"

    def blocks():
        yield ",".join([f"f{i}" for i in range(d)] + ["label"]) + "\n"
        step = 1024  # rows per block, so their Python lists stay small
        for i in range(0, len(dataset), step):
            rows = zip(dataset.features[i : i + step].tolist(), dataset.labels[i : i + step].tolist())
            yield "".join([row_format % (*row, label) for row, label in rows])

    return write_atomic(path, blocks())


def load_csv(path, n_classes: int, data_hash: str | None = None) -> Dataset:
    """Read a save_csv file (blank lines skipped); errors name the first bad line as `path:line`.

    With data_hash, the bytes parsed must hash to it (`artifacts.file_hash`): one read serves both.
    """
    with io.TextIOWrapper(HashingReader(path), encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if cols[-1] != "label" or any(c != f"f{i}" for i, c in enumerate(cols[:-1])):
            raise ValueError(f"{path}: malformed header {header!r}")
        d = len(cols) - 1
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(
                    fh, dtype=[("f", np.float64, (d,)), ("label", np.int64)],
                    delimiter=",", comments=None, ndmin=1,
                )
        except ValueError as exc:
            _raise_first_bad_line(path, d, n_classes)
            raise ValueError(f"{path}: unparseable value ({exc})") from None
        if data_hash is not None and fh.buffer.hash() != data_hash:
            raise ValueError(f"{path} hash {fh.buffer.hash()} does not match the recorded {data_hash}")
    labels = np.ascontiguousarray(rows["label"])
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        _raise_first_bad_line(path, d, n_classes)
    return Dataset(features=np.ascontiguousarray(rows["f"]), labels=labels, n_classes=n_classes)


def _raise_first_bad_line(path, d: int, n_classes: int) -> None:
    """Raise the `path:line` error of the first row that is not d floats and a label in [0, n_classes)."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, found {len(parts)}")
            try:
                for v in parts[:-1]:
                    float(v)
                label = int(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from None
            if label < 0 or label >= n_classes:
                raise ValueError(f"{path}:{lineno}: label {label} outside [0, {n_classes})")
