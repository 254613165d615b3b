"""Small dense/conv classifiers on plain float64 arrays, with recordable activations.

Biases are folded into the weights: every layer input (dense feature vector or
conv patch column) is augmented with a trailing constant-1 coordinate and each
weight matrix carries the bias as its last column.  The per-layer input
matrices, including that constant row, are what subspace extraction consumes,
so one projector covers weights and biases at once.

Layout conventions, used everywhere in this module:

* batches arrive as (samples, features) rows, matching the dataset layout;
* inside a network samples live in columns, so logits come out (classes, samples);
* a dense layer's recorded input is (fan_in + 1, samples);
* a conv layer's recorded input is the augmented patch matrix
  (in_channels * k * k + 1, samples * patches), columns sample-major then
  patch-position row-major, rows ordered (channel, kernel_row, kernel_col).
"""

from __future__ import annotations

import copy as _copy
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field

import numpy as np

from .determinism import PortableRng, derive_seed
from .linalg import NumericError, as_matrix

CHECKPOINT_FORMAT_VERSION = 1

_ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    """One layer: kind "dense" (in_features -> out_features) or "conv"."""

    kind: str
    activation: str = "relu"
    in_features: int = 0
    out_features: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.kind not in ("dense", "conv"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in astuple(self)[2:]):
            raise ValueError(f"layer sizes must be integers, got {astuple(self)[2:]}")
        if self.kind == "dense":
            if self.in_features < 1 or self.out_features < 1:
                raise ValueError("dense layer needs positive in_features/out_features")
        else:
            if self.in_channels < 1 or self.out_channels < 1:
                raise ValueError("conv layer needs positive channel counts")
            if self.kernel_size < 1 or self.stride < 1:
                raise ValueError("conv layer needs kernel_size >= 1 and stride >= 1")

    def weight_shape(self) -> tuple[int, int]:
        if self.kind == "dense":
            return (self.out_features, self.in_features + 1)
        return (self.out_channels, self.in_channels * self.kernel_size * self.kernel_size + 1)

    def to_json(self) -> dict:
        d = {"kind": self.kind, "activation": self.activation}
        if self.kind == "dense":
            d.update(in_features=self.in_features, out_features=self.out_features)
        else:
            d.update(
                in_channels=self.in_channels,
                out_channels=self.out_channels,
                kernel_size=self.kernel_size,
                stride=self.stride,
            )
        return d

    @staticmethod
    def from_json(d: dict) -> "LayerSpec":
        return LayerSpec(**d)


def _plan_shapes(specs, input_shape):
    """Per-layer input form, validating the chain.  Forms: ("flat", d) or ("image", (c, h, w))."""
    if len(input_shape) == 1:
        form = ("flat", int(input_shape[0]))
    elif len(input_shape) == 3:
        form = ("image", tuple(int(d) for d in input_shape))
    else:
        raise ValueError(f"input_shape must be (features,) or (channels, h, w), got {input_shape}")
    plan = []
    for i, spec in enumerate(specs):
        if spec.kind == "dense":
            flat = form[1] if form[0] == "flat" else int(np.prod(form[1]))
            if flat != spec.in_features:
                raise ValueError(
                    f"layer {i}: dense expects {spec.in_features} input features, chain provides {flat}"
                )
            plan.append(("dense", form))
            form = ("flat", spec.out_features)
        else:
            if form[0] != "image":
                raise ValueError(f"layer {i}: conv layer needs an image input, chain provides flat")
            c, h, w = form[1]
            if c != spec.in_channels:
                raise ValueError(
                    f"layer {i}: conv expects {spec.in_channels} channels, chain provides {c}"
                )
            if spec.kernel_size > h or spec.kernel_size > w:
                raise ValueError(
                    f"layer {i}: kernel {spec.kernel_size} does not fit input {h}x{w}"
                )
            ho = (h - spec.kernel_size) // spec.stride + 1
            wo = (w - spec.kernel_size) // spec.stride + 1
            plan.append(("conv", form))
            form = ("image", (spec.out_channels, ho, wo))
    return plan, form


@dataclass
class Network:
    """Layer specs plus one weight matrix per layer."""

    specs: tuple
    weights: list
    input_shape: tuple
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.specs = tuple(self.specs)
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if not self.specs:
            raise ValueError("network needs at least one layer")
        last = self.specs[-1]
        if last.kind != "dense" or last.activation != "identity":
            raise ValueError("final layer must be dense with identity activation (the logit head)")
        plan, out = _plan_shapes(self.specs, self.input_shape)
        self._plan = plan
        if len(self.weights) != len(self.specs):
            raise ValueError("one weight matrix per layer required")
        self.weights = [as_matrix(w, f"layer {i} weights") for i, w in enumerate(self.weights)]
        for i, (spec, w) in enumerate(zip(self.specs, self.weights)):
            if w.shape != spec.weight_shape():
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} does not match spec {spec.weight_shape()}"
                )
        self.n_classes = self.specs[-1].out_features

    def copy(self) -> "Network":
        return Network(
            specs=self.specs,
            weights=[w.copy() for w in self.weights],
            input_shape=self.input_shape,
            seed=self.seed,
            metadata=_copy.deepcopy(self.metadata),
        )


def init_network(specs, input_shape, seed: int) -> Network:
    """Fresh network with uniform(+-sqrt(6/(fan_in+fan_out))) weights, bias column included.

    fan_in counts the augmentation column, i.e. the limits use the actual
    weight matrix dimensions.  Draw order is layer by layer, row-major, from
    one PortableRng stream derived as (seed, "init").
    """
    specs = tuple(specs)
    rng = PortableRng(derive_seed(seed, "init"))
    weights = []
    for spec in specs:
        rows, cols = spec.weight_shape()
        limit = math.sqrt(6.0 / (rows + cols))
        u = rng.uniform(rows * cols).reshape(rows, cols)
        weights.append((2.0 * u - 1.0) * limit)
    return Network(specs=specs, weights=weights, input_shape=tuple(input_shape), seed=int(seed))


@dataclass
class ActivationTrace:
    """Per-layer recorded input features (augmented), one entry per layer."""

    per_layer: list


@dataclass
class GradientSet:
    """Per-layer loss gradients, shapes matching Network.weights, and the logits they came from.

    logits (classes, samples) are those of the forward pass inside the
    gradient computation, i.e. of the weights before any step is taken.
    """

    per_layer: list
    logits: np.ndarray


def extract_patches(feature_map, kernel_size: int, stride: int = 1) -> np.ndarray:
    """Unfold an image (or batch) into patch columns, without augmentation.

    (c, h, w) input gives (c*k*k, patches); (n, c, h, w) gives (c*k*k, n*patches)
    with columns sample-major.  A 1x1 kernel at stride 1 is exactly a pixel-wise
    rearrangement of the input.
    """
    maps = np.asarray(feature_map, dtype=np.float64)
    single = maps.ndim == 3
    if single:
        maps = maps[np.newaxis]
    if maps.ndim != 4:
        raise ValueError(f"feature map must be (c,h,w) or (n,c,h,w), got shape {maps.shape}")
    n, c, h, w = maps.shape
    k, st = int(kernel_size), int(stride)
    if k < 1 or st < 1:
        raise ValueError("kernel_size and stride must be >= 1")
    if k > h or k > w:
        raise ValueError(f"kernel {k} does not fit input {h}x{w}")
    ho = (h - k) // st + 1
    wo = (w - k) // st + 1
    cols = np.empty((c, k, k, n, ho, wo))
    for kh in range(k):
        for kw in range(k):
            cols[:, kh, kw] = maps[:, :, kh : kh + st * ho : st, kw : kw + st * wo : st].transpose(
                1, 0, 2, 3
            )
    return cols.reshape(c * k * k, n * ho * wo)


def _scatter_patches(cols: np.ndarray, image_shape, n: int, kernel_size: int, stride: int) -> np.ndarray:
    """Adjoint of extract_patches: scatter-add patch columns back onto maps."""
    c, h, w = image_shape
    k, st = kernel_size, stride
    ho = (h - k) // st + 1
    wo = (w - k) // st + 1
    blocks = cols.reshape(c, k, k, n, ho, wo)
    out = np.zeros((n, c, h, w))
    for kh in range(k):
        for kw in range(k):
            out[:, :, kh : kh + st * ho : st, kw : kw + st * wo : st] += blocks[:, kh, kw].transpose(
                1, 0, 2, 3
            )
    return out


def _augment(cols: np.ndarray) -> np.ndarray:
    return np.vstack([cols, np.ones((1, cols.shape[1]))])


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    return np.maximum(z, 0.0) if activation == "relu" else z


def _batch_matrix(net: Network, batch) -> np.ndarray:
    """The batch as a finite (samples, features) matrix as wide as the network's input."""
    x = as_matrix(batch, "batch")
    if len(net.input_shape) == 1:
        if x.shape[1] != net.input_shape[0]:
            raise ValueError(
                f"batch has {x.shape[1]} features, network expects {net.input_shape[0]}"
            )
    else:
        c, h, w = net.input_shape
        if x.shape[1] != c * h * w:
            raise ValueError(
                f"batch has {x.shape[1]} features, network expects {c}x{h}x{w}={c * h * w}"
            )
    return x


def _check_logits(logits: np.ndarray) -> None:
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits")


def _layers(net: Network, x: np.ndarray, buffers=None, out=None):
    """Run every layer on a checked batch x; return (logits, aug_inputs, preacts) in column form.

    Without buffers every array is fresh, and each layer's augmented input
    and, for a conv layer, its pre-activation (None for a dense layer) are
    kept.  With buffers, two flat arrays of at least (widest hidden dense
    layer + 1) x samples entries, hidden dense layer li writes into the
    front of buffers[li % 2], the logit head writes into `out`, and both
    lists come back empty.  A hidden dense layer writes W @ aug straight
    into the next dense layer's augmented input and applies its activation
    there in place, so its relu mask is that input's positive entries.
    """
    record = buffers is None
    aug_inputs = []
    preacts = []
    n = x.shape[0]
    # flat columns (d, n) or image maps (n, c, h, w)
    current = x.T if len(net.input_shape) == 1 else x.reshape((n,) + net.input_shape)
    aug = None  # the next dense layer's augmented input, when already written
    for li, spec in enumerate(net.specs):
        w_mat = net.weights[li]
        if spec.kind == "dense":
            if aug is None:  # fresh in both modes: its layout (column-major) sets how BLAS rounds
                aug = _augment(current.reshape(n, -1).T if current.ndim == 4 else current)
            if record:
                aug_inputs.append(aug)
                preacts.append(None)
            if li + 1 == len(net.specs):
                current = np.matmul(w_mat, aug, out=out)  # the identity logit head
            else:  # a dense layer only ever feeds a dense layer
                rows = w_mat.shape[0] + 1
                nxt = np.empty((rows, n)) if buffers is None else buffers[li % 2][: rows * n].reshape(rows, n)
                nxt[-1] = 1.0
                np.matmul(w_mat, aug, out=nxt[:-1])
                if spec.activation == "relu":
                    np.maximum(nxt[:-1], 0.0, out=nxt[:-1])
                aug = nxt
        else:
            patches = _augment(extract_patches(current, spec.kernel_size, spec.stride))
            z_cols = w_mat @ patches
            if record:
                aug_inputs.append(patches)
                preacts.append(z_cols)
            c, h, w = net._plan[li][1][1]
            ho = (h - spec.kernel_size) // spec.stride + 1
            wo = (w - spec.kernel_size) // spec.stride + 1
            maps_out = z_cols.reshape(spec.out_channels, n, ho, wo).transpose(1, 0, 2, 3)
            current = _activate(maps_out, spec.activation)
    return current, aug_inputs, preacts


def _forward_pass(net: Network, batch):
    """Run the network on the whole batch at once, keeping every layer's inputs (see _layers)."""
    logits, aug_inputs, preacts = _layers(net, _batch_matrix(net, batch))
    _check_logits(logits)
    return logits, aug_inputs, preacts


# Rows per scoring block, a multiple of 8.  The block layout depends only on
# the row count, so logits come out the same bits whatever the worker count.
SCORE_BLOCK = 512
# Scoring threads: one per core this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None
_pool_lock = threading.Lock()


def _score_pool() -> ThreadPoolExecutor:
    """The scoring thread pool, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="nn-score")
        return _pool


def _score_blocks(net: Network, x: np.ndarray, logits: np.ndarray, starts) -> None:
    """Write the logits of the row blocks beginning at `starts` into their columns of `logits`.

    Two ping-pong buffers, allocated once, serve every block.
    """
    widest = max((spec.out_features for spec in net.specs[:-1] if spec.kind == "dense"), default=0) + 1
    size = widest * min(SCORE_BLOCK, x.shape[0])
    buffers = (np.empty(size), np.empty(size))
    for start in starts:
        stop = start + SCORE_BLOCK
        _layers(net, x[start:stop], buffers, out=logits[:, start:stop])


def forward(net: Network, batch, record: bool = False):
    """Logits (classes, samples) for a (samples, features) batch; optionally the trace.

    record=True runs the whole batch at once and returns every layer's
    augmented input as the ActivationTrace.  Without it the rows are scored
    in blocks of SCORE_BLOCK, spread over one thread per core in the
    process's CPU affinity set; each thread reuses two buffers for the
    hidden dense layers of its blocks and writes their logits straight into
    the result.  A batch of one block or less stays on the calling thread.
    Blocks depend only on the row count, so the logits are the same bits
    for any number of threads.  Against one product over every row, BLAS
    may round a block's last few columns differently (by about 1e-16).
    """
    if record:
        logits, aug_inputs, _ = _forward_pass(net, batch)
        return logits, ActivationTrace(per_layer=aug_inputs)
    x = _batch_matrix(net, batch)
    logits = np.empty((net.n_classes, x.shape[0]))
    starts = range(0, x.shape[0], SCORE_BLOCK)
    workers = min(_WORKERS, len(starts))
    if workers <= 1:
        _score_blocks(net, x, logits, starts)
    else:
        pool = _score_pool()
        jobs = [pool.submit(_score_blocks, net, x, logits, starts[w::workers]) for w in range(workers)]
        for job in jobs:
            job.result()
    _check_logits(logits)
    return logits, None


def softmax(logits: np.ndarray) -> np.ndarray:
    """Column-wise stable softmax of a (classes, samples) matrix."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def cross_entropy(logits: np.ndarray, labels) -> float:
    """Mean negative log-likelihood of integer labels under column-wise softmax."""
    y = np.asarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=0, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=0))
    picked = shifted[y, np.arange(y.size)]
    return float(np.mean(log_z - picked))


def loss_and_grads(net: Network, batch, labels):
    """Mean softmax cross-entropy and its exact per-layer weight gradients.

    The GradientSet also carries the forward pass's logits.  Each delta is
    a fresh array, so relu masks are applied to it in place; layer 0's
    input gradient, which nothing reads, is not computed.
    """
    x = as_matrix(batch, "batch")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = x.shape[0]
    if y.size != n:
        raise ValueError(f"{n} samples but {y.size} labels")
    if n == 0:
        raise ValueError("empty batch")
    if (y < 0).any() or (y >= net.n_classes).any():
        raise ValueError(f"labels must lie in [0, {net.n_classes})")
    logits, aug_inputs, preacts = _forward_pass(net, x)
    loss = cross_entropy(logits, y)
    if not math.isfinite(loss):
        raise NumericError("loss is non-finite")
    probs = softmax(logits)
    onehot = np.zeros_like(probs)
    onehot[y, np.arange(n)] = 1.0
    delta = (probs - onehot) / n  # gradient wrt logits, (K, n)

    grads = [None] * len(net.specs)
    # Subgradient at exactly 0 is taken as 0 for relu.
    for li in range(len(net.specs) - 1, -1, -1):
        spec = net.specs[li]
        kind, form = net._plan[li]
        if spec.kind == "dense":
            dz = delta
            if spec.activation == "relu":  # never the head, so layer li + 1 is dense
                dz *= aug_inputs[li + 1][:-1] > 0.0
            grads[li] = dz @ aug_inputs[li].T
            if li == 0:
                break
            back = (net.weights[li].T @ dz)[:-1]  # drop the constant-1 row
            if form[0] == "image":
                back = back.T.reshape((n,) + form[1])
            delta = back
        else:
            c, h, w = form[1]
            k, st = spec.kernel_size, spec.stride
            ho = (h - k) // st + 1
            wo = (w - k) // st + 1
            # delta arrives as maps (n, O, ho, wo); apply activation mask there.
            dz_cols = delta.transpose(1, 0, 2, 3).reshape(spec.out_channels, n * ho * wo)
            if spec.activation == "relu":
                dz_cols *= preacts[li] > 0.0
            grads[li] = dz_cols @ aug_inputs[li].T
            if li == 0:
                break
            back_cols = (net.weights[li].T @ dz_cols)[:-1]
            delta = _scatter_patches(back_cols, (c, h, w), n, k, st)
    return loss, GradientSet(per_layer=grads, logits=logits)


def predict_proba(net: Network, batch) -> np.ndarray:
    """Softmax probabilities, (classes, samples)."""
    logits, _ = forward(net, batch)
    return softmax(logits)


def predict(net: Network, batch) -> np.ndarray:
    """Most probable class per sample; ties resolve to the lowest class index."""
    logits, _ = forward(net, batch)
    return np.argmax(logits, axis=0)


def accuracy(net: Network, features, labels) -> float:
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.size == 0:
        raise ValueError("cannot score an empty set")
    return float(np.mean(predict(net, features) == y))


def mean_loss(net: Network, features, labels) -> float:
    logits, _ = forward(net, features)
    return cross_entropy(logits, np.asarray(labels, dtype=np.int64))


@dataclass(frozen=True)
class TrainSchedule:
    """SGD hyperparameters.  milestones are 1-based epochs whose start multiplies lr by gamma."""

    lr: float
    epochs: int
    batch_size: int
    milestones: tuple = ()
    gamma: float = 0.2
    patience: int | None = 30
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "milestones", tuple(self.milestones))
        if self.lr < 0.0 or not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 or None")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if any(m < 1 for m in self.milestones):
            raise ValueError(f"milestones must be epochs >= 1, got {list(self.milestones)}")


def train(net: Network, train_set, val_set, schedule: TrainSchedule) -> Network:
    """Mini-batch SGD, returning the weights of the best validation-accuracy epoch.

    Epoch 0 is the input network.  Ties on validation accuracy keep the
    later epoch; training stops once `patience` epochs pass without a new
    best.  A batch that covers the train set takes its rows in order;
    smaller batches follow a seeded PortableRng permutation per epoch, so
    identical inputs train bit-identically.  When that full batch is also
    the validation set, each epoch's gradient forward gives the previous
    epoch's validation accuracy, and only the final weights are scored by a
    separate forward.  The SGD step is written into the gradient's buffer,
    which becomes the new weight list.
    """
    x_tr = as_matrix(train_set.features, "train features")
    y_tr = np.asarray(train_set.labels, dtype=np.int64)
    x_val = as_matrix(val_set.features, "val features")
    y_val = np.asarray(val_set.labels, dtype=np.int64)
    n = x_tr.shape[0]
    full_batch = schedule.batch_size >= n
    fused = full_batch and np.array_equal(x_tr, x_val) and np.array_equal(y_tr, y_val)
    out = net.copy()
    out.metadata = dict(out.metadata)
    rng = PortableRng(derive_seed(schedule.seed, "shuffle"))
    lr = schedule.lr
    best_acc, best_epoch, best_weights = -1.0, 0, out.weights
    for epoch in range(schedule.epochs + 1):
        # Score the weights after `epoch` epochs, then train epoch + 1.
        grads = None
        if fused and epoch < schedule.epochs:
            _, grads = loss_and_grads(out, x_tr, y_tr)
            val_acc = float(np.mean(np.argmax(grads.logits, axis=0) == y_val))
        else:
            val_acc = accuracy(out, x_val, y_val)
        if val_acc >= best_acc:
            best_acc, best_epoch, best_weights = val_acc, epoch, out.weights
        elif schedule.patience is not None and epoch - best_epoch >= schedule.patience:
            break
        if epoch == schedule.epochs:
            break
        if epoch + 1 in schedule.milestones:
            lr *= schedule.gamma
        order = None if full_batch else rng.permutation(n)
        for start in range(0, n, schedule.batch_size):
            if grads is None:
                idx = slice(None) if full_batch else order[start : start + schedule.batch_size]
                _, grads = loss_and_grads(out, x_tr[idx], y_tr[idx])
            # w - lr * g goes into g's fresh buffer; the list is rebound, so a
            # kept best list stays as it was.
            out.weights = [
                np.subtract(w, np.multiply(lr, g, out=g), out=g) for w, g in zip(out.weights, grads.per_layer)
            ]
            grads = None
    out.weights = best_weights
    out.metadata.update(
        epochs_run=epoch,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
        final_lr=lr,
        train_seed=schedule.seed,
    )
    return out


def save_checkpoint(net: Network, path) -> None:
    """Versioned JSON checkpoint; floats round-trip bit-exactly (shortest-repr decimals)."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "input_shape": list(net.input_shape),
        "layers": [spec.to_json() for spec in net.specs],
        "weights": [w.tolist() for w in net.weights],
        "seed": net.seed,
        "metadata": net.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format_version {version!r}, expected {CHECKPOINT_FORMAT_VERSION}"
        )
    specs = tuple(LayerSpec.from_json(d) for d in doc["layers"])
    weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
    return Network(
        specs=specs,
        weights=weights,
        input_shape=tuple(doc["input_shape"]),
        seed=doc.get("seed"),
        metadata=doc.get("metadata", {}),
    )
