"""Small dense/conv classifiers on plain float64 arrays, with recordable activations.

Biases are folded into the weights: every layer input (dense feature vector or
conv patch column) is augmented with a trailing constant-1 coordinate and each
weight matrix carries the bias as its last column.  The per-layer input
matrices, including that constant row, are what subspace extraction consumes,
so one projector covers weights and biases at once.

Layout conventions, used everywhere in this module:

* batches arrive as (samples, features) rows, matching the dataset layout;
* inside a network samples live in columns, so logits come out (classes, samples);
* a dense layer's recorded input is (fan_in + 1, samples); in an `SGDStep`
  layer 0's is column-major like the `vstack` of x.T, and a call given
  layer 0's pre-activation has none;
* a conv layer's recorded input is the augmented patch matrix
  (in_channels * k * k + 1, samples * patches), columns sample-major then
  patch-position row-major, rows ordered (channel, kernel_row, kernel_col).
"""

from __future__ import annotations

import contextvars
import copy as _copy
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass, field, replace
from functools import partial

import numpy as np

from .artifacts import decode_array, encode_array, read_json, write_json
from .determinism import PortableRng, derive_seed
from .linalg import NumericError, as_matrix

CHECKPOINT_FORMAT_VERSION = 2

_ACTIVATIONS = ("relu", "identity")
# Each layer kind's size fields: each must be >= 1, and a checkpoint records exactly these.
_SIZES = {"dense": ("in_features", "out_features"), "conv": ("in_channels", "out_channels", "kernel_size", "stride")}


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
        if self.kind not in _SIZES:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in astuple(self)[2:]):
            raise ValueError(f"layer sizes must be integers, got {astuple(self)[2:]}")
        for name in _SIZES[self.kind]:
            if getattr(self, name) < 1:
                raise ValueError(f"{self.kind} layer needs {name} >= 1")

    def weight_shape(self) -> tuple[int, int]:
        if self.kind == "dense":
            return (self.out_features, self.in_features + 1)
        return (self.out_channels, self.in_channels * self.kernel_size * self.kernel_size + 1)

    def to_json(self) -> dict:
        return {"kind": self.kind, "activation": self.activation, **{k: getattr(self, k) for k in _SIZES[self.kind]}}


def _plan_shapes(specs, input_shape):
    """Per-layer (input shape, output shape), validating the chain.  Shapes: (d,) flat or (c, h, w) image."""
    if len(input_shape) not in (1, 3):
        raise ValueError(f"input_shape must be (features,) or (channels, h, w), got {input_shape}")
    shape = input_shape
    plan = []
    for i, spec in enumerate(specs):
        if spec.kind == "dense":
            flat = math.prod(shape)
            if flat != spec.in_features:
                raise ValueError(
                    f"layer {i}: dense expects {spec.in_features} input features, chain provides {flat}"
                )
            out = (spec.out_features,)
        else:
            if len(shape) != 3:
                raise ValueError(f"layer {i}: conv layer needs an image input, chain provides flat")
            c, h, w = shape
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
            out = (spec.out_channels, ho, wo)
        plan.append((shape, out))
        shape = out
    return plan


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
        if not isinstance(self.metadata, dict):
            raise TypeError(f"metadata must be a dict, got {type(self.metadata).__name__}")
        if not self.specs:
            raise ValueError("network needs at least one layer")
        last = self.specs[-1]
        if last.kind != "dense" or last.activation != "identity":
            raise ValueError("final layer must be dense with identity activation (the logit head)")
        self._plan = _plan_shapes(self.specs, self.input_shape)
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
        return replace(self, weights=[w.copy() for w in self.weights], metadata=_copy.deepcopy(self.metadata))


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
    `delta0` is set only by an `SGDStep` call given layer 0's
    pre-activation: that layer's output delta, whose gradient
    `per_layer[0]` is then None.
    """

    per_layer: list
    logits: np.ndarray
    delta0: np.ndarray | None = None


def extract_patches(feature_map, kernel_size: int, stride: int = 1) -> np.ndarray:
    """Unfold a batch of (n, c, h, w) maps into (c*k*k, n*patches) patch columns, without augmentation.

    Columns are sample-major.  A 1x1 kernel at stride 1 is exactly a
    pixel-wise rearrangement of the input.
    """
    maps = np.asarray(feature_map, dtype=np.float64)
    if maps.ndim != 4:
        raise ValueError(f"feature maps must be (n,c,h,w), got shape {maps.shape}")
    n, c, h, w = maps.shape
    k, st = int(kernel_size), int(stride)
    if k < 1 or st < 1:
        raise ValueError("kernel_size and stride must be >= 1")
    if k > h or k > w:
        raise ValueError(f"kernel {k} does not fit input {h}x{w}")
    # (n, c, ho, wo, k, k): a read-only view of maps, copied once by the reshape
    windows = np.lib.stride_tricks.sliding_window_view(maps, (k, k), axis=(2, 3))[:, :, ::st, ::st]
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, -1)


def _scatter_patches(cols: np.ndarray, shapes, n: int, kernel_size: int, stride: int) -> np.ndarray:
    """Adjoint of extract_patches onto n maps; `shapes` is the layer's `Network._plan` entry."""
    (c, h, w), (_, ho, wo) = shapes
    k, st = kernel_size, stride
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
    width = math.prod(net.input_shape)
    if x.shape[1] != width:
        raise ValueError(f"batch has {x.shape[1]} features, network expects {width}")
    return x


def _layers(net: Network, x: np.ndarray, buffers=None, out=None, stop=None, resume=None, inputs=None):
    """Run every layer on a checked batch x; return (logits, aug_inputs, preacts) in column form.

    Non-finite logits raise NumericError.  Without buffers each layer's
    augmented input and, for a conv layer, its pre-activation (None for a
    dense layer) are kept, fresh unless `inputs` (`_step_buffers`) holds
    them: dense layer 0 then reads inputs[0], which the caller fills.  With
    buffers, the two flat arrays of `_block_buffers`, hidden dense layer li
    writes into the front of buffers[li % 2] and both lists come back empty.
    The logit head writes into `out` (None: fresh).  A hidden dense layer
    writes W @ aug straight
    into the next dense layer's augmented input and applies its activation
    there in place, so its relu mask is that input's positive entries.

    `stop=p` runs only the layers before p and returns layer p's augmented
    input.  `resume=(p, preact)` starts at layer p, whose pre-activation
    `preact(out=dest)` writes where W_p @ input would (dest None: a fresh
    array), so x gives only the row count.
    """
    record = buffers is None
    aug_inputs = []
    preacts = []
    n = x.shape[0]
    first, preact = resume or (0, None)
    # flat columns (d, n) or image maps (n, c, h, w); a resumed pass sets it at layer `first`
    current = None if preact is not None else x.T if len(net.input_shape) == 1 else x.reshape((n,) + net.input_shape)
    aug = None if inputs is None else inputs[0]  # the next dense layer's augmented input, when already written
    for li in range(first, len(net.specs)):
        spec, w_mat = net.specs[li], net.weights[li]
        if preact is not None and li == first:
            inp, product = None, preact
        else:
            if spec.kind == "conv":
                inp = _augment(extract_patches(current, spec.kernel_size, spec.stride))
            else:  # fresh when not yet written: its layout (column-major) sets how BLAS rounds
                inp = aug if aug is not None else _augment(current.reshape(n, -1).T if current.ndim == 4 else current)
            if li == stop:
                return inp
            product = partial(np.matmul, w_mat, inp)
        if record:
            aug_inputs.append(inp)
        if spec.kind == "dense":
            if record:
                preacts.append(None)
            if li + 1 == len(net.specs):
                current = product(out=out)  # the identity logit head
            else:  # a dense layer only ever feeds a dense layer
                rows = w_mat.shape[0] + 1
                nxt = (inputs[li + 1] if inputs is not None
                       else np.empty((rows, n)) if buffers is None else buffers[li % 2][: rows * n].reshape(rows, n))
                nxt[-1] = 1.0
                product(out=nxt[:-1])
                if spec.activation == "relu":
                    np.maximum(nxt[:-1], 0.0, out=nxt[:-1])
                aug = nxt
        else:
            z_cols = product(out=None)
            if record:
                preacts.append(z_cols)
            o, ho, wo = net._plan[li][1]
            maps_out = z_cols.reshape(o, n, ho, wo).transpose(1, 0, 2, 3)
            current = _activate(maps_out, spec.activation)
    if not np.isfinite(current).all():
        raise NumericError("forward pass produced non-finite logits")
    return current, aug_inputs, preacts


# Rows per scoring block, a multiple of 8.  The block layout depends only on
# the row count, so logits come out the same bits whatever the worker count.
SCORE_BLOCK = 512
# Workers: one per core this process may run on.  The calling thread runs
# one share of `map_shares` itself, so the pool holds the others; it starts
# a thread only when a job is submitted, so importing nn starts none.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = ThreadPoolExecutor(max_workers=max(_WORKERS - 1, 1), thread_name_prefix="nn-share")
_in_share = contextvars.ContextVar("nn_in_share", default=False)


def _run_share(fn, share) -> list:
    _in_share.set(True)  # in the share's own context copy only
    return [fn(item) for item in share]


def map_shares(fn, items) -> list:
    """[fn(item) for item in items], the items dealt round-robin into one share per worker.

    The caller runs share 0 and `_pool` the rest, each in a copy of the
    caller's context (np.errstate carries over); a call from inside a share
    runs inline, so no share waits on the pool.  An exception reaches the
    caller once every share has finished.  Only coarse jobs gain: on a
    2-core VM an idle pool thread takes 130-400 us to wake.
    """
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers <= 1 or _in_share.get():
        return [fn(item) for item in items]
    jobs = [
        _pool.submit(contextvars.copy_context().run, _run_share, fn, items[w::workers]) for w in range(1, workers)
    ]
    try:
        first = contextvars.copy_context().run(_run_share, fn, items[::workers])
    finally:
        wait(jobs)
    out = [None] * len(items)
    for w, results in enumerate([first, *(job.result() for job in jobs)]):
        out[w::workers] = results
    return out


def _block_buffers(net: Network, n: int, resume_at=None) -> list:
    """The two flat `_layers` buffers for blocks of up to n rows, each sized for the layers that write it.

    With `resume_at=p` the caller resumes at layer p with them reversed: layer p's output overwrites its input.
    """
    sizes = [0, 0]
    for li, spec in enumerate(net.specs[:-1]):
        if spec.kind == "dense":
            slot = (li + (resume_at is not None and li >= resume_at)) % 2
            sizes[slot] = max(sizes[slot], (spec.out_features + 1) * n)
    return [np.empty(size) for size in sizes]


def _score_blocks(net: Network, x: np.ndarray, logits: np.ndarray, starts) -> None:
    """Write the logits of the row blocks beginning at `starts` into their columns of `logits`.

    Two ping-pong buffers, allocated once, serve every block.
    """
    buffers = _block_buffers(net, min(SCORE_BLOCK, x.shape[0]))
    for start in starts:
        stop = start + SCORE_BLOCK
        _layers(net, x[start:stop], buffers, out=logits[:, start:stop])


def forward(net: Network, batch, record: bool = False):
    """Logits (classes, samples) for a (samples, features) batch; optionally the trace.

    record=True runs the whole batch at once and returns every layer's
    augmented input as the ActivationTrace.  Without it the rows are scored
    in blocks of SCORE_BLOCK, dealt into one share per worker and run by
    `map_shares`; each share reuses two buffers for the hidden dense layers
    of its blocks and writes their logits straight into the result.  A
    batch of one block, or a forward inside another share, runs on the
    calling thread.  Each block's logits are checked for
    non-finite values.  Blocks depend only on the row count, so the logits
    are the same bits for any number of threads.  Against one product over
    every row, BLAS may round a block's last few columns differently (by
    about 1e-16).
    """
    x = _batch_matrix(net, batch)
    if record:
        logits, aug_inputs, _ = _layers(net, x)
        return logits, ActivationTrace(per_layer=aug_inputs)
    logits = np.empty((net.n_classes, x.shape[0]))
    starts = range(0, x.shape[0], SCORE_BLOCK)
    workers = min(_WORKERS, len(starts))
    map_shares(partial(_score_blocks, net, x, logits), [starts[w::workers] for w in range(workers)])
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


def _step_buffers(net: Network, n: int) -> dict:
    """What an `SGDStep` call writes for n rows: logits, softmax and, per layer, input and relu mask.

    An input is kept for each dense layer fed by a dense layer, or by the
    caller at layer 0, whose input is column-major like the `vstack` of
    x.T: that layout sets how BLAS rounds the gradient product.  Once its
    layer's gradient is taken, a later input also holds the delta that
    layer propagates back.  "cols" indexes the n columns.
    """
    specs, k = net.specs, net.n_classes
    bufs = {"inputs": [], "masks": [], "logits": np.empty((k, n)), "probs": np.empty((k, n)), "cols": np.arange(n)}
    for li, spec in enumerate(specs):
        dense = spec.kind == "dense"
        fed = dense and (li == 0 or specs[li - 1].kind == "dense")
        bufs["inputs"].append(np.ones((spec.weight_shape()[1], n), order="F" if li == 0 else "C") if fed else None)
        bufs["masks"].append(np.empty((spec.out_features, n), dtype=bool) if dense and spec.activation == "relu" else None)
    return bufs


class SGDStep:
    """Mean softmax cross-entropy and its exact per-layer weight gradients over rows of one checked set.

    The constructor checks features, labels and shapes once.  Each call
    takes integer row indices (None: every row, in order) and returns
    (loss, GradientSet) at the network's current weights, checking only
    logits and loss.  Calls reuse one set of `_step_buffers` per row count;
    the GradientSet's logits are one, valid until the next call, and the
    gradients are fresh.  Layer 0's input gradient is not computed.

    With `project`, a function project(li, rows) that returns `rows` with
    layer li's retained directions removed, each gradient comes back
    projected, g (I - B B^T).  A weight gradient is the product dz a^T of
    the layer's output delta and its augmented input, so
    (dz a^T)(I - B B^T) = dz ((I - B B^T) a)^T: projecting the input gives
    the same update.  The smaller factor is projected: the gradient itself
    when it has no more rows than the input has columns (samples, or
    samples times patches), which holds for a narrow head and for conv
    layers, else the input's transpose, as for a wide hidden dense layer
    against a small batch.  The loss and logits do not depend on `project`.

    A call given `preact0`, a function preact0(out=dest) that writes a
    dense layer 0's pre-activation for the batch where W_0 @ input would
    go, starts there (`_layers`' `resume`): it gathers no layer-0 input and
    takes no layer-0 gradient.  Its GradientSet holds None for that layer
    and, as `delta0`, the layer's output delta dz, unprojected, a view of
    the step's buffers valid until the next call.  Given the bits of
    W_0 @ input, every other number is a plain call's bits.  The unlearn
    fine-tune uses it to train its first layer in forget-row coordinates
    (see `unlearn._finetune`).
    """

    def __init__(self, net: Network, features, labels, project=None):
        x = _batch_matrix(net, features)
        y = np.asarray(labels, dtype=np.int64).reshape(-1)
        if y.size != x.shape[0]:
            raise ValueError(f"{x.shape[0]} samples but {y.size} labels")
        if y.size == 0:
            raise ValueError("empty batch")
        if (y < 0).any() or (y >= net.n_classes).any():
            raise ValueError(f"labels must lie in [0, {net.n_classes})")
        self.net, self.x, self.y, self.project, self._buffers = net, x, y, project, {}

    def _weight_grad(self, li: int, dz: np.ndarray, aug: np.ndarray) -> np.ndarray:
        """Layer li's weight gradient dz @ aug^T, projected through its smaller factor.

        `aug` is never projected in place: layer li - 1's relu mask reads it.
        """
        project = self.project
        if project is None:
            return dz @ aug.T
        if dz.shape[0] <= aug.shape[1]:
            return project(li, dz @ aug.T)
        return dz @ project(li, aug.T)

    def __call__(self, rows=None, preact0=None):
        net = self.net
        y = self.y if rows is None else self.y[rows]  # indexing checks the rows
        n = y.size
        bufs = self._buffers.get(n) or self._buffers.setdefault(n, _step_buffers(net, n))
        if preact0 is not None:
            x = bufs["cols"][:, None]  # gives `_layers` only the row count
        else:
            x = self.x if rows is None else self.x[rows]
            if bufs["inputs"][0] is not None:
                bufs["inputs"][0][:-1] = x.T
        logits, aug_inputs, preacts = _layers(
            net, x, out=bufs["logits"], inputs=bufs["inputs"], resume=None if preact0 is None else (0, preact0)
        )
        for li, mask in enumerate(bufs["masks"]):  # before the backward pass overwrites the inputs
            if mask is not None:
                np.greater(aug_inputs[li + 1][:-1], 0.0, out=mask)
        # One exp serves loss and softmax; delta = (softmax - onehot) / n is the gradient wrt logits, (K, n).
        delta = np.subtract(logits, logits.max(axis=0, keepdims=True), out=bufs["probs"])
        picked = delta[y, bufs["cols"]]
        sums = np.exp(delta, out=delta).sum(axis=0)
        loss = float(np.mean(np.log(sums) - picked))
        if not math.isfinite(loss):
            raise NumericError("loss is non-finite")
        delta /= sums
        delta[y, bufs["cols"]] -= 1.0
        delta /= n

        grads = [None] * len(net.specs)
        # Subgradient at exactly 0 is taken as 0 for relu.
        for li in range(len(net.specs) - 1, -1, -1):
            spec = net.specs[li]
            shape = net._plan[li][0]
            if spec.kind == "dense":
                dz = delta
                if spec.activation == "relu":  # never the head, so layer li + 1 is dense
                    dz *= bufs["masks"][li]
                if li == 0 and preact0 is not None:
                    return loss, GradientSet(per_layer=grads, logits=logits, delta0=dz)
                grads[li] = self._weight_grad(li, dz, aug_inputs[li])
                if li == 0:
                    break
                # The input's last read was above: its buffer, if any, takes the delta; drop the constant-1 row.
                back = np.matmul(net.weights[li].T, dz, out=bufs["inputs"][li])[:-1]
                if len(shape) == 3:
                    back = back.T.reshape((n,) + shape)
                delta = back
            else:
                # delta arrives as maps (n, O, ho, wo); apply activation mask there.
                dz_cols = delta.transpose(1, 0, 2, 3).reshape(spec.out_channels, -1)
                if spec.activation == "relu":
                    dz_cols *= preacts[li] > 0.0
                grads[li] = self._weight_grad(li, dz_cols, aug_inputs[li])
                if li == 0:
                    break
                back_cols = (net.weights[li].T @ dz_cols)[:-1]
                delta = _scatter_patches(back_cols, net._plan[li], n, spec.kernel_size, spec.stride)
        return loss, GradientSet(per_layer=grads, logits=logits)


def loss_and_grads(net: Network, batch, labels, project=None):
    """The loss and gradients of one batch: a one-shot `SGDStep`, so every array it returns is fresh."""
    return SGDStep(net, batch, labels, project)()


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


def check_sgd(lr: float, epochs: int, batch_size: int) -> None:
    """The SGD settings every run takes: lr finite and >= 0, epochs >= 0, batch_size >= 1."""
    if lr < 0.0 or not math.isfinite(lr):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")


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
        check_sgd(self.lr, self.epochs, self.batch_size)
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
    separate forward.  One `SGDStep` checks the train set once and reuses
    its buffers for every batch; each update goes into the step's fresh
    gradient array, which becomes the new weight.
    """
    out = net.copy()
    step = SGDStep(out, train_set.features, train_set.labels)
    x_val = as_matrix(val_set.features, "val features")
    y_val = np.asarray(val_set.labels, dtype=np.int64)
    n = step.y.size
    full_batch = schedule.batch_size >= n
    fused = full_batch and np.array_equal(step.x, x_val) and np.array_equal(step.y, y_val)
    rng = PortableRng(derive_seed(schedule.seed, "shuffle"))
    lr = schedule.lr
    best_acc, best_epoch, best_weights = -1.0, 0, out.weights
    for epoch in range(schedule.epochs + 1):
        # Score the weights after `epoch` epochs, then train epoch + 1.
        grads = None
        if fused and epoch < schedule.epochs:
            _, grads = step()
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
                _, grads = step(None if full_batch else order[start : start + schedule.batch_size])
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
    """Versioned JSON checkpoint, written atomically; weights as exact float64 bytes (`encode_array`)."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "input_shape": list(net.input_shape),
        "layers": [spec.to_json() for spec in net.specs],
        "weights": [encode_array(w) for w in net.weights],
        "seed": net.seed,
        "metadata": net.metadata,
    }
    write_json(doc, path)


def load_checkpoint(path) -> Network:
    """The network `save_checkpoint` wrote; a malformed field raises ValueError naming path."""
    doc = read_json(path, CHECKPOINT_FORMAT_VERSION)
    try:
        return Network(
            specs=tuple(LayerSpec(**d) for d in doc["layers"]),
            weights=[decode_array(w, f"{path} weights[{i}]") for i, w in enumerate(doc["weights"])],
            input_shape=tuple(doc["input_shape"]),
            seed=doc.get("seed"),
            metadata=doc.get("metadata", {}),
        )
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
