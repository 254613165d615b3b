"""Small dense/conv classifiers on plain float64 arrays, with recordable activations.

Biases are folded into the weights: every layer input (dense feature vector or
conv patch column) is augmented with a trailing constant-1 coordinate and each
weight matrix carries the bias as its last column.  The per-layer input
matrices, including that constant row, are what subspace extraction consumes,
so one projector covers weights and biases at once.

Layout conventions, used everywhere in this module:

* batches arrive as (samples, features) rows, matching the dataset layout;
* inside a network samples live in columns, so logits come out (classes, samples);
* a dense layer's recorded input is (fan_in + 1, samples), layer 0's
  column-major like the `vstack` of x.T (that layout sets how BLAS rounds
  its products) and a later one's row-major; `Workspace` keeps them;
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


def _batch_matrix(net: Network, batch) -> np.ndarray:
    """The batch as a finite (samples, features) matrix as wide as the network's input."""
    x = as_matrix(batch, "batch")
    width = math.prod(net.input_shape)
    if x.shape[1] != width:
        raise ValueError(f"batch has {x.shape[1]} features, network expects {width}")
    return x


class Workspace:
    """The one layer loop: runs a network on blocks of m <= n rows, in buffers it keeps.

    Each dense layer that reads the batch or a dense layer's output owns one
    flat buffer, allocated on first use and grown when a use needs more.
    Its front holds the layer's augmented input for the block: layer 0's
    column-major like the `vstack` of x.T, a later layer's row-major.  A
    hidden dense layer writes W @ aug straight into the next layer's input
    and applies its activation there in place, so its relu mask is that
    input's positive entries.  Conv layers, and a dense layer after one,
    take fresh arrays.  A pass that begins at layer p's pre-activation
    writes layer p's output into the buffer of the input it did not read,
    so a caller that keeps that input's products needs no second hidden
    buffer.

    After a pass, `inputs[li]` is the augmented input layer li read and
    `preacts[li]` its pre-activation if it is a conv layer; each is None
    otherwise, and a buffer view is valid until the next pass.
    """

    def __init__(self, net: Network, n: int):
        self.net, self.n, self._flat = net, n, [None] * len(net.specs)
        self.inputs, self.preacts = [], []

    def _front(self, li: int, rows: int, m: int) -> np.ndarray:
        """The first rows * m entries of layer li's buffer, which holds rows * n."""
        flat = self._flat[li]
        if flat is None or flat.size < rows * self.n:
            flat = self._flat[li] = np.empty(rows * self.n)
        return flat[: rows * m]

    def forward(self, x: np.ndarray, out=None, start=0, stop=None, preact=None) -> np.ndarray:
        """The logits (classes, m) of a checked (m, features) block x, written into `out` (None: fresh).

        Non-finite logits raise NumericError.  `stop=p` runs only the layers
        before p and returns layer p's augmented input.  `preact`, a
        function preact(out=dest) that writes layer `start`'s pre-activation
        where W @ input would go (dest None: a fresh array), begins the pass
        there, so x gives only the row count; without it `start` is 0.
        """
        net = self.net
        m = x.shape[0]
        self.inputs, self.preacts = [None] * len(net.specs), [None] * len(net.specs)
        current = None if preact is not None else x.reshape((m,) + net.input_shape)  # flat rows or image maps
        aug = None  # the next dense layer's augmented input, once a dense layer wrote it
        for li in range(start, len(net.specs)):
            spec, w_mat = net.specs[li], net.weights[li]
            if preact is not None and li == start:
                inp, product = None, preact
            else:
                if spec.kind == "conv":
                    inp = _augment(extract_patches(current, spec.kernel_size, spec.stride))
                elif li == 0:  # its layout sets how BLAS rounds
                    inp = self._front(0, w_mat.shape[1], m).reshape(m, -1).T
                    inp[:-1], inp[-1] = x.T, 1.0
                else:
                    inp = aug if aug is not None else _augment(current.reshape(m, -1).T)
                self.inputs[li] = inp
                if li == stop:
                    return inp
                product = partial(np.matmul, w_mat, inp)
            if spec.kind == "dense":
                if li + 1 == len(net.specs):
                    current = product(out=out)  # the identity logit head
                else:  # a dense layer only ever feeds a dense layer
                    aug = self._front(li + (inp is not None), w_mat.shape[0] + 1, m).reshape(-1, m)
                    aug[-1] = 1.0
                    product(out=aug[:-1])
                    if spec.activation == "relu":
                        np.maximum(aug[:-1], 0.0, out=aug[:-1])
            else:
                z_cols = self.preacts[li] = product(out=None)
                maps = z_cols.reshape(-1, m, *net._plan[li][1][1:]).transpose(1, 0, 2, 3)
                current = np.maximum(maps, 0.0) if spec.activation == "relu" else maps
        if not np.isfinite(current).all():
            raise NumericError("forward pass produced non-finite logits")
        return current


# Rows per scoring block, a multiple of 8.  The block layout depends only on
# the row count, so logits come out the same bits whatever the worker count.
SCORE_BLOCK = 512
# Workers: one per core this process may run on.  The calling thread runs
# one share of `map_shares` itself, so the pool holds the others; it starts
# a thread only when a job is submitted, so importing nn starts none.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = ThreadPoolExecutor(max_workers=max(_WORKERS - 1, 1), thread_name_prefix="nn-share")
_in_share = contextvars.ContextVar("nn_in_share", default=False)
# Multiply-adds from which an `SGDStep` weight-gradient product goes to the
# pool: at the toy preset's 192 x 193 layer, pairing paid from 27 rows
# (1.00 M) and not at 25 (0.93 M); see `SGDStep`.
SHARE_MACS = 1_000_000


def _run_share(fn, share) -> list:
    _in_share.set(True)  # in the share's own context copy only
    return [fn(item) for item in share]


def map_shares(fn, items) -> list:
    """[fn(item) for item in items], the items dealt round-robin into one share per worker.

    The caller runs share 0 and `_pool` the rest, each in a copy of the
    caller's context (np.errstate carries over); a call from inside a share
    runs inline, so no share waits on the pool.  An exception reaches the
    caller once every share has finished.  On a 2-core VM a round trip
    through the pool took 9 us at the median and 15-31 us at p90 after
    0.5 ms idle, 27-30 us and 41-49 us after 2 ms; the finest jobs that
    gain are an `SGDStep`'s paired products, about 100 us each.
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


def start_share(fn):
    """fn() begun on `_pool` as a share, where `map_shares` would use the pool: its Future, else None.

    The job runs in a copy of the caller's context, so np.errstate carries
    over and a `map_shares` call inside it runs inline.  The caller ends it
    by stealing it back: a Future the pool has not started yet is cancelled
    and fn run on the calling thread, so a slow pool wake costs one submit,
    not a wait.
    """
    if _WORKERS <= 1 or _in_share.get():
        return None
    ctx = contextvars.copy_context()
    ctx.run(_in_share.set, True)  # in the job's own context copy only
    return _pool.submit(ctx.run, fn)


def _score_blocks(net: Network, x: np.ndarray, logits: np.ndarray, starts) -> None:
    """Write the logits of the row blocks beginning at `starts` into their columns of `logits`, in one workspace."""
    ws = Workspace(net, min(SCORE_BLOCK, x.shape[0]))
    for start in starts:
        stop = start + SCORE_BLOCK
        ws.forward(x[start:stop], out=logits[:, start:stop])


def forward(net: Network, batch, record: bool = False):
    """Logits (classes, samples) for a (samples, features) batch; optionally the trace.

    record=True runs the whole batch at once in one `Workspace` and returns
    its inputs as the ActivationTrace.  Without it the rows are scored in
    blocks of SCORE_BLOCK, dealt into one share per worker and run by
    `map_shares`; each share runs its blocks in one workspace and writes
    their logits straight into the result.  A batch of one block, or a
    forward inside another share, runs on the calling thread.  Each block's
    logits are checked for non-finite values.  Blocks depend only on the
    row count, so the logits are the same bits for any number of threads.
    Against one product over every row, BLAS may round a block's last few
    columns differently (by about 1e-16).
    """
    x = _batch_matrix(net, batch)
    if record:
        ws = Workspace(net, x.shape[0])
        return ws.forward(x), ActivationTrace(per_layer=ws.inputs)
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


class SGDStep:
    """Mean softmax cross-entropy and its exact per-layer weight gradients over rows of one checked set.

    The constructor checks features, labels and shapes once.  Each call
    takes integer row indices (None: every row, in order) and returns
    (loss, GradientSet) at the network's current weights, checking only
    logits and loss.  Per row count it keeps one `Workspace`, the relu
    masks, the logits and the softmax; the GradientSet's logits are that
    buffer, valid until the next call, and the gradients are fresh.  The
    backward pass writes each layer's input delta into the workspace buffer
    of that layer's input, once the gradient has read it.  Layer 0's input
    gradient is not computed.

    A layer above layer 0 whose weight-gradient product takes at least
    `SHARE_MACS` multiply-adds sends that product to the pool
    (`start_share`), while the calling thread writes the layer's input
    delta W^T dz into a spare buffer, kept per row count, and goes on down
    the lower layers.  The call joins every job before it returns or
    raises, and steals back each one the pool has not started: it is
    cancelled and run on the caller.  A product runs as one whole BLAS
    call, the same on either thread, so every bit is the same for any
    worker count.  No product is split: with this OpenBLAS, halving a
    192 x 193 by 193 x n product by rows changed bits at 14 values of n in
    27-52, and by columns at 23 in 18-53 (n = 16-64 tried).  At the
    toy preset's widths (2 cores, one BLAS thread), steps of 200, 100, 40
    and 27 rows took 0.76x, 0.80x, 0.85x and 0.89x the serial time, 25
    and 22 rows 1.00x and 1.06x; with a pool that took 400 us to start a
    job, a 200-row step took 1.02x.  Unlearn steps of batch 25 and the
    4-row head stay on the caller.

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
    go, begins its workspace pass there: it gathers no layer-0 input and
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
        if n not in self._buffers:
            masks = [np.empty((s.out_features, n), dtype=bool) if s.kind == "dense" and s.activation == "relu"
                     else None for s in net.specs]
            k = net.n_classes
            self._buffers[n] = Workspace(net, n), masks, np.empty((k, n)), np.empty((k, n)), np.arange(n), {}
        ws, masks, logits, probs, cols, spares = self._buffers[n]
        x = cols[:, None] if preact0 is not None else self.x if rows is None else self.x[rows]
        ws.forward(x, out=logits, preact=preact0)
        for li, mask in enumerate(masks):  # before the backward pass overwrites the inputs
            if mask is not None:
                np.greater(ws.inputs[li + 1][:-1], 0.0, out=mask)
        # One exp serves loss and softmax; delta = (softmax - onehot) / n is the gradient wrt logits, (K, n).
        delta = np.subtract(logits, logits.max(axis=0, keepdims=True), out=probs)
        picked = delta[y, cols]
        sums = np.exp(delta, out=delta).sum(axis=0)
        loss = float(np.mean(np.log(sums) - picked))
        if not math.isfinite(loss):
            raise NumericError("loss is non-finite")
        delta /= sums
        delta[y, cols] -= 1.0
        delta /= n

        grads, delta0, jobs = [None] * len(net.specs), None, []  # jobs: (layer, its gradient, its Future)
        try:
            # Subgradient at exactly 0 is taken as 0 for relu.
            for li in range(len(net.specs) - 1, -1, -1):
                spec, inp = net.specs[li], ws.inputs[li]
                if spec.kind == "dense":
                    dz = delta
                    if spec.activation == "relu":  # never the head, so layer li + 1 is dense
                        dz *= masks[li]
                    if li == 0 and preact0 is not None:
                        delta0 = dz
                        break
                else:  # delta arrives as maps (n, O, ho, wo); apply the activation mask to its columns
                    dz = delta.transpose(1, 0, 2, 3).reshape(spec.out_channels, -1)
                    if spec.activation == "relu":
                        dz *= ws.preacts[li] > 0.0
                grad = partial(self._weight_grad, li, dz, inp)
                if li == 0:
                    grads[li] = grad()
                    break
                fed = spec.kind == "dense" and net.specs[li - 1].kind == "dense"  # inp is a workspace buffer
                job = start_share(grad) if dz.shape[0] * dz.shape[1] * inp.shape[0] >= SHARE_MACS else None
                if job is None:
                    grads[li], out = grad(), inp  # that was the input's last read: its buffer takes the delta
                else:  # the job reads inp until it is joined: the delta goes to the layer's spare buffer
                    jobs.append((li, grad, job))
                    if fed and li not in spares:
                        spares[li] = np.empty(inp.shape)
                    out = spares.get(li)
                back = np.matmul(net.weights[li].T, dz, out=out if fed else None)[:-1]  # drop the constant row
                shape = net._plan[li][0]
                if spec.kind == "conv":
                    delta = _scatter_patches(back, net._plan[li], n, spec.kernel_size, spec.stride)
                else:
                    delta = back.T.reshape((n,) + shape) if len(shape) == 3 else back
            for li, grad, job in jobs:  # a job the pool has not started is run here instead
                grads[li] = grad() if job.cancel() else job.result()
        finally:  # no job outlives the call, whatever raised; a cancelled one never starts
            if jobs:
                wait([job for _, _, job in jobs if not job.cancel()])
        return loss, GradientSet(per_layer=grads, logits=logits, delta0=delta0)


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
    gradient array, which becomes the new weight.  A full-batch step at
    the toy preset's widths pairs its 192 x 193 layer's weight gradient
    with the back-propagation on two threads (see `SGDStep`), with the same
    bits as on one: on the full preset, one process per step on a 2-core
    VM, `train` took 1.71-1.82 s against 2.17-2.24 s serial, and `retrain`
    1.46-1.59 s against 1.80-1.91 s.
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
