"""Network forward/backward, training loop, and checkpoint round trips."""

import hashlib
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from conftest import (
    blob_splits,
    conv_net,
    dense_net,
    dense_specs,
    image_batch,
    toy_net,
    trained_dense_net,
)
from nullspace_unlearn import cli, data, evaluate, linalg, nn, subspace, unlearn
from nullspace_unlearn.config import load_config

# ---------------------------------------------------------------------------
# construction and initialization
# ---------------------------------------------------------------------------


def test_init_is_deterministic_and_bounded():
    a = dense_net(seed=7)
    b = dense_net(seed=7)
    c = dense_net(seed=8)
    for wa, wb in zip(a.weights, b.weights):
        npt.assert_array_equal(wa, wb)
    assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))
    for spec, w in zip(a.specs, a.weights):
        rows, cols = spec.weight_shape()
        limit = np.sqrt(6.0 / (rows + cols))
        assert np.abs(w).max() <= limit


def test_network_shape_validation():
    specs = dense_specs()
    with pytest.raises(ValueError, match="final layer"):
        nn.Network(
            specs=(nn.LayerSpec(kind="dense", activation="relu", in_features=4, out_features=3),),
            weights=[np.zeros((3, 5))],
            input_shape=(4,),
        )
    with pytest.raises(ValueError, match="weight shape"):
        nn.Network(specs=specs, weights=[np.zeros((8, 5)), np.zeros((3, 8))], input_shape=(4,))
    with pytest.raises(ValueError, match="input features"):
        nn.Network(specs=specs, weights=[np.zeros((8, 5)), np.zeros((3, 9))], input_shape=(6,))
    with pytest.raises(ValueError, match="image input"):
        nn.init_network(
            (
                nn.LayerSpec(kind="conv", activation="relu", in_channels=1, out_channels=2, kernel_size=2),
                nn.LayerSpec(kind="dense", activation="identity", in_features=18, out_features=3),
            ),
            input_shape=(16,),
            seed=0,
        )


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        nn.LayerSpec(kind="dense", activation="tanh", in_features=2, out_features=2)
    with pytest.raises(ValueError):
        nn.LayerSpec(kind="conv", activation="relu", in_channels=1, out_channels=2, kernel_size=0)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_forward_shapes_and_trace():
    net = dense_net(seed=1)
    x = np.random.default_rng(0).standard_normal((5, 4))
    logits, trace = nn.forward(net, x, record=True)
    assert logits.shape == (3, 5)
    assert len(trace.per_layer) == 2
    assert trace.per_layer[0].shape == (5, 5)  # 4 features + bias row, 5 samples
    assert trace.per_layer[1].shape == (9, 5)
    npt.assert_array_equal(trace.per_layer[0][-1], np.ones(5))
    npt.assert_array_equal(trace.per_layer[0][:-1], x.T)
    # Second layer's inputs are the first layer's relu outputs.
    assert (trace.per_layer[1][:-1] >= 0.0).all()


def test_forward_without_record_returns_none_trace():
    net = dense_net(seed=1)
    logits, trace = nn.forward(net, np.zeros((2, 4)))
    assert trace is None
    assert logits.shape == (3, 2)


def test_forward_logits_do_not_depend_on_recording():
    # Dense layers write their activation straight into the next layer's
    # augmented input; recording or not, the bits must come out the same.
    rng = np.random.default_rng(2)
    identity_hidden = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=4, out_features=8),
        nn.LayerSpec(kind="dense", activation="identity", in_features=8, out_features=6),
        nn.LayerSpec(kind="dense", activation="identity", in_features=6, out_features=3),
    )
    cases = [
        (dense_net(seed=1), rng.standard_normal((7, 4))),
        (nn.init_network(identity_hidden, input_shape=(4,), seed=2), rng.standard_normal((7, 4))),
        (conv_net(seed=3), image_batch(seed=4, n=7)),
    ]
    for net, x in cases:
        plain, _ = nn.forward(net, x)
        recorded, trace = nn.forward(net, x, record=True)
        assert plain.tobytes() == recorded.tobytes()
        for li in range(1, len(net.specs)):
            if net.specs[li - 1].kind == "dense":
                z = net.weights[li - 1] @ trace.per_layer[li - 1]
                expect = np.maximum(z, 0.0) if net.specs[li - 1].activation == "relu" else z
                assert trace.per_layer[li][:-1].tobytes() == expect.tobytes()
                npt.assert_array_equal(trace.per_layer[li][-1], np.ones(len(x)))


def _scoring_cases():
    two_hidden = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=4, out_features=8),
        nn.LayerSpec(kind="dense", activation="identity", in_features=8, out_features=6),
        nn.LayerSpec(kind="dense", activation="identity", in_features=6, out_features=3),
    )
    conv_dense = (
        nn.LayerSpec(kind="conv", activation="relu", in_channels=1, out_channels=2, kernel_size=2, stride=1),
        nn.LayerSpec(kind="dense", activation="relu", in_features=18, out_features=5),
        nn.LayerSpec(kind="dense", activation="identity", in_features=5, out_features=3),
    )
    return {
        "dense": (dense_net(seed=11), 4),
        "dense-two-hidden": (nn.init_network(two_hidden, input_shape=(4,), seed=12), 4),
        "conv": (conv_net(seed=13), 16),
        "conv-dense-hidden": (nn.init_network(conv_dense, input_shape=(1, 4, 4), seed=14), 16),
    }


_B = nn.SCORE_BLOCK


@pytest.mark.parametrize("rows", [1, _B - 1, _B, _B + 1, 3 * _B + 7])
@pytest.mark.parametrize("case", ["dense", "dense-two-hidden", "conv", "conv-dense-hidden"])
def test_blocked_logits_equal_the_serial_block_oracle(case, rows):
    net, width = _scoring_cases()[case]
    x = np.random.default_rng(rows).uniform(-2.0, 2.0, size=(rows, width))
    logits, _ = nn.forward(net, x)
    assert logits.tobytes() == oracles.blocked_forward(net, x, _B).tobytes()


def test_worker_count_does_not_change_the_bits(monkeypatch):
    net, width = _scoring_cases()["dense-two-hidden"]
    x = np.random.default_rng(3).standard_normal((3 * _B + 7, width))
    shares = []
    real = nn._score_blocks

    def spy(model, batch, logits, starts):
        shares.append(list(starts))
        real(model, batch, logits, starts)

    monkeypatch.setattr(nn, "_score_blocks", spy)
    out = {}
    for workers in (1, 3):
        monkeypatch.setattr(nn, "_WORKERS", workers)
        shares.clear()
        out[workers] = nn.forward(net, x)[0].tobytes()
        assert len(shares) == workers
        assert sorted(sum(shares, [])) == list(range(0, len(x), _B))
    assert out[1] == out[3]

    class NoPool:
        def submit(self, *args):
            raise AssertionError("a batch of one block used the pool")

    monkeypatch.setattr(nn, "_pool", NoPool())
    nn.forward(net, x[:_B])


def test_more_scoring_threads_than_cores_fill_every_column(monkeypatch):
    # A short switch interval and more threads than cores: a block lost or
    # written twice would leave columns unlike the serial oracle's.
    net, width = _scoring_cases()["dense-two-hidden"]
    x = np.random.default_rng(5).standard_normal((9 * _B + 3, width))
    expect = oracles.blocked_forward(net, x, _B).tobytes()
    monkeypatch.setattr(nn, "_WORKERS", nn._WORKERS + 3)
    pool = ThreadPoolExecutor(max_workers=nn._WORKERS, thread_name_prefix="nn-score-test")
    monkeypatch.setattr(nn, "_pool", pool)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.extend(nn.forward(net, x)[0].tobytes() for _ in range(20)))
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=True)
    assert got == [expect] * 20


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_non_finite_logit_in_the_last_block_raises():
    specs = dense_specs()
    weights = [np.full(specs[0].weight_shape(), 1e300), dense_net(seed=1).weights[1]]
    net = nn.Network(specs=specs, weights=weights, input_shape=(4,))
    x = np.random.default_rng(4).uniform(0.0, 1.0, size=(2 * _B + 5, 4))
    x[-1] = 1e10  # overflows only this row's hidden units
    assert np.isfinite(nn.forward(net, x[:-1])[0]).all()
    with pytest.raises(linalg.NumericError, match="non-finite logits"):
        nn.forward(net, x)


class CountingPool:
    """A pool stand-in that counts submits and runs them on a real pool."""

    def __init__(self, pool):
        self.pool = pool
        self.submits = 0

    def submit(self, *args):
        self.submits += 1
        return self.pool.submit(*args)


@pytest.mark.parametrize("n_items", [0, 1, 2, 7])
def test_map_shares_returns_results_in_input_order_and_runs_share_0_on_the_caller(monkeypatch, n_items):
    monkeypatch.setattr(nn, "_WORKERS", 3)
    ran_on = {}

    def job(item):
        ran_on[item] = threading.get_ident()
        return item * item

    assert nn.map_shares(job, range(n_items)) == [i * i for i in range(n_items)]
    workers = min(3, n_items)
    assert sorted(ran_on) == list(range(n_items))
    assert all(ran_on[i] == threading.get_ident() for i in range(0, n_items, max(workers, 1)))
    if workers > 1:
        assert len(set(ran_on.values())) > 1


def test_a_map_shares_call_inside_a_share_runs_inline(monkeypatch):
    monkeypatch.setattr(nn, "_WORKERS", 2)
    pool = CountingPool(nn._pool)
    monkeypatch.setattr(nn, "_pool", pool)
    got = nn.map_shares(lambda i: nn.map_shares(lambda j: (i, j), range(5)), range(4))
    assert got == [[(i, j) for j in range(5)] for i in range(4)]
    assert pool.submits == 1  # the outer call's second share, and nothing nested


@pytest.mark.parametrize("failing", [0, 1])
def test_a_share_exception_reaches_the_caller_after_every_share_finished(monkeypatch, failing):
    monkeypatch.setattr(nn, "_WORKERS", 2)
    finished = []

    def job(item):
        if item == failing:
            raise KeyError(item)
        time.sleep(0.2)  # the other share is still running when the failing one raises
        finished.append(item)

    with pytest.raises(KeyError):
        nn.map_shares(job, range(2))
    assert finished == [1 - failing]


def test_more_share_threads_than_cores_give_the_one_worker_merge_and_contour(monkeypatch):
    # A short switch interval and more threads than cores: a basis or a grid
    # row lost, swapped or computed from another row's probe would differ
    # from the one-worker bits.
    specs = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=4, out_features=24),
        nn.LayerSpec(kind="dense", activation="relu", in_features=24, out_features=24),
        nn.LayerSpec(kind="dense", activation="identity", in_features=24, out_features=3),
    )
    net = nn.init_network(specs, input_shape=(4,), seed=2)
    sp = blob_splits(seed=3, n_per_class=500)
    inputs = {c: subspace.class_subspace(net, sp.train.class_filter((c,))) for c in range(3)}
    remaining = sp.train  # 750 rows: two scoring blocks per forward
    alphas, betas = [-0.5, -0.25, 0.0, 0.25, 0.5], [-0.5, 0.0, 0.5]

    def both():
        proj = subspace.merge_null_projector(inputs, 0.99, excluded_classes=(0,))
        null_dir, off_dir = evaluate.contour_directions(proj, net, seed=4)
        grid = evaluate.loss_contour(net, null_dir, off_dir, alphas, betas, remaining)
        return [b.tobytes() for b in proj.bases], np.array(grid.losses).tobytes()

    monkeypatch.setattr(nn, "_WORKERS", 1)
    expect = both()
    monkeypatch.setattr(nn, "_WORKERS", 4)
    pool = ThreadPoolExecutor(max_workers=3, thread_name_prefix="nn-share-test")
    monkeypatch.setattr(nn, "_pool", pool)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.extend(both() for _ in range(20)))
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=True)
    assert got == [expect] * 20


def test_more_share_threads_than_cores_give_the_one_worker_contour_with_a_frozen_input_layer(monkeypatch):
    # The toy preset's case: the input layer's null block is zero, so each
    # beta line shares layer 1's input across its alphas.  A line's buffers
    # or products lost to another thread would differ from the one-worker bits.
    specs = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=4, out_features=24),
        nn.LayerSpec(kind="dense", activation="relu", in_features=24, out_features=24),
        nn.LayerSpec(kind="dense", activation="identity", in_features=24, out_features=3),
    )
    net = nn.init_network(specs, input_shape=(4,), seed=2)
    remaining = blob_splits(seed=3, n_per_class=500).train  # 750 rows: two scoring blocks per line
    rng = np.random.default_rng(5)
    null_dir, off_dir = [], []
    for li, w in enumerate(net.weights):
        g, h = rng.standard_normal(w.shape), rng.standard_normal(w.shape)
        null_dir.append(np.zeros_like(w) if li == 0 else g / np.linalg.norm(g))
        off_dir.append(h / np.linalg.norm(h))
    alphas, betas = [-0.5, -0.25, 0.0, 0.25, 0.5], [-0.5, -0.25, 0.0, 0.25, 0.5]

    def grid():
        return np.array(evaluate.loss_contour(net, null_dir, off_dir, alphas, betas, remaining).losses).tobytes()

    monkeypatch.setattr(nn, "_WORKERS", 1)
    expect = grid()
    monkeypatch.setattr(nn, "_WORKERS", 4)
    pool = ThreadPoolExecutor(max_workers=3, thread_name_prefix="nn-share-test")
    monkeypatch.setattr(nn, "_pool", pool)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.extend(grid() for _ in range(20)))
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=True)
    assert got == [expect] * 20


def test_sgd_loops_never_use_the_pool(monkeypatch):
    # Training and unlearning steps are too fine-grained for the pool: at the
    # toy preset's shapes, a full-batch train and every unlearn variant run
    # on the calling thread alone.
    cfg = load_config(None, ["train.epochs=20", "unlearn.epochs=2"])
    sp = cfg.splits(cfg.dataset())
    net_o = cli.train_original(cfg, sp)
    _, cache = cli.build_subspaces(cfg, net_o, sp.train)
    basis = cache.for_excluded(*cfg.unlearn_plan().unlearn_classes)

    class NoPool:
        def submit(self, *args):
            raise AssertionError("an SGD loop used the pool")

    monkeypatch.setattr(nn, "_WORKERS", 2)
    monkeypatch.setattr(nn, "_pool", NoPool())
    assert cfg.train_schedule(n_train=len(sp.train), tag="train").batch_size >= len(sp.train)
    cli.train_original(cfg, sp)
    for variant in unlearn.VARIANTS:
        cli.run_unlearn_variant(cfg, net_o, sp, basis, variant)


def test_scoring_threads_keep_the_callers_error_state(monkeypatch):
    # The overflowing row lies in a block that a pool thread scores; with the
    # caller's warnings off, it must raise NumericError, not RuntimeWarning.
    specs = dense_specs()
    weights = [np.full(specs[0].weight_shape(), 1e300), dense_net(seed=1).weights[1]]
    net = nn.Network(specs=specs, weights=weights, input_shape=(4,))
    x = np.random.default_rng(4).uniform(0.0, 1.0, size=(2 * _B + 5, 4))
    x[-1] = 1e10
    monkeypatch.setattr(nn, "_WORKERS", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(linalg.NumericError, match="non-finite logits"):
                nn.forward(net, x)


def test_forward_rejects_wrong_width():
    net = dense_net(seed=1)
    with pytest.raises(ValueError):
        nn.forward(net, np.zeros((2, 5)))


def test_dense_forward_matches_manual_computation():
    net = dense_net(seed=3)
    x = np.array([[0.5, -1.0, 2.0, 0.25]])
    w0, w1 = net.weights
    h = np.maximum(w0 @ np.append(x[0], 1.0), 0.0)
    expect = w1 @ np.append(h, 1.0)
    logits, _ = nn.forward(net, x)
    npt.assert_allclose(logits[:, 0], expect, rtol=1e-15)


def test_conv_forward_matches_naive_oracle():
    net = conv_net(seed=5)
    x = image_batch(seed=6, n=4)
    maps = x.reshape(4, 1, 4, 4)
    ref_maps = oracles.naive_conv_forward(maps, net.weights[0], kernel_size=2, stride=1)
    hidden = np.maximum(ref_maps, 0.0).reshape(4, -1)
    expect = (net.weights[1] @ np.vstack([hidden.T, np.ones((1, 4))]))
    logits, _ = nn.forward(net, x)
    npt.assert_allclose(logits, expect, atol=1e-12)


def test_conv_forward_with_stride_matches_naive_oracle():
    specs = (
        nn.LayerSpec(kind="conv", activation="identity", in_channels=2, out_channels=3, kernel_size=2, stride=2),
        nn.LayerSpec(kind="dense", activation="identity", in_features=3 * 3 * 3, out_features=2),
    )
    net = nn.init_network(specs, input_shape=(2, 6, 6), seed=9)
    x = np.random.default_rng(10).standard_normal((3, 2 * 6 * 6))
    ref = oracles.naive_conv_forward(x.reshape(3, 2, 6, 6), net.weights[0], kernel_size=2, stride=2)
    flat = ref.reshape(3, -1)
    expect = net.weights[1] @ np.vstack([flat.T, np.ones((1, 3))])
    logits, _ = nn.forward(net, x)
    npt.assert_allclose(logits, expect, atol=1e-12)


def test_extract_patches_identity_kernel():
    maps = np.arange(2 * 3 * 3, dtype=np.float64).reshape(1, 2, 3, 3)
    cols = nn.extract_patches(maps, kernel_size=1, stride=1)
    # 1x1 kernel at stride 1 rearranges pixels channel-major per position.
    assert cols.shape == (2, 9)
    npt.assert_array_equal(cols[0], maps[0, 0].ravel())
    npt.assert_array_equal(cols[1], maps[0, 1].ravel())


@pytest.mark.parametrize(
    "shape,k,stride",
    [
        ((1, 3, 5, 5), 1, 1),
        ((2, 3, 5, 5), 5, 1),
        ((2, 2, 7, 5), 3, 2),
        ((1, 4, 6, 9), 2, 3),
        ((3, 1, 8, 6), 6, 3),
        ((1, 2, 9, 4), 2, 2),
        ((0, 2, 5, 5), 3, 1),
    ],
)
def test_extract_patches_bytes_equal_the_offset_loop(shape, k, stride):
    maps = np.random.default_rng(sum(shape) + 10 * k + stride).standard_normal(shape)
    cols = nn.extract_patches(maps, kernel_size=k, stride=stride)
    ref = oracles.extract_patches_loop(maps, k, stride)
    assert cols.shape == ref.shape and cols.dtype == ref.dtype
    assert cols.tobytes() == ref.tobytes()


def test_extract_patches_validation():
    with pytest.raises(ValueError, match="does not fit"):
        nn.extract_patches(np.zeros((1, 1, 2, 2)), kernel_size=3)
    for shape in ((2, 2), (1, 2, 2)):  # a single (c, h, w) map is not a batch
        with pytest.raises(ValueError, match=r"\(n,c,h,w\)"):
            nn.extract_patches(np.zeros(shape), kernel_size=1)


def test_softmax_columns_sum_to_one():
    logits = np.random.default_rng(2).standard_normal((4, 7)) * 30.0
    p = nn.softmax(logits)
    npt.assert_allclose(p.sum(axis=0), np.ones(7), atol=1e-12)
    assert (p >= 0.0).all()


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def loss_closure(net, x, y):
    def fn(_weights):
        return nn.mean_loss(net, x, y)

    return fn


def test_dense_gradients_match_finite_differences():
    net = dense_net(seed=11)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)
    loss, grads = nn.loss_and_grads(net, x, y)
    assert np.isfinite(loss)
    for li, i, j, fd in oracles.finite_difference_grads(loss_closure(net, x, y), net.weights, seed=13):
        npt.assert_allclose(grads.per_layer[li][i, j], fd, rtol=1e-6, atol=1e-8)


def test_conv_gradients_match_finite_differences():
    net = conv_net(seed=14)
    rng = np.random.default_rng(15)
    x = rng.uniform(0.0, 1.0, size=(5, 16))
    y = rng.integers(0, 3, size=5)
    _, grads = nn.loss_and_grads(net, x, y)
    for li, i, j, fd in oracles.finite_difference_grads(loss_closure(net, x, y), net.weights, seed=16):
        npt.assert_allclose(grads.per_layer[li][i, j], fd, rtol=1e-6, atol=1e-8)


def test_gradient_rows_lie_in_activation_span():
    # Each dense layer's gradient is a combination of that layer's input
    # columns; the least-squares residual against the recorded trace is zero.
    net = dense_net(seed=17)
    rng = np.random.default_rng(18)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)
    _, trace = nn.forward(net, x, record=True)
    _, grads = nn.loss_and_grads(net, x, y)
    for g, r in zip(grads.per_layer, trace.per_layer):
        assert oracles.row_span_residual(g, r) <= 1e-8


def test_loss_and_grads_validation():
    net = dense_net(seed=1)
    with pytest.raises(ValueError):
        nn.loss_and_grads(net, np.zeros((0, 4)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        nn.loss_and_grads(net, np.zeros((2, 4)), [0])
    with pytest.raises(ValueError):
        nn.loss_and_grads(net, np.zeros((2, 4)), [0, 3])


def _kernel_cases():
    rng = np.random.default_rng(41)
    identity_hidden = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=4, out_features=8),
        nn.LayerSpec(kind="dense", activation="identity", in_features=8, out_features=6),
        nn.LayerSpec(kind="dense", activation="identity", in_features=6, out_features=3),
    )
    conv_stride = (
        nn.LayerSpec(kind="conv", activation="relu", in_channels=1, out_channels=3, kernel_size=2),
        nn.LayerSpec(kind="conv", activation="relu", in_channels=3, out_channels=4, kernel_size=2, stride=2),
        nn.LayerSpec(kind="dense", activation="relu", in_features=4 * 2 * 2, out_features=5),
        nn.LayerSpec(kind="dense", activation="identity", in_features=5, out_features=3),
    )
    return [
        (dense_net(seed=42), rng.standard_normal((7, 4))),
        (nn.init_network(identity_hidden, input_shape=(4,), seed=43), rng.standard_normal((7, 4))),
        (nn.init_network(conv_stride, input_shape=(1, 6, 6), seed=44), rng.uniform(0.0, 1.0, size=(7, 36))),
    ]


TOY_ROWS = (1, 25, 200)


@pytest.mark.parametrize(
    "case", range(3 + len(TOY_ROWS)),
    ids=["dense-relu", "dense-identity-hidden", "conv-stride2-dense"] + [f"toy-{n}" for n in TOY_ROWS],
)
def test_loss_and_grads_bit_equal_reference_kernel(case):
    # Writing into the next layer's input, masking deltas in place, one exp
    # for loss and softmax and skipping layer 0's input gradient change no
    # float.  The toy preset's shapes catch a layer-0 input whose layout
    # makes BLAS round the gradient product differently.
    if case < 3:
        net, x = _kernel_cases()[case]
    else:
        net, x = toy_net(seed=45), np.random.default_rng(46).standard_normal((TOY_ROWS[case - 3], 2))
    y = np.random.default_rng(case).integers(0, 3, size=len(x))
    loss, grads = nn.loss_and_grads(net, x, y)
    ref_loss, ref_grads, ref_logits = oracles.reference_loss_and_grads(net, x, y)
    assert loss == ref_loss
    assert grads.logits.tobytes() == ref_logits.tobytes()
    for g, ref in zip(grads.per_layer, ref_grads):
        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", ["toy", "conv-stride2-dense"])
def test_sgd_step_reuses_its_buffers_without_changing_a_bit(case):
    # Row selections of several sizes, in any order, each give the one-shot
    # reference's bits, whatever earlier calls left in the reused buffers;
    # gradients stay fresh arrays across calls.
    rng = np.random.default_rng(47)
    if case == "toy":
        net, x = toy_net(seed=48), rng.standard_normal((60, 2))
    else:
        net, x = _kernel_cases()[2][0], rng.uniform(0.0, 1.0, size=(60, 36))
    y = rng.integers(0, 3, size=len(x))
    step = nn.SGDStep(net, x, y)
    perm = rng.permutation(len(x))
    kept = []
    for rows in (perm[:25], perm[25:50], perm[50:], None, perm[:25][::-1]):
        loss, grads = step(rows)
        sel = slice(None) if rows is None else rows
        ref_loss, ref_grads, ref_logits = oracles.reference_loss_and_grads(net, x[sel], y[sel])
        assert loss == ref_loss
        assert grads.logits.tobytes() == ref_logits.tobytes()
        for g, ref in zip(grads.per_layer, ref_grads):
            assert g.tobytes() == ref.tobytes()
        kept.append((grads.per_layer, ref_grads))
    for grads, ref_grads in kept:
        assert all(g.tobytes() == ref.tobytes() for g, ref in zip(grads, ref_grads))


def _resume_cases():
    rng = np.random.default_rng(51)
    head = (nn.LayerSpec(kind="dense", activation="identity", in_features=4, out_features=3),)
    on_image = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=9, out_features=5),
        nn.LayerSpec(kind="dense", activation="identity", in_features=5, out_features=3),
    )
    return {
        "dense-relu": _kernel_cases()[0],
        "dense-identity-hidden": _kernel_cases()[1],
        "toy": (toy_net(seed=52), rng.standard_normal((50, 2))),
        "head-only": (nn.init_network(head, input_shape=(4,), seed=53), rng.standard_normal((7, 4))),
        "dense-on-image": (nn.init_network(on_image, input_shape=(1, 3, 3), seed=54), rng.standard_normal((7, 9))),
    }


@pytest.mark.parametrize("projecting", [False, True], ids=["plain", "projecting"])
@pytest.mark.parametrize("case", ["dense-relu", "dense-identity-hidden", "toy", "head-only", "dense-on-image"])
def test_a_call_given_layer_0s_preactivation_keeps_every_later_bit(case, projecting):
    # Given the bits of W_0 @ a, computed as a plain call computes them, the
    # loss, the logits and every later layer's gradient are a normal call's
    # bits; layer 0 has no gradient and comes back as its output delta dz,
    # unprojected, and dz a^T, taken as the oracle takes it, is the
    # oracle's layer-0 gradient to the bit.  A projecting step projects no
    # layer-0 factor.
    net, x = _resume_cases()[case]
    y = np.random.default_rng(55).integers(0, net.n_classes, size=len(x))
    rows = np.random.default_rng(56).permutation(len(x))[: max(len(x) // 2, 3)]
    bases = [_orthonormal(np.random.default_rng(57 + li), w.shape[1], w.shape[1] // 2)
             for li, w in enumerate(net.weights)]
    projected = []

    def project(li, m):
        projected.append(li)
        return linalg.apply_projection(m, bases[li])

    plain_loss, plain = nn.SGDStep(net, x, y, project if projecting else None)(rows)
    del projected[:]
    step = nn.SGDStep(net, x, y, project if projecting else None)
    a = np.asfortranarray(np.vstack([x[rows].T, np.ones((1, len(rows)))]))  # a plain call's: column-major
    loss, grads = step(rows, lambda out: np.matmul(net.weights[0], a, out=out))
    assert loss == plain_loss
    assert grads.logits.tobytes() == plain.logits.tobytes()
    for g, ref in zip(grads.per_layer[1:], plain.per_layer[1:]):
        assert g.tobytes() == ref.tobytes()
    assert 0 not in projected
    assert grads.per_layer[0] is None and plain.delta0 is None
    dz = grads.delta0
    _, ref_grads, _ = oracles.reference_loss_and_grads(net, x[rows], y[rows])
    _, ref_inputs, _ = oracles.reference_forward(net, x[rows])
    assert dz.shape == (net.weights[0].shape[0], len(rows))
    assert (dz @ ref_inputs[0].T).tobytes() == ref_grads[0].tobytes()


def _orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]


@pytest.mark.parametrize("rows", [2, 7, 14])
@pytest.mark.parametrize("rank", ["one", "half", "full"])
@pytest.mark.parametrize("case", range(3), ids=["dense-relu", "dense-identity-hidden", "conv-stride2-dense"])
def test_projected_grads_match_projecting_the_reference_gradient(case, rank, rows):
    # Input-side and gradient-side projection give g (I - B B^T) either way;
    # 2, 7 and 14 samples put dense layers of 3 to 8 units on both sides of
    # the rows-versus-columns rule.
    net, x = _kernel_cases()[case]
    x = np.vstack([x, 0.5 * x])[:rows]
    y = np.random.default_rng(case).integers(0, 3, size=rows)
    rng = np.random.default_rng(100 + case)
    bases = []
    for w in net.weights:
        n = w.shape[1]
        bases.append(_orthonormal(rng, n, {"one": 1, "half": n // 2, "full": n}[rank]))
    _, trace = nn.forward(net, x, record=True)
    projected = []

    def project(li, m):
        # The smaller factor: the gradient's rows or the layer input's columns.
        assert m.shape[0] == min(net.weights[li].shape[0], trace.per_layer[li].shape[1])
        projected.append(li)
        return linalg.apply_projection(m, bases[li])

    loss, grads = nn.loss_and_grads(net, x, y, project=project)
    plain_loss, plain = nn.loss_and_grads(net, x, y)
    _, ref_grads, _ = oracles.reference_loss_and_grads(net, x, y)
    assert loss == plain_loss
    assert grads.logits.tobytes() == plain.logits.tobytes()
    assert sorted(projected) == list(range(len(net.weights)))
    for g, ref, b in zip(grads.per_layer, ref_grads, bases):
        assert g.shape == ref.shape
        if rank == "full":
            assert not g.any()
        else:
            assert np.linalg.norm(g - linalg.apply_projection(ref, b)) <= 1e-12 * np.linalg.norm(ref)


def test_gradient_step_reduces_loss():
    net = dense_net(seed=19)
    rng = np.random.default_rng(20)
    x = rng.standard_normal((16, 4))
    y = rng.integers(0, 3, size=16)
    before, grads = nn.loss_and_grads(net, x, y)
    for w, g in zip(net.weights, grads.per_layer):
        w -= 0.05 * g
    after = nn.mean_loss(net, x, y)
    assert after < before


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_zero_epochs_is_identity():
    net = dense_net(seed=21)
    sp = blob_splits(seed=21)
    out = nn.train(net, sp.train, sp.val, nn.TrainSchedule(lr=0.1, epochs=0, batch_size=8))
    for w0, w1 in zip(net.weights, out.weights):
        npt.assert_array_equal(w0, w1)
    assert out.metadata["epochs_run"] == 0
    assert out.metadata["best_epoch"] == 0
    assert out.metadata["best_val_accuracy"] == nn.accuracy(net, sp.val.features, sp.val.labels)
    assert out is not net
    # A zero budget records the same metadata keys as any other run.
    one = nn.train(net, sp.train, sp.val, nn.TrainSchedule(lr=0.1, epochs=1, batch_size=8))
    assert sorted(out.metadata) == sorted(one.metadata)


def test_train_returns_its_own_metadata_and_leaves_the_input_unchanged():
    net = dense_net(seed=21)
    net.metadata.update(config_hash="abc", notes={"kept": [1]})
    sp = blob_splits(seed=21)
    out = nn.train(net, sp.train, sp.val, nn.TrainSchedule(lr=0.1, epochs=1, batch_size=8))
    assert out.metadata is not net.metadata
    assert out.metadata["notes"] is not net.metadata["notes"]
    assert net.metadata == {"config_hash": "abc", "notes": {"kept": [1]}}
    assert {k: out.metadata[k] for k in net.metadata} == net.metadata


def test_train_fits_the_blobs():
    net, sp = trained_dense_net(seed=22)
    assert nn.accuracy(net, sp.test.features, sp.test.labels) >= 0.9


def test_train_is_bit_deterministic():
    a, _ = trained_dense_net(seed=23, epochs=20)
    b, _ = trained_dense_net(seed=23, epochs=20)
    for wa, wb in zip(a.weights, b.weights):
        npt.assert_array_equal(wa, wb)


def test_train_milestones_decay_learning_rate():
    net = dense_net(seed=24)
    sp = blob_splits(seed=24)
    schedule = nn.TrainSchedule(
        lr=0.1, epochs=3, batch_size=16, milestones=(2,), gamma=0.5, patience=None, seed=0
    )
    out = nn.train(net, sp.train, sp.val, schedule)
    assert out.metadata["final_lr"] == pytest.approx(0.05)
    assert out.metadata["epochs_run"] == 3


def test_train_keeps_best_epoch_and_patience_stops():
    # Start from a fitted network, then "train" on deliberately shuffled labels
    # with a destructive step size: every epoch is strictly worse, so patience
    # triggers immediately and the returned weights are the untouched best.
    net, sp = trained_dense_net(seed=25)
    wrecked = data.Dataset(
        features=sp.train.features,
        labels=(sp.train.labels + 1) % 3,
        n_classes=3,
    )
    schedule = nn.TrainSchedule(lr=5.0, epochs=40, batch_size=8, patience=2, seed=1)
    out = nn.train(net, wrecked, sp.val, schedule)
    assert out.metadata["epochs_run"] < 40
    assert out.metadata["best_epoch"] == 0
    for w0, w1 in zip(net.weights, out.weights):
        npt.assert_array_equal(w0, w1)


def test_train_ties_keep_later_epoch():
    # lr=0 never changes the weights, so validation accuracy ties every epoch
    # and the recorded best epoch is the last one.
    net = dense_net(seed=26)
    sp = blob_splits(seed=26)
    out = nn.train(net, sp.train, sp.val, nn.TrainSchedule(lr=0.0, epochs=4, batch_size=8, patience=2))
    assert out.metadata["best_epoch"] == 4
    assert out.metadata["epochs_run"] == 4
    for w0, w1 in zip(net.weights, out.weights):
        npt.assert_array_equal(w0, w1)


def _noisy_blobs(seed=41):
    # Random labels on the blob features: accuracy plateaus, so patience can fire.
    sp = blob_splits(seed=seed)
    labels = np.random.default_rng(0).integers(0, 3, size=len(sp.train))
    return data.Dataset(features=sp.train.features, labels=labels, n_classes=3)


FULL_BATCH_CASES = {
    # name: (dataset, seed of the net, schedule kwargs, expected (epochs_run, final_lr))
    "plain": ("blobs", 40, dict(lr=0.3, epochs=25, milestones=(15,), gamma=0.5, patience=None), (25, 0.15)),
    "patience-stop": ("noisy", 41, dict(lr=2.0, epochs=80, patience=3), (11, 2.0)),
    # The stop epoch's milestone fires; the next one, inside the scoring
    # forward that ends the run, does not.
    "milestone-at-stop": ("noisy", 41, dict(lr=2.0, epochs=80, patience=3, milestones=(11, 12), gamma=0.5), (11, 1.0)),
}


@pytest.mark.parametrize("name", sorted(FULL_BATCH_CASES))
def test_full_batch_training_matches_the_two_forward_loop(name):
    kind, net_seed, kwargs, (epochs_run, final_lr) = FULL_BATCH_CASES[name]
    train_set = blob_splits(seed=40).train if kind == "blobs" else _noisy_blobs()
    net = dense_net(seed=net_seed)
    schedule = nn.TrainSchedule(batch_size=len(train_set), seed=1, **kwargs)
    out = nn.train(net, train_set, train_set, schedule)
    ref = oracles.train_two_forwards(net, train_set, train_set, schedule)
    assert out.metadata == ref.metadata
    assert (out.metadata["epochs_run"], out.metadata["final_lr"]) == (epochs_run, final_lr)
    for w, w_ref in zip(out.weights, ref.weights):
        assert w.tobytes() == w_ref.tobytes()


def test_full_batch_training_runs_one_forward_per_epoch(monkeypatch):
    calls = {"accuracy": 0, "step": 0}
    for owner, attr, key in ((nn, "accuracy", "accuracy"), (nn.SGDStep, "__call__", "step")):
        original = getattr(owner, attr)

        def spy(*args, _key=key, _original=original):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(owner, attr, spy)
    train_set = blob_splits(seed=40).train
    schedule = nn.TrainSchedule(lr=0.3, epochs=12, batch_size=len(train_set) + 5, patience=None)
    out = nn.train(dense_net(seed=40), train_set, train_set, schedule)
    assert out.metadata["epochs_run"] == 12
    assert calls == {"accuracy": 1, "step": 12}


def test_minibatch_training_is_pinned():
    # Mini-batches keep the seeded permutation; the weights equal the ones
    # trained before the full-batch loop changed (sha256 of their bytes).
    sp = blob_splits(seed=31)
    schedule = nn.TrainSchedule(lr=0.2, epochs=15, batch_size=8, milestones=(10,), patience=4, seed=5)
    out = nn.train(dense_net(seed=31), sp.train, sp.val, schedule)
    digest = hashlib.sha256(b"".join(w.tobytes() for w in out.weights)).hexdigest()
    assert digest == "047fc95cad5ff06c18b03388f8d787731a585666b1a624f63617410739c8abfc"
    assert out.metadata == {
        "epochs_run": 15, "best_epoch": 15, "best_val_accuracy": 1.0,
        "final_lr": 0.2 * 0.2, "train_seed": 5,
    }


def test_full_batch_training_peak_memory():
    # The toy preset's shapes: 200 rows of 2 features -> 192 -> 192 -> 4.
    # Measured peak above the start: about 1.9 MiB with one step's buffers
    # serving every epoch, 2.1 MiB with fresh arrays per epoch, and 3.6 MB
    # when each epoch kept pre-activations, float masks and a separate SGD
    # temporary.
    rng = np.random.default_rng(0)
    train_set = data.Dataset(
        features=rng.standard_normal((200, 2)), labels=rng.integers(0, 4, 200), n_classes=4
    )
    net = toy_net(seed=1)
    schedule = nn.TrainSchedule(lr=0.5, epochs=5, batch_size=200, patience=None)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        nn.train(net, train_set, train_set, schedule)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, f"peak traced memory {peak / 2**20:.2f} MiB"


def test_train_schedule_validation():
    with pytest.raises(ValueError):
        nn.TrainSchedule(lr=-0.1, epochs=1, batch_size=1)
    for gamma in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            nn.TrainSchedule(lr=0.1, epochs=1, batch_size=1, gamma=gamma)
    for milestones in ((0,), (0, -4), (3, -1)):
        with pytest.raises(ValueError, match="milestones"):
            nn.TrainSchedule(lr=0.1, epochs=1, batch_size=1, milestones=milestones)
    with pytest.raises(ValueError):
        nn.TrainSchedule(lr=0.1, epochs=-1, batch_size=1)
    with pytest.raises(ValueError):
        nn.TrainSchedule(lr=0.1, epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        nn.TrainSchedule(lr=0.1, epochs=1, batch_size=1, patience=0)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    net, _ = trained_dense_net(seed=27, epochs=5)
    net.metadata["note"] = "round-trip"
    path = tmp_path / "net.json"
    nn.save_checkpoint(net, path)
    back = nn.load_checkpoint(path)
    assert back.specs == net.specs
    assert back.input_shape == net.input_shape
    assert back.seed == net.seed
    assert back.metadata == net.metadata
    for w0, w1 in zip(net.weights, back.weights):
        npt.assert_array_equal(w0, w1)
    # Saving the loaded network reproduces the file byte for byte.
    path2 = tmp_path / "net2.json"
    nn.save_checkpoint(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_unknown_version(tmp_path):
    net = dense_net(seed=28)
    path = tmp_path / "net.json"
    nn.save_checkpoint(net, path)
    version = nn.CHECKPOINT_FORMAT_VERSION
    doc = path.read_text().replace(f'"format_version": {version}', '"format_version": 99')
    path.write_text(doc)
    with pytest.raises(ValueError, match="format_version"):
        nn.load_checkpoint(path)


def test_conv_checkpoint_round_trip(tmp_path):
    net = conv_net(seed=29)
    path = tmp_path / "conv.json"
    nn.save_checkpoint(net, path)
    back = nn.load_checkpoint(path)
    assert back.specs == net.specs
    x = image_batch(seed=30, n=3)
    la, _ = nn.forward(net, x)
    lb, _ = nn.forward(back, x)
    npt.assert_array_equal(la, lb)
