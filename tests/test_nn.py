"""Network forward/backward, training loop, and checkpoint round trips."""

import hashlib
import sys
import threading
import tracemalloc

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
    trained_dense_net,
)
from nullspace_unlearn import data, linalg, nn

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

    def no_pool():
        raise AssertionError("a batch of one block used the pool")

    monkeypatch.setattr(nn, "_score_pool", no_pool)
    nn.forward(net, x[:_B])


def test_more_scoring_threads_than_cores_fill_every_column(monkeypatch):
    # A short switch interval and more threads than cores: a block lost or
    # written twice would leave columns unlike the serial oracle's.
    net, width = _scoring_cases()["dense-two-hidden"]
    x = np.random.default_rng(5).standard_normal((9 * _B + 3, width))
    expect = oracles.blocked_forward(net, x, _B).tobytes()
    monkeypatch.setattr(nn, "_WORKERS", nn._WORKERS + 3)
    monkeypatch.setattr(nn, "_pool", None)
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
        if nn._pool is not None:
            nn._pool.shutdown(wait=True)
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


def test_extract_patches_validation():
    with pytest.raises(ValueError):
        nn.extract_patches(np.zeros((1, 2, 2)), kernel_size=3)
    with pytest.raises(ValueError):
        nn.extract_patches(np.zeros((2, 2)), kernel_size=1)


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


@pytest.mark.parametrize("case", range(3), ids=["dense-relu", "dense-identity-hidden", "conv-stride2-dense"])
def test_loss_and_grads_bit_equal_reference_kernel(case):
    # Writing into the next layer's input, masking deltas in place and
    # skipping layer 0's input gradient change no float.
    net, x = _kernel_cases()[case]
    y = np.random.default_rng(case).integers(0, 3, size=len(x))
    loss, grads = nn.loss_and_grads(net, x, y)
    ref_loss, ref_grads, ref_logits = oracles.reference_loss_and_grads(net, x, y)
    assert loss == ref_loss
    assert grads.logits.tobytes() == ref_logits.tobytes()
    for g, ref in zip(grads.per_layer, ref_grads):
        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()


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
        provenance={},
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
    return data.Dataset(features=sp.train.features, labels=labels, n_classes=3, provenance={})


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
    calls = {"accuracy": 0, "loss_and_grads": 0}
    for fn in calls:
        original = getattr(nn, fn)

        def spy(*args, _fn=fn, _original=original):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(nn, fn, spy)
    train_set = blob_splits(seed=40).train
    schedule = nn.TrainSchedule(lr=0.3, epochs=12, batch_size=len(train_set) + 5, patience=None)
    out = nn.train(dense_net(seed=40), train_set, train_set, schedule)
    assert out.metadata["epochs_run"] == 12
    assert calls == {"accuracy": 1, "loss_and_grads": 12}


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
    # Measured peak above the start: about 2.1 MB, against 3.6 MB when each
    # epoch kept pre-activations, float masks and a separate SGD temporary.
    specs = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=2, out_features=192),
        nn.LayerSpec(kind="dense", activation="relu", in_features=192, out_features=192),
        nn.LayerSpec(kind="dense", activation="identity", in_features=192, out_features=4),
    )
    rng = np.random.default_rng(0)
    train_set = data.Dataset(
        features=rng.standard_normal((200, 2)), labels=rng.integers(0, 4, 200), n_classes=4, provenance={}
    )
    net = nn.init_network(specs, input_shape=(2,), seed=1)
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
    doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
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
