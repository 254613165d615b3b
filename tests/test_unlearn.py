"""Labeling rules, projected fine-tuning, and the baseline variants."""

import dataclasses
import math
import tracemalloc
import types

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from conftest import dense_net, dense_specs, toy_net, trained_dense_net
from test_nn import _kernel_cases
from nullspace_unlearn import cli, data, evaluate, nn, subspace, unlearn
from nullspace_unlearn.config import load_config
from nullspace_unlearn.determinism import PortableRng, derive_seed
from nullspace_unlearn.linalg import NumericError


@pytest.fixture(scope="module")
def fitted():
    net, sp = trained_dense_net(seed=50)
    subs = {
        c: subspace.class_subspace(net, sp.train.class_filter((c,), keep=True))
        for c in range(3)
    }
    return net, sp, subs


def plan(**kw):
    base = dict(unlearn_classes=(0,), lr=0.02, epochs=8, batch_size=8, seed=3)
    base.update(kw)
    return unlearn.UnlearnPlan(**base)


# ---------------------------------------------------------------------------
# labeling rules
# ---------------------------------------------------------------------------


def test_pseudo_label_picks_best_class_outside_unlearn_set(fitted):
    net, sp, _ = fitted
    d_u = sp.d_u
    probs = nn.predict_proba(net, d_u.features)
    for i in range(min(6, len(d_u))):
        got = oracles.pseudo_label(net, d_u.features[i], 0, (0,))
        masked = probs[:, i].copy()
        masked[0] = -np.inf
        assert got == int(np.argmax(masked))
        assert got != 0


def test_pseudo_label_tie_breaks_to_lowest_index():
    # Zero weights give identical logits for every class, so the masked
    # argmax must fall back to the lowest index outside the unlearn set.
    specs = dense_specs()
    net = nn.Network(specs=specs, weights=[np.zeros(s.weight_shape()) for s in specs], input_shape=(4,))
    for y, classes, want in ((0, (0,), 1), (1, (1,), 0), (0, (0, 1), 2)):
        assert oracles.pseudo_label(net, np.ones(4), y, classes) == want
        d_u = data.Dataset(features=np.ones((1, 4)), labels=[y], n_classes=3)
        assert unlearn.pseudo_label_set(net, d_u, classes).assigned_labels.tolist() == [want]


def test_pseudo_label_set_matches_scalar_rule(fitted):
    net, sp, _ = fitted
    labeled = unlearn.pseudo_label_set(net, sp.d_u, (0,))
    assert labeled.labeling == "pseudo"
    npt.assert_array_equal(labeled.original_labels, sp.d_u.labels)
    for i in range(len(sp.d_u)):
        assert labeled.assigned_labels[i] == oracles.pseudo_label(net, sp.d_u.features[i], 0, (0,))
    assert not np.isin(labeled.assigned_labels, [0]).any()


def test_pseudo_label_validation(fitted):
    net, sp, _ = fitted
    with pytest.raises(ValueError, match="not an unlearn class"):
        oracles.pseudo_label(net, np.ones(4), 1, (0,))
    with pytest.raises(ValueError, match="every class"):
        oracles.pseudo_label(net, np.ones(4), 0, (0, 1, 2))
    with pytest.raises(ValueError, match="every class"):
        unlearn.pseudo_label_set(net, sp.d_u, (0, 1, 2))
    with pytest.raises(ValueError, match="outside the unlearn classes"):
        unlearn.pseudo_label_set(net, sp.train, (0,))


def test_random_label_set_is_seeded_and_never_original(fitted):
    _, sp, _ = fitted
    a = unlearn.random_label_set(sp.d_u, 3, (0,), seed=5)
    b = unlearn.random_label_set(sp.d_u, 3, (0,), seed=5)
    c = unlearn.random_label_set(sp.d_u, 3, (0,), seed=6)
    npt.assert_array_equal(a.assigned_labels, b.assigned_labels)
    assert (a.assigned_labels != c.assigned_labels).any()
    assert (a.assigned_labels != a.original_labels).all()
    assert ((a.assigned_labels >= 0) & (a.assigned_labels < 3)).all()
    with pytest.raises(ValueError, match="two classes"):
        unlearn.random_label_set(sp.d_u, 1, (0,), seed=5)


def forget_set(labels):
    return types.SimpleNamespace(labels=np.asarray(labels), features=np.zeros((len(labels), 2)))


def test_random_labels_avoid_every_unlearn_class():
    labeled = unlearn.random_label_set(forget_set(np.repeat([0, 1], 100)), 4, (0, 1), seed=5)
    assert set(labeled.assigned_labels.tolist()) == {2, 3}


def test_one_class_random_labels_match_draw_and_skip():
    # One forget class c: a draw d below k - 1, moved up by one from c on.
    labeled = unlearn.random_label_set(forget_set(np.full(200, 1)), 4, (1,), seed=5)
    d = PortableRng(derive_seed(5, "random-labels")).integers_below(np.full(200, 3)).astype(np.int64)
    npt.assert_array_equal(labeled.assigned_labels, d + (d >= 1))


def test_pseudo_labeled_set_validation():
    with pytest.raises(ValueError, match="original label"):
        unlearn.PseudoLabeledSet(
            features=np.zeros((2, 4)),
            original_labels=[0, 0],
            assigned_labels=[1, 0],
            labeling="pseudo",
        )
    with pytest.raises(ValueError, match="length"):
        unlearn.PseudoLabeledSet(
            features=np.zeros((2, 4)),
            original_labels=[0, 0],
            assigned_labels=[1],
            labeling="pseudo",
        )
    # "keep" may retain the original labels.
    kept = unlearn.PseudoLabeledSet(
        features=np.zeros((2, 4)),
        original_labels=[0, 0],
        assigned_labels=[0, 0],
        labeling="keep",
    )
    assert kept.labeling == "keep"


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError):
        plan(unlearn_classes=())
    with pytest.raises(ValueError, match="unknown unlearn variant"):
        plan(variant="hard")
    with pytest.raises(ValueError):
        plan(lr=-1.0)
    with pytest.raises(ValueError):
        plan(epochs=-1)
    with pytest.raises(ValueError):
        plan(batch_size=0)
    with pytest.raises(TypeError):
        plan(labeling="keep")
    ga = plan(variant="gradient-ascent")
    assert (ga.labeling, ga.use_null_space, ga.ascend) == ("keep", False, True)
    # replace() keeps the row when the variant stays and derives it again when the variant moves.
    longer = dataclasses.replace(ga, epochs=20)
    assert (longer.variant, longer.epochs, longer.labeling, longer.ascend) == ("gradient-ascent", 20, "keep", True)
    moved = dataclasses.replace(ga, variant="random-label+nullspace")
    assert (moved.labeling, moved.use_null_space, moved.ascend) == unlearn.VARIANTS["random-label+nullspace"]


@pytest.mark.parametrize("variant", sorted(unlearn.VARIANTS))
def test_config_builds_each_variant_from_the_table(variant):
    cfg = load_config()
    built = cfg.unlearn_plan(variant)
    assert built.variant == variant
    assert (built.labeling, built.use_null_space, built.ascend) == unlearn.VARIANTS[variant]
    sgd = cfg.doc["unlearn"]
    assert (built.lr, built.epochs, built.batch_size) == (sgd["lr"], sgd["epochs"], sgd["batch_size"])
    assert built.seed == cfg.seed_for("unlearn")


def test_unknown_variant_is_refused_by_the_plan():
    with pytest.raises(ValueError, match="unknown unlearn variant"):
        load_config().unlearn_plan("fine-tune")


def test_baseline_nullspace_needs_a_cache(fitted):
    net, sp, _ = fitted
    with pytest.raises(ValueError, match="projector cache"):
        unlearn.baseline_unlearn(net, sp.d_u, plan(variant="random-label+nullspace"))


# ---------------------------------------------------------------------------
# fine-tuning behaviour
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_original_weights(fitted):
    net, sp, subs = fitted
    cache = subspace.ProjectorCache(subs, 0.99)
    res = unlearn.baseline_unlearn(net, sp.d_u, plan(epochs=0), cache)
    assert res.epoch_losses == []
    for w0, w1 in zip(net.weights, res.network.weights):
        npt.assert_array_equal(w0, w1)
    assert res.network is not net


def test_unlearn_is_bit_deterministic(fitted):
    net, sp, subs = fitted
    cache = subspace.ProjectorCache(subs, 0.99)
    a = unlearn.baseline_unlearn(net, sp.d_u, plan(), cache)
    b = unlearn.baseline_unlearn(net, sp.d_u, plan(), subspace.ProjectorCache(subs, 0.99))
    assert a.epoch_losses == b.epoch_losses
    for wa, wb in zip(a.network.weights, b.network.weights):
        npt.assert_array_equal(wa, wb)


def test_unlearn_records_losses_and_reduces_them(fitted):
    net, sp, subs = fitted
    cache = subspace.ProjectorCache(subs, 0.99)
    res = unlearn.baseline_unlearn(net, sp.d_u, plan(epochs=12), cache)
    assert len(res.epoch_losses) == 12
    assert res.epoch_losses[-1] < res.epoch_losses[0]


def test_unlearn_drops_forget_class_and_keeps_remaining(fitted):
    net, sp, subs = fitted
    cache = subspace.ProjectorCache(subs, 0.99)
    res = unlearn.baseline_unlearn(net, sp.d_u, plan(epochs=25), cache)
    d_u_test = sp.test_unlearn
    rem_test = sp.test_remaining
    before_forget = nn.accuracy(net, d_u_test.features, d_u_test.labels)
    after_forget = nn.accuracy(res.network, d_u_test.features, d_u_test.labels)
    assert before_forget >= 0.9
    assert after_forget <= 0.2
    assert nn.accuracy(res.network, rem_test.features, rem_test.labels) >= 0.85


def test_full_energy_projection_freezes_build_outputs(fitted):
    # With every direction retained, the projected updates cannot move the
    # network's outputs on the very activations the subspaces were built from.
    net, sp, subs = fitted
    cache = subspace.ProjectorCache(subs, 1.0)
    res = unlearn.baseline_unlearn(net, sp.d_u, plan(epochs=10), cache)
    build = sp.train.class_filter((0,), keep=False)
    before, _ = nn.forward(net, build.features)
    after, _ = nn.forward(res.network, build.features)
    assert np.abs(after - before).max() <= 1e-6
    delta = abs(nn.mean_loss(res.network, build.features, build.labels)
                - nn.mean_loss(net, build.features, build.labels))
    assert delta <= 1e-4


def test_two_class_unlearn_merges_once_over_the_remaining_classes(fitted, monkeypatch):
    # Forgetting {0, 1} protects class 2 alone: one merge, not one per forget class.
    net, sp, subs = fitted
    merges = []
    real_merge = subspace.merge_null_projector

    def spy(*args, **kwargs):
        merges.append(real_merge(*args, **kwargs))
        return merges[-1]

    monkeypatch.setattr(subspace, "merge_null_projector", spy)
    d_u = sp.train.class_filter((0, 1), keep=True)
    cache = subspace.ProjectorCache(subs, 0.99)
    unlearn.baseline_unlearn(net, d_u, plan(unlearn_classes=(0, 1)), cache)
    assert [m.merged_classes for m in merges] == [(2,)]


def test_two_class_unlearn_on_the_toy_preset_forgets_both():
    # The benchmark's shortened schedule at seed 1.  Projecting class-0 steps
    # to protect class 1, which is also being forgotten, left 0.44 here.
    cfg = load_config(
        overrides=("train.epochs=200", "train.milestones=[160]", "split.unlearn_classes=[0,1]")
    ).with_seed(1)
    sp = cfg.splits(cfg.dataset())
    net_o = cli.train_original(cfg, sp)
    _, cache = cli.build_subspaces(cfg, net_o, sp.train)
    res = cli.run_unlearn_variant(cfg, net_o, sp, cache, "calibrated")
    after = evaluate.utility(res.network, sp.test_remaining, sp.test_unlearn)
    before = evaluate.utility(net_o, sp.test_remaining, sp.test_unlearn)
    assert after.acc_unlearn_test < 0.30
    assert after.acc_remaining_test >= before.acc_remaining_test


@pytest.fixture(scope="module")
def preset():
    """The toy preset at the benchmark's shortened schedule, seed 1: original net, splits and both caches."""
    shortened = ("train.epochs=200", "train.milestones=[160]")
    cfg = load_config(overrides=shortened).with_seed(1)
    sp = cfg.splits(cfg.dataset())
    net_o = cli.train_original(cfg, sp)
    exact = load_config(overrides=shortened + ("subspace.epsilon=1.0", "subspace.build_batch=16")).with_seed(1)
    caches = {mode: cli.build_subspaces(c, net_o, sp.train)[1] for mode, c in (("preset", cfg), ("exact", exact))}
    return cfg, sp, net_o, caches


@pytest.mark.parametrize("mode", ["preset", "exact"])
def test_projection_gets_the_smaller_factor_of_each_gradient(preset, monkeypatch, mode):
    # Layer 0's basis spans its 3-wide input, so layer 0 is frozen and never
    # projected.  Layer 1 sees the same forget rows in every step, so its
    # input is projected once per run, all rows in one block; the 4-row head
    # projects its own gradient every step; no 192-row hidden-layer gradient
    # is ever projected.
    cfg, sp, net_o, caches = preset
    bases = caches[mode].for_excluded(0).bases
    run = dataclasses.replace(cfg.unlearn_plan(), epochs=2)
    rows = len(sp.d_u.labels)
    steps = run.epochs * math.ceil(rows / run.batch_size)
    seen = []
    real = unlearn.apply_projection

    def spy(m, basis):
        seen.append((next(i for i, b in enumerate(bases) if b is basis), m.shape))
        return real(m, basis)

    monkeypatch.setattr(unlearn, "apply_projection", spy)
    unlearn.baseline_unlearn(net_o, sp.d_u, run, caches[mode])
    assert rows == 50 and steps == 4
    assert sorted(seen) == [(1, (rows, 193))] + [(2, (4, 193))] * steps


@pytest.mark.parametrize("mode", ["preset", "exact"])
def test_projected_finetune_matches_projecting_each_full_gradient(preset, mode):
    cfg, sp, net_o, caches = preset
    run = dataclasses.replace(cfg.unlearn_plan(), epochs=5)
    res = unlearn.baseline_unlearn(net_o, sp.d_u, run, caches[mode])
    weights, losses = oracles.reference_projected_finetune(
        net_o, res.labeled, caches[mode].for_excluded(0).bases, run
    )
    npt.assert_allclose(res.epoch_losses, losses, rtol=1e-12, atol=0.0)
    for w, ref in zip(res.network.weights, weights):
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)


def _finetune_against_oracle(monkeypatch, net, labeled, projector, run, frozen, factored):
    """Run a projected fine-tune; check it against the oracle, with every spanned layer untouched.

    A spy on `nn.SGDStep` calls checks that every step sees the
    (layers - frozen)-layer suffix and, when `factored`, hands the step its
    first layer's pre-activation (the forget-row coordinates of
    `unlearn._finetune`), else none.
    """
    calls = set()
    real = nn.SGDStep.__call__

    def spy(step, rows=None, preact0=None):
        calls.add((len(step.net.specs), preact0 is not None))
        return real(step, rows, preact0)

    monkeypatch.setattr(nn.SGDStep, "__call__", spy)
    res = unlearn._finetune(net, labeled, projector, run)
    weights, losses = oracles.reference_projected_finetune(net, labeled, projector.bases, run)
    assert calls == {(len(net.specs) - frozen, factored)}
    npt.assert_allclose(res.epoch_losses, losses, rtol=1e-12, atol=0.0)
    for li, (w0, w, ref, b) in enumerate(zip(net.weights, res.network.weights, weights, projector.bases)):
        assert b.shape[1] == b.shape[0] or li >= frozen
        if b.shape[1] == b.shape[0]:
            assert w.tobytes() == ref.tobytes() == w0.tobytes()
        else:
            assert (w != w0).any()
            assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)


def test_projected_finetune_with_a_short_last_batch_matches_the_oracle(preset, monkeypatch):
    # Batch 16 over the 50-row forget set: three full batches and one of 2
    # rows per epoch, so the step keeps buffers for two row counts.
    cfg, sp, net_o, caches = preset
    projector = caches["preset"].for_excluded(0)
    run = dataclasses.replace(cfg.unlearn_plan(), epochs=5, batch_size=16)
    labeled = unlearn.pseudo_label_set(net_o, sp.d_u, run.unlearn_classes)
    assert len(labeled.assigned_labels) == 50
    _finetune_against_oracle(monkeypatch, net_o, labeled, projector, run, frozen=1, factored=True)


@pytest.mark.parametrize("fault", ["nan-feature", "label-out-of-range"])
@pytest.mark.parametrize("runner", ["train", "finetune"])
def test_bad_rows_fail_the_run_before_its_first_step(monkeypatch, runner, fault):
    # The step checks features and labels once, when the run builds it: a
    # NaN feature raises NumericError (exit 4) and a label outside
    # [0, classes) ValueError (exit 3), and no step runs.
    steps = []
    real = nn.SGDStep.__call__
    monkeypatch.setattr(nn.SGDStep, "__call__", lambda step, *args: steps.append(args) or real(step, *args))
    net = dense_net(seed=60)
    rng = np.random.default_rng(61)
    x = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, size=12)
    if fault == "nan-feature":
        x[7, 2] = np.nan
        error, code = NumericError, cli.EXIT_NUMERIC
    else:
        y[5] = 3
        error, code = ValueError, cli.EXIT_VALIDATION
    if runner == "train":
        rows = types.SimpleNamespace(features=x, labels=y)
        schedule = nn.TrainSchedule(lr=0.1, epochs=3, batch_size=4)

        def run():
            return nn.train(net, rows, rows, schedule)
    else:
        labeled = unlearn.PseudoLabeledSet(features=x, original_labels=y, assigned_labels=y, labeling="keep")

        def run():
            return unlearn._finetune(net, labeled, None, plan(variant="gradient-ascent", epochs=3, batch_size=4))

    with pytest.raises(error):
        run()
    with pytest.raises(SystemExit) as caught:
        cli._guarded(run)()
    assert (caught.value.code, cli.EXIT_NUMERIC, cli.EXIT_VALIDATION) == (code, 4, 3)
    assert steps == []


@pytest.mark.parametrize("mode", ["preset", "exact"])
def test_projected_run_freezes_the_spanned_input_layer(preset, monkeypatch, mode):
    # Layer 0's basis spans its 3-wide input in both modes: its weights come
    # back as the original's bits, and each step trains layers 1 and 2 only.
    cfg, sp, net_o, caches = preset
    projector = caches[mode].for_excluded(0)
    assert projector.bases[0].shape == (3, 3)
    run = dataclasses.replace(cfg.unlearn_plan(), epochs=5)
    labeled = unlearn.pseudo_label_set(net_o, sp.d_u, run.unlearn_classes)
    _finetune_against_oracle(monkeypatch, net_o, labeled, projector, run, frozen=1, factored=True)


@pytest.mark.parametrize("mode", ["preset", "exact"])
def test_the_full_calibrated_plan_matches_the_oracle(preset, monkeypatch, mode):
    # The preset's own plan, 50 epochs of batch 25: layer 1 trains in
    # forget-row coordinates for 100 steps and stays within rounding of
    # projecting each full gradient.
    cfg, sp, net_o, caches = preset
    run = cfg.unlearn_plan()
    assert (run.epochs, run.batch_size) == (50, 25)
    labeled = unlearn.pseudo_label_set(net_o, sp.d_u, run.unlearn_classes)
    _finetune_against_oracle(monkeypatch, net_o, labeled, caches[mode].for_excluded(0), run, frozen=1, factored=True)


def test_basis_that_spans_no_layer_trains_the_full_network(preset, monkeypatch):
    cfg, sp, net_o, caches = preset
    projector = caches["preset"].for_excluded(0)
    cut = dataclasses.replace(
        projector,
        bases=[projector.bases[0][:, :2]] + projector.bases[1:],
        ranks=(2,) + projector.ranks[1:],
    )
    run = dataclasses.replace(cfg.unlearn_plan(), epochs=5)
    labeled = unlearn.pseudo_label_set(net_o, sp.d_u, run.unlearn_classes)
    # 50 forget rows, more than 1.5 times layer 0's 3 inputs: it trains on its projected gradients.
    _finetune_against_oracle(monkeypatch, net_o, labeled, cut, run, frozen=0, factored=False)


def test_identity_bases_on_two_layers_freeze_both(preset, monkeypatch):
    cfg, sp, net_o, caches = preset
    projector = caches["preset"].for_excluded(0)
    identity = dataclasses.replace(
        projector,
        bases=[np.eye(3), np.eye(193), projector.bases[2]],
        ranks=(3, 193, projector.ranks[2]),
    )
    run = dataclasses.replace(cfg.unlearn_plan(), epochs=5)
    labeled = unlearn.pseudo_label_set(net_o, sp.d_u, run.unlearn_classes)
    # The head alone trains, in forget-row coordinates.
    _finetune_against_oracle(monkeypatch, net_o, labeled, identity, run, frozen=2, factored=True)


def _wide_forget_set(m):
    """The toy network, m random forget rows and a basis that spans layer 0 and half of each later layer."""
    net = toy_net(seed=70)
    rng = np.random.default_rng(71)
    bases = [np.eye(3)] + [np.linalg.qr(rng.standard_normal((n, n)))[0][:, : n // 2] for n in (193, 193)]
    projector = subspace.NullProjector(
        merged_classes=(1, 2, 3),
        excluded_classes=(0,),
        epsilons=(1.0,) * 3,
        bases=bases,
        ranks=tuple(b.shape[1] for b in bases),
    )
    x = rng.standard_normal((m, 2))
    y = rng.integers(1, 4, size=m)
    labeled = unlearn.PseudoLabeledSet(features=x, original_labels=np.zeros(m), assigned_labels=y, labeling="pseudo")
    return net, labeled, projector


@pytest.mark.parametrize("m", [289, 290])
def test_forget_row_coordinates_reach_one_and_a_half_input_widths(monkeypatch, m):
    # Layer 1 reads 193 augmented inputs: 289 forget rows train it in
    # forget-row coordinates, 290 on its projected gradients; both match the oracle.
    net, labeled, projector = _wide_forget_set(m)
    run = plan(lr=0.01, epochs=2, batch_size=25)
    _finetune_against_oracle(monkeypatch, net, labeled, projector, run, frozen=1, factored=m <= 289)


def test_a_large_forget_set_takes_the_gradient_path_in_less_than_its_block(monkeypatch):
    # 1600 forget rows: the m x m block of forget-row coordinates alone would
    # take 8 m^2 bytes (20.5 MB).  The run trains layer 1 on its gradients
    # and its peak stays below that.
    m = 1600
    net, labeled, projector = _wide_forget_set(m)
    factored = []
    real = nn.SGDStep.__call__
    monkeypatch.setattr(
        nn.SGDStep, "__call__", lambda step, rows=None, preact0=None: factored.append(preact0 is not None)
        or real(step, rows, preact0),
    )
    tracemalloc.start()
    try:
        unlearn._finetune(net, labeled, projector, plan(lr=0.01, epochs=1, batch_size=25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factored == [False] * 64
    assert peak < 8 * m * m


@pytest.mark.parametrize("spanned, frozen", [(1, 0), (2, 2)], ids=["conv0-falls-back", "conv-prefix"])
def test_spanning_conv_layers_freeze_only_in_front_of_a_dense_layer(monkeypatch, spanned, frozen):
    # conv -> conv (stride 2) -> dense -> dense.  A spanned conv0 alone feeds a
    # conv layer, so the full network trains on full gradients; spanned conv0
    # and conv1 feed the first dense layer and are frozen, and its 17 inputs
    # take the 7 forget rows in forget-row coordinates.
    net, x = _kernel_cases()[2]
    rng = np.random.default_rng(7)
    bases = []
    for li, w in enumerate(net.weights):
        n = w.shape[1]
        bases.append(np.linalg.qr(rng.standard_normal((n, n)))[0][:, : n if li < spanned else n // 2])
    projector = subspace.NullProjector(
        merged_classes=(1, 2),
        excluded_classes=(0,),
        epsilons=(1.0,) * len(bases),
        bases=bases,
        ranks=tuple(b.shape[1] for b in bases),
    )
    y = rng.integers(0, 3, size=len(x))
    labeled = unlearn.PseudoLabeledSet(features=x, original_labels=y, assigned_labels=y, labeling="keep")
    run = plan(lr=0.1, epochs=3, batch_size=3)
    _finetune_against_oracle(monkeypatch, net, labeled, projector, run, frozen=frozen, factored=frozen > 0)


def test_zero_epochs_and_plain_runs_forward_no_prefix(preset, monkeypatch):
    # Only a projected run with steps to take records the forget set's layer inputs.
    cfg, sp, net_o, caches = preset
    recorded = []
    real = nn.forward

    def spy(net, batch, record=False):
        recorded.append(record)
        return real(net, batch, record)

    monkeypatch.setattr(nn, "forward", spy)
    calibrated = cfg.unlearn_plan()
    res = unlearn.baseline_unlearn(net_o, sp.d_u, dataclasses.replace(calibrated, epochs=0), caches["preset"])
    assert res.epoch_losses == []
    assert all(w.tobytes() == w0.tobytes() for w, w0 in zip(res.network.weights, net_o.weights))
    unlearn.baseline_unlearn(net_o, sp.d_u, dataclasses.replace(cfg.unlearn_plan("random-label"), epochs=1))
    assert not any(recorded)
    unlearn.baseline_unlearn(net_o, sp.d_u, dataclasses.replace(calibrated, epochs=1), caches["preset"])
    assert recorded.count(True) == 1


def test_gradient_ascent_raises_forget_loss(fitted):
    net, sp, _ = fitted
    ga = plan(variant="gradient-ascent", lr=0.005, epochs=5)
    res = unlearn.baseline_unlearn(net, sp.d_u, ga)
    assert nn.mean_loss(res.network, sp.d_u.features, sp.d_u.labels) > nn.mean_loss(
        net, sp.d_u.features, sp.d_u.labels
    )
    assert res.epoch_losses[-1] > res.epoch_losses[0]


def test_gradient_ascent_stops_once_worse_than_chance(fitted):
    # Unbounded ascent overflows the weights; it stops past the uniform-guess loss.
    net, sp, _ = fitted
    ga = plan(variant="gradient-ascent", lr=0.05, epochs=200)
    res = unlearn.baseline_unlearn(net, sp.d_u, ga)
    assert len(res.epoch_losses) < 200
    assert res.epoch_losses[-1] > math.log(net.n_classes) >= max(res.epoch_losses[:-1])


def test_gradient_ascent_stops_at_the_step_its_running_mean_passes_chance(fitted, monkeypatch):
    # Batch 1 gives one step per forget sample; the stop rule runs after each step.
    net, sp, _ = fitted
    losses = []
    real = nn.SGDStep.__call__

    def spy(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        losses.append(loss)
        return loss, grads

    monkeypatch.setattr(nn.SGDStep, "__call__", spy)
    ga = plan(variant="gradient-ascent", lr=1.0, epochs=3, batch_size=1)
    res = unlearn.baseline_unlearn(net, sp.d_u, ga)
    assert len(losses) < len(sp.d_u)
    assert res.epoch_losses == [sum(losses) / len(losses)]
    running = np.cumsum(losses) / np.arange(1, len(losses) + 1)
    assert running[-1] > math.log(net.n_classes) >= running[:-1].max()


def test_random_label_baseline_runs_without_projection(fitted):
    net, sp, _ = fitted
    res = unlearn.baseline_unlearn(net, sp.d_u, plan(variant="random-label"))
    assert res.labeled.labeling == "random"
    assert (res.labeled.assigned_labels != res.labeled.original_labels).all()
    changed = any((w0 != w1).any() for w0, w1 in zip(net.weights, res.network.weights))
    assert changed


# ---------------------------------------------------------------------------
# retrain reference
# ---------------------------------------------------------------------------


def test_retrain_starts_fresh_and_fits_remaining(fitted):
    net, sp, _ = fitted
    schedule = nn.TrainSchedule(lr=0.2, epochs=60, batch_size=16, patience=None, seed=7)
    net_r = nn.train(nn.init_network(dense_specs(), (4,), seed=123), sp.d_r, sp.val_remaining, schedule)
    rem = sp.test_remaining
    assert nn.accuracy(net_r, rem.features, rem.labels) >= 0.9
    # The fresh initialization owes nothing to the original weights.
    fresh = nn.init_network(dense_specs(), (4,), seed=123)
    assert all((w.shape == f.shape) for w, f in zip(net_r.weights, fresh.weights))
    assert any((w0 != w1).any() for w0, w1 in zip(net.weights, net_r.weights))
