"""Evaluation suite: utility, membership inference, audit, contour, agreement."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from conftest import blob_splits, dense_net, dense_specs, trained_dense_net
from nullspace_unlearn import data, evaluate, linalg, nn, subspace, unlearn


@pytest.fixture(scope="module")
def fitted():
    net, sp = trained_dense_net(seed=60)
    return net, sp


def constant_net(n_classes=3, d=4):
    """Zero weights: identical logits everywhere, uniform softmax."""
    specs = dense_specs(n_classes=n_classes, d=d)
    return nn.Network(specs=specs, weights=[np.zeros(s.weight_shape()) for s in specs], input_shape=(d,))


# ---------------------------------------------------------------------------
# utility
# ---------------------------------------------------------------------------


def test_utility_on_a_fitted_model(fitted):
    net, sp = fitted
    rep = evaluate.utility(net, sp.test_remaining, sp.test_unlearn)
    assert rep.acc_remaining_test >= 0.9
    assert rep.acc_unlearn_test >= 0.9
    assert len(rep.per_class_acc) == 3
    assert all(v is not None for v in rep.per_class_acc)
    assert rep.loss_remaining >= 0.0
    js = rep.to_json()
    assert set(js) == {"acc_remaining_test", "acc_unlearn_test", "per_class_acc", "loss_remaining"}


def test_utility_constant_model_scores_chance(fitted):
    # All-equal logits predict class 0 everywhere (ties to the lowest index):
    # remaining test data holds classes 1 and 2 only, so accuracy is zero.
    _, sp = fitted
    rep = evaluate.utility(constant_net(), sp.test_remaining, sp.test_unlearn)
    assert rep.acc_remaining_test == 0.0
    assert rep.acc_unlearn_test == 1.0  # every class-0 sample "predicted" 0
    assert rep.per_class_acc[1] == 0.0 and rep.per_class_acc[2] == 0.0


def test_utility_without_unlearn_set(fitted):
    net, sp = fitted
    rep = evaluate.utility(net, sp.test_remaining)
    assert rep.acc_unlearn_test is None
    assert rep.per_class_acc[0] is None  # class 0 absent from the scored data
    with pytest.raises(ValueError, match="empty"):
        evaluate.utility(net, sp.test_remaining.subset(np.array([], dtype=int)))


def test_utility_runs_one_forward_pass(fitted, monkeypatch):
    net, sp = fitted
    rows = []
    real = nn.forward

    def spy(model, batch, record=False):
        rows.append(len(batch))
        return real(model, batch, record)

    monkeypatch.setattr(nn, "forward", spy)
    evaluate.utility(net, sp.test_remaining, sp.test_unlearn)
    assert rows == [len(sp.test_remaining) + len(sp.test_unlearn)]
    rows.clear()
    evaluate.utility(net, sp.test_remaining)
    assert rows == [len(sp.test_remaining)]


def test_utility_peak_memory(monkeypatch):
    # The toy preset's net on the bench's 19,800 test rows, scored by two
    # workers: about 4.1 MiB above the start, against 59 MiB when one
    # forward held two 193 x 19,800 activations.
    specs = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=2, out_features=192),
        nn.LayerSpec(kind="dense", activation="relu", in_features=192, out_features=192),
        nn.LayerSpec(kind="dense", activation="identity", in_features=192, out_features=4),
    )
    net = nn.init_network(specs, input_shape=(2,), seed=1)
    rng = np.random.default_rng(0)
    remaining = data.Dataset(
        features=rng.standard_normal((14850, 2)), labels=rng.integers(1, 4, 14850), n_classes=4, provenance={}
    )
    forget = data.Dataset(
        features=rng.standard_normal((4950, 2)), labels=np.zeros(4950, dtype=np.int64), n_classes=4, provenance={}
    )
    monkeypatch.setattr(nn, "_WORKERS", 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evaluate.utility(net, remaining, forget)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"peak traced memory {peak / 2**20:.2f} MiB"


def test_utility_equals_the_per_set_oracle(fitted):
    net, sp = fitted
    for model in (net, constant_net()):
        for test_unlearn in (sp.test_unlearn, None):
            rep = evaluate.utility(model, sp.test_remaining, test_unlearn)
            assert rep.to_json() == oracles.utility_by_set(model, sp.test_remaining, test_unlearn)


# ---------------------------------------------------------------------------
# membership inference
# ---------------------------------------------------------------------------


def test_mia_threshold_matches_brute_force_oracle(fitted, monkeypatch):
    net, sp = fitted
    member = sp.d_r
    nonmember = sp.test_remaining
    n = min(len(member), len(nonmember))
    exact = evaluate._max_confidence

    def rounded(model, features):
        return np.round(exact(model, features), 1)

    # The second case rounds confidences to one decimal, so most candidates tie.
    for confidence in (exact, rounded):
        monkeypatch.setattr(evaluate, "_max_confidence", confidence)
        rep = evaluate.mia(net, sp.d_u, member, nonmember)
        conf_m = nn.predict_proba(net, member.features[:n]).max(axis=0)
        conf_n = nn.predict_proba(net, nonmember.features[:n]).max(axis=0)
        conf_u = nn.predict_proba(net, sp.d_u.features).max(axis=0)
        if confidence is rounded:
            conf_m, conf_n, conf_u = (np.round(c, 1) for c in (conf_m, conf_n, conf_u))
            assert np.unique(np.concatenate([conf_m, conf_n])).size < n // 4
        t_ref, score_ref = oracles.best_balanced_threshold(conf_m, conf_n)
        assert rep.threshold == t_ref
        assert rep.balanced_accuracy == pytest.approx(score_ref)
        assert rep.acc_mia == pytest.approx(float(np.mean(conf_u < t_ref)))
        assert rep.n_member == rep.n_nonmember == n


def test_mia_on_uniform_confidences_leans_nonmember(fitted):
    # A constant model gives every sample confidence 1/3; the tie rule picks
    # the sentinel threshold, so every forget sample is called non-member.
    _, sp = fitted
    rep = evaluate.mia(constant_net(), sp.d_u, sp.d_r, sp.test_remaining)
    assert rep.acc_mia == 1.0
    assert rep.balanced_accuracy == pytest.approx(0.5)
    assert rep.threshold > 1.0 / 3.0


def test_mia_holdouts_balanced_by_truncation(fitted):
    net, sp = fitted
    short = sp.test_remaining.subset(np.arange(7))
    rep = evaluate.mia(net, sp.d_u, sp.d_r, short)
    assert rep.n_member == rep.n_nonmember == 7


def test_mia_validation(fitted):
    net, sp = fitted
    empty = sp.d_r.subset(np.array([], dtype=int))
    with pytest.raises(ValueError, match="non-empty"):
        evaluate.mia(net, sp.d_u, empty, sp.test_remaining)
    with pytest.raises(ValueError, match="forget set"):
        evaluate.mia(net, empty, sp.d_r, sp.test_remaining)


def test_mia_sources_recorded(fitted):
    net, sp = fitted
    rep = evaluate.mia(net, sp.d_u, sp.d_r, sp.test_remaining, member_source="a", nonmember_source="b")
    assert rep.member_source == "a" and rep.nonmember_source == "b"


# ---------------------------------------------------------------------------
# orthogonality audit
# ---------------------------------------------------------------------------


def test_audit_identical_networks_report_zero(fitted):
    net, sp = fitted
    _, trace = nn.forward(net, sp.d_r.features, record=True)
    rep = evaluate.orthogonality_audit(net, net.copy(), trace, sp.d_r)
    assert rep.per_layer_residual == [0.0, 0.0]
    assert rep.loss_delta == 0.0


def test_audit_flags_updates_that_hit_the_activations(fitted):
    net, sp = fitted
    _, trace = nn.forward(net, sp.d_r.features, record=True)
    bumped = net.copy()
    bumped.weights[0] = bumped.weights[0] + 0.5  # rank-one constant shift, far from orthogonal
    rep = evaluate.orthogonality_audit(net, bumped, trace)
    assert rep.per_layer_residual[0] > 0.1
    assert rep.loss_remaining_original is None and rep.loss_delta is None


def test_audit_passes_null_space_updates(fitted):
    # Move weights only along the null space of the recorded activations:
    # the audit residual must sit at numerical-noise level.
    net, sp = fitted
    build = sp.d_r
    _, trace = nn.forward(net, build.features, record=True)
    subs = {
        c: subspace.class_subspace(net, sp.train.class_filter((c,), keep=True)) for c in (1, 2)
    }
    proj = subspace.merge_null_projector([subs[1], subs[2]], 1.0)
    moved = net.copy()
    rng = np.random.default_rng(3)
    for w, b in zip(moved.weights, proj.bases):
        w += 0.05 * linalg.apply_projection(rng.standard_normal(w.shape), b)
    rep = evaluate.orthogonality_audit(net, moved, trace, build)
    assert max(rep.per_layer_residual) <= 1e-6
    assert rep.loss_delta <= 1e-4


def test_audit_shape_validation(fitted):
    net, sp = fitted
    _, trace = nn.forward(net, sp.d_r.features[:4], record=True)
    other = dense_net(seed=1, hidden=6)
    with pytest.raises(ValueError):
        evaluate.orthogonality_audit(net, other, trace)
    short = nn.ActivationTrace(per_layer=trace.per_layer[:1])
    with pytest.raises(ValueError):
        evaluate.orthogonality_audit(net, net, short)


# ---------------------------------------------------------------------------
# loss contour
# ---------------------------------------------------------------------------


def unit_blocks(net, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for w in net.weights:
        b = rng.standard_normal(w.shape)
        blocks.append(b / np.linalg.norm(b))
    return blocks


def test_contour_center_is_the_unperturbed_loss(fitted):
    net, sp = fitted
    grid = evaluate.loss_contour(
        net,
        unit_blocks(net, 1),
        unit_blocks(net, 2),
        alphas=[-0.1, 0.0, 0.1],
        betas=[-0.1, 0.0, 0.1],
        remaining_set=sp.test_remaining,
    )
    base = nn.mean_loss(net, sp.test_remaining.features, sp.test_remaining.labels)
    assert grid.base_loss == base
    assert grid.losses[1][1] == base
    assert np.isfinite(np.asarray(grid.losses)).all()


def test_contour_validation(fitted):
    net, sp = fitted
    good = unit_blocks(net, 1)
    with pytest.raises(ValueError, match="contain 0.0"):
        evaluate.loss_contour(net, good, unit_blocks(net, 2), [-0.1, 0.1], [0.0], sp.test_remaining)
    bad = [b * 2.0 for b in good]
    with pytest.raises(ValueError, match="unit Frobenius"):
        evaluate.loss_contour(net, bad, unit_blocks(net, 2), [0.0], [0.0], sp.test_remaining)
    zeros = [np.zeros_like(w) for w in net.weights]
    with pytest.raises(ValueError, match="zero at every layer"):
        evaluate.loss_contour(net, zeros, unit_blocks(net, 2), [0.0], [0.0], sp.test_remaining)
    with pytest.raises(ValueError, match="one block per layer"):
        evaluate.loss_contour(net, good[:1], unit_blocks(net, 2), [0.0], [0.0], sp.test_remaining)


def test_contour_csv_format(fitted, tmp_path):
    net, sp = fitted
    grid = evaluate.loss_contour(
        net, unit_blocks(net, 1), unit_blocks(net, 2), [0.0, 0.1], [0.0], sp.test_remaining
    )
    path = tmp_path / "contour.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,beta,loss"
    assert len(lines) == 1 + 2 * 1
    a, b, l = lines[1].split(",")
    assert float(a) == 0.0 and float(b) == 0.0
    assert float(l) == grid.losses[0][0]


def test_contour_directions_are_unit_and_separated(fitted):
    net, sp = fitted
    subs = {
        c: subspace.class_subspace(net, sp.train.class_filter((c,), keep=True)) for c in (1, 2)
    }
    proj = subspace.merge_null_projector([subs[1], subs[2]], 0.99, excluded_classes=(0,))
    null_dir, off_dir = evaluate.contour_directions(proj, net, seed=9)
    for nb, ob, b in zip(null_dir, off_dir, proj.bases):
        p = linalg.null_projector(b)
        n_norm = np.linalg.norm(nb)
        o_norm = np.linalg.norm(ob)
        assert n_norm == pytest.approx(1.0) or n_norm == 0.0
        assert o_norm == pytest.approx(1.0) or o_norm == 0.0
        # Null blocks live in the projector's range, off blocks in its kernel.
        npt.assert_allclose(nb @ p, nb, atol=1e-10)
        npt.assert_allclose(ob @ p, np.zeros_like(ob), atol=1e-10)
    assert evaluate.contour_directions(proj, net, seed=9)[0][0] == pytest.approx(null_dir[0])


def test_contour_directions_zero_block_for_trivial_null_space(fitted):
    net, _ = fitted
    # A spanning "retained" subspace leaves no null directions at all.
    full = subspace.NullProjector(
        merged_classes=(1, 2),
        excluded_classes=(0,),
        epsilons=(1.0, 1.0),
        bases=[np.eye(w.shape[1]) for w in net.weights],
        ranks=(5, 9),
    )
    null_dir, off_dir = evaluate.contour_directions(full, net, seed=4)
    for nb, ob in zip(null_dir, off_dir):
        npt.assert_array_equal(nb, np.zeros_like(nb))
        assert np.linalg.norm(ob) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# pseudo-label agreement
# ---------------------------------------------------------------------------


def test_agreement_against_a_perfect_twin(fitted):
    net, sp = fitted
    labeled = unlearn.pseudo_label_set(net, sp.d_u, (0,))
    # Scoring the pseudo-labels against the very model that produced them is
    # perfect agreement as long as nothing ties; d_u predictions avoid class 0
    # only in the masked rule, so build a reference that agrees by construction.
    preds = nn.predict(net, sp.d_u.features)
    rep = evaluate.pseudo_label_agreement(labeled, net)
    assert rep.agreement == pytest.approx(float(np.mean(preds == labeled.assigned_labels)))
    assert sum(rep.pseudo_histogram) == len(sp.d_u)
    assert sum(rep.retrain_histogram) == len(sp.d_u)
    assert rep.pseudo_histogram[0] == 0  # pseudo-labels never name the forget class


def test_agreement_known_fractions():
    net = constant_net()
    labeled = unlearn.PseudoLabeledSet(
        features=np.zeros((4, 4)),
        original_labels=[1, 1, 1, 1],
        assigned_labels=[0, 0, 2, 2],
        labeling="pseudo",
    )
    rep = evaluate.pseudo_label_agreement(labeled, net)  # constant net predicts 0
    assert rep.agreement == 0.5
    assert rep.pseudo_histogram == [2, 0, 2]
    assert rep.retrain_histogram == [4, 0, 0]
    with pytest.raises(ValueError, match="empty"):
        evaluate.pseudo_label_agreement(
            unlearn.PseudoLabeledSet(
                features=np.zeros((0, 4)),
                original_labels=np.zeros(0, dtype=int),
                assigned_labels=np.zeros(0, dtype=int),
                labeling="keep",
            ),
            net,
        )
