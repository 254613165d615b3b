"""Evaluation suite: utility, membership inference, weight change, orthogonality audit, loss contours.

Pure computation: nothing here writes a file.  Every report is a plain
dataclass of JSON-native fields, so the CLI writes `dataclasses.asdict(report)`
as its artifact record byte-stably, and writes the contour grid's table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .determinism import PortableRng, derive_seed
from .linalg import apply_projection, as_matrix
from .subspace import NullProjector


@dataclass
class UtilityReport:
    """Accuracy on remaining/unlearn test data plus per-class detail."""

    acc_remaining_test: float
    acc_unlearn_test: float
    per_class_acc: list
    loss_remaining: float


def utility(net: nn.Network, test_remaining, test_unlearn) -> UtilityReport:
    """Score a model on the remaining-class and the unlearn-class test sets.

    Every number comes from one forward pass over both sets stacked.  Either
    set empty is a ValueError.  Per-class accuracy covers the union, None for
    classes with no test samples.
    """
    for name, part in (("remaining", test_remaining), ("unlearn", test_unlearn)):
        if len(part) == 0:
            raise ValueError(f"{name} test set is empty; utility is undefined")
    n_r = len(test_remaining)
    all_y = np.concatenate([test_remaining.labels, test_unlearn.labels])
    logits, _ = nn.forward(net, np.vstack([test_remaining.features, test_unlearn.features]))
    preds = np.argmax(logits, axis=0)
    hits = preds == all_y
    acc_rt = float(np.mean(hits[:n_r]))
    acc_ut = float(np.mean(hits[n_r:]))
    loss_rt = nn.cross_entropy(logits[:, :n_r], all_y[:n_r])
    per_class = []
    for c in range(net.n_classes):
        mask = all_y == c
        per_class.append(float(np.mean(preds[mask] == c)) if mask.any() else None)
    return UtilityReport(
        acc_remaining_test=acc_rt,
        acc_unlearn_test=acc_ut,
        per_class_acc=per_class,
        loss_remaining=loss_rt,
    )


@dataclass
class MiaReport:
    """Confidence-threshold membership inference against the forget set.

    acc_mia is the fraction of forget-set samples the attack calls
    non-member: 1.0 means the model looks as if it never trained on them.
    """

    threshold: float
    acc_mia: float
    balanced_accuracy: float
    n_member: int
    n_nonmember: int
    member_confidence_mean: float
    nonmember_confidence_mean: float
    unlearn_confidence_mean: float
    member_source: str = "remaining-train"
    nonmember_source: str = "remaining-test"


def _max_confidence(net: nn.Network, features) -> np.ndarray:
    return nn.predict_proba(net, features).max(axis=0)


def mia(net: nn.Network, d_u, member_holdout, nonmember_holdout) -> MiaReport:
    """Fit a max-softmax threshold separating members from non-members, then attack d_u.

    The holdouts are balanced by truncation to the shorter length (leading
    rows; callers shuffle upstream).  A sample is predicted member when its
    confidence is >= the threshold.  The sweep tries every holdout confidence
    plus one sentinel above the maximum and keeps the threshold with the best
    balanced accuracy; ties choose the largest threshold, i.e. lean
    non-member, which also pins down the degenerate all-equal-confidence case.
    """
    if len(member_holdout) == 0 or len(nonmember_holdout) == 0:
        raise ValueError("membership holdouts must be non-empty")
    if len(d_u) == 0:
        raise ValueError("forget set is empty")
    n = min(len(member_holdout), len(nonmember_holdout))
    conf_m = _max_confidence(net, member_holdout.features[:n])
    conf_n = _max_confidence(net, nonmember_holdout.features[:n])
    candidates = np.unique(np.concatenate([conf_m, conf_n]))
    candidates = np.append(candidates, candidates[-1] + 1.0)
    # Counts below each candidate: members >= t are n minus those below t.
    tpr = (n - np.searchsorted(np.sort(conf_m), candidates, side="left")) / n
    tnr = np.searchsorted(np.sort(conf_n), candidates, side="left") / n
    scores = 0.5 * (tpr + tnr)
    best = len(scores) - 1 - int(np.argmax(scores[::-1]))  # the last maximum: the largest threshold
    best_t = float(candidates[best])
    best_score = float(scores[best])
    conf_u = _max_confidence(net, d_u.features)
    return MiaReport(
        threshold=best_t,
        acc_mia=float(np.mean(conf_u < best_t)),
        balanced_accuracy=best_score,
        n_member=int(n),
        n_nonmember=int(n),
        member_confidence_mean=float(conf_m.mean()),
        nonmember_confidence_mean=float(conf_n.mean()),
        unlearn_confidence_mean=float(conf_u.mean()),
    )


def weight_change(net_o: nn.Network, net_u: nn.Network) -> list:
    """Per layer, ||W_u - W_o||_F / ||W_o||_F: how far unlearning moved each weight matrix.

    Exactly 0.0 for a layer that kept the original's bits; None where the
    original layer is all zeros.
    """
    if [w.shape for w in net_o.weights] != [w.shape for w in net_u.weights]:
        raise ValueError("networks disagree on weight shapes")
    changes = []
    for w_o, w_u in zip(net_o.weights, net_u.weights):
        norm = float(np.linalg.norm(w_o))
        changes.append(float(np.linalg.norm(w_u - w_o)) / norm if norm else None)
    return changes


@dataclass
class AuditReport:
    """Worst-case overlap between the weight update and recorded remaining activations."""

    per_layer_residual: list
    loss_remaining_original: float | None
    loss_remaining_unlearned: float | None

    @property
    def loss_delta(self) -> float | None:
        if self.loss_remaining_original is None:
            return None
        return abs(self.loss_remaining_unlearned - self.loss_remaining_original)


def orthogonality_audit(
    net_o: nn.Network,
    net_u: nn.Network,
    remaining_trace: nn.ActivationTrace,
    remaining_set=None,
) -> AuditReport:
    """Per layer, max_r ||dW r|| / (||dW||_F ||r||) over recorded activation columns r.

    Zero for layers whose weights did not move.  When a remaining set is
    supplied, the report also carries both models' loss on it, whose absolute
    difference is the first-order guarantee being audited.
    """
    if len(net_o.weights) != len(net_u.weights):
        raise ValueError("networks disagree on layer count")
    if len(remaining_trace.per_layer) != len(net_o.weights):
        raise ValueError("trace and networks disagree on layer count")
    residuals = []
    for w_o, w_u, r in zip(net_o.weights, net_u.weights, remaining_trace.per_layer):
        if w_o.shape != w_u.shape:
            raise ValueError(f"weight shapes differ: {w_o.shape} vs {w_u.shape}")
        delta = w_u - w_o
        dnorm = float(np.linalg.norm(delta))
        if dnorm == 0.0:
            residuals.append(0.0)
            continue
        col_norms = np.linalg.norm(np.asarray(r), axis=0)
        hit = np.linalg.norm(delta @ r, axis=0)
        live = col_norms > 0.0
        residuals.append(float(np.max(hit[live] / (dnorm * col_norms[live]))))
    loss_o = loss_u = None
    if remaining_set is not None and len(remaining_set) > 0:
        loss_o = nn.mean_loss(net_o, remaining_set.features, remaining_set.labels)
        loss_u = nn.mean_loss(net_u, remaining_set.features, remaining_set.labels)
    return AuditReport(
        per_layer_residual=residuals,
        loss_remaining_original=loss_o,
        loss_remaining_unlearned=loss_u,
    )


@dataclass
class ContourGrid:
    """Remaining-set loss over a 2-D slice of weight space: alphas x betas."""

    alphas: list
    betas: list
    losses: list  # losses[i][j] at (alphas[i], betas[j])
    base_loss: float


def _check_direction(direction, weights, name: str) -> list:
    if len(direction) != len(weights):
        raise ValueError(f"{name} must supply one block per layer")
    blocks = []
    any_live = False
    for li, (d, w) in enumerate(zip(direction, weights)):
        block = as_matrix(d, f"{name} layer {li}")
        if block.shape != w.shape:
            raise ValueError(f"{name} layer {li}: shape {block.shape} does not match {w.shape}")
        norm = float(np.linalg.norm(block))
        if norm != 0.0 and abs(norm - 1.0) > 1.0e-8:
            raise ValueError(
                f"{name} layer {li}: direction must be unit Frobenius norm or zero, got {norm}"
            )
        any_live = any_live or norm != 0.0
        blocks.append(block)
    if not any_live:
        raise ValueError(f"{name} is zero at every layer")
    return blocks


def loss_contour(net: nn.Network, null_dir, off_dir, alphas, betas, remaining_set) -> ContourGrid:
    """L(theta + alpha * null_dir + beta * off_dir) on the remaining set.

    Directions are per-layer blocks, each unit Frobenius norm or identically
    zero (a layer whose null space is trivial contributes a zero block).
    Both axes must contain 0.0 so the grid's center is exactly the
    unperturbed loss.  Each layer is linear in its own weights: with p the
    first layer whose null_dir block is nonzero, layer p's pre-activation on
    a line of constant beta is (W_p + beta O_p) a + alpha (N_p a), its input
    a shared by the whole line.  Each beta line is one `nn.map_shares` job:
    per `nn.SCORE_BLOCK` block of `nn.forward`, it forms those two products
    once, then runs the layers after p per cell, in buffers it allocates
    once.  The center cell is bit-equal to `nn.mean_loss` and the grid the
    same bits for any thread count; other cells agree to rounding, ~1e-16.
    """
    n_blocks = _check_direction(null_dir, net.weights, "null_dir")
    o_blocks = _check_direction(off_dir, net.weights, "off_dir")
    alphas = [float(a) for a in alphas]
    betas = [float(b) for b in betas]
    if 0.0 not in alphas or 0.0 not in betas:
        raise ValueError("both contour axes must contain 0.0 for an exact center cell")
    if len(remaining_set) == 0:
        raise ValueError("remaining set is empty")
    p = next(li for li, nb in enumerate(n_blocks) if nb.any())
    x = nn._batch_matrix(net, remaining_set.features)
    y = np.asarray(remaining_set.labels, dtype=np.int64)
    rows = min(nn.SCORE_BLOCK, len(x))

    def line(b):
        probe = net.copy()
        for w, w0, ob in zip(probe.weights[: p + 1], net.weights, o_blocks):
            np.multiply(ob, b, out=w)
            w += w0
        tail = list(zip(probe.weights, net.weights, n_blocks, o_blocks))[p + 1 :]
        buffers = nn._block_buffers(net, rows, resume_at=p)
        c_flat, d_flat = np.empty((2, math.prod(net._plan[p][1]) * rows))  # layer p's outputs per block
        logits = np.empty((len(alphas), net.n_classes, len(x)))
        for start in range(0, len(x), nn.SCORE_BLOCK):
            block = slice(start, start + nn.SCORE_BLOCK)
            a = nn._layers(probe, x[block], buffers, stop=p)
            size = net.weights[p].shape[0] * a.shape[1]
            c = np.matmul(probe.weights[p], a, out=c_flat[:size].reshape(-1, a.shape[1]))
            d = np.matmul(n_blocks[p], a, out=d_flat[:size].reshape(-1, a.shape[1]))
            for cell, alpha in zip(logits, alphas):
                for w, w0, nb, ob in tail:
                    np.multiply(nb, alpha, out=w)
                    w += w0
                    w += b * ob
                nn._layers(probe, x[block], buffers[::-1], out=cell[:, block],
                           resume=(p, lambda out=None: np.add(c, np.multiply(d, alpha, out=out), out=out)))
        return [nn.cross_entropy(cell, y) for cell in logits]

    losses = [list(row) for row in zip(*nn.map_shares(line, betas))]
    base = losses[alphas.index(0.0)][betas.index(0.0)]
    return ContourGrid(alphas=alphas, betas=betas, losses=losses, base_loss=base)


def contour_directions(projector: NullProjector, net: nn.Network, seed: int):
    """Seeded unit per-layer directions inside (null_dir) and off (off_dir) the null space.

    Gaussian blocks are projected off the retained basis B, g - (g B) B^T
    (null), and onto it, (g B) B^T (retained), and normalized per layer; a
    block whose projection norm falls below 1e-12 is left identically zero,
    which happens exactly when that layer's null space (or retained space) is
    trivial.
    """
    rng = PortableRng(derive_seed(seed, "contour"))
    null_dir = []
    off_dir = []
    for w, b in zip(net.weights, projector.bases):
        g_null = rng.standard_normal(w.shape)
        g_off = rng.standard_normal(w.shape)
        nb = apply_projection(g_null, b)
        ob = g_off - apply_projection(g_off, b)
        n_norm = float(np.linalg.norm(nb))
        o_norm = float(np.linalg.norm(ob))
        null_dir.append(nb / n_norm if n_norm > 1.0e-12 else np.zeros_like(w))
        off_dir.append(ob / o_norm if o_norm > 1.0e-12 else np.zeros_like(w))
    return null_dir, off_dir


@dataclass
class AgreementReport:
    """How closely pseudo-labels match what a retrained model would predict."""

    agreement: float
    pseudo_histogram: list
    retrain_histogram: list


def pseudo_label_agreement(labeled, net_r: nn.Network) -> AgreementReport:
    """Fraction of forget samples whose pseudo-label equals the retrained model's prediction.

    Both histograms count labels over all classes and sum to the forget-set size.
    """
    if labeled.assigned_labels.size == 0:
        raise ValueError("labeled forget set is empty")
    preds = nn.predict(net_r, labeled.features)
    k = net_r.n_classes
    pseudo_hist = np.bincount(labeled.assigned_labels, minlength=k)[:k]
    retrain_hist = np.bincount(preds, minlength=k)[:k]
    return AgreementReport(
        agreement=float(np.mean(preds == labeled.assigned_labels)),
        pseudo_histogram=pseudo_hist.tolist(),
        retrain_histogram=retrain_hist.tolist(),
    )
