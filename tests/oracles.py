"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately naive -- explicit loops, one row at a time,
or plain LAPACK calls without the package's validation, sign convention or
noise floor -- so agreement with the library is evidence, not circularity.
"""

import numpy as np

from nullspace_unlearn import nn


def reference_singular_values(a):
    """LAPACK singular values, descending, straight from numpy with no wrapper."""
    return np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)


def reference_column_space_projector(a):
    """Orthogonal projector onto the column space of a, via LAPACK SVD."""
    a = np.asarray(a, dtype=np.float64)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = (s[0] if s.size else 0.0) * max(a.shape) * np.finfo(np.float64).eps
    keep = u[:, s > tol]
    return keep @ keep.T


def rank_by_energy_loop(s, epsilon):
    """Smallest k whose leading k squared singular values reach epsilon energy.

    The running sum accumulates left to right in float64, matching the
    arithmetic of a cumulative sum exactly, so comparisons are bit-honest.
    """
    s = np.asarray(s, dtype=np.float64)
    energy = s * s
    total = energy.sum()
    running = 0.0
    for k, e in enumerate(energy, start=1):
        running += e
        if running >= epsilon * total:
            return k
    return len(s)


def naive_conv_forward(maps, weight, kernel_size, stride):
    """Quadruple-loop cross-correlation with a trailing bias column.

    maps: (n, c, h, w); weight: (out_channels, c*k*k + 1) in channel-major,
    then kernel-row, then kernel-column order.  Returns (n, o, ho, wo).
    """
    maps = np.asarray(maps, dtype=np.float64)
    n, c, h, w = maps.shape
    k, st = kernel_size, stride
    out_channels = weight.shape[0]
    kernels = weight[:, :-1].reshape(out_channels, c, k, k)
    bias = weight[:, -1]
    ho = (h - k) // st + 1
    wo = (w - k) // st + 1
    out = np.zeros((n, out_channels, ho, wo))
    for s_i in range(n):
        for o in range(out_channels):
            for i in range(ho):
                for j in range(wo):
                    acc = bias[o]
                    for ci in range(c):
                        for kh in range(k):
                            for kw in range(k):
                                acc += kernels[o, ci, kh, kw] * maps[s_i, ci, i * st + kh, j * st + kw]
                    out[s_i, o, i, j] = acc
    return out


def finite_difference_grads(loss_fn, weights, step=1e-6, max_entries=60, seed=0):
    """Central differences of loss_fn(weights) for a sample of weight entries.

    Returns a list of (layer, i, j, derivative) tuples.  Entries are sampled
    with an independent numpy Generator so the package RNG is not involved.
    """
    rng = np.random.default_rng(seed)
    picks = []
    for li, w in enumerate(weights):
        flat = w.size
        count = min(max_entries // len(weights) + 1, flat)
        for idx in rng.choice(flat, size=count, replace=False):
            i, j = np.unravel_index(idx, w.shape)
            picks.append((li, int(i), int(j)))
    out = []
    for li, i, j in picks:
        orig = weights[li][i, j]
        weights[li][i, j] = orig + step
        up = loss_fn(weights)
        weights[li][i, j] = orig - step
        down = loss_fn(weights)
        weights[li][i, j] = orig
        out.append((li, i, j, (up - down) / (2.0 * step)))
    return out


def row_span_residual(grad, aug_inputs):
    """Relative residual of fitting gradient rows inside span(activation columns).

    Dense-layer loss gradients are linear combinations of the augmented input
    columns; lstsq measures how much of the gradient lies outside that span.
    """
    g = np.asarray(grad, dtype=np.float64)
    r = np.asarray(aug_inputs, dtype=np.float64)
    coef, *_ = np.linalg.lstsq(r, g.T, rcond=None)
    resid = g.T - r @ coef
    denom = np.linalg.norm(g)
    return float(np.linalg.norm(resid) / denom) if denom > 0 else 0.0


def best_balanced_threshold(conf_member, conf_nonmember):
    """Exhaustive threshold sweep; ties resolved toward the larger threshold.

    Mirrors the attack contract from first principles: member means
    confidence >= t, candidates are every observed confidence plus a
    sentinel above the maximum.
    """
    conf_member = np.asarray(conf_member, dtype=np.float64)
    conf_nonmember = np.asarray(conf_nonmember, dtype=np.float64)
    candidates = sorted(set(conf_member) | set(conf_nonmember))
    candidates.append(candidates[-1] + 1.0)
    scored = []
    for t in candidates:
        tpr = np.mean(conf_member >= t)
        tnr = np.mean(conf_nonmember < t)
        scored.append((0.5 * (tpr + tnr), t))
    best_score = max(s for s, _ in scored)
    best_t = max(t for s, t in scored if s == best_score)
    return best_t, best_score


def utility_by_set(net, test_remaining, test_unlearn=None):
    """The utility report as JSON, scoring each set with its own forward passes.

    Remaining accuracy and loss, forget accuracy and the predictions on the
    union each come from a separate nn.accuracy / nn.mean_loss / nn.predict
    call, so every test row goes through the network more than once.
    """
    x, y = test_remaining.features, test_remaining.labels
    acc_unlearn = None
    if test_unlearn is not None and len(test_unlearn) > 0:
        acc_unlearn = nn.accuracy(net, test_unlearn.features, test_unlearn.labels)
        x = np.vstack([x, test_unlearn.features])
        y = np.concatenate([y, test_unlearn.labels])
    preds = nn.predict(net, x)
    per_class = []
    for c in range(net.n_classes):
        mask = y == c
        per_class.append(float(np.mean(preds[mask] == c)) if mask.any() else None)
    return {
        "acc_remaining_test": nn.accuracy(net, test_remaining.features, test_remaining.labels),
        "acc_unlearn_test": acc_unlearn,
        "per_class_acc": per_class,
        "loss_remaining": nn.mean_loss(net, test_remaining.features, test_remaining.labels),
    }


def gram_schmidt_rank(a, tol=1e-10):
    """Column rank by classical Gram-Schmidt with re-orthogonalization."""
    a = np.asarray(a, dtype=np.float64)
    basis = []
    for col in a.T:
        v = col.astype(np.float64).copy()
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > tol * max(1.0, np.linalg.norm(col)):
            basis.append(v / norm)
    return len(basis)


def pseudo_label(net_o, x, y, unlearn_classes):
    """One sample's pseudo-label: the original model's most probable class outside the unlearn set.

    Scored one row at a time, lowest index on ties.
    """
    classes = sorted(int(c) for c in unlearn_classes)
    y = int(y)
    if y not in classes:
        raise ValueError(f"sample label {y} is not an unlearn class {classes}")
    if set(classes) >= set(range(net_o.n_classes)):
        raise ValueError("unlearn classes cover every class; no pseudo-label target remains")
    probs = nn.predict_proba(net_o, np.asarray(x, dtype=np.float64).reshape(1, -1))[:, 0]
    masked = probs.copy()
    masked[classes] = -np.inf
    return int(np.argmax(masked))
