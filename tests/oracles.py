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


def reference_forward(net, batch):
    """The forward pass before dense layers wrote into their successor's input.

    Returns (logits, aug_inputs, preacts) with every layer's augmented input
    and pre-activation kept as separate arrays, built with vstack and a fresh
    activation per layer.
    """
    x = np.asarray(batch, dtype=np.float64)
    n = x.shape[0]
    current = x.T if len(net.input_shape) == 1 else x.reshape((n,) + net.input_shape)
    aug_inputs, preacts = [], []
    for li, spec in enumerate(net.specs):
        if spec.kind == "dense":
            flat = current.reshape(n, -1).T if current.ndim == 4 else current
            aug = np.vstack([flat, np.ones((1, n))])
            z = net.weights[li] @ aug
            current = np.maximum(z, 0.0) if spec.activation == "relu" else z
        else:
            patches = nn.extract_patches(current, spec.kernel_size, spec.stride)
            aug = np.vstack([patches, np.ones((1, patches.shape[1]))])
            z = net.weights[li] @ aug
            c, h, w = net._plan[li][1][1]
            ho = (h - spec.kernel_size) // spec.stride + 1
            wo = (w - spec.kernel_size) // spec.stride + 1
            maps = z.reshape(spec.out_channels, n, ho, wo).transpose(1, 0, 2, 3)
            current = np.maximum(maps, 0.0) if spec.activation == "relu" else maps
        aug_inputs.append(aug)
        preacts.append(z)
    return current, aug_inputs, preacts


def reference_loss_and_grads(net, batch, labels):
    """Loss, per-layer gradients and logits, computed as before the in-place kernels.

    Masks are float arrays built from the recorded pre-activations, every
    product is a fresh array, and layer 0's input gradient is computed (and,
    for a conv layer, scattered back onto the input maps) although nothing
    reads it.
    """
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = y.size
    logits, aug_inputs, preacts = reference_forward(net, batch)
    loss = nn.cross_entropy(logits, y)
    probs = nn.softmax(logits)
    onehot = np.zeros_like(probs)
    onehot[y, np.arange(n)] = 1.0
    delta = (probs - onehot) / n
    grads = [None] * len(net.specs)
    for li in range(len(net.specs) - 1, -1, -1):
        spec = net.specs[li]
        form = net._plan[li][1]
        mask = (preacts[li] > 0.0).astype(np.float64) if spec.activation == "relu" else None
        if spec.kind == "dense":
            dz = delta if mask is None else delta * mask
            grads[li] = dz @ aug_inputs[li].T
            back = (net.weights[li].T @ dz)[:-1]
            delta = back.T.reshape((n,) + form[1]) if form[0] == "image" else back
        else:
            c, h, w = form[1]
            k, st = spec.kernel_size, spec.stride
            ho = (h - k) // st + 1
            wo = (w - k) // st + 1
            dz = delta.transpose(1, 0, 2, 3).reshape(spec.out_channels, n * ho * wo)
            if mask is not None:
                dz = dz * mask
            grads[li] = dz @ aug_inputs[li].T
            back_cols = (net.weights[li].T @ dz)[:-1]
            delta = nn._scatter_patches(back_cols, (c, h, w), n, k, st)
    return loss, grads, logits


def train_two_forwards(net, train_set, val_set, schedule):
    """Full-batch SGD as it ran before the validation forward was fused.

    Every epoch takes one step on all training rows in order (no
    permutation) with reference_loss_and_grads, then runs a separate
    forward over the validation set.  Best epoch, ties, patience,
    milestones and the metadata follow nn.train's contract.
    """
    x_tr = np.asarray(train_set.features, dtype=np.float64)
    y_tr = np.asarray(train_set.labels, dtype=np.int64)
    x_val = np.asarray(val_set.features, dtype=np.float64)
    y_val = np.asarray(val_set.labels, dtype=np.int64)

    def val_accuracy(weights):
        probe = nn.Network(specs=net.specs, weights=weights, input_shape=net.input_shape)
        logits, _, _ = reference_forward(probe, x_val)
        return float(np.mean(np.argmax(logits, axis=0) == y_val))

    out = net.copy()
    lr = schedule.lr
    best_weights = out.weights
    best_acc = val_accuracy(out.weights)
    best_epoch = 0
    epochs_run = 0
    for epoch in range(1, schedule.epochs + 1):
        if epoch in schedule.milestones:
            lr *= schedule.gamma
        _, grads, _ = reference_loss_and_grads(out, x_tr, y_tr)
        out.weights = [w - lr * g for w, g in zip(out.weights, grads)]
        epochs_run = epoch
        val_acc = val_accuracy(out.weights)
        if val_acc >= best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_weights = out.weights
        elif schedule.patience is not None and epoch - best_epoch >= schedule.patience:
            break
    out.weights = best_weights
    out.metadata.update(
        epochs_run=epochs_run,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
        final_lr=lr,
        train_seed=schedule.seed,
    )
    return out


def blocked_forward(net, batch, block):
    """Logits of every run of `block` rows, each run scored on its own by reference_forward, side by side."""
    x = np.asarray(batch, dtype=np.float64)
    return np.hstack([reference_forward(net, x[i : i + block])[0] for i in range(0, len(x), block)])
