"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately naive -- explicit loops, one row at a time,
or plain LAPACK calls without the package's validation, sign convention or
noise floor -- so agreement with the library is evidence, not circularity.
"""

import base64
import json
import struct

import numpy as np

from nullspace_unlearn import data, linalg, nn, subspace
from nullspace_unlearn.determinism import PortableRng, derive_seed


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


def per_class_merge_basis(per_class, epsilon):
    """Retained basis by the per-class route: SVD each class, scale U_c by s_c, SVD the stack.

    per_class holds one (n x m_c) activation matrix per class.  Returns the
    merged SVD's leading left singular vectors, cut by `linalg.rank_cutoff`,
    and all of its singular values.
    """
    scaled = []
    for r in per_class:
        u, s, _ = np.linalg.svd(np.asarray(r, dtype=np.float64), full_matrices=False)
        scaled.append(u * s)
    u, s, _ = np.linalg.svd(np.hstack(scaled), full_matrices=False)
    return u[:, : linalg.rank_cutoff(s, epsilon)], s


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


def utility_by_set(net, test_remaining, test_unlearn):
    """The utility report as JSON, scoring each set with its own forward passes.

    Remaining accuracy and loss, forget accuracy and the predictions on the
    union each come from a separate nn.accuracy / nn.mean_loss / nn.predict
    call, so every test row goes through the network more than once.
    """
    x = np.vstack([test_remaining.features, test_unlearn.features])
    y = np.concatenate([test_remaining.labels, test_unlearn.labels])
    preds = nn.predict(net, x)
    per_class = []
    for c in range(net.n_classes):
        mask = y == c
        per_class.append(float(np.mean(preds[mask] == c)) if mask.any() else None)
    return {
        "acc_remaining_test": nn.accuracy(net, test_remaining.features, test_remaining.labels),
        "acc_unlearn_test": nn.accuracy(net, test_unlearn.features, test_unlearn.labels),
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


def extract_patches_loop(feature_map, kernel_size, stride=1):
    """Patch columns gathered one kernel offset at a time: the (c, k, k, n, ho, wo) block, flattened.

    Same layout as nn.extract_patches (rows channel, kernel row, kernel
    column; columns sample-major), without its input checks.
    """
    maps = np.asarray(feature_map, dtype=np.float64)
    n, c, h, w = maps.shape
    k, st = kernel_size, stride
    ho = (h - k) // st + 1
    wo = (w - k) // st + 1
    cols = np.empty((c, k, k, n, ho, wo))
    for kh in range(k):
        for kw in range(k):
            cols[:, kh, kw] = maps[:, :, kh : kh + st * ho : st, kw : kw + st * wo : st].transpose(1, 0, 2, 3)
    return cols.reshape(c * k * k, n * ho * wo)


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
            patches = extract_patches_loop(current, spec.kernel_size, spec.stride)
            aug = np.vstack([patches, np.ones((1, patches.shape[1]))])
            z = net.weights[li] @ aug
            c, h, w = net._plan[li][0]
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
        shape = net._plan[li][0]
        mask = (preacts[li] > 0.0).astype(np.float64) if spec.activation == "relu" else None
        if spec.kind == "dense":
            dz = delta if mask is None else delta * mask
            grads[li] = dz @ aug_inputs[li].T
            back = (net.weights[li].T @ dz)[:-1]
            delta = back.T.reshape((n,) + shape) if len(shape) == 3 else back
        else:
            c, h, w = shape
            k, st = spec.kernel_size, spec.stride
            ho = (h - k) // st + 1
            wo = (w - k) // st + 1
            dz = delta.transpose(1, 0, 2, 3).reshape(spec.out_channels, n * ho * wo)
            if mask is not None:
                dz = dz * mask
            grads[li] = dz @ aug_inputs[li].T
            back_cols = (net.weights[li].T @ dz)[:-1]
            delta = nn._scatter_patches(back_cols, net._plan[li], n, k, st)
    return loss, grads, logits


def reference_projected_finetune(net, labeled, bases, plan):
    """Projected SGD descent as it ran before the projection moved into loss_and_grads.

    Each mini-batch of the seeded per-epoch shuffle takes the full gradient
    from reference_loss_and_grads, projects every layer's gradient with
    linalg.apply_projection and steps.  Returns (weights, epoch losses).
    """
    out = net.copy()
    x = np.asarray(labeled.features, dtype=np.float64)
    y = np.asarray(labeled.assigned_labels, dtype=np.int64)
    rng = PortableRng(derive_seed(plan.seed, "unlearn-shuffle"))
    losses = []
    for _ in range(plan.epochs):
        total = 0.0
        perm = rng.permutation(y.size)
        for start in range(0, perm.size, plan.batch_size):
            sel = perm[start : start + plan.batch_size]
            loss, grads, _ = reference_loss_and_grads(out, x[sel], y[sel])
            total += loss * sel.size
            for w, g, b in zip(out.weights, grads, bases):
                w -= plan.lr * linalg.apply_projection(g, b)
        losses.append(total / perm.size)
    return out.weights, losses


def integers_below_loop(rng, bounds):
    """PortableRng.integers_below as it first ran: every round redraws the pending entries, the first round all of them."""
    bounds = np.asarray(bounds, dtype=np.uint64).reshape(-1)
    out = np.zeros(bounds.shape, dtype=np.uint64)
    pending = np.ones(bounds.shape, dtype=bool)
    while pending.any():
        idx = np.flatnonzero(pending)
        words = rng.raw(idx.size)
        b = bounds[idx]
        tail = (np.uint64(0) - b) % b
        accept = (tail == 0) | (words < (np.zeros_like(tail) - tail))
        out[idx[accept]] = words[accept] % b[accept]
        pending[idx[accept]] = False
    return out


def numpy_swap_permutation(rng, n):
    """PortableRng.permutation as it first ran: the descending Fisher-Yates swaps on a numpy array."""
    a = np.arange(n)
    if n < 2:
        return a
    draws = rng.integers_below(np.arange(n, 1, -1))
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = int(draws[k])
        a[i], a[j] = a[j], a[i]
    return a


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


def json_dump_text(doc):
    """What json.dump(doc, fh, sort_keys=True, indent=1) plus a newline wrote: every JSON artifact's old writer."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def array_doc(a):
    """An array as the artifacts spell it: base64 of its struct-packed little-endian doubles, with its shape."""
    a = np.asarray(a)
    packed = struct.pack("<%dd" % a.size, *a.ravel().tolist())
    return {"base64": base64.b64encode(packed).decode("ascii"), "shape": list(a.shape)}


def checkpoint_doc(net):
    """The document a checkpoint of net holds."""
    return {
        "format_version": nn.CHECKPOINT_FORMAT_VERSION,
        "input_shape": list(net.input_shape),
        "layers": [spec.to_json() for spec in net.specs],
        "weights": [array_doc(w) for w in net.weights],
        "seed": net.seed,
        "metadata": net.metadata,
    }


def subspace_doc(proj, **stamp):
    """The document subspace.json holds for one retained basis and the caller's stamp."""
    return {
        **stamp,
        "format_version": subspace.SUBSPACE_FORMAT_VERSION,
        "merged_classes": list(proj.merged_classes),
        "excluded_classes": list(proj.excluded_classes),
        "epsilons": list(proj.epsilons),
        "ranks": list(proj.ranks),
        "bases": [array_doc(b) for b in proj.bases],
    }


def csv_text_loop(dataset):
    """The dataset CSV as the row-at-a-time writer printed it: each float with f"{v:.17g}"."""
    d = dataset.features.shape[1]
    lines = [",".join([f"f{i}" for i in range(d)] + ["label"]) + "\n"]
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{label}\n")
    return "".join(lines)


def load_csv_loop(path, n_classes):
    """The per-line CSV reader: float() and int() on every field, errors as `path:line`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if cols[-1] != "label" or any(c != f"f{i}" for i, c in enumerate(cols[:-1])):
            raise ValueError(f"{path}: malformed header {header!r}")
        d = len(cols) - 1
        features = []
        labels = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, found {len(parts)}")
            try:
                features.append([float(v) for v in parts[:-1]])
                label = int(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from None
            if label < 0 or label >= n_classes:
                raise ValueError(f"{path}:{lineno}: label {label} outside [0, {n_classes})")
            labels.append(label)
    return data.Dataset(
        features=np.asarray(features, dtype=np.float64).reshape(len(labels), d),
        labels=np.asarray(labels, dtype=np.int64),
        n_classes=n_classes,
    )


def loss_contour_per_cell(net, null_dir, off_dir, alphas, betas, remaining_set):
    """The contour grid as one full forward per cell: losses[i][j] = nn.mean_loss at theta + alphas[i] N + betas[j] O."""
    losses = []
    for a in alphas:
        probe = net.copy()
        row = []
        for b in betas:
            for w, w0, nb, ob in zip(probe.weights, net.weights, null_dir, off_dir):
                np.copyto(w, w0)
                w += a * nb
                w += b * ob
            row.append(nn.mean_loss(probe, remaining_set.features, remaining_set.labels))
        losses.append(row)
    return losses
