"""Unlearning runs: null-space calibrated fine-tuning plus the ablation baselines.

The full method relabels every forget-set sample with the original model's
best prediction outside the unlearn classes, then fine-tunes with each
gradient block projected off the retained basis B of the remaining classes'
activations, g - (g B) B^T, so updates stay in its null space.  A weight
gradient is dz a^T, so the projection is applied to whichever factor is
smaller, the layer input a or the gradient (see `nn.SGDStep`).  A
leading layer whose basis spans its whole input has an empty null space and
is frozen: the forget set goes through the spanned leading layers once, and
each step trains only the layers after them.  The first trained layer then
sees the same m forget rows at every step, so each projected update it takes
is dz Q^T, Q those rows projected off the basis.  When it is dense and m
is at most 1.5 times its input width, the run keeps it as W_0 + C Q^T and
trains the m-column coefficients C: a step costs one product with the
m x m block Q X^T instead of a forward and a gradient product against the
full input.  Baselines
swap the labeling rule (random labels, kept labels with gradient ascent)
and/or drop the projection, which is exactly the ablation grid the
evaluation suite compares.  `VARIANTS` names each combination; it is the
only place a variant's meaning is stated, and a plan names its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .determinism import PortableRng, derive_seed
from .linalg import NumericError, apply_projection
from .subspace import NullProjector, ProjectorCache

# Variant name -> (labeling, use_null_space, ascend).
VARIANTS = {
    "calibrated": ("pseudo", True, False),
    "random-label": ("random", False, False),
    "random-label+nullspace": ("random", True, False),
    "gradient-ascent": ("keep", False, True),
}


@dataclass(frozen=True)
class UnlearnPlan:
    """What to forget, its `VARIANTS` row and the SGD knobs; the row's three fields follow from `variant`."""

    unlearn_classes: tuple
    variant: str = "calibrated"
    lr: float = 0.01
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    labeling: str = field(init=False)
    use_null_space: bool = field(init=False)
    ascend: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "unlearn_classes", tuple(sorted(int(c) for c in self.unlearn_classes)))
        if not self.unlearn_classes:
            raise ValueError("plan needs at least one unlearn class")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown unlearn variant {self.variant!r}; expected one of {sorted(VARIANTS)}")
        for name, value in zip(("labeling", "use_null_space", "ascend"), VARIANTS[self.variant]):
            object.__setattr__(self, name, value)
        nn.check_sgd(self.lr, self.epochs, self.batch_size)


@dataclass
class PseudoLabeledSet:
    """Forget-set samples with original labels and their assigned training labels.

    The one place the forget set's arrays are normalised: features to
    float64, labels to flat int64 arrays.
    """

    features: np.ndarray
    original_labels: np.ndarray
    assigned_labels: np.ndarray
    labeling: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.original_labels = np.asarray(self.original_labels, dtype=np.int64).reshape(-1)
        self.assigned_labels = np.asarray(self.assigned_labels, dtype=np.int64).reshape(-1)
        if self.original_labels.size != self.assigned_labels.size:
            raise ValueError("label arrays disagree on length")
        if self.labeling in ("pseudo", "random") and (
            self.assigned_labels == self.original_labels
        ).any():
            raise ValueError(f"{self.labeling} labeling assigned a sample its original label")


@dataclass
class UnlearnResult:
    """An unlearned network, its metadata empty, plus what the CLI's `run_unlearned_<variant>.json` record holds of the run."""

    network: nn.Network
    epoch_losses: list
    labeled: PseudoLabeledSet


def pseudo_label_set(net_o: nn.Network, d_u, unlearn_classes) -> PseudoLabeledSet:
    """Relabel each forget sample with the original model's most probable class outside the unlearn set.

    Ties go to the lowest class index.
    """
    classes = sorted(int(c) for c in unlearn_classes)
    k = net_o.n_classes
    if set(classes) >= set(range(k)):
        raise ValueError("unlearn classes cover every class; no pseudo-label target remains")
    outside = ~np.isin(d_u.labels, classes)
    if outside.any():
        raise ValueError(
            f"forget set contains label {d_u.labels[outside][0]} outside the unlearn classes {classes}"
        )
    probs = nn.predict_proba(net_o, d_u.features)
    probs[classes, :] = -np.inf
    return PseudoLabeledSet(d_u.features, d_u.labels, np.argmax(probs, axis=0), "pseudo")


def random_label_set(d_u, n_classes: int, unlearn_classes, seed: int) -> PseudoLabeledSet:
    """Uniform random class outside the unlearn set per sample, drawn once, seeded."""
    remaining = np.setdiff1d(np.arange(n_classes), np.asarray(unlearn_classes, dtype=np.int64))
    if remaining.size == 0:
        raise ValueError("random relabeling needs at least two classes, one outside the unlearn set")
    rng = PortableRng(derive_seed(seed, "random-labels"))
    assigned = remaining[rng.integers_below(np.full(len(d_u.labels), remaining.size, dtype=np.uint64))]
    return PseudoLabeledSet(d_u.features, d_u.labels, assigned, "random")


def _frozen_prefix(net: nn.Network, projector: NullProjector) -> int:
    """How many leading layers the basis freezes: each one's basis spans its input, and a dense layer follows.

    A spanning basis leaves a layer no free direction, so every projected
    step of it is zero.  The head always trains.
    """
    frozen = 0
    for li in range(len(net.specs) - 1):
        n, k = projector.bases[li].shape
        if k < n:
            break
        if net.specs[li + 1].kind == "dense":
            frozen = li + 1
    return frozen


def _finetune(
    net: nn.Network,
    labeled: PseudoLabeledSet,
    projector: NullProjector | None,
    plan: UnlearnPlan,
) -> UnlearnResult:
    """Shared SGD engine: seeded mini-batches over the forget set, optional projection/ascent.

    The whole forget set is reshuffled each epoch from one seeded stream, so
    runs are bit-reproducible.  Every step is projected off the same retained
    basis, the one that excludes the whole unlearn set.  One `nn.SGDStep`
    per run checks rows and labels once, reuses its buffers for every batch
    and projects each gradient's smaller factor, the layer input or the
    gradient, so no wide hidden-layer gradient is projected.  Leading
    layers whose basis spans their input (see `_frozen_prefix`) only ever step by zero,
    so a projected run forwards the forget set through them once and
    fine-tunes the layers after them, which share the returned network's
    weight arrays: no step forwards, back-propagates into or projects a
    frozen layer.

    The first trained layer sees the same m forget rows x_i in every step,
    so its projected gradient on rows S is the sum over i in S of
    dz_i q_i^T, q_i the projection of x_i, formed once per run.  When that
    layer is dense and m <= 1.5 n_in (n_in the layer's augmented input
    width), the run keeps it as W_0 + sum_i c_i q_i^T, the c_i starting at
    zero.  Each step passes `nn.SGDStep` the layer's
    pre-activation W_0 x_i + sum_j c_j (q_j . x_i) for i in S, from the
    once-formed W_0 x_i and the m x m block of q_j . x_i, gets the layer's
    output delta dz back and steps each c_i by lr dz_i (S holds no row
    twice); the run writes the layer once, at the end.  A step then
    multiplies out x m x batch where it would multiply out x n_in x batch
    twice, and every update stays
    in the span of the q_i, within rounding of projecting each full
    gradient.  The m x m block grows as 8 m^2 bytes, and past the cut-over
    a step costs more than the two products it replaces: at n_in = 193
    and batch 25, a 50-epoch run took 0.058 s both ways at m = 300, and
    1.06-1.12x and 1.28-1.34x the gradient path's time at m = 386 and
    500.  A larger forget set, a conv first layer or a plain run trains
    the layer on its (projected) gradients.

    Ascent stops after the first step at which the epoch's
    running mean loss exceeds log(n_classes), the loss of a uniform guess:
    the model then does worse than chance on the forget set, and further
    ascent only inflates the weights until they overflow.  That partial
    mean is the last epoch loss.
    """
    net_u = net.copy()
    net_u.metadata = {}
    feats = labeled.features
    y_train = labeled.assigned_labels
    tuned, frozen, coef = net_u, 0, None
    if projector is not None and plan.epochs > 0:
        frozen = _frozen_prefix(net_u, projector)
        if frozen:
            _, trace = nn.forward(net_u, feats, record=True)
            feats = np.ascontiguousarray(trace.per_layer[frozen][:-1].T)  # drop the constant-1 row
            tuned = nn.Network(
                specs=net_u.specs[frozen:],
                weights=net_u.weights[frozen:],
                input_shape=(net_u.specs[frozen].in_features,),
            )
    step = nn.SGDStep(tuned, feats, y_train, None if projector is None else (
        lambda li, rows: apply_projection(rows, projector.bases[frozen + li])
    ))
    if (projector is not None and plan.epochs > 0 and tuned.specs[0].kind == "dense"
            and y_train.size <= 1.5 * tuned.weights[0].shape[1]):
        # The first trained layer in forget-row coordinates, W = W_0 + coef^T q: one row of each per forget row.
        rows = nn._augment(step.x.T).T
        q = apply_projection(rows, projector.bases[frozen])
        z0, k = rows @ tuned.weights[0].T, rows @ q.T  # row i: W_0 x_i, and q_j . x_i for every j
        coef = np.zeros_like(z0)
    skip = 0 if coef is None else 1  # a layer 0 in forget-row coordinates steps through coef
    rng = PortableRng(derive_seed(plan.seed, "unlearn-shuffle"))
    sign = 1.0 if plan.ascend else -1.0
    chance = math.log(net_u.n_classes)
    losses = []
    for _ in range(plan.epochs):
        total, seen = 0.0, 0
        perm = rng.permutation(y_train.size)
        for start in range(0, perm.size, plan.batch_size):
            sel = perm[start : start + plan.batch_size]
            if coef is None:
                loss, grads = step(sel)
            else:
                loss, grads = step(sel, lambda out: np.add(z0[sel].T, np.matmul(coef.T, k[sel].T, out=out), out=out))
                coef[sel] += (sign * plan.lr) * grads.delta0.T  # sel is part of one permutation: no repeats
            total += loss * sel.size
            seen += sel.size
            for w, g in zip(tuned.weights[skip:], grads.per_layer[skip:]):
                w += np.multiply(g, sign * plan.lr, out=g)
            if plan.ascend and total / seen > chance:
                break
        epoch_loss = total / seen
        if not math.isfinite(epoch_loss):
            raise NumericError("unlearning loss went non-finite")
        losses.append(epoch_loss)
        if plan.ascend and epoch_loss > chance:
            break
    if coef is not None:
        tuned.weights[0] += coef.T @ q
    return UnlearnResult(network=net_u, epoch_losses=losses, labeled=labeled)


def _label_for_plan(net_o: nn.Network, d_u, plan: UnlearnPlan) -> PseudoLabeledSet:
    if plan.labeling == "pseudo":
        return pseudo_label_set(net_o, d_u, plan.unlearn_classes)
    if plan.labeling == "random":
        return random_label_set(d_u, net_o.n_classes, plan.unlearn_classes, plan.seed)
    return PseudoLabeledSet(d_u.features, d_u.labels, d_u.labels, "keep")


def baseline_unlearn(
    net_o: nn.Network, d_u, plan: UnlearnPlan, cache: ProjectorCache | NullProjector | None = None
) -> UnlearnResult:
    """Run the plan's `VARIANTS` row; every variant, the full method included, runs here.

    `cache` gives the retained basis through `for_excluded`: a
    ProjectorCache, or the unlearn set's own NullProjector, as the CLI
    passes; only a projecting variant reads it.  A zero epoch budget
    returns the original weights untouched.  A projected plan with epochs
    to run is refused when the basis spans every layer's input: each
    projected step would be zero.
    """
    if plan.use_null_space and cache is None:
        raise ValueError("plan requests null-space projection but no projector cache was supplied")
    projector = cache.for_excluded(*plan.unlearn_classes) if plan.use_null_space else None
    if projector is not None and plan.epochs > 0 and all(b.shape[1] >= b.shape[0] for b in projector.bases):
        raise ValueError(
            f"the retained basis spans every layer's input (ranks {list(projector.ranks)}), "
            "so no projected step can move the weights"
        )
    return _finetune(net_o, _label_for_plan(net_o, d_u, plan), projector, plan)


# The benchmark tracer patches this name; it goes once the tracer wraps `baseline_unlearn` alone.
calibrated_unlearn = baseline_unlearn
