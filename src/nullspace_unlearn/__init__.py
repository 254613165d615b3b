"""Null-space calibrated class unlearning for small dense/conv classifiers.

The package removes whole classes from a trained network by fine-tuning on
re-labeled forget samples while projecting every gradient step onto the null
space of the remaining classes' activation subspaces, and ships the baselines
(retraining, random labels with and without projection, gradient ascent) plus
an evaluation suite (utility, confidence-threshold membership inference,
orthogonality audit, loss contours, pseudo-label agreement) needed to compare
them.
"""

from . import artifacts, config, data, determinism, evaluate, linalg, nn, subspace, unlearn

__version__ = "0.1.0"

__all__ = [
    "artifacts",
    "config",
    "data",
    "determinism",
    "evaluate",
    "linalg",
    "nn",
    "subspace",
    "unlearn",
    "__version__",
]
