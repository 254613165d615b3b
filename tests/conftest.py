"""Shared builders for small deterministic fixtures."""

import numpy as np
from hypothesis import settings

from nullspace_unlearn import data, nn

# Property tests draw the same examples on every run; each test's own
# @settings (max_examples, deadline) still applies on top of this profile.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# A well separated three-blob mixture in 4-D: easy for a tiny net, cheap to train.
BLOB_MEANS = [
    [3.0, 0.0, 0.0, 0.0],
    [-1.5, 2.6, 0.0, 0.0],
    [-1.5, -2.6, 0.0, 0.0],
]
BLOB_COV = [np.diag([0.2, 0.2, 0.2, 0.2]).tolist() for _ in range(3)]


def blob_dataset(seed=0, n_per_class=40):
    return data.gaussian_mixture(BLOB_MEANS, BLOB_COV, n_per_class=n_per_class, seed=seed)


def blob_splits(seed=0, n_per_class=40, unlearn_classes=(0,)):
    ds = blob_dataset(seed=seed, n_per_class=n_per_class)
    spec = data.SplitSpec(
        train_fraction=0.5,
        val_fraction=0.25,
        test_fraction=0.25,
        unlearn_classes=unlearn_classes,
        seed=seed,
    )
    return data.split(ds, spec)


def dense_specs(hidden=8, n_classes=3, d=4):
    return (
        nn.LayerSpec(kind="dense", activation="relu", in_features=d, out_features=hidden),
        nn.LayerSpec(kind="dense", activation="identity", in_features=hidden, out_features=n_classes),
    )


def dense_net(seed=0, hidden=8, n_classes=3, d=4):
    return nn.init_network(dense_specs(hidden, n_classes, d), input_shape=(d,), seed=seed)


def toy_net(seed=0):
    """The toy preset's network: 2 -> 192 -> 192 -> 4."""
    specs = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=2, out_features=192),
        nn.LayerSpec(kind="dense", activation="relu", in_features=192, out_features=192),
        nn.LayerSpec(kind="dense", activation="identity", in_features=192, out_features=4),
    )
    return nn.init_network(specs, input_shape=(2,), seed=seed)


def conv_specs(n_classes=3):
    # (1, 4, 4) -> conv k2 s1 -> (2, 3, 3) -> dense head.
    return (
        nn.LayerSpec(kind="conv", activation="relu", in_channels=1, out_channels=2, kernel_size=2, stride=1),
        nn.LayerSpec(kind="dense", activation="identity", in_features=18, out_features=n_classes),
    )


def conv_net(seed=0, n_classes=3):
    return nn.init_network(conv_specs(n_classes), input_shape=(1, 4, 4), seed=seed)


def image_batch(seed=0, n=6):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, 16))


def trained_dense_net(seed=0, epochs=60):
    """A small net actually fitted to the blobs (used where behaviour matters)."""
    sp = blob_splits(seed=seed)
    net = dense_net(seed=seed)
    schedule = nn.TrainSchedule(lr=0.2, epochs=epochs, batch_size=16, patience=None, seed=seed)
    return nn.train(net, sp.train, sp.val, schedule), sp
