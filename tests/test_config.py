"""Config documents: the preset's identity and the key-table walk."""

import re

import pytest

from nullspace_unlearn.config import ConfigError, builtin_preset, config_hash, load_config


def test_preset_identity_is_pinned():
    # A default or cast leaking into the document would move this hash and
    # every artifact that embeds it.
    assert config_hash(builtin_preset()) == "63757b5cbf88f9d2"
    cfg = load_config()
    assert cfg.doc == builtin_preset()
    assert cfg.hash == "63757b5cbf88f9d2"


@pytest.mark.parametrize("override, message", [
    ("acceptance.exact_mode.epsilonn=1.0", "did you mean acceptance.exact_mode.epsilon"),
    ("network.input_shape=[2.0]", "network.input_shape[0] must be an integer"),
    ("data.means=[[0, 1], [0, 1e999], [0, 0], [1, 1]]", "data.means[1][1] must be a finite number"),
    ("network.layers=3", "network.layers must be a JSON list"),
    ("paths=3", "paths must be a JSON object"),
    ("train.patience=2.0", "train.patience must be an integer or null"),
    ('network.layers=[{"kind": "dense", "in_features": true, "out_features": 2}]', "layer sizes must be integers"),
])
def test_the_walk_names_the_offending_key(override, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(overrides=[override])



_LAYERS_3_WIDE = ('network.layers=[{"kind": "dense", "activation": "relu", "in_features": 3, "out_features": 8},'
                  ' {"kind": "dense", "activation": "identity", "in_features": 8, "out_features": 4}]')
_CHAIN_GAP = ('network.layers=[{"kind": "dense", "activation": "relu", "in_features": 2, "out_features": 8},'
              ' {"kind": "dense", "activation": "identity", "in_features": 9, "out_features": 4}]')
_HEAD_3_CLASSES = ('network.layers=[{"kind": "dense", "activation": "relu", "in_features": 2, "out_features": 8},'
                   ' {"kind": "dense", "activation": "identity", "in_features": 8, "out_features": 3}]')


@pytest.mark.parametrize("overrides, message", [
    (["train.batch_size=0"], "train: batch_size must be >= 1"),
    (["unlearn.batch_size=0"], "unlearn: batch_size must be >= 1"),
    (["train.lr=-1"], "train: lr must be finite and >= 0, got -1"),
    (["unlearn.lr=-1"], "unlearn: lr must be finite and >= 0, got -1"),
    (["train.epochs=-1"], "train: epochs must be >= 0"),
    (["unlearn.epochs=-1"], "unlearn: epochs must be >= 0"),
    (["train.gamma=-1"], "train: gamma must be finite and > 0"),
    (["split.val_fraction=0.5"], "split: split fractions must sum to 1"),
    (["split.unlearn_classes=[]"], "split.unlearn_classes must name at least one class"),
    (['network.layers=[{"kind": "dense", "in_features": 2, "out_features": 0}]'], "network.layers[0]: dense layer"),
    (["network.layers=[]"], "network: network needs at least one layer"),
    (["network.input_shape=[3]", _LAYERS_3_WIDE], "network.input_shape [3] holds 3 features, but data.means[0] has 2"),
    ([_LAYERS_3_WIDE], "network: layer 0: dense expects 3 input features, chain provides 2"),
    ([_CHAIN_GAP], "network: layer 1: dense expects 9 input features, chain provides 8"),
    ([_HEAD_3_CLASSES], "network.layers[1].out_features is 3, but data.means has 4 classes"),
    ([_HEAD_3_CLASSES.replace('"identity"', '"relu"')], "network: final layer must be dense with identity activation"),
])
def test_object_and_network_errors_name_the_section(overrides, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(overrides=overrides)
