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

