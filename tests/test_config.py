"""Configuration parsing, defaults, and hashing."""

import math
from dataclasses import fields

import pytest

from nbestslu.config import (
    RunConfig,
    apply_overrides,
    config_hash,
    parse_config_file,
    parse_config_text,
    resolved_text,
    write_resolved,
)
from nbestslu.errors import ConfigError


class TestDefaults:
    def test_published_training_regime(self):
        cfg = RunConfig()
        assert cfg.filter_windows == (3, 4, 5)
        assert cfg.filters_per_window == 100
        assert cfg.dropout == 0.5
        assert cfg.batch_size == 50
        assert cfg.adadelta_rho == 0.95
        assert cfg.embedding_dim == 100
        assert cfg.validation_fraction == 0.10
        assert cfg.nbest_cap == 10
        assert cfg.cv_folds == 10

    def test_defaults_validate(self):
        RunConfig().validate()


class TestParsing:
    def test_key_value_lines_with_comments(self):
        cfg = parse_config_text(
            """
            # toy run
            model = cnn
            filter_windows = 2,3
            dropout = 0.25
            act_only = true
            seed = 42
            """
        )
        assert cfg.model == "cnn"
        assert cfg.filter_windows == (2, 3)
        assert cfg.dropout == 0.25
        assert cfg.act_only is True
        assert cfg.seed == 42

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("learning_rate = 0.1")
        assert "learning_rate" in str(err.value)

    def test_bad_value_named_in_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("batch_size = many")
        assert "batch_size" in str(err.value)

    def test_invalid_settings_rejected(self):
        for text in ("model = transformer", "dropout = 1.0", "adadelta_rho = 0",
                     "validation_fraction = 1.5", "asr_channel = tape", "filter_windows = 3,3"):
            with pytest.raises(ConfigError):
                parse_config_text(text)

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), ["seed=9", "model=lstm_all"])
        assert cfg.seed == 9 and cfg.model == "lstm_all"
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["bad_key=1"])
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["no_equals_sign"])


class TestRoundTripAndHash:
    def test_resolved_text_round_trips(self):
        cfg = RunConfig(model="lstm_all", dropout=0.35, adadelta_epsilon=3e-7, seed=77,
                        filter_windows=(2, 4), embeddings="path/to/vectors.txt")
        assert parse_config_text(resolved_text(cfg)) == cfg

    def test_hash_is_stable_and_sensitive(self):
        a, b = RunConfig(seed=1), RunConfig(seed=1)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(RunConfig(seed=2))

    def test_write_resolved_parses_back(self, tmp_path):
        cfg = RunConfig(model="cnn", seed=5)
        path = tmp_path / "cfg.txt"
        write_resolved(cfg, path)
        assert parse_config_file(path) == cfg


# What docs/formats.md states is valid, per numeric key.
VALID = {
    "embedding_dim": lambda v: v >= 1,
    "filter_windows": lambda v: len(v) > 0 and min(v) >= 1 and len(set(v)) == len(v),
    "filters_per_window": lambda v: v >= 1,
    "hidden_size": lambda v: v >= 1,
    "nbest_cap": lambda v: v >= 1,
    "batch_size": lambda v: v >= 1,
    "dropout": lambda v: 0.0 <= v < 1.0,
    "adadelta_rho": lambda v: 0.0 < v < 1.0,
    "adadelta_epsilon": lambda v: 0.0 < v < math.inf,
    "validation_fraction": lambda v: 0.0 < v < 1.0,
    "patience": lambda v: v >= 0,
    "max_epochs": lambda v: v >= 1,
    "seed": lambda v: v >= 0,
    "max_act_patterns": lambda v: v >= 1,
    "cv_folds": lambda v: v >= 2,
}


def test_every_numeric_key_has_a_documented_range():
    numeric = {f.name for f in fields(RunConfig) if f.type in ("int", "float", "tuple[int, ...]")}
    assert numeric == set(VALID)


@pytest.mark.parametrize("text", ["-1", "nan", "inf", "1e400"])
@pytest.mark.parametrize("key", sorted(VALID))
def test_out_of_range_numbers_are_refused(key, text):
    try:
        cfg = apply_overrides(RunConfig(), [f"{key}={text}"])
    except ConfigError as err:
        assert key in str(err)
    else:
        assert VALID[key](getattr(cfg, key)), getattr(cfg, key)
