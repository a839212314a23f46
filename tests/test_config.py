"""Configuration parsing, defaults, and hashing."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbestslu.config import (
    VARIANTS,
    RunConfig,
    apply_overrides,
    config_hash,
    parse_config_file,
    parse_config_text,
    resolved_text,
    write_resolved,
)
from nbestslu.data import ASR_CHANNELS
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
        assert replace(RunConfig()) == RunConfig()


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
        for key, text, value in (("model", "transformer", "transformer"), ("dropout", "1.0", 1.0),
                                 ("adadelta_rho", "0", 0.0), ("validation_fraction", "1.5", 1.5),
                                 ("asr_channel", "tape", "tape"), ("filter_windows", "3,3", (3, 3)),
                                 ("hidden_size", "2.5", 2.5), ("embedding_dim", "nan", math.nan),
                                 ("seed", "'1'", "1"), ("filter_windows", "[3, 4]", [3, 4]),
                                 ("act_only", "2", 1), ("batch_size", "true", True)):
            with pytest.raises(ConfigError, match=rf"^{key} must be .+, got "):
                parse_config_text(f"{key} = {text}")
            assert_build_refused(key, value)

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

    def test_values_are_stored_exactly_in_their_key_type(self):
        cfg = RunConfig(dropout=np.float64(0.25), hidden_size=np.int64(7), adadelta_epsilon=1,
                        filter_windows=(np.int32(2), 3), act_only=np.bool_(True), model=np.str_("cnn"))
        assert [type(getattr(cfg, key)) for key in ("dropout", "hidden_size", "adadelta_epsilon", "act_only",
                                                    "model")] == [float, int, float, bool, str]
        assert cfg.filter_windows == (2, 3) and [type(w) for w in cfg.filter_windows] == [int, int]
        assert parse_config_text(resolved_text(cfg)) == cfg
        assert config_hash(RunConfig(dropout=0)) == config_hash(RunConfig(dropout=0.0))
        # A path that its config line would not carry back; the last is a non-UTF-8 byte of a --set value.
        for path in ("vectors # v2.txt", " vectors.txt", "two\nlines.txt", "v\udcff.txt"):
            assert_build_refused("embeddings", path)

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


def assert_build_refused(key, value):
    """A RunConfig holding ``value`` at ``key`` cannot be built, directly or by ``replace``."""
    with pytest.raises(ConfigError, match=rf"^{key} must be .+, got "):
        RunConfig(**{key: value})
    with pytest.raises(ConfigError, match=rf"^{key} must be .+, got "):
        replace(RunConfig(), **{key: value})


def test_every_numeric_key_has_a_documented_range():
    numeric = {f.name for f in fields(RunConfig) if f.type in (int, float, tuple[int, ...])}
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
    # The value the text reads as in the key's type, where it has one.
    kind = {f.name: f.type for f in fields(RunConfig)}[key]
    try:
        value = (int(text),) if kind == tuple[int, ...] else int(text) if kind is int else float(text)
    except ValueError:
        return
    if not VALID[key](value):
        assert_build_refused(key, value)


def typed_values(kind):
    """Values of ``kind``, valid and not, as Python and as numpy scalars, with the near misses of other types."""
    ints = st.integers(min_value=-2, max_value=2 ** 62) | st.integers()
    if kind is bool:
        return st.booleans() | st.booleans().map(np.bool_) | st.integers(0, 1)
    if kind is int:
        return ints | ints.filter(lambda v: abs(v) < 2 ** 63).map(np.int64) | st.booleans() | st.floats(0, 9)
    if kind is float:
        return (st.floats(-0.5, 1.5) | st.floats() | st.floats(width=32).map(np.float32) | st.floats().map(np.float64)
                | st.integers(-1, 3) | st.integers(0, 3).map(np.int32) | ints | st.booleans())
    if kind == tuple[int, ...]:
        windows = st.lists(st.integers(-1, 9) | st.integers(0, 9).map(np.int64) | st.booleans(), max_size=4)
        return windows.map(tuple) | windows
    return (st.sampled_from([*VARIANTS, *ASR_CHANNELS, "", "path/to/vectors.txt"]) | st.text() | st.text().map(np.str_)
            | st.text(st.characters() | st.characters(categories=["Cs"])))


@given(given_settings=st.fixed_dictionaries({}, optional={f.name: typed_values(f.type) for f in fields(RunConfig)}))
@settings(max_examples=300, deadline=None)
def test_a_config_that_builds_reads_back_from_its_text(given_settings):
    kept = {}
    for key, value in given_settings.items():
        try:
            RunConfig(**{key: value})
        except ConfigError as err:
            assert str(err).startswith(f"{key} must be ")
        else:
            kept[key] = value
    cfg = RunConfig(**kept)
    parsed = parse_config_text(resolved_text(cfg))
    assert parsed == cfg
    assert config_hash(parsed) == config_hash(cfg)
