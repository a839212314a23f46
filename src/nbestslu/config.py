"""Run configuration: a flat key = value text format with audited defaults.

Every run resolves its configuration, writes it next to its outputs, and
stamps artifacts with the configuration hash so that mismatched pieces
can be detected later.  Each setting is one declaration: its annotation
is its type, and its ``_setting`` holds its default and its rule.
Building a ``RunConfig`` converts every value exactly to its key's type
(an int where a float is due becomes a float, a numpy scalar its builtin;
a bool is never a number) or refuses it with the ``ConfigError``
``"<key> must be <rule>, got <value>"``.  So a config that builds is one
its ``resolved_text`` reads back, and equal configs hash equal.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .data import ASR_CHANNELS, text_lines
from .errors import ConfigError
from .ontology import MAX_PATTERNS

# Model variant -> (context window, combiner mode), as named by
# ``context.ContextWindow`` and ``context.Combiner.build``; the one variant
# without a context model has no combiner.
VARIANTS: dict[str, tuple[str, str | None]] = {
    "cnn": ("none", None),
    "cnn_lstm_w1": ("last_1", "tanh"),
    "cnn_lstm_w4": ("last_4", "tanh"),
    "cnn_lstm_w": ("all", "tanh"),
    "lstm_all": ("all", "lstm-input"),
}

_BOOLEAN_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _setting(default, rule: str, ok: Callable):
    """A ``RunConfig`` key: its default, and its rule as the text that ends "<key> must be …" and a predicate."""
    return field(default=default, metadata={"rule": rule, "ok": ok})


def _integer(low: int) -> tuple[str, Callable]:
    return f"an integer ≥ {low}", lambda value: value >= low


def _one_of(choices) -> tuple[str, Callable]:
    return "one of " + ", ".join(choices), lambda value: value in choices


def _in_one_line(value: str) -> bool:
    """Whether a UTF-8 config line carries ``value`` unchanged."""
    return (value == value.strip() and value.splitlines() in ([], [value]) and "#" not in value
            and value.encode("utf-8", "ignore").decode("utf-8") == value)


def _exact(kind, value):
    """``value`` as exactly a ``kind``, or None when it is not one."""
    if isinstance(value, np.generic):
        value = value.item()
    if kind == tuple[int, ...] and type(value) is tuple:
        items = tuple(_exact(int, item) for item in value)
        return None if None in items else items
    if kind is float and type(value) is int and abs(value) <= 2 ** 53:  # every such int is a float exactly
        return float(value)
    return value if type(value) is kind else None


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs to be reproducible; building one refuses an invalid value by key name."""

    model: str = _setting("cnn_lstm_w4", *_one_of(VARIANTS))
    embeddings: str = _setting("", "a UTF-8 path on one line, without # or surrounding spaces", _in_one_line)
    embedding_dim: int = _setting(100, *_integer(1))
    filter_windows: tuple[int, ...] = _setting((3, 4, 5), "one or more distinct integers ≥ 1",
                                               lambda value: value and min(value) >= 1 and len(set(value)) == len(value))
    filters_per_window: int = _setting(100, *_integer(1))
    hidden_size: int = _setting(100, *_integer(1))
    nbest_cap: int = _setting(10, *_integer(1))
    batch_size: int = _setting(50, *_integer(1))
    dropout: float = _setting(0.5, "a number in [0, 1)", lambda value: 0.0 <= value < 1.0)
    adadelta_rho: float = _setting(0.95, "a number in (0, 1)", lambda value: 0.0 < value < 1.0)
    adadelta_epsilon: float = _setting(1e-6, "a finite number > 0", lambda value: 0.0 < value < math.inf)
    validation_fraction: float = _setting(0.10, "a number in (0, 1)", lambda value: 0.0 < value < 1.0)
    patience: int = _setting(5, *_integer(0))
    max_epochs: int = _setting(100, *_integer(1))
    seed: int = _setting(1, *_integer(0))
    act_only: bool = _setting(False, "true or false", lambda value: True)
    asr_channel: str = _setting("live", *_one_of(ASR_CHANNELS))
    max_act_patterns: int = _setting(MAX_PATTERNS, *_integer(1))
    cv_folds: int = _setting(10, *_integer(2))

    def __post_init__(self):
        for key in fields(self):
            value = getattr(self, key.name)
            exact = _exact(key.type, value)
            if exact is None or not key.metadata["ok"](exact):
                raise ConfigError(f"{key.name} must be {key.metadata['rule']}, got {value!r}")
            object.__setattr__(self, key.name, exact)


def _read(kind, text: str):
    """``text`` as a ``kind``; the text itself when it reads as none, for ``RunConfig`` to refuse by its rule."""
    try:
        if kind is bool:
            return _BOOLEAN_WORDS[text.lower()]
        if kind == tuple[int, ...]:
            return tuple(int(part) for part in text.split(",") if part.strip())
        return kind(text)
    except (KeyError, ValueError):
        return text


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _apply(cfg: RunConfig, entries: Iterable[tuple[str, str]]) -> RunConfig:
    """``cfg`` updated by ``(where, "key = value")`` entries; unknown keys are an error by name."""
    kinds = {key.name: key.type for key in fields(RunConfig)}
    updates = {}
    for where, entry in entries:
        if "=" not in entry:
            raise ConfigError(f"{where}: expected 'key = value', got {entry!r}")
        key, value = (part.strip() for part in entry.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _read(kinds[key], value)
    return replace(cfg, **updates)


def _config_lines(lines: Iterable[str]) -> Iterator[tuple[str, str]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"line {lineno}", line


def parse_config_text(text: str) -> RunConfig:
    """Parse ``key = value`` lines over the defaults; ``#`` starts a comment."""
    return _apply(RunConfig(), _config_lines(text.splitlines()))


def parse_config_file(path) -> RunConfig:
    return _apply(RunConfig(), _config_lines(text_lines(path, ConfigError)))


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    """Apply ``key=value`` override strings (CLI --set)."""
    return _apply(cfg, (("override", pair) for pair in pairs))


def resolved_text(cfg: RunConfig) -> str:
    """Canonical serialization: sorted ``key = value`` lines."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in sorted(fields(RunConfig), key=lambda f: f.name)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).hexdigest()


def write_resolved(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# resolved configuration (hash {config_hash(cfg)})\n")
        handle.write(resolved_text(cfg))
