"""Run configuration: a flat key = value text format with audited defaults.

Every run resolves its configuration, writes it next to its outputs, and
stamps artifacts with the configuration hash so that mismatched pieces
can be detected later.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator

from .data import text_lines
from .errors import ConfigError

# Model variant -> (context window, combiner mode), as named by
# ``context.ContextWindow.from_name`` and ``context.Combiner.build``; the
# one variant without a context model has no combiner.
VARIANTS: dict[str, tuple[str, str | None]] = {
    "cnn": ("none", None),
    "cnn_lstm_w1": ("last_1", "tanh"),
    "cnn_lstm_w4": ("last_4", "tanh"),
    "cnn_lstm_w": ("all", "tanh"),
    "lstm_all": ("all", "lstm-input"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a training or decoding run needs to be reproducible."""

    model: str = "cnn_lstm_w4"
    embeddings: str = ""
    embedding_dim: int = 100
    filter_windows: tuple[int, ...] = (3, 4, 5)
    filters_per_window: int = 100
    hidden_size: int = 100
    nbest_cap: int = 10
    batch_size: int = 50
    dropout: float = 0.5
    adadelta_rho: float = 0.95
    adadelta_epsilon: float = 1e-6
    validation_fraction: float = 0.10
    patience: int = 5
    max_epochs: int = 100
    seed: int = 1
    act_only: bool = False
    asr_channel: str = "live"
    max_act_patterns: int = 14
    cv_folds: int = 10

    def validate(self) -> "RunConfig":
        if self.model not in VARIANTS:
            raise ConfigError(f"unknown model variant {self.model!r}; choose from {tuple(VARIANTS)}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if not self.filter_windows or any(w < 1 for w in self.filter_windows):
            raise ConfigError(f"filter_windows must be positive, got {self.filter_windows}")
        if len(set(self.filter_windows)) != len(self.filter_windows):
            raise ConfigError(f"filter_windows must be distinct, got {self.filter_windows}")
        if self.filters_per_window < 1:
            raise ConfigError(f"filters_per_window must be positive, got {self.filters_per_window}")
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be positive, got {self.hidden_size}")
        if self.nbest_cap < 1:
            raise ConfigError(f"nbest_cap must be at least 1, got {self.nbest_cap}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 < self.adadelta_rho < 1.0:
            raise ConfigError(f"adadelta_rho must lie in (0, 1), got {self.adadelta_rho}")
        if not 0.0 < self.adadelta_epsilon < math.inf:
            raise ConfigError(f"adadelta_epsilon must be finite and positive, got {self.adadelta_epsilon}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(f"validation_fraction must lie in (0, 1), got {self.validation_fraction}")
        if self.patience < 0:
            raise ConfigError(f"patience must be non-negative, got {self.patience}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.asr_channel not in ("live", "batch"):
            raise ConfigError(f"asr_channel must be 'live' or 'batch', got {self.asr_channel!r}")
        if self.max_act_patterns < 1:
            raise ConfigError(f"max_act_patterns must be positive, got {self.max_act_patterns}")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be at least 2, got {self.cv_folds}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str):
    text = text.strip()
    kind = _FIELD_TYPES[key]
    try:
        if kind == "bool":
            lowered = text.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "tuple[int, ...]":
            return tuple(int(part) for part in text.split(",") if part.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key!r}: {exc}") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _apply(cfg: RunConfig, entries: Iterable[tuple[str, str]]) -> RunConfig:
    """``cfg`` updated by ``(where, "key = value")`` entries; unknown keys are an error by name."""
    updates = {}
    for where, entry in entries:
        if "=" not in entry:
            raise ConfigError(f"{where}: expected 'key = value', got {entry!r}")
        key, value = (part.strip() for part in entry.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, value)
    return replace(cfg, **updates).validate()


def _config_lines(lines: Iterable[str]) -> Iterator[tuple[str, str]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"line {lineno}", line


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    return _apply(base or RunConfig(), _config_lines(text.splitlines()))


def parse_config_file(path, base: RunConfig | None = None) -> RunConfig:
    return _apply(base or RunConfig(), _config_lines(text_lines(path, ConfigError)))


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
