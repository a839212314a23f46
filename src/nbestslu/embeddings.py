"""Word vectors and the token plumbing around them.

User hypotheses and system acts draw on the same pretrained vectors but
follow different training regimes: rows reached through hypothesis text
stay frozen at their loaded values, while rows reached through system
acts are copied into a per-model trainable block that the optimizer may
tune.  Out-of-vocabulary tokens share one vector per regime.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import SystemAct
from .errors import DataFormatError, DomainError, ModelStateError, ParseError

log = logging.getLogger(__name__)

USER_HYPOTHESIS = "user-hypothesis"
SYSTEM_ACT = "system-act"
_ORIGINS = (USER_HYPOTHESIS, SYSTEM_ACT)

INIT_SCALE = 0.1  # fresh rows are drawn uniform(-INIT_SCALE, INIT_SCALE)


@dataclass(frozen=True)
class TokenSequence:
    """An ordered run of tokens tagged with where they came from."""

    tokens: tuple[str, ...]
    origin: str

    def __post_init__(self):
        if self.origin not in _ORIGINS:
            raise DomainError(f"unknown token origin {self.origin!r}")
        if any(not t for t in self.tokens):
            raise DomainError("token sequences may not contain empty tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def tokenize(text: str, origin: str = USER_HYPOTHESIS) -> TokenSequence:
    """Lowercase and split on whitespace; nothing else is stripped."""
    return TokenSequence(tuple(text.lower().split()), origin)


def encode_system_act(act: SystemAct) -> TokenSequence:
    """Flatten a system act to tokens: act name, then each slot and value.

    Multi-word values contribute one token per word, e.g.
    offer(name=golden wok) -> [offer, name, golden, wok].
    """
    tokens: list[str] = act.name.lower().split()
    for slot, value in act.pairs:
        tokens.extend(slot.lower().split())
        tokens.extend(str(value).lower().split())
    return TokenSequence(tuple(tokens), SYSTEM_ACT)


class EmbeddingTable:
    """Frozen pretrained vectors plus per-model runtime rows.

    The loaded block is immutable and shared between views; each model
    calls :meth:`view` and then :meth:`prepare_runtime_rows` to receive
    its own hypothesis OOV row (frozen) and system-act block (trainable,
    row 0 reserved for system-act OOV).
    """

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise DataFormatError(
                f"embedding matrix shape {matrix.shape} does not match {len(tokens)} tokens"
            )
        self.dim = int(matrix.shape[1])
        self._index: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        if len(self._index) != len(tokens):
            raise DataFormatError("duplicate tokens in embedding table")
        self._frozen = matrix
        self._frozen.setflags(write=False)
        self._fingerprint: str | None = None
        self._oov_vector: np.ndarray | None = None
        self._system_index: dict[str, int] = {}
        self.system_matrix: np.ndarray | None = None

    @property
    def vocab_size(self) -> int:
        return len(self._index)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def frozen_vector(self, token: str) -> np.ndarray:
        try:
            return self._frozen[self._index[token]]
        except KeyError:
            raise DomainError(f"token {token!r} is not in the pretrained vocabulary") from None

    def fingerprint(self) -> str:
        """Content hash of the frozen block (vocabulary and values)."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(str(self.dim).encode("ascii"))
            for token in self._index:
                digest.update(token.encode("utf-8"))
                digest.update(b"\0")
            digest.update(np.ascontiguousarray(self._frozen, dtype="<f8").tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def view(self) -> "EmbeddingTable":
        """A new table sharing the frozen block but with no runtime rows."""
        clone = EmbeddingTable.__new__(EmbeddingTable)
        clone.dim = self.dim
        clone._index = self._index
        clone._frozen = self._frozen
        clone._fingerprint = self._fingerprint
        clone._oov_vector = None
        clone._system_index = {}
        clone.system_matrix = None
        return clone

    # -- runtime rows -------------------------------------------------------

    def prepare_runtime_rows(self, system_tokens: Iterable[str], rng: np.random.Generator) -> None:
        """Create the OOV row and the trainable system-act block.

        System tokens found in the pretrained vocabulary start from a copy
        of their pretrained vector; the rest are drawn fresh.  Row 0 of
        the system block is the shared system-act OOV row.
        """
        if self._oov_vector is not None:
            raise ModelStateError("runtime rows already prepared for this view")
        oov = rng.uniform(-INIT_SCALE, INIT_SCALE, self.dim)
        oov.setflags(write=False)
        self._oov_vector = oov
        ordered = sorted(set(system_tokens))
        block = np.empty((len(ordered) + 1, self.dim), dtype=np.float64)
        block[0] = rng.uniform(-INIT_SCALE, INIT_SCALE, self.dim)
        for row, token in enumerate(ordered, start=1):
            col = self._index.get(token)
            block[row] = self._frozen[col] if col is not None else rng.uniform(-INIT_SCALE, INIT_SCALE, self.dim)
        self._system_index = {token: row for row, token in enumerate(ordered, start=1)}
        self.system_matrix = block

    @property
    def system_tokens(self) -> tuple[str, ...]:
        return tuple(self._system_index)

    @property
    def hypothesis_oov_vector(self) -> np.ndarray:
        self._require_runtime()
        return self._oov_vector

    def _require_runtime(self) -> None:
        if self._oov_vector is None:
            raise ModelStateError("prepare_runtime_rows must run before lookups")

    def hypothesis_rows(self, tokens: Sequence[str]) -> np.ndarray:
        """Frozen vectors for hypothesis tokens; OOV tokens share one row."""
        self._require_runtime()
        out = np.empty((len(tokens), self.dim), dtype=np.float64)
        for i, token in enumerate(tokens):
            col = self._index.get(token)
            out[i] = self._frozen[col] if col is not None else self._oov_vector
        return out

    def system_row_indices(self, tokens: Sequence[str]) -> np.ndarray:
        """Rows into the system block; unseen tokens map to the OOV row 0."""
        self._require_runtime()
        return np.asarray([self._system_index.get(t, 0) for t in tokens], dtype=np.int64)


def load_vectors(path, expected_dim: int | None = None) -> EmbeddingTable:
    """Load a pretrained vector file: one token plus its reals per line.

    The first line fixes the dimensionality; duplicate tokens keep their
    first occurrence (with a warning).
    """
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    dim: int | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            parts = raw.split()
            if not parts:
                continue
            token, components = parts[0], parts[1:]
            if dim is None:
                if not components:
                    raise ParseError(f"{path}:{lineno}: no vector components")
                dim = len(components)
                if expected_dim is not None and dim != expected_dim:
                    raise DataFormatError(
                        f"{path}: vectors are {dim}-dimensional, expected {expected_dim}"
                    )
            if len(components) != dim:
                raise ParseError(f"{path}:{lineno}: expected {dim} components, got {len(components)}")
            try:
                vector = np.asarray(components, dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: unparseable vector component") from None
            if token in seen:
                log.warning("duplicate vector for %r at %s:%d; keeping the first", token, path, lineno)
                continue
            seen.add(token)
            tokens.append(token)
            rows.append(vector)
    if not tokens:
        raise DataFormatError(f"{path}: no vectors found")
    return EmbeddingTable(tokens, np.vstack(rows))
