"""Word vectors and the token plumbing around them.

User hypotheses and system acts draw on the same pretrained vectors but
follow different training regimes: rows reached through hypothesis text
stay frozen at their loaded values, while rows reached through system
acts are copied into a per-model trainable block that the optimizer may
tune.  Out-of-vocabulary tokens share one vector per regime.  A system
act's tokens are its ``data.SystemAct.words``.
"""

from __future__ import annotations

import copy
import hashlib
import logging
from typing import Iterable, Sequence

import numpy as np

# tokenize and its TokenSequence are not used here: the benchmark and the tests import tokenize from this module.
from .data import TokenSequence, text_lines, tokenize
from .errors import DataFormatError, ModelStateError, ParseError
from .rng import Initializer

log = logging.getLogger(__name__)


class EmbeddingTable:
    """Frozen pretrained vectors plus per-model runtime rows.

    The loaded block is immutable and shared between views; each model
    calls :meth:`view` and then :meth:`prepare_runtime_rows` to receive
    its own hypothesis OOV row (frozen) and system-act block (trainable,
    row 0 reserved for system-act OOV).
    """

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        self.dim = int(matrix.shape[1])
        self._index: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        self._frozen = matrix
        self._frozen.setflags(write=False)
        self._fingerprint: str | None = None
        self._oov_vector: np.ndarray | None = None
        self._system_index: dict[str, int] = {}
        self.system_matrix: np.ndarray | None = None

    def __contains__(self, token: str) -> bool:
        return token in self._index

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
        clone = copy.copy(self)
        clone._oov_vector = None
        clone._system_index = {}
        clone.system_matrix = None
        return clone

    # -- runtime rows -------------------------------------------------------

    def prepare_runtime_rows(self, system_tokens: Iterable[str], init: Initializer) -> None:
        """Create the OOV row and the trainable system-act block.

        The OOV row is drawn, by a skeleton's initializer too.  System
        tokens found in the pretrained vocabulary start from a copy of their
        pretrained vector; row 0 (the shared system-act OOV row) and the rest
        take the initializer's next values in row order, as one block.
        """
        if self._oov_vector is not None:
            raise ModelStateError("runtime rows already prepared for this view")
        oov = init.draw(self.dim)
        oov.setflags(write=False)
        self._oov_vector = oov
        ordered = sorted(set(system_tokens))
        cols = np.array([self._index.get(token, -1) for token in ordered], dtype=np.int64)
        fresh = np.r_[True, cols < 0]
        block = np.empty((len(fresh), self.dim), dtype=np.float64)
        block[fresh] = init.uniform((int(fresh.sum()), self.dim))
        block[~fresh] = self._frozen[cols[cols >= 0]]
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
        cols = np.array([self._index.get(token, -1) for token in tokens], dtype=np.int64)
        out = self._frozen.take(cols, axis=0)  # an OOV token's -1 reads the last row; the next line replaces it
        out[cols < 0] = self._oov_vector
        return out

    def system_row_indices(self, tokens: Sequence[str]) -> np.ndarray:
        """Rows into the system block; unseen tokens map to the OOV row 0."""
        self._require_runtime()
        return np.asarray([self._system_index.get(t, 0) for t in tokens], dtype=np.int64)


def load_vectors(path, expected_dim: int | None = None) -> EmbeddingTable:
    """Load a pretrained vector file: one token plus its reals per line.

    The first line fixes the dimensionality; duplicate tokens keep their
    first occurrence (with a warning).  A kept vector with a component that
    is not finite (``nan``, ``inf``, ``-inf``) is a parse error naming its
    line.
    """
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    seen: set[str] = set()
    dim: int | None = None
    for lineno, raw in enumerate(text_lines(path), start=1):
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
        linenos.append(lineno)
    if not tokens:
        raise DataFormatError(f"{path}: no vectors found")
    matrix = np.vstack(rows)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}:{linenos[int(finite.argmin())]}: non-finite vector component")
    return EmbeddingTable(tokens, matrix)
