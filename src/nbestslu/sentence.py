"""Sentence representation from an ASR n-best list.

Each hypothesis is convolved with a bank of filters (one block per window
size, tanh nonlinearity), every feature map is max-pooled to one scalar,
and the pooled vectors of all hypotheses are combined by a posterior-
weighted sum.  The result is one fixed-length vector per user turn.

The whole list is one ``autograd.conv_nbest`` tape node over the word
vectors stacked in canonical order; one hypothesis is a list of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import normalize_confidences
from .embeddings import EmbeddingTable, tokenize
from .errors import DomainError


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    confidence: float

    def __post_init__(self):
        if self.confidence < 0:
            raise DomainError(f"hypothesis confidence must be non-negative, got {self.confidence}")


@dataclass(frozen=True)
class NBestList:
    """Ranked alternative transcriptions with non-negative confidences."""

    hyps: tuple[Hypothesis, ...]

    @classmethod
    def from_texts(cls, pairs) -> "NBestList":
        return cls(tuple(Hypothesis(tokenize(text).tokens, float(conf)) for text, conf in pairs))

    def ranked(self) -> tuple[Hypothesis, ...]:
        """The hypotheses in canonical order: confidence descending, then tokens."""
        return tuple(sorted(self.hyps, key=lambda h: (-h.confidence, h.tokens)))

    def truncated(self, cap: int) -> "NBestList":
        """The top ``cap`` hypotheses in canonical order, whatever the input order."""
        if cap < 1:
            raise DomainError(f"n-best cap must be at least 1, got {cap}")
        return NBestList(self.ranked()[:cap])

    def __len__(self) -> int:
        return len(self.hyps)


class ConvFilterBank:
    """One filter block per window size.

    Each block holds ``maps_per_window`` filters of length
    ``window * dim`` plus one bias per filter; the pooled feature vector
    has ``len(window_sizes) * maps_per_window`` entries.
    """

    def __init__(self, dim: int, window_sizes: tuple[int, ...], maps_per_window: int, rng: np.random.Generator):
        if not window_sizes or any(w < 1 for w in window_sizes):
            raise DomainError(f"window sizes must be positive, got {window_sizes}")
        if len(set(window_sizes)) != len(window_sizes):
            raise DomainError(f"window sizes must be distinct, got {window_sizes}")
        if maps_per_window < 1:
            raise DomainError(f"need at least one feature map per window, got {maps_per_window}")
        self.dim = dim
        self.window_sizes = tuple(sorted(window_sizes))
        self.maps_per_window = maps_per_window
        self.weights: dict[int, Tensor] = {}
        self.biases: dict[int, Tensor] = {}
        for width in self.window_sizes:
            self.weights[width] = Tensor(
                rng.uniform(-0.1, 0.1, (width * dim, maps_per_window)), requires_grad=True, name=f"conv.w{width}"
            )
            self.biases[width] = Tensor(np.zeros(maps_per_window), requires_grad=True, name=f"conv.b{width}")

    @property
    def feature_size(self) -> int:
        return len(self.window_sizes) * self.maps_per_window

    @property
    def max_window(self) -> int:
        return self.window_sizes[-1]

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for width in self.window_sizes:
            out[self.weights[width].name] = self.weights[width]
            out[self.biases[width].name] = self.biases[width]
        return out


def encode_hypothesis(tokens, table: EmbeddingTable, bank: ConvFilterBank) -> Tensor:
    """Pooled convolution features for one hypothesis: a one-hypothesis list of weight 1.

    Hypotheses shorter than the largest window (including the empty one)
    are right-padded with zero vectors, so every filter sees at least one
    window and an empty hypothesis yields tanh(bias) per filter.
    """
    return encode_sentence(NBestList((Hypothesis(tuple(tokens), 1.0),)), table, bank)


def encode_sentence(nbest: NBestList, table: EmbeddingTable, bank: ConvFilterBank) -> Tensor:
    """Confidence-weighted sum of per-hypothesis feature vectors.

    Raw confidences are renormalized to sum to one, which makes the result
    invariant to uniform rescaling.  Terms are summed in the canonical order
    of ``NBestList.ranked``, so permuting the n-best list yields a
    bit-identical vector.
    """
    if len(nbest) == 0:
        raise DomainError("empty n-best list; supply a single empty hypothesis instead")
    if table.dim != bank.dim:
        raise DomainError(f"embedding dim {table.dim} does not match filter bank dim {bank.dim}")
    # Canonical order before normalization: the raw-score sum, the divisions
    # and the additions in the op then all round identically for any input order.
    ordered = nbest.ranked()
    weights = normalize_confidences([h.confidence for h in ordered])
    lengths = np.array([max(len(h.tokens), bank.max_window) for h in ordered])
    rows = np.zeros((len(ordered), lengths.max(), table.dim))
    for i, hyp in enumerate(ordered):
        rows[i, : len(hyp.tokens)] = table.hypothesis_rows(hyp.tokens)
    filters = [(bank.weights[width], bank.biases[width]) for width in bank.window_sizes]
    return ag.conv_nbest(rows, lengths, weights, filters)
