"""Sentence representation from an ASR n-best list.

Each hypothesis is convolved with a bank of filters (one block per window
size, tanh nonlinearity), every feature map is max-pooled to one scalar,
and the pooled vectors of all hypotheses are combined by a posterior-
weighted sum.  The result is one fixed-length vector per user turn.

Several lists are one ``autograd.conv_nbest`` tape node
(``encode_sentences``), which projects each distinct word of all of them
once; one list is row 0 of a batch of one (``encode_sentence``), and one
hypothesis is a list of one.  The op reads the arrays an ``NBestList``
builds once, when it is made: the hypotheses in canonical order, their
weights, and an index of their distinct tokens.  These hold tokens, not
vectors, so one list serves every model that encodes it; each encode
looks the distinct tokens up in its model's own table view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import normalize_confidences
from .embeddings import EmbeddingTable
from .errors import DomainError
from .rng import Initializer


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    confidence: float

    def __post_init__(self):
        if not 0 <= self.confidence < np.inf:
            raise DomainError(f"hypothesis confidence must be finite and non-negative, got {self.confidence}")


class NBestList:
    """An ASR n-best list in canonical order, as the convolution reads it.

    Building the list sorts the hypotheses into canonical order
    (confidence descending, then tokens) and derives, once, their
    normalized ``weights``, their token ``counts``, the ``distinct``
    tokens, and ``index``: ``index[i, j]`` is the row of hypothesis i's
    token j, where row r > 0 is ``distinct[r - 1]`` and row 0 pads each
    hypothesis out to the longest.  Distinct tokens are numbered in the
    order they first occur in canonical order, so the top k hypotheses'
    arrays are the first rows of these, and every permutation of a list
    builds bit-identical arrays.  Nothing changes a list once it is built;
    its arrays are read-only.
    """

    def __init__(self, hyps):
        ranked = tuple(sorted(hyps, key=lambda h: (-h.confidence, h.tokens)))
        if not ranked:
            raise DomainError("empty n-best list; supply a single empty hypothesis instead")
        counts = np.array([len(h.tokens) for h in ranked])
        rows: dict[str, int] = {}
        index = np.zeros((len(ranked), counts.max()), dtype=np.int64)
        for i, hyp in enumerate(ranked):
            index[i, : len(hyp.tokens)] = [rows.setdefault(token, len(rows) + 1) for token in hyp.tokens]
        self.hyps: tuple[Hypothesis, ...] = ranked
        # Canonical order before normalization: the raw-score sum and the
        # divisions then round identically for any input order.
        self.weights = normalize_confidences([h.confidence for h in ranked])
        self.counts = counts
        self.distinct: tuple[str, ...] = tuple(rows)
        self.index = index  # [n, longest count]
        for array in (self.weights, counts, index):
            array.setflags(write=False)

    def truncated(self, cap: int) -> "NBestList":
        """The top ``cap`` hypotheses, renormalized; the list itself when it is no longer."""
        if cap >= len(self.hyps):
            return self
        return NBestList(self.hyps[:cap])

    def __len__(self) -> int:
        return len(self.hyps)


class ConvFilterBank:
    """One filter block per window size.

    Each block holds ``maps_per_window`` filters of length
    ``window * dim`` plus one bias per filter; the pooled feature vector
    has ``len(window_sizes) * maps_per_window`` entries.
    """

    def __init__(self, dim: int, window_sizes: tuple[int, ...], maps_per_window: int, init: Initializer):
        self.dim = dim
        self.window_sizes = tuple(sorted(window_sizes))
        self.maps_per_window = maps_per_window
        self.weights: dict[int, Tensor] = {}
        self.biases: dict[int, Tensor] = {}
        for width in self.window_sizes:
            self.weights[width] = Tensor(init.uniform((width * dim, maps_per_window)), requires_grad=True,
                                         name=f"conv.w{width}")
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
    """Confidence-weighted sum of per-hypothesis feature vectors: row 0 of ``encode_sentences`` of one list.

    Raw confidences are renormalized to sum to one, which makes the result
    invariant to uniform rescaling.  Terms are summed in the list's
    canonical order, so permuting the n-best list yields a bit-identical
    vector.
    """
    return ag.unstack(encode_sentences([nbest], table, bank))[0]


def encode_sentences(nbests, table: EmbeddingTable, bank: ConvFilterBank) -> Tensor:
    """The sentence vectors of several n-best lists, as the rows of one [B, F] tensor.

    One ``autograd.conv_nbest`` projects each distinct token of the lists
    once.  A list of one runs exactly the products the list runs alone.  A
    vector in a batch of more than about 100 distinct tokens at paper sizes
    can move in the last bits: there OpenBLAS on AVX-512 leaves its
    small-matrix dgemm kernel, and the two kernels round some rows apart.
    """
    return ag.conv_nbest(*_conv_inputs(nbests, table, bank), [len(nbest) for nbest in nbests])


def _conv_inputs(nbests, table: EmbeddingTable, bank: ConvFilterBank):
    """``conv_nbest``'s rows, index, lengths, weights and filters for n-best lists.

    Tokens are numbered in the order they first occur, list by list, so a
    list of one keeps its own numbering.
    """
    rows_of: dict[str, int] = {}
    # Row 0 pads every hypothesis out to at least the largest window.
    index = np.zeros((sum(map(len, nbests)), max([bank.max_window, *(nbest.index.shape[1] for nbest in nbests)])),
                     dtype=np.int64)
    first = 0
    for nbest in nbests:
        remap = np.array([0, *(rows_of.setdefault(token, len(rows_of) + 1) for token in nbest.distinct)])
        index[first : first + len(nbest), : nbest.index.shape[1]] = remap[nbest.index]
        first += len(nbest)
    rows = np.zeros((len(rows_of) + 1, table.dim))
    rows[1:] = table.hypothesis_rows(tuple(rows_of))
    lengths = np.maximum(np.concatenate([nbest.counts for nbest in nbests]), bank.max_window)
    weights = np.concatenate([nbest.weights for nbest in nbests])
    return rows, index, lengths, weights, [(bank.weights[width], bank.biases[width]) for width in bank.window_sizes]
