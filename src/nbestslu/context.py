"""Dialogue context: an LSTM over flattened system acts, plus the two
schemes for combining the context state with the sentence vector.

System acts are flattened to one word stream (each act's
``data.SystemAct.words``) and run through the LSTM oldest first from a
zero initial state; the final hidden vector is the context
representation for the turn.  ``run_context_lstm`` runs the streams of a
batch of turns at once (a mini-batch, a validation set, or one decoded
turn as a batch of one): ``autograd.lstm_sequence`` reads every token's
row of the system-act embeddings through an index and runs every stream
in one packed kernel, with its own backprop through time.  The one-step
``lstm_step`` (used by the ``lstm-input`` combiner) runs the same kernel
over a batch of one sequence of one step, whose table is its one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .embeddings import EmbeddingTable
from .errors import DomainError
from .rng import Initializer


LSTM_GATES = ("i", "f", "o", "u")


class LstmParams:
    """Gate parameters: per gate an input map, a recurrent map and a bias.

    Gate transitions, with s the logistic sigmoid:

        in     = s(W_i x + U_i h + b_i)
        forget = s(W_f x + U_f h + b_f)
        out    = s(W_o x + U_o h + b_o)
        update = tanh(W_u x + U_u h + b_u)
        cell   = in * update + forget * cell_prev
        hidden = out * tanh(cell)

    The values live stacked gate-major (``LSTM_GATES``: i, f, o, u) in
    ``stacked`` = (W [4H, D], U [4H, H], b [4H]), which
    ``autograd.lstm_sequence`` reads as they are: one input product for
    all steps and one recurrent product per step give all four gates.  The
    twelve named tensors (``lstm.w_i`` ... ``lstm.b_u``, in the dicts
    ``w``, ``u`` and ``b``) are row-block views of those arrays.  They are
    what checkpoints store, what gradients land on and what the optimizer
    updates, so every write to them must be in place.  After construction,
    which fills them from an initializer, two writers remain:
    ``Adadelta.step`` and ``HeadedModel.read_arrays``, which a checkpoint
    load and early stopping's ``HeadedModel.load_arrays`` call.
    """

    def __init__(self, input_dim: int, hidden_size: int, init: Initializer):
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        rows = len(LSTM_GATES) * hidden_size
        self.stacked = (np.empty((rows, input_dim)), np.empty((rows, hidden_size)), np.zeros(rows))
        self.w: dict[str, Tensor] = {}
        self.u: dict[str, Tensor] = {}
        self.b: dict[str, Tensor] = {}
        for k, gate in enumerate(LSTM_GATES):
            w, u, b = (stacked[k * hidden_size : (k + 1) * hidden_size] for stacked in self.stacked)
            self.w[gate] = Tensor(init.fill(w), requires_grad=True, name=f"lstm.w_{gate}")
            self.u[gate] = Tensor(init.fill(u), requires_grad=True, name=f"lstm.u_{gate}")
            self.b[gate] = Tensor(b, requires_grad=True, name=f"lstm.b_{gate}")

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for gate in LSTM_GATES:
            for t in (self.w[gate], self.u[gate], self.b[gate]):
                out[t.name] = t
        return out


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """One LSTM transition of vectors, run as a batch of one; returns the new (hidden, cell) pair."""
    rows, h0, c0 = (ag.stack([t]) for t in (x, h_prev, c_prev))
    hidden, cell = ag.lstm_sequence(rows, [0], h0, c0, params, [1])
    return ag.unstack(hidden)[0], ag.unstack(cell)[0]


# Each context window the variants name -> how many of the latest system turns it reads (None: all).
WINDOWS = {"none": 0, "last_1": 1, "last_4": 4, "all": None}


@dataclass(frozen=True)
class ContextWindow:
    """Which system turns feed the context encoder: one of ``WINDOWS``."""

    name: str

    def __post_init__(self):
        if self.name not in WINDOWS:
            raise DomainError(f"unknown context window {self.name!r}; known: {', '.join(WINDOWS)}")

    @classmethod
    def from_name(cls, name: str) -> "ContextWindow":
        """``ContextWindow(name)``, the one spelling in the package; the benchmark's ``perfbench/run.py`` calls this."""
        return cls(name)

    def select(self, system_turns: Sequence) -> tuple:
        turns, width = tuple(system_turns), WINDOWS[self.name]
        return turns if width is None else turns[max(0, len(turns) - width) :]


def context_tokens(system_turns: Sequence, window: ContextWindow) -> list[str]:
    """Flatten the selected system turns, oldest first, to one stream of their acts' ``words``."""
    tokens: list[str] = []
    for system_turn in window.select(system_turns):
        for act in system_turn:
            tokens.extend(act.words)
    return tokens


def run_context_lstm(
    tokens: Sequence[str], table: EmbeddingTable, system_embeddings: Tensor, params: LstmParams,
    lengths: Sequence[int],
) -> tuple[Tensor, Tensor]:
    """Run the LSTM over system-act tokens from a zero initial state; returns the final (hidden, cell).

    ``tokens`` holds the streams of B turns one after another, ``lengths[b]``
    tokens for turn b; the results are [B, H], row b for turn b.  The kernel
    reads the tokens' rows of ``system_embeddings`` through ``table.system_row_indices``.
    """
    state = np.zeros((len(lengths), params.hidden_size))
    return ag.lstm_sequence(system_embeddings, table.system_row_indices(tokens), Tensor(state), Tensor(state),
                            params, lengths)


# ---------------------------------------------------------------------------
# combining sentence and context
# ---------------------------------------------------------------------------

TANH_COMBINE = "tanh"
LSTM_INPUT = "lstm-input"


@dataclass(frozen=True)
class Combiner:
    """One way of merging sentence and context vectors: a mode and its tensors.

    ``tanh`` (ws, wc) computes tanh(ws @ sentence + wc @ context).
    ``lstm-input`` (p,) projects the sentence vector to the LSTM input
    width and feeds it as one final LSTM step; the resulting hidden state
    is the combined vector.
    """

    mode: str
    tensors: tuple[Tensor, ...]

    @classmethod
    def build(cls, mode: str, sentence_dim: int, hidden_size: int, input_dim: int,
              init: Initializer) -> "Combiner":
        shapes = {
            TANH_COMBINE: {"ws": (hidden_size, sentence_dim), "wc": (hidden_size, hidden_size)},
            LSTM_INPUT: {"p": (input_dim, sentence_dim)},
        }
        return cls(mode, tuple(Tensor(init.uniform(shape), requires_grad=True, name=f"comb.{name}")
                               for name, shape in shapes[mode].items()))

    def parameters(self) -> dict[str, Tensor]:
        return {t.name: t for t in self.tensors}


def combine(sentence: Tensor, context_state: tuple[Tensor, Tensor], combiner: Combiner,
            lstm: LstmParams) -> Tensor:
    """Merge sentence and context per the combiner's mode; ``lstm`` runs the ``lstm-input`` step."""
    if combiner.mode == TANH_COMBINE:
        sentence_weight, context_weight = combiner.tensors
        return ag.tanh(ag.add(ag.matmul(sentence_weight, sentence), ag.matmul(context_weight, context_state[0])))
    (projection,) = combiner.tensors
    hidden, _ = lstm_step(ag.matmul(projection, sentence), context_state[0], context_state[1], lstm)
    return hidden
