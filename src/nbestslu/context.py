"""Dialogue context: an LSTM over flattened system acts, plus the schemes
for combining the context vector with the sentence vector.

System acts are flattened to word streams (act name, slot names, value
words) and run through the LSTM oldest first from a zero initial state;
the final hidden vector is the context representation for the turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .embeddings import EmbeddingTable, encode_system_act
from .errors import ConfigError, DomainError


class LstmParams:
    """Gate parameters: per gate an input map, a recurrent map and a bias.

    Gate transitions, with s the logistic sigmoid:

        in     = s(W_i x + U_i h + b_i)
        forget = s(W_f x + U_f h + b_f)
        out    = s(W_o x + U_o h + b_o)
        update = tanh(W_u x + U_u h + b_u)
        cell   = in * update + forget * cell_prev
        hidden = out * tanh(cell)
    """

    GATES = ("i", "f", "o", "u")

    def __init__(self, input_dim: int, hidden_size: int, rng: np.random.Generator, prefix: str = "lstm"):
        if input_dim < 1 or hidden_size < 1:
            raise DomainError(f"LSTM dims must be positive, got input {input_dim}, hidden {hidden_size}")
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self.w: dict[str, Tensor] = {}
        self.u: dict[str, Tensor] = {}
        self.b: dict[str, Tensor] = {}
        for gate in self.GATES:
            self.w[gate] = Tensor(
                rng.uniform(-0.1, 0.1, (hidden_size, input_dim)), requires_grad=True, name=f"{prefix}.w_{gate}"
            )
            self.u[gate] = Tensor(
                rng.uniform(-0.1, 0.1, (hidden_size, hidden_size)), requires_grad=True, name=f"{prefix}.u_{gate}"
            )
            self.b[gate] = Tensor(np.zeros(hidden_size), requires_grad=True, name=f"{prefix}.b_{gate}")

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for gate in self.GATES:
            for t in (self.w[gate], self.u[gate], self.b[gate]):
                out[t.name] = t
        return out


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """One LSTM transition; returns the new (hidden, cell) pair."""

    def preact(gate: str) -> Tensor:
        return ag.add(ag.affine(x, params.w[gate], params.b[gate]), ag.matmul(params.u[gate], h_prev))

    gate_in = ag.sigmoid(preact("i"))
    gate_forget = ag.sigmoid(preact("f"))
    gate_out = ag.sigmoid(preact("o"))
    update = ag.tanh(preact("u"))
    cell = ag.add(ag.mul(gate_in, update), ag.mul(gate_forget, c_prev))
    hidden = ag.mul(gate_out, ag.tanh(cell))
    return hidden, cell


@dataclass(frozen=True)
class ContextWindow:
    """Which system turns feed the context encoder."""

    mode: str  # "none", "all", or "last"
    width: int = 0

    _NAMES = ("none", "all")

    def __post_init__(self):
        if self.mode == "last":
            if self.width < 1:
                raise DomainError(f"window width must be positive, got {self.width}")
        elif self.mode not in self._NAMES:
            raise DomainError(f"unknown context window mode {self.mode!r}")

    @classmethod
    def from_name(cls, name: str) -> "ContextWindow":
        if name in cls._NAMES:
            return cls(name)
        if name.startswith("last_"):
            return cls("last", int(name.split("_", 1)[1]))
        raise DomainError(f"unknown context window {name!r}")

    @property
    def name(self) -> str:
        return self.mode if self.mode in self._NAMES else f"last_{self.width}"

    def select(self, system_turns: Sequence) -> tuple:
        if self.mode == "none":
            return ()
        if self.mode == "all":
            return tuple(system_turns)
        return tuple(system_turns[-min(self.width, len(system_turns)) :]) if system_turns else ()


def context_tokens(system_turns: Sequence, window: ContextWindow) -> list[str]:
    """Flatten the selected system turns, oldest first, to one word stream."""
    tokens: list[str] = []
    for system_turn in window.select(system_turns):
        for act in system_turn:
            tokens.extend(encode_system_act(act).tokens)
    return tokens


def run_context_lstm(
    tokens: Sequence[str], table: EmbeddingTable, system_embeddings: Tensor, params: LstmParams
) -> tuple[Tensor, Tensor]:
    """Run the LSTM over system-act tokens from a zero initial state."""
    hidden = Tensor(np.zeros(params.hidden_size))
    cell = Tensor(np.zeros(params.hidden_size))
    for row in table.system_row_indices(tokens):
        x = ag.embedding_row(system_embeddings, int(row))
        hidden, cell = lstm_step(x, hidden, cell, params)
    return hidden, cell


# ---------------------------------------------------------------------------
# combining sentence and context
# ---------------------------------------------------------------------------

IDENTITY = "identity"
TANH_COMBINE = "tanh"
LSTM_INPUT = "lstm-input"


@dataclass(frozen=True)
class Combiner:
    """One way of merging sentence and context vectors: a mode and its tensors.

    ``identity`` (no tensors) passes the sentence vector through.
    ``tanh`` (ws, wc) computes tanh(ws @ sentence + wc @ context).
    ``lstm-input`` (p,) projects the sentence vector to the LSTM input
    width and feeds it as one final LSTM step; the resulting hidden state
    is the combined vector.
    """

    mode: str
    tensors: tuple[Tensor, ...]

    @classmethod
    def build(cls, mode: str, sentence_dim: int, hidden_size: int, input_dim: int,
              rng: np.random.Generator) -> "Combiner":
        shapes = {
            IDENTITY: {},
            TANH_COMBINE: {"ws": (hidden_size, sentence_dim), "wc": (hidden_size, hidden_size)},
            LSTM_INPUT: {"p": (input_dim, sentence_dim)},
        }
        if mode not in shapes:
            raise ConfigError(f"unknown combiner mode {mode!r}")
        return cls(mode, tuple(
            Tensor(rng.uniform(-0.1, 0.1, shape), requires_grad=True, name=f"comb.{name}")
            for name, shape in shapes[mode].items()
        ))

    def parameters(self) -> dict[str, Tensor]:
        return {t.name: t for t in self.tensors}


def combine(
    sentence: Tensor,
    context_state: tuple[Tensor, Tensor] | None,
    combiner: Combiner,
    lstm: LstmParams | None = None,
) -> Tensor:
    """Merge sentence and context per the combiner's mode."""
    if combiner.mode == IDENTITY:
        return sentence
    if context_state is None:
        raise ConfigError(f"combiner mode {combiner.mode!r} needs a context state")
    if combiner.mode == TANH_COMBINE:
        sentence_weight, context_weight = combiner.tensors
        return ag.tanh(ag.add(ag.matmul(sentence_weight, sentence), ag.matmul(context_weight, context_state[0])))
    if lstm is None:
        raise ConfigError("lstm-input combiner needs the LSTM parameters")
    (projection,) = combiner.tensors
    hidden, _ = lstm_step(ag.matmul(projection, sentence), context_state[0], context_state[1], lstm)
    return hidden
