"""Model assembly: the shared turn encoder plus classification heads.

Five variants cover the studied configurations:

    cnn          sentence features only: no context model and no combiner
    cnn_lstm_w1  tanh combination with the last system turn as context
    cnn_lstm_w4  tanh combination with the last four system turns
    cnn_lstm_w   tanh combination with the whole system history
    lstm_all     context LSTM that receives the projected sentence vector
                 as its final input step

The joint model reads one hidden vector (the combined vector, or the
sentence vector for ``cnn``) through an act head and one presence head
per slot; each slot-value model reads its own hidden vector through a
single head over that slot's value inventory.  A model's heads are one
stacked weight and bias, so one product and one softmax per head's
block of columns (``autograd.softmax_heads``) read them all.  Nothing
checks the parameters per prediction: loading refuses a checkpoint with
a non-finite value, and an optimizer step refuses a non-finite gradient.
"""

from __future__ import annotations

import io
import sys

import numpy as np

from . import autograd as ag
from . import rng as rng_mod
from .autograd import Tensor
from .config import VARIANTS, RunConfig
from .context import Combiner, ContextWindow, LstmParams, combine, context_tokens, run_context_lstm
from .embeddings import EmbeddingTable
from .errors import ConfigError, DataFormatError
from .ontology import Ontology
from .sentence import ConvFilterBank, NBestList, encode_sentence, encode_sentences

# Most context tokens one LSTM run holds.  The kernel keeps about 7.2 KB per
# token at paper sizes (inputs, gates, states and squashed cells), so a run
# stays under 60 MB however many turns a list holds.
CONTEXT_TOKENS = 8192

HYP_OOV = "embed.hyp_oov"  # the stored hypothesis OOV row, which a load checks against the seed's


class TurnEncoder:
    """Everything between raw turn inputs and the hidden vector the heads read."""

    def __init__(self, config: RunConfig, store: EmbeddingTable, system_tokens, init: rng_mod.Initializer):
        window_name, combine_mode = VARIANTS[config.model]
        self.window = ContextWindow(window_name)
        self.table = store.view()
        self.nbest_cap = config.nbest_cap
        self.bank = ConvFilterBank(store.dim, config.filter_windows, config.filters_per_window, init)
        self.table.prepare_runtime_rows(() if combine_mode is None else system_tokens, init)
        if combine_mode is None:
            self.lstm = None
            self.out_dim = self.bank.feature_size
        else:
            self.system_embeddings = Tensor(self.table.system_matrix, requires_grad=True, name="embed.system")
            self.lstm = LstmParams(store.dim, config.hidden_size, init)
            self.out_dim = config.hidden_size
            self.combiner = Combiner.build(combine_mode, self.bank.feature_size, config.hidden_size, store.dim, init)

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.bank.parameters())
        if self.lstm is not None:
            out.update(self.lstm.parameters())
            out.update(self.combiner.parameters())
            out[self.system_embeddings.name] = self.system_embeddings
        return out

    def contexts(self, histories) -> list:
        """Each history's context state (hidden, cell), in order.

        A state is ``encode``'s ``context`` for its turn.  The histories'
        token streams run through the LSTM in consecutive runs of at most
        ``CONTEXT_TOKENS`` tokens (a longer stream runs alone), so a long
        list of turns holds bounded memory; a mini-batch within the bound
        is one run.  Without a context model every state is None.
        """
        if self.lstm is None:
            return [None] * len(histories)
        runs: list[list[list[str]]] = []
        size = 0
        for history in histories:
            stream = context_tokens(history, self.window)
            if not runs or size + len(stream) > CONTEXT_TOKENS:
                runs.append([])
                size = 0
            runs[-1].append(stream)
            size += len(stream)
        states: list = []
        for run in runs:
            hidden, cell = run_context_lstm([token for stream in run for token in stream], self.table,
                                            self.system_embeddings, self.lstm, [len(stream) for stream in run])
            states += zip(ag.unstack(hidden), ag.unstack(cell))
        return states

    def sentences(self, nbests) -> list:
        """Each n-best list's sentence vector, in order, from one convolution over all of them.

        A vector is ``encode``'s ``sentence`` for its turn; each list is
        truncated to the n-best cap first, as ``encode`` truncates it.
        """
        return list(ag.unstack(encode_sentences([nbest.truncated(self.nbest_cap) for nbest in nbests],
                                                self.table, self.bank)))

    def encode(self, nbest: NBestList, system_history, context=None, sentence=None) -> Tensor:
        """Hidden vector for one turn: the sentence vector alone when there is no context model.

        ``context`` is the turn's state from ``contexts`` and ``sentence`` its
        vector from ``sentences``; without them the state comes from
        ``contexts([system_history])``, the same packed run over a batch of
        one, and the vector from ``encode_sentence``, the same convolution
        over a list of one.  Callers pass the turn's own n-best list and
        history either way, so every call names its turn (the benchmark's
        tracer ties ``model.encode`` spans to turns by the history).
        """
        if sentence is None:
            sentence = encode_sentence(nbest.truncated(self.nbest_cap), self.table, self.bank)
        if self.lstm is None:
            return sentence
        if context is None:
            (context,) = self.contexts([system_history])
        return combine(sentence, context, self.combiner, self.lstm)


class HeadedModel:
    """A turn encoder read through an ordered set of softmax heads.

    Heads are (weight, bias) pairs keyed by their parameter prefix.  Their
    values live stacked in head order in ``stacked`` = (W [C, H], b [C]),
    C the heads' classes together, head k's ``sizes[k]`` rows from row
    ``starts[k]``.  Each pair is a row-block view of those arrays, as
    ``context.LstmParams`` keeps its gates, so every write to a head must
    be in place; ``probs`` reads them all through one product.  The
    encoder and then every head, in order, draw their initial values from
    the ``INIT`` substream of the run seed extended by ``stream``.  A model
    is rebuilt from its config, ontology, system tokens and store alone.
    A ``skeleton`` is a model for a load to write: its initializer skips
    every block and draws only the hypothesis OOV row, which the load checks.
    """

    def __init__(self, config: RunConfig, ontology: Ontology, system_tokens, store: EmbeddingTable,
                 heads: list[tuple[str, int]], stream: tuple[int, ...] = (), skeleton: bool = False):
        init = rng_mod.Initializer(rng_mod.substream(config.seed, rng_mod.INIT, *stream), skeleton)
        self.config = config
        self.ontology = ontology
        self.encoder = TurnEncoder(config, store, system_tokens, init)
        self.sizes = np.array([classes for _, classes in heads])
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.stacked = (np.empty((self.sizes.sum(), self.encoder.out_dim)), np.zeros(self.sizes.sum()))
        self.heads: dict[str, tuple[Tensor, Tensor]] = {}
        for (name, classes), start in zip(heads, self.starts.tolist()):
            weight, bias = (array[start : start + classes] for array in self.stacked)
            self.heads[name] = (Tensor(init.fill(weight), requires_grad=True, name=f"{name}.w"),
                                Tensor(bias, requires_grad=True, name=f"{name}.b"))

    @classmethod
    def build(cls, *args, **kwargs):
        """A freshly initialised model; takes the subclass's own arguments."""
        return cls(*args, **kwargs)

    def parameters(self) -> dict[str, Tensor]:
        out = self.encoder.parameters()
        for head in self.heads.values():
            out.update((tensor.name, tensor) for tensor in head)
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        """A copy of every parameter's values in ``parameters()`` order, then the hypothesis OOV row."""
        out = {name: tensor.data.copy() for name, tensor in self.parameters().items()}
        out[HYP_OOV] = self.encoder.table.hypothesis_oov_vector.copy()
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray], where) -> None:
        """Write arrays named as ``arrays()`` names them into the parameters, as ``read_arrays`` reads them."""
        values = io.BytesIO(b"".join(np.ascontiguousarray(array, dtype="<f8").tobytes() for array in arrays.values()))
        self.read_arrays(values, [(name, array.shape) for name, array in arrays.items()], where)

    def read_arrays(self, handle, entries: list[tuple[str, tuple[int, ...]]], where) -> None:
        """Read the (name, shape) ``entries``' little-endian float64 values from ``handle`` into the parameters.

        Each is read straight into its parameter's array, since the LSTM gate
        tensors view ``LstmParams.stacked``, the heads view ``stacked`` and
        ``embed.system`` is the table's block.  This is the one finiteness
        check of loaded values (the optimizer refuses a non-finite
        gradient).  The OOV row is checked, not written: the seed draws it.
        A refused read leaves the parameters read before it in place.
        """
        params = self.parameters()
        names, expected = {name for name, _ in entries}, set(params) | {HYP_OOV}
        if names != expected:
            raise DataFormatError(f"{where}: parameter set mismatch (missing {sorted(expected - names)}, "
                                  f"extra {sorted(names - expected)})")
        for name, shape in entries:
            target = np.empty(shape) if name == HYP_OOV else params[name].data
            if target.shape != shape:
                raise DataFormatError(f"{where}: parameter {name} has shape {shape}, expected {target.shape}")
            handle.readinto(target)
            if sys.byteorder == "big":
                target.byteswap(inplace=True)
            if not np.all(np.isfinite(target)):
                raise DataFormatError(f"{where}: parameter {name} contains non-finite values")
            if name == HYP_OOV and not np.array_equal(self.encoder.table.hypothesis_oov_vector, target):
                raise ConfigError(f"{where}: checkpoint was written against a different embedding store or seed")

    def probs(self, hidden: Tensor) -> Tensor:
        """Every head's distribution over a hidden vector, side by side in one [C] tensor, or [B, C] over [B, H].

        It is one ``autograd.softmax_heads`` node: head k's classes are its
        ``sizes[k]`` columns from column ``starts[k]``.
        """
        return ag.softmax_heads(hidden, self.stacked, list(self.heads.values()), self.starts, self.sizes)


class StepOneModel(HeadedModel):
    """Joint prediction of the dialogue act and per-slot presence."""

    PRESENT = 1  # index of the "present" class in every presence head

    def __init__(self, config: RunConfig, ontology: Ontology, system_tokens, store: EmbeddingTable,
                 skeleton: bool = False):
        heads = [("head.act", len(ontology.acts))] + [(f"head.slot.{slot}", 2) for slot in ontology.slots]
        super().__init__(config, ontology, system_tokens, store, heads, skeleton=skeleton)

    def head_probs(self, hidden: Tensor) -> tuple[Tensor, dict[str, Tensor]]:
        """Softmax distributions of every head over one combined vector, or over each row of [B, H].

        Each is a block of ``probs``' one output, split off by ``autograd.split``.
        """
        act, *slots = ag.split(self.probs(hidden), self.starts)
        return act, dict(zip(self.ontology.slots, slots))


class SlotValueModel(HeadedModel):
    """Value prediction over ``ontology.slot_values(slot)``, with its own encoder and head."""

    def __init__(self, config: RunConfig, ontology: Ontology, slot: str, system_tokens, store: EmbeddingTable,
                 skeleton: bool = False):
        values = ontology.slot_values(slot)
        if len(values) < 2:
            raise ConfigError(f"slot {slot!r} has {len(values)} value(s); value models need at least 2")
        self.slot = slot
        self.values = values
        super().__init__(config, ontology, system_tokens, store, [(f"head.value.{slot}", len(values))],
                         stream=(ontology.slots.index(slot) + 1,), skeleton=skeleton)

    def value_probs(self, hidden: Tensor) -> Tensor:
        """The distribution over ``values``: ``probs`` of the model's one head."""
        return self.probs(hidden)
