"""Timing spans recorded from the benchmark's side of each module boundary.

The tracer rebinds names that the package looks up at call time (module
globals such as ``nbestslu.model.encode_sentence`` and class attributes
such as ``Tensor.backward``) to wrappers that record a span per call, and
puts every original back when it exits.  Nothing inside the package is
edited.  Spans stay in memory until the run ends.

A span is (name, start, end, parent, turn): ``parent`` is the index of
the enclosing span (or -1) and ``turn`` the ``session:index`` of the
turn being processed, inherited from the parent when the call itself
does not reveal one.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Callable

from nbestslu import checkpoint, data, decoder, embeddings, model, training
from nbestslu.autograd import Tensor
from nbestslu.model import SlotValueModel, StepOneModel, TurnEncoder
from nbestslu.optim import Adadelta


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    turn: str | None


@dataclass(frozen=True)
class Target:
    """One name to rebind: ``owner.attr`` becomes a span called ``layer``.

    ``counts`` maps the call's arguments to counters summed per layer;
    ``turn`` maps them to the turn id, when the call reveals it;
    ``returned`` is handed the call's result.
    """

    owner: object
    attr: str
    layer: str
    counts: Callable | None = None
    turn: Callable | None = None
    returned: Callable | None = None


def _turn_id(turn) -> str:
    return f"{turn.session}:{turn.index}"


class TurnIndex:
    """Turn ids by ``id(turn.system_history)``, for every dataset read while tracing.

    This is how an encoder call, which sees only the history, is tied to
    its turn.  The index holds each dataset it has seen, so no registered
    history can be freed and its address reused while the index lives.
    """

    def __init__(self):
        self._datasets: list = []
        self._ids: dict[int, str] = {}

    def add(self, dataset) -> None:
        self._datasets.append(dataset)
        for turn in dataset.turns:
            self._ids[id(turn.system_history)] = _turn_id(turn)

    def lookup(self, history) -> str | None:
        return self._ids.get(id(history))


def default_targets() -> tuple[Target, ...]:
    """Every layer the benchmark reports, keyed to the calling module.

    Datasets must be read through ``data.read_canonical`` while tracing for
    ``model.encode`` spans outside a decode call to carry their turn.
    """
    turns = TurnIndex()
    return (
        Target(decoder, "decode_turn", "decoder.decode_turn",
               counts=lambda a, k: {"full_turns": 0 if k.get("step1_only") else 1},
               turn=lambda a, k: _turn_id(a[0])),
        Target(TurnEncoder, "encode", "model.encode", turn=lambda a, k: turns.lookup(a[2])),
        Target(model, "encode_sentence", "sentence.encode_sentence", counts=lambda a, k: {"hyps": len(a[0])}),
        Target(model, "run_context_lstm", "context.run_context_lstm", counts=lambda a, k: {"tokens": len(a[0])}),
        Target(model, "combine", "context.combine"),
        Target(StepOneModel, "head_probs", "model.heads"),
        Target(SlotValueModel, "value_probs", "model.heads"),
        Target(training, "nll_loss", "autograd.nll_loss"),
        Target(Tensor, "backward", "autograd.backward"),
        Target(Adadelta, "step", "optim.step"),
        Target(training, "step1_f1", "training.step1_f1"),
        Target(decoder, "predict_joint", "decoder.predict_joint", turn=lambda a, k: _turn_id(a[1])),
        Target(decoder, "predict_value", "decoder.predict_value", turn=lambda a, k: _turn_id(a[1])),
        Target(checkpoint, "load_checkpoint_dir", "checkpoint.load_checkpoint_dir"),
        Target(checkpoint, "save_checkpoint_dir", "checkpoint.save_checkpoint_dir"),
        Target(embeddings, "load_vectors", "embeddings.load_vectors"),
        Target(data, "read_canonical", "data.read_canonical", returned=turns.add),
    )


class Tracer:
    """Records spans around every target while active (a context manager).

    Also counts Tensor constructions, by wrapping ``Tensor.__init__``.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.tensors = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, original):
        spans, stack = self.spans, self._stack
        counters = self.counters.setdefault(target.layer, {})

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            turn = target.turn(args, kwargs) if target.turn else None
            if turn is None and parent >= 0:
                turn = spans[parent].turn
            if target.counts:
                for key, value in target.counts(args, kwargs).items():
                    counters[key] = counters.get(key, 0) + value
            index = len(spans)
            span = Span(target.layer, time.perf_counter(), 0.0, parent, turn)
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if target.returned:
                target.returned(result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            original = target.owner.__dict__[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))
        init = Tensor.__dict__["__init__"]
        self._saved.append((Tensor, "__init__", init))

        def counting_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        Tensor.__init__ = counting_init
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """All spans, one JSON record per line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent, span.turn]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach, span.start), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, inclusive and self milliseconds."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (span.end - span.start) * 1000.0
        row["self_ms"] += own * 1000.0
    return table
