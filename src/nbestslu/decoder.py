"""Two-step semantic decoding.

Step one reads the combined hidden vector through the joint heads, one
stacked product and softmax (``StepOneModel.head_probs``): the act
label is the argmax of the act head, and a slot counts as detected when
its presence probability exceeds one half.  Step two asks each
detected slot's value model for the most probable value.  Item
confidences compose multiplicatively: a slot-value item carries
P(present) * P(value | slot), the act item carries P(act).

``decode_turns`` decodes a list of turns: it tokenizes each turn's n-best
list once, and each model takes the context states of the turns it reads
from one ``TurnEncoder.contexts`` call, then encodes turn by turn with
them.  ``decode_turn`` is a list of one.  The predictors return plain
arrays and floats; ``predict_values`` takes step two's argmax.  Nothing
is kept from one call to the next.  A batched LSTM run may round in the
last bits differently from a run over fewer turns, so a turn's
confidences can depend that far on the list it was decoded in.  The
stacked head product rounds some logits apart from one product per
head, so a checkpoint decodes to confidences within a few units in the
last place of what versions with per-head products decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, Turn, dumps, parse_records, split_header, text_lines, tokenize, write_lines
from .errors import ConfigError, DataFormatError, DomainError, checked, exact
from .model import SlotValueModel, StepOneModel
from .sentence import Hypothesis, NBestList


@dataclass(frozen=True)
class SlotValuePrediction:
    slot: str
    value: str | None  # None in presence-only (step-one) frames
    confidence: float


@dataclass(frozen=True)
class SemanticFrame:
    """One decoded turn: a dialogue act plus slot-value predictions."""

    act: str
    act_confidence: float
    slots: tuple[SlotValuePrediction, ...] = ()

    def __post_init__(self):
        names = [s.slot for s in self.slots]
        if len(names) != len(set(names)):
            raise DomainError(f"duplicate slots in frame: {names}")
        for conf in [self.act_confidence] + [s.confidence for s in self.slots]:
            if not 0.0 < conf <= 1.0:
                raise DomainError(f"item confidence must lie in (0, 1], got {conf}")


def turn_nbest(turn: Turn) -> NBestList:
    """The turn's hypotheses, tokenized."""
    return NBestList(Hypothesis(tokenize(h.text).tokens, float(h.score)) for h in turn.nbest)


def predict_joint(model: StepOneModel, turn: Turn, nbest: NBestList, context) -> tuple[np.ndarray, dict[str, float]]:
    """(act distribution, presence probability per slot) for one turn, whose n-best list is ``nbest``.

    ``context`` is the turn's state from ``model.encoder.contexts``.
    """
    hidden = model.encoder.encode(nbest, turn.system_history, context)
    act, slots = model.head_probs(hidden)
    presence = {slot: float(slots[slot].data[StepOneModel.PRESENT]) for slot in model.ontology.slots}
    return act.data.copy(), presence


def predict_value(model: SlotValueModel, turn: Turn, nbest: NBestList, context) -> np.ndarray:
    """Distribution over ``model.values`` of ``model.slot`` for a turn whose n-best list is ``nbest``.

    ``context`` is as in ``predict_joint``.
    """
    hidden = model.encoder.encode(nbest, turn.system_history, context)
    return model.value_probs(hidden).data.copy()


def predict_values(model: SlotValueModel, turns: Sequence[Turn], nbests: Sequence[NBestList]) -> list[tuple[str, float]]:
    """(most probable value, its probability) per turn, each ``predict_value`` given its state from one ``contexts`` call."""
    contexts = model.encoder.contexts([turn.system_history for turn in turns])
    probs = [predict_value(model, turn, nbest, context) for turn, nbest, context in zip(turns, nbests, contexts)]
    best = [int(np.argmax(p)) for p in probs]
    return [(model.values[b], float(p[b])) for p, b in zip(probs, best)]


def decode_turns(
    turns: Sequence[Turn],
    step1: StepOneModel,
    slot_models: dict[str, SlotValueModel],
    *,
    step1_only: bool = False,
) -> list[SemanticFrame]:
    """Assemble the semantic frame of each turn, in order.

    Step one takes every turn's context state from one ``contexts`` call;
    step two, per slot with a value model, is one ``predict_values`` call
    over the turns where step one detected that slot.
    """
    nbests = [turn_nbest(turn) for turn in turns]
    contexts = step1.encoder.contexts([turn.system_history for turn in turns])
    acts, found = [], []  # per turn: (act, confidence); (value, confidence) of each detected slot, in ontology order
    for turn, nbest, context in zip(turns, nbests, contexts):
        act_probs, presence = predict_joint(step1, turn, nbest, context)
        best = int(np.argmax(act_probs))
        acts.append((step1.ontology.acts[best], float(act_probs[best])))
        found.append({slot: (None, p) for slot, p in presence.items() if p > 0.5})

    for slot in () if step1_only else step1.ontology.slots:
        positions = [i for i, items in enumerate(found) if slot in items]
        if not positions:
            continue
        model = slot_models.get(slot)
        if model is None:
            inventory = step1.ontology.slot_values(slot)
            if len(inventory) != 1:
                raise ConfigError(f"no value model for multi-valued slot {slot!r}; checkpoint is incomplete")
            # Single-value slots skip value prediction: detection decides.
            values = [(inventory[0], 1.0)] * len(positions)
        else:
            values = predict_values(model, [turns[i] for i in positions], [nbests[i] for i in positions])
        for i, (value, probability) in zip(positions, values):
            found[i][slot] = value, found[i][slot][1] * probability

    return [SemanticFrame(act, confidence, tuple(SlotValuePrediction(slot, *item) for slot, item in items.items()))
            for (act, confidence), items in zip(acts, found)]


def decode_turn(
    turn: Turn,
    step1: StepOneModel,
    slot_models: dict[str, SlotValueModel],
    *,
    step1_only: bool = False,
) -> SemanticFrame:
    """Assemble the semantic frame for one turn: ``decode_turns`` over a list of one."""
    (frame,) = decode_turns([turn], step1, slot_models, step1_only=step1_only)
    return frame


def decode_dataset(
    dataset: Dataset,
    step1: StepOneModel,
    slot_models: dict[str, SlotValueModel],
    *,
    step1_only: bool = False,
) -> list[SemanticFrame]:
    return decode_turns(dataset.turns, step1, slot_models, step1_only=step1_only)


# ---------------------------------------------------------------------------
# frames files: one decoded frame per line
# ---------------------------------------------------------------------------

FRAMES_FORMAT = "nbestslu-frames"
FRAMES_VERSION = 1
# A frames file's ``items``: slot-value items (``full``) or step one's slot items alone.
FULL = "full"
STEP1 = "step1"


def write_frames(
    path,
    frames,
    turns,
    *,
    mode: str = FULL,
    config_hash: str | None = None,
    ontology_hash: str | None = None,
) -> None:
    """Write decoded frames aligned with their source turns."""
    header = {
        "format": FRAMES_FORMAT,
        "version": FRAMES_VERSION,
        "items": mode,
        "turns": len(frames),
        "config_hash": config_hash,
        "ontology_hash": ontology_hash,
    }
    records = (
        {
            "session": turn.session,
            "index": turn.index,
            "act": frame.act,
            "act_confidence": frame.act_confidence,
            "slots": [{"slot": s.slot, "value": s.value, "confidence": s.confidence} for s in frame.slots],
        }
        for frame, turn in zip(frames, turns)
    )
    write_lines(path, header, map(dumps, records))


def _frame_row(doc: dict) -> tuple[str, int, SemanticFrame]:
    """(session, index, frame) of one frames-file record; a field of another JSON type raises ``TypeError``."""
    slots = tuple(
        SlotValuePrediction(exact(s["slot"], str), None if s["value"] is None else exact(s["value"], str),
                            exact(s["confidence"], float))
        for s in exact(doc["slots"], list)
    )
    frame = SemanticFrame(exact(doc["act"], str), exact(doc["act_confidence"], float), slots)
    return exact(doc["session"], str), exact(doc["index"], int), frame


def read_frames(path) -> tuple[dict, list[tuple[str, int, SemanticFrame]]]:
    """Read a frames file; returns (header, [(session, index, frame)])."""
    header, lines = split_header(path, list(text_lines(path)), FRAMES_FORMAT, FRAMES_VERSION)
    rows = parse_records(path, enumerate(lines, start=2), _frame_row, "frame")
    checked(DataFormatError, f"{path}: header", _check_frames_header, header, len(rows))
    return header, rows


def _check_frames_header(header: dict, frames: int) -> None:
    """Refuse hashes that are not strings or null, ``items`` other than ``full``, ``step1`` or absent,
    and a ``turns`` other than ``frames`` or null."""
    if exact(header.get("items", FULL), str) not in (FULL, STEP1):
        raise ValueError(f"unknown items {header['items']!r}; known: {FULL}, {STEP1}")
    for key in ("config_hash", "ontology_hash"):
        if header.get(key) is not None:
            exact(header[key], str)
    turns = header.get("turns")
    if turns is not None and exact(turns, int) != frames:
        raise ValueError(f"declares {turns} frames, found {frames}")
