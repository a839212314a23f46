"""Two-step semantic decoding.

Step one reads the combined hidden vector through the joint heads: the
act label is the argmax of the act head, and a slot counts as detected
when its presence probability exceeds one half.  Step two asks each
detected slot's value model for the most probable value.  Item
confidences compose multiplicatively: a slot-value item carries
P(present) * P(value | slot), the act item carries P(act).

Each ``decode_turn`` call reads the turn's n-best list once, and step one
and every value model encode that one ``NBestList``, reading the arrays it
built when it was made.
Nothing is kept from one call to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Turn, dumps, parse_records, read_header, write_lines
from .errors import ConfigError, DataFormatError, DomainError
from .model import SlotValueModel, StepOneModel
from .sentence import NBestList


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
    return NBestList.from_texts((h.text, h.score) for h in turn.nbest)


@dataclass(frozen=True)
class JointPrediction:
    act_probs: np.ndarray
    slot_presence: dict[str, float]

    @property
    def act_index(self) -> int:
        return int(np.argmax(self.act_probs))


def predict_joint(model: StepOneModel, turn: Turn, nbest: NBestList) -> JointPrediction:
    """Act distribution and per-slot presence probabilities for one turn, whose n-best list is ``nbest``."""
    hidden = model.encoder.encode(nbest, turn.system_history)
    act, slots = model.head_probs(hidden)
    presence = {slot: float(slots[slot].data[StepOneModel.PRESENT]) for slot in model.ontology.slots}
    return JointPrediction(act.data.copy(), presence)


def predict_value(model: SlotValueModel, turn: Turn, slot: str, nbest: NBestList) -> np.ndarray:
    """Value distribution for one detected slot of a turn whose n-best list is ``nbest``."""
    if slot != model.slot:
        raise DomainError(f"model predicts values for slot {model.slot!r}, not {slot!r}")
    hidden = model.encoder.encode(nbest, turn.system_history)
    return model.value_probs(hidden).data.copy()


def decode_turn(
    turn: Turn,
    step1: StepOneModel,
    slot_models: dict[str, SlotValueModel],
    *,
    step1_only: bool = False,
) -> SemanticFrame:
    """Assemble the semantic frame for one turn."""
    nbest = turn_nbest(turn)
    joint = predict_joint(step1, turn, nbest)
    act_label = step1.ontology.acts[joint.act_index]
    act_conf = float(joint.act_probs[joint.act_index])

    slots: list[SlotValuePrediction] = []
    for slot in step1.ontology.slots:
        presence = joint.slot_presence[slot]
        if presence <= 0.5:
            continue
        if step1_only:
            slots.append(SlotValuePrediction(slot, None, presence))
            continue
        model = slot_models.get(slot)
        if model is None:
            inventory = step1.ontology.slot_values(slot)
            if len(inventory) != 1:
                raise ConfigError(
                    f"no value model for multi-valued slot {slot!r}; checkpoint is incomplete"
                )
            # Single-value slots skip value prediction: detection decides.
            slots.append(SlotValuePrediction(slot, inventory[0], presence))
            continue
        probs = predict_value(model, turn, slot, nbest)
        best = int(np.argmax(probs))
        slots.append(SlotValuePrediction(slot, model.values[best], presence * float(probs[best])))
    return SemanticFrame(act_label, act_conf, tuple(slots))


def decode_dataset(
    dataset: Dataset,
    step1: StepOneModel,
    slot_models: dict[str, SlotValueModel],
    *,
    step1_only: bool = False,
) -> list[SemanticFrame]:
    return [decode_turn(t, step1, slot_models, step1_only=step1_only) for t in dataset.turns]


# ---------------------------------------------------------------------------
# frames files: one decoded frame per line
# ---------------------------------------------------------------------------

FRAMES_FORMAT = "nbestslu-frames"
FRAMES_VERSION = 1


def write_frames(
    path,
    frames,
    turns,
    *,
    mode: str = "full",
    config_hash: str | None = None,
    ontology_hash: str | None = None,
) -> None:
    """Write decoded frames aligned with their source turns."""
    if len(frames) != len(turns):
        raise DomainError(f"frame/turn length mismatch: {len(frames)} vs {len(turns)}")
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
    """(session, index, frame) of one frames-file record."""
    slots = tuple(
        SlotValuePrediction(str(s["slot"]), None if s["value"] is None else str(s["value"]),
                            float(s["confidence"]))
        for s in doc["slots"]
    )
    frame = SemanticFrame(str(doc["act"]), float(doc["act_confidence"]), slots)
    return str(doc["session"]), int(doc["index"]), frame


def read_frames(path) -> tuple[dict, list[tuple[str, int, SemanticFrame]]]:
    """Read a frames file; returns (header, [(session, index, frame)])."""
    header, lines = read_header(path, FRAMES_FORMAT, FRAMES_VERSION)
    rows = parse_records(path, enumerate(lines, start=2), _frame_row, "frame")
    if header.get("turns") is not None and header["turns"] != len(rows):
        raise DataFormatError(f"{path}: header declares {header['turns']} frames, found {len(rows)}")
    return header, rows
