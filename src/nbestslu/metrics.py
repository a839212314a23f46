"""Scoring predicted frames against reference frames.

A *semantic item* is either the dialogue act or one slot-value pair,
compared by exact equality after lowercasing.  Precision, recall and F1
are micro-averaged over items across all turns.  Joint accuracy is the
mean over output heads (the act head plus one presence head per slot) of
per-head classification accuracy.

The item cross-entropy (ICE) measures the quality of the confidence
distribution: with c the confidence assigned to an item and d the
indicator that the item is in the reference,

    ICE = (1/N) * sum over turns and items of -log(d*c + (1-d)*(1-c))

where N is the total number of reference items.  Items mentioned by
neither side contribute -log(1) = 0 and are skipped.  The probability
assigned to the truth is floored at 1e-6 before the log, which bounds a
single item's contribution at about 13.8 instead of infinity while
leaving exact predictions at exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .data import ReferenceFrame, Turn
from .decoder import FULL, STEP1, SemanticFrame
from .errors import DomainError
from .ontology import Ontology

PROB_FLOOR = 1e-6

Item = tuple


def act_item(label: str) -> Item:
    return ("act", label.lower())


def slot_item(slot: str) -> Item:
    return ("slot", slot.lower())


def slot_value_item(slot: str, value: str) -> Item:
    return ("slot", slot.lower(), value.lower())


def _pair_item(slot: str, value: str | None, mode: str) -> Item:
    """A slot-value pair as an item: the slot alone in step-one mode or when the value is absent."""
    return slot_item(slot) if mode == STEP1 or value is None else slot_value_item(slot, value)


def reference_items(reference: ReferenceFrame, mode: str = FULL) -> frozenset[Item]:
    return frozenset([act_item(reference.act_pattern)] + [_pair_item(s, v, mode) for s, v in reference.pairs])


def frame_scored_items(frame: SemanticFrame, mode: str = FULL) -> dict[Item, float]:
    scored = {act_item(frame.act): frame.act_confidence}
    scored.update((_pair_item(p.slot, p.value, mode), p.confidence) for p in frame.slots)
    return scored


def frame_items(frame: SemanticFrame, mode: str = FULL) -> frozenset[Item]:
    return frozenset(frame_scored_items(frame, mode))


@dataclass(frozen=True)
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


def item_counts(predicted: Sequence[Iterable[Item]], reference: Sequence[Iterable[Item]]) -> Counts:
    """Micro-aggregated exact-match counts over aligned turn lists."""
    if len(predicted) != len(reference):
        raise DomainError(f"prediction/reference length mismatch: {len(predicted)} vs {len(reference)}")
    tp = fp = fn = 0
    for pred, ref in zip(predicted, reference):
        pred, ref = set(pred), set(ref)
        tp += len(pred & ref)
        fp += len(pred - ref)
        fn += len(ref - pred)
    return Counts(tp, fp, fn)


def prf1(counts: Counts) -> tuple[float, float, float]:
    """Precision, recall and F1; vacuous sides count as perfect."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 1.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def head_accuracies(
    frames: Sequence[SemanticFrame],
    references: Sequence[ReferenceFrame],
    slots: Sequence[str],
    act_label: Callable[[str], str] = str,
) -> dict[str, float]:
    """Accuracy of each output head: ``act``, then one ``slot:<s>`` presence head per slot.

    The act head is right when the frame's act equals ``act_label`` of the
    reference pattern, compared case-insensitively.
    """
    hits = dict.fromkeys(["act"] + [f"slot:{s}" for s in slots], 0)
    for frame, ref in zip(frames, references):
        hits["act"] += frame.act.lower() == act_label(ref.act_pattern).lower()
        predicted = {p.slot for p in frame.slots}
        referenced = {s for s, _ in ref.pairs}
        for slot in slots:
            hits[f"slot:{slot}"] += (slot in predicted) == (slot in referenced)
    return {head: count / len(frames) for head, count in hits.items()}


def joint_accuracy(
    frames: Sequence[SemanticFrame], references: Sequence[ReferenceFrame], slots: Sequence[str]
) -> float:
    """Mean per-head accuracy: the act head plus one presence head per slot."""
    accuracies = head_accuracies(frames, references, slots)
    return sum(accuracies.values()) / len(accuracies)


def ice(scored: Sequence[Mapping[Item, float]], reference: Sequence[Iterable[Item]]) -> float | None:
    """Item cross-entropy of hypothesized confidences against references, floored at ``PROB_FLOOR``.

    None when the references hold no item.  Each turn's items are summed
    in sorted order: set order follows the per-process string hash seed,
    and the rounding must not.
    """
    total_refs = sum(len(set(r)) for r in reference)
    if total_refs == 0:
        return None
    total = 0.0
    for hyp, ref in zip(scored, reference):
        ref = set(ref)
        for item in sorted(set(hyp) | ref):
            confidence = float(hyp.get(item, 0.0))
            assigned_to_truth = confidence if item in ref else 1.0 - confidence
            total += -math.log(min(max(assigned_to_truth, PROB_FLOOR), 1.0))
    return total / total_refs


@dataclass(frozen=True)
class SlotScores:
    counts: Counts
    precision: float
    recall: float
    f1: float
    ice: float | None


@dataclass(frozen=True)
class ScoreReport:
    """Everything one evaluation produces, plus per-slot breakdowns."""

    mode: str
    turns: int
    counts: Counts
    accuracy: float
    precision: float
    recall: float
    f1: float
    ice: float
    per_slot: Mapping[str, SlotScores] = field(default_factory=dict)
    out_of_ontology: int = 0


def _slot_of(item: Item) -> str | None:
    return item[1] if item[0] == "slot" else None


def score_frames(
    frames: Sequence[SemanticFrame],
    turns: Sequence[Turn],
    ontology: Ontology,
    mode: str = FULL,
) -> ScoreReport:
    """Score decoded frames against the reference frames of ``turns``."""
    references = [t.reference for t in turns]
    scored = [frame_scored_items(f, mode) for f in frames]
    pred_sets = [frozenset(s) for s in scored]
    ref_sets = [reference_items(r, mode) for r in references]

    counts = item_counts(pred_sets, ref_sets)
    precision, recall, f1 = prf1(counts)
    accuracy = joint_accuracy(frames, references, ontology.slots)
    overall_ice = ice(scored, ref_sets)

    known_acts = set(ontology.acts)
    known_values = {s: set(v) for s, v in ontology.values.items()}
    out_of_ontology = 0
    for ref in references:
        if ref.act_pattern not in known_acts:
            out_of_ontology += 1
        for slot, value in ref.pairs:
            if slot not in known_values or value not in known_values[slot]:
                out_of_ontology += 1

    per_slot: dict[str, SlotScores] = {}
    for slot in ontology.slots:
        key = slot.lower()
        slot_preds = [{i for i in s if _slot_of(i) == key} for s in pred_sets]
        slot_refs = [{i for i in s if _slot_of(i) == key} for s in ref_sets]
        slot_counts = item_counts(slot_preds, slot_refs)
        p, r, f = prf1(slot_counts)
        slot_scored = [{i: c for i, c in s.items() if _slot_of(i) == key} for s in scored]
        per_slot[slot] = SlotScores(slot_counts, p, r, f, ice(slot_scored, slot_refs))

    return ScoreReport(
        mode=mode,
        turns=len(frames),
        counts=counts,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        ice=overall_ice,
        per_slot=per_slot,
        out_of_ontology=out_of_ontology,
    )


def report_table(report: ScoreReport) -> list[tuple[str, float]]:
    """Flat (metric, value) rows for machine consumption."""
    rows = [
        ("turns", float(report.turns)),
        ("accuracy", report.accuracy),
        ("precision", report.precision),
        ("recall", report.recall),
        ("f1", report.f1),
        ("ice", report.ice),
        ("tp", float(report.counts.tp)),
        ("fp", float(report.counts.fp)),
        ("fn", float(report.counts.fn)),
        ("reference_items", float(report.counts.tp + report.counts.fn)),
        ("out_of_ontology", float(report.out_of_ontology)),
    ]
    for slot, scores in report.per_slot.items():
        rows.append((f"slot.{slot}.precision", scores.precision))
        rows.append((f"slot.{slot}.recall", scores.recall))
        rows.append((f"slot.{slot}.f1", scores.f1))
        if scores.ice is not None:
            rows.append((f"slot.{slot}.ice", scores.ice))
    return rows


def report_text(report: ScoreReport) -> str:
    lines = [
        f"mode: {report.mode}",
        f"turns: {report.turns}",
        f"items: tp={report.counts.tp} fp={report.counts.fp} fn={report.counts.fn}",
        f"accuracy:  {report.accuracy:.4f}",
        f"precision: {report.precision:.4f}",
        f"recall:    {report.recall:.4f}",
        f"f1:        {report.f1:.4f}",
        f"ice:       {report.ice:.4f}",
        f"reference items outside the scoring ontology: {report.out_of_ontology}",
    ]
    if report.per_slot:
        lines.append("per-slot breakdown:")
        for slot, scores in report.per_slot.items():
            ice_part = f" ice={scores.ice:.4f}" if scores.ice is not None else ""
            lines.append(
                f"  {slot}: p={scores.precision:.4f} r={scores.recall:.4f} f1={scores.f1:.4f}{ice_part}"
            )
    return "\n".join(lines) + "\n"
