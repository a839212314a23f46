"""Act, slot and value inventories derived from training annotations.

A turn's annotation may carry several dialogue acts.  The classifier emits
a single label, so labels are *act patterns*: the sorted, de-duplicated
act names of a turn joined by ``|`` (a turn with no acts gets ``null``).
The inventory keeps the most frequent patterns; rarer patterns fall back
to their highest-priority member act, where priority is global act-name
frequency in the training data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, exact

PATTERN_SEPARATOR = "|"
NULL_PATTERN = "null"
MAX_PATTERNS = 14  # default size of the act-pattern inventory


def act_pattern(names: Iterable[str]) -> str:
    """Canonical label for a bag of act names."""
    unique = sorted({n.strip().lower() for n in names if n.strip()})
    return PATTERN_SEPARATOR.join(unique) if unique else NULL_PATTERN


@dataclass(frozen=True, eq=True)
class Ontology:
    """Closed inventories the decoder predicts over."""

    acts: tuple[str, ...]
    act_priority: tuple[str, ...]
    slots: tuple[str, ...]
    values: Mapping[str, tuple[str, ...]]
    max_patterns: int = MAX_PATTERNS

    @classmethod
    def derive(cls, turns: Sequence, max_patterns: int = MAX_PATTERNS) -> "Ontology":
        """Build inventories from a dataset's reference frames."""
        pattern_counts: Counter[str] = Counter()
        name_counts: Counter[str] = Counter()
        slot_values: dict[str, Counter] = {}
        for turn in turns:
            ref = turn.reference
            pattern_counts[ref.act_pattern] += 1
            for name in ref.act_pattern.split(PATTERN_SEPARATOR):
                name_counts[name] += 1
            for slot, value in ref.pairs:
                slot_values.setdefault(slot, Counter())[value] += 1
        if not pattern_counts:
            raise DomainError("cannot derive an ontology from an empty dataset")
        ranked = sorted(pattern_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        acts = tuple(p for p, _ in ranked[:max_patterns])
        priority = tuple(n for n, _ in sorted(name_counts.items(), key=lambda kv: (-kv[1], kv[0])))
        slots = tuple(sorted(slot_values))
        values = {slot: tuple(sorted(counter)) for slot, counter in slot_values.items()}
        return cls(acts=acts, act_priority=priority, slots=slots, values=values, max_patterns=max_patterns)

    def act_label(self, pattern: str) -> str:
        """Map a raw pattern to an inventory label.

        Patterns outside the inventory map to their highest-priority member
        act when that act is itself in the inventory, otherwise to the most
        frequent pattern overall.
        """
        if pattern in self.acts:
            return pattern
        members = set(pattern.split(PATTERN_SEPARATOR))
        for name in self.act_priority:
            if name in members and name in self.acts:
                return name
        return self.acts[0]

    def act_index(self, label: str) -> int:
        return self.acts.index(label)

    def slot_values(self, slot: str) -> tuple[str, ...]:
        return self.values[slot]

    def to_json_dict(self) -> dict:
        return {
            "acts": list(self.acts),
            "act_priority": list(self.act_priority),
            "slots": list(self.slots),
            "values": {s: list(v) for s, v in self.values.items()},
            "max_patterns": self.max_patterns,
        }

    @classmethod
    def from_json_dict(cls, doc) -> "Ontology":
        """The inverse of ``to_json_dict``; a document of another shape raises ``TypeError`` or ``ValueError``."""

        def strings(value) -> tuple[str, ...]:
            return tuple(exact(v, str) for v in exact(value, list))

        doc = exact(doc, dict)
        values = {s: strings(v) for s, v in exact(doc["values"], dict).items()}
        acts, slots = strings(doc["acts"]), strings(doc["slots"])
        if not acts:
            raise ValueError("an ontology needs at least one act")
        max_patterns = exact(doc.get("max_patterns", MAX_PATTERNS), int)
        if max_patterns < 1:
            raise ValueError(f"max_patterns must be a positive integer, got {max_patterns}")
        if sorted(slots) != sorted(values):
            raise ValueError(f"slots {list(slots)} are not the keys of values {sorted(values)}")
        return cls(acts=acts, act_priority=strings(doc["act_priority"]), slots=slots, values=values,
                   max_patterns=max_patterns)
