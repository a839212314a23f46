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

from .errors import DataFormatError, DomainError

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
    def from_json_dict(cls, doc, where="ontology") -> "Ontology":
        """The inverse of ``to_json_dict``; a document of another shape raises ``DataFormatError``."""

        def strings(value) -> tuple[str, ...]:
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise DataFormatError(f"{where}: expected a list of strings, got {value!r}")
            return tuple(value)

        if not (isinstance(doc, dict) and isinstance(doc.get("values"), dict) and doc.get("acts")):
            raise DataFormatError(f"{where}: an ontology is an object with acts and a values object")
        max_patterns = doc.get("max_patterns", MAX_PATTERNS)
        if type(max_patterns) is not int or max_patterns < 1:
            raise DataFormatError(f"{where}: max_patterns must be a positive integer, got {max_patterns!r}")
        slots = strings(doc.get("slots"))
        if sorted(slots) != sorted(doc["values"]):
            raise DataFormatError(f"{where}: slots {list(slots)} are not the keys of values {sorted(doc['values'])}")
        return cls(
            acts=strings(doc["acts"]),
            act_priority=strings(doc.get("act_priority")),
            slots=slots,
            values={s: strings(v) for s, v in doc["values"].items()},
            max_patterns=max_patterns,
        )
