"""Turn-level dataset handling: corpus import, canonical files, splits.

The corpus layout is one directory per call holding a system log file
(``log.json``) and an annotation file (``label.json``), plus list files
enumerating the calls of each partition.  Import flattens every call into
user turns: the live (or batch) ASR n-best list, the chronological system
acts heard so far, and the reference semantics.  ``SystemAct.words`` is
what the context encoder reads of a system act.

ASR scores are interpreted once, at import: a list containing any negative
score is taken to be in the log domain and exponentiated, then every list
is renormalized to sum to one.  An empty n-best list becomes a single
empty hypothesis with confidence one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CorpusError, DataFormatError, DomainError, SluError, checked, exact
from .ontology import MAX_PATTERNS, Ontology, act_pattern
from .rng import FOLDS, SPLIT, substream

FORMAT_NAME = "nbestslu-dataset"
FORMAT_VERSION = 1
SCORE_RULE = "exp-if-negative,renormalize"
ASR_CHANNELS = ("live", "batch")


@dataclass(frozen=True)
class SystemAct:
    """One system dialogue act: a name plus slot-value pairs."""

    name: str
    pairs: tuple[tuple[str, str], ...] = ()

    @functools.cached_property
    def words(self) -> tuple[str, ...]:
        """Act name, then each slot and value, lowercased and split on whitespace.

        offer(name=golden wok) -> (offer, name, golden, wok).  Computed on
        first use; not a field, so equality, hashing and files ignore it.
        """
        words: list[str] = self.name.lower().split()
        for slot, value in self.pairs:
            words.extend(slot.lower().split())
            words.extend(str(value).lower().split())
        return tuple(words)


@dataclass(frozen=True)
class AsrHypothesis:
    text: str
    score: float


@dataclass(frozen=True)
class ReferenceFrame:
    """Gold semantics of a user turn: an act pattern and slot-value pairs."""

    act_pattern: str
    pairs: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Turn:
    """One decoding instance.

    ``system_history`` holds the full chronological list of system turns up
    to and including the system utterance this user turn answers; each
    entry is the tuple of acts of one system turn.
    """

    session: str
    index: int
    nbest: tuple[AsrHypothesis, ...]
    system_history: tuple[tuple[SystemAct, ...], ...]
    reference: ReferenceFrame


@dataclass(frozen=True, eq=True)
class Dataset:
    turns: tuple[Turn, ...]
    ontology: Ontology
    provenance: Mapping[str, object] = field(default_factory=dict)

    @property
    def sessions(self) -> tuple[str, ...]:
        return ordered_sessions(self.turns)

    @property
    def dialogue_count(self) -> int:
        return len(self.sessions)

    def subset(self, sessions: Iterable[str], note: str) -> "Dataset":
        wanted = set(sessions)
        turns = tuple(t for t in self.turns if t.session in wanted)
        provenance = dict(self.provenance)
        provenance["derived"] = note
        return Dataset(turns, Ontology.derive(turns, self.ontology.max_patterns), provenance)


def normalize_confidences(scores: Sequence[float]) -> np.ndarray:
    """Posterior weights from a non-empty list of raw ASR scores.

    Negative scores mark a log-domain list and are exponentiated first;
    the result is renormalized to sum to one.  An all-zero list falls back
    to uniform weights.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if np.any(arr < 0):
        arr = np.exp(arr)
    total = arr.sum()
    if total <= 0.0:
        return np.full(arr.size, 1.0 / arr.size)
    return arr / total


def collect_system_tokens(turns: Iterable[Turn]) -> tuple[str, ...]:
    """Sorted vocabulary of every word reachable through system acts."""
    tokens: set[str] = set()
    for turn in turns:
        for system_turn in turn.system_history:
            for act in system_turn:
                tokens.update(act.words)
    return tuple(sorted(tokens))


# ---------------------------------------------------------------------------
# corpus import
# ---------------------------------------------------------------------------

def _loose_pairs(act: dict) -> tuple[tuple[str, str], ...]:
    """A DSTC2 act's slot-value pairs: each a two-element array, its name and value read through ``str()``."""
    return tuple((str(s).strip().lower(), str(v).strip().lower())
                 for s, v in (exact(pair, list) for pair in exact(act.get("slots", []), list)))


def _system_acts(output) -> tuple[SystemAct, ...]:
    """The system acts of a DSTC2 log turn's ``output``."""
    acts = exact(exact(output, dict).get("dialog-acts", []), list)
    return tuple(SystemAct(exact(a["act"], str).strip().lower(), _loose_pairs(a)) for a in acts)


def _nbest(inputs, channel: str) -> tuple[AsrHypothesis, ...]:
    """The ``channel`` n-best list of a DSTC2 log turn's ``input``, its scores made confidences."""
    hyps = exact(exact(exact(inputs, dict).get(channel, {}), dict).get("asr-hyps", []), list)
    texts = [exact(h["asr-hyp"], str) for h in hyps]
    scores = [exact(h["score"], float) for h in hyps]
    if not texts:
        return (AsrHypothesis("", 1.0),)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = normalize_confidences(scores)
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"scores {scores} give no finite confidences")
    return tuple(AsrHypothesis(t, float(w)) for t, w in zip(texts, weights))


def _reference(label_turn) -> ReferenceFrame:
    """The reference frame of a DSTC2 label turn."""
    acts = exact(label_turn["semantics"]["json"], list)
    names = [exact(a["act"], str) for a in acts]
    return ReferenceFrame(act_pattern(names), tuple(dict.fromkeys(p for a in acts for p in _loose_pairs(a))))


def _dstc2_turn(log_turn, label_turn, channel: str, position: int):
    """(turn index, system acts, n-best list, reference) of one DSTC2 turn; the index defaults to ``position``."""
    log_turn = exact(log_turn, dict)
    return (checked(ValueError, "turn-index", exact, log_turn.get("turn-index", position), int),
            checked(ValueError, "malformed dialogue act record", _system_acts, log_turn.get("output", {})),
            checked(ValueError, "malformed n-best entry", _nbest, log_turn.get("input", {}), channel),
            checked(ValueError, "malformed reference semantics", _reference, label_turn))


def _turns_of(doc) -> list:
    return exact(exact(doc, dict)["turns"], list)


def _parse_call(call_dir: Path, call: str, channel: str) -> list[Turn]:
    paths = [call_dir / "log.json", call_dir / "label.json"]
    for path in paths:
        if not path.is_file():
            raise CorpusError(f"call {call}: missing {path.name}")
    docs = [parse_json(path.read_bytes(), f"call {call}: {path.name}", CorpusError) for path in paths]
    log_turns, label_turns = (checked(CorpusError, f"call {call}: {path.name}", _turns_of, doc)
                              for path, doc in zip(paths, docs))
    session = docs[0].get("session-id")
    session = call if session in (None, "") else checked(CorpusError, f"call {call}: session-id", exact, session, str)
    if len(log_turns) != len(label_turns):
        raise CorpusError(f"session {session}: log has {len(log_turns)} turns but labels have {len(label_turns)}")

    turns: list[Turn] = []
    history: list[tuple[SystemAct, ...]] = []
    last_index = None
    for position, (log_turn, label_turn) in enumerate(zip(log_turns, label_turns)):
        where = f"session {session} turn {position}"
        index, acts, nbest, reference = checked(CorpusError, where, _dstc2_turn,
                                                log_turn, label_turn, channel, position)
        if last_index is not None and index <= last_index:
            raise CorpusError(f"{where}: turn indices are not increasing")
        last_index = index
        history.append(acts)
        turns.append(Turn(session, position, nbest, tuple(history), reference))
    return turns


def import_dstc2(root, flist, *, channel: str = "live", max_act_patterns: int = MAX_PATTERNS) -> Dataset:
    """Import the call directories named by ``flist`` under ``root``."""
    root = Path(root)
    flist = Path(flist)
    if not flist.is_file():
        raise CorpusError(f"file list not found: {flist}")
    calls = [line.strip() for line in text_lines(flist, CorpusError) if line.strip()]
    if not calls:
        raise CorpusError(f"file list is empty: {flist}")

    all_turns: list[Turn] = []
    seen_sessions: set[str] = set()
    for call in sorted(calls):
        turns = _parse_call(root / call, call, channel)
        if turns:
            if turns[0].session in seen_sessions:
                raise CorpusError(f"duplicate session id {turns[0].session!r}")
            seen_sessions.add(turns[0].session)
        all_turns.extend(turns)

    all_turns.sort(key=lambda t: (t.session, t.index))
    turns = tuple(all_turns)
    provenance = {
        "source": str(root),
        "flist": str(flist),
        "channel": channel,
        "max_act_patterns": max_act_patterns,
        "score_rule": SCORE_RULE,
    }
    return Dataset(turns, Ontology.derive(turns, max_act_patterns), provenance)


# ---------------------------------------------------------------------------
# line-delimited JSON files: a header line, then one record per line
# ---------------------------------------------------------------------------

def dumps(obj) -> str:
    """Canonical strict JSON: sorted keys and no whitespace, so equal content gives equal bytes.

    A non-finite float raises ``ValueError``: strict JSON has no NaN or Infinity.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_lines(path, header: dict, lines: Iterable[str]) -> None:
    """Write ``header`` as one JSON line, then each serialized record on its own line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(header) + "\n")
        for line in lines:
            handle.write(line + "\n")


def text_lines(path, error: type[SluError] = DataFormatError) -> Iterator[str]:
    """The lines of a UTF-8 text file without their line ends; any other bytes raise ``error``."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                yield line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def parse_json(text: str | bytes, where, error: type[SluError] = DataFormatError) -> object:
    """The JSON value of ``text`` (bytes must be UTF-8); malformed text raises ``error`` naming ``where``."""
    return checked(error, f"{where}: invalid JSON", json.loads, text)


def split_header(path, lines: list[str], fmt: str, version: int) -> tuple[dict, list[str]]:
    """The header object of a ``fmt`` file at ``version`` whose lines are ``lines``, and the record lines after it."""
    if not lines:
        raise DataFormatError(f"{path}: empty {fmt} file")
    header = parse_json(lines[0], f"{path}:1")
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise DataFormatError(f"{path}: not a {fmt} file")
    if type(header.get("version")) is not int or header["version"] != version:
        raise DataFormatError(
            f"{path}: version mismatch: file is {header.get('version')}, reader supports {version}"
        )
    return header, lines[1:]


def parse_records(path, numbered_lines: Iterable[tuple[int, str]], parse: Callable, what: str) -> list:
    """``parse`` of each numbered JSON line; any failure raises ``DataFormatError`` naming ``path:line``."""
    return [checked(DataFormatError, f"{path}:{number}: malformed {what} record", lambda: parse(json.loads(line)))
            for number, line in numbered_lines]


def _turn_to_dict(turn: Turn) -> dict:
    return {
        "session": turn.session,
        "index": turn.index,
        "hyps": [{"text": h.text, "score": h.score} for h in turn.nbest],
        "system_acts": [
            [{"act": a.name, "slots": [[s, v] for s, v in a.pairs]} for a in system_turn]
            for system_turn in turn.system_history
        ],
        "reference": {
            "act": turn.reference.act_pattern,
            "slots": [[s, v] for s, v in turn.reference.pairs],
        },
    }


def _confidence(value) -> float:
    score = exact(value, float)
    if not (math.isfinite(score) and score >= 0.0):
        raise ValueError(f"ASR score must be finite and non-negative, got {value!r}")
    return score


def _pairs(raw) -> tuple[tuple[str, str], ...]:
    """Slot-value pairs of a record: each a two-string array."""
    return tuple((exact(s, str), exact(v, str)) for s, v in (exact(pair, list) for pair in exact(raw, list)))


def _system_turn(raw) -> tuple[SystemAct, ...]:
    return tuple(SystemAct(exact(a["act"], str), _pairs(a["slots"])) for a in exact(raw, list))


def _turn_reader() -> Callable[[dict], Turn]:
    """A record-to-``Turn`` parser for the records of one file, in order.

    A record repeating an earlier ``(session, index)`` is refused.  A
    dialogue's records repeat its earlier system turns, so a system turn
    whose record equals the previous record's at the same position reuses
    that record's tuple instead of building it again.  Each history is a
    new outer tuple, so no two non-empty histories are the same object.
    """
    seen: set[tuple[str, int]] = set()
    previous: list = []  # (record, tuple) per position of the previous record's history

    def parse(doc: dict) -> Turn:
        key = (exact(doc["session"], str), exact(doc["index"], int))
        if key in seen:
            raise ValueError(f"duplicate turn {key}")
        seen.add(key)
        if not exact(doc["hyps"], list):
            raise ValueError("empty hyps list; supply a single empty hypothesis instead")
        shared = []
        for position, raw in enumerate(exact(doc["system_acts"], list)):
            old = previous[position] if position < len(previous) else None
            shared.append(old if old is not None and old[0] == raw else (raw, _system_turn(raw)))
        previous[:] = shared
        return Turn(
            session=key[0],
            index=key[1],
            nbest=tuple(AsrHypothesis(exact(h["text"], str), _confidence(h["score"])) for h in doc["hyps"]),
            system_history=tuple(system_turn for _, system_turn in shared),
            reference=ReferenceFrame(exact(doc["reference"]["act"], str), _pairs(doc["reference"]["slots"])),
        )

    return parse


def _checksum(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def write_canonical(dataset: Dataset, path, config_hash: str | None = None) -> None:
    """Write the dataset as a header line plus one JSON record per turn."""
    lines = [dumps(_turn_to_dict(t)) for t in dataset.turns]
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "provenance": dict(dataset.provenance),
        "config_hash": config_hash,
        "counts": {"dialogues": dataset.dialogue_count, "turns": len(dataset.turns)},
        "checksum": _checksum(lines),
    }
    write_lines(path, header, lines)


def read_canonical(path) -> Dataset:
    """Read a canonical dataset file; the inverse of ``write_canonical``."""
    return _canonical(path, list(text_lines(path)))


def _canonical(path, lines: list[str]) -> Dataset:
    header, lines = split_header(path, lines, FORMAT_NAME, FORMAT_VERSION)
    if header.get("checksum") != _checksum(lines):
        raise DataFormatError(f"{path}: checksum mismatch; file was modified or truncated")
    provenance, counts, max_patterns = checked(DataFormatError, f"{path}: header", _dataset_header, header)
    turns = parse_records(path, enumerate(lines, start=2), _turn_reader(), "turn")
    dataset = Dataset(tuple(turns), Ontology.derive(turns, max_patterns), provenance)
    if counts is not None and counts != {"dialogues": dataset.dialogue_count, "turns": len(dataset.turns)}:
        raise DataFormatError(f"{path}: header counts do not match the records")
    return dataset


def _dataset_header(header: dict) -> tuple[dict, dict | None, int]:
    """(provenance, counts or None when absent, act-pattern cap) of a dataset header."""
    provenance, counts = exact(header.get("provenance", {}), dict), exact(header.get("counts", {}), dict)
    max_patterns = exact(provenance.get("max_act_patterns", MAX_PATTERNS), int)
    if max_patterns < 1:
        raise ValueError(f"max_act_patterns must be a positive integer, got {max_patterns}")
    counts = {key: exact(counts[key], int) for key in ("dialogues", "turns")} if counts else None
    return provenance, counts, max_patterns


def read_turns(path) -> Dataset:
    """A canonical dataset file, or headerless turn records: one JSON object per line, blank lines skipped.

    The file is read once, so ``path`` may be a pipe.
    """
    lines = list(text_lines(path)) or [""]
    first = parse_json(lines[0].strip() or "null", f"{path}:1")
    if isinstance(first, dict) and first.get("format"):
        return _canonical(path, lines)
    numbered = ((n, line) for n, line in enumerate(lines, start=1) if line.strip())
    turns = parse_records(path, numbered, _turn_reader(), "turn")
    if not turns:
        raise DataFormatError(f"{path}: no turns found")
    return Dataset(tuple(turns), Ontology.derive(turns), {"source": str(path), "derived": "headerless"})


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def ordered_sessions(turns: Iterable[Turn]) -> tuple[str, ...]:
    """Session ids in order of first appearance."""
    return tuple(dict.fromkeys(t.session for t in turns))


def split_turns(
    turns: Sequence[Turn], fraction: float, seed: int, extra: tuple[int, ...] = ()
) -> tuple[list[Turn], list[Turn]]:
    """Seeded dialogue-level split of a turn list into (train, validation).

    Whole dialogues go to one side, drawn from the ``SPLIT`` substream of
    ``seed`` extended by ``extra``; turns keep their order.  Fewer than two
    dialogues give an empty validation list.
    """
    sessions = ordered_sessions(turns)
    if len(sessions) < 2:
        return list(turns), []
    order = substream(seed, SPLIT, *extra).permutation(len(sessions))
    held = max(1, min(len(sessions) - 1, int(round(len(sessions) * fraction))))
    val_sessions = {sessions[int(i)] for i in order[:held]}
    return [t for t in turns if t.session not in val_sessions], [t for t in turns if t.session in val_sessions]


def make_folds(dataset: Dataset, k: int, seed: int) -> tuple[tuple[str, ...], ...]:
    """The held-out sessions of each of k dialogue-level folds, in dataset order.

    The ``FOLDS`` substream of ``seed`` permutes the sessions, and the
    session at position p of that permutation goes to fold p mod k, so
    fold sizes differ by at most one.
    """
    sessions = dataset.sessions
    if k > len(sessions):
        raise DomainError(f"cannot make {k} folds from {len(sessions)} dialogues")
    order = substream(seed, FOLDS).permutation(len(sessions))
    fold_of = {sessions[int(i)]: pos % k for pos, i in enumerate(order)}
    return tuple(tuple(s for s in sessions if fold_of[s] == fold) for fold in range(k))
