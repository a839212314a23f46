"""Turn-level dataset handling: corpus import, canonical files, splits.

The corpus layout is one directory per call holding a system log file
(``log.json``) and an annotation file (``label.json``), plus list files
enumerating the calls of each partition.  Import flattens every call into
user turns: the live (or batch) ASR n-best list, the chronological system
acts heard so far, and the reference semantics.

ASR scores are interpreted once, at import: a list containing any negative
score is taken to be in the log domain and exponentiated, then every list
is renormalized to sum to one.  An empty n-best list becomes a single
empty hypothesis with confidence one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CorpusError, DataFormatError, DomainError
from .ontology import Ontology, act_pattern
from .rng import FOLDS, SPLIT, substream

FORMAT_NAME = "nbestslu-dataset"
FORMAT_VERSION = 1
SCORE_RULE = "exp-if-negative,renormalize"


@dataclass(frozen=True)
class SystemAct:
    """One system dialogue act: a name plus slot-value pairs."""

    name: str
    pairs: tuple[tuple[str, str], ...] = ()


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

    def subset(self, sessions: Iterable[str], note: str = "subset") -> "Dataset":
        wanted = set(sessions)
        turns = tuple(t for t in self.turns if t.session in wanted)
        max_patterns = int(self.provenance.get("max_act_patterns", self.ontology.max_patterns))
        provenance = dict(self.provenance)
        provenance["derived"] = note
        return Dataset(turns, Ontology.derive(turns, max_patterns), provenance)


def normalize_confidences(scores: Sequence[float]) -> np.ndarray:
    """Posterior weights from raw ASR scores.

    Negative scores mark a log-domain list and are exponentiated first;
    the result is renormalized to sum to one.  An all-zero list falls back
    to uniform weights.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("empty n-best list has no confidences to normalize")
    if np.any(arr < 0):
        arr = np.exp(arr)
    total = arr.sum()
    if total <= 0.0:
        return np.full(arr.size, 1.0 / arr.size)
    return arr / total


def collect_system_tokens(turns: Iterable[Turn]) -> tuple[str, ...]:
    """Sorted vocabulary of every token reachable through system acts."""
    # Local import: embeddings depends on this module for SystemAct.
    from .embeddings import encode_system_act

    tokens: set[str] = set()
    for turn in turns:
        for system_turn in turn.system_history:
            for act in system_turn:
                tokens.update(encode_system_act(act).tokens)
    return tuple(sorted(tokens))


# ---------------------------------------------------------------------------
# corpus import
# ---------------------------------------------------------------------------

def _parse_dialog_acts(raw, where: str) -> tuple[SystemAct, ...]:
    acts = []
    for entry in raw:
        try:
            name = str(entry["act"]).strip().lower()
            pairs = tuple((str(s).strip().lower(), str(v).strip().lower()) for s, v in entry.get("slots", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{where}: malformed dialogue act record: {exc}") from None
        acts.append(SystemAct(name, pairs))
    return tuple(acts)


def _parse_reference(label_turn, where: str) -> ReferenceFrame:
    try:
        semantics = label_turn["semantics"]["json"]
    except (KeyError, TypeError):
        raise CorpusError(f"{where}: missing reference semantics") from None
    names = []
    pairs: dict[tuple[str, str], None] = {}
    for entry in semantics:
        try:
            names.append(str(entry["act"]))
            for s, v in entry.get("slots", []):
                pairs.setdefault((str(s).strip().lower(), str(v).strip().lower()), None)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{where}: malformed reference semantics: {exc}") from None
    return ReferenceFrame(act_pattern(names), tuple(pairs))


def _parse_call(call_dir: Path, call: str, channel: str) -> list[Turn]:
    log_path = call_dir / "log.json"
    label_path = call_dir / "label.json"
    for path in (log_path, label_path):
        if not path.is_file():
            raise CorpusError(f"call {call}: missing {path.name}")
    try:
        log_doc = json.loads(log_path.read_text(encoding="utf-8"))
        label_doc = json.loads(label_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"call {call}: invalid JSON: {exc}") from None

    session = str(log_doc.get("session-id") or call)
    log_turns = log_doc.get("turns")
    label_turns = label_doc.get("turns")
    if not isinstance(log_turns, list) or not isinstance(label_turns, list):
        raise CorpusError(f"call {call}: missing turn lists")
    if len(log_turns) != len(label_turns):
        raise CorpusError(
            f"session {session}: log has {len(log_turns)} turns but labels have {len(label_turns)}"
        )

    turns: list[Turn] = []
    history: list[tuple[SystemAct, ...]] = []
    last_index = None
    for position, (log_turn, label_turn) in enumerate(zip(log_turns, label_turns)):
        where = f"session {session} turn {position}"
        raw_index = log_turn.get("turn-index", position)
        if last_index is not None and raw_index <= last_index:
            raise CorpusError(f"{where}: turn indices are not increasing")
        last_index = raw_index

        output = log_turn.get("output", {})
        history.append(_parse_dialog_acts(output.get("dialog-acts", []), where))

        hyp_block = log_turn.get("input", {}).get(channel, {})
        raw_hyps = hyp_block.get("asr-hyps", [])
        try:
            texts = [str(h["asr-hyp"]) for h in raw_hyps]
            scores = [float(h["score"]) for h in raw_hyps]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{where}: malformed n-best entry: {exc}") from None
        if texts:
            weights = normalize_confidences(scores)
            nbest = tuple(AsrHypothesis(t, float(w)) for t, w in zip(texts, weights))
        else:
            nbest = (AsrHypothesis("", 1.0),)

        reference = _parse_reference(label_turn, where)
        turns.append(Turn(session, position, nbest, tuple(history), reference))
    return turns


def import_dstc2(root, flist, *, channel: str = "live", max_act_patterns: int = 14) -> Dataset:
    """Import the call directories named by ``flist`` under ``root``."""
    if channel not in ("live", "batch"):
        raise DomainError(f"ASR channel must be 'live' or 'batch', got {channel!r}")
    root = Path(root)
    flist = Path(flist)
    if not flist.is_file():
        raise CorpusError(f"file list not found: {flist}")
    calls = [line.strip() for line in flist.read_text(encoding="utf-8").splitlines() if line.strip()]
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
# canonical line-delimited format
# ---------------------------------------------------------------------------

def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


def _dict_to_turn(doc: dict) -> Turn:
    return Turn(
        session=str(doc["session"]),
        index=int(doc["index"]),
        nbest=tuple(AsrHypothesis(str(h["text"]), float(h["score"])) for h in doc["hyps"]),
        system_history=tuple(
            tuple(SystemAct(str(a["act"]), tuple((str(s), str(v)) for s, v in a["slots"])) for a in st)
            for st in doc["system_acts"]
        ),
        reference=ReferenceFrame(
            str(doc["reference"]["act"]),
            tuple((str(s), str(v)) for s, v in doc["reference"]["slots"]),
        ),
    )


def write_canonical(dataset: Dataset, path, config_hash: str | None = None) -> None:
    """Write the dataset as a header line plus one JSON record per turn."""
    lines = [_dumps(_turn_to_dict(t)) for t in dataset.turns]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "provenance": dict(dataset.provenance),
        "config_hash": config_hash,
        "counts": {"dialogues": dataset.dialogue_count, "turns": len(dataset.turns)},
        "checksum": digest,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dumps(header) + "\n")
        for line in lines:
            handle.write(line + "\n")


def read_canonical(path) -> Dataset:
    """Read a canonical dataset file; the inverse of ``write_canonical``."""
    with open(path, encoding="utf-8") as handle:
        raw = handle.read().splitlines()
    if not raw:
        raise DataFormatError(f"{path}: empty dataset file")
    try:
        header = json.loads(raw[0])
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid header: {exc}") from None
    if header.get("format") != FORMAT_NAME:
        raise DataFormatError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: version mismatch: file is {header.get('version')}, reader supports {FORMAT_VERSION}"
        )
    lines = raw[1:]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    if header.get("checksum") != digest:
        raise DataFormatError(f"{path}: checksum mismatch; file was modified or truncated")

    turns: list[Turn] = []
    seen: set[tuple[str, int]] = set()
    for number, line in enumerate(lines, start=2):
        try:
            turn = _dict_to_turn(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}:{number}: malformed turn record: {exc}") from None
        key = (turn.session, turn.index)
        if key in seen:
            raise DataFormatError(f"{path}:{number}: duplicate turn {key}")
        seen.add(key)
        turns.append(turn)

    counts = header.get("counts", {})
    provenance = header.get("provenance", {})
    max_patterns = int(provenance.get("max_act_patterns", 14))
    dataset = Dataset(tuple(turns), Ontology.derive(turns, max_patterns), provenance)
    if counts and (counts.get("turns") != len(dataset.turns) or counts.get("dialogues") != dataset.dialogue_count):
        raise DataFormatError(f"{path}: header counts do not match the records")
    return dataset


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
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"validation fraction must lie in (0, 1), got {fraction}")
    sessions = ordered_sessions(turns)
    if len(sessions) < 2:
        return list(turns), []
    order = substream(seed, SPLIT, *extra).permutation(len(sessions))
    held = max(1, min(len(sessions) - 1, int(round(len(sessions) * fraction))))
    val_sessions = {sessions[int(i)] for i in order[:held]}
    return [t for t in turns if t.session not in val_sessions], [t for t in turns if t.session in val_sessions]


@dataclass(frozen=True)
class FoldPlan:
    """Dialogue-level cross-validation assignments."""

    k: int
    seed: int
    assignment: Mapping[str, int]

    def fold_sessions(self, fold: int) -> tuple[str, ...]:
        return tuple(s for s, f in self.assignment.items() if f == fold)

    def split(self, dataset: Dataset, fold: int) -> tuple[Dataset, Dataset]:
        """(train, held-out) datasets for one fold."""
        if not 0 <= fold < self.k:
            raise DomainError(f"fold {fold} out of range for k={self.k}")
        held = set(self.fold_sessions(fold))
        train = dataset.subset([s for s in dataset.sessions if s not in held], note=f"cv-train-{fold}")
        test = dataset.subset(held, note=f"cv-held-{fold}")
        return train, test


def make_folds(dataset: Dataset, k: int = 10, seed: int = 0) -> FoldPlan:
    """Partition dialogues into k folds whose sizes differ by at most one."""
    sessions = dataset.sessions
    if k < 2:
        raise DomainError(f"need at least 2 folds, got {k}")
    if k > len(sessions):
        raise DomainError(f"cannot make {k} folds from {len(sessions)} dialogues")
    rng = substream(seed, FOLDS)
    order = rng.permutation(len(sessions))
    assignment = {sessions[int(i)]: pos % k for pos, i in enumerate(order)}
    # Keep the mapping in dataset order for reproducible serialization.
    assignment = {s: assignment[s] for s in sessions}
    return FoldPlan(k=k, seed=seed, assignment=assignment)
