"""Seeded synthetic corpus and word-vector file shaped like DSTC2.

The inventories (food values, restaurant names, system vocabulary) are
fixed: they come from a constant seed, so every workload seed sees the
same ontology sizes.  The workload seed only draws the dialogues.  The
shape is fixed too: dialogue lengths are the quantiles of a geometric
distribution (mean about 7 turns) in a fixed order, and n-best lengths
an even spread over their range, so every seed yields the same dialogue
lengths and the same turn count.

The program under test receives only the files written by ``generate``:
a canonical train and test dataset (written with ``write_canonical``)
and a 100-d vector text file that omits a fixed share of the words, so
that the out-of-vocabulary rows are exercised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from nbestslu.context import ContextWindow, context_tokens
from nbestslu.data import AsrHypothesis, Dataset, ReferenceFrame, SystemAct, Turn, write_canonical
from nbestslu.embeddings import tokenize
from nbestslu.ontology import Ontology

INVENTORY_SEED = 20161013  # fixed: inventories never depend on the workload seed
MAX_ACT_PATTERNS = 14
VECTOR_DIM = 100
OOV_SHARE = 0.06  # share of user words left out of the vector file
MAX_HYPS = 10  # the n-best cap
MEAN_TURNS = 7.0  # mean dialogue length, in turns

AREAS = ("north", "south", "east", "west", "centre")
PRICES = ("cheap", "moderate", "expensive")
REQUESTABLES = ("phone", "addr", "postcode", "food", "area", "pricerange", "signature")
REQUEST_WORDS = {
    "phone": ("phone number", "the phone", "what is the phone number"),
    "addr": ("address", "what is the address", "the address please"),
    "postcode": ("post code", "what is the post code", "postcode"),
    "food": ("what type of food", "what kind of food do they serve"),
    "area": ("what area is it in", "which part of town"),
    "pricerange": ("what is the price range", "how expensive is it"),
    "signature": ("signature dish", "what is their signature dish"),
}
FILLER = ("i", "want", "a", "the", "restaurant", "in", "part", "of", "town", "food", "serves",
          "looking", "for", "um", "uh", "please", "and", "is", "there", "what", "about",
          "any", "kind", "place", "it", "that", "with", "okay", "yes", "no", "not", "thank",
          "you", "good", "bye", "hello", "hi", "repeat", "can", "say", "again", "sil",
          "anything", "else", "how", "another", "one", "right", "priced", "noise", "yeah")
STREET_WORDS = ("road", "street", "lane", "avenue", "hills", "market", "bridge", "regent",
                "mill", "king", "park", "castle", "city", "centre", "newmarket", "hills")

# User act patterns: within the model's default inventory of fourteen.
PATTERNS = ("inform", "request", "null", "hello", "affirm", "negate", "reqalts", "bye|thankyou",
            "bye", "inform|negate", "affirm|inform", "thankyou")


@dataclass(frozen=True)
class CorpusShape:
    """Fixed per workload; never resized to flatter a number."""

    train_dialogues: int
    test_dialogues: int
    full_nbest: bool = False  # every turn carries MAX_HYPS hypotheses, not 1 to MAX_HYPS


@dataclass(frozen=True)
class CorpusFiles:
    train: Path
    test: Path
    vectors: Path


@dataclass(frozen=True)
class Inventory:
    foods: tuple[str, ...]
    names: tuple[str, ...]
    places: dict  # restaurant name -> {"addr", "phone", "postcode"}


def _pseudo_word(rng: np.random.Generator, taken: set[str]) -> str:
    onsets = ("b", "ch", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "sh", "t", "v", "z")
    vowels = ("a", "e", "i", "o", "u", "ai", "ou")
    while True:
        word = "".join(onsets[int(rng.integers(len(onsets)))] + vowels[int(rng.integers(len(vowels)))]
                       for _ in range(int(rng.integers(2, 4))))
        if word not in taken:
            taken.add(word)
            return word


@lru_cache(maxsize=1)
def inventory() -> Inventory:
    """The fixed value inventories shared by every workload and seed."""
    rng = np.random.default_rng(INVENTORY_SEED)
    taken = set(FILLER) | set(AREAS) | set(PRICES) | set(STREET_WORDS)
    foods = []
    for i in range(90):
        words = [_pseudo_word(rng, taken)]
        if i % 7 == 0:  # some multi-word values, like "modern european"
            words.append(_pseudo_word(rng, taken))
        foods.append(" ".join(words))
    names = [f"{_pseudo_word(rng, taken)} {_pseudo_word(rng, taken)}" for _ in range(110)]
    places = {}
    for name in names:
        places[name] = {
            "addr": f"{int(rng.integers(1, 60))} {STREET_WORDS[int(rng.integers(len(STREET_WORDS)))]} road",
            "phone": f"01223 {int(rng.integers(300, 340))}",
            "postcode": f"cb{int(rng.integers(1, 6))} {int(rng.integers(1, 10))}",
        }
    return Inventory(tuple(sorted(foods)), tuple(names), places)


def _geometric_lengths(count: int, mean: float) -> list[int]:
    """The ``count`` quantiles of a geometric distribution, in a fixed mixed order.

    The order does not depend on the workload seed, so a dialogue-level
    split with a fixed seed always holds out dialogues of the same lengths.
    """
    p = 1.0 / mean
    lengths = [max(1, math.ceil(math.log(1.0 - (i + 0.5) / count) / math.log(1.0 - p))) for i in range(count)]
    return [lengths[int(i)] for i in np.random.default_rng(INVENTORY_SEED).permutation(count)]


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


class _DialogueWriter:
    """Draws one dialogue: a user goal, system turns and user turns."""

    def __init__(self, rng: np.random.Generator, inv: Inventory, user_vocab: tuple[str, ...]):
        self.rng = rng
        self.inv = inv
        self.user_vocab = user_vocab
        # Goal foods cycle through the whole inventory so that every value occurs.
        self.foods = itertools.cycle([inv.foods[int(i)] for i in rng.permutation(len(inv.foods))])

    # -- user side ---------------------------------------------------------

    def _inform_text(self, slot: str, value: str) -> str:
        templates = {
            "food": ("{v} food", "i want {v} food", "looking for a {v} restaurant", "{v}", "serves {v} food"),
            "area": ("in the {v}", "{v} part of town", "the {v}", "{v}"),
            "pricerange": ("{v}", "a {v} restaurant", "{v} priced", "something {v}"),
        }[slot]
        return _pick(self.rng, templates).format(v=value)

    def _user_turn(self, pattern: str, goal: dict, asked: str | None) -> tuple[str, tuple]:
        rng = self.rng
        if pattern in ("inform", "inform|negate", "affirm|inform"):
            slots = [s for s in ("food", "area", "pricerange") if s in goal]
            if asked in goal and rng.random() < 0.7:
                chosen = [asked]
            else:  # one to three constraints at once, as in "cheap chinese food in the north"
                count = min(len(slots), 1 + int(rng.random() < 0.45) + int(rng.random() < 0.08))
                chosen = [slots[int(i)] for i in sorted(rng.permutation(len(slots))[:count])]
            text = " and ".join(self._inform_text(s, goal[s]) for s in chosen)
            if pattern == "inform|negate":
                text = "no " + text
            elif pattern == "affirm|inform":
                text = "yes " + text
            return text, tuple((s, goal[s]) for s in chosen)
        if pattern == "request":
            wanted = _pick(rng, REQUESTABLES)
            return _pick(rng, REQUEST_WORDS[wanted]), (("slot", wanted),)
        texts = {
            "null": ("um", "sil", "noise", "uh um"),
            "hello": ("hello", "hi", "hello there"),
            "affirm": ("yes", "yeah", "right", "yes that is right"),
            "negate": ("no", "no not that", "no thank you not that"),
            "reqalts": ("what about something else", "is there anything else", "how about another one"),
            "bye|thankyou": ("thank you good bye", "thank you bye", "okay thank you good bye"),
            "bye": ("good bye", "bye"),
            "thankyou": ("thank you", "okay thank you"),
        }[pattern]
        return _pick(rng, texts), ()

    def _corrupt(self, words: list[str]) -> list[str]:
        rng = self.rng
        out = list(words)
        edit = int(rng.integers(3)) if out else 1
        if edit == 0:
            out[int(rng.integers(len(out)))] = _pick(rng, self.user_vocab)
        elif edit == 1:
            out.insert(int(rng.integers(len(out) + 1)), _pick(rng, self.user_vocab))
        else:
            del out[int(rng.integers(len(out)))]
        return out

    def _nbest(self, text: str, count: int) -> tuple[AsrHypothesis, ...]:
        rng = self.rng
        truth = text.split()
        top = truth if rng.random() < 0.6 else self._corrupt(truth)
        texts = [" ".join(top)]
        seen = {texts[0]}
        attempts = 0
        while len(texts) < count:
            base = truth if attempts % 2 == 0 else texts[int(rng.integers(len(texts)))].split()
            candidate = " ".join(self._corrupt(list(base)))
            attempts += 1
            if candidate not in seen or attempts > 50:
                seen.add(candidate)
                texts.append(candidate)
        raw = np.sort(rng.exponential(1.0, count))[::-1] + 1e-3
        weights = raw / raw.sum()
        return tuple(AsrHypothesis(t, float(w)) for t, w in zip(texts, weights))

    # -- system side -------------------------------------------------------

    def _system_turn(self, position: int, length: int, goal: dict, offered: str) -> tuple[tuple[SystemAct, ...], str | None]:
        """One or two system acts, plus the slot they ask for (if any)."""
        rng = self.rng
        if position == 0:
            return (SystemAct("welcomemsg"),), None
        if position == length - 1 and rng.random() < 0.5:
            return (SystemAct("reqmore"),), None
        slot, other = (list(goal) * 2)[int(rng.integers(len(goal))):][:2]
        choice = int(rng.integers(6))
        if choice == 0:
            confirm = (SystemAct("impl-conf", ((other, goal[other]),)),) if other != slot else ()
            return confirm + (SystemAct("request", (("slot", slot),)),), slot
        if choice == 1:
            return (SystemAct("offer", (("name", offered),)), SystemAct("inform", ((slot, goal[slot]),))), None
        if choice == 2:
            detail = _pick(rng, ("addr", "phone", "postcode"))
            place = self.inv.places[offered]
            return (SystemAct("inform", (("name", offered), (detail, place[detail]))), SystemAct("reqmore")), None
        if choice == 3 or "food" not in goal:
            return (SystemAct("expl-conf", ((slot, goal[slot]),)),), None
        # No match for the goal's food: the user picks another one.
        missing = SystemAct("canthelp", (("food", goal["food"]),))
        goal["food"] = next(self.foods)
        return (missing, SystemAct("request", (("slot", "food"),))), "food"

    def dialogue(self, session: str, length: int, hyp_counts) -> list[Turn]:
        rng = self.rng
        inv = self.inv
        goal = {}
        if rng.random() < 0.85:
            goal["food"] = next(self.foods)
        if rng.random() < 0.7 or not goal:
            goal["area"] = _pick(rng, AREAS)
        if rng.random() < 0.7:
            goal["pricerange"] = _pick(rng, PRICES)
        offered = _pick(rng, inv.names)
        history: list[tuple[SystemAct, ...]] = []
        turns = []
        for position in range(length):
            system, asked = self._system_turn(position, length, goal, offered)
            history.append(system)
            pattern = self._user_pattern(position, length, system, asked)
            text, pairs = self._user_turn(pattern, goal, asked)
            reference = ReferenceFrame(pattern, pairs)
            turns.append(Turn(session, position, self._nbest(text, next(hyp_counts)), tuple(history), reference))
            if system[0].name == "offer" and rng.random() < 0.3:
                offered = _pick(rng, inv.names)
        return turns

    def _user_pattern(self, position: int, length: int, system, asked: str | None) -> str:
        rng = self.rng
        if position == 0:
            return _pick(rng, ("inform", "inform", "inform", "inform", "inform", "hello"))
        if position == length - 1:
            return _pick(rng, ("bye|thankyou", "bye|thankyou", "bye", "thankyou"))
        lead = system[0].name
        if asked is not None:
            return _pick(rng, ("inform", "inform", "inform", "inform", "affirm|inform", "affirm|inform", "null"))
        if lead == "expl-conf":
            return _pick(rng, ("affirm", "affirm|inform", "affirm|inform", "negate", "inform|negate", "inform|negate"))
        if lead in ("offer", "inform"):
            return _pick(rng, ("request", "request", "request", "reqalts", "inform", "inform"))
        return _pick(rng, ("request", "inform"))


def _user_vocab(inv: Inventory) -> tuple[str, ...]:
    words = set(FILLER) | set(AREAS) | set(PRICES)
    for food in inv.foods:
        words.update(food.split())
    for phrases in REQUEST_WORDS.values():
        for phrase in phrases:
            words.update(phrase.split())
    return tuple(sorted(words))


def _hyp_counts(shape: CorpusShape, turns: int, rng: np.random.Generator):
    """A fixed, evenly spread multiset of n-best lengths, shuffled."""
    low = MAX_HYPS if shape.full_nbest else 1
    span = MAX_HYPS - low + 1
    counts = [low + (i * span) // turns for i in range(turns)]
    return iter([counts[int(i)] for i in rng.permutation(turns)])


def _dataset(turns: list[Turn], seed: int, part: str, shape: CorpusShape) -> Dataset:
    provenance = {"source": "perfbench-synthetic", "seed": seed, "part": part,
                  "max_act_patterns": MAX_ACT_PATTERNS, "shape": asdict(shape)}
    turns_tuple = tuple(turns)
    return Dataset(turns_tuple, Ontology.derive(turns_tuple, MAX_ACT_PATTERNS), provenance)


def build(shape: CorpusShape, seed: int) -> tuple[Dataset, Dataset, dict[str, np.ndarray]]:
    """The train and test datasets plus the vector table, in memory."""
    rng = np.random.default_rng(seed)
    inv = inventory()
    user_vocab = _user_vocab(inv)
    writer = _DialogueWriter(rng, inv, user_vocab)
    parts = {}
    for part, count in (("train", shape.train_dialogues), ("test", shape.test_dialogues)):
        lengths = _geometric_lengths(count, MEAN_TURNS)
        hyp_counts = _hyp_counts(shape, sum(lengths), rng)
        turns = []
        for d, length in enumerate(lengths):
            turns.extend(writer.dialogue(f"{part}-{seed}-{d:04d}", length, hyp_counts))
        parts[part] = _dataset(turns, seed, part, shape)

    system_words = set()
    for turn in parts["train"].turns + parts["test"].turns:
        for system_turn in turn.system_history:
            for act in system_turn:
                system_words.update(context_tokens(((act,),), ContextWindow("all")))
    words = sorted(set(user_vocab) | system_words)
    left_out = set(_pick_share(user_vocab, OOV_SHARE, rng))
    vectors = {w: rng.normal(0.0, 0.3, VECTOR_DIM) for w in words if w not in left_out}
    return parts["train"], parts["test"], vectors


def _pick_share(words, share: float, rng: np.random.Generator) -> list[str]:
    count = int(round(len(words) * share))
    return [words[int(i)] for i in rng.permutation(len(words))[:count]]


def write_vectors(vectors: dict[str, np.ndarray], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for word, row in vectors.items():
            handle.write(word + " " + " ".join(f"{x:.6f}" for x in row) + "\n")


def generate(shape: CorpusShape, seed: int, outdir) -> CorpusFiles:
    """Write the corpus files for one workload seed under ``outdir``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    train, test, vectors = build(shape, seed)
    files = CorpusFiles(outdir / "train.ds", outdir / "test.ds", outdir / "vectors.txt")
    write_canonical(train, files.train)
    write_canonical(test, files.test)
    write_vectors(vectors, files.vectors)
    return files


def describe(train: Dataset, test: Dataset, window: ContextWindow, vocabulary) -> dict:
    """The measured shape of a generated corpus, as written into each result."""
    turns = train.turns + test.turns
    hyps = [len(t.nbest) for t in turns]
    context = [len(context_tokens(t.system_history, window)) for t in turns]
    user_tokens = [w for t in turns for h in t.nbest for w in tokenize(h.text).tokens]
    oov = sum(1 for w in user_tokens if w not in vocabulary)
    system_vocab = set()
    for t in turns:
        system_vocab.update(context_tokens(t.system_history, ContextWindow("all")))
    return {
        "turns": {"train": len(train.turns), "test": len(test.turns)},
        "dialogues": {"train": train.dialogue_count, "test": test.dialogue_count},
        "hyps_per_turn": {"mean": float(np.mean(hyps)), "max": int(max(hyps))},
        "context_tokens": {"window": window.name, "mean": float(np.mean(context)), "max": int(max(context))},
        "slot_values": {slot: len(values) for slot, values in train.ontology.values.items()},
        "act_patterns": len(train.ontology.acts),
        "system_vocab": len(system_vocab),
        "oov_rate": oov / max(1, len(user_tokens)),
    }
