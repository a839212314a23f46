"""Corpus import, canonical round trips, and dialogue-level splits."""

import hashlib
import json

import numpy as np
import pytest

from nbestslu.data import (
    import_dstc2,
    make_folds,
    normalize_confidences,
    ordered_sessions,
    read_canonical,
    read_turns,
    split_turns,
    write_canonical,
)
from nbestslu.decoder import read_frames
from nbestslu.errors import CorpusError, DataFormatError, DomainError

from _synth import synthetic_dataset, write_mini_corpus


class TestNormalizeConfidences:
    def test_plain_scores_renormalize(self):
        np.testing.assert_allclose(normalize_confidences([0.6, 0.2, 0.2]), [0.6, 0.2, 0.2])
        np.testing.assert_allclose(normalize_confidences([3.0, 1.0]), [0.75, 0.25])

    def test_negative_scores_treated_as_log_domain(self):
        out = normalize_confidences([-0.2, -1.8])
        expected = np.exp([-0.2, -1.8])
        expected /= expected.sum()
        np.testing.assert_allclose(out, expected)

    def test_all_zero_scores_fall_back_to_uniform(self):
        np.testing.assert_allclose(normalize_confidences([0.0, 0.0]), [0.5, 0.5])


@pytest.fixture()
def mini_corpus(tmp_path):
    flist = write_mini_corpus(tmp_path / "corpus")
    return tmp_path / "corpus", flist


class TestImport:
    def test_counts(self, mini_corpus):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        assert ds.dialogue_count == 3
        assert len(ds.turns) == 7

    def test_reference_extraction_flattens_acts(self, mini_corpus):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        first = ds.turns[0]
        assert first.session == "voip-mini-001" and first.index == 0
        assert first.reference.act_pattern == "inform"
        assert set(first.reference.pairs) == {("area", "north"), ("pricerange", "moderate")}

    def test_multi_act_turn_gets_sorted_pattern(self, mini_corpus):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        last = [t for t in ds.turns if t.session == "voip-mini-003"][-1]
        assert last.reference.act_pattern == "bye|thankyou"

    def test_empty_semantics_become_null_pattern(self, mini_corpus):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        silent = [t for t in ds.turns if t.session == "voip-mini-002"][1]
        assert silent.reference.act_pattern == "null"

    def test_empty_nbest_becomes_single_empty_hypothesis(self, mini_corpus):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        silent = [t for t in ds.turns if t.session == "voip-mini-002"][1]
        assert len(silent.nbest) == 1
        assert silent.nbest[0].text == "" and silent.nbest[0].score == 1.0

    def test_log_domain_scores_exponentiated_and_normalized(self, mini_corpus):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        turn = [t for t in ds.turns if t.session == "voip-mini-001"][1]
        expected = np.exp([-0.2, -1.8])
        expected /= expected.sum()
        np.testing.assert_allclose([h.score for h in turn.nbest], expected)

    def test_system_history_includes_current_system_turn(self, mini_corpus):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        turns = [t for t in ds.turns if t.session == "voip-mini-001"]
        assert [len(t.system_history) for t in turns] == [1, 2, 3]
        assert turns[0].system_history[0][0].name == "welcomemsg"
        assert turns[2].system_history[-1][0].name == "offer"

    def test_ontology_covers_references(self, mini_corpus):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        onto = ds.ontology
        for turn in ds.turns:
            assert turn.reference.act_pattern in onto.acts
            for slot, value in turn.reference.pairs:
                assert slot in onto.slots
                assert value in onto.values[slot]
        assert set(onto.slots) == {"area", "food", "pricerange", "slot"}

    def test_missing_file_names_the_call(self, mini_corpus, tmp_path):
        root, flist = mini_corpus
        bad = tmp_path / "bad.flist"
        bad.write_text("Mar13_S0A0/voip-missing\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            import_dstc2(root, bad)
        assert "voip-missing" in str(err.value)

    def test_malformed_record_names_session_and_turn(self, mini_corpus):
        root, flist = mini_corpus
        log_path = root / "Mar13_S0A0/voip-mini-001/log.json"
        doc = json.loads(log_path.read_text())
        doc["turns"][1]["input"]["live"]["asr-hyps"] = [{"asr-hyp": "x"}]  # missing score
        log_path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError) as err:
            import_dstc2(root, flist)
        assert "voip-mini-001" in str(err.value) and "turn 1" in str(err.value)

    def test_import_is_deterministic_bytewise(self, mini_corpus, tmp_path):
        root, flist = mini_corpus
        for name in ("a.ds", "b.ds"):
            write_canonical(import_dstc2(root, flist), tmp_path / name)
        assert (tmp_path / "a.ds").read_bytes() == (tmp_path / "b.ds").read_bytes()

    def test_flist_order_does_not_matter(self, mini_corpus, tmp_path):
        # Provenance records the flist path, but the content must match.
        root, flist = mini_corpus
        reversed_flist = tmp_path / "rev.flist"
        lines = flist.read_text().splitlines()
        reversed_flist.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
        a = import_dstc2(root, flist)
        b = import_dstc2(root, reversed_flist)
        assert a.turns == b.turns and a.ontology == b.ontology


class TestCanonicalRoundTrip:
    def test_import_write_read_compare(self, mini_corpus, tmp_path):
        root, flist = mini_corpus
        ds = import_dstc2(root, flist)
        path = tmp_path / "data.ds"
        write_canonical(ds, path)
        assert read_canonical(path) == ds

    def test_synthetic_round_trip(self, tmp_path):
        ds = synthetic_dataset(4, 3)
        path = tmp_path / "synth.ds"
        write_canonical(ds, path)
        assert read_canonical(path) == ds

    @pytest.mark.parametrize("turns_per_dialogue", [1, 4])
    def test_a_read_shares_system_turns_but_never_a_history(self, tmp_path, turns_per_dialogue):
        ds = synthetic_dataset(5, turns_per_dialogue)
        path = tmp_path / "shared.ds"
        write_canonical(ds, path)
        read = read_canonical(path)
        assert read == ds
        for earlier, later in zip(read.turns, read.turns[1:]):
            if earlier.session == later.session:
                assert all(a is b for a, b in zip(earlier.system_history, later.system_history))
        # One-turn dialogues open with equal system turns: their histories are equal, not one object.
        histories = [t.system_history for t in read.turns if t.system_history]
        assert len({id(h) for h in histories}) == len(histories) == len(read.turns)

    def test_hand_written_two_turn_file(self, tmp_path):
        turns = [
            {"session": "s1", "index": 0,
             "hyps": [{"text": "hello there", "score": 1.0}],
             "system_acts": [[{"act": "welcomemsg", "slots": []}]],
             "reference": {"act": "hello", "slots": []}},
            {"session": "s1", "index": 1,
             "hyps": [{"text": "cheap food", "score": 1.0}],
             "system_acts": [[{"act": "welcomemsg", "slots": []}], [{"act": "reqmore", "slots": []}]],
             "reference": {"act": "inform", "slots": [["pricerange", "cheap"]]}},
        ]
        import hashlib
        lines = [json.dumps(t, sort_keys=True, separators=(",", ":")) for t in turns]
        header = {
            "format": "nbestslu-dataset", "version": 1, "provenance": {},
            "config_hash": None, "counts": {"dialogues": 1, "turns": 2},
            "checksum": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        }
        path = tmp_path / "hand.ds"
        path.write_text("\n".join([json.dumps(header, sort_keys=True, separators=(",", ":"))] + lines) + "\n")
        ds = read_canonical(path)
        assert len(ds.turns) == 2 and ds.dialogue_count == 1
        assert ds.turns[1].reference.pairs == (("pricerange", "cheap"),)

    def test_duplicate_session_index_rejected(self, tmp_path):
        ds = synthetic_dataset(2, 2)
        path = tmp_path / "dup.ds"
        write_canonical(ds, path)
        lines = path.read_text().splitlines()
        lines.append(lines[-1])  # duplicate the last turn
        import hashlib
        header = json.loads(lines[0])
        header["checksum"] = hashlib.sha256("\n".join(lines[1:]).encode()).hexdigest()
        header["counts"]["turns"] += 1
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_canonical(path)
        assert "duplicate" in str(err.value)

    def test_version_mismatch_rejected(self, tmp_path):
        ds = synthetic_dataset(2, 2)
        path = tmp_path / "v.ds"
        write_canonical(ds, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        for version in (99, True, 1.0):  # a version must be the integer 1, not a value equal to it
            header["version"] = version
            lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DataFormatError) as err:
                read_canonical(path)
            assert "version" in str(err.value)

    @pytest.mark.parametrize("key, value", [("turns", 3), ("turns", 2.0), ("dialogues", True)],
                             ids=["turns-miscounted", "turns-float", "dialogues-true"])
    def test_header_counts_must_be_the_record_counts(self, tmp_path, key, value):
        path = tmp_path / "counts.ds"
        write_canonical(synthetic_dataset(1, 2), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["counts"] == {"dialogues": 1, "turns": 2}
        header["counts"][key] = value
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_canonical(path)
        assert str(err.value) == (f"{path}: header counts do not match the records" if value == 3
                                  else f"{path}: header: expected a JSON integer, got {value!r}")

    def test_corruption_detected_by_checksum(self, tmp_path):
        ds = synthetic_dataset(2, 2)
        path = tmp_path / "c.ds"
        write_canonical(ds, path)
        text = path.read_text().replace("cheap", "steep", 1)
        if "steep" in text:
            path.write_text(text)
            with pytest.raises(DataFormatError) as err:
                read_canonical(path)
            assert "checksum" in str(err.value)


TURN_RECORD = {"session": "s1", "index": 0,
               "hyps": [{"text": "cheap food", "score": 0.75}, {"text": "chip food", "score": 0.25}],
               "system_acts": [[{"act": "welcomemsg", "slots": []}], [{"act": "confirm", "slots": [["food", "thai"]]}]],
               "reference": {"act": "inform", "slots": [["pricerange", "cheap"]]}}
FRAME_RECORD = {"session": "s1", "index": 0, "act": "inform", "act_confidence": 0.9,
                "slots": [{"slot": "food", "value": "thai", "confidence": 0.8},
                          {"slot": "area", "value": None, "confidence": 0.6}]}

# One field of the second record, and a value of another JSON type.  Each
# was once read, converted or as an empty list: the first as the act "True".
MISTYPED_TURN_FIELDS = pytest.mark.parametrize("where, value", [
    (("system_acts", 0, 0, "act"), True),
    (("session",), 7),
    (("index",), 2.7),
    (("index",), True),
    (("index",), 1.0),
    (("hyps", 0, "text"), 7),
    (("hyps", 0, "score"), "0.5"),
    (("hyps", 1, "score"), True),
    (("system_acts", 1, 0, "act"), 7),
    (("system_acts", 1, 0, "slots", 0, 0), 7),
    (("system_acts", 1, 0, "slots", 0, 1), 1.0),
    (("system_acts", 1, 0, "slots", 0), "ft"),
    (("reference", "act"), 7),
    (("reference", "slots", 0, 0), 7),
    (("reference", "slots", 0, 1), None),
    (("reference", "slots", 0), "pc"),
    (("system_acts",), ""),
    (("system_acts", 1), {}),
    (("system_acts", 1, 0, "slots"), {}),
    (("reference", "slots"), ""),
], ids=["act-true", "session-int", "index-fraction", "index-true", "index-float", "text-int", "score-string",
        "score-true", "system-act-int", "system-slot-int", "system-value-float", "system-pair-string",
        "reference-act-int", "reference-slot-int", "reference-value-null", "reference-pair-string",
        "system-acts-string", "system-turn-object", "system-slots-object", "reference-slots-string"])


def _with(record: dict, where: tuple, value) -> dict:
    record = json.loads(json.dumps(record))
    target = record
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    return record


def _write_records(path, records, header: dict | None = None, separator: str = "\n") -> None:
    """Records as JSON lines after ``header``, if any, with its checksum made to match."""
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    if header is not None:
        header = {**header, "checksum": hashlib.sha256("\n".join(lines).encode()).hexdigest()}
        lines.insert(0, json.dumps(header, sort_keys=True, separators=(",", ":")))
    path.write_text(separator.join(lines) + "\n", encoding="utf-8")


def _refusal(reader, path, line: int) -> str:
    """The message of the ``DataFormatError`` that ``reader`` raises on ``path``; it must name ``line``."""
    with pytest.raises(DataFormatError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}:{line}: malformed ")
    return str(err.value)


class TestMistypedFields:
    """A record field holds exactly its documented JSON type; anything else is refused, naming the line."""

    @MISTYPED_TURN_FIELDS
    def test_canonical_dataset_names_the_line(self, tmp_path, where, value):
        path = tmp_path / "mistyped.ds"
        header = {"format": "nbestslu-dataset", "version": 1, "provenance": {}, "config_hash": None,
                  "counts": {"dialogues": 1, "turns": 2}}
        _write_records(path, [TURN_RECORD, _with({**TURN_RECORD, "index": 1}, where, value)], header)
        assert "turn record: expected a JSON " in _refusal(read_canonical, path, 3)

    @MISTYPED_TURN_FIELDS
    def test_headerless_turns_name_the_line(self, tmp_path, where, value):
        path = tmp_path / "mistyped.jsonl"
        # The blank line between the records counts: the second record is line 3.
        _write_records(path, [TURN_RECORD, _with({**TURN_RECORD, "index": 1}, where, value)], separator="\n\n")
        assert "turn record: expected a JSON " in _refusal(read_turns, path, 3)

    def test_a_headerless_duplicate_turn_names_the_line(self, tmp_path):
        path = tmp_path / "twice.jsonl"
        _write_records(path, [TURN_RECORD, {**TURN_RECORD, "index": 1}, TURN_RECORD], separator="\n\n")
        assert "turn record: duplicate turn ('s1', 0)" in _refusal(read_turns, path, 5)

    @pytest.mark.parametrize("where, value", [
        (("session",), 7),
        (("index",), 1.9),
        (("index",), True),
        (("act",), 7),
        (("act_confidence",), "0.9"),
        (("act_confidence",), True),
        (("slots", 0, "slot"), 7),
        (("slots", 0, "value"), 7),
        (("slots", 0, "confidence"), "0.8"),
        (("slots",), {}),
    ], ids=["session-int", "index-fraction", "index-true", "act-int", "act-confidence-string", "act-confidence-true",
            "slot-int", "value-int", "confidence-string", "slots-object"])
    def test_frames_name_the_line(self, tmp_path, where, value):
        path = tmp_path / "mistyped.frames"
        header = {"format": "nbestslu-frames", "version": 1, "items": "full", "turns": 2, "config_hash": None,
                  "ontology_hash": None}
        lines = [header, FRAME_RECORD, _with({**FRAME_RECORD, "index": 1}, where, value)]
        path.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
        assert "frame record: expected a JSON " in _refusal(read_frames, path, 3)


# n-best lists that break the documented ``hyps`` contract, with a word the error must contain.
BAD_HYPS = pytest.mark.parametrize("hyps, word", [
    ([{"text": "cheap food", "score": float("nan")}], "finite"),
    ([{"text": "cheap food", "score": float("inf")}], "finite"),
    ([{"text": "cheap food", "score": float("-inf")}], "finite"),
    ([], "empty"),
    ([{"text": "cheap food", "score": -0.5}], "non-negative"),
], ids=["nan", "inf", "-inf", "empty", "negative"])


class TestNonFiniteScores:
    """Every turn reader refuses a bad n-best list, naming the file and the line."""

    @BAD_HYPS
    def test_canonical_dataset_names_the_line(self, tmp_path, hyps, word):
        import hashlib
        path = tmp_path / "scores.ds"
        write_canonical(synthetic_dataset(2, 2), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["hyps"] = hyps
        lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        header = json.loads(lines[0])
        header["checksum"] = hashlib.sha256("\n".join(lines[1:]).encode()).hexdigest()
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_canonical(path)
        assert f"{path}:3:" in str(err.value) and word in str(err.value)

    @BAD_HYPS
    def test_headerless_turns_name_the_line(self, tmp_path, hyps, word):
        record = {"session": "s1", "index": 0, "hyps": hyps,
                  "system_acts": [], "reference": {"act": "inform", "slots": []}}
        path = tmp_path / "one_turn.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_turns(path)
        assert f"{path}:1:" in str(err.value) and word in str(err.value)


class TestSplits:
    def test_ninety_ten(self):
        ds = synthetic_dataset(100, 2, seed=0)
        train, val = split_turns(ds.turns, 0.10, seed=1)
        assert len(ordered_sessions(train)) == 90 and len(ordered_sessions(val)) == 10

    def test_same_seed_same_split(self):
        ds = synthetic_dataset(30, 2)
        a = split_turns(ds.turns, 0.2, seed=5)
        b = split_turns(ds.turns, 0.2, seed=5)
        assert a == b
        c = split_turns(ds.turns, 0.2, seed=6)
        assert ordered_sessions(c[1]) != ordered_sessions(a[1])
        d = split_turns(ds.turns, 0.2, seed=5, extra=(1,))
        assert ordered_sessions(d[1]) != ordered_sessions(a[1])

    def test_no_session_straddles_the_split(self):
        ds = synthetic_dataset(20, 4)
        train, val = split_turns(ds.turns, 0.25, seed=2)
        assert set(ordered_sessions(train)).isdisjoint(ordered_sessions(val))
        assert sorted(train + val, key=ds.turns.index) == list(ds.turns)
        for part in (train, val):
            assert part == sorted(part, key=ds.turns.index)

    def test_single_dialogue_has_no_validation(self):
        ds = synthetic_dataset(1, 3)
        assert split_turns(ds.turns, 0.1, seed=0) == (list(ds.turns), [])


class TestFolds:
    def test_partition_and_sizes(self):
        ds = synthetic_dataset(23, 2)
        sizes = [len(held) for held in make_folds(ds, k=10, seed=3)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_determinism(self):
        ds = synthetic_dataset(12, 2)
        assert make_folds(ds, 4, seed=9) == make_folds(ds, 4, seed=9)
        assert make_folds(ds, 4, seed=9) != make_folds(ds, 4, seed=10)

    def test_dialogue_atomicity(self):
        ds = synthetic_dataset(9, 3)
        held = [s for fold in make_folds(ds, 3, seed=1) for s in fold]
        assert sorted(held) == sorted(ds.sessions)

    def test_folds_are_pinned(self):
        # The FOLDS draws of seed 3 over ten dialogues; each fold is in dataset order.
        assert make_folds(synthetic_dataset(10, 4, seed=21), 3, 3) == (
            ("synth-006", "synth-007", "synth-008", "synth-009"),
            ("synth-000", "synth-002", "synth-003"),
            ("synth-001", "synth-004", "synth-005"),
        )

    def test_k_too_large_rejected(self):
        ds = synthetic_dataset(3, 2)
        with pytest.raises(DomainError):
            make_folds(ds, 10, seed=0)
