"""Corpus import, canonical round trips, and dialogue-level splits."""

import json

import numpy as np
import pytest

from nbestslu.data import (
    import_dstc2,
    make_folds,
    normalize_confidences,
    ordered_sessions,
    read_canonical,
    split_turns,
    write_canonical,
)
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

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            normalize_confidences([])


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
        header["version"] = 99
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_canonical(path)
        assert "version" in str(err.value)

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

    def test_fraction_out_of_range(self):
        ds = synthetic_dataset(5, 2)
        for fraction in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                split_turns(ds.turns, fraction, seed=0)


class TestFolds:
    def test_partition_and_sizes(self):
        ds = synthetic_dataset(23, 2)
        plan = make_folds(ds, k=10, seed=3)
        sizes = [len(plan.fold_sessions(i)) for i in range(10)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_determinism(self):
        ds = synthetic_dataset(12, 2)
        assert make_folds(ds, 4, seed=9) == make_folds(ds, 4, seed=9)
        assert make_folds(ds, 4, seed=9) != make_folds(ds, 4, seed=10)

    def test_dialogue_atomicity(self):
        ds = synthetic_dataset(9, 3)
        plan = make_folds(ds, 3, seed=1)
        for fold in range(3):
            train, held = plan.split(ds, fold)
            assert set(train.sessions).isdisjoint(held.sessions)
            assert len(train.turns) + len(held.turns) == len(ds.turns)

    def test_k_too_large_rejected(self):
        ds = synthetic_dataset(3, 2)
        with pytest.raises(DomainError):
            make_folds(ds, 10, seed=0)
