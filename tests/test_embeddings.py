"""Vector loading, tokenization, system-act flattening, row routing."""

import logging
from dataclasses import fields

import numpy as np
import pytest

from nbestslu.data import SystemAct
from nbestslu.embeddings import EmbeddingTable, load_vectors, tokenize
from nbestslu.errors import DataFormatError, ModelStateError, ParseError
from nbestslu.rng import Initializer


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadVectors:
    def test_two_valid_lines(self, tmp_path):
        vectors = np.random.default_rng(0).uniform(-1, 1, (2, 100))
        lines = [token + " " + " ".join(repr(float(x)) for x in row) for token, row in zip(("the", "north"), vectors)]
        table = load_vectors(write_lines(tmp_path / "v.txt", lines))
        assert table.dim == 100
        assert "the" in table and "north" in table and "south" not in table
        assert table.fingerprint() == EmbeddingTable(["the", "north"], vectors).fingerprint()
        table.prepare_runtime_rows((), Initializer(np.random.default_rng(1)))
        np.testing.assert_array_equal(table.hypothesis_rows(("the", "north")), vectors)

    def test_wrong_arity_names_the_line(self, tmp_path):
        lines = ["a 0.1 0.2 0.3", "the 0.1 0.2"]
        with pytest.raises(ParseError) as err:
            load_vectors(write_lines(tmp_path / "v.txt", lines))
        assert ":2:" in str(err.value)

    def test_unparseable_component_names_the_line(self, tmp_path):
        lines = ["a 0.1 0.2", "b 0.1 oops"]
        with pytest.raises(ParseError) as err:
            load_vectors(write_lines(tmp_path / "v.txt", lines))
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_names_the_line(self, tmp_path, component):
        for lines, lineno in (([f"a {component} 0.5", "b 0.1 0.2"], 1), (["a 0.1 0.5", f"b 0.1 {component}"], 2)):
            with pytest.raises(ParseError) as err:
                load_vectors(write_lines(tmp_path / "v.txt", lines))
            assert f"v.txt:{lineno}: non-finite" in str(err.value)

    def test_expected_dim_mismatch_is_a_format_error(self, tmp_path):
        lines = ["a 0.1 0.2 0.3"]
        with pytest.raises(DataFormatError):
            load_vectors(write_lines(tmp_path / "v.txt", lines), expected_dim=100)

    def test_duplicate_token_keeps_first_and_warns(self, tmp_path, caplog):
        lines = ["north 1.0 2.0", "south 3.0 4.0", "north 9.0 9.0"]
        with caplog.at_level(logging.WARNING):
            table = load_vectors(write_lines(tmp_path / "v.txt", lines))
        assert table.fingerprint() == EmbeddingTable(["north", "south"], [[1.0, 2.0], [3.0, 4.0]]).fingerprint()
        assert any("duplicate" in r.message for r in caplog.records)


class TestTokenize:
    def test_case_folding(self):
        assert tokenize("I am LOOKING").tokens == ("i", "am", "looking")

    def test_empty_string(self):
        assert tokenize("").tokens == ()

    def test_three_tokens(self):
        assert len(tokenize("moderately priced restaurant").tokens) == 3


class TestEncodeSystemAct:
    def test_bare_act(self):
        assert SystemAct("welcomemsg").words == ("welcomemsg",)

    def test_single_pair(self):
        assert SystemAct("offer", (("name", "meghna"),)).words == ("offer", "name", "meghna")

    def test_multiple_pairs_keep_order(self):
        tokens = SystemAct("inform", (("pricerange", "moderate"), ("area", "north"))).words
        assert tokens == ("inform", "pricerange", "moderate", "area", "north")

    def test_multiword_value_splits(self):
        tokens = SystemAct("offer", (("name", "golden wok"),)).words
        assert tokens == ("offer", "name", "golden", "wok")

    def test_injective_up_to_flattening(self):
        rng = np.random.default_rng(4)
        names = ["offer", "inform", "request", "confirm"]
        slots = ["area", "food", "pricerange", "name"]
        values = ["north", "south", "chinese", "cheap", "golden"]
        seen: dict[tuple, SystemAct] = {}
        for _ in range(500):
            name = names[int(rng.integers(len(names)))]
            n_pairs = int(rng.integers(0, 3))
            pairs = tuple(
                (slots[int(rng.integers(len(slots)))], values[int(rng.integers(len(values)))])
                for _ in range(n_pairs)
            )
            act = SystemAct(name, pairs)
            key = act.words
            if key in seen:
                assert seen[key] == act
            seen[key] = act

    def test_words_are_not_a_field(self):
        act = SystemAct("offer", (("name", "golden wok"),))
        assert act.words is act.words
        assert [f.name for f in fields(act)] == ["name", "pairs"]
        assert act == SystemAct("offer", (("name", "golden wok"),))
        assert hash(act) == hash(SystemAct("offer", (("name", "golden wok"),)))


def prepared_table():
    tokens = ["north", "south", "cheap", "offer", "name"]
    matrix = np.arange(25, dtype=float).reshape(5, 5)
    table = EmbeddingTable(tokens, matrix)
    table.prepare_runtime_rows(["offer", "name", "meghna"], Initializer(np.random.default_rng(2)))
    return table


class TestLookup:
    def test_in_vocabulary_token_returns_stored_row(self):
        table = prepared_table()
        rows = table.hypothesis_rows(tokenize("north south").tokens)
        np.testing.assert_array_equal(rows[0], np.arange(5.0))
        np.testing.assert_array_equal(rows[1], np.arange(5.0, 10.0))

    def test_oov_token_maps_to_shared_row(self):
        table = prepared_table()
        rows_a = table.hypothesis_rows(tokenize("zxqv").tokens)
        rows_b = table.hypothesis_rows(tokenize("qqqq north").tokens)
        np.testing.assert_array_equal(rows_a[0], rows_b[0])
        np.testing.assert_array_equal(rows_a[0], table.hypothesis_oov_vector)

    def test_empty_sequence_yields_zero_by_k(self):
        table = prepared_table()
        assert table.hypothesis_rows(tokenize("").tokens).shape == (0, 5)
        assert table.system_row_indices(()).shape == (0,)

    def test_system_origin_rows_are_trainable(self):
        table = prepared_table()
        tokens = ("offer", "meghna", "unseen")
        rows = table.system_matrix[table.system_row_indices(tokens)]
        # "offer" starts from a copy of its pretrained vector, in the trainable block.
        np.testing.assert_array_equal(rows[0], table.hypothesis_rows(("offer",))[0])
        assert not np.shares_memory(table.system_matrix, table._frozen)
        # unseen system tokens share the system OOV row (row 0).
        assert table.system_row_indices(tokens)[2] == 0
        np.testing.assert_array_equal(rows[2], table.system_matrix[0])

    @pytest.mark.parametrize("system_tokens", [[], ["offer"], ["zz", "offer", "aa", "name", "mm"], ["aa", "bb"]],
                             ids=["none", "pretrained", "mixed", "unseen"])
    def test_the_system_block_is_the_row_by_row_draws(self, system_tokens):
        # One draw for row 0 and the unseen tokens takes the stream values that one draw per row,
        # in row order, takes: ``Generator.uniform`` uses one 64-bit output per float64.
        tokens = ["north", "south", "cheap", "offer", "name"]
        matrix = np.arange(25, dtype=float).reshape(5, 5)
        table = EmbeddingTable(tokens, matrix)
        table.prepare_runtime_rows(system_tokens, Initializer(np.random.default_rng(7)))
        init = Initializer(np.random.default_rng(7))
        oov = init.draw(5)
        rows = [init.uniform(5)] + [matrix[tokens.index(token)] if token in tokens else init.uniform(5)
                                    for token in sorted(set(system_tokens))]
        np.testing.assert_array_equal(table.hypothesis_oov_vector, oov)
        np.testing.assert_array_equal(table.system_matrix, np.stack(rows))
        assert table.system_tokens == tuple(sorted(set(system_tokens)))

    def test_lookup_before_prepare_is_a_state_error(self):
        table = EmbeddingTable(["a"], np.zeros((1, 3)))
        with pytest.raises(ModelStateError):
            table.hypothesis_rows(("a",))
        with pytest.raises(ModelStateError):
            table.system_row_indices(("a",))

    def test_prepare_twice_rejected(self):
        table = prepared_table()
        with pytest.raises(ModelStateError):
            table.prepare_runtime_rows([], Initializer(np.random.default_rng(0)))

    def test_views_are_independent(self):
        base = EmbeddingTable(["a", "b"], np.ones((2, 4)))
        v1, v2 = base.view(), base.view()
        v1.prepare_runtime_rows(["x"], Initializer(np.random.default_rng(1)))
        v2.prepare_runtime_rows(["x", "y"], Initializer(np.random.default_rng(2)))
        assert v1.system_matrix.shape == (2, 4)
        assert v2.system_matrix.shape == (3, 4)

    def test_frozen_block_is_write_protected(self):
        table = prepared_table()
        with pytest.raises(ValueError):
            table._frozen[0, 0] = 99.0
