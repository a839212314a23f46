"""Convolutional sentence features and the confidence-weighted sum."""

import itertools
import math

import numpy as np
import pytest

from nbestslu import autograd as ag
from nbestslu.config import RunConfig
from nbestslu.data import normalize_confidences
from nbestslu.embeddings import EmbeddingTable
from nbestslu.errors import DomainError, NumericFailure
from nbestslu.optim import Adadelta
from nbestslu.rng import Initializer
from nbestslu.sentence import (
    ConvFilterBank,
    Hypothesis,
    NBestList,
    encode_hypothesis,
    encode_sentence,
    encode_sentences,
)

from _gradcheck import max_rel_error, weighted_sum


def tiny_table(vectors: dict[str, list[float]]) -> EmbeddingTable:
    tokens = sorted(vectors)
    table = EmbeddingTable(tokens, np.asarray([vectors[t] for t in tokens], dtype=float))
    table.prepare_runtime_rows([], Initializer(np.random.default_rng(0)))
    return table


def single_filter_bank(dim, width, weights, bias=0.0) -> ConvFilterBank:
    bank = ConvFilterBank(dim, (width,), 1, Initializer(np.random.default_rng(0)))
    bank.weights[width].data[...] = np.asarray(weights, dtype=float).reshape(-1, 1)
    bank.biases[width].data[...] = bias
    return bank


class TestEncodeHypothesis:
    def test_hand_evaluated_convolution(self):
        # k=2, window 2, one filter w=[1,0,0,1], b=0 over embeddings
        # [1,0],[0,1],[1,1]: responses tanh([2,1]) pool to tanh(2).
        table = tiny_table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
        bank = single_filter_bank(2, 2, [1.0, 0.0, 0.0, 1.0])
        windows = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0]])
        expected_maps = np.tanh(windows @ np.array([1.0, 0.0, 0.0, 1.0]))
        np.testing.assert_allclose(expected_maps, [0.9640275800758169, 0.7615941559557649], atol=1e-12)
        out = encode_hypothesis(("a", "b", "c"), table, bank)
        assert out.shape == (1,)
        assert out.data[0] == pytest.approx(expected_maps.max(), abs=1e-15)

    def test_zero_embeddings_zero_bias_pool_to_zero(self):
        table = tiny_table({"z": [0.0, 0.0]})
        bank = single_filter_bank(2, 2, [0.3, -0.4, 0.5, 0.9])
        out = encode_hypothesis(("z", "z", "z"), table, bank)
        np.testing.assert_array_equal(out.data, [0.0])

    def test_short_hypothesis_padded_to_largest_window(self):
        rng = np.random.default_rng(1)
        table = tiny_table({"w": list(rng.uniform(-1, 1, 3))})
        bank = ConvFilterBank(3, (3, 4, 5), 2, Initializer(rng))
        out = encode_hypothesis(("w",), table, bank)
        assert out.shape == (6,)
        assert np.all(np.isfinite(out.data))

    def test_empty_hypothesis_yields_tanh_bias(self):
        table = tiny_table({"w": [1.0, 1.0]})
        bank = single_filter_bank(2, 2, [0.5, 0.5, 0.5, 0.5], bias=0.3)
        out = encode_hypothesis((), table, bank)
        assert out.data[0] == pytest.approx(np.tanh(0.3), abs=1e-15)

    def test_pooled_features_inside_tanh_range(self):
        rng = np.random.default_rng(2)
        table = tiny_table({t: list(rng.uniform(-2, 2, 4)) for t in "abcdefg"})
        bank = ConvFilterBank(4, (2, 3), 5, Initializer(rng))
        for _ in range(20):
            tokens = tuple(rng.choice(list("abcdefg"), size=int(rng.integers(0, 7))))
            out = encode_hypothesis(tokens, table, bank).data
            assert np.all(out > -1) and np.all(out < 1)


class TestEncodeSentence:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.table = tiny_table({t: list(rng.uniform(-1, 1, 4)) for t in ("i", "want", "cheap", "food", "the")})
        self.bank = ConvFilterBank(4, (2, 3), 3, Initializer(rng))

    def test_single_hypothesis_degenerate_case_is_exact(self):
        nbest = NBestList((Hypothesis(("i", "want", "cheap"), 0.37),))
        sentence = encode_sentence(nbest, self.table, self.bank)
        feature = encode_hypothesis(("i", "want", "cheap"), self.table, self.bank)
        np.testing.assert_array_equal(sentence.data, feature.data)

    def test_two_hypotheses_weighted_sum(self):
        h1, h2 = ("i", "want", "cheap"), ("the", "food",)
        nbest = NBestList((Hypothesis(h1, 0.7), Hypothesis(h2, 0.3)))
        sentence = encode_sentence(nbest, self.table, self.bank)
        e1 = encode_hypothesis(h1, self.table, self.bank).data
        e2 = encode_hypothesis(h2, self.table, self.bank).data
        np.testing.assert_allclose(sentence.data, 0.7 * e1 + 0.3 * e2, atol=1e-15)

    def test_the_whole_list_is_one_tape_node(self):
        hyps = (Hypothesis(("i", "want"), 0.6), Hypothesis(("cheap",), 0.3), Hypothesis((), 0.1))
        out = encode_sentence(NBestList(hyps), self.table, self.bank)
        ((batch,),) = {out._parents}  # row 0 of a batch of one
        assert batch.shape == (1, self.bank.feature_size)
        assert list(batch._parents) == list(self.bank.parameters().values())

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(4)
        hyps = [
            Hypothesis(tuple(rng.choice(["i", "want", "cheap", "food", "the"], size=3)), float(c))
            for c in (0.5, 0.2, 0.2, 0.1)
        ]
        base = encode_sentence(NBestList(tuple(hyps)), self.table, self.bank).data
        for _ in range(5):
            perm = [hyps[int(i)] for i in rng.permutation(len(hyps))]
            out = encode_sentence(NBestList(tuple(perm)), self.table, self.bank).data
            np.testing.assert_array_equal(out, base)

    def test_invariance_under_uniform_confidence_rescaling(self):
        hyps = (Hypothesis(("i", "want"), 0.6), Hypothesis(("cheap", "food"), 0.4))
        base = encode_sentence(NBestList(hyps), self.table, self.bank).data
        for alpha in (0.001, 7.0, 1234.5):
            scaled = tuple(Hypothesis(h.tokens, h.confidence * alpha) for h in hyps)
            out = encode_sentence(NBestList(scaled), self.table, self.bank).data
            np.testing.assert_allclose(out, base, rtol=0, atol=1e-12)

    def test_empty_nbest_rejected(self):
        with pytest.raises(DomainError):
            encode_sentence(NBestList(()), self.table, self.bank)

    def test_negative_confidence_rejected(self):
        with pytest.raises(DomainError):
            Hypothesis(("i",), -0.1)

    @pytest.mark.parametrize("confidence", [math.nan, math.inf])
    def test_non_finite_confidence_rejected(self, confidence):
        with pytest.raises(DomainError, match="finite"):
            Hypothesis(("i",), confidence)

    def test_truncation_cap(self):
        hyps = tuple(Hypothesis(("i",), 1.0 / (j + 1)) for j in range(12))
        assert len(NBestList(hyps).truncated(10)) == 10
        with pytest.raises(DomainError):
            NBestList(hyps).truncated(0)

    def test_truncation_keeps_the_top_hypotheses_in_canonical_order(self):
        hyps = tuple(Hypothesis((t,), c) for t, c in (("the", 0.1), ("i", 0.5), ("food", 0.3), ("want", 0.3)))
        expected = (hyps[1], hyps[2], hyps[3])
        assert NBestList(hyps).truncated(3).hyps == expected
        assert NBestList(hyps[::-1]).truncated(3).hyps == expected


class TestLayout:
    HYPS = (Hypothesis(("i", "want", "cheap"), 0.3), Hypothesis(("want", "food"), 0.3), Hypothesis((), 0.1),
            Hypothesis(("cheap", "i", "the", "food"), 0.3))

    def test_rows_number_the_distinct_tokens_in_canonical_order(self):
        nbest = NBestList(self.HYPS)
        assert nbest.hyps == (self.HYPS[3], self.HYPS[0], self.HYPS[1], self.HYPS[2])
        assert nbest.distinct == ("cheap", "i", "the", "food", "want")
        np.testing.assert_array_equal(nbest.index, [[1, 2, 3, 4], [2, 5, 1, 0], [5, 4, 0, 0], [0, 0, 0, 0]])
        np.testing.assert_array_equal(nbest.counts, [4, 3, 2, 0])
        for array in (nbest.weights, nbest.counts, nbest.index):
            assert not array.flags.writeable

    def test_every_permutation_gives_a_bit_equal_layout(self):
        base = NBestList(self.HYPS)
        for perm in itertools.permutations(self.HYPS):
            nbest = NBestList(perm)
            assert nbest.hyps == base.hyps and nbest.distinct == base.distinct
            assert nbest.index.tobytes() == base.index.tobytes()
            assert nbest.weights.tobytes() == base.weights.tobytes()

    def test_truncation_keeps_the_first_rows_of_the_layout(self):
        nbest = NBestList(self.HYPS)
        for cap in range(1, 6):
            top = nbest.truncated(cap)
            fresh = NBestList(nbest.hyps[:cap])
            assert top.hyps == fresh.hyps and top.distinct == fresh.distinct
            assert top.counts.tobytes() == fresh.counts.tobytes()
            assert top.index.tobytes() == fresh.index.tobytes()
            assert top.weights.tobytes() == fresh.weights.tobytes()
        assert nbest.truncated(1).distinct == ("cheap", "i", "the", "food")
        assert nbest.truncated(len(nbest)) is nbest

    def test_a_repeated_trigram_gives_identical_responses_and_one_gradient(self):
        # Filters aligned with the trigram "a b c" make it every map's maximum,
        # once in the second hypothesis and twice (a tie) in the first.
        rng = np.random.default_rng(9)
        table = tiny_table({t: list(rng.uniform(-1, 1, 100)) for t in "abcde"})
        bank = ConvFilterBank(100, (3,), 50, Initializer(rng))
        trigram = table.hypothesis_rows(tuple("abc")).ravel()
        weight, bias = bank.weights[3], bank.biases[3]
        weight.data[...] = np.outer(trigram, rng.uniform(0.01, 0.02, 50)) + rng.uniform(-0.01, 0.01, (300, 50))
        nbest = NBestList((Hypothesis(tuple("eabc"), 0.5), Hypothesis(tuple("abcdabc"), 0.5)))
        rows = np.vstack([np.zeros(100), table.hypothesis_rows(nbest.distinct)])
        pooled = [ag.conv_nbest(rows, nbest.index, nbest.counts, alone, [(weight, bias)], [2]).data[0]
                  for alone in ([1.0, 0.0], [0.0, 1.0])]
        np.testing.assert_array_equal(pooled[0], pooled[1])

        upstream = rng.uniform(-1, 1, 50)
        features, grads = encoded_with_grads(nbest, table, bank, upstream)
        np.testing.assert_array_equal(features, pooled[0])
        # Each hypothesis sends its gradient to one trigram window: the tie is neither split nor doubled.
        np.testing.assert_allclose(grads["conv.w3"], np.outer(trigram, upstream * (1.0 - features ** 2)),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(grads["conv.b3"], upstream * (1.0 - features ** 2), rtol=0, atol=1e-14)


def reference_encoding(nbest: NBestList, table: EmbeddingTable, bank: ConvFilterBank, upstream: np.ndarray):
    """Features and filter gradients, one hypothesis and one window at a time.

    Each hypothesis is right-padded with zero vectors up to the widest
    window, every feature map is pooled at its first maximum, and the
    weighted pooled vectors are summed left to right in canonical order.
    """
    ordered = sorted(nbest.hyps, key=lambda h: (-h.confidence, h.tokens))
    weights = normalize_confidences([h.confidence for h in ordered])
    grads = {name: np.zeros_like(t.data) for name, t in bank.parameters().items()}
    total = None
    for hyp, weight in zip(ordered, weights):
        rows = table.hypothesis_rows(hyp.tokens)
        rows = np.vstack([rows, np.zeros((max(0, bank.max_window - len(rows)), bank.dim))])
        features, offset = [], 0
        for width in bank.window_sizes:
            filters, bias = bank.weights[width], bank.biases[width]
            windows = [rows[s:s + width].ravel() for s in range(len(rows) - width + 1)]
            for m in range(bank.maps_per_window):
                responses = [np.tanh(window @ filters.data[:, m] + bias.data[m]) for window in windows]
                best = max(range(len(windows)), key=lambda s: (responses[s], -s))
                features.append(responses[best])
                g = upstream[offset + m] * weight * (1.0 - responses[best] ** 2)
                grads[filters.name][:, m] += g * windows[best]
                grads[bias.name][m] += g
            offset += bank.maps_per_window
        term = np.asarray(features) * weight
        total = term if total is None else total + term
    return total, grads


def encoded_with_grads(nbest: NBestList, table: EmbeddingTable, bank: ConvFilterBank, upstream: np.ndarray):
    for tensor in bank.parameters().values():
        tensor.grad = None
    out = encode_sentence(nbest, table, bank)
    weighted_sum(out, upstream).backward()
    return out.data, {name: t.grad for name, t in bank.parameters().items()}


class TestReference:
    """The one-node n-best op against the per-hypothesis maths, at paper dims."""

    def test_random_nbest_lists_match_the_reference(self):
        rng = np.random.default_rng(6)
        vocab = [f"w{i}" for i in range(30)]
        table = tiny_table({t: list(rng.uniform(-1, 1, 100)) for t in vocab})
        for count in range(1, 11):
            bank = ConvFilterBank(100, (3, 4, 5), 100, Initializer(rng))
            hyps = NBestList(tuple(
                Hypothesis(tuple(rng.choice(vocab + ["unseen"], size=int(rng.integers(0, 12)))),
                           float(rng.uniform(0.05, 1)))
                for _ in range(count)
            ))
            upstream = rng.uniform(-1, 1, bank.feature_size)
            features, grads = encoded_with_grads(hyps, table, bank, upstream)
            ref_features, ref_grads = reference_encoding(hyps, table, bank, upstream)
            np.testing.assert_allclose(features, ref_features, rtol=0, atol=1e-12)
            for name, grad in ref_grads.items():
                np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-12, err_msg=name)

    def test_tied_windows_route_to_the_first(self):
        # Dyadic embeddings and weights make every product and sum exact, so
        # windows that differ only in the rows a zeroed filter block ignores
        # tie exactly, whatever order the products are summed in.
        rng = np.random.default_rng(7)
        table = tiny_table({t: list(rng.integers(-2, 3, 100) / 4) for t in "abxyz"})
        bank = ConvFilterBank(100, (3, 4, 5), 100, Initializer(rng))
        for width in bank.window_sizes:
            weight = rng.integers(-3, 4, (width * 100, 100)) / 64
            weight[:100] = 0.0
            bank.weights[width].data[...] = weight
            bank.biases[width].data[...] = rng.integers(-4, 5, 100) / 64
        hyps = NBestList((Hypothesis(tuple("axyzbxyz"), 0.5), Hypothesis(tuple("bxyaxy"), 0.25),
                          Hypothesis(tuple("xy"), 0.25)))
        upstream = rng.integers(1, 9, bank.feature_size) / 8
        features, grads = encoded_with_grads(hyps, table, bank, upstream)
        ref_features, ref_grads = reference_encoding(hyps, table, bank, upstream)
        np.testing.assert_allclose(features, ref_features, rtol=0, atol=1e-12)
        for name, grad in ref_grads.items():
            np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-12, err_msg=name)
        # The zeroed block's gradient is what tells tied windows apart.
        assert np.any(ref_grads["conv.w3"][:100] != 0.0)


class TestNonFiniteMaps:
    def test_a_nan_map_gives_nan_filter_gradients_that_the_step_refuses(self):
        table = tiny_table({"good": [0.1, 0.2, 0.3], "bad": [0.1, np.nan, 0.3], "word": [0.3, -0.2, 0.5]})
        bank = ConvFilterBank(3, (2, 3), 4, Initializer(np.random.default_rng(8)))
        config = RunConfig()
        optimizer = Adadelta(bank.parameters(), config.adadelta_rho, config.adadelta_epsilon)
        before = {name: t.data.copy() for name, t in bank.parameters().items()}
        nbest = NBestList((Hypothesis(("good", "bad", "word"), 0.7), Hypothesis(("word", "good", "word"), 0.3)))
        weighted_sum(encode_sentence(nbest, table, bank), np.ones(bank.feature_size)).backward()
        # Every window of the first hypothesis holds the NaN word, so every map pools a NaN.
        for name, tensor in bank.parameters().items():
            assert np.isnan(tensor.grad).all(), name
        with pytest.raises(NumericFailure, match="non-finite gradient"):
            optimizer.step()
        for name, tensor in bank.parameters().items():
            np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)


class TestSentenceGradients:
    def test_filter_gradients_through_pooling_and_weighted_sum(self):
        rng = np.random.default_rng(5)
        vocab = {t: list(rng.uniform(-1, 1, 3)) for t in ("a", "b", "c", "d")}
        table = tiny_table(vocab)
        worst = 0.0
        for _ in range(5):
            bank = ConvFilterBank(3, (2, 3), 2, Initializer(rng))
            hyps = tuple(
                Hypothesis(tuple(rng.choice(list(vocab), size=int(rng.integers(1, 5)))), float(rng.uniform(0.1, 1)))
                for _ in range(3)
            )
            contract = rng.uniform(0.5, 1.5, bank.feature_size)
            params = list(bank.parameters().values())

            def loss_fn():
                return weighted_sum(encode_sentence(NBestList(hyps), table, bank), contract)

            worst = max(worst, max_rel_error(loss_fn, params))
        assert worst < 1e-4, f"max relative error {worst}"

    def test_gradients_over_padded_empty_and_repeated_hypotheses(self):
        # Windows of widths 2-4 over hypotheses of 0-6 tokens from a
        # three-word vocabulary: empty and short hypotheses take the padded,
        # masked path and repeated tokens give tied windows.
        rng = np.random.default_rng(8)
        vocab = {t: list(rng.uniform(-1, 1, 3)) for t in ("a", "b", "c")}
        table = tiny_table(vocab)
        worst = 0.0
        for count in range(1, 11):
            bank = ConvFilterBank(3, (2, 3, 4), 2, Initializer(rng))
            hyps = [Hypothesis(tuple(rng.choice(list(vocab), size=int(rng.integers(0, 7)))),
                               float(rng.uniform(0.1, 1))) for _ in range(count)]
            hyps[0] = Hypothesis(("a",) * 5 if count % 2 else (), hyps[0].confidence)
            contract = rng.uniform(0.5, 1.5, bank.feature_size)
            params = list(bank.parameters().values())

            def loss_fn():
                return weighted_sum(encode_sentence(NBestList(tuple(hyps)), table, bank), contract)

            worst = max(worst, max_rel_error(loss_fn, params))
        assert worst < 1e-4, f"max relative error {worst}"


def paper_batch(rng, table_words, lists: int):
    """``lists`` n-best lists of 1-10 hypotheses of 0-12 words, some of them unseen."""
    return [NBestList(tuple(
        Hypothesis(tuple(rng.choice(table_words + ["unseen"], size=int(rng.integers(0, 13)))),
                   float(rng.uniform(0.05, 1)))
        for _ in range(int(rng.integers(1, 11)))
    )) for _ in range(lists)]


class TestBatch:
    """Several n-best lists as one convolution (``encode_sentences``)."""

    def lists(self):
        # Different hypothesis counts and lengths; "a" and "b" occur in two lists, "x", "y" and "z" in one;
        # the second list is shorter than the widest filter.
        return [NBestList((Hypothesis(("a", "b", "c", "a", "d"), 0.5), Hypothesis(("b", "c"), 0.3),
                           Hypothesis((), 0.2))),
                NBestList((Hypothesis(("a",), 1.0),)),
                NBestList((Hypothesis(("x", "b", "y", "z", "x", "y", "z"), 0.6), Hypothesis(("z", "a", "x"), 0.4)))]

    def setup_method(self):
        rng = np.random.default_rng(12)
        self.table = tiny_table({t: list(rng.uniform(-1, 1, 3)) for t in "abcdxyz"})
        self.bank = ConvFilterBank(3, (2, 3, 4), 2, Initializer(rng))
        self.contract = rng.uniform(0.5, 1.5, (3, self.bank.feature_size))

    def loss(self, nbests, contract):
        rows = ag.unstack(encode_sentences(nbests, self.table, self.bank))
        return ag.add_n([weighted_sum(row, weights) for row, weights in zip(rows, contract)])

    def test_filter_gradients_over_several_lists(self):
        def loss_fn():
            return self.loss(self.lists(), self.contract)

        assert max_rel_error(loss_fn, list(self.bank.parameters().values())) < 1e-4

    def test_the_weight_gradient_is_the_sum_of_the_lists_gradients(self):
        params = self.bank.parameters()
        for nbest, weights in zip(self.lists(), self.contract):
            weighted_sum(encode_sentence(nbest, self.table, self.bank), weights).backward()
        alone = {name: tensor.grad.copy() for name, tensor in params.items()}
        for tensor in params.values():
            tensor.grad = None
        self.loss(self.lists(), self.contract).backward()
        for name, tensor in params.items():
            np.testing.assert_allclose(tensor.grad, alone[name], rtol=0, atol=1e-12, err_msg=name)

    def test_a_list_encodes_to_the_same_bits_alone_in_a_batch_and_in_reverse(self):
        # Paper sizes and a training mini-batch of five lists: the union of their words is well under the
        # 100 rows below which OpenBLAS keeps one dgemm kernel (see ``encode_sentences``).
        rng = np.random.default_rng(13)
        words = [f"w{i}" for i in range(30)]
        table = tiny_table({t: list(rng.uniform(-1, 1, 100)) for t in words})
        bank = ConvFilterBank(100, (3, 4, 5), 100, Initializer(rng))
        nbests = paper_batch(rng, words, 5)
        alone = [encode_sentence(nbest, table, bank).data for nbest in nbests]
        batch = encode_sentences(nbests, table, bank).data
        reverse = encode_sentences(nbests[::-1], table, bank).data[::-1]
        for b, vector in enumerate(alone):
            assert batch[b].tobytes() == vector.tobytes() and reverse[b].tobytes() == vector.tobytes(), b

    def test_a_batch_past_100_rows_moves_a_vector_by_rounding_at_most(self):
        # Past about 100 distinct words at paper sizes OpenBLAS may change dgemm kernels, which round
        # some rows apart; the vectors stay within a few units in the last place.
        rng = np.random.default_rng(14)
        words = [f"w{i}" for i in range(300)]
        table = tiny_table({t: list(rng.uniform(-1, 1, 100)) for t in words})
        bank = ConvFilterBank(100, (3, 4, 5), 100, Initializer(rng))
        nbests = paper_batch(rng, words, 20)
        assert len({token for nbest in nbests for token in nbest.distinct}) > 100
        batch = encode_sentences(nbests, table, bank).data
        for nbest, row in zip(nbests, batch):
            np.testing.assert_allclose(row, encode_sentence(nbest, table, bank).data, rtol=0, atol=1e-15)

    def test_a_nan_map_in_one_list_routes_a_nan_gradient(self):
        table = tiny_table({"a": [0.1, 0.2, 0.3], "bad": [0.1, np.nan, 0.3], "x": [0.3, -0.2, 0.5]})
        nbests = [NBestList((Hypothesis(("a", "x", "a"), 1.0),)),
                  NBestList((Hypothesis(("x", "bad", "a", "x"), 0.7), Hypothesis(("x",), 0.3)))]
        out = encode_sentences(nbests, table, self.bank)
        assert np.isfinite(out.data[0]).all() and np.isnan(out.data[1]).all()
        rows = ag.unstack(out)
        ag.add_n([weighted_sum(row, weights) for row, weights in zip(rows, self.contract)]).backward()
        # Every window of the bad hypothesis holds the NaN word, so every map of the second list pools a NaN.
        for name, tensor in self.bank.parameters().items():
            assert np.isnan(tensor.grad).all(), name
