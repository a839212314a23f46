"""Acceptance suite.

Criteria 1-6 are property-based and run on synthetic data in seconds.
Criteria 7-10 reproduce published corpus results and need the public
restaurant-dialogue corpus (and pretrained vectors); they are skipped
unless the environment points at local copies:

    DSTC2_DATA         directory containing the call directories
    DSTC2_TRAIN_FLIST  file list of training calls (train + dev combined)
    DSTC2_TEST_FLIST   file list of test calls
    GLOVE_PATH         pretrained 100-d vector text file

Each criterion prints one pass/fail line; run with ``pytest -s`` to see
them for passing tests too.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nbestslu.autograd import add_n, nll_loss
from nbestslu.config import RunConfig
from nbestslu.data import collect_system_tokens, import_dstc2
from nbestslu.decoder import decode_dataset, decode_turn, turn_nbest
from nbestslu.metrics import (
    FULL,
    STEP1,
    act_item,
    ice,
    item_counts,
    prf1,
    score_frames,
    slot_value_item,
)
from nbestslu.model import StepOneModel
from nbestslu.rng import Initializer
from nbestslu.training import step1_head_accuracies, train_step1, train_step2

from _gradcheck import max_rel_error
from _synth import synthetic_dataset, synthetic_table


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def corpus_env():
    keys = ("DSTC2_DATA", "DSTC2_TRAIN_FLIST", "DSTC2_TEST_FLIST")
    values = {k: os.environ.get(k) for k in keys}
    values["GLOVE_PATH"] = os.environ.get("GLOVE_PATH")
    return values


needs_corpus = pytest.mark.skipif(
    not all(corpus_env()[k] for k in ("DSTC2_DATA", "DSTC2_TRAIN_FLIST", "DSTC2_TEST_FLIST")),
    reason="corpus env vars not set (DSTC2_DATA, DSTC2_TRAIN_FLIST, DSTC2_TEST_FLIST)",
)
needs_vectors = pytest.mark.skipif(
    not corpus_env()["GLOVE_PATH"], reason="GLOVE_PATH not set"
)


# ---------------------------------------------------------------------------
# criterion 1: gradient soundness (primitives and the full context model)
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_soundness():
    with criterion(1, "gradient soundness"):
        rng = np.random.default_rng(2024)
        worst = 0.0

        # Primitives at 20 seeded random points.
        from nbestslu import autograd as ag
        from nbestslu.autograd import Tensor

        for _ in range(20):
            x = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
            w = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
            b = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
            target = int(rng.integers(4))

            def primitive_loss():
                hidden = ag.tanh(ag.affine(x, w, b))
                gated = ag.mul(ag.sigmoid(hidden), hidden)
                probs = ag.softmax(gated)
                return ag.add_n([nll_loss(probs, target), ag.max_pool(gated)[0]])

            worst = max(worst, max_rel_error(primitive_loss, [x, w, b], h=1e-5))

        # Full context model at toy sizes: embedding dim 4, 2 filters per
        # window over windows (3, 4, 5), hidden size 6.
        store = synthetic_table(dim=4, seed=17)
        dataset = synthetic_dataset(4, 4, seed=18)
        tokens = collect_system_tokens(dataset.turns)
        for point in range(20):
            config = RunConfig(
                model="cnn_lstm_w4", embedding_dim=4, filter_windows=(3, 4, 5),
                filters_per_window=2, hidden_size=6, seed=1000 + point,
            )
            model = StepOneModel.build(config, dataset.ontology, tokens, store)
            turn = dataset.turns[point % len(dataset.turns)]
            nbest = turn_nbest(turn)
            act_target = int(rng.integers(len(dataset.ontology.acts)))

            def model_loss():
                hidden = model.encoder.encode(nbest, turn.system_history)
                act_probs, slot_probs = model.head_probs(hidden)
                terms = [nll_loss(act_probs, act_target)]
                for slot in model.ontology.slots:
                    terms.append(nll_loss(slot_probs[slot], 1))
                return add_n(terms)

            worst = max(
                worst,
                max_rel_error(model_loss, model.parameters().values(), h=1e-5, sample=4, rng=rng),
            )
        assert worst < 1e-4, f"max relative error {worst}"


# ---------------------------------------------------------------------------
# criterion 2: metric oracles
# ---------------------------------------------------------------------------

def test_criterion_2_metric_oracles():
    with criterion(2, "metric oracles"):
        # Frozen ICE values, computed by hand from the definition.
        scored = [{act_item("inform"): 1.0, slot_value_item("area", "north"): 1.0}]
        refs = [{act_item("inform"), slot_value_item("area", "north")}]
        assert abs(ice(scored, refs) - 0.0) < 1e-9

        scored = [{slot_value_item("area", "north"): 0.5}]
        refs = [{slot_value_item("area", "north")}]
        assert abs(ice(scored, refs) - math.log(2.0)) < 1e-9

        scored = [{act_item("inform"): 1.0, slot_value_item("food", "thai"): 0.5}]
        refs = [{act_item("inform")}]
        assert abs(ice(scored, refs) - math.log(2.0)) < 1e-9

        # Micro P/R/F1 against a brute-force set-intersection oracle.
        rng = np.random.default_rng(7)
        universe = [("slot", "s", str(v)) for v in range(10)] + [("act", str(a)) for a in range(4)]
        for _ in range(1000):
            preds, refs, tp, fp, fn = [], [], 0, 0, 0
            for _ in range(int(rng.integers(1, 4))):
                pred = {universe[int(i)] for i in rng.choice(len(universe), size=int(rng.integers(0, 5)))}
                ref = {universe[int(i)] for i in rng.choice(len(universe), size=int(rng.integers(0, 5)))}
                preds.append(pred)
                refs.append(ref)
                inter = sum(1 for item in pred if item in ref)
                tp, fp, fn = tp + inter, fp + len(pred) - inter, fn + len(ref) - inter
            counts = item_counts(preds, refs)
            assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
            p = tp / (tp + fp) if tp + fp else 1.0
            r = tp / (tp + fn) if tp + fn else 1.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            assert prf1(counts) == pytest.approx((p, r, f), abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 3: weighted-sum properties of the sentence representation
# ---------------------------------------------------------------------------

def test_criterion_3_weighted_sum_properties():
    with criterion(3, "confidence-weighted sum properties"):
        from nbestslu.sentence import ConvFilterBank, Hypothesis, NBestList, encode_hypothesis, encode_sentence

        rng = np.random.default_rng(31)
        store = synthetic_table(dim=6, seed=32)
        view = store.view()
        view.prepare_runtime_rows((), Initializer(rng))
        bank = ConvFilterBank(6, (2, 3), 4, Initializer(rng))
        words = ["i", "want", "cheap", "food", "north", "the"]

        def random_hyp(conf):
            size = int(rng.integers(1, 6))
            return Hypothesis(tuple(rng.choice(words, size=size)), float(conf))

        # Permutation invariance, bit-exact.
        hyps = tuple(random_hyp(c) for c in (0.4, 0.3, 0.2, 0.1))
        base = encode_sentence(NBestList(hyps), view, bank).data
        for _ in range(10):
            perm = tuple(hyps[int(i)] for i in rng.permutation(4))
            np.testing.assert_array_equal(encode_sentence(NBestList(perm), view, bank).data, base)

        # Single-hypothesis degeneracy, bit-exact.
        single = random_hyp(0.123)
        np.testing.assert_array_equal(
            encode_sentence(NBestList((single,)), view, bank).data,
            encode_hypothesis(single.tokens, view, bank).data,
        )

        # Invariance under uniform rescaling of raw confidences, to 1e-12.
        hyps = tuple(random_hyp(c) for c in (0.5, 0.3, 0.2))
        base = encode_sentence(NBestList(hyps), view, bank).data
        for alpha in (1e-3, 4.0, 2.5e4):
            scaled = tuple(Hypothesis(h.tokens, h.confidence * alpha) for h in hyps)
            out = encode_sentence(NBestList(scaled), view, bank).data
            np.testing.assert_allclose(out, base, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 4: LSTM invariants
# ---------------------------------------------------------------------------

def test_criterion_4_lstm_invariants():
    with criterion(4, "LSTM invariants"):
        from nbestslu.autograd import Tensor, add, affine, matmul, sigmoid
        from nbestslu.context import LstmParams, lstm_step

        rng = np.random.default_rng(41)
        for trial in range(30):
            params = LstmParams(4, 6, Initializer(np.random.default_rng(trial)))
            x = Tensor(rng.uniform(-3, 3, 4))
            h_prev = Tensor(rng.uniform(-0.9, 0.9, 6))
            c_prev = Tensor(rng.uniform(-2, 2, 6))
            # Gate ranges, checked on the raw preactivations.
            for gate in ("i", "f", "o"):
                pre = add(affine(x, params.w[gate], params.b[gate]), matmul(params.u[gate], h_prev))
                value = sigmoid(pre).data
                assert np.all(value > 0) and np.all(value < 1)
            hidden, _ = lstm_step(x, h_prev, c_prev, params)
            assert np.all(np.abs(hidden.data) < 1.0)

        # Forget-gate carry: with forget >= 1 - 1e-6 and input <= 1e-6,
        # |cell - cell_prev| <= 1e-5 * (1 + |cell_prev|).
        for trial in range(10):
            params = LstmParams(3, 5, Initializer(np.random.default_rng(100 + trial)))
            params.b["f"].data[...] = 40.0
            params.b["i"].data[...] = -40.0
            c_prev = rng.uniform(-3, 3, 5)
            x = Tensor(rng.uniform(-1, 1, 3))
            _, cell = lstm_step(x, Tensor(np.zeros(5)), Tensor(c_prev), params)
            assert np.max(np.abs(cell.data - c_prev)) <= 1e-5 * (1 + np.max(np.abs(c_prev)))


# ---------------------------------------------------------------------------
# criterion 5: overfit capacity
# ---------------------------------------------------------------------------

def test_criterion_5_overfit_capacity():
    with criterion(5, "overfit capacity"):
        dataset = synthetic_dataset(10, 5, seed=33)  # 50 turns
        assert len(dataset.turns) == 50
        store = synthetic_table(dim=12)
        config = RunConfig(
            model="cnn_lstm_w4", embedding_dim=12, filter_windows=(2, 3),
            filters_per_window=8, hidden_size=12, batch_size=10, dropout=0.2,
            patience=0, max_epochs=100, seed=5,
        )
        started = time.monotonic()
        model, _ = train_step1(dataset, config, store)
        elapsed = time.monotonic() - started
        accuracies = step1_head_accuracies(model, dataset.turns)
        assert min(accuracies.values()) >= 0.95, accuracies
        assert elapsed < 120.0, f"training took {elapsed:.1f}s"
        print(f"[acceptance]   overfit reached {min(accuracies.values()):.3f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: bit-identical training runs
# ---------------------------------------------------------------------------

def test_criterion_6_training_determinism(tmp_path):
    with criterion(6, "training determinism"):
        from nbestslu.checkpoint import save_checkpoint_dir

        dataset = synthetic_dataset(6, 4, seed=61)
        store = synthetic_table(dim=12)
        config = RunConfig(
            model="cnn_lstm_w1", embedding_dim=12, filter_windows=(2, 3),
            filters_per_window=4, hidden_size=8, batch_size=10, dropout=0.4,
            patience=2, max_epochs=5, seed=62,
        )
        outs = []
        for name in ("a", "b"):
            step1, log1 = train_step1(dataset, config, store)
            value_model, log2 = train_step2(dataset, "pricerange", config, store)
            slot_models = {} if value_model is None else {"pricerange": value_model}
            out = tmp_path / name
            save_checkpoint_dir(out, step1, slot_models, config,
                                train_log={"step1": log1.to_json_dict(),
                                           "pricerange": log2.to_json_dict()})
            outs.append(out)
        names_a = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# criteria 7-10: corpus reproduction (skipped without the public corpus)
# ---------------------------------------------------------------------------

@needs_corpus
def test_criterion_7_import_counts():
    with criterion(7, "corpus import counts"):
        env = corpus_env()
        train = import_dstc2(env["DSTC2_DATA"], env["DSTC2_TRAIN_FLIST"])
        assert train.dialogue_count == 2118, train.dialogue_count
        assert len(train.turns) == 15611, len(train.turns)
        test = import_dstc2(env["DSTC2_DATA"], env["DSTC2_TEST_FLIST"])
        assert test.dialogue_count == 1117, test.dialogue_count
        assert len(test.turns) == 9890, len(test.turns)

        # The walked-through example dialogue, when present in either
        # partition: its first user turn asks for a moderately priced
        # restaurant in the north.
        example = "voip-922209b777-20130325_155209"
        for dataset in (train, test):
            turns = [t for t in dataset.turns if t.session == example]
            if turns:
                first = turns[0].reference
                assert first.act_pattern == "inform"
                assert set(first.pairs) == {("area", "north"), ("pricerange", "moderate")}
                print(f"[acceptance]   example session found with {len(turns)} user turns")
                break


def _corpus_config(variant: str) -> RunConfig:
    return RunConfig(model=variant, embeddings=corpus_env()["GLOVE_PATH"], seed=2016)


@pytest.fixture(scope="module")
def corpus_datasets():
    env = corpus_env()
    train = import_dstc2(env["DSTC2_DATA"], env["DSTC2_TRAIN_FLIST"])
    test = import_dstc2(env["DSTC2_DATA"], env["DSTC2_TEST_FLIST"])
    return train, test


@pytest.fixture(scope="module")
def corpus_store():
    from nbestslu.embeddings import load_vectors

    return load_vectors(corpus_env()["GLOVE_PATH"], expected_dim=100)


@needs_corpus
@needs_vectors
def test_criterion_8_step1_test_f1(corpus_datasets, corpus_store):
    with criterion(8, "step-one test F1"):
        train, test = corpus_datasets
        results = {}
        for variant, published in (("cnn", 87.14), ("cnn_lstm_w4", 87.43)):
            model, _ = train_step1(train, _corpus_config(variant), corpus_store, log_fn=print)
            frames = [decode_turn(t, model, {}, step1_only=True) for t in test.turns]
            report = score_frames(frames, test.turns, model.ontology, STEP1)
            results[variant] = report.f1 * 100
            print(f"[acceptance]   {variant}: F1 {report.f1*100:.2f} (published {published})")
            assert abs(report.f1 * 100 - published) <= 3.0
        # The published ordering is recorded but not asserted (single-run variance).
        ordering = "matches" if results["cnn_lstm_w4"] >= results["cnn"] else "differs from"
        print(f"[acceptance]   context-model ordering {ordering} the published one")


@pytest.fixture(scope="module")
def pipeline_report(corpus_datasets, corpus_store):
    """Train the full two-step pipeline once and score it on the test set."""
    train, test = corpus_datasets
    config = _corpus_config("cnn_lstm_w4")
    step1, _ = train_step1(train, config, corpus_store, log_fn=print)
    slot_models = {}
    for slot in train.ontology.slots:
        model, _ = train_step2(train, slot, config, corpus_store, log_fn=print)
        if model is not None:
            slot_models[slot] = model
    frames = decode_dataset(test, step1, slot_models)
    return score_frames(frames, test.turns, step1.ontology, FULL)


@needs_corpus
@needs_vectors
def test_criterion_9_full_pipeline(pipeline_report):
    with criterion(9, "two-step pipeline F1 and ICE"):
        report = pipeline_report
        print(f"[acceptance]   pipeline F1 {report.f1*100:.2f} (published 83.59), "
              f"ICE {report.ice:.3f} (published 0.758)")
        assert abs(report.f1 * 100 - 83.59) <= 3.0
        assert abs(report.ice - 0.758) <= 0.25


@needs_corpus
@needs_vectors
def test_criterion_10_per_slot_ordering(pipeline_report):
    with criterion(10, "per-slot ordering"):
        published = {"slot": 93.24, "area": 92.74, "food": 74.58, "pricerange": 92.89, "this": 95.33}
        f1s = {slot: scores.f1 * 100 for slot, scores in pipeline_report.per_slot.items()}
        for slot, value in sorted(f1s.items()):
            delta = value - published.get(slot, float("nan"))
            print(f"[acceptance]   slot {slot}: F1 {value:.2f} (published delta {delta:+.2f})")
        assert min(f1s, key=f1s.get) == "food", f1s
        if "this" in f1s:
            assert max(f1s, key=f1s.get) == "this", f1s
