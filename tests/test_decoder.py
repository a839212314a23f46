"""Joint prediction, value prediction, and frame assembly."""

from dataclasses import replace

import numpy as np
import pytest

from nbestslu import decoder
from nbestslu import model as model_mod
from nbestslu.config import RunConfig
from nbestslu.data import collect_system_tokens
from nbestslu.decoder import (
    SemanticFrame,
    SlotValuePrediction,
    decode_turn,
    decode_turns,
    predict_joint,
    predict_value,
    turn_nbest,
)
from nbestslu.embeddings import tokenize
from nbestslu.errors import ConfigError, DomainError
from nbestslu.model import SlotValueModel, StepOneModel
from nbestslu.sentence import Hypothesis, NBestList

from _gradcheck import max_rel_error
from _synth import synthetic_dataset, synthetic_table, synthetic_vocab

TOY = RunConfig(
    model="cnn_lstm_w4",
    embedding_dim=12,
    filter_windows=(2, 3),
    filters_per_window=4,
    hidden_size=8,
    batch_size=10,
    max_epochs=3,
    seed=3,
)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(6, 4, seed=21)


@pytest.fixture(scope="module")
def store():
    return synthetic_table(dim=12)


def build_step1(dataset, store, config=TOY) -> StepOneModel:
    return StepOneModel.build(config, dataset.ontology, collect_system_tokens(dataset.turns), store)


def alone(model, turn):
    """The turn's context state, from its history run alone."""
    return model.encoder.contexts([turn.system_history])[0]


def zero_heads(model: StepOneModel) -> None:
    for pair in model.heads.values():
        for tensor in pair:
            tensor.data[...] = 0.0


class TestPredictJoint:
    def test_zero_weight_heads_give_uniform_distributions(self, dataset, store):
        model = build_step1(dataset, store)
        zero_heads(model)
        turn = dataset.turns[0]
        act_probs, presence = predict_joint(model, turn, turn_nbest(turn), alone(model, turn))
        n_acts = len(dataset.ontology.acts)
        np.testing.assert_allclose(act_probs, np.full(n_acts, 1.0 / n_acts), atol=1e-12)
        for slot in dataset.ontology.slots:
            assert presence[slot] == pytest.approx(0.5, abs=1e-12)

    def test_single_ln2_logit_closed_form(self, dataset, store):
        model = build_step1(dataset, store)
        zero_heads(model)
        # Force the act head to produce logits [0, ln 2, 0, ...].
        model.heads["head.act"][1].data[1] = np.log(2.0)
        turn = dataset.turns[0]
        act_probs, _ = predict_joint(model, turn, turn_nbest(turn), alone(model, turn))
        n_acts = len(dataset.ontology.acts)
        assert act_probs[1] == pytest.approx(2.0 / (n_acts + 1), abs=1e-12)


class TestPredictValue:
    def test_zero_weight_model_gives_uniform_values(self, dataset, store):
        values = dataset.ontology.slot_values("pricerange")
        model = SlotValueModel.build(TOY, dataset.ontology, "pricerange", collect_system_tokens(dataset.turns), store)
        for tensor in model.heads["head.value.pricerange"]:
            tensor.data[...] = 0.0
        turn = dataset.turns[0]
        probs = predict_value(model, turn, turn_nbest(turn), alone(model, turn))
        np.testing.assert_allclose(probs, np.full(len(values), 1.0 / len(values)), atol=1e-12)

    def test_single_value_slots_cannot_build_a_model(self, dataset, store):
        ontology = replace(dataset.ontology, values={**dataset.ontology.values, "area": ("north",)})
        with pytest.raises(ConfigError):
            SlotValueModel.build(TOY, ontology, "area", (), store)


class TestDecodeTurn:
    def test_frame_has_act_only_when_no_slot_crosses_threshold(self, dataset, store):
        model = build_step1(dataset, store)
        zero_heads(model)
        # Presence probability is exactly 0.5 everywhere: no slot detected.
        frame = decode_turn(dataset.turns[0], model, {})
        assert frame.slots == ()
        assert frame.act in dataset.ontology.acts

    def test_confidence_composition_is_a_product(self, dataset, store):
        # Zero weights plus log-probability biases make softmax heads emit
        # exact distributions: P(present) = 0.8 and P(best value) = 0.9,
        # so the decoded item confidence must be 0.72.
        model = build_step1(dataset, store)
        zero_heads(model)
        slot = "pricerange"
        model.heads[f"head.slot.{slot}"][1].data[...] = np.log([0.2, 0.8])
        values = dataset.ontology.slot_values(slot)
        value_model = SlotValueModel.build(TOY, dataset.ontology, slot, collect_system_tokens(dataset.turns), store)
        head = value_model.heads[f"head.value.{slot}"]
        for tensor in head:
            tensor.data[...] = 0.0
        value_probs = [0.9] + [0.1 / (len(values) - 1)] * (len(values) - 1)
        head[1].data[...] = np.log(value_probs)

        frame = decode_turn(dataset.turns[0], model, {slot: value_model})
        found = {s.slot: s for s in frame.slots}
        assert slot in found
        assert found[slot].value == values[0]
        assert found[slot].confidence == pytest.approx(0.72, abs=1e-12)
        with pytest.raises(DomainError):
            SemanticFrame("inform", 0.9, (SlotValuePrediction("a", "v", 0.0),))

    def test_each_call_tokenizes_the_turn_once(self, dataset, store, monkeypatch):
        model = build_step1(dataset, store)
        zero_heads(model)
        slots = [slot for slot in dataset.ontology.slots if len(dataset.ontology.slot_values(slot)) >= 2][:2]
        assert len(slots) == 2
        value_models = {}
        for slot in slots:
            model.heads[f"head.slot.{slot}"][1].data[...] = np.log([0.2, 0.8])
            value_models[slot] = SlotValueModel.build(TOY, dataset.ontology, slot,
                                                      collect_system_tokens(dataset.turns), store)
        tokenized = []

        def counted(text):
            tokenized.append(text)
            return tokenize(text)

        monkeypatch.setattr(decoder, "tokenize", counted)
        turn = dataset.turns[0]
        frame = decode_turn(turn, model, value_models)
        assert {item.slot for item in frame.slots} == set(slots)
        assert tokenized == [h.text for h in turn.nbest]
        # Nothing is kept between calls: the same turn is read again.
        assert decode_turn(turn, model, value_models) == frame
        assert tokenized == [h.text for h in turn.nbest] * 2

    def test_decode_determinism(self, dataset, store):
        model = build_step1(dataset, store)
        frames_a = [decode_turn(t, model, {}, step1_only=True) for t in dataset.turns]
        frames_b = [decode_turn(t, model, {}, step1_only=True) for t in dataset.turns]
        assert frames_a == frames_b

    def test_output_slots_and_values_come_from_the_ontology(self, dataset, store):
        model = build_step1(dataset, store)
        rng = np.random.default_rng(0)
        # Random heads: force some detections.
        for slot in dataset.ontology.slots:
            for tensor in model.heads[f"head.slot.{slot}"]:
                tensor.data[...] = rng.uniform(-2, 2, tensor.shape)
        slot_models = {}
        for slot in dataset.ontology.slots:
            if len(dataset.ontology.slot_values(slot)) >= 2:
                slot_models[slot] = SlotValueModel.build(TOY, dataset.ontology, slot,
                                                         collect_system_tokens(dataset.turns), store)
        for turn in dataset.turns:
            frame = decode_turn(turn, model, slot_models)
            assert frame.act in dataset.ontology.acts
            for item in frame.slots:
                assert item.slot in dataset.ontology.slots
                assert item.value in dataset.ontology.slot_values(item.slot)
                assert 0.0 < item.confidence <= 1.0

    def test_missing_value_model_for_multivalued_slot_is_an_error(self, dataset, store):
        model = build_step1(dataset, store)
        slot = dataset.ontology.slots[0]
        model.heads[f"head.slot.{slot}"][1].data[...] = np.array([-5.0, 5.0])  # force detection
        assert len(dataset.ontology.slot_values(slot)) >= 2
        with pytest.raises(ConfigError):
            decode_turn(dataset.turns[0], model, {})

    def test_a_single_value_slot_takes_its_value_at_the_presence_confidence(self, dataset, store):
        slot = "area"
        ontology = replace(dataset.ontology, values={**dataset.ontology.values, slot: ("north",)})
        model = StepOneModel.build(TOY, ontology, collect_system_tokens(dataset.turns), store)
        zero_heads(model)  # every presence is 0.5: nothing else is detected
        model.heads[f"head.slot.{slot}"][1].data[...] = np.log([0.3, 0.7])
        turn = dataset.turns[0]
        _, presence = predict_joint(model, turn, turn_nbest(turn), alone(model, turn))
        frame = decode_turn(turn, model, {})  # no value model for any slot
        assert frame.slots == (SlotValuePrediction(slot, "north", presence[slot]),)
        assert presence[slot] == pytest.approx(0.7, abs=1e-12)

    def test_step1_only_frames_carry_presence_confidence(self, dataset, store):
        model = build_step1(dataset, store)
        slot = dataset.ontology.slots[0]
        model.heads[f"head.slot.{slot}"][1].data[...] = np.array([-5.0, 5.0])
        frame = decode_turn(dataset.turns[0], model, {}, step1_only=True)
        found = [s for s in frame.slots if s.slot == slot]
        assert found and found[0].value is None and found[0].confidence > 0.98

    def test_cnn_variant_ignores_history(self, dataset, store):
        config = RunConfig(
            model="cnn", embedding_dim=12, filter_windows=(2, 3), filters_per_window=4,
            hidden_size=8, seed=3,
        )
        model = build_step1(dataset, store, config)
        turn = dataset.turns[3]
        assert len(turn.system_history) > 1
        stripped = type(turn)(turn.session, turn.index, turn.nbest, (), turn.reference)
        a = decode_turn(turn, model, {}, step1_only=True)
        b = decode_turn(stripped, model, {}, step1_only=True)
        assert a == b


def detecting_models(dataset, store, config=TOY):
    """A step-one model with random presence heads, so some slots are detected, and every value model."""
    model = build_step1(dataset, store, config)
    rng = np.random.default_rng(4)
    for slot in dataset.ontology.slots:
        for tensor in model.heads[f"head.slot.{slot}"]:
            tensor.data[...] = rng.uniform(-2, 2, tensor.shape)
    slot_models = {
        slot: SlotValueModel.build(config, dataset.ontology, slot, collect_system_tokens(dataset.turns), store)
        for slot in dataset.ontology.slots if len(dataset.ontology.slot_values(slot)) >= 2
    }
    return model, slot_models


def count_runs(monkeypatch) -> list:
    """The ``lengths`` of every context-LSTM run from now on, in call order."""
    runs = []
    run_context_lstm = model_mod.run_context_lstm

    def counted(tokens, table, embeddings, params, lengths):
        runs.append(lengths)
        return run_context_lstm(tokens, table, embeddings, params, lengths)

    monkeypatch.setattr(model_mod, "run_context_lstm", counted)
    return runs


def assert_frames_close(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.act, [(s.slot, s.value) for s in a.slots]) == (b.act, [(s.slot, s.value) for s in b.slots])
        np.testing.assert_allclose([a.act_confidence, *(s.confidence for s in a.slots)],
                                   [b.act_confidence, *(s.confidence for s in b.slots)], rtol=0, atol=1e-12)


class TestDecodeTurns:
    CNN = replace(TOY, model="cnn")

    @pytest.mark.parametrize("config", [TOY, CNN], ids=["cnn_lstm_w4", "cnn"])
    @pytest.mark.parametrize("step1_only", [False, True], ids=["full", "step1_only"])
    def test_a_list_decodes_as_each_turn_alone(self, dataset, store, config, step1_only):
        model, slot_models = detecting_models(dataset, store, config)
        alone = [decode_turn(t, model, slot_models, step1_only=step1_only) for t in dataset.turns]
        assert any(frame.slots for frame in alone)
        assert_frames_close(decode_turns(dataset.turns, model, slot_models, step1_only=step1_only), alone)

    def test_a_turn_decodes_the_same_in_any_list(self, dataset, store, monkeypatch):
        model, slot_models = detecting_models(dataset, store)
        turns = list(dataset.turns)
        whole = decode_turns(turns, model, slot_models)
        order = np.random.default_rng(5).permutation(len(turns))
        shuffled = decode_turns([turns[i] for i in order], model, slot_models)
        assert_frames_close([shuffled[list(order).index(i)] for i in range(len(turns))], whole)
        half = len(turns) // 2
        assert_frames_close(decode_turns(turns[:half], model, slot_models)
                            + decode_turns(turns[half:], model, slot_models), whole)

        runs = count_runs(monkeypatch)
        monkeypatch.setattr(model_mod, "CONTEXT_TOKENS", 12)
        split = decode_turns(turns, model, slot_models)
        assert_frames_close(split, whole)
        assert all(sum(lengths) <= 12 or len(lengths) == 1 for lengths in runs)
        assert len(runs[0]) < len(turns) and sum(len(lengths) for lengths in runs) > len(turns)

    def test_each_model_runs_its_contexts_once(self, dataset, store, monkeypatch):
        model, slot_models = detecting_models(dataset, store)
        runs = count_runs(monkeypatch)
        frames = decode_turns(dataset.turns, model, slot_models)
        detected = {item.slot for frame in frames for item in frame.slots if item.slot in slot_models}
        assert [len(lengths) for lengths in runs] == [len(dataset.turns)] + [
            sum(slot in {item.slot for item in frame.slots} for frame in frames)
            for slot in dataset.ontology.slots if slot in detected]

    def test_an_empty_list_decodes_to_nothing(self, dataset, store):
        model, slot_models = detecting_models(dataset, store)
        assert decode_turns([], model, slot_models) == []

    def test_a_missing_multi_valued_model_is_an_error(self, dataset, store):
        model, slot_models = detecting_models(dataset, store)
        frames = decode_turns(dataset.turns, model, slot_models)
        slot = next(item.slot for frame in frames for item in frame.slots if item.slot in slot_models)
        with pytest.raises(ConfigError):
            decode_turns(dataset.turns, model, {k: v for k, v in slot_models.items() if k != slot})


class TestTurnEncoder:
    def test_nbest_cap_keeps_the_same_hypotheses_in_any_input_order(self, dataset, store):
        model = build_step1(dataset, store)
        assert model.encoder.nbest_cap == 10
        rng = np.random.default_rng(9)
        words = synthetic_vocab()
        hyps = [Hypothesis(tuple(rng.choice(words, size=int(rng.integers(1, 6)))), float(c))
                for c in rng.permutation(np.linspace(0.05, 0.6, 12))]
        history = dataset.turns[3].system_history
        base = model.encoder.encode(NBestList(tuple(hyps)), history).data
        top = NBestList(tuple(sorted(hyps, key=lambda h: -h.confidence)[:10]))
        np.testing.assert_array_equal(model.encoder.encode(top, history).data, base)
        for order in (hyps[::-1], [hyps[int(i)] for i in rng.permutation(12)]):
            np.testing.assert_array_equal(model.encoder.encode(NBestList(tuple(order)), history).data, base)

    def test_a_batchs_sentences_give_each_turn_the_hidden_vector_it_gets_alone(self, dataset, store):
        model = build_step1(dataset, store)
        turns = dataset.turns[:6]
        rng = np.random.default_rng(10)
        # One list past the n-best cap: ``sentences`` truncates it as ``encode`` does.
        long = NBestList(tuple(Hypothesis(tuple(rng.choice(synthetic_vocab(), size=3)), float(c))
                               for c in np.linspace(0.05, 0.6, 12)))
        nbests = [turn_nbest(turn) for turn in turns[:-1]] + [long]
        for turn, nbest, sentence in zip(turns, nbests, model.encoder.sentences(nbests)):
            # The context state of a turn alone: a batch of histories may round it apart (``decoder``).
            (context,) = model.encoder.contexts([turn.system_history])
            alone = model.encoder.encode(nbest, turn.system_history).data
            assert model.encoder.encode(nbest, turn.system_history, context, sentence).data.tobytes() == alone.tobytes()


class TestFullModelGradients:
    @pytest.mark.parametrize("variant", ["cnn", "cnn_lstm_w4", "lstm_all"])
    def test_loss_gradients_for_each_variant(self, dataset, store, variant):
        from nbestslu.autograd import add_n, nll_loss

        config = RunConfig(
            model=variant, embedding_dim=12, filter_windows=(2, 3), filters_per_window=2,
            hidden_size=5, seed=9,
        )
        model = build_step1(dataset, store, config)
        turn = dataset.turns[1]
        nbest = turn_nbest(turn)
        params = model.parameters()

        def loss_fn():
            hidden = model.encoder.encode(nbest, turn.system_history)
            act_probs, slot_probs = model.head_probs(hidden)
            terms = [nll_loss(act_probs, 0)]
            for slot in model.ontology.slots:
                terms.append(nll_loss(slot_probs[slot], 1))
            return add_n(terms)

        rng = np.random.default_rng(11)
        worst = max_rel_error(loss_fn, params.values(), sample=6, rng=rng)
        assert worst < 1e-4, f"{variant}: max relative error {worst}"
