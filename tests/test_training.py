"""Training regime: overfit capacity, loss decomposition, frozen rows, whole runs."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from nbestslu import rng as rng_mod
from nbestslu import training
from nbestslu.autograd import nll_loss
from nbestslu.config import RunConfig
from nbestslu.data import AsrHypothesis, Dataset, ReferenceFrame, SystemAct, Turn, collect_system_tokens, dumps, split_turns
from nbestslu.decoder import decode_turn, predict_value, turn_nbest
from nbestslu.errors import ConfigError, DomainError
from nbestslu.metrics import STEP1, frame_items, item_counts, prf1, reference_items
from nbestslu.model import StepOneModel, TurnEncoder
from nbestslu.ontology import Ontology
from nbestslu.rng import Initializer
from nbestslu.training import cross_validate_step1, step1_head_accuracies, train_run, train_step1, train_step2

from _synth import synthetic_dataset, synthetic_table, synthetic_vocab

OVERFIT = RunConfig(
    model="cnn_lstm_w4",
    embedding_dim=12,
    filter_windows=(2, 3),
    filters_per_window=8,
    hidden_size=12,
    batch_size=10,
    dropout=0.2,
    patience=0,  # keep the final epoch: this is a capacity check
    max_epochs=60,
    seed=5,
)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(10, 5, seed=33)  # 50 turns


@pytest.fixture(scope="module")
def store():
    return synthetic_table(dim=12)


@pytest.fixture(scope="module")
def trained(dataset, store):
    return train_step1(dataset, OVERFIT, store)


class TestStepOneTraining:
    def test_overfits_fifty_turns(self, dataset, trained):
        model, log = trained
        accuracies = step1_head_accuracies(model, dataset.turns)
        assert min(accuracies.values()) >= 0.95, accuracies

    def test_validation_f1_is_that_of_each_turn_decoded_alone(self, dataset, trained):
        model, _ = trained
        turns = dataset.turns[::2]
        frames = [decode_turn(t, model, {}, step1_only=True) for t in turns]
        counts = item_counts([frame_items(f, STEP1) for f in frames],
                             [reference_items(t.reference, STEP1) for t in turns])
        assert counts.tp > 0
        assert training.step1_f1(model, turns) == prf1(counts)[2]

    def test_losses_are_finite_and_decrease(self, trained):
        _, log = trained
        losses = [e["loss"] for e in log.epochs]
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_empty_dataset_rejected(self, dataset, store):
        from nbestslu.data import Dataset
        from nbestslu.ontology import Ontology

        empty = Dataset((), dataset.ontology, {})
        with pytest.raises(DomainError):
            train_step1(empty, OVERFIT, store)

    def test_frozen_hypothesis_rows_are_bit_identical_after_training(self, dataset, store, trained):
        model, _ = trained
        fresh = synthetic_table(dim=12)
        fresh.prepare_runtime_rows((), Initializer(np.random.default_rng(0)))
        vocab = synthetic_vocab()
        np.testing.assert_array_equal(model.encoder.table.hypothesis_rows(vocab), fresh.hypothesis_rows(vocab))

    def test_system_rows_moved_during_training(self, dataset, store, trained):
        model, _ = trained
        view = model.encoder.table
        init_view = store.view()
        # Re-draw the initial block with the same seed stream the model used.
        from nbestslu import rng as rng_mod

        rng = rng_mod.substream(OVERFIT.seed, rng_mod.INIT)
        init_view.prepare_runtime_rows(collect_system_tokens(dataset.turns), Initializer(rng))
        moved = np.abs(view.system_matrix - init_view.system_matrix).max()
        assert moved > 1e-6

    def test_act_only_flag_freezes_slot_heads(self, dataset, store):
        config = RunConfig(
            model="cnn", embedding_dim=12, filter_windows=(2, 3), filters_per_window=4,
            hidden_size=8, batch_size=10, dropout=0.0, patience=0, max_epochs=3, seed=6,
            act_only=True,
        )
        model, _ = train_step1(dataset, config, store)
        fresh = StepOneModel.build(config, dataset.ontology, collect_system_tokens(dataset.turns), store)
        for slot in dataset.ontology.slots:
            name = f"head.slot.{slot}"
            for trained_t, fresh_t in zip(model.heads[name], fresh.heads[name]):
                np.testing.assert_array_equal(trained_t.data, fresh_t.data)
        # The act head did train.
        assert np.abs(model.heads["head.act"][0].data - fresh.heads["head.act"][0].data).max() > 0


class TestGradientBuffers:
    def test_no_parameter_holds_a_gradient_after_training(self, dataset, store, trained):
        # Early stopping on and off, both steps: a trained model must not pin its run's buffers.
        short = replace(OVERFIT, max_epochs=2, patience=1)
        models = [trained[0], train_step1(dataset, short, store)[0], train_step2(dataset, "pricerange", short, store)[0]]
        for model in models:
            assert [name for name, p in model.parameters().items() if p.grad is not None] == []


class TestEarlyStopping:
    def test_best_on_validation_checkpoint_returned(self, dataset, store):
        config = RunConfig(
            model="cnn", embedding_dim=12, filter_windows=(2, 3), filters_per_window=4,
            hidden_size=8, batch_size=10, dropout=0.3, patience=2, max_epochs=40, seed=7,
        )
        model, log = train_step1(dataset, config, store)
        best = max(log.epochs, key=lambda e: e["val_metric"])
        assert log.best_epoch == best["epoch"] or log.best_metric == best["val_metric"]
        assert len(log.epochs) <= config.max_epochs
        stopped_early = any("early stop" in note for note in log.notes)
        assert stopped_early or len(log.epochs) == config.max_epochs

    def test_validation_metric_recorded_each_epoch(self, dataset, store):
        config = RunConfig(
            model="cnn", embedding_dim=12, filter_windows=(2, 3), filters_per_window=4,
            hidden_size=8, batch_size=10, patience=3, max_epochs=4, seed=8,
        )
        _, log = train_step1(dataset, config, store)
        assert all(0.0 <= e["val_metric"] <= 1.0 for e in log.epochs)

    def test_without_validation_the_log_is_strict_json_with_null_metrics(self, store):
        config = RunConfig(
            model="cnn", embedding_dim=12, filter_windows=(2,), filters_per_window=3,
            hidden_size=8, batch_size=10, patience=3, max_epochs=2, seed=8,
        )
        _, log = train_step1(synthetic_dataset(1, 4, seed=2), config, store)
        doc = json.loads(dumps(log.to_json_dict()), parse_constant=lambda name: pytest.fail(name))
        assert doc["best_metric"] is None and [e["val_metric"] for e in doc["epochs"]] == [None, None]
        with pytest.raises(ValueError):
            dumps({"best_metric": float("nan")})


def single_area_dataset() -> Dataset:
    """Four one-turn dialogues where "area" only ever takes one value."""
    turns = tuple(
        Turn(f"s{d}", 0, (AsrHypothesis("north please", 1.0),), ((SystemAct("welcomemsg"),),),
             ReferenceFrame("inform", (("area", "north"),)))
        for d in range(4)
    )
    return Dataset(turns, Ontology.derive(turns, 14), {})


class TestStepTwoTraining:
    def test_pricerange_overfit_on_twenty_turns(self, store):
        value_ds = synthetic_dataset(18, 5, seed=34)
        turns = [t for t in value_ds.turns if any(s == "pricerange" for s, _ in t.reference.pairs)]
        assert len(turns) >= 20
        model, _ = train_step2(value_ds, "pricerange", OVERFIT, store)
        assert model is not None
        hits = 0
        for t in turns:
            probs = predict_value(model, t, turn_nbest(t), model.encoder.contexts([t.system_history])[0])
            predicted = model.values[int(np.argmax(probs))]
            reference = next(v for s, v in t.reference.pairs if s == "pricerange")
            hits += predicted == reference
        assert hits / len(turns) >= 0.95

    def test_validation_accuracy_is_that_of_each_turn_decoded_alone(self, dataset, store):
        config = replace(SMALL, validation_fraction=0.3, max_epochs=6)
        model, log = train_step2(dataset, "pricerange", config, store)
        turns = [t for t in dataset.turns if any(s == "pricerange" for s, _ in t.reference.pairs)]
        _, val = split_turns(turns, config.validation_fraction, config.seed,
                             extra=(dataset.ontology.slots.index("pricerange") + 1,))
        alone = [predict_value(model, t, turn_nbest(t), model.encoder.contexts([t.system_history])[0]) for t in val]
        hits = sum(model.values[int(np.argmax(probs))] == next(v for s, v in t.reference.pairs if s == "pricerange")
                   for t, probs in zip(val, alone))
        assert 0 < hits < len(val)
        assert log.epochs[-1]["val_metric"] == hits / len(val)

    def test_value_inventory_from_training_annotations(self, dataset, store):
        model, _ = train_step2(dataset, "pricerange", OVERFIT, store)
        assert set(model.values) <= {"cheap", "moderate", "expensive"}
        assert len(model.values) >= 2

    def test_single_value_slot_skipped_with_notice(self, store):
        model, log = train_step2(single_area_dataset(), "area", OVERFIT, store)
        assert model is None
        assert any("skipped" in note for note in log.notes)

    def test_unknown_slot_rejected(self, dataset, store):
        with pytest.raises(DomainError):
            train_step2(dataset, "starsign", OVERFIT, store)


class TestCrossValidation:
    @pytest.mark.parametrize("k", [0, 1])
    def test_an_explicit_fold_count_below_two_is_refused(self, dataset, store, k):
        with pytest.raises(ConfigError, match=f"got {k}"):
            cross_validate_step1(dataset, replace(OVERFIT, max_epochs=1, cv_folds=k), store, log_fn=None)


class TestDeterminism:
    def test_same_seed_same_parameters(self, dataset, store):
        config = RunConfig(
            model="cnn_lstm_w1", embedding_dim=12, filter_windows=(2, 3), filters_per_window=4,
            hidden_size=8, batch_size=10, dropout=0.4, patience=2, max_epochs=6, seed=11,
        )
        model_a, log_a = train_step1(dataset, config, store)
        model_b, log_b = train_step1(dataset, config, store)
        params_a = model_a.parameters()
        params_b = model_b.parameters()
        assert params_a.keys() == params_b.keys()
        for name in params_a:
            np.testing.assert_array_equal(params_a[name].data, params_b[name].data)
        assert log_a.epochs == log_b.epochs


SMALL = RunConfig(
    model="cnn_lstm_w4", embedding_dim=12, filter_windows=(2,), filters_per_window=4, hidden_size=5,
    batch_size=4, dropout=0.3, patience=0, max_epochs=2, seed=9,
)


def act_examples(model, turns):
    ontology = model.ontology
    return [(t, ontology.act_index(ontology.act_label(t.reference.act_pattern))) for t in turns]


def act_loss(model, hidden, target):
    return nll_loss(model.head_probs(hidden)[0], target)


def tape_nodes(out):
    """Every recorded node that ``out``'s backward would replay."""
    seen, frontier = {id(out): out}, [out]
    while frontier:
        for parent in frontier.pop()._parents:
            if parent._backprop is not None and id(parent) not in seen:
                seen[id(parent)] = parent
                frontier.append(parent)
    return list(seen.values())


class TestMiniBatches:
    """``_run_epochs`` runs the context LSTM, dropout, the loss and backward once per mini-batch."""

    def test_dropout_draws_follow_the_examples_in_shuffled_order(self, dataset, store, monkeypatch):
        model = StepOneModel.build(SMALL, dataset.ontology, collect_system_tokens(dataset.turns), store)
        turns = dataset.turns[:11]  # mini-batches of 4, 4 and 3
        encoded, dropped = [], []
        encode, apply = TurnEncoder.encode, training.dropout_apply

        def recording_encode(encoder, nbest, history, context=None, sentence=None):
            encoded.append((history, encode(encoder, nbest, history, context, sentence)))
            return encoded[-1][1]

        def recording_dropout(t, rate, rng):
            drawn = copy.deepcopy(rng).random(t.shape) >= rate
            dropped.append((t._parents, drawn))
            return apply(t, rate, rng)

        monkeypatch.setattr(TurnEncoder, "encode", recording_encode)
        monkeypatch.setattr(training, "dropout_apply", recording_dropout)
        training._run_epochs(model=model, examples=act_examples(model, turns), loss_fn=act_loss,
                             val_metric_fn=None, log_fn=None, log=training.TrainLog())

        shuffle = rng_mod.substream(SMALL.seed, rng_mod.SHUFFLE)
        order = [j for _ in range(SMALL.max_epochs) for j in shuffle.permutation(len(turns))]
        assert len(encoded) == len(order)
        assert all(history is turns[j].system_history for (history, _), j in zip(encoded, order))
        # One mask per mini-batch, over the rows stacked from its examples' hidden vectors in shuffled order.
        sizes = [4, 4, 3] * SMALL.max_epochs
        assert [len(parts) for parts, _ in dropped] == [len(drawn) for _, drawn in dropped] == sizes
        rows = [row for parts, _ in dropped for row in parts]
        assert len(rows) == len(encoded) and all(row is hidden for row, (_, hidden) in zip(rows, encoded))
        # Row b of a mask is the draw the example at that position takes alone.
        direct = rng_mod.substream(SMALL.seed, rng_mod.DROPOUT)
        for row, (_, hidden) in zip((row for _, drawn in dropped for row in drawn), encoded):
            np.testing.assert_array_equal(row, direct.random(hidden.shape) >= SMALL.dropout)

    def test_one_mini_batch_frees_its_graph_and_sums_the_examples_gradients(self, dataset, store, monkeypatch):
        config = replace(SMALL, dropout=0.0, max_epochs=1, batch_size=6)
        tokens = collect_system_tokens(dataset.turns)
        model = StepOneModel.build(config, dataset.ontology, tokens, store)
        examples = act_examples(model, dataset.turns[:6])
        graphs, stepped = [], []

        def recording_loss(model, hidden, targets):
            out = act_loss(model, hidden, targets)
            graphs.append(tape_nodes(out))
            return out

        class RecordingAdadelta(training.Adadelta):
            def step(self, batch_size=1):
                stepped.append({name: p.grad.copy() for name, p in model.parameters().items()})
                super().step(batch_size)

        monkeypatch.setattr(training, "Adadelta", RecordingAdadelta)
        training._run_epochs(model=model, examples=examples, loss_fn=recording_loss, val_metric_fn=None,
                             log_fn=None, log=training.TrainLog())
        assert len(graphs) == len(stepped) == 1
        assert graphs[0] and all(node._backprop is None and not node._parents for node in graphs[0])

        # The same initial model, one backward per example, each a batch of one for the context LSTM.
        reference = StepOneModel.build(config, dataset.ontology, tokens, store)
        for turn, target in examples:
            act_loss(reference, reference.encoder.encode(turn_nbest(turn), turn.system_history), target).backward()
        for name, p in reference.parameters().items():
            expected = np.zeros(p.shape) if p.grad is None else p.grad
            np.testing.assert_allclose(stepped[0][name], expected, rtol=0, atol=1e-12, err_msg=name)


def epoch_lines(log: dict) -> list[str]:
    """The lines a run's ``log_fn`` receives for the epochs of one logged model."""
    return [f"epoch {e['epoch']}: loss {e['loss']:.4f} val "
            + ("n/a" if e["val_metric"] is None else f"{e['val_metric']:.4f}") for e in log["epochs"]]


class TestRun:
    """``train_run`` is step one, then ``train_step2`` per slot in ontology order, with the logs of both."""

    @pytest.fixture(scope="class")
    def run(self, dataset, store):
        lines = []
        return train_run(dataset, SMALL, store, step1_only=False, log_fn=lines.append), lines

    def test_the_logs_and_models_are_those_of_each_step_trained_directly(self, dataset, store, run):
        (step1, slot_models, logs), _ = run
        direct, log1 = train_step1(dataset, SMALL, store)
        expected, models = {"step1": log1.to_json_dict(), "slots": {}}, {}
        for slot in dataset.ontology.slots:
            model, log = train_step2(dataset, slot, SMALL, store)
            expected["slots"][slot] = log.to_json_dict()
            if model is not None:
                models[slot] = model
        assert logs == expected
        assert json.loads(dumps(logs)) == expected
        assert list(slot_models) == list(models) == list(dataset.ontology.slots)
        for trained, reference in [(step1, direct), *((slot_models[s], models[s]) for s in models)]:
            for name, p in reference.parameters().items():
                np.testing.assert_array_equal(trained.parameters()[name].data, p.data, err_msg=name)

    def test_step1_only_trains_no_value_model(self, dataset, store):
        config = replace(SMALL, max_epochs=1)
        _, slot_models, logs = train_run(dataset, config, store, step1_only=True)
        assert slot_models == {} and logs["slots"] == {}
        assert logs["step1"] == train_step1(dataset, config, store)[1].to_json_dict()

    def test_a_single_valued_slot_keeps_its_skip_note_and_has_no_model(self, store):
        lines = []
        _, slot_models, logs = train_run(single_area_dataset(), replace(SMALL, max_epochs=1), store,
                                         log_fn=lines.append)
        note = "slot 'area' has a single observed value; value model skipped"
        assert slot_models == {}
        assert list(logs["slots"]) == ["area"] and logs["slots"]["area"]["notes"] == [note]
        assert lines[-2:] == ["training value model for slot 'area'", note]

    def test_log_lines_come_step_one_first_then_each_slot_announced(self, dataset, run):
        (_, _, logs), lines = run
        expected = epoch_lines(logs["step1"])
        for slot in dataset.ontology.slots:
            expected += [f"training value model for slot {slot!r}", *epoch_lines(logs["slots"][slot])]
        assert lines == expected
        slots = len(dataset.ontology.slots)
        assert len(lines) == SMALL.max_epochs * (1 + slots) + slots
