"""Checkpoint containers: bit-exact round trips, compatibility checks and in-place parameter writes."""

import json
from dataclasses import replace

import numpy as np
import pytest

from nbestslu.checkpoint import (
    MAGIC,
    SLOT_KIND,
    STEP1_KIND,
    load_checkpoint_dir,
    load_container,
    load_model,
    ontology_hash,
    save_checkpoint_dir,
    save_container,
    save_model,
    slot_file,
)
from nbestslu.config import RunConfig, config_hash
from nbestslu.context import LSTM_GATES
from nbestslu.data import collect_system_tokens
from nbestslu.decoder import decode_turns
from nbestslu.errors import ConfigError, DataFormatError
from nbestslu.model import SlotValueModel, StepOneModel
from nbestslu.training import train_step1

from _synth import synthetic_dataset, synthetic_table

CFG = RunConfig(
    model="cnn_lstm_w4", embedding_dim=12, filter_windows=(2, 3), filters_per_window=4,
    hidden_size=8, batch_size=10, max_epochs=2, seed=13,
)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(5, 4, seed=40)


@pytest.fixture(scope="module")
def store():
    return synthetic_table(dim=12)


def fresh_step1(dataset, store, config=CFG):
    model = StepOneModel.build(config, dataset.ontology, collect_system_tokens(dataset.turns), store)
    rng = np.random.default_rng(99)
    for tensor in model.parameters().values():
        tensor.data += rng.uniform(-0.05, 0.05, tensor.shape)  # make values non-initial
    return model


def test_ontology_hash_is_pinned():
    # Every checkpoint and frames header records this value.
    assert ontology_hash(synthetic_dataset(4, 4, seed=18).ontology) == (
        "ad9b552c4dbff72e1bcda2454953030d14a7460dc3c95ff25b66d76216e076ad"
    )


def _framed(header) -> bytes:
    payload = header if isinstance(header, bytes) else json.dumps(header).encode()
    return MAGIC + f"{len(payload)}\n".encode() + payload + b"\n"


_ENTRY = {"kind": "step1", "meta": {}}

# Files that must be refused with a DataFormatError and nothing else.
CORRUPT = [
    b"hello world\n",
    MAGIC + b"12",  # header length without its newline
    MAGIC + b"-3\n{}\n",
    MAGIC + b"x\n{}\n",
    MAGIC + b"2\n{}\n",  # header object without params
    _framed(b"\xff\xfe"),
    _framed([1, 2]),
    _framed("step1"),
    _framed({"meta": {}, "params": []}),
    _framed({"kind": "step1", "params": []}),
    _framed({"kind": 3, "meta": {}, "params": []}),
    _framed({"kind": "step1", "meta": [], "params": []}),
    _framed({**_ENTRY, "params": {"w": [2]}}),
    _framed({**_ENTRY, "params": ["w"]}),
    _framed({**_ENTRY, "params": [{"shape": [2]}]}),
    _framed({**_ENTRY, "params": [{"name": "w"}]}),
    _framed({**_ENTRY, "params": [{"name": 5, "shape": [2]}]}),
    _framed({**_ENTRY, "params": [{"name": "w", "shape": 2}]}),
    _framed({**_ENTRY, "params": [{"name": "w", "shape": [-2]}]}),
    _framed({**_ENTRY, "params": [{"name": "w", "shape": [2.5]}]}),
    _framed({**_ENTRY, "params": [{"name": "w", "shape": ["2"]}]}),
    _framed({**_ENTRY, "params": [{"name": "w", "shape": [True]}]}),
    _framed({**_ENTRY, "params": [{"name": "w", "shape": [2**62, 2**62]}]}),
    _framed({**_ENTRY, "params": [{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}]})
    + b"\0" * 16,
]


class TestContainer:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        params = {
            "a.w": rng.uniform(-1, 1, (3, 4)),
            "a.b": rng.uniform(-1, 1, 3),
            "scalar": np.asarray(rng.uniform()),
        }
        path = tmp_path / "m.ckpt"
        save_container(path, "step1", params, {"seed": 1})
        kind, loaded, meta = load_container(path)
        assert kind == "step1" and meta == {"seed": 1}
        assert set(loaded) == set(params)
        for name in params:
            assert loaded[name].shape == params[name].shape
            assert loaded[name].tobytes() == params[name].tobytes()

    def test_identical_params_identical_bytes(self, tmp_path):
        params = {"w": np.linspace(0, 1, 10)}
        save_container(tmp_path / "a.ckpt", "step1", params, {"seed": 2})
        save_container(tmp_path / "b.ckpt", "step1", params, {"seed": 2})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk"
        for blob in CORRUPT:
            path.write_bytes(blob)
            with pytest.raises(DataFormatError):
                load_container(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_container(path, "step1", {"w": np.ones(8)}, {})
        blob = path.read_bytes()
        for damaged, word in ((blob[:-16], "truncated"), (blob + bytes(8), "trailing")):
            path.write_bytes(damaged)
            with pytest.raises(DataFormatError, match=word):
                load_container(path)


class TestModelRoundTrip:
    def test_step1_round_trip(self, tmp_path, dataset, store):
        model = fresh_step1(dataset, store)
        path = tmp_path / "step1.ckpt"
        save_model(model, path)
        loaded = load_model(path, store, STEP1_KIND)
        assert loaded.ontology == model.ontology
        for name, tensor in model.parameters().items():
            assert loaded.parameters()[name].data.tobytes() == tensor.data.tobytes()

    def test_slot_model_round_trip(self, tmp_path, dataset, store):
        model = SlotValueModel.build(CFG, dataset.ontology, "pricerange", collect_system_tokens(dataset.turns), store)
        path = tmp_path / "slot.ckpt"
        save_model(model, path)
        loaded = load_model(path, store, SLOT_KIND)
        assert loaded.slot == "pricerange" and loaded.values == model.values
        assert loaded.ontology == dataset.ontology
        for name, tensor in model.parameters().items():
            assert loaded.parameters()[name].data.tobytes() == tensor.data.tobytes()

    def test_wrong_store_rejected(self, tmp_path, dataset, store):
        model = fresh_step1(dataset, store)
        path = tmp_path / "step1.ckpt"
        save_model(model, path)
        other_store = synthetic_table(dim=12, seed=999)
        with pytest.raises(ConfigError):
            load_model(path, other_store, STEP1_KIND)

    def test_wrong_kind_rejected(self, tmp_path, dataset, store):
        path = tmp_path / "step1.ckpt"
        save_model(fresh_step1(dataset, store), path)
        with pytest.raises(DataFormatError):
            load_model(path, store, SLOT_KIND)

    @pytest.mark.parametrize("kind, key, value", [
        (STEP1_KIND, "config_text", 5),
        (STEP1_KIND, "ontology", [1]),
        (STEP1_KIND, "ontology", {"acts": 3, "act_priority": [], "slots": [], "values": {}}),
        (STEP1_KIND, "ontology", {"acts": ["inform"], "act_priority": [], "slots": [], "values": {},
                                  "max_patterns": "x"}),
        # The module dataset's 3 acts and 4 slots, with no values for "area": the heads still fit.
        (STEP1_KIND, "ontology", {"acts": ["a", "b", "c"], "act_priority": [],
                                  "slots": ["area", "food", "pricerange", "slot"],
                                  "values": {"food": ["x"], "pricerange": ["x"], "slot": ["x"]}}),
        (STEP1_KIND, "ontology", {"acts": ["inform"], "act_priority": [], "slots": [], "values": {},
                                  "max_patterns": True}),
        (STEP1_KIND, "ontology", {"acts": ["inform"], "act_priority": [], "slots": [], "values": {},
                                  "max_patterns": 0}),
        (STEP1_KIND, "ontology", {"acts": [], "act_priority": [], "slots": [], "values": {}}),
        (STEP1_KIND, "store_fingerprint", None),
        (STEP1_KIND, "system_tokens", 7),
        (STEP1_KIND, "system_tokens", ["a", 1]),
        (SLOT_KIND, "config_text", ["seed = 1"]),
        (SLOT_KIND, "store_fingerprint", 0),
        (SLOT_KIND, "slot", 3),
        (SLOT_KIND, "slot", "nowhere"),
    ], ids=["config-text", "ontology-list", "ontology-acts", "ontology-max-patterns", "ontology-slot-without-values",
            "ontology-max-patterns-true", "ontology-max-patterns-zero", "ontology-no-acts", "store-fingerprint",
            "system-tokens", "system-token-int", "slot-config-text", "slot-store-fingerprint", "slot-type",
            "slot-outside-ontology"])
    def test_mistyped_meta_is_a_format_error(self, tmp_path, dataset, store, kind, key, value):
        path = tmp_path / "model.ckpt"
        model = fresh_step1(dataset, store) if kind == STEP1_KIND else SlotValueModel.build(
            CFG, dataset.ontology, "pricerange", collect_system_tokens(dataset.turns), store)
        save_model(model, path)
        _, params, meta = load_container(path)
        save_container(path, kind, params, {**meta, key: value})
        with pytest.raises(DataFormatError):
            load_model(path, store, kind)

    def test_meta_without_a_key_is_a_format_error(self, tmp_path, dataset, store):
        path = tmp_path / "step1.ckpt"
        save_model(fresh_step1(dataset, store), path)
        kind, params, meta = load_container(path)
        del meta["config_text"]
        save_container(path, kind, params, meta)
        with pytest.raises(DataFormatError):
            load_model(path, store, STEP1_KIND)

    def test_another_hypothesis_oov_row_is_a_config_error(self, tmp_path, dataset, store):
        # The row is redrawn from the stored seed, so a stored row that differs means another store or seed.
        path = tmp_path / "step1.ckpt"
        save_model(fresh_step1(dataset, store), path)
        kind, params, meta = load_container(path)
        params["embed.hyp_oov"] = params["embed.hyp_oov"] + 0.5
        save_container(path, kind, params, meta)
        with pytest.raises(ConfigError, match="different embedding store or seed"):
            load_model(path, store, STEP1_KIND)

    def test_a_stored_shape_mismatch_is_a_format_error_naming_it(self, tmp_path, dataset, store):
        path = tmp_path / "step1.ckpt"
        save_model(fresh_step1(dataset, store), path)
        kind, params, meta = load_container(path)
        params["head.act.b"] = np.zeros(len(params["head.act.b"]) + 1)
        save_container(path, kind, params, meta)
        with pytest.raises(DataFormatError, match="parameter head.act.b has shape"):
            load_model(path, store, STEP1_KIND)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["head.act.w", "lstm.w_f", "embed.hyp_oov"])
    def test_non_finite_parameter_is_a_format_error_naming_it(self, tmp_path, dataset, store, name, value):
        path = tmp_path / "step1.ckpt"
        save_model(fresh_step1(dataset, store), path)
        kind, params, meta = load_container(path)
        params[name].flat[-1] = value
        save_container(path, kind, params, meta)
        with pytest.raises(DataFormatError) as err:
            load_model(path, store, STEP1_KIND)
        assert str(path) in str(err.value) and f"parameter {name} " in str(err.value)


# The v1 contract: the entries of a step-one checkpoint, in file order, at toy
# dims (12-d vectors, windows 2 and 3 with 4 maps each, hidden size 5) on the
# module's dataset (3 acts, 4 slots, 11 system tokens).
CONV = [("conv.w2", (24, 4)), ("conv.b2", (4,)), ("conv.w3", (36, 4)), ("conv.b3", (4,))]
LSTM = [(f"lstm.{kind}_{gate}", shape) for gate in "ifou"
        for kind, shape in (("w", (5, 12)), ("u", (5, 5)), ("b", (5,)))]
SYSTEM = [("embed.system", (12, 12))]
OOV = [("embed.hyp_oov", (12,))]


def heads(width):
    return [("head.act.w", (3, width)), ("head.act.b", (3,))] + [
        entry for slot in ("area", "food", "pricerange", "slot")
        for entry in ((f"head.slot.{slot}.w", (2, width)), (f"head.slot.{slot}.b", (2,)))
    ]


TANH = CONV + LSTM + [("comb.ws", (5, 8)), ("comb.wc", (5, 5))] + SYSTEM + heads(5) + OOV
STEP1_ENTRIES = {
    "cnn": CONV + heads(8) + OOV,
    "cnn_lstm_w1": TANH,
    "cnn_lstm_w4": TANH,
    "cnn_lstm_w": TANH,
    "lstm_all": CONV + LSTM + [("comb.p", (12, 8))] + SYSTEM + heads(5) + OOV,
}


@pytest.mark.parametrize("variant", list(STEP1_ENTRIES))
def test_step1_entry_names_and_shapes_are_pinned(tmp_path, dataset, store, variant):
    path = tmp_path / "step1.ckpt"
    config = replace(CFG, model=variant, hidden_size=5)
    save_model(StepOneModel.build(config, dataset.ontology, collect_system_tokens(dataset.turns), store), path)
    _, params, _ = load_container(path)
    assert [(name, array.shape) for name, array in params.items()] == STEP1_ENTRIES[variant]


class TestCheckpointDir:
    def test_directory_round_trip(self, tmp_path, dataset, store):
        step1 = fresh_step1(dataset, store)
        slot_model = SlotValueModel.build(CFG, dataset.ontology, "pricerange",
                                          collect_system_tokens(dataset.turns), store)
        out = tmp_path / "ckpt"
        save_checkpoint_dir(out, step1, {"pricerange": slot_model}, CFG, train_log={"note": "test"})
        loaded_step1, loaded_slots, loaded_cfg = load_checkpoint_dir(out, store)
        assert loaded_cfg == CFG
        assert set(loaded_slots) == {"pricerange"}
        for name, tensor in step1.parameters().items():
            assert loaded_step1.parameters()[name].data.tobytes() == tensor.data.tobytes()

    def test_a_slot_file_holding_another_slots_model_is_refused(self, tmp_path, dataset, store):
        slots = [s for s in dataset.ontology.slots if len(dataset.ontology.slot_values(s)) >= 2][:2]
        assert len(slots) == 2
        models = {
            slot: SlotValueModel.build(CFG, dataset.ontology, slot, collect_system_tokens(dataset.turns), store)
            for slot in slots
        }
        out = tmp_path / "ckpt"
        save_checkpoint_dir(out, fresh_step1(dataset, store), models, CFG)
        first, second = (out / slot_file(slot) for slot in slots)
        first_bytes = first.read_bytes()
        first.write_bytes(second.read_bytes())
        second.write_bytes(first_bytes)
        with pytest.raises(DataFormatError, match=slot_file(slots[0])):
            load_checkpoint_dir(out, store)

    def test_a_slot_model_trained_against_another_ontology_is_refused(self, tmp_path, dataset, store):
        slot = "pricerange"
        tokens = collect_system_tokens(dataset.turns)
        model = SlotValueModel.build(CFG, dataset.ontology, slot, tokens, store)
        out = tmp_path / "ckpt"
        save_checkpoint_dir(out, fresh_step1(dataset, store), {slot: model}, CFG)
        other = synthetic_dataset(3, 3, seed=77).ontology
        assert ontology_hash(other) != ontology_hash(dataset.ontology)
        save_model(SlotValueModel.build(CFG, other, slot, tokens, store), out / slot_file(slot))
        with pytest.raises(ConfigError, match="trained against a different ontology"):
            load_checkpoint_dir(out, store)

    def test_mismatched_ontology_rejected(self, tmp_path, dataset, store):
        step1 = fresh_step1(dataset, store)
        out = tmp_path / "ckpt"
        save_checkpoint_dir(out, step1, {}, CFG)
        # Overwrite the ontology file with a different one.
        other = synthetic_dataset(3, 3, seed=77).subset(["synth-000"], "one dialogue").ontology
        (out / "ontology.json").write_text(json.dumps(other.to_json_dict()), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_checkpoint_dir(out, store)

    @pytest.mark.parametrize("blob", [b"\xff", b"{", b"[1]", b'{"acts": 3, "values": {}}'],
                             ids=["not-utf8", "bad-json", "list", "acts-number"])
    def test_corrupt_ontology_file_is_a_format_error(self, tmp_path, dataset, store, blob):
        out = tmp_path / "ckpt"
        save_checkpoint_dir(out, fresh_step1(dataset, store), {}, CFG)
        (out / "ontology.json").write_bytes(blob)
        with pytest.raises(DataFormatError):
            load_checkpoint_dir(out, store)

    def test_a_directory_with_the_earlier_derived_meta_keys_loads_to_the_same_models(self, tmp_path, dataset, store):
        # Files written before the meta lost seed, config_hash, ontology_hash, slot_position and values.
        ontology, rng = dataset.ontology, np.random.default_rng(5)
        slots = [slot for slot in ontology.slots if len(ontology.slot_values(slot)) >= 2]
        models = {slot: SlotValueModel.build(CFG, ontology, slot, collect_system_tokens(dataset.turns), store)
                  for slot in slots}
        for model in models.values():
            for tensor in model.parameters().values():
                tensor.data += rng.uniform(-1, 1, tensor.shape)
        new, old = tmp_path / "new", tmp_path / "old"
        for out in (new, old):
            save_checkpoint_dir(out, fresh_step1(dataset, store), models, CFG)
        for path in old.glob("*.ckpt"):
            kind, params, meta = load_container(path)
            meta.update(seed=CFG.seed, config_hash=config_hash(CFG), ontology_hash=ontology_hash(ontology))
            if kind == SLOT_KIND:
                meta.update(slot_position=ontology.slots.index(meta["slot"]),
                            values=list(ontology.slot_values(meta["slot"])))
            save_container(path, kind, params, meta)
        (step1, slot_models, config), (old_step1, old_slot_models, old_config) = (
            load_checkpoint_dir(out, store) for out in (new, old))
        assert old_config == config and list(old_slot_models) == list(slot_models) == slots
        for model, old_model in zip([step1, *slot_models.values()], [old_step1, *old_slot_models.values()]):
            assert old_model.ontology == model.ontology
            for name, tensor in model.parameters().items():
                assert old_model.parameters()[name].data.tobytes() == tensor.data.tobytes()
        for step1_only in (False, True):
            frames = decode_turns(dataset.turns, step1, slot_models, step1_only=step1_only)
            assert decode_turns(dataset.turns, old_step1, old_slot_models, step1_only=step1_only) == frames
            # A full decode reaches the value models.
            assert any(item.value is not None for frame in frames for item in frame.slots) is not step1_only

    def test_a_checkpoint_meta_holds_only_what_cannot_be_derived(self, tmp_path, dataset, store):
        model = SlotValueModel.build(CFG, dataset.ontology, "pricerange", collect_system_tokens(dataset.turns), store)
        out = tmp_path / "ckpt"
        save_checkpoint_dir(out, fresh_step1(dataset, store), {"pricerange": model}, CFG)
        common = {"config_text", "ontology", "store_fingerprint", "system_tokens"}
        assert set(load_container(out / "step1.ckpt")[2]) == common
        assert set(load_container(out / slot_file("pricerange"))[2]) == common | {"slot"}


def _reloaded(tmp_path, dataset, store):
    # Models with non-initial values, and what a checkpoint directory saved from them loads back.
    ontology, rng = dataset.ontology, np.random.default_rng(6)
    slots = {slot: SlotValueModel.build(CFG, ontology, slot, collect_system_tokens(dataset.turns), store)
             for slot in ontology.slots if len(ontology.slot_values(slot)) >= 2}
    for model in slots.values():
        for tensor in model.parameters().values():
            tensor.data += rng.uniform(-1, 1, tensor.shape)
    step1 = fresh_step1(dataset, store)
    save_checkpoint_dir(tmp_path, step1, slots, CFG)
    loaded_step1, loaded_slots, _ = load_checkpoint_dir(tmp_path, store)
    return (step1, slots), (loaded_step1, loaded_slots)


def _restored(tmp_path, dataset, store):
    # A model trained to its best epoch directly, and one that early stopping restored to that epoch.
    config = replace(CFG, seed=4, patience=1, max_epochs=3)
    restored, log = train_step1(dataset, config, store)
    assert log.best_epoch < len(log.epochs)
    direct, _ = train_step1(dataset, replace(config, patience=0, max_epochs=log.best_epoch), store)
    return (direct, {}), (restored, {})


@pytest.mark.parametrize("write", [_reloaded, _restored], ids=["checkpoint", "best-epoch"])
def test_written_models_decode_as_the_models_they_copy_and_keep_their_shared_blocks(tmp_path, dataset, store, write):
    # ``load_arrays`` must write in place: a rebound gate tensor leaves the LSTM, which reads
    # ``LstmParams.stacked``, on its old values, and a rebound ``embed.system`` leaves the table.
    (step1, slots), (written, written_slots) = write(tmp_path, dataset, store)
    assert decode_turns(dataset.turns, written, written_slots, step1_only=not slots) == decode_turns(
        dataset.turns, step1, slots, step1_only=not slots)
    for model in [written, *written_slots.values()]:
        lstm, encoder = model.encoder.lstm, model.encoder
        for gate in LSTM_GATES:
            for tensor, stacked in zip((lstm.w[gate], lstm.u[gate], lstm.b[gate]), lstm.stacked):
                assert np.shares_memory(tensor.data, stacked)
        assert encoder.system_embeddings.data is encoder.table.system_matrix
        before = {name: array.tobytes() for name, array in model.arrays().items()}
        for array in model.arrays().values():
            array += 1.0
        assert {name: array.tobytes() for name, array in model.arrays().items()} == before
