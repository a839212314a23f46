"""Checkpoint containers: bit-exact round trips and compatibility checks."""

import json

import numpy as np
import pytest

from nbestslu.checkpoint import (
    MAGIC,
    SLOT_KIND,
    STEP1_KIND,
    load_checkpoint_dir,
    load_container,
    load_model,
    save_checkpoint_dir,
    save_container,
    save_model,
)
from nbestslu.config import RunConfig
from nbestslu.data import collect_system_tokens
from nbestslu.errors import ConfigError, DataFormatError
from nbestslu.model import SlotValueModel, StepOneModel

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
        path.write_bytes(blob[:-16])
        with pytest.raises(DataFormatError):
            load_container(path)


class TestModelRoundTrip:
    def test_step1_round_trip(self, tmp_path, dataset, store):
        model = fresh_step1(dataset, store)
        path = tmp_path / "step1.ckpt"
        save_model(model, path, dataset.ontology)
        loaded = load_model(path, store, STEP1_KIND)
        assert loaded.ontology == model.ontology
        for name, tensor in model.parameters().items():
            assert loaded.parameters()[name].data.tobytes() == tensor.data.tobytes()

    def test_slot_model_round_trip(self, tmp_path, dataset, store):
        values = dataset.ontology.slot_values("pricerange")
        pos = dataset.ontology.slots.index("pricerange")
        model = SlotValueModel.build(CFG, "pricerange", pos, values,
                                     collect_system_tokens(dataset.turns), store)
        path = tmp_path / "slot.ckpt"
        save_model(model, path, dataset.ontology)
        loaded = load_model(path, store, SLOT_KIND)
        assert loaded.slot == "pricerange" and loaded.values == model.values
        for name, tensor in model.parameters().items():
            assert loaded.parameters()[name].data.tobytes() == tensor.data.tobytes()

    def test_wrong_store_rejected(self, tmp_path, dataset, store):
        model = fresh_step1(dataset, store)
        path = tmp_path / "step1.ckpt"
        save_model(model, path, dataset.ontology)
        other_store = synthetic_table(dim=12, seed=999)
        with pytest.raises(ConfigError):
            load_model(path, other_store, STEP1_KIND)

    def test_wrong_kind_rejected(self, tmp_path, dataset, store):
        path = tmp_path / "step1.ckpt"
        save_model(fresh_step1(dataset, store), path, dataset.ontology)
        with pytest.raises(DataFormatError):
            load_model(path, store, SLOT_KIND)

    def test_meta_without_a_key_is_a_format_error(self, tmp_path, dataset, store):
        path = tmp_path / "step1.ckpt"
        save_model(fresh_step1(dataset, store), path, dataset.ontology)
        kind, params, meta = load_container(path)
        del meta["config_text"]
        save_container(path, kind, params, meta)
        with pytest.raises(DataFormatError):
            load_model(path, store, STEP1_KIND)


class TestCheckpointDir:
    def test_directory_round_trip(self, tmp_path, dataset, store):
        step1 = fresh_step1(dataset, store)
        pos = dataset.ontology.slots.index("pricerange")
        slot_model = SlotValueModel.build(CFG, "pricerange", pos,
                                          dataset.ontology.slot_values("pricerange"),
                                          collect_system_tokens(dataset.turns), store)
        out = tmp_path / "ckpt"
        save_checkpoint_dir(out, step1, {"pricerange": slot_model}, CFG, train_log={"note": "test"})
        loaded_step1, loaded_slots, loaded_cfg = load_checkpoint_dir(out, store)
        assert loaded_cfg == CFG
        assert set(loaded_slots) == {"pricerange"}
        for name, tensor in step1.parameters().items():
            assert loaded_step1.parameters()[name].data.tobytes() == tensor.data.tobytes()

    def test_mismatched_ontology_rejected(self, tmp_path, dataset, store):
        step1 = fresh_step1(dataset, store)
        out = tmp_path / "ckpt"
        save_checkpoint_dir(out, step1, {}, CFG)
        # Overwrite the ontology file with a different one.
        other = synthetic_dataset(3, 3, seed=77).subset(["synth-000"]).ontology
        (out / "ontology.json").write_text(json.dumps(other.to_json_dict()), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_checkpoint_dir(out, store)
