"""Self-describing model checkpoints with bit-exact round trips.

A checkpoint file is a magic line, an ASCII header length, a JSON header
(kind, seed, resolved configuration, ontology, vocabulary, parameter
names and shapes), and the raw little-endian float64 parameter data in
header order.  Nothing in the file depends on write time, so identical
models produce byte-identical files.

Loading rebuilds the model skeleton from the stored configuration and
seed, then overwrites every parameter in place with the stored values.
The freshly drawn hypothesis OOV row must match the stored one bit for
bit; a mismatch means the checkpoint was written against a different
embedding store or seed and is rejected.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash, parse_config_text, resolved_text, write_resolved
from .errors import ConfigError, DataFormatError
from .model import SlotValueModel, StepOneModel
from .ontology import Ontology

MAGIC = b"#nbestslu-checkpoint v1\n"

STEP1_KIND = "step1"
SLOT_KIND = "slot-value"

STEP1_FILE = "step1.ckpt"
ONTOLOGY_FILE = "ontology.json"
CONFIG_FILE = "config.txt"
TRAIN_LOG_FILE = "train_log.json"


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_container(path, kind: str, params: dict[str, np.ndarray], meta: dict) -> None:
    names = list(params)
    header = {
        "kind": kind,
        "meta": meta,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    payload = _dumps(header).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(f"{len(payload)}\n".encode("ascii"))
        handle.write(payload)
        handle.write(b"\n")
        for name in names:
            handle.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def _header_entries(header, path) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) list of a decoded header, which must be well formed."""
    if not (isinstance(header, dict) and isinstance(header.get("kind"), str)
            and isinstance(header.get("meta"), dict) and isinstance(header.get("params"), list)):
        raise DataFormatError(f"{path}: header needs a kind string, a meta object and a params list")
    entries = []
    for entry in header["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise DataFormatError(f"{path}: malformed parameter entry {entry!r}")
        entries.append((entry["name"], tuple(entry["shape"])))
    if len({name for name, _ in entries}) != len(entries):
        raise DataFormatError(f"{path}: duplicate parameter names")
    return entries


def load_container(path) -> tuple[str, dict[str, np.ndarray], dict]:
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(MAGIC):
        raise DataFormatError(f"{path}: not a checkpoint file")
    # Offsets into the one buffer read: slicing out the header and the
    # parameter block would copy megabytes per file.
    newline = blob.find(b"\n", len(MAGIC))
    try:
        header_len = int(blob[len(MAGIC) : newline]) if newline >= 0 else -1
    except ValueError:
        header_len = -1
    if header_len < 0:
        raise DataFormatError(f"{path}: corrupt header length")
    header_end = newline + 1 + header_len
    try:
        header = json.loads(blob[newline + 1 : header_end].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt header: {exc}") from None

    params: dict[str, np.ndarray] = {}
    offset = min(header_end + 1, len(blob))
    for name, shape in _header_entries(header, path):
        count = math.prod(shape)
        if offset + count * 8 > len(blob):
            raise DataFormatError(f"{path}: truncated parameter data at {name}")
        params[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    if offset != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - offset} trailing bytes after parameters")
    return header["kind"], params, header["meta"]


def _check_store(meta: dict, store, path) -> None:
    if meta.get("store_fingerprint") != store.fingerprint():
        raise ConfigError(
            f"{path}: checkpoint was written against a different pretrained vector file"
        )


def _collect_arrays(model) -> dict[str, np.ndarray]:
    arrays = {name: t.data for name, t in model.parameters().items()}
    arrays["embed.hyp_oov"] = model.encoder.table.hypothesis_oov_vector
    return arrays


def _overwrite_params(model, stored: dict[str, np.ndarray], path) -> None:
    params = model.parameters()
    expected = set(params) | {"embed.hyp_oov"}
    if expected != set(stored):
        missing = expected - set(stored)
        extra = set(stored) - expected
        raise DataFormatError(f"{path}: parameter set mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    rebuilt_oov = model.encoder.table.hypothesis_oov_vector
    if rebuilt_oov.shape != stored["embed.hyp_oov"].shape or not np.array_equal(
        rebuilt_oov, stored["embed.hyp_oov"]
    ):
        raise ConfigError(
            f"{path}: checkpoint was written against a different embedding store or seed"
        )
    for name, tensor in params.items():
        if tensor.data.shape != stored[name].shape:
            raise DataFormatError(
                f"{path}: parameter {name} has shape {stored[name].shape}, expected {tensor.data.shape}"
            )
        tensor.data[...] = stored[name]
    model.mark_dirty()


def save_model(model: StepOneModel | SlotValueModel, path, ontology: Ontology) -> None:
    """Write one model; a slot model also records its slot, the slot's position and its values."""
    table = model.encoder.table
    meta = {
        "seed": model.config.seed,
        "config_text": resolved_text(model.config),
        "config_hash": config_hash(model.config),
        "ontology": ontology.to_json_dict(),
        "ontology_hash": ontology.canonical_hash(),
        "system_tokens": list(table.system_tokens),
        "store_fingerprint": table.fingerprint(),
    }
    kind = STEP1_KIND
    if isinstance(model, SlotValueModel):
        kind = SLOT_KIND
        meta.update(slot=model.slot, slot_position=ontology.slots.index(model.slot), values=list(model.values))
    save_container(path, kind, _collect_arrays(model), meta)


def load_model(path, store, kind: str, ontology_hash: str | None = None) -> StepOneModel | SlotValueModel:
    """Rebuild a ``kind`` model from its stored config and seed, then load its parameters.

    With ``ontology_hash``, the model must have been trained against that ontology.
    """
    found, params, meta = load_container(path)
    if found != kind:
        raise DataFormatError(f"{path}: expected a {kind} checkpoint, found {found}")
    try:
        if ontology_hash is not None and meta["ontology_hash"] != ontology_hash:
            raise ConfigError(f"{path}: model was trained against a different ontology")
        _check_store(meta, store, path)
        config = parse_config_text(meta["config_text"])
        if kind == STEP1_KIND:
            ontology = Ontology.from_json_dict(meta["ontology"])
            model = StepOneModel.build(config, ontology, meta["system_tokens"], store)
        else:
            model = SlotValueModel.build(config, meta["slot"], int(meta["slot_position"]), meta["values"],
                                         meta["system_tokens"], store)
    except KeyError as exc:
        raise DataFormatError(f"{path}: checkpoint meta has no {exc}") from None
    _overwrite_params(model, params, path)
    return model


# ---------------------------------------------------------------------------
# checkpoint directories: step one + per-slot models + ontology + config
# ---------------------------------------------------------------------------

def slot_file(slot: str) -> str:
    return f"slot_{slot}.ckpt"


def save_checkpoint_dir(dirpath, step1: StepOneModel, slot_models: dict[str, SlotValueModel],
                        config: RunConfig, train_log: dict | None = None) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    save_model(step1, dirpath / STEP1_FILE, step1.ontology)
    for slot, model in slot_models.items():
        save_model(model, dirpath / slot_file(slot), step1.ontology)
    (dirpath / ONTOLOGY_FILE).write_text(
        _dumps(step1.ontology.to_json_dict()) + "\n", encoding="utf-8"
    )
    write_resolved(config, dirpath / CONFIG_FILE)
    if train_log is not None:
        (dirpath / TRAIN_LOG_FILE).write_text(_dumps(train_log) + "\n", encoding="utf-8")


def load_checkpoint_dir(dirpath, store) -> tuple[StepOneModel, dict[str, SlotValueModel], RunConfig]:
    dirpath = Path(dirpath)
    step1_path = dirpath / STEP1_FILE
    if not step1_path.is_file():
        raise DataFormatError(f"{dirpath}: missing {STEP1_FILE}")
    step1 = load_model(step1_path, store, STEP1_KIND)
    expected_hash = step1.ontology.canonical_hash()

    ontology_path = dirpath / ONTOLOGY_FILE
    if ontology_path.is_file():
        on_disk = Ontology.from_json_dict(json.loads(ontology_path.read_text(encoding="utf-8")))
        if on_disk.canonical_hash() != expected_hash:
            raise ConfigError(f"{dirpath}: {ONTOLOGY_FILE} does not match the step-one model's ontology")

    slot_models: dict[str, SlotValueModel] = {}
    for slot in step1.ontology.slots:
        path = dirpath / slot_file(slot)
        if path.is_file():
            slot_models[slot] = load_model(path, store, SLOT_KIND, ontology_hash=expected_hash)
    config = parse_config_text((dirpath / CONFIG_FILE).read_text(encoding="utf-8")) \
        if (dirpath / CONFIG_FILE).is_file() else step1.config
    return step1, slot_models, config
