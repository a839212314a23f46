"""Self-describing model checkpoints with bit-exact round trips.

A checkpoint file is a magic line, an ASCII header length, a JSON header
(kind, resolved configuration, ontology, vocabulary, store fingerprint,
a slot model's slot, parameter names and shapes), and the raw
little-endian float64 parameter data in header order.  Nothing in the
file depends on write time, so identical models produce byte-identical
files.

Saving writes the model's ``arrays()``.  Loading rebuilds the model
skeleton from the stored configuration and ontology, then hands the
stored arrays to its ``load_arrays``, which refuses a non-finite value
and a hypothesis OOV row other than the one freshly drawn (a checkpoint
written against a different embedding store or seed).
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config_file, parse_config_text, resolved_text, write_resolved
from .data import dumps, parse_json, text_lines, write_lines
from .errors import ConfigError, DataFormatError, checked, exact
from .model import SlotValueModel, StepOneModel
from .ontology import Ontology

MAGIC = b"#nbestslu-checkpoint v1\n"

STEP1_KIND = "step1"
SLOT_KIND = "slot-value"

STEP1_FILE = "step1.ckpt"
ONTOLOGY_FILE = "ontology.json"
CONFIG_FILE = "config.txt"
TRAIN_LOG_FILE = "train_log.json"


def ontology_hash(ontology: Ontology) -> str:
    """sha256 of the ontology's canonical JSON; frames headers record it."""
    return hashlib.sha256(dumps(ontology.to_json_dict()).encode("utf-8")).hexdigest()


def save_container(path, kind: str, params: dict[str, np.ndarray], meta: dict) -> None:
    names = list(params)
    header = {
        "kind": kind,
        "meta": meta,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    payload = dumps(header).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(f"{len(payload)}\n".encode("ascii"))
        handle.write(payload)
        handle.write(b"\n")
        for name in names:
            handle.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def _header(header) -> tuple[str, dict, list[tuple[str, tuple[int, ...]]]]:
    """(kind, meta, [(name, shape)]) of a decoded header; names are distinct and dims non-negative."""
    header = exact(header, dict)
    kind, meta = exact(header["kind"], str), exact(header["meta"], dict)
    entries = [(exact(p["name"], str), tuple(exact(d, int) for d in exact(p["shape"], list)))
               for p in exact(header["params"], list)]
    for name, shape in entries:
        if min(shape, default=0) < 0:
            raise ValueError(f"parameter {name} has a negative dimension in {list(shape)}")
    if len(dict(entries)) != len(entries):
        raise ValueError("duplicate parameter names")
    return kind, meta, entries


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
    kind, meta, entries = checked(DataFormatError, f"{path}: header", _header,
                                  parse_json(blob[newline + 1 : header_end], f"{path}: header"))

    params: dict[str, np.ndarray] = {}
    offset = min(header_end + 1, len(blob))
    for name, shape in entries:
        count = math.prod(shape)
        if offset + count * 8 > len(blob):
            raise DataFormatError(f"{path}: truncated parameter data at {name}")
        params[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    if offset != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - offset} trailing bytes after parameters")
    return kind, params, meta


def _meta(meta: dict, kind: str) -> tuple[str, Ontology, str, list[str], str | None]:
    """(config text, ontology, store fingerprint, system tokens, slot or None) of a ``kind`` checkpoint's meta.

    A model derives everything else from these, and other keys are ignored.
    """
    return (exact(meta["config_text"], str), Ontology.from_json_dict(meta["ontology"]),
            exact(meta["store_fingerprint"], str), [exact(t, str) for t in exact(meta["system_tokens"], list)],
            exact(meta["slot"], str) if kind == SLOT_KIND else None)


def save_model(model: StepOneModel | SlotValueModel, path) -> None:
    """Write one model; a slot model also records its slot."""
    table = model.encoder.table
    meta = {
        "config_text": resolved_text(model.config),
        "ontology": model.ontology.to_json_dict(),
        "system_tokens": list(table.system_tokens),
        "store_fingerprint": table.fingerprint(),
    }
    kind = STEP1_KIND
    if isinstance(model, SlotValueModel):
        kind = SLOT_KIND
        meta["slot"] = model.slot
    save_container(path, kind, model.arrays(), meta)


def load_model(path, store, kind: str) -> StepOneModel | SlotValueModel:
    """Rebuild a ``kind`` model from its stored config and ontology, then load its parameters."""
    found, params, meta = load_container(path)
    if found != kind:
        raise DataFormatError(f"{path}: expected a {kind} checkpoint, found {found}")
    config_text, ontology, fingerprint, tokens, slot = checked(DataFormatError, f"{path}: checkpoint meta",
                                                               _meta, meta, kind)
    if fingerprint != store.fingerprint():
        raise ConfigError(f"{path}: checkpoint was written against a different pretrained vector file")
    config = parse_config_text(config_text)
    if kind == STEP1_KIND:
        model = StepOneModel.build(config, ontology, tokens, store)
    elif slot in ontology.slots:
        model = SlotValueModel.build(config, ontology, slot, tokens, store)
    else:
        raise DataFormatError(f"{path}: slot {slot!r} is not in the checkpoint's own ontology")
    model.load_arrays(params, path)
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
    save_model(step1, dirpath / STEP1_FILE)
    for slot, model in slot_models.items():
        save_model(model, dirpath / slot_file(slot))
    write_lines(dirpath / ONTOLOGY_FILE, step1.ontology.to_json_dict(), ())
    write_resolved(config, dirpath / CONFIG_FILE)
    if train_log is not None:
        write_lines(dirpath / TRAIN_LOG_FILE, train_log, ())


def load_checkpoint_dir(dirpath, store, config: RunConfig | None = None
                        ) -> tuple[StepOneModel, dict[str, SlotValueModel], RunConfig]:
    """Models and run config of a checkpoint directory; ``config`` is its config.txt if parsed already."""
    dirpath = Path(dirpath)
    step1_path = dirpath / STEP1_FILE
    if not step1_path.is_file():
        raise DataFormatError(f"{dirpath}: missing {STEP1_FILE}")
    step1 = load_model(step1_path, store, STEP1_KIND)

    ontology_path = dirpath / ONTOLOGY_FILE
    if ontology_path.is_file():
        doc = parse_json("\n".join(text_lines(ontology_path)), ontology_path)
        if checked(DataFormatError, ontology_path, Ontology.from_json_dict, doc) != step1.ontology:
            raise ConfigError(f"{dirpath}: {ONTOLOGY_FILE} does not match the step-one model's ontology")

    slot_models: dict[str, SlotValueModel] = {}
    for slot in step1.ontology.slots:
        path = dirpath / slot_file(slot)
        if path.is_file():
            model = load_model(path, store, SLOT_KIND)
            if model.slot != slot:
                raise DataFormatError(f"{path}: holds the value model of slot {model.slot!r}, not {slot!r}")
            if model.ontology != step1.ontology:
                raise ConfigError(f"{path}: model was trained against a different ontology")
            if model.config != step1.config:
                raise ConfigError(f"{path}: value model comes from another run than {STEP1_FILE}")
            slot_models[slot] = model
    if config is None:
        config = parse_config_file(dirpath / CONFIG_FILE) if (dirpath / CONFIG_FILE).is_file() else step1.config
    return step1, slot_models, config
