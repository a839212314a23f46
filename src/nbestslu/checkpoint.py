"""Self-describing model checkpoints with bit-exact round trips.

A checkpoint file is a magic line, an ASCII header length, a JSON header
(kind, resolved configuration, ontology, vocabulary, store fingerprint,
a slot model's slot, parameter names and shapes), and the raw
little-endian float64 parameter data in header order.  Nothing in the
file depends on write time, so identical models produce byte-identical
files.

Saving writes the model's ``arrays()``.  A load reads a checkpoint
directory as one run: step one's file states its configuration and
ontology, parsed once, and each slot file is held to them.  Each file's
framing is checked against its size, a skeleton that draws only its
hypothesis OOV row is built, and ``read_arrays`` reads every stored
parameter straight into place, refusing a non-finite value and an OOV row
other than the one drawn (another embedding store or seed).
``load_container`` reads a file's arrays into new memory, for tools.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config_text, resolved_text, write_resolved
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


def _framing(handle, path) -> tuple[str, dict, list[tuple[str, tuple[int, ...]]]]:
    """(kind, meta, [(name, shape)]) of an open checkpoint file, left at its first parameter's data.

    The header length is bounded by the file's size before it is converted
    or read, and the shapes must call for exactly the bytes that follow.
    """
    size = os.fstat(handle.fileno()).st_size
    if handle.read(len(MAGIC)) != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file")
    line = handle.readline(len(str(size)) + 1)
    length = line[:-1]
    if not (line.endswith(b"\n") and length.isdigit()) or int(length) > size - handle.tell():
        raise DataFormatError(f"{path}: corrupt header length")
    kind, meta, entries = checked(DataFormatError, f"{path}: header", _header,
                                  parse_json(handle.read(int(length)), f"{path}: header"))
    if handle.read(1) != b"\n":
        raise DataFormatError(f"{path}: no newline after the header")
    offset = handle.tell()
    for name, shape in entries:
        offset += math.prod(shape) * 8
        if offset > size:
            raise DataFormatError(f"{path}: truncated parameter data at {name}")
    if offset != size:
        raise DataFormatError(f"{path}: {size - offset} trailing bytes after parameters")
    return kind, meta, entries


def load_container(path) -> tuple[str, dict[str, np.ndarray], dict]:
    """(kind, {name: array}, meta) of a checkpoint file, each array read into its own new memory."""
    with open(path, "rb") as handle:
        kind, meta, entries = _framing(handle, path)
        params = {name: np.empty(shape, dtype="<f8") for name, shape in entries}
        for array in params.values():
            handle.readinto(array)
    return kind, params, meta


def _meta(meta: dict, kind: str) -> tuple[str, str, str, list[str], str | None]:
    """(config text, canonical ontology JSON, store fingerprint, system tokens, slot or None) of a ``kind`` meta."""
    return (exact(meta["config_text"], str), dumps(exact(meta["ontology"], dict)),
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
    kind = SLOT_KIND if isinstance(model, SlotValueModel) else STEP1_KIND
    if kind == SLOT_KIND:
        meta["slot"] = model.slot
    save_container(path, kind, model.arrays(), meta)


def _read_model(path, store, slot: str | None, run: tuple | None) -> tuple[StepOneModel | SlotValueModel, tuple]:
    """The step-one model in ``path`` (``slot`` None) or the value model of ``slot``, and the run it belongs to.

    A run is (config text, ontology JSON, config, ontology); step one's file, read without one, states it.  A slot
    file must hold ``slot`` and state the run's texts, or values that parse equal to them.  The skeleton is built
    from the run's config and ontology, with the file's own system tokens.
    """
    kind = STEP1_KIND if slot is None else SLOT_KIND
    with open(path, "rb") as handle:
        found, meta, entries = _framing(handle, path)
        if found != kind:
            raise DataFormatError(f"{path}: expected a {kind} checkpoint, found {found}")
        where = f"{path}: checkpoint meta"
        config_text, ontology_text, fingerprint, tokens, held = checked(DataFormatError, where, _meta, meta, kind)
        if fingerprint != store.fingerprint():
            raise ConfigError(f"{path}: checkpoint was written against a different pretrained vector file")
        if held != slot:
            raise DataFormatError(f"{path}: holds the value model of slot {held!r}, not {slot!r}")
        if run is None:
            run = (config_text, ontology_text, parse_config_text(config_text),
                   checked(DataFormatError, where, Ontology.from_json_dict, meta["ontology"]))
        run_config_text, run_ontology_text, config, ontology = run
        if ontology_text != run_ontology_text and checked(DataFormatError, where, Ontology.from_json_dict,
                                                          meta["ontology"]) != ontology:
            raise ConfigError(f"{path}: model was trained against a different ontology")
        if config_text != run_config_text and parse_config_text(config_text) != config:
            raise ConfigError(f"{path}: value model comes from another run than {STEP1_FILE}")
        model = (StepOneModel(config, ontology, tokens, store, skeleton=True) if slot is None
                 else SlotValueModel(config, ontology, slot, tokens, store, skeleton=True))
        model.read_arrays(handle, entries, path)
    return model, run


# ---------------------------------------------------------------------------
# checkpoint directories: step one + per-slot models + ontology + config
# ---------------------------------------------------------------------------

def slot_file(slot: str) -> str:
    return f"slot_{slot}.ckpt"


def save_checkpoint_dir(dirpath, step1: StepOneModel, slot_models: dict[str, SlotValueModel],
                        config: RunConfig, train_log: dict) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    save_model(step1, dirpath / STEP1_FILE)
    for slot, model in slot_models.items():
        save_model(model, dirpath / slot_file(slot))
    write_lines(dirpath / ONTOLOGY_FILE, step1.ontology.to_json_dict(), ())
    write_resolved(config, dirpath / CONFIG_FILE)
    write_lines(dirpath / TRAIN_LOG_FILE, train_log, ())


def load_checkpoint_dir(dirpath, store) -> tuple[StepOneModel, dict[str, SlotValueModel], RunConfig]:
    """The run in a checkpoint directory: its step-one model, value models by slot and config; reads no config.txt."""
    dirpath = Path(dirpath)
    step1_path = dirpath / STEP1_FILE
    if not step1_path.is_file():
        raise DataFormatError(f"{dirpath}: missing {STEP1_FILE}")
    step1, run = _read_model(step1_path, store, None, None)

    ontology_path = dirpath / ONTOLOGY_FILE
    if ontology_path.is_file():
        doc = parse_json("\n".join(text_lines(ontology_path)), ontology_path)
        if checked(DataFormatError, ontology_path, Ontology.from_json_dict, doc) != step1.ontology:
            raise ConfigError(f"{dirpath}: {ONTOLOGY_FILE} does not match the step-one model's ontology")

    slot_models = {slot: _read_model(dirpath / slot_file(slot), store, slot, run)[0]
                   for slot in step1.ontology.slots if (dirpath / slot_file(slot)).is_file()}
    return step1, slot_models, step1.config
