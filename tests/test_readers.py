"""Hostile input for every reader: each one parses its file or raises an SluError.

Two kinds of input: arbitrary bytes, and well-formed files in which one
JSON value (anything from a whole record down to one leaf) is replaced by
an arbitrary JSON value.  The explicit examples are inputs that once
escaped as bare Python exceptions.
"""

import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nbestslu.checkpoint import (MAGIC, SLOT_KIND, STEP1_FILE, STEP1_KIND, load_checkpoint_dir, load_container,
                                 save_container, save_model, slot_file)
from nbestslu.config import RunConfig, parse_config_file, parse_config_text
from nbestslu.data import collect_system_tokens, import_dstc2, read_canonical, read_turns
from nbestslu.decoder import read_frames
from nbestslu.embeddings import load_vectors
from nbestslu.errors import CorpusError, DataFormatError, SluError
from nbestslu.model import SlotValueModel, StepOneModel

from _synth import synthetic_dataset, synthetic_table, write_mini_corpus

FUZZ = settings(max_examples=60, deadline=None)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
DEEP = "[" * 100_000  # nested past the interpreter's recursion limit


def dumps(doc) -> str:
    """``data.dumps`` without its refusal of NaN and Infinity, which the readers must refuse themselves."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _paths(node, prefix=()):
    """Every path into a JSON document, the document itself included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _accepts_or_raises_slu_error(reader, *args) -> None:
    try:
        reader(*args)
    except SluError:
        pass


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


# ---------------------------------------------------------------------------
# arbitrary bytes
# ---------------------------------------------------------------------------

BYTE_READERS = [read_canonical, read_frames, read_turns, load_vectors, parse_config_file, load_container]


@pytest.mark.parametrize("reader", BYTE_READERS, ids=lambda r: r.__name__)
@FUZZ
@given(blob=st.binary(max_size=200))
@example(blob=b"")
@example(blob=b"\xff\n")  # not UTF-8
@example(blob=b"seed = 1\nthe 0.5 \xff\n")
@example(blob=b"[1]\n")  # a header that is not an object
@example(blob=(DEEP + "\n").encode())
def test_arbitrary_bytes(scratch, reader, blob):
    path = scratch / "blob"
    path.write_bytes(blob)
    _accepts_or_raises_slu_error(reader, path)


@FUZZ
@given(header=st.binary(max_size=120))
@example(header=DEEP.encode())
def test_arbitrary_checkpoint_header(scratch, header):
    path = scratch / "framed.ckpt"
    path.write_bytes(MAGIC + f"{len(header)}\n".encode() + header + b"\n")
    _accepts_or_raises_slu_error(load_container, path)


@FUZZ
@given(text=st.text(max_size=200))
def test_arbitrary_config_text(text):
    _accepts_or_raises_slu_error(parse_config_text, text)


KEYS = sorted(RunConfig.__dataclass_fields__)


@FUZZ
@given(pairs=st.lists(st.tuples(st.sampled_from(KEYS), st.text(max_size=12)), max_size=4))
def test_config_keys_with_arbitrary_values(pairs):
    _accepts_or_raises_slu_error(parse_config_text, "\n".join(f"{k} = {v}" for k, v in pairs))


@FUZZ
@given(rows=st.lists(st.lists(st.text(max_size=6), min_size=1, max_size=4), max_size=4))
def test_vector_lines_with_arbitrary_fields(scratch, rows):
    path = scratch / "vectors.txt"
    path.write_text("\n".join(" ".join(row) for row in rows), encoding="utf-8")
    _accepts_or_raises_slu_error(load_vectors, path)


# ---------------------------------------------------------------------------
# one JSON value replaced by a value of any type
# ---------------------------------------------------------------------------

TURN = {
    "session": "s1", "index": 0,
    "hyps": [{"text": "cheap food", "score": 0.75}, {"text": "chip food", "score": 0.25}],
    "system_acts": [[{"act": "welcomemsg", "slots": []}], [{"act": "confirm", "slots": [["food", "thai"]]}]],
    "reference": {"act": "inform", "slots": [["pricerange", "cheap"]]},
}
TURN_RECORDS = [TURN, {**TURN, "index": 1, "reference": {"act": "bye|thankyou", "slots": []}}]
DATASET_DOCS = [
    {"format": "nbestslu-dataset", "version": 1, "config_hash": None,
     "provenance": {"source": "hand", "max_act_patterns": 14}, "counts": {"dialogues": 1, "turns": 2},
     "checksum": None},
    *TURN_RECORDS,
]
FRAME = {"session": "s1", "index": 0, "act": "inform", "act_confidence": 0.9,
         "slots": [{"slot": "food", "value": "thai", "confidence": 0.8}, {"slot": "area", "value": None,
                                                                         "confidence": 0.6}]}
FRAMES_DOCS = [
    {"format": "nbestslu-frames", "version": 1, "items": "full", "turns": 2, "config_hash": None,
     "ontology_hash": None},
    FRAME, {**FRAME, "index": 1, "slots": []},
]
CHECKPOINT_HEADER = {"kind": "step1", "meta": {"seed": 1},
                     "params": [{"name": "w", "shape": [2]}, {"name": "b", "shape": []}]}


def _where(docs):
    return st.sampled_from([p for p in _paths(docs) if p])


def _write_dataset(path, docs, where) -> None:
    """Header and records, with the checksum made to match unless the replaced value holds it."""
    header, records = docs[0], docs[1:]
    lines = [dumps(r) for r in records]
    if isinstance(header, dict) and where[:2] != (0, "checksum"):
        header["checksum"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    path.write_text("\n".join([dumps(header)] + lines) + "\n", encoding="utf-8")


def test_unchanged_documents_are_accepted(scratch):
    path = scratch / "plain"
    _write_dataset(path, copy.deepcopy(DATASET_DOCS), ())
    assert len(read_canonical(path).turns) == 2
    path.write_text("".join(dumps(d) + "\n" for d in FRAMES_DOCS), encoding="utf-8")
    assert len(read_frames(path)[1]) == 2
    path.write_text("".join(dumps(d) + "\n\n" for d in TURN_RECORDS), encoding="utf-8")
    assert len(read_turns(path).turns) == 2


@FUZZ
@given(where=_where(DATASET_DOCS), value=JSON)
@example(where=(0,), value=[1])  # a header that is not an object
@example(where=(0, "provenance"), value=[1])
@example(where=(0, "counts"), value=[1])
@example(where=(0, "provenance", "max_act_patterns"), value="x")
@example(where=(0, "provenance", "max_act_patterns"), value=0)
@example(where=(1, "index"), value=float("inf"))
@example(where=(1, "hyps", 0, "score"), value=10**400)
def test_dataset_with_one_value_replaced(scratch, where, value):
    path = scratch / "replaced.ds"
    _write_dataset(path, _replaced(DATASET_DOCS, where, value), where)
    _accepts_or_raises_slu_error(read_canonical, path)


@FUZZ
@given(where=_where(FRAMES_DOCS), value=JSON)
@example(where=(0,), value=[1])
@example(where=(1, "index"), value=float("-inf"))
@example(where=(1, "act_confidence"), value=10**400)
def test_frames_with_one_value_replaced(scratch, where, value):
    path = scratch / "replaced.frames"
    path.write_text("".join(dumps(d) + "\n" for d in _replaced(FRAMES_DOCS, where, value)), encoding="utf-8")
    _accepts_or_raises_slu_error(read_frames, path)


@FUZZ
@given(where=_where(TURN_RECORDS), value=JSON)
@example(where=(0, "index"), value=float("inf"))
def test_headerless_turns_with_one_value_replaced(scratch, where, value):
    path = scratch / "replaced.jsonl"
    path.write_text("".join(dumps(d) + "\n" for d in _replaced(TURN_RECORDS, where, value)), encoding="utf-8")
    _accepts_or_raises_slu_error(read_turns, path)


@FUZZ
@given(where=_where(CHECKPOINT_HEADER), value=JSON)
@example(where=("kind",), value=3)
@example(where=("meta",), value=[1])
@example(where=("params",), value={})
@example(where=("params", 0, "shape", 0), value=True)
@example(where=("params", 0, "shape", 0), value=-1)
@example(where=("params", 1, "name"), value="w")  # a duplicate name
def test_checkpoint_header_with_one_value_replaced(scratch, where, value):
    payload = dumps(_replaced(CHECKPOINT_HEADER, where, value)).encode()
    path = scratch / "replaced.ckpt"
    path.write_bytes(MAGIC + f"{len(payload)}\n".encode() + payload + b"\n" + b"\0" * 24)
    _accepts_or_raises_slu_error(load_container, path)


def test_checkpoint_framing_other_than_written_is_refused(scratch):
    # Each of these once loaded as if it were the file ``save_container`` wrote, or, with a
    # length of more digits than Python converts to an int (4,300), escaped as a ValueError.
    path = scratch / "framing.ckpt"
    save_container(path, STEP1_KIND, {"w": np.arange(2.0)}, {})
    blob = path.read_bytes()
    assert load_container(path)[1]["w"].tolist() == [0.0, 1.0]
    length = blob[len(MAGIC) : blob.index(b"\n", len(MAGIC))]
    header_end = len(MAGIC) + len(length) + 1 + int(length)
    rest = blob[len(MAGIC) + len(length) :]
    empty = dumps({"kind": STEP1_KIND, "meta": {}, "params": []}).encode()
    damaged = {
        "no newline after the header": [blob[:header_end] + b"X" + blob[header_end + 1 :],
                                        MAGIC + f"{len(empty)}\n".encode() + empty],
        "corrupt header length": [MAGIC + b"+" + length + rest, MAGIC + b" " + length + rest,
                                  MAGIC + length[:1] + b"_" + length[1:] + rest, MAGIC + b"9" * 5000 + rest,
                                  MAGIC + str(len(rest)).encode() + rest],  # past the end of the file
    }
    for message, blobs in damaged.items():
        for bad in blobs:
            path.write_bytes(bad)
            with pytest.raises(DataFormatError, match=message):
                load_container(path)


CFG = RunConfig(model="cnn_lstm_w4", embedding_dim=12, filter_windows=(2,), filters_per_window=3,
                hidden_size=4, seed=3)


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """The stored (kind, params, meta) of a step-one and a slot-value model, by kind, plus their store."""
    dataset, store = synthetic_dataset(4, 3, seed=40), synthetic_table(dim=12)
    tokens = collect_system_tokens(dataset.turns)
    ontology = dataset.ontology
    out = tmp_path_factory.mktemp("models")
    slot = "pricerange"
    models = {
        STEP1_KIND: StepOneModel.build(CFG, ontology, tokens, store),
        SLOT_KIND: SlotValueModel.build(CFG, ontology, slot, tokens, store),
    }
    for kind, model in models.items():
        save_model(model, out / kind)
    return {kind: load_container(out / kind) for kind in models}, store


@pytest.mark.parametrize("kind", [STEP1_KIND, SLOT_KIND])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_checkpoint_meta_with_one_value_replaced(scratch, saved_models, kind, data):
    stored, store = saved_models
    _, params, meta = stored[kind]
    where = data.draw(_where(meta), label="where")
    # A model file is read as a directory's run: step one's file alone, or a slot file beside it.
    run = scratch / "run"
    run.mkdir(exist_ok=True)
    path = run / STEP1_FILE
    if kind == SLOT_KIND:
        save_container(path, *stored[STEP1_KIND])
        path = run / slot_file("pricerange")
    # ``save_container``'s layout, with a meta value it would refuse to write (NaN, Infinity) allowed.
    header = {"kind": kind, "meta": _replaced(meta, where, data.draw(JSON, label="value")),
              "params": [{"name": name, "shape": list(array.shape)} for name, array in params.items()]}
    payload = dumps(header).encode()
    blob = b"".join(array.astype("<f8").tobytes() for array in params.values())
    path.write_bytes(MAGIC + f"{len(payload)}\n".encode() + payload + b"\n" + blob)
    _accepts_or_raises_slu_error(load_checkpoint_dir, run, store)


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    """The miniature corpus on disk, plus the parsed log and label documents of its first call."""
    root = tmp_path_factory.mktemp("corpus")
    flist = write_mini_corpus(root)
    call = root / flist.read_text(encoding="utf-8").split()[0]
    docs = {name: json.loads((call / name).read_text(encoding="utf-8")) for name in ("log.json", "label.json")}
    return root, flist, call, docs


def _write_call(call, docs, where, value) -> None:
    for name, doc in _replaced(docs, where, value).items():
        (call / name).write_text(json.dumps(doc), encoding="utf-8")


@FUZZ
@given(data=st.data())
def test_corpus_call_with_one_value_replaced(mini_corpus, data):
    root, flist, call, docs = mini_corpus
    where = data.draw(st.sampled_from([p for p in _paths(docs) if len(p) > 1]), label="where")
    _write_call(call, docs, where, data.draw(JSON, label="value"))
    _accepts_or_raises_slu_error(import_dstc2, root, flist)


@pytest.mark.parametrize("where, value", [
    (("log.json",), [1]),
    (("label.json",), [1]),
    (("log.json", "turns", 0), 1),
    (("log.json", "turns", 1, "turn-index"), "x"),
    (("log.json", "turns", 0, "output"), [1]),
    (("log.json", "turns", 0, "output", "dialog-acts"), 1),
    (("log.json", "turns", 0, "input"), [1]),
    (("log.json", "turns", 0, "input", "live"), "x"),
    (("log.json", "turns", 0, "input", "live", "asr-hyps"), 1),
    (("log.json", "turns", 0, "input", "live", "asr-hyps", 0, "score"), 10**400),
    (("log.json", "turns", 0, "input", "live", "asr-hyps", 0, "score"), float("inf")),
    (("label.json", "turns", 0, "semantics", "json"), 1),
    (("log.json", "turns", 0, "output", "dialog-acts", 0), 1),
    (("label.json", "turns", 0, "semantics", "json", 0), 1),
], ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else type(v).__name__)
def test_mistyped_corpus_values_are_corpus_errors(mini_corpus, where, value):
    root, flist, call, docs = mini_corpus
    _write_call(call, docs, where, value)
    with pytest.raises(CorpusError):
        import_dstc2(root, flist)
