"""Span arithmetic and the rebinding tracer."""

import numpy as np
import pytest

from corpus import CorpusShape, build, generate
from nbestslu.autograd import Tensor
from nbestslu.config import RunConfig
from nbestslu.embeddings import EmbeddingTable
from nbestslu import data, decoder, training
from spans import Span, Tracer, default_targets, layer_table, self_times


def test_self_time_subtracts_children_on_a_nested_set():
    spans = [
        Span("root", 0.0, 10.0, -1, "t:0"),
        Span("a", 1.0, 4.0, 0, None),  # child of root, 3 long
        Span("a.1", 1.5, 2.0, 1, None),  # grandchild: counts against a, not root
        Span("b", 5.0, 9.0, 0, None),  # child of root, 4 long
        Span("b.1", 5.0, 6.0, 3, None),
        Span("b.2", 8.0, 9.0, 3, None),
        Span("other", 20.0, 21.0, -1, None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 2.0, 1.0, 1.0, 1.0])
    table = layer_table(spans)
    assert table["root"]["calls"] == 1
    assert table["root"]["total_ms"] == pytest.approx(10000.0)
    assert table["root"]["self_ms"] == pytest.approx(3000.0)
    assert table["b.1"]["self_ms"] + table["b.2"]["self_ms"] == pytest.approx(2000.0)


def test_overlapping_children_are_counted_once():
    spans = [Span("p", 0.0, 10.0, -1, None), Span("c", 1.0, 5.0, 0, None), Span("c", 3.0, 7.0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def _store(vectors):
    words = sorted(vectors)
    return EmbeddingTable(words, np.vstack([vectors[w] for w in words]))


def _config():
    return RunConfig(model="cnn_lstm_w1", filter_windows=(2,), filters_per_window=3, hidden_size=3,
                     batch_size=10, max_epochs=1, patience=0, validation_fraction=0.25, seed=2)


def _tiny_run():
    train, _, vectors = build(CorpusShape(4, 1), 3)
    return train, _store(vectors), _config()


def test_tracer_restores_every_rebound_name():
    targets = default_targets()
    originals = [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]
    init = Tensor.__dict__["__init__"]
    train, store, config = _tiny_run()
    tracer = Tracer(targets)
    with tracer:
        assert all(owner.__dict__[attr] is not original for owner, attr, original in originals)
        model, _ = training.train_step1(train, config, store)
        decoder.decode_turn(train.turns[0], model, {}, step1_only=True)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} was not restored"
    assert Tensor.__dict__["__init__"] is init
    layers = {span.name for span in tracer.spans}
    assert {"sentence.encode_sentence", "context.run_context_lstm", "autograd.backward", "optim.step",
            "training.step1_f1", "decoder.decode_turn", "decoder.predict_joint"} <= layers
    assert tracer.tensors > 0
    assert tracer.counters["decoder.decode_turn"]["full_turns"] == 0


def test_tracer_restores_names_after_an_error():
    targets = default_targets()
    originals = [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]
    with pytest.raises(RuntimeError):
        with Tracer(targets):
            raise RuntimeError("boom")
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_encode_spans_carry_the_turn_they_encode(tmp_path):
    files = generate(CorpusShape(4, 1), 3, tmp_path)
    _, _, vectors = build(CorpusShape(4, 1), 3)
    store, config = _store(vectors), _config()
    tracer = Tracer(default_targets())
    with tracer:
        train = data.read_canonical(files.train)  # read while tracing, as the benchmark does
        model, _ = training.train_step1(train, config, store)
        for turn in train.turns[:5]:
            decoder.decode_turn(turn, model, {}, step1_only=True)
    ids = {f"{t.session}:{t.index}" for t in train.turns}
    encodes = [span for span in tracer.spans if span.name == "model.encode"]
    # every training and validation turn is encoded, each under its own id
    assert {span.turn for span in encodes} == ids
    for span in encodes:
        if span.parent >= 0 and tracer.spans[span.parent].name == "decoder.predict_joint":
            assert span.turn == tracer.spans[span.parent].turn
