"""The benchmark's workloads and the pipeline that runs each of them.

Every workload runs the same closed loop in one process with one client,
which sends its next call only when the previous one has returned:

1. generate the corpus and vector files from the workload seed;
2. train step one, then step two for every multi-valued slot, then save
   the checkpoint directory (timed: training throughput);
3. set up a decoder several times: load the vectors, read the test set,
   load the checkpoint (timed: ``setup_s`` is the median);
4. after one untimed warm-up pass, a dialogue manager decodes every test
   dialogue's turns in order with the full two-step pipeline, then the
   same turns step-one-only, in rounds (timed: latency per turn);
5. check the outputs.

The workloads differ in the model variant, the corpus shape and where
the work goes; ``Workload.why`` says why each exists.
"""

from __future__ import annotations

import functools
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from nbestslu import checkpoint, data, decoder, embeddings, training
from nbestslu.config import RunConfig
from nbestslu.errors import SluError
from nbestslu.metrics import FULL, frame_items, item_counts, prf1, reference_items
from nbestslu.optim import Adadelta

from corpus import VECTOR_DIM, CorpusShape, generate
from machine import HostGauge
from spans import Tracer, default_targets, layer_table


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variant: str
    shape: CorpusShape
    epochs: int
    batch_size: int
    traced: str  # the phase a traced run wraps: "train" or "decode"


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-w4",
        "the write path: backward and Adadelta on the default cnn_lstm_w4, where the context LSTM and the "
        "tape dominate training",
        "cnn_lstm_w4", CorpusShape(train_dialogues=32, test_dialogues=40), epochs=5, batch_size=5,
        traced="train",
    ),
    Workload(
        "decode-cnn-nbest10",
        "decoding with the cnn variant on 10-hypothesis turns: the n-best CNN and the step-two fan-out do "
        "the work and the context LSTM none",
        "cnn", CorpusShape(train_dialogues=100, test_dialogues=48, full_nbest=True), epochs=3, batch_size=10,
        traced="decode",
    ),
)}

VALIDATION_FRACTION = 0.25
# The workload seed draws the corpus; training always uses this seed, so its
# validation split holds out the same dialogue positions, whose lengths the
# corpus shape fixes.  Otherwise the cost of a run would depend on whether
# the longest dialogues land in validation.
TRAINING_SEED = 1
SETUP_REPEATS = 7
MIN_ROUNDS = 3  # decode rounds: each turn's latency is a median over three or more
GAUGE_EVERY = 8  # decoded turns between two host-gauge bursts
SEGMENT_SECONDS = 0.1  # training time between two host-gauge bursts
PACE_BURSTS = 6  # decode bursts whose median is a turn's pace
CHECK_SAMPLE = 24  # turns decoded by the reload and the shuffled-order checks


class RunFailed(Exception):
    """An operation the rest of the run depends on failed."""


class Ops:
    """Operations attempted and failed; an ``SluError`` is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn: Callable, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except SluError as exc:
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {exc}")
            return None


class EpochClock:
    """A training ``log_fn`` that times each epoch in segments scaled by the host gauge.

    The gauge reads the host at the ends of each epoch and, through
    ``sample``, between optimizer steps inside it, because the host can
    change speed in the middle of an epoch.  Each segment between two
    readings is scaled by their mean.  The bursts run between segments,
    so no segment contains one.
    """

    def __init__(self, gauge: HostGauge):
        self.gauge = gauge
        self.epochs: list[list[tuple[float, float]]] = []  # per epoch, (seconds, pace) per segment
        self._segments: list[tuple[float, float]] = []
        self._pace = gauge.pace()
        self._mark = time.perf_counter()

    def _close(self, read: Callable[[], float]) -> None:
        seconds = time.perf_counter() - self._mark
        pace = read()
        self._segments.append((seconds, (self._pace + pace) / 2))
        self._pace = pace
        self._mark = time.perf_counter()

    def sample(self) -> None:
        """After an optimizer step: end the segment once it has run ``SEGMENT_SECONDS``."""
        if time.perf_counter() - self._mark >= SEGMENT_SECONDS:
            self._close(self.gauge.burst)

    def __call__(self, message: str) -> None:
        self._close(self.gauge.pace)
        self.epochs.append(self._segments)
        self._segments = []

    def seconds(self) -> float:
        """Epochs times the median epoch at the host's full speed."""
        return len(self.epochs) * statistics.median(
            sum(self.gauge.at_full_speed(*segment) for segment in epoch) for epoch in self.epochs)

    def raw_seconds(self) -> float:
        """Epochs times the median epoch as measured."""
        return len(self.epochs) * statistics.median(sum(seconds for seconds, _ in epoch) for epoch in self.epochs)


@contextmanager
def gauge_between_steps(clock: Callable[[], EpochClock]):
    """While training, let the current epoch clock sample the host after each optimizer step.

    ``Adadelta.step`` is rebound for the duration and put back afterwards.
    Without it, epochs are scaled by the readings at their ends only.
    """
    original = Adadelta.__dict__.get("step")
    if original is None:
        yield
        return

    @functools.wraps(original)
    def step(optimizer, *args, **kwargs):
        result = original(optimizer, *args, **kwargs)
        clock().sample()
        return result

    Adadelta.step = step
    try:
        yield
    finally:
        Adadelta.step = original


@dataclass
class Trained:
    step1: object
    slot_models: dict
    logs: dict
    step1_turns: int  # epochs times the turns handed to training, validation split included
    step1_clock: EpochClock
    step2_turns: int
    step2_clocks: list[EpochClock]
    checkpoint_dir: Path


@dataclass
class Loaded:
    seconds: float
    pace: float  # the host gauge around the set-up
    test: object
    step1: object
    slot_models: dict


@dataclass
class Pass:
    """One decode pass over the test turns: per turn, latency (seconds), frame and the gauge's pace."""

    step1_only: bool
    latencies: list[float]
    frames: list
    paces: list[float]


class Run:
    """One run of one workload with one seed, inside ``workdir``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.ops = Ops()
        self.gauge = HostGauge()
        self.failures: list[str] = []
        self.notes: dict = {}  # facts about the run written next to its shape
        self.files = generate(workload.shape, seed, self.workdir / "corpus")
        self.config = RunConfig(
            model=workload.variant, embeddings=str(self.files.vectors), embedding_dim=VECTOR_DIM,
            batch_size=workload.batch_size, max_epochs=workload.epochs, patience=0,
            validation_fraction=VALIDATION_FRACTION, seed=TRAINING_SEED,
        )

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def _required(self, fn: Callable, *args, **kwargs):
        result = self.ops.call(fn, *args, **kwargs)
        if result is None:
            raise RunFailed(self.ops.errors[-1])
        return result

    # -- phases -------------------------------------------------------------

    def train(self, name: str) -> Trained:
        """Step one, step two for every multi-valued slot, then save."""
        store = self._required(embeddings.load_vectors, self.files.vectors, expected_dim=VECTOR_DIM)
        dataset = self._required(data.read_canonical, self.files.train)
        epochs = self.config.max_epochs
        clocks = [EpochClock(self.gauge)]
        with gauge_between_steps(lambda: clocks[-1]):
            step1, log1 = self._required(training.train_step1, dataset, self.config, store, log_fn=clocks[0])
            slot_models, logs = {}, {"step1": log1.to_json_dict(), "slots": {}}
            step2_turns = 0
            for slot in dataset.ontology.slots:
                if len(dataset.ontology.slot_values(slot)) < 2:
                    continue
                clocks.append(EpochClock(self.gauge))
                model, log = self._required(training.train_step2, dataset, slot, self.config, store,
                                            log_fn=clocks[-1])
                step2_turns += epochs * sum(1 for t in dataset.turns if any(s == slot for s, _ in t.reference.pairs))
                slot_models[slot] = model
                logs["slots"][slot] = log.to_json_dict()
        outdir = self.workdir / name
        self.ops.call(checkpoint.save_checkpoint_dir, outdir, step1, slot_models, self.config, train_log=logs)
        return Trained(step1, slot_models, logs, epochs * len(dataset.turns), clocks[0],
                       step2_turns, clocks[1:], outdir)

    def load(self, checkpoint_dir: Path) -> Loaded:
        """One decoder set-up: vectors, test set and checkpoint."""
        before = self.gauge.pace()
        started = time.perf_counter()
        store = self._required(embeddings.load_vectors, self.files.vectors, expected_dim=VECTOR_DIM)
        test = self._required(data.read_canonical, self.files.test)
        step1, slot_models, _ = self._required(checkpoint.load_checkpoint_dir, checkpoint_dir, store)
        seconds = time.perf_counter() - started
        return Loaded(seconds, (before + self.gauge.pace()) / 2, test, step1, slot_models)

    def decode_pass(self, loaded: Loaded, step1_only: bool, reference: bool = False) -> Pass:
        """Decode every test turn in dialogue order, one call at a time.

        A failed call leaves ``None`` as its frame and ``inf`` as its
        latency.  The host gauge bursts between calls, every few turns and
        after the last; a turn's pace is the median of the ``PACE_BURSTS``
        bursts nearest its group, half on either side, since one burst
        alone is noisy.  With ``reference`` the bursts also join the gauge's
        reference.
        """
        frames, latencies, bursts = [], [], []
        for position, turn in enumerate(loaded.test.turns):
            if position % GAUGE_EVERY == 0:
                bursts.append(self.gauge.burst(reference))
            started = time.perf_counter()
            frame = self.ops.call(decoder.decode_turn, turn, loaded.step1, loaded.slot_models,
                                  step1_only=step1_only)
            elapsed = time.perf_counter() - started
            latencies.append(elapsed if frame is not None else math.inf)
            frames.append(frame)
        bursts.append(self.gauge.burst(reference))
        half = PACE_BURSTS // 2
        paces = [statistics.median(bursts[max(0, i // GAUGE_EVERY + 1 - half): i // GAUGE_EVERY + 1 + half])
                 for i in range(len(latencies))]
        return Pass(step1_only, latencies, frames, paces)

    def decode_for(self, loaded: Loaded, seconds: float) -> list[Pass]:
        """Rounds of (full pass, step-one pass) for ``seconds``, and at least ``MIN_ROUNDS``.

        Only the first ``MIN_ROUNDS`` rounds, which always run, add to the
        gauge's reference, so the number of rounds cannot move it.
        """
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < 2 * MIN_ROUNDS or time.perf_counter() < deadline:
            reference = len(passes) < 2 * MIN_ROUNDS
            passes.append(self.decode_pass(loaded, False, reference))
            passes.append(self.decode_pass(loaded, True, reference))
        return passes

    # -- checks -------------------------------------------------------------

    def check_training(self, trained: Trained) -> None:
        """Every loss is finite and the last epoch's is below the first's."""
        logs = [("step one", trained.logs["step1"])]
        logs += [(f"slot {slot}", log) for slot, log in trained.logs["slots"].items()]
        for label, log in logs:
            losses = [epoch["loss"] for epoch in log["epochs"]]
            self.check(all(math.isfinite(x) for x in losses), f"{label}: non-finite training loss {losses}")
            self.check(losses[-1] < losses[0], f"{label}: last epoch loss {losses[-1]} is not below the first {losses[0]}")

    def check_frames(self, loaded: Loaded, frames: list) -> None:
        """Every frame is present, inside the ontology, and survives the frames file."""
        ontology = loaded.step1.ontology
        for turn, frame in zip(loaded.test.turns, frames):
            where = f"turn {turn.session}:{turn.index}"
            if frame is None:
                self.check(False, f"{where}: decode failed")
                continue
            self.check(frame.act in ontology.acts, f"{where}: act {frame.act!r} outside the ontology")
            for item in frame.slots:
                inventory = ontology.values.get(item.slot, ())
                self.check(item.value in inventory, f"{where}: {item.slot}={item.value!r} outside the ontology")
        if None in frames:
            return
        path = self.workdir / "frames.jsonl"
        decoder.write_frames(path, frames, loaded.test.turns)
        _, rows = decoder.read_frames(path)
        self.check([row[2] for row in rows] == frames, "frames changed in a write/read round trip")

    def check_passes(self, passes: list[Pass], reference: list) -> None:
        """Every pass repeats the warm-up frames; step one agrees with the full pipeline."""
        step1_reference = None
        for decoded in passes:
            if not decoded.step1_only:
                self.check(decoded.frames == reference, "a full-pipeline pass differs from the warm-up pass")
                continue
            step1_reference = step1_reference or decoded.frames
            self.check(decoded.frames == step1_reference, "a step-one pass differs from the first one")
            agree = all(
                full is not None and part is not None and full.act == part.act
                and full.act_confidence == part.act_confidence
                and [s.slot for s in full.slots] == [s.slot for s in part.slots]
                for full, part in zip(reference, decoded.frames)
            )
            self.check(agree, "a step-one frame disagrees with the full frame's act or slots")

    def check_reload(self, trained: Trained, fresh: Loaded, reference: list) -> None:
        """The in-memory model and a freshly loaded checkpoint agree with the decoded frames."""
        turns = fresh.test.turns
        indices = sample_indices(len(turns), CHECK_SAMPLE, self.seed)
        in_memory = [decoder.decode_turn(turns[i], trained.step1, trained.slot_models) for i in indices]
        self.check(in_memory == [reference[i] for i in indices],
                   "the saved checkpoint decodes differently from the in-memory model")
        for message in shuffled_order_check(
            turns, reference, lambda t: decoder.decode_turn(t, fresh.step1, fresh.slot_models), indices
        ):
            self.check(False, message)


def sample_indices(count: int, size: int, seed: int) -> list[int]:
    """A seeded sample of turn positions, in shuffled order."""
    rng = np.random.default_rng([seed, 1])
    return [int(i) for i in rng.permutation(count)[: min(size, count)]]


def shuffled_order_check(turns: Sequence, reference: list, decode: Callable, indices: Sequence[int]) -> list[str]:
    """Decode the sampled turns in the given (shuffled) order and compare.

    A decoder that carries state from one call to the next, such as a
    context cache keyed on the wrong thing, gives different frames here
    than in dialogue order.  Returns one message per mismatch.
    """
    mismatches = []
    for i in indices:
        if decode(turns[i]) != reference[i]:
            mismatches.append(f"turn {turns[i].session}:{turns[i].index} decodes differently out of order")
    return mismatches


def item_f1(frames: list, turns: Sequence) -> float:
    predicted = [frame_items(f, FULL) for f in frames]
    references = [reference_items(t.reference, FULL) for t in turns]
    return prf1(item_counts(predicted, references))[2]


def _metric(value: float, unit: str, samples: int | None = None, raw: float | None = None) -> dict:
    """One metric; ``raw`` is a gauge-scaled timing's value as measured."""
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    if raw is not None:
        out["raw"] = raw
    return out


def _per_turn(gauge: HostGauge, passes: list[Pass], scale: bool) -> np.ndarray:
    """Each turn's median latency over the passes, at full host speed when ``scale``."""
    latencies = [[gauge.at_full_speed(x, pace) if scale else x for x, pace in zip(p.latencies, p.paces)]
                 for p in passes]
    return np.median(np.asarray(latencies), axis=0)


def _ms(per_turn: np.ndarray, q: int) -> float:
    return float(np.percentile(per_turn, q)) * 1000.0


def step_two_fan_out(frames: list, slot_models: dict) -> dict:
    """How often full-pipeline decoding ran step two: value predictions per turn, share of turns with one."""
    calls = [sum(1 for item in frame.slots if item.slot in slot_models) for frame in frames]
    return {"calls_per_turn": sum(calls) / len(calls), "turn_share": sum(1 for c in calls if c) / len(calls)}


def end_to_end(run: Run, seconds: float) -> dict:
    """The untraced run: every end-to-end metric."""
    trained = run.train("checkpoint")
    run.check_training(trained)
    loads = [run.load(trained.checkpoint_dir) for _ in range(SETUP_REPEATS)]
    setups = [(loaded.seconds, loaded.pace) for loaded in loads]
    fresh, loaded = loads[0], loads[-1]
    del loads

    reference = run.decode_pass(loaded, False).frames  # the warm-up pass
    run.check_frames(loaded, reference)
    passes = run.decode_for(loaded, seconds)
    run.check_passes(passes, reference)
    run.check_reload(trained, fresh, reference)

    if None not in reference:
        run.notes["step_two"] = step_two_fan_out(reference, loaded.slot_models)

    # Every timing is scaled to the host's full speed; the raw value is kept next to it.
    gauge = run.gauge
    run.notes["gauge"] = {"reference_bursts": len(gauge.reference), "full_speed_ms": min(gauge.reference) * 1e3,
                          "median_ms": statistics.median(gauge.reference) * 1e3}
    setup_s = statistics.median(gauge.at_full_speed(*setup) for setup in setups)
    setup_raw = statistics.median(seconds for seconds, _ in setups)
    clocks1, clocks2 = [trained.step1_clock], trained.step2_clocks
    turns = loaded.test.turns
    n = len(turns)
    full_passes = [p for p in passes if not p.step1_only]
    step1_passes = [p for p in passes if p.step1_only]
    full, full_raw = _per_turn(gauge, full_passes, True), _per_turn(gauge, full_passes, False)
    step1, step1_raw = _per_turn(gauge, step1_passes, True), _per_turn(gauge, step1_passes, False)
    ok = run.ops.attempted - run.ops.failed
    log1 = trained.logs["step1"]["epochs"]
    f1 = item_f1(reference, turns) if None not in reference else 0.0

    def throughput(count: int, clocks: list[EpochClock]) -> dict:
        return _metric(count / sum(c.seconds() for c in clocks), "turns/s", count,
                       count / sum(c.raw_seconds() for c in clocks))

    return {
        "setup_s": _metric(setup_s, "s", SETUP_REPEATS, setup_raw),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ops_ratio": _metric(ok / run.ops.attempted, "ratio", run.ops.attempted),
        "train_step1_turns_per_s": throughput(trained.step1_turns, clocks1),
        "train_step2_turns_per_s": throughput(trained.step2_turns, clocks2),
        "train_step1_val_f1": _metric(float(log1[-1]["val_metric"]), "fraction"),
        "decode_p50_ms": _metric(_ms(full, 50), "ms", n, _ms(full_raw, 50)),
        "decode_p95_ms": _metric(_ms(full, 95), "ms", n, _ms(full_raw, 95)),
        "decode_turns_per_s": _metric(n / float(np.sum(full)), "turns/s", n, n / float(np.sum(full_raw))),
        "step1_decode_p50_ms": _metric(_ms(step1, 50), "ms", n, _ms(step1_raw, 50)),
        "step1_decode_p95_ms": _metric(_ms(step1, 95), "ms", n, _ms(step1_raw, 95)),
        "decode_item_f1": _metric(f1, "fraction", n),
    }


END_TO_END = (
    "setup_s", "peak_rss_mb", "ok_ops_ratio", "train_step1_turns_per_s", "train_step2_turns_per_s",
    "train_step1_val_f1", "decode_p50_ms", "decode_p95_ms", "decode_turns_per_s", "step1_decode_p50_ms",
    "step1_decode_p95_ms", "decode_item_f1",
)
LAYERS = (
    "decoder.decode_turn", "model.encode", "sentence.encode_sentence", "context.run_context_lstm",
    "context.combine", "model.heads", "autograd.nll_loss", "autograd.backward", "optim.step",
    "training.step1_f1", "decoder.predict_joint", "decoder.predict_value", "checkpoint.load_checkpoint_dir",
    "checkpoint.save_checkpoint_dir", "embeddings.load_vectors", "data.read_canonical",
)
LAYER_EXTRAS = (
    "training.step1_f1.total_ms", "sentence.encode_sentence.hyps_per_call",
    "context.run_context_lstm.tokens_per_call", "decoder.predict_value.calls_per_turn",
    "autograd.tensors_per_turn", "trace.overhead_ratio",
)
PER_LAYER = tuple(f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_ms", "ms_per_call")) + LAYER_EXTRAS


def traced(run: Run, spans_path: Path) -> dict:
    """The traced run: the workload's phase twice, untraced then traced.

    A train workload's phase is training plus the decoder set-ups.  A
    decode workload first trains its fixture and makes a warm-up pass,
    untraced; its phase is the set-ups plus one full and one step-one pass.
    """
    decode_phase = run.workload.traced == "decode"
    fixture = None
    if decode_phase:
        fixture = run.train("checkpoint")
        run.decode_pass(run.load(fixture.checkpoint_dir), False)

    def phase(name: str) -> tuple[Trained, list[Loaded], int]:
        trained = fixture or run.train(name)
        loads = [run.load(trained.checkpoint_dir) for _ in range(SETUP_REPEATS)]
        if not decode_phase:
            return trained, loads, trained.step1_turns + trained.step2_turns
        for step1_only in (False, True):
            run.decode_pass(loads[-1], step1_only)
        return trained, loads, 2 * len(loads[-1].test.turns)

    started = time.perf_counter()
    trained, loads, _ = phase("checkpoint")
    plain_seconds = time.perf_counter() - started
    run.check_training(trained)
    reference = run.decode_pass(loads[-1], False).frames
    run.check_frames(loads[-1], reference)
    run.check_reload(trained, loads[0], reference)

    del loads
    tracer = Tracer(default_targets())
    started = time.perf_counter()
    with tracer:
        _, _, turns = phase("checkpoint-traced")
    traced_seconds = time.perf_counter() - started
    tracer.write(spans_path)

    table = layer_table(tracer.spans)
    empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    metrics = {}
    for layer in LAYERS:
        row = table.get(layer, empty)
        metrics[f"{layer}.calls"] = _metric(row["calls"], "count")
        metrics[f"{layer}.self_ms"] = _metric(row["self_ms"], "ms")
        metrics[f"{layer}.ms_per_call"] = _metric(row["total_ms"] / row["calls"] if row["calls"] else 0.0, "ms")
    metrics["training.step1_f1.total_ms"] = _metric(table.get("training.step1_f1", empty)["total_ms"], "ms")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def counter(layer: str, name: str) -> int:
        return tracer.counters.get(layer, {}).get(name, 0)

    def calls(layer: str) -> int:
        return table.get(layer, empty)["calls"]

    metrics["sentence.encode_sentence.hyps_per_call"] = _metric(
        ratio(counter("sentence.encode_sentence", "hyps"), calls("sentence.encode_sentence")), "count")
    metrics["context.run_context_lstm.tokens_per_call"] = _metric(
        ratio(counter("context.run_context_lstm", "tokens"), calls("context.run_context_lstm")), "count")
    metrics["decoder.predict_value.calls_per_turn"] = _metric(
        ratio(calls("decoder.predict_value"), counter("decoder.decode_turn", "full_turns")), "count")
    metrics["autograd.tensors_per_turn"] = _metric(ratio(tracer.tensors, turns), "count")
    metrics["trace.overhead_ratio"] = _metric(traced_seconds / plain_seconds, "ratio")
    return metrics
