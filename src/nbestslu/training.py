"""Training loops for the joint model and the per-slot value models.

Both steps share the regime: shuffled mini-batches, the Adadelta rule,
dropout on the combined hidden vector, a seeded dialogue-level validation
split, and early stopping on the validation metric (micro item-F1 for the
joint model, value accuracy for slot models).  The returned model carries
the best-on-validation parameters: the best epoch's ``model.arrays()``,
written back in place by ``model.load_arrays``.  Setting ``patience`` to
zero disables early stopping and keeps the final epoch instead.

Mini-batch gradients are the mean of per-example gradients, so the loss
scale does not depend on the batch size.  A mini-batch is one context-LSTM
run over its examples' histories (while they hold at most
``model.CONTEXT_TOKENS`` tokens), one convolution over their n-best lists,
one [B, H] matrix of hidden vectors that takes dropout, the heads and the
loss as a whole, and one backward pass over the batch's summed loss.
Validation decodes its whole split as one list, through
``decoder.decode_turns`` or, for value models, ``decoder.predict_values``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from . import decoder
from . import rng as rng_mod
from .autograd import Tensor, dropout_apply, nll_loss, stack
from .config import RunConfig
from .data import Dataset, Turn, collect_system_tokens, make_folds, split_turns
from .errors import DomainError
from .metrics import STEP1, frame_items, head_accuracies, item_counts, prf1, reference_items, score_frames
from .model import SlotValueModel, StepOneModel
from .optim import Adadelta

LogFn = Callable[[str], None]


@dataclass
class TrainLog:
    """Per-epoch record of one training run; a metric is None when there is no validation split."""

    epochs: list[dict] = dataclass_field(default_factory=list)
    best_epoch: int = 0
    best_metric: float | None = None
    notes: list[str] = dataclass_field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def step1_f1(model: StepOneModel, turns: Sequence[Turn]) -> float:
    """Micro item-F1 of act plus slot-presence items."""
    frames = decoder.decode_turns(turns, model, {}, step1_only=True)
    preds = [frame_items(f, STEP1) for f in frames]
    refs = [reference_items(t.reference, STEP1) for t in turns]
    return prf1(item_counts(preds, refs))[2]


def step1_head_accuracies(model: StepOneModel, turns: Sequence[Turn]) -> dict[str, float]:
    """Per-head accuracy against the model's own training targets."""
    frames = decoder.decode_turns(turns, model, {}, step1_only=True)
    return head_accuracies(frames, [t.reference for t in turns], model.ontology.slots, model.ontology.act_label)


def _run_epochs(*, model, examples: Sequence[tuple[Turn, object]], loss_fn, val_metric_fn,
                log_fn: LogFn | None, log: TrainLog) -> None:
    """Train ``model`` in place on ``examples``, a list of (turn, target) pairs.

    Each epoch visits the examples in a fresh ``SHUFFLE`` order, in
    mini-batches.  The context LSTM runs once over a mini-batch's
    histories (``TurnEncoder.contexts``) and the convolution once over its
    n-best lists (``TurnEncoder.sentences``).  Each turn is encoded with its
    context state and sentence vector, and ``stack`` makes the batch's
    hidden vectors the rows of one [B, H] tensor.  Dropout masks the whole
    matrix with one draw from the ``DROPOUT`` stream, row b taking what
    example b alone would draw, and ``loss_fn(model, hidden, targets)``
    gives the batch's summed loss over the rows and their B targets, read
    with ``item`` for the epoch's mean.  One backward pass leaves the
    summed gradients for the optimizer step.
    ``val_metric_fn(model)`` scores each epoch; it is None when there are no
    validation turns, and early stopping is then off.
    """
    config = model.config
    optimizer = Adadelta(model.parameters(), config.adadelta_rho, config.adadelta_epsilon)
    shuffle_rng = rng_mod.substream(config.seed, rng_mod.SHUFFLE)
    dropout_rng = rng_mod.substream(config.seed, rng_mod.DROPOUT)
    nbests = [decoder.turn_nbest(turn) for turn, _ in examples]

    early_stopping = config.patience > 0 and val_metric_fn is not None
    if config.patience > 0 and val_metric_fn is None:
        log.notes.append("no validation dialogues available; early stopping disabled")
    best: dict[str, np.ndarray] | None = None
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(examples))
        total_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            contexts = model.encoder.contexts([examples[j][0].system_history for j in batch])
            sentences = model.encoder.sentences([nbests[j] for j in batch])
            hidden = stack([model.encoder.encode(nbests[j], examples[j][0].system_history, context, sentence)
                            for j, context, sentence in zip(batch, contexts, sentences)])
            loss = loss_fn(model, dropout_apply(hidden, config.dropout, dropout_rng), [examples[j][1] for j in batch])
            total_loss += loss.item()
            loss.backward()
            optimizer.step(len(batch))
        mean_loss = total_loss / len(examples)

        val_metric = val_metric_fn(model) if val_metric_fn else None
        log.epochs.append({"epoch": epoch, "loss": mean_loss, "val_metric": val_metric})
        if log_fn:
            shown = "n/a" if val_metric is None else f"{val_metric:.4f}"
            log_fn(f"epoch {epoch}: loss {mean_loss:.4f} val {shown}")

        if early_stopping:
            if log.best_metric is None or val_metric > log.best_metric:
                best = model.arrays()
                log.best_epoch = epoch
                log.best_metric = val_metric
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= config.patience:
                    log.notes.append(f"early stop at epoch {epoch} (best epoch {log.best_epoch})")
                    break
    # A model that outlives its run must not pin the run's gradient buffers.
    optimizer.release()

    if early_stopping:
        model.load_arrays(best, "best epoch")
    else:
        log.best_epoch = len(log.epochs)
        log.best_metric = log.epochs[-1]["val_metric"]


def train_step1(
    dataset: Dataset, config: RunConfig, store, *, log_fn: LogFn | None = None
) -> tuple[StepOneModel, TrainLog]:
    """Train the joint act / slot-presence model on a dataset."""
    if not dataset.turns:
        raise DomainError("cannot train on an empty dataset")
    system_tokens = collect_system_tokens(dataset.turns)
    model = StepOneModel.build(config, dataset.ontology, system_tokens, store)
    log = TrainLog()
    train_turns, val_turns = split_turns(dataset.turns, config.validation_fraction, config.seed)
    if not val_turns:
        log.notes.append("dataset has a single dialogue; trained without validation split")

    ontology = model.ontology
    # The columns of ``probs`` the loss reads: each head's start plus its target class; the act head's alone
    # when ``act_only``.
    starts = model.starts[:1] if config.act_only else model.starts

    def target_of(turn: Turn) -> tuple[int, ...]:
        present = {s for s, _ in turn.reference.pairs}
        act = ontology.act_index(ontology.act_label(turn.reference.act_pattern))
        return (act, *(int(slot in present) for slot in ontology.slots))[: len(starts)]

    def loss_fn(model: StepOneModel, hidden: Tensor, targets) -> Tensor:
        return nll_loss(model.probs(hidden), np.add(targets, starts))

    _run_epochs(
        model=model,
        examples=[(t, target_of(t)) for t in train_turns],
        loss_fn=loss_fn,
        val_metric_fn=(lambda model: step1_f1(model, val_turns)) if val_turns else None,
        log_fn=log_fn,
        log=log,
    )
    return model, log


def train_step2(
    dataset: Dataset, slot: str, config: RunConfig, store, *, log_fn: LogFn | None = None
) -> tuple[SlotValueModel | None, TrainLog]:
    """Train the value model for one slot; None when the slot is skipped.

    Training sees exactly the turns whose reference contains the slot; the
    target is the reference value (the first one, if a turn carries
    several).  Slots with fewer than two observed values are skipped:
    detecting them in step one already determines the value.
    """
    if slot not in dataset.ontology.slots:
        raise DomainError(f"unknown slot {slot!r}")
    log = TrainLog()
    values = dataset.ontology.slot_values(slot)
    if len(values) < 2:
        log.notes.append(f"slot {slot!r} has a single observed value; value model skipped")
        if log_fn:
            log_fn(log.notes[-1])
        return None, log

    turns = [t for t in dataset.turns if any(s == slot for s, _ in t.reference.pairs)]
    model = SlotValueModel.build(config, dataset.ontology, slot, collect_system_tokens(dataset.turns), store)

    def value_of(turn: Turn) -> str:
        return next(v for s, v in turn.reference.pairs if s == slot)

    train_turns, val_turns = split_turns(
        turns, config.validation_fraction, config.seed, extra=(dataset.ontology.slots.index(slot) + 1,)
    )
    val_nbests = [decoder.turn_nbest(t) for t in val_turns]

    def value_accuracy(model: SlotValueModel) -> float:
        predicted = decoder.predict_values(model, val_turns, val_nbests)
        return sum(value == value_of(t) for t, (value, _) in zip(val_turns, predicted)) / len(val_turns)

    _run_epochs(
        model=model,
        examples=[(t, values.index(value_of(t))) for t in train_turns],
        loss_fn=lambda model, hidden, values: nll_loss(model.value_probs(hidden), values),
        val_metric_fn=value_accuracy if val_turns else None,
        log_fn=log_fn,
        log=log,
    )
    return model, log


def train_run(dataset: Dataset, config: RunConfig, store, *, step1_only: bool = False,
              log_fn: LogFn | None = None) -> tuple[StepOneModel, dict[str, SlotValueModel], dict]:
    """Train step one, then unless ``step1_only`` each slot's value model: (step1, slot_models, logs).

    ``logs`` is ``train_log.json``'s document; a skipped single-valued slot has a log there and no model."""
    step1, log1 = train_step1(dataset, config, store, log_fn=log_fn)
    trained = {}
    for slot in () if step1_only else dataset.ontology.slots:
        if log_fn:
            log_fn(f"training value model for slot {slot!r}")
        trained[slot] = train_step2(dataset, slot, config, store, log_fn=log_fn)
    logs = {"step1": log1.to_json_dict(), "slots": {slot: log.to_json_dict() for slot, (_, log) in trained.items()}}
    return step1, {slot: model for slot, (model, _) in trained.items() if model is not None}, logs


def cross_validate_step1(dataset: Dataset, config: RunConfig, store, *, log_fn: LogFn | None):
    """``config.cv_folds``-fold dialogue-level cross-validation of the joint model.

    Returns (per-fold ScoreReports, summary dict with mean and population
    stdev per metric).  Each fold trains on the other folds with its own
    derived ontology and is scored on the held-out fold in presence mode.
    """
    reports = []
    for fold, held in enumerate(make_folds(dataset, config.cv_folds, config.seed)):
        train_ds = dataset.subset([s for s in dataset.sessions if s not in held], note=f"cv-train-{fold}")
        held_ds = dataset.subset(held, note=f"cv-held-{fold}")
        if log_fn:
            log_fn(f"fold {fold}: {train_ds.dialogue_count} train / {held_ds.dialogue_count} held dialogues")
        model, _ = train_step1(train_ds, config, store, log_fn=log_fn)
        frames = decoder.decode_turns(held_ds.turns, model, {}, step1_only=True)
        report = score_frames(frames, held_ds.turns, model.ontology, STEP1)
        reports.append(report)
        if log_fn:
            log_fn(f"fold {fold}: f1 {report.f1:.4f} acc {report.accuracy:.4f} ice {report.ice:.4f}")

    summary = {}
    for metric in ("accuracy", "precision", "recall", "f1", "ice"):
        series = np.asarray([getattr(r, metric) for r in reports], dtype=np.float64)
        summary[metric] = {"mean": float(series.mean()), "stdev": float(series.std())}
    return reports, summary
