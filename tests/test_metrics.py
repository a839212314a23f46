"""Item counting, precision/recall/F1, joint accuracy, and ICE."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nbestslu
from nbestslu.data import ReferenceFrame
from nbestslu.decoder import SemanticFrame, SlotValuePrediction
from nbestslu.errors import DomainError
from nbestslu.metrics import (
    FULL,
    Counts,
    act_item,
    frame_items,
    head_accuracies,
    ice,
    item_counts,
    joint_accuracy,
    prf1,
    reference_items,
    slot_value_item,
)


class TestItemCounts:
    def test_perfect_match(self):
        items = [{act_item("inform"), slot_value_item("area", "north")}]
        counts = item_counts(items, [set(items[0])])
        assert counts == Counts(tp=2, fp=0, fn=0)

    def test_partial_overlap(self):
        pred = [{act_item("a"), slot_value_item("s", "b")}]
        ref = [{slot_value_item("s", "b"), slot_value_item("s2", "c")}]
        assert item_counts(pred, ref) == Counts(tp=1, fp=1, fn=1)

    def test_empty_prediction(self):
        ref = [{act_item("a"), slot_value_item("s", "v"), slot_value_item("t", "w")}]
        assert item_counts([set()], ref) == Counts(tp=0, fp=0, fn=3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            item_counts([set()], [set(), set()])

    def test_order_invariance_over_turns(self):
        rng = np.random.default_rng(0)
        turns = []
        for _ in range(50):
            pred = {slot_value_item("s", str(v)) for v in rng.integers(0, 10, size=4)}
            ref = {slot_value_item("s", str(v)) for v in rng.integers(0, 10, size=4)}
            turns.append((pred, ref))
        forward = item_counts([p for p, _ in turns], [r for _, r in turns])
        backward = item_counts([p for p, _ in reversed(turns)], [r for _, r in reversed(turns)])
        assert forward == backward


class TestPrf1:
    def test_balanced_half(self):
        p, r, f1 = prf1(Counts(tp=1, fp=1, fn=1))
        assert p == r == f1 == 0.5

    def test_vacuous_perfection(self):
        assert prf1(Counts(0, 0, 0)) == (1.0, 1.0, 1.0)

    def test_total_miss(self):
        p, r, f1 = prf1(Counts(tp=0, fp=5, fn=5))
        assert p == 0.0 and r == 0.0 and f1 == 0.0

    def test_brute_force_oracle_on_random_turn_sets(self):
        # Independent oracle: explicit set intersection per turn, then the
        # textbook formulas.
        rng = np.random.default_rng(42)
        universe = [("slot", "s", str(v)) for v in range(12)] + [("act", str(a)) for a in range(4)]
        for _ in range(1000):
            n_turns = int(rng.integers(1, 5))
            preds, refs = [], []
            tp = fp = fn = 0
            for _ in range(n_turns):
                pred = {universe[int(i)] for i in rng.choice(len(universe), size=int(rng.integers(0, 6)))}
                ref = {universe[int(i)] for i in rng.choice(len(universe), size=int(rng.integers(0, 6)))}
                preds.append(pred)
                refs.append(ref)
                inter = len([x for x in pred if x in ref])
                tp += inter
                fp += len(pred) - inter
                fn += len(ref) - inter
            expected_p = tp / (tp + fp) if tp + fp else 1.0
            expected_r = tp / (tp + fn) if tp + fn else 1.0
            expected_f1 = (
                2 * expected_p * expected_r / (expected_p + expected_r) if expected_p + expected_r else 0.0
            )
            counts = item_counts(preds, refs)
            assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
            assert prf1(counts) == pytest.approx((expected_p, expected_r, expected_f1), abs=1e-12)


def frame(act, conf=1.0, slots=()):
    return SemanticFrame(act, conf, tuple(SlotValuePrediction(s, v, c) for s, v, c in slots))


class TestJointAccuracy:
    SLOTS = ("area", "food", "pricerange", "slot", "this")

    def test_all_heads_correct(self):
        frames = [frame("inform", slots=(("area", "north", 0.9),))]
        refs = [ReferenceFrame("inform", (("area", "north"),))]
        assert joint_accuracy(frames, refs, self.SLOTS) == 1.0

    def test_act_always_wrong_slots_always_right(self):
        frames = [frame("request") for _ in range(10)]
        refs = [ReferenceFrame("inform", ()) for _ in range(10)]
        assert joint_accuracy(frames, refs, self.SLOTS) == pytest.approx(5.0 / 6.0)

    def test_uniform_random_act_expectation(self):
        rng = np.random.default_rng(7)
        acts = [f"act{i}" for i in range(14)]
        n = 20_000
        frames, refs = [], []
        for _ in range(n):
            frames.append(frame(acts[int(rng.integers(14))]))
            refs.append(ReferenceFrame(acts[int(rng.integers(14))], ()))
        expected = (1.0 / 14.0 + 5.0) / 6.0
        assert joint_accuracy(frames, refs, self.SLOTS) == pytest.approx(expected, abs=0.01)


    def test_head_accuracies_score_the_mapped_reference_act(self):
        frames = [frame("inform", slots=(("area", "north", 0.9),)), frame("inform")]
        refs = [ReferenceFrame("inform|negate", (("area", "north"),)), ReferenceFrame("bye", ())]
        keep_first = lambda pattern: pattern.split("|")[0]
        accuracies = head_accuracies(frames, refs, ("area", "food"), keep_first)
        assert accuracies == {"act": 0.5, "slot:area": 1.0, "slot:food": 1.0}
        assert head_accuracies(frames, refs, ("area", "food"))["act"] == 0.0


class TestIce:
    def test_perfect_confident_predictions_score_zero(self):
        scored = [{act_item("inform"): 1.0, slot_value_item("area", "north"): 1.0}]
        refs = [{act_item("inform"), slot_value_item("area", "north")}]
        assert ice(scored, refs) == 0.0

    def test_half_confidence_on_the_single_reference_item(self):
        scored = [{slot_value_item("area", "north"): 0.5}]
        refs = [{slot_value_item("area", "north")}]
        assert ice(scored, refs) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_false_item_at_half_confidence(self):
        scored = [{act_item("inform"): 1.0, slot_value_item("food", "thai"): 0.5}]
        refs = [{act_item("inform")}]
        assert ice(scored, refs) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_unmentioned_items_contribute_nothing(self):
        scored = [{act_item("inform"): 1.0}]
        refs = [{act_item("inform")}]
        assert ice(scored, refs) == 0.0

    def test_clamping_bounds_the_penalty(self):
        scored = [{act_item("inform"): 0.0}]
        refs = [{act_item("inform")}]
        assert ice(scored, refs) == pytest.approx(-math.log(1e-6), abs=1e-9)

    def test_monotonicity_in_correct_item_confidence(self):
        refs = [{act_item("a")}]
        values = [ice([{act_item("a"): c}], refs) for c in (0.2, 0.5, 0.9, 0.99)]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))

    def test_monotonicity_in_incorrect_item_confidence(self):
        refs = [{act_item("a")}]
        values = [
            ice([{act_item("a"): 1.0, act_item("b"): c}], refs) for c in (0.01, 0.3, 0.6, 0.95)
        ]
        assert all(earlier < later for earlier, later in zip(values, values[1:]))

    def test_normalizer_is_total_reference_items(self):
        scored = [{act_item("a"): 0.5}, {act_item("b"): 0.5, slot_value_item("s", "v"): 0.5}]
        refs = [{act_item("a")}, {act_item("b"), slot_value_item("s", "v")}]
        assert ice(scored, refs) == pytest.approx(3 * math.log(2.0) / 3, abs=1e-12)

    def test_the_sum_does_not_depend_on_the_string_hash_seed(self):
        # Set iteration order follows PYTHONHASHSEED; a float sum in that
        # order would round differently from one process to the next.
        script = (
            "import numpy as np\n"
            "from nbestslu.metrics import ice, slot_value_item\n"
            "rng = np.random.default_rng(5)\n"
            "items = [slot_value_item(f's{i}', f'v{i}') for i in range(40)]\n"
            "scored = [{item: float(c) for item, c in zip(items, rng.uniform(0.01, 0.99, 40))}]\n"
            "print(repr(ice(scored, [set(items[::3])])))\n"
        )
        paths = [str(Path(nbestslu.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in range(6)
        }
        assert len(outputs) == 1, outputs

    def test_no_reference_items_is_an_explicit_condition(self):
        assert ice([{act_item("a"): 0.9}], [set()]) is None


class TestItemExtraction:
    def test_reference_items_full_and_step1(self):
        ref = ReferenceFrame("inform", (("area", "north"), ("food", "thai")))
        assert reference_items(ref, FULL) == {
            act_item("inform"),
            slot_value_item("area", "north"),
            slot_value_item("food", "thai"),
        }
        assert reference_items(ref, "step1") == {
            act_item("inform"),
            ("slot", "area"),
            ("slot", "food"),
        }

    def test_frame_items_lowercase(self):
        f = frame("INFORM", slots=(("Area", "North", 0.9),))
        assert frame_items(f, FULL) == {act_item("inform"), slot_value_item("area", "north")}

    def test_presence_only_frames_score_as_step1_items(self):
        f = SemanticFrame("request", 0.8, (SlotValuePrediction("slot", None, 0.7),))
        assert frame_items(f, FULL) == {act_item("request"), ("slot", "slot")}
