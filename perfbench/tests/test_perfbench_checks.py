"""The output checks catch what they exist to catch."""

from types import SimpleNamespace

import numpy as np

import workloads
from machine import HostGauge
from nbestslu.autograd import Tensor
from nbestslu.optim import Adadelta
from workloads import EpochClock, gauge_between_steps, sample_indices, shuffled_order_check

TURNS = [SimpleNamespace(session=f"d{i // 4}", index=i % 4, value=i) for i in range(20)]


def _stateless(turn):
    return ("frame", turn.value)


class _Stateful:
    """Remembers the previous call, like a context cache keyed on nothing."""

    def __init__(self):
        self.previous = None

    def __call__(self, turn):
        frame = ("frame", turn.value, self.previous)
        self.previous = turn.value
        return frame


def test_shuffled_order_passes_a_stateless_decoder():
    reference = [_stateless(t) for t in TURNS]
    assert shuffled_order_check(TURNS, reference, _stateless, sample_indices(len(TURNS), 8, 1)) == []


def test_shuffled_order_fails_a_stateful_decoder():
    stub = _Stateful()
    reference = [stub(t) for t in TURNS]  # dialogue order
    mismatches = shuffled_order_check(TURNS, reference, _Stateful(), sample_indices(len(TURNS), 8, 1))
    assert mismatches


def test_sample_is_seeded_and_shuffled():
    first = sample_indices(100, 10, 4)
    assert first == sample_indices(100, 10, 4)
    assert first != sorted(first)
    assert len(set(first)) == 10


class _FakeGauge:
    """Bursts that take 1.0 at full speed and 2.0 in a slow spell."""

    def __init__(self, paces):
        self.paces = iter(paces)
        self.reference = [1.0]

    def pace(self):
        return next(self.paces)

    burst = pace

    def at_full_speed(self, seconds, pace):
        return HostGauge.at_full_speed(self, seconds, pace)


def test_epoch_clock_scales_each_segment_to_full_speed(monkeypatch):
    monkeypatch.setattr(workloads, "SEGMENT_SECONDS", 0.0)
    clock = EpochClock(_FakeGauge([1.0, 2.0, 1.0, 1.0]))
    clock.sample()  # the host slowed down inside the epoch: that segment is scaled by 1.5
    clock.sample()
    clock("epoch 1")
    assert [pace for _, pace in clock.epochs[0]] == [1.5, 1.5, 1.0]
    # each epoch: 6 s while the host ran at half speed, then 3 s at full speed
    clock.epochs[:] = [[(6.0, 2.0), (3.0, 1.0)]] * 3
    assert clock.seconds() == 18.0
    assert clock.raw_seconds() == 27.0


def test_gauge_sampling_restores_the_optimizer():
    original = Adadelta.__dict__["step"]
    clock = SimpleNamespace(samples=0)
    clock.sample = lambda: setattr(clock, "samples", clock.samples + 1)
    params = {"w": Tensor(np.ones(2), requires_grad=True)}
    optimizer = Adadelta(params, 0.95, 1e-6)
    with gauge_between_steps(lambda: clock):
        params["w"].grad = np.ones(2)
        optimizer.step(1)
    assert clock.samples == 1
    assert Adadelta.__dict__["step"] is original


def test_gauge_takes_the_fastest_reference_burst_as_full_speed():
    gauge = HostGauge()
    gauge.reference[:] = [2.0, 1.0, 4.0]
    assert gauge.at_full_speed(10.0, 2.0) == 5.0


def test_only_reference_bursts_join_the_reference():
    gauge = HostGauge()
    gauge.pace(3)
    gauge.burst(reference=True)
    assert len(gauge.reference) == 4
    for _ in range(4):
        gauge.burst()  # as in decode rounds past the first: however many run, the reference stays
    assert len(gauge.reference) == 4
