"""Adadelta update rule: hand-derived values and fixed-point behavior."""

import numpy as np
import pytest

from nbestslu import autograd as ag
from nbestslu.autograd import Tensor
from nbestslu.config import RunConfig
from nbestslu.context import LstmParams
from nbestslu.embeddings import EmbeddingTable
from nbestslu.errors import DomainError, NumericFailure, ShapeMismatchError
from nbestslu.optim import CHUNK, Adadelta
from nbestslu.rng import Initializer

from _gradcheck import weighted_sum

# The paper's Adadelta settings, as ``RunConfig`` states them.
PAPER = {"rho": RunConfig().adadelta_rho, "epsilon": RunConfig().adadelta_epsilon}


def hand_update(param, grad_sum, batch_size, avg_sq_grad, avg_sq_step, rho, eps):
    """Independent execution of the three update formulas on the mean gradient.

    Written left to right in the optimizer's operation order, so the bits must match.
    """
    grad = grad_sum * (1.0 / batch_size)
    avg_sq_grad = rho * avg_sq_grad + (1 - rho) * grad * grad
    step = -np.sqrt(avg_sq_step + eps) / np.sqrt(avg_sq_grad + eps) * grad
    avg_sq_step = rho * avg_sq_step + (1 - rho) * step * step
    return param + step, avg_sq_grad, avg_sq_step


def states(optimizer: Adadelta, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A parameter's (E[g^2], E[dx^2]) in a multi-parameter optimizer: its slices of the flat accumulators."""
    start = 0
    for key, p in optimizer._params.items():
        if key == name:
            return tuple(acc[start : start + p.size].reshape(p.shape) for acc in optimizer._accumulators)
        start += p.size
    raise KeyError(name)


def one_tensor(value, **hyper) -> tuple[Tensor, Adadelta]:
    param = Tensor(np.array(value, dtype=float), requires_grad=True, name="p")
    return param, Adadelta({"p": param}, **{**PAPER, **hyper})


def step_with(param: Tensor, optimizer: Adadelta, grad) -> None:
    param.grad = np.array(grad, dtype=float)
    optimizer.step()


class TestAdadeltaStep:
    def test_zero_gradient_is_a_fixed_point(self):
        param, opt = one_tensor([1.0, -2.0, 3.0])
        before = param.data.copy()
        step_with(param, opt, np.zeros(3))
        np.testing.assert_array_equal(param.data, before)
        assert np.all(opt._accumulators[1] == 0.0)

    def test_first_step_matches_hand_execution(self):
        param, opt = one_tensor([0.0], rho=0.95, epsilon=1e-6)
        step_with(param, opt, [1.0])
        expected, *_ = hand_update(np.array([0.0]), np.array([1.0]), 1, 0.0, 0.0, 0.95, 1e-6)
        np.testing.assert_allclose(param.data, expected, rtol=0, atol=0)
        assert param.data[0] == pytest.approx(-0.004472, abs=5e-7)

    def test_accumulator_warmup_grows_the_step(self):
        param, opt = one_tensor([0.0])
        step_with(param, opt, [1.0])
        first = abs(param.data[0])
        before = param.data[0]
        step_with(param, opt, [1.0])
        assert abs(param.data[0] - before) > first

    def test_trajectory_matches_hand_execution(self):
        rng = np.random.default_rng(5)
        param, opt = one_tensor(rng.uniform(-1, 1, (3, 2)), rho=0.9, epsilon=1e-5)
        expect_param = param.data.copy()
        eg = np.zeros_like(expect_param)
        ex = np.zeros_like(expect_param)
        for _ in range(25):
            grad = rng.uniform(-2, 2, (3, 2))
            step_with(param, opt, grad)
            expect_param, eg, ex = hand_update(expect_param, grad, 1, eg, ex, 0.9, 1e-5)
        np.testing.assert_array_equal(param.data, expect_param)
        np.testing.assert_array_equal(opt._accumulators[0], eg.ravel())
        np.testing.assert_array_equal(opt._accumulators[1], ex.ravel())

    def test_accumulators_stay_non_negative(self):
        rng = np.random.default_rng(9)
        param, opt = one_tensor(np.zeros(10))
        for _ in range(100):
            step_with(param, opt, rng.uniform(-5, 5, 10))
            assert all(np.all(acc >= 0) for acc in opt._accumulators)

    def test_nan_gradient_aborts_without_touching_state(self):
        param, opt = one_tensor([1.0])
        step_with(param, opt, [0.5])
        before = (param.data.copy(), *(acc.copy() for acc in opt._accumulators))
        with pytest.raises(NumericFailure):
            step_with(param, opt, [np.nan])
        np.testing.assert_array_equal(param.data, before[0])
        np.testing.assert_array_equal(opt._accumulators[0], before[1])
        np.testing.assert_array_equal(opt._accumulators[1], before[2])

    def test_a_step_is_all_or_nothing(self):
        # The second parameter's NaN must stop the first one's update too.
        rng = np.random.default_rng(3)
        params = {name: Tensor(rng.uniform(-1, 1, 4), requires_grad=True, name=name) for name in ("a", "b")}
        opt = Adadelta(params, **PAPER)
        for p in params.values():
            p.grad = rng.uniform(-1, 1, 4)
        opt.step()
        before = {name: (p.data.copy(), *(acc.copy() for acc in states(opt, name))) for name, p in params.items()}
        params["a"].grad = rng.uniform(-1, 1, 4)
        params["b"].grad = np.array([0.1, np.nan, 0.2, 0.3])
        with pytest.raises(NumericFailure, match="for b"):
            opt.step()
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, before[name][0], err_msg=name)
            np.testing.assert_array_equal(states(opt, name)[0], before[name][1], err_msg=name)
            np.testing.assert_array_equal(states(opt, name)[1], before[name][2], err_msg=name)

    def test_shape_mismatch_rejected(self):
        param, opt = one_tensor(np.zeros(3))
        with pytest.raises(ShapeMismatchError):
            step_with(param, opt, np.zeros(4))

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(DomainError):
            one_tensor(np.zeros(2), rho=1.0)
        for epsilon in (0.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                one_tensor(np.zeros(2), epsilon=epsilon)


class TestAdadeltaOptimizer:
    def test_batch_mean_scaling(self):
        # Accumulating the same gradient twice then stepping with
        # batch_size=2 must equal one step with the raw gradient.
        a = Tensor(np.zeros(4), requires_grad=True, name="a")
        b = Tensor(np.zeros(4), requires_grad=True, name="b")
        grad = np.array([1.0, -2.0, 0.5, 3.0])

        opt_a = Adadelta({"a": a}, **PAPER)
        a.grad = grad * 2
        opt_a.step(batch_size=2)

        opt_b = Adadelta({"b": b}, **PAPER)
        b.grad = grad.copy()
        opt_b.step(batch_size=1)

        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.grad, np.zeros(4))  # step zero-fills the gradient buffer
        opt_a.release()
        assert a.grad is None

    def test_unset_gradient_leaves_value_and_decays_accumulators(self):
        param, opt = one_tensor(np.ones(3))
        step_with(param, opt, np.ones(3))
        after_first = param.data.copy()
        sq_grad, sq_step = (acc.copy() for acc in opt._accumulators)
        opt.step()  # no gradient accumulated
        np.testing.assert_array_equal(param.data, after_first)
        np.testing.assert_array_equal(opt._accumulators[0], sq_grad * 0.95)
        np.testing.assert_array_equal(opt._accumulators[1], sq_step * 0.95)

    def test_parameters_of_different_sizes_share_the_scratch(self):
        rng = np.random.default_rng(4)
        shapes = {"big": (3, 4), "small": (2,), "scalar": ()}
        params = {name: Tensor(rng.uniform(-1, 1, shape), requires_grad=True, name=name)
                  for name, shape in shapes.items()}
        alone = {name: one_tensor(p.data.copy()) for name, p in params.items()}
        opt = Adadelta(params, **PAPER)
        for _ in range(5):
            for name, p in params.items():
                grad = rng.uniform(-1, 1, shapes[name])
                p.grad = grad.copy()
                step_with(*alone[name], grad)
            opt.step()
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, alone[name][0].data, err_msg=name)

    def test_updates_shared_storage_in_place(self):
        backing = np.zeros(3)
        p = Tensor(backing, requires_grad=True, name="p")
        assert p.data is backing or p.data.base is backing or np.shares_memory(p.data, backing)
        opt = Adadelta({"p": p}, **PAPER)
        p.grad = np.ones(3)
        opt.step()
        assert np.all(backing != 0.0)


class TestGradientBuffer:
    def test_mixed_parameter_set_matches_the_direct_formulas_bit_for_bit(self):
        rng = np.random.default_rng(12)
        lstm = LstmParams(3, 2, Initializer(rng))
        table = EmbeddingTable(["a", "b"], rng.uniform(-1, 1, (2, 3))).view()
        table.prepare_runtime_rows(["a", "c"], Initializer(rng))
        system = Tensor(table.system_matrix, requires_grad=True, name="embed.system")
        idle = Tensor(rng.uniform(-1, 1, 5), requires_grad=True, name="idle")  # never gets a gradient
        rebound = Tensor(rng.uniform(-1, 1, (CHUNK // 64 + 1, 64)), requires_grad=True, name="rebound")
        params = {**lstm.parameters(), "embed.system": system, "idle": idle, "rebound": rebound}
        opt = Adadelta(params, rho=0.9, epsilon=1e-5)
        idle_before = idle.data.copy()
        expected = {name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for name, p in params.items()}
        for batch_size in (2, 3, 1):
            for _ in range(batch_size):
                state = Tensor(np.zeros((1, 2)))
                hidden, _ = ag.lstm_sequence(system, rng.integers(0, 3, 4), state, state, lstm, [4])
                weighted_sum(ag.unstack(hidden)[0], rng.uniform(-1, 1, 2)).backward()
            rebound.grad = rng.uniform(-1, 1, rebound.shape)  # a caller's own array
            grads = {name: p.grad.copy() for name, p in params.items()}
            opt.step(batch_size)
            for name, p in params.items():
                value, avg_sq_grad, avg_sq_step = expected[name]
                expected[name] = hand_update(value, grads[name], batch_size, avg_sq_grad, avg_sq_step, 0.9, 1e-5)
                np.testing.assert_array_equal(p.data, expected[name][0], err_msg=name)
                np.testing.assert_array_equal(states(opt, name)[0], expected[name][1], err_msg=name)
                np.testing.assert_array_equal(states(opt, name)[1], expected[name][2], err_msg=name)
                assert not p.grad.any(), name
        np.testing.assert_array_equal(idle.data, idle_before)
        assert system.data is table.system_matrix
        for gate in ("i", "f", "o", "u"):
            assert np.shares_memory(lstm.w[gate].data, lstm.stacked[0]), gate
        np.testing.assert_array_equal(lstm.stacked[0][2:4], expected["lstm.w_f"][0])

    def test_a_nan_in_the_last_gradient_leaves_everything_untouched(self):
        rng = np.random.default_rng(13)
        params = {name: Tensor(rng.uniform(-1, 1, size), requires_grad=True, name=name)
                  for name, size in (("wide", CHUNK + 7), ("middle", 3), ("last", 5))}
        opt = Adadelta(params, **PAPER)
        for p in params.values():
            p.grad += rng.uniform(-1, 1, p.shape)
        opt.step(2)
        before = {name: (p.data.copy(), *(acc.copy() for acc in states(opt, name))) for name, p in params.items()}
        for p in params.values():
            p.grad += rng.uniform(-1, 1, p.shape)
        params["last"].grad[-1] = np.nan
        with pytest.raises(NumericFailure, match="for last"):
            opt.step(2)
        for name, p in params.items():
            for now, then in zip((p.data, *states(opt, name)), before[name]):
                np.testing.assert_array_equal(now, then, err_msg=name)
