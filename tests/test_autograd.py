"""Primitive operations: exact values, contracts, and gradient soundness."""

import math

import numpy as np
import pytest

from nbestslu import autograd as ag
from nbestslu.autograd import Tensor
from nbestslu.errors import DomainError, GraphStateError, ShapeMismatchError

from _gradcheck import max_rel_error, weighted_sum


class TestAffine:
    def test_identity(self):
        out = ag.affine(Tensor([1.0, 2.0]), Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_hand_multiplication(self):
        out = ag.affine(Tensor([1.0, 1.0]), Tensor([[2.0, 3.0]]), Tensor([1.0]))
        np.testing.assert_array_equal(out.data, [6.0])

    def test_zero_input_returns_bias(self):
        out = ag.affine(Tensor([0.0, 0.0]), Tensor([[4.0, -2.0], [1.0, 9.0]]), Tensor([5.0, -1.0]))
        np.testing.assert_array_equal(out.data, [5.0, -1.0])

    def test_shape_mismatch_names_both_shapes(self):
        # add and mul would broadcast (3,) with (1,), and a 1-D left operand of matmul
        # whose length is the output's would give a wrong gradient, so each op refuses.
        # matmul's right operand is a vector: no caller multiplies two matrices.
        table = [
            (lambda x, w: ag.affine(x, w, Tensor([0.0, 0.0])), (3,), (2, 2)),
            (ag.matmul, (3,), (3, 3)),
            (ag.matmul, (2, 3), (2,)),
            (ag.matmul, (2, 3), (3, 2)),
            (ag.add, (3,), (1,)),
            (ag.mul, (3,), (1,)),
            (lambda a, b: ag.add_n([a, b]), (3,), (1,)),
            (lambda a, b: ag.stack([a, b]), (2, 3), (3, 2)),
            (lambda x, w: ag.affine(x, w, Tensor([0.0, 0.0])), (4, 3), (2, 2)),
        ]
        for op, left, right in table:
            with pytest.raises(ShapeMismatchError) as err:
                op(Tensor(np.ones(left)), Tensor(np.ones(right)))
            assert str(left) in str(err.value) and str(right) in str(err.value)


class TestActivations:
    def test_tanh_zero(self):
        np.testing.assert_array_equal(ag.tanh(Tensor([0.0])).data, [0.0])

    def test_sigmoid_zero(self):
        np.testing.assert_array_equal(ag.sigmoid(Tensor([0.0])).data, [0.5])

    def test_tanh_one_matches_reference(self):
        assert ag.tanh(Tensor([1.0])).data[0] == pytest.approx(math.tanh(1.0), abs=1e-15)

    def test_ranges(self):
        # Beyond |x| ~ 19, tanh rounds to exactly +/-1 in float64; stay inside.
        rng = np.random.default_rng(0)
        x = rng.uniform(-15, 15, size=1000)
        t = ag.tanh(Tensor(x)).data
        s = ag.sigmoid(Tensor(x)).data
        assert np.all(t > -1) and np.all(t < 1)
        assert np.all(s > 0) and np.all(s < 1)

    def test_sigmoid_large_inputs_do_not_overflow(self):
        out = ag.sigmoid(Tensor([800.0, -800.0])).data
        assert out[0] == pytest.approx(1.0) and out[1] == pytest.approx(0.0)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ag.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)

    def test_closed_form(self):
        out = ag.softmax(Tensor([math.log(2.0), 0.0])).data
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_large_logits_stable(self):
        out = ag.softmax(Tensor([1000.0, 0.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0) and out[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one_and_preserves_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            logits = rng.uniform(-50, 50, size=int(rng.integers(1, 12)))
            probs = ag.softmax(Tensor(logits)).data
            assert abs(probs.sum() - 1.0) < 1e-12
            assert int(np.argmax(probs)) == int(np.argmax(logits))

    def test_empty_input_rejected(self):
        for shape in ((0,), (3, 0), (2, 3, 4)):
            with pytest.raises(DomainError):
                ag.softmax(Tensor(np.zeros(shape)))

    def test_each_row_is_the_vector_softmax_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            shape = int(rng.integers(1, 20)), int(rng.integers(1, 40))
            logits = rng.normal(0, float(rng.choice([1.0, 30.0])), shape)
            rows = ag.softmax(Tensor(logits)).data
            assert rows.shape == shape
            for row, vector in zip(rows, logits):
                np.testing.assert_array_equal(row, ag.softmax(Tensor(vector)).data)


class TestNllLoss:
    def test_certain_prediction_costs_nothing(self):
        assert ag.nll_loss(Tensor([1.0, 0.0]), 0).item() == 0.0

    def test_half_probability(self):
        assert ag.nll_loss(Tensor([0.5, 0.5]), 1).item() == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_third_probability(self):
        assert ag.nll_loss(Tensor([2.0 / 3.0, 1.0 / 3.0]), 1).item() == pytest.approx(
            -math.log(1.0 / 3.0), abs=1e-12
        )

    def test_target_out_of_range(self):
        with pytest.raises(DomainError):
            ag.nll_loss(Tensor([0.5, 0.5]), 2)
        with pytest.raises(DomainError):
            ag.nll_loss(Tensor([0.5, 0.5]), -1)
        rows = Tensor([[0.5, 0.5], [0.25, 0.75]])
        for targets in ([0, 2], [-1, 1]):
            with pytest.raises(DomainError):
                ag.nll_loss(rows, targets)

    def test_rows_sum_their_targets_losses(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        total = ag.nll_loss(Tensor(probs), [1, 0, 0]).item()
        assert total == -math.log(0.5) - math.log(0.25) - 0.0

    def test_one_target_per_row(self):
        for probs, targets in (([[0.5, 0.5], [0.25, 0.75]], [1]), ([[0.5, 0.5]], 1), ([0.5, 0.5], [1]),
                               (np.full((1, 1, 2), 0.5), [[1]])):
            with pytest.raises(ShapeMismatchError) as err:
                ag.nll_loss(Tensor(probs), targets)
            assert str(np.shape(probs)) in str(err.value)


class TestMaxPool:
    def test_value_and_index(self):
        out, idx = ag.max_pool(Tensor([0.1, 0.9, 0.3]))
        assert out.item() == 0.9 and idx == 1

    def test_singleton(self):
        out, idx = ag.max_pool(Tensor([5.0]))
        assert out.item() == 5.0 and idx == 0

    def test_all_negative(self):
        out, idx = ag.max_pool(Tensor([-1.0, -2.0]))
        assert out.item() == -1.0 and idx == 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ag.max_pool(Tensor(np.zeros(0)))

    def test_gradient_routes_to_argmax_only(self):
        x = Tensor([0.1, 0.9, 0.3], requires_grad=True)
        out, idx = ag.max_pool(x)
        out.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestBackwardContracts:
    def test_tanh_derivative_at_zero_is_one(self):
        x = Tensor([0.0], requires_grad=True)
        ag.tanh(x).backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_softmax_nll_gradient_is_probs_minus_onehot(self):
        logits = Tensor([0.0, 0.0], requires_grad=True)
        ag.nll_loss(ag.softmax(logits), 0).backward()
        np.testing.assert_allclose(logits.grad, [-0.5, 0.5], atol=1e-15)

    def test_backward_before_any_forward_is_a_state_error(self):
        leaf = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphStateError):
            leaf.backward()

    def test_second_backward_on_consumed_graph_is_a_state_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = ag.tanh(x)
        y.backward()
        with pytest.raises(GraphStateError):
            y.backward()

    def test_implicit_upstream_needs_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ag.tanh(x)
        with pytest.raises(DomainError):
            y.backward()

    def test_gradients_accumulate_across_graphs_until_zeroed(self):
        x = Tensor([0.0], requires_grad=True)
        ag.tanh(x).backward()
        ag.tanh(x).backward()
        np.testing.assert_array_equal(x.grad, [2.0])
        x.grad = None
        ag.tanh(x).backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_shared_subexpression_gets_both_contributions(self):
        # y = x * x built by sharing the same node twice.
        x = Tensor([3.0], requires_grad=True)
        ag.mul(x, x).backward()
        np.testing.assert_allclose(x.grad, [6.0])


class TestFiniteDifferences:
    """Analytic gradients of every primitive vs the central-difference oracle."""

    def test_primitives(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for point in range(20):
            n, m = 5, 4
            x = Tensor(rng.uniform(-1, 1, n), requires_grad=True)
            w = Tensor(rng.uniform(-1, 1, (m, n)), requires_grad=True)
            b = Tensor(rng.uniform(-1, 1, m), requires_grad=True)
            mix = Tensor(rng.uniform(-1, 1, (m, m)), requires_grad=True)
            contract = Tensor(rng.uniform(0.5, 1.5, m))
            target = int(rng.integers(m))

            def loss_fn():
                hidden = ag.tanh(ag.affine(x, w, b))
                gates = ag.mul(ag.sigmoid(hidden), ag.tanh(ag.add(hidden, b)))
                probs = ag.softmax(ag.affine(gates, mix, b))
                pick = ag.nll_loss(probs, target)
                peak, _ = ag.max_pool(ag.mul(gates, contract))
                return ag.add_n([pick, peak])

            worst = max(worst, max_rel_error(loss_fn, [x, w, b, mix]))
        assert worst < 1e-4, f"max relative error {worst}"

    def test_batch_ops_over_rows(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for point in range(10):
            batch, n, m = 4, 5, 3
            parts = [Tensor(rng.uniform(-1, 1, n), requires_grad=True) for _ in range(batch)]
            w = Tensor(rng.uniform(-1, 1, (m, n)), requires_grad=True)
            b = Tensor(rng.uniform(-1, 1, m), requires_grad=True)
            mix = Tensor(rng.uniform(-1, 1, (m, m)), requires_grad=True)
            targets = rng.integers(m, size=batch)

            def loss_fn():
                hidden = ag.tanh(ag.affine(ag.stack(parts), w, b))
                return ag.nll_loss(ag.softmax(ag.affine(hidden, mix, b)), targets)

            worst = max(worst, max_rel_error(loss_fn, [*parts, w, b, mix]))
        assert worst < 1e-4, f"max relative error {worst}"

    def test_batch_gradients_are_the_sums_of_the_rows(self):
        rng = np.random.default_rng(44)
        x = rng.uniform(-1, 1, (3, 5))
        w = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
        targets = [2, 0, 3]
        rows = Tensor(x, requires_grad=True)
        ag.nll_loss(ag.softmax(ag.affine(rows, w, b)), targets).backward()
        batch = w.grad.copy(), b.grad.copy()
        w.grad = b.grad = None
        for k, target in enumerate(targets):
            row = Tensor(x[k], requires_grad=True)
            ag.nll_loss(ag.softmax(ag.affine(row, w, b)), target).backward()
            np.testing.assert_allclose(rows.grad[k], row.grad, rtol=0, atol=1e-15)
        np.testing.assert_allclose(batch[0], w.grad, rtol=0, atol=1e-15)
        np.testing.assert_allclose(batch[1], b.grad, rtol=0, atol=1e-15)

    def test_gather_rows_gradient(self):
        rng = np.random.default_rng(3)
        table = Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        mix = Tensor(rng.uniform(-1, 1, 4))
        rows = [2, 4, 2, 2]  # a repeated row sums the contributions of its positions
        contract = rng.uniform(0.5, 1.5, len(rows))

        def loss_fn():
            return weighted_sum(ag.tanh(ag.matmul(ag.gather_rows(table, rows), mix)), contract)

        assert max_rel_error(loss_fn, [table]) < 1e-4
        loss_fn().backward()
        assert np.all(table.grad[[0, 1, 3, 5]] == 0.0)
        assert np.all(table.grad[[2, 4]] != 0.0)

    def test_gather_rows_of_an_empty_sequence(self):
        rng = np.random.default_rng(4)
        table = Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        mix = Tensor(rng.uniform(-1, 1, 4))

        def loss_fn():
            return weighted_sum(ag.matmul(ag.gather_rows(table, []), mix), np.zeros(0))

        assert ag.gather_rows(table, []).shape == (0, 4)
        assert max_rel_error(loss_fn, [table]) == 0.0
        loss_fn().backward()
        np.testing.assert_array_equal(table.grad, np.zeros((6, 4)))

    def test_gather_rows_rejects_rows_out_of_range(self):
        table = Tensor(np.zeros((3, 2)))
        for rows in ([3], [-1], [0, 5]):
            with pytest.raises(DomainError):
                ag.gather_rows(table, rows)
        with pytest.raises(ShapeMismatchError):
            ag.gather_rows(Tensor(np.zeros(3)), [0])

    def test_unstack_routes_each_row_gradient_to_its_row(self):
        rng = np.random.default_rng(5)
        matrix = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        contracts = rng.uniform(0.5, 1.5, (2, 4))

        def loss_fn():
            rows = ag.unstack(matrix)  # the middle row is never used
            return ag.add(weighted_sum(ag.tanh(rows[0]), contracts[0]), weighted_sum(rows[2], contracts[1]))

        assert max_rel_error(loss_fn, [matrix]) < 1e-4
        loss_fn().backward()
        np.testing.assert_array_equal(matrix.grad[1], np.zeros(4))
        np.testing.assert_array_equal(matrix.grad[2], contracts[1])
        with pytest.raises(ShapeMismatchError):
            ag.unstack(Tensor(np.zeros(3)))

    def test_unstack_splits_along_the_first_axis_of_any_rank(self):
        stacked = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        first, second = ag.unstack(stacked)
        np.testing.assert_array_equal(second.data, stacked.data[1])
        upstream = np.full((3, 4), 2.0)
        weighted_sum(ag.unstack(second)[2], upstream[2]).backward()
        np.testing.assert_array_equal(stacked.grad[0], np.zeros((3, 4)))
        np.testing.assert_array_equal(stacked.grad[1], np.where(np.arange(3)[:, None] == 2, upstream, 0.0))


class TestConvNbest:
    def test_rejects_inputs_that_do_not_fit(self):
        rows = np.zeros((4, 3))
        index = np.array([[1, 2, 3, 1, 2], [3, 1, 0, 0, 0]])
        pair = (Tensor(np.zeros((6, 4))), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(ag.conv_nbest(rows, index, [5, 2], [0.5, 0.5], [pair], [2]).data,
                                      np.zeros((1, 4)))
        np.testing.assert_array_equal(ag.conv_nbest(rows, index, [5, 2], [0.5, 0.5], [pair], [1, 1]).data,
                                      np.zeros((2, 4)))
        for bad_rows, bad_index, lengths, weights, filters, sizes in (
            (np.zeros((2, 4, 3)), index, [5, 2], [0.5, 0.5], [pair], [2]),
            (rows, index[0], [5], [1.0], [pair], [1]),
            (rows, np.zeros((0, 5), dtype=int), [], [], [pair], [0]),
            (rows, index, [5], [0.5, 0.5], [pair], [2]),
            (rows, index, [5, 2], [1.0], [pair], [2]),
            (rows, index, [5, 2], [0.5, 0.5], [(Tensor(np.zeros((7, 4))), Tensor(np.zeros(4)))], [2]),
            (rows, index, [5, 2], [0.5, 0.5], [(Tensor(np.zeros((6, 4))), Tensor(np.zeros(3)))], [2]),
            (rows, index, [5, 2], [0.5, 0.5], [pair, (Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))], [2]),
            (rows, index, [5, 2], [0.5, 0.5], [pair], [1]),
            (rows, index, [5, 2], [0.5, 0.5], [pair], [2, 0]),
            (rows, index, [5, 2], [0.5, 0.5], [pair], [[2]]),
        ):
            with pytest.raises(ShapeMismatchError):
                ag.conv_nbest(bad_rows, bad_index, lengths, weights, filters, sizes)
        for lengths in ([5, 1], [6, 2]):
            with pytest.raises(DomainError):
                ag.conv_nbest(rows, index, lengths, [0.5, 0.5], [pair], [2])
        for row in (-1, 4):
            bad_index = index.copy()
            bad_index[1, 3] = row
            with pytest.raises(DomainError):
                ag.conv_nbest(rows, bad_index, [5, 2], [0.5, 0.5], [pair], [2])


class TestDropout:
    def test_rate_zero_in_train_mode_is_identity(self):
        v = Tensor([1.0, -2.0, 3.0])
        out = ag.dropout_apply(v, 0.0, np.random.default_rng(0))
        assert out is v

    def test_inverted_scaling_preserves_expectation(self):
        # Monte-Carlo estimate of E[dropout(v)] over 10,000 masks.
        rng = np.random.default_rng(123)
        v = Tensor(np.full(50, 2.0))
        total = np.zeros(50)
        trials = 10_000
        for _ in range(trials):
            total += ag.dropout_apply(v, 0.5, rng).data
        np.testing.assert_allclose(total / trials, v.data, rtol=0.05)

    def test_backward_reuses_forward_mask(self):
        rng = np.random.default_rng(7)
        v = Tensor(np.ones(32), requires_grad=True)
        out = ag.dropout_apply(v, 0.5, rng)
        mask = out.data.copy()  # v is all ones, so the output is the scaled mask
        weighted_sum(out, np.ones(32)).backward()
        np.testing.assert_array_equal(v.grad, mask)

    def test_mask_is_bernoulli_keep_rate(self):
        rng = np.random.default_rng(11)
        v = Tensor(np.ones(20_000))
        out = ag.dropout_apply(v, 0.3, rng).data
        kept = np.count_nonzero(out)
        assert kept / v.size == pytest.approx(0.7, abs=0.02)
        np.testing.assert_allclose(out[out != 0], 1.0 / 0.7)
