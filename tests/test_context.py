"""LSTM transitions, context windows, and the combination schemes."""

import numpy as np
import pytest

from nbestslu import autograd as ag
from nbestslu.autograd import Tensor
from nbestslu.context import (
    LSTM_GATES,
    Combiner,
    ContextWindow,
    LstmParams,
    combine,
    context_tokens,
    lstm_step,
    run_context_lstm,
)
from nbestslu.data import SystemAct
from nbestslu.embeddings import EmbeddingTable
from nbestslu.errors import ConfigError, DomainError, ShapeMismatchError

from _gradcheck import max_rel_error, weighted_sum


def make_params(dim, hidden, seed=0, zero=False) -> LstmParams:
    params = LstmParams(dim, hidden, np.random.default_rng(seed))
    if zero:
        for t in params.parameters().values():
            t.data[...] = 0.0
    return params


class TestLstmStep:
    def test_all_zero_parameters_and_state(self):
        params = make_params(3, 4, zero=True)
        h, c = lstm_step(Tensor(np.ones(3)), Tensor(np.zeros(4)), Tensor(np.zeros(4)), params)
        np.testing.assert_array_equal(h.data, np.zeros(4))
        np.testing.assert_array_equal(c.data, np.zeros(4))

    def test_saturated_gates_preserve_cell_state(self):
        # Huge forget bias and huge negative input bias: the cell carries.
        params = make_params(2, 3, seed=1)
        params.b["f"].data[...] = 40.0
        params.b["i"].data[...] = -40.0
        c_prev = np.array([0.7, -1.3, 2.2])
        h, c = lstm_step(
            Tensor(np.random.default_rng(2).uniform(-1, 1, 2)),
            Tensor(np.zeros(3)),
            Tensor(c_prev),
            params,
        )
        assert np.max(np.abs(c.data - c_prev)) <= 1e-5 * (1 + np.max(np.abs(c_prev)))

    def test_gate_ranges_and_bounded_hidden(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = make_params(4, 5, seed=int(rng.integers(1_000_000)))
            h, c = lstm_step(
                Tensor(rng.uniform(-3, 3, 4)),
                Tensor(rng.uniform(-0.9, 0.9, 5)),
                Tensor(rng.uniform(-3, 3, 5)),
                params,
            )
            assert np.all(np.abs(h.data) < 1.0)
            assert np.all(np.isfinite(c.data))

    def test_shape_mismatch_is_a_dimension_error(self):
        params = make_params(3, 4)
        with pytest.raises(ShapeMismatchError):
            lstm_step(Tensor(np.zeros(5)), Tensor(np.zeros(4)), Tensor(np.zeros(4)), params)

    def test_gradients_through_three_chained_steps(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for trial in range(3):
            params = make_params(3, 4, seed=trial + 10)
            xs = [Tensor(rng.uniform(-1, 1, 3), requires_grad=True) for _ in range(3)]
            contract = rng.uniform(0.5, 1.5, 4)
            tensors = list(params.parameters().values()) + xs

            def loss_fn():
                h, c = Tensor(np.zeros(4)), Tensor(np.zeros(4))
                for x in xs:
                    h, c = lstm_step(x, h, c, params)
                return weighted_sum(h, contract)

            worst = max(worst, max_rel_error(loss_fn, tensors))
        assert worst < 1e-4, f"max relative error {worst}"


def reference_step(x, h_prev, c_prev, params):
    """One LSTM transition composed from primitive ops, gate by gate."""

    def preact(gate):
        return ag.add(ag.affine(x, params.w[gate], params.b[gate]), ag.matmul(params.u[gate], h_prev))

    cell = ag.add(ag.mul(ag.sigmoid(preact("i")), ag.tanh(preact("u"))), ag.mul(ag.sigmoid(preact("f")), c_prev))
    return ag.mul(ag.sigmoid(preact("o")), ag.tanh(cell)), cell


def sequence_fixture(steps=5, dim=3, hidden=4, seed=20):
    rng = np.random.default_rng(seed)
    params = make_params(dim, hidden, seed=seed)
    for gate in LSTM_GATES:
        params.b[gate].data[...] = rng.uniform(-1, 1, hidden)
    xs = Tensor(rng.uniform(-1, 1, (steps, dim)), requires_grad=True)
    h0 = Tensor(rng.uniform(-0.5, 0.5, hidden), requires_grad=True)
    c0 = Tensor(rng.uniform(-1, 1, hidden), requires_grad=True)
    return params, xs, h0, c0, rng.uniform(0.5, 1.5, hidden), rng.uniform(0.5, 1.5, hidden)


class TestStackedStorage:
    def test_named_gate_tensors_are_row_blocks_of_the_stacked_arrays(self):
        params = make_params(3, 4, seed=30)
        stacked_w, stacked_u, stacked_b = params.stacked
        assert (stacked_w.shape, stacked_u.shape, stacked_b.shape) == ((16, 3), (16, 4), (16,))
        for k, gate in enumerate(LSTM_GATES):
            rows = slice(4 * k, 4 * (k + 1))
            for group, stacked in zip((params.w, params.u, params.b), params.stacked):
                assert np.shares_memory(group[gate].data, stacked)
                assert group[gate].data.base is stacked
                np.testing.assert_array_equal(group[gate].data, stacked[rows])

    def test_an_in_place_write_to_a_gate_changes_the_next_output(self):
        params = make_params(2, 3, seed=31)
        x, h0, c0 = Tensor(np.full(2, 0.5)), Tensor(np.zeros(3)), Tensor(np.full(3, 0.7))
        before = ag.lstm_sequence(x, h0, c0, params)[1].data.copy()
        params.b["f"].data[...] = 40.0
        after = ag.lstm_sequence(x, h0, c0, params)[1].data
        assert np.all(after != before)
        np.testing.assert_array_equal(params.stacked[2][3:6], np.full(3, 40.0))


class TestLstmSequence:
    def test_gradients_of_every_input_over_a_sequence(self):
        params, xs, h0, c0, on_hidden, on_cell = sequence_fixture()
        tensors = list(params.parameters().values()) + [xs, h0, c0]

        def loss_fn():
            hidden, cell = ag.lstm_sequence(xs, h0, c0, params)
            return ag.add(weighted_sum(hidden, on_hidden), weighted_sum(cell, on_cell))

        assert max_rel_error(loss_fn, tensors) < 1e-4
        for tensor in tensors:
            assert np.any(tensor.grad != 0.0), tensor.name

    def test_hidden_alone_and_cell_alone_get_their_gradients(self):
        params, xs, h0, c0, on_hidden, on_cell = sequence_fixture(steps=3, seed=21)
        tensors = list(params.parameters().values()) + [xs, h0, c0]
        for pick, contract in ((0, on_hidden), (1, on_cell)):
            def loss_fn():
                return weighted_sum(ag.lstm_sequence(xs, h0, c0, params)[pick], contract)

            assert max_rel_error(loss_fn, tensors) < 1e-4

    def test_matches_a_composition_of_primitive_steps(self):
        params, xs, h0, c0, on_hidden, on_cell = sequence_fixture(steps=7, dim=5, hidden=6, seed=22)
        rows = [Tensor(x, requires_grad=True) for x in xs.data]
        states = [h0, c0]

        def run(fused):
            for tensor in [*params.parameters().values(), xs, *rows, *states]:
                tensor.grad = None
            if fused:
                hidden, cell = ag.lstm_sequence(xs, h0, c0, params)
            else:
                hidden, cell = h0, c0
                for x in rows:
                    hidden, cell = reference_step(x, hidden, cell, params)
            ag.add(weighted_sum(hidden, on_hidden), weighted_sum(cell, on_cell)).backward()
            inputs = xs.grad if fused else np.stack([x.grad for x in rows])
            grads = {name: tensor.grad.copy() for name, tensor in params.parameters().items()}
            grads.update(xs=inputs, h0=h0.grad.copy(), c0=c0.grad.copy())
            return hidden.data, cell.data, grads

        fused, reference = run(True), run(False)
        np.testing.assert_allclose(fused[0], reference[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused[1], reference[1], rtol=0, atol=1e-12)
        assert fused[2].keys() == reference[2].keys() and len(fused[2]) == 15
        for name, grad in fused[2].items():
            np.testing.assert_allclose(grad, reference[2][name], rtol=0, atol=1e-12, err_msg=name)

    def test_empty_sequence_returns_the_initial_state(self):
        params, xs, h0, c0, _, _ = sequence_fixture()
        hidden, cell = ag.lstm_sequence(Tensor(np.zeros((0, 3))), h0, c0, params)
        assert hidden is h0 and cell is c0

    def test_wrong_input_width_or_state_size_is_a_shape_error(self):
        params, xs, h0, c0, _, _ = sequence_fixture()
        for bad in (
            (Tensor(np.zeros((5, 4))), h0, c0),
            (Tensor(np.zeros(4)), h0, c0),
            (Tensor(np.zeros((2, 3, 1))), h0, c0),
            (xs, Tensor(np.zeros(5)), c0),
            (xs, h0, Tensor(np.zeros((1, 4)))),
        ):
            with pytest.raises(ShapeMismatchError):
                ag.lstm_sequence(*bad, params)

    def test_saturated_gates_stay_finite(self):
        for bias in (40.0, -40.0):
            params, xs, h0, c0, on_hidden, on_cell = sequence_fixture(seed=23)
            for gate in LSTM_GATES:
                params.b[gate].data[...] = bias
            xs.data *= 50.0
            hidden, cell = ag.lstm_sequence(xs, h0, c0, params)
            ag.add(weighted_sum(hidden, on_hidden), weighted_sum(cell, on_cell)).backward()
            assert np.all(np.isfinite(hidden.data)) and np.all(np.isfinite(cell.data))
            assert np.all(np.abs(hidden.data) <= 1.0)
            for tensor in list(params.parameters().values()) + [xs, h0, c0]:
                assert np.all(np.isfinite(tensor.grad)), tensor.name


RAGGED = (0, 1, 3, 7)  # includes an empty sequence and one longer than all others together


def batch_fixture(lengths=RAGGED, dim=3, hidden=4, seed=24):
    """Parameters, packed inputs, [B, H] initial states and two [B, H] contractions."""
    rng = np.random.default_rng(seed)
    params = make_params(dim, hidden, seed=seed)
    for gate in LSTM_GATES:
        params.b[gate].data[...] = rng.uniform(-1, 1, hidden)
    count = len(lengths)
    xs = Tensor(rng.uniform(-1, 1, (sum(lengths), dim)), requires_grad=True, name="xs")
    h0 = Tensor(rng.uniform(-0.5, 0.5, (count, hidden)), requires_grad=True, name="h0")
    c0 = Tensor(rng.uniform(-1, 1, (count, hidden)), requires_grad=True, name="c0")
    return params, xs, h0, c0, rng.uniform(0.5, 1.5, (count, hidden)), rng.uniform(0.5, 1.5, (count, hidden))


def batch_loss(hidden, cell, on_hidden, on_cell):
    """A scalar over every row of the [B, H] results, through ``unstack``."""
    terms = [weighted_sum(row, weights) for row, weights in zip(ag.unstack(hidden), on_hidden)]
    terms += [weighted_sum(row, weights) for row, weights in zip(ag.unstack(cell), on_cell)]
    return ag.add_n(terms)


class TestPackedBatch:
    """The kernel over B sequences at once, sorted by length and packed time-major."""

    @pytest.mark.parametrize("lengths", [RAGGED, (5,)], ids=["ragged", "one"])
    def test_gradients_of_every_input_over_a_batch(self, lengths):
        params, xs, h0, c0, on_hidden, on_cell = batch_fixture(lengths)
        tensors = list(params.parameters().values()) + [xs, h0, c0]

        def loss_fn():
            return batch_loss(*ag.lstm_sequence(xs, h0, c0, params, lengths), on_hidden, on_cell)

        assert max_rel_error(loss_fn, tensors) < 1e-4
        for tensor in tensors:
            assert np.any(tensor.grad != 0.0), tensor.name

    def test_each_sequence_agrees_with_a_batch_of_one(self):
        # A batch changes the shapes of the products, and so may change how they round:
        # states and gradients agree within 1e-12, not bit for bit.
        lengths = (4, 0, 9, 1, 9, 3)
        params, xs, h0, c0, on_hidden, on_cell = batch_fixture(lengths, dim=5, hidden=6, seed=25)
        hidden, cell = ag.lstm_sequence(xs, h0, c0, params, lengths)
        batch_loss(hidden, cell, on_hidden, on_cell).backward()
        batched = {name: t.grad.copy() for name, t in params.parameters().items()}
        batched_inputs = [xs.grad.copy(), h0.grad.copy(), c0.grad.copy()]

        summed = {name: np.zeros_like(grad) for name, grad in batched.items()}
        starts = np.cumsum((0,) + lengths)
        for b, rows in enumerate(lengths):
            for t in params.parameters().values():
                t.grad = None
            x = Tensor(xs.data[starts[b] : starts[b + 1]], requires_grad=True)
            h, c = Tensor(h0.data[b], requires_grad=True), Tensor(c0.data[b], requires_grad=True)
            alone = ag.lstm_sequence(x, h, c, params)
            np.testing.assert_allclose(hidden.data[b], alone[0].data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cell.data[b], alone[1].data, rtol=0, atol=1e-12)
            ag.add(weighted_sum(alone[0], on_hidden[b]), weighted_sum(alone[1], on_cell[b])).backward()
            np.testing.assert_allclose(batched_inputs[1][b], h.grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batched_inputs[2][b], c.grad, rtol=0, atol=1e-12)
            if rows:
                np.testing.assert_allclose(batched_inputs[0][starts[b] : starts[b + 1]], x.grad, rtol=0, atol=1e-12)
                for name, t in params.parameters().items():
                    summed[name] += t.grad
        for name, grad in batched.items():
            np.testing.assert_allclose(grad, summed[name], rtol=0, atol=1e-12, err_msg=name)

    def test_the_order_of_the_batch_does_not_matter(self):
        lengths = (2, 6, 6, 0, 3)
        params, xs, h0, c0, _, _ = batch_fixture(lengths, seed=26)
        hidden, cell = ag.lstm_sequence(xs, h0, c0, params, lengths)
        perm = [3, 1, 4, 0, 2]
        starts = np.cumsum((0,) + lengths)
        rows = np.concatenate([np.arange(starts[b], starts[b + 1]) for b in perm])
        shuffled = ag.lstm_sequence(Tensor(xs.data[rows]), Tensor(h0.data[perm]), Tensor(c0.data[perm]), params,
                                    [lengths[b] for b in perm])
        np.testing.assert_allclose(shuffled[0].data, hidden.data[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(shuffled[1].data, cell.data[perm], rtol=0, atol=1e-12)

    def test_a_run_is_one_tape_node_holding_hidden_over_cell(self):
        params, xs, h0, c0, _, _ = batch_fixture()
        hidden, cell = ag.lstm_sequence(xs, h0, c0, params, RAGGED)
        ((run,),) = {hidden._parents, cell._parents}
        assert run.shape == (2, len(RAGGED), 4)
        assert xs in run._parents and h0 in run._parents and c0 in run._parents
        np.testing.assert_array_equal(run.data[0], hidden.data)
        np.testing.assert_array_equal(run.data[1], cell.data)

    def test_a_batch_without_rows_returns_the_initial_states(self):
        params, _, h0, c0, _, _ = batch_fixture((0, 0))
        hidden, cell = ag.lstm_sequence(Tensor(np.zeros((0, 3))), h0, c0, params, (0, 0))
        assert hidden is h0 and cell is c0

    def test_lengths_that_do_not_cover_the_rows_are_refused(self):
        params, xs, h0, c0, _, _ = batch_fixture()
        with pytest.raises(ShapeMismatchError):
            ag.lstm_sequence(xs, h0, c0, params, (0, 1, 3, 6))
        with pytest.raises(ShapeMismatchError):
            ag.lstm_sequence(xs, Tensor(h0.data[:3]), c0, params, RAGGED)
        with pytest.raises(DomainError):
            ag.lstm_sequence(xs, h0, c0, params, (2, -1, 3, 7))

    def test_run_context_lstm_batches_turns_like_one_at_a_time(self):
        table, embeddings, params = context_fixture()
        histories = [
            [],
            [(SystemAct("welcomemsg"),)],
            [(SystemAct("welcomemsg"),), (SystemAct("offer", (("name", "meghna"),)),
                                          SystemAct("inform", (("area", "north"),)))],
        ]
        window = ContextWindow.from_name("all")
        streams = [context_tokens(history, window) for history in histories]
        hidden, cell = run_context_lstm([t for s in streams for t in s], table, embeddings, params,
                                        [len(s) for s in streams])
        for b, stream in enumerate(streams):
            alone = run_context_lstm(stream, table, embeddings, params, [len(stream)])
            np.testing.assert_allclose(hidden.data[b], alone[0].data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(cell.data[b], alone[1].data[0], rtol=0, atol=1e-12)


class TestContextWindow:
    def test_selection_modes(self):
        history = ["s0", "s1", "s2", "s3", "s4"]
        assert ContextWindow.from_name("none").select(history) == ()
        assert ContextWindow.from_name("all").select(history) == tuple(history)
        assert ContextWindow.from_name("last_1").select(history) == ("s4",)
        assert ContextWindow.from_name("last_4").select(history) == ("s1", "s2", "s3", "s4")

    def test_window_larger_than_history(self):
        assert ContextWindow.from_name("last_4").select(["s0"]) == ("s0",)
        assert ContextWindow.from_name("last_4").select([]) == ()

    def test_bad_names_rejected(self):
        with pytest.raises(DomainError):
            ContextWindow.from_name("sometimes")
        with pytest.raises(DomainError):
            ContextWindow("last", 0)

    def test_flattening_order_is_oldest_first(self):
        history = [
            (SystemAct("welcomemsg"),),
            (SystemAct("offer", (("name", "meghna"),)), SystemAct("inform", (("area", "north"),))),
        ]
        tokens = context_tokens(history, ContextWindow.from_name("all"))
        assert tokens == ["welcomemsg", "offer", "name", "meghna", "inform", "area", "north"]


def context_vector(history, window, table, embeddings, params):
    tokens = context_tokens(history, window)
    (hidden,) = ag.unstack(run_context_lstm(tokens, table, embeddings, params, [len(tokens)])[0])
    return hidden


def context_fixture(hidden=4, seed=5):
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(["offer", "name", "north", "inform", "area"], rng.uniform(-1, 1, (5, 3)))
    table.prepare_runtime_rows(["offer", "name", "meghna", "inform", "area", "north", "welcomemsg"], rng)
    embeddings = Tensor(table.system_matrix, requires_grad=True, name="embed.system")
    params = LstmParams(3, hidden, rng)
    return table, embeddings, params


class TestEncodeContext:
    def test_empty_history_yields_zero_vector(self):
        table, embeddings, params = context_fixture()
        out = context_vector([], ContextWindow.from_name("all"), table, embeddings, params)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_last_w_equals_all_when_history_fits(self):
        table, embeddings, params = context_fixture()
        history = [
            (SystemAct("welcomemsg"),),
            (SystemAct("offer", (("name", "meghna"),)),),
        ]
        h_all = context_vector(history, ContextWindow.from_name("all"), table, embeddings, params)
        h_w4 = context_vector(history, ContextWindow.from_name("last_4"), table, embeddings, params)
        np.testing.assert_array_equal(h_all.data, h_w4.data)

    def test_last_1_sees_only_the_final_system_turn(self):
        table, embeddings, params = context_fixture()
        early = (SystemAct("welcomemsg"),)
        final = (SystemAct("offer", (("name", "meghna"),)), SystemAct("inform", (("area", "north"),)))
        h_with = context_vector([early, final], ContextWindow.from_name("last_1"), table, embeddings, params)
        h_only = context_vector([final], ContextWindow.from_name("last_1"), table, embeddings, params)
        np.testing.assert_array_equal(h_with.data, h_only.data)

    def test_gradients_flow_into_system_embeddings(self):
        table, embeddings, params = context_fixture()
        history = [(SystemAct("offer", (("name", "meghna"),)),)]
        contract = np.random.default_rng(0).uniform(0.5, 1.5, 4)

        def loss_fn():
            h = context_vector(history, ContextWindow.from_name("all"), table, embeddings, params)
            return weighted_sum(h, contract)

        assert max_rel_error(loss_fn, [embeddings], sample=12, rng=np.random.default_rng(1)) < 1e-4


class TestCombine:
    def test_each_mode_owns_its_named_tensors(self):
        rng = np.random.default_rng(9)
        shapes = {
            name: {n: t.shape for n, t in Combiner.build(mode, 6, 4, 3, rng).parameters().items()}
            for name, mode in (("tanh", "tanh"), ("lstm", "lstm-input"))
        }
        assert shapes == {
            "tanh": {"comb.ws": (4, 6), "comb.wc": (4, 4)},
            "lstm": {"comb.p": (3, 6)},
        }

    def test_zero_inputs_tanh_mode(self):
        rng = np.random.default_rng(6)
        combiner = Combiner.build("tanh", 6, 4, 3, rng)
        state = (Tensor(np.zeros(4)), Tensor(np.zeros(4)))
        out = combine(Tensor(np.zeros(6)), state, combiner, make_params(3, 4, seed=1))
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_scalar_tanh_evaluation(self):
        combiner = Combiner.build("tanh", 1, 1, 1, np.random.default_rng(0))
        for weight in combiner.tensors:
            weight.data[...] = 1.0
        state = (Tensor(np.array([0.25])), Tensor(np.array([0.0])))
        out = combine(Tensor(np.array([0.5])), state, combiner, make_params(1, 1, seed=1))
        assert out.data[0] == pytest.approx(np.tanh(0.75), abs=1e-15)
        assert out.data[0] == pytest.approx(0.63514895, abs=1e-8)

    def test_lstm_input_mode_runs_one_extra_step(self):
        rng = np.random.default_rng(7)
        params = make_params(3, 4, seed=8)
        combiner = Combiner.build("lstm-input", 6, 4, 3, rng)
        state = (Tensor(rng.uniform(-0.5, 0.5, 4)), Tensor(rng.uniform(-0.5, 0.5, 4)))
        sentence = Tensor(rng.uniform(-0.5, 0.5, 6))
        out = combine(sentence, state, combiner, params)
        projected = Tensor(combiner.tensors[0].data @ sentence.data)
        expected, _ = lstm_step(projected, state[0], state[1], params)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-15)

    def test_mode_parameter_mismatches_are_config_errors(self):
        # The cnn variant builds no combiner, so "identity" is no mode either.
        rng = np.random.default_rng(8)
        for mode in ("nonsense", "identity"):
            with pytest.raises(ConfigError):
                Combiner.build(mode, 4, 3, 3, rng)
