"""LSTM transitions, context windows, and the combination schemes."""

import numpy as np
import pytest

from nbestslu.autograd import Tensor
from nbestslu.context import (
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
    return run_context_lstm(context_tokens(history, window), table, embeddings, params)[0]


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
            for name, mode in (("identity", "identity"), ("tanh", "tanh"), ("lstm", "lstm-input"))
        }
        assert shapes == {
            "identity": {},
            "tanh": {"comb.ws": (4, 6), "comb.wc": (4, 4)},
            "lstm": {"comb.p": (3, 6)},
        }

    def test_zero_inputs_tanh_mode(self):
        rng = np.random.default_rng(6)
        combiner = Combiner.build("tanh", 6, 4, 3, rng)
        state = (Tensor(np.zeros(4)), Tensor(np.zeros(4)))
        out = combine(Tensor(np.zeros(6)), state, combiner)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_identity_mode_returns_sentence(self):
        sentence = Tensor(np.array([0.1, 0.2]))
        out = combine(sentence, None, Combiner.build("identity", 2, 4, 3, np.random.default_rng(0)))
        assert out is sentence

    def test_scalar_tanh_evaluation(self):
        combiner = Combiner.build("tanh", 1, 1, 1, np.random.default_rng(0))
        for weight in combiner.tensors:
            weight.data[...] = 1.0
        state = (Tensor(np.array([0.25])), Tensor(np.array([0.0])))
        out = combine(Tensor(np.array([0.5])), state, combiner)
        assert out.data[0] == pytest.approx(np.tanh(0.75), abs=1e-15)
        assert out.data[0] == pytest.approx(0.63514895, abs=1e-8)

    def test_lstm_input_mode_runs_one_extra_step(self):
        rng = np.random.default_rng(7)
        params = make_params(3, 4, seed=8)
        combiner = Combiner.build("lstm-input", 6, 4, 3, rng)
        state = (Tensor(rng.uniform(-0.5, 0.5, 4)), Tensor(rng.uniform(-0.5, 0.5, 4)))
        sentence = Tensor(rng.uniform(-0.5, 0.5, 6))
        out = combine(sentence, state, combiner, lstm=params)
        projected = Tensor(combiner.tensors[0].data @ sentence.data)
        expected, _ = lstm_step(projected, state[0], state[1], params)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-15)

    def test_mode_parameter_mismatches_are_config_errors(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ConfigError):
            Combiner.build("nonsense", 4, 3, 3, rng)
        combiner = Combiner.build("tanh", 4, 3, 3, rng)
        with pytest.raises(ConfigError):
            combine(Tensor(np.zeros(4)), None, combiner)
        projector = Combiner.build("lstm-input", 4, 3, 3, rng)
        state = (Tensor(np.zeros(3)), Tensor(np.zeros(3)))
        with pytest.raises(ConfigError):
            combine(Tensor(np.zeros(4)), state, projector, lstm=None)
