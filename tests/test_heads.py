"""Stacked softmax heads: every head of a model is one product and one softmax per head's block of columns."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nbestslu import autograd as ag
from nbestslu.autograd import Tensor
from nbestslu.checkpoint import load_checkpoint_dir, load_container
from nbestslu.config import RunConfig
from nbestslu.data import collect_system_tokens
from nbestslu.decoder import decode_turns
from nbestslu.errors import ShapeMismatchError
from nbestslu.model import SlotValueModel, StepOneModel
from nbestslu.optim import Adadelta

from _gradcheck import max_rel_error, weighted_sum
from _synth import synthetic_dataset, synthetic_table

# A 12-class head sums past the eight elements where numpy's pairwise summation starts, beside 2-class heads.
SIZES = (12, 2, 2, 2)
CFG = RunConfig(model="cnn_lstm_w4", embedding_dim=12, filter_windows=(2, 3), filters_per_window=4,
                hidden_size=8, seed=13)
# A step-one checkpoint of the `cnn` variant written while every head was its own product, with the
# step-one frames that version decoded from it on `synthetic_dataset()`.
UNSTACKED = Path(__file__).resolve().parent / "data" / "unstacked_heads"


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset()


@pytest.fixture(scope="module")
def store():
    return synthetic_table(dim=12)


def stacked_heads(rng, sizes, inputs):
    """(stacked, heads, starts, sizes) for ``softmax_heads``: random weights and biases, one row block per head."""
    weight, bias = rng.uniform(-1, 1, (sum(sizes), inputs)), rng.uniform(-1, 1, sum(sizes))
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    heads = [(Tensor(weight[start : start + size], requires_grad=True),
              Tensor(bias[start : start + size], requires_grad=True)) for start, size in zip(starts, sizes)]
    return (weight, bias), heads, starts, sizes


def contracted(out: Tensor, contract: np.ndarray) -> Tensor:
    """A scalar from a [C] or [B, C] output through fixed per-entry weights."""
    rows = ag.unstack(out) if out.ndim == 2 else (out,)
    return ag.add_n([weighted_sum(row, weights) for row, weights in zip(rows, np.atleast_2d(contract))])


class TestSoftmaxHeads:
    @pytest.mark.parametrize("shape", [(7,), (4, 7)], ids=["vector", "rows"])
    def test_each_block_is_its_heads_own_softmax(self, shape):
        rng = np.random.default_rng(1)
        stacked, heads, starts, sizes = stacked_heads(rng, SIZES, 7)
        x = Tensor(rng.normal(0, 3, shape))
        out = ag.softmax_heads(x, stacked, heads, starts, sizes).data
        assert out.shape == shape[:-1] + (sum(SIZES),)
        for (weight, bias), start, size in zip(heads, starts, sizes):
            alone = ag.softmax(ag.affine(x, weight, bias)).data
            np.testing.assert_allclose(out[..., start : start + size], alone, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(7,), (4, 7)], ids=["vector", "rows"])
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(2)
        stacked, heads, starts, sizes = stacked_heads(rng, SIZES, 7)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        contract = rng.uniform(0.5, 1.5, shape[:-1] + (sum(SIZES),))

        def loss_fn():
            return contracted(ag.softmax_heads(x, stacked, heads, starts, sizes), contract)

        assert max_rel_error(loss_fn, [x, *(t for pair in heads for t in pair)]) < 1e-6

    def test_one_loss_over_the_blocks_is_the_sum_of_the_heads_losses(self):
        # Training's step-one loss: one target class per head and row, read as a column of the stacked rows.
        rng = np.random.default_rng(3)
        stacked, heads, starts, sizes = stacked_heads(rng, SIZES, 7)
        x = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        classes = np.stack([rng.integers(0, size, 5) for size in sizes], axis=1)
        params = [x, *(t for pair in heads for t in pair)]

        def loss_fn():
            return ag.nll_loss(ag.softmax_heads(x, stacked, heads, starts, sizes), classes + starts)

        assert max_rel_error(loss_fn, params) < 1e-6
        loss_fn().backward()
        joint = [t.grad.copy() for t in params]
        for t in params:
            t.grad = None
        ag.add_n([ag.nll_loss(ag.softmax(ag.affine(x, *pair)), column)
                  for pair, column in zip(heads, classes.T)]).backward()
        for t, grad in zip(params, joint):
            np.testing.assert_allclose(grad, t.grad, rtol=0, atol=1e-14)
        per_head = sum(ag.nll_loss(ag.softmax(ag.affine(x, *pair)), column).item()
                       for pair, column in zip(heads, classes.T))
        assert loss_fn().item() == pytest.approx(per_head, rel=1e-14)

    def test_a_column_picked_twice_counts_twice(self):
        probs = Tensor([[0.5, 0.5, 0.25, 0.75]], requires_grad=True)
        loss = ag.nll_loss(probs, [[3, 3]])
        loss.backward()
        assert loss.item() == pytest.approx(-2 * np.log(0.75), rel=1e-15)
        np.testing.assert_allclose(probs.grad, [[0.0, 0.0, 0.0, -2 / 0.75]], rtol=1e-15)

    @pytest.mark.parametrize("scale", [800.0, 1e4])
    def test_saturated_blocks_give_a_finite_loss_and_probs_minus_onehot(self, scale):
        # With x = [1] and zero biases each block's logits are its weight column.  The first two
        # targets underflow to the floor, -log(1e-300) = 690.78 each; the third is certain.
        logits = np.array([scale, -scale, 0.0, 0.0, scale, -scale, 0.0])
        sizes = np.array([3, 2, 2])
        starts = np.cumsum(sizes) - sizes
        stacked = (logits[:, None].copy(), np.zeros(7))
        heads = [(Tensor(stacked[0][start : start + size], requires_grad=True),
                  Tensor(stacked[1][start : start + size], requires_grad=True)) for start, size in zip(starts, sizes)]
        probs = ag.softmax_heads(Tensor([[1.0]]), stacked, heads, starts, sizes)
        classes = np.array([[1, 0, 1]])
        loss = ag.nll_loss(probs, classes + starts)
        loss.backward()
        assert loss.item() == pytest.approx(2 * 690.7755278982137, abs=1e-9)
        assert np.all(probs.data >= ag.PROB_FLOOR)
        onehot = np.zeros(7)
        onehot[(classes + starts)[0]] = 1.0
        grad = np.concatenate([weight.grad[:, 0] for weight, _ in heads])
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad - (probs.data[0] - onehot))) <= 2.0 ** -53

    def test_an_input_of_another_width_is_refused(self):
        stacked, heads, starts, sizes = stacked_heads(np.random.default_rng(4), SIZES, 7)
        for shape in [(6,), (2, 6), (2, 3, 7)]:
            with pytest.raises(ShapeMismatchError) as err:
                ag.softmax_heads(Tensor(np.ones(shape)), stacked, heads, starts, sizes)
            assert str(shape) in str(err.value)


class TestModelHeads:
    def test_each_heads_tensors_are_row_blocks_of_the_stacked_arrays(self, dataset, store):
        model = StepOneModel.build(CFG, dataset.ontology, collect_system_tokens(dataset.turns), store)
        weight, bias = model.stacked
        assert list(model.sizes) == [len(dataset.ontology.acts)] + [2] * len(dataset.ontology.slots)
        for (w, b), start, size in zip(model.heads.values(), model.starts, model.sizes):
            assert w.data.base is weight and b.data.base is bias
            np.testing.assert_array_equal(w.data, weight[start : start + size])
            np.testing.assert_array_equal(b.data, bias[start : start + size])
        # In-place writes to the heads, as the decoder tests make them, reach the one product.
        for pair in model.heads.values():
            for tensor in pair:
                tensor.data[...] = 0.0
        assert not weight.any() and not bias.any()
        act, slots = model.head_probs(Tensor(np.ones(CFG.hidden_size)))
        np.testing.assert_array_equal(act.data, np.full(len(dataset.ontology.acts), 1 / len(dataset.ontology.acts)))
        assert all(np.array_equal(probs.data, [0.5, 0.5]) for probs in slots.values())

    def test_head_probs_are_blocks_of_one_node(self, dataset, store):
        model = StepOneModel.build(CFG, dataset.ontology, collect_system_tokens(dataset.turns), store)
        hidden = Tensor(np.random.default_rng(5).normal(size=(3, CFG.hidden_size)), requires_grad=True)
        act, slots = model.head_probs(hidden)
        ((joint,),) = {t._parents for t in (act, *slots.values())}
        assert joint.shape == (3, sum(model.sizes))
        assert list(joint._parents) == [hidden, *(t for pair in model.heads.values() for t in pair)]
        weights = np.split(np.random.default_rng(6).uniform(0.5, 1.5, (3, sum(model.sizes))), model.starts[1:], axis=1)

        def loss_fn():
            act, slots = model.head_probs(hidden)
            return ag.add_n([contracted(probs, block) for probs, block in zip([act, *slots.values()], weights)])

        assert max_rel_error(loss_fn, [hidden, *model.heads["head.act"], *model.heads["head.slot.food"]]) < 1e-6

    def test_a_value_model_is_one_block(self, dataset, store):
        model = SlotValueModel.build(CFG, dataset.ontology, "food", collect_system_tokens(dataset.turns), store)
        ((weight, bias),) = model.heads.values()
        hidden = Tensor(np.random.default_rng(7).normal(size=CFG.hidden_size), requires_grad=True)
        probs = model.value_probs(hidden)
        assert list(probs._parents) == [hidden, weight, bias]
        np.testing.assert_allclose(probs.data, ag.softmax(ag.affine(hidden, weight, bias)).data, rtol=0, atol=1e-15)
        target = len(model.values) - 1
        assert max_rel_error(lambda: ag.nll_loss(model.value_probs(hidden), target), [hidden, weight, bias]) < 1e-6

    def test_an_optimizer_step_writes_through_the_heads_into_the_stacked_arrays(self, dataset, store):
        model = StepOneModel.build(CFG, dataset.ontology, collect_system_tokens(dataset.turns), store)
        optimizer = Adadelta(model.parameters(), 0.95, 1e-6)
        before = [array.copy() for array in model.stacked]
        for tensor in model.parameters().values():
            tensor.grad[...] = 1.0
        optimizer.step()
        assert all(np.all(array != old) for array, old in zip(model.stacked, before))
        assert all(w.data.base is model.stacked[0] and b.data.base is model.stacked[1]
                   for w, b in model.heads.values())

    def test_initial_values_are_pinned(self, dataset, store):
        # The digest of every initial array, heads included, at the last version that drew each head
        # alone: filling the stacked rows head by head must draw the same values.
        tokens = collect_system_tokens(dataset.turns)
        digests = []
        for model in (StepOneModel(CFG, dataset.ontology, tokens, store),
                      SlotValueModel(CFG, dataset.ontology, "food", tokens, store)):
            digest = hashlib.sha256()
            for name, array in model.arrays().items():
                digest.update(name.encode())
                digest.update(array.astype("<f8").tobytes())
            digests.append(digest.hexdigest()[:32])
        assert digests == ["69ecaa1ea73c5b3db57638ffce8acc50", "157a55ba9cbb158d560ec349233f32e9"]


def test_a_checkpoint_written_with_one_product_per_head_loads_and_decodes_the_same(dataset, store):
    step1, slot_models, _ = load_checkpoint_dir(UNSTACKED, store)
    assert slot_models == {}
    _, arrays, _ = load_container(UNSTACKED / "step1.ckpt")
    for name, (weight, bias) in step1.heads.items():
        np.testing.assert_array_equal(weight.data, arrays[f"{name}.w"])
        np.testing.assert_array_equal(bias.data, arrays[f"{name}.b"])
    np.testing.assert_array_equal(step1.stacked[0], np.concatenate([arrays[f"{name}.w"] for name in step1.heads]))
    expected = json.loads((UNSTACKED / "frames.json").read_text(encoding="utf-8"))
    frames = decode_turns(dataset.turns, step1, {}, step1_only=True)
    assert [(f.act, [s.slot for s in f.slots]) for f in frames] == [
        (act, [slot for slot, _ in items]) for act, _, items in expected]
    # 2.2e-16 on the machine that wrote the file; the bound leaves room for another BLAS's rounding.
    confidences = [[f.act_confidence, *(s.confidence for s in f.slots)] for f in frames]
    old = [[float.fromhex(act), *(float.fromhex(c) for _, c in items)] for _, act, items in expected]
    assert max(abs(a - b) for new, before in zip(confidences, old) for a, b in zip(new, before)) <= 1e-12
