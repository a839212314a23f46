"""Reverse-mode automatic differentiation over dense float64 arrays.

The tape is deliberately small: it covers exactly the operations the
semantic decoder composes (affine maps, tanh/sigmoid nonlinearities,
softmax heads with negative log-likelihood, max pooling with argmax
routing, inverted dropout, stacking tensors along a new first axis and
splitting them along it, elementwise sums and products) plus two fused
ops with hand-written backward passes, each reading its inputs as rows
of a table through an index: the n-best convolution (``conv_nbest``,
one node per batch of n-best lists, which projects each distinct word of
the batch once, pools pre-activations by max, and finds the argmax only
in backward, where it scatters the gradient back onto the projections)
and the LSTM (``lstm_sequence``, one packed kernel over a batch of whole
sequences, which gathers its embedding rows once and reads the gate
weights where ``context.LstmParams`` stores them, stacked gate-major).

Ops take ``Tensor`` inputs; only index, length, weight and target
arguments are plain arrays.  Affine maps, softmax and the negative
log-likelihood take one vector or a batch of B rows, [B, ...]: decoding
reads one turn's vector, while a training mini-batch stacks its hidden
vectors into rows, so each head and each loss term is one node for the
whole batch and the loss sums its rows.  Each op records a closure that
routes the upstream gradient to its inputs, and stamps the node with a
serial number.  A node is always recorded after its inputs, so creation
order is a topological order (the tape is a Wengert list):
``Tensor.backward`` runs from a scalar loss, seeded with gradient 1, and
replays the reachable closures in reverse serial order, leaving
gradients on every input that asked for them.

Graphs are single-use: once ``backward`` has run, the tape is released
and a fresh forward pass is required.  Parameters (leaf tensors with
``requires_grad=True``) accumulate gradients across backward calls until
the optimizer's step consumes them.  During a training run each
parameter's ``grad`` is a view into the run's flat gradient buffer (see
``optim``): ops add into it in place, ``lstm_sequence`` scatters into it,
and the step zero-fills it.  Only tensors inside a graph get freshly
allocated gradients.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GraphStateError, ShapeMismatchError

PROB_FLOOR = 1e-300  # the least probability softmax gives: -log of it is 690.78, and its reciprocal is finite


class Tensor:
    """A float64 array plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backprop", "_serial")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backprop: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape},{label} requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Propagate gradients from this scalar loss back to every graph input.

        The loss's own gradient is 1.  After the call the tape is released.
        """
        if self._backprop is None:
            raise GraphStateError("no unconsumed graph: run a forward pass with gradient-tracked inputs before each backward")
        if self.data.size != 1:
            raise DomainError(f"backward needs a scalar loss, got shape {self.data.shape}")

        # Every node is recorded after its inputs, so reverse creation order
        # handles each node before any of its inputs.
        reached = {self}
        frontier = [self]
        while frontier:
            for parent in frontier.pop()._parents:
                if parent._backprop is not None and parent not in reached:
                    reached.add(parent)
                    frontier.append(parent)

        self.grad = np.ones_like(self.data)
        for node in sorted(reached, key=lambda node: node._serial, reverse=True):
            node._backprop(node.grad)
            node._parents = ()
            node._backprop = None
            if node is not self:
                node.grad = None


# Stamps each recorded node in creation order (see ``Tensor.backward``).
_serials = itertools.count()


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backprop) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
        out._serial = next(_serials)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``weight @ x + bias`` for a vector input, or for each row of an [B, D] input: [B, C].

    Backward: d_weight = outer(g, x), d_x = weight.T @ g, d_bias = g; over
    rows, d_weight = g.T @ x, d_x = g @ weight and d_bias sums g's rows.
    """
    if (
        weight.ndim != 2
        or x.ndim not in (1, 2)
        or bias.ndim != 1
        or weight.shape[1] != x.shape[-1]
        or weight.shape[0] != bias.shape[0]
    ):
        raise ShapeMismatchError(
            f"affine shapes do not conform: weight {weight.shape} @ x {x.shape} + bias {bias.shape}"
        )
    rows = x.ndim == 2
    out = (x.data @ weight.data.T if rows else weight.data @ x.data) + bias.data

    def backprop(g: np.ndarray) -> None:
        if weight.requires_grad:
            _accumulate(weight, g.T @ x.data if rows else np.outer(g, x.data))
        if x.requires_grad:
            _accumulate(x, g @ weight.data if rows else weight.data.T @ g)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0) if rows else g)

    return _make(out, (x, weight, bias), backprop)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-vector product: [m,n] @ [n] -> [m]."""
    if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul shapes do not conform: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backprop(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, np.outer(g, b.data))
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(out, (a, b), backprop)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add shapes do not conform: {a.shape} + {b.shape}")
    out = a.data + b.data

    def backprop(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(out, (a, b), backprop)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul shapes do not conform: {a.shape} * {b.shape}")
    out = a.data * b.data

    def backprop(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _make(out, (a, b), backprop)


def _same_shapes(op: str, parts: Sequence[Tensor]) -> None:
    shape = parts[0].shape
    for p in parts[1:]:
        if p.shape != shape:
            raise ShapeMismatchError(f"{op} shapes do not conform: {shape} vs {p.shape}")


def add_n(parts: Sequence[Tensor]) -> Tensor:
    """Sum a sequence of same-shape tensors, left to right."""
    _same_shapes("add_n", parts)
    out = parts[0].data.copy()
    for p in parts[1:]:
        out += p.data

    def backprop(g: np.ndarray) -> None:
        for p in parts:
            _accumulate(p, g)

    return _make(out, tuple(parts), backprop)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Same-shape tensors as the slices of one tensor along a new first axis; the inverse of ``unstack``.

    Backward hands each part its slice of the gradient.
    """
    _same_shapes("stack", parts)
    out = np.stack([p.data for p in parts])

    def backprop(g: np.ndarray) -> None:
        for p, part in zip(parts, g):
            _accumulate(p, part)

    return _make(out, tuple(parts), backprop)


def tanh(t: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent; derivative is 1 - tanh(x)^2."""
    out = np.tanh(t.data)

    def backprop(g: np.ndarray) -> None:
        _accumulate(t, g * (1.0 - out * out))

    return _make(out, (t,), backprop)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid split by sign, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(t: Tensor) -> Tensor:
    """Elementwise logistic sigmoid; derivative is s(x)(1 - s(x))."""
    out = _sigmoid(t.data)

    def backprop(g: np.ndarray) -> None:
        _accumulate(t, g * out * (1.0 - out))

    return _make(out, (t,), backprop)


def softmax(logits: Tensor) -> Tensor:
    """Stable softmax over a vector of logits, or over each row of an [B, C] matrix of them.

    The maximum logit is subtracted before exponentiation, so arbitrarily
    large inputs cannot overflow, and the argmax of the output always
    equals the argmax of the input.  Each probability is floored at
    ``PROB_FLOOR``, so saturated logits give ``nll_loss`` a finite loss and
    the chain through it gives softmax minus one-hot; a probability at or
    above the floor keeps its bits.  Each row's result is bit-identical to
    the softmax of that row alone.
    """
    if logits.ndim not in (1, 2) or logits.size == 0:
        raise DomainError(f"softmax needs a non-empty vector or matrix of logits, got shape {logits.shape}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    probs = np.maximum(exps / exps.sum(axis=-1, keepdims=True), PROB_FLOOR)

    def backprop(g: np.ndarray) -> None:
        inner = g @ probs if g.ndim == 1 else np.einsum("bc,bc->b", g, probs)[:, None]
        _accumulate(logits, probs * (g - inner))

    return _make(probs, (logits,), backprop)


def nll_loss(probs: Tensor, target) -> Tensor:
    """Negative log-likelihood of ``target`` under a probability vector.

    Over [B, C] rows of probabilities, ``target`` holds one class per row
    and the result is the sum of the rows' negative log-likelihoods.
    """
    targets = np.asarray(target, dtype=np.int64)
    if probs.ndim not in (1, 2) or targets.shape != probs.shape[:-1]:
        raise ShapeMismatchError(f"nll_loss needs one target per row of probabilities, got targets "
                                 f"{targets.shape} for probabilities {probs.shape}")
    classes = probs.shape[-1]
    if not np.all((0 <= targets) & (targets < classes)):
        raise DomainError(f"targets {targets.tolist()} out of range for {classes} classes")
    rows = probs.data.reshape(-1, classes)
    picked = np.arange(len(rows)), targets.reshape(-1)
    p = rows[picked]
    out = np.asarray(-np.log(p).sum())

    def backprop(g: np.ndarray) -> None:
        contribution = np.zeros_like(rows)
        contribution[picked] = -float(g) / p
        _accumulate(probs, contribution.reshape(probs.shape))

    return _make(out, (probs,), backprop)


def max_pool(t: Tensor) -> tuple[Tensor, int]:
    """Maximum of a vector plus the index it came from.

    The index is what routes the gradient: backward delivers the upstream
    gradient to that single position and zero everywhere else.
    """
    if t.ndim != 1 or t.size == 0:
        raise DomainError(f"max_pool needs a non-empty vector, got shape {t.shape}")
    idx = int(np.argmax(t.data))
    out = np.asarray(t.data[idx])

    def backprop(g: np.ndarray) -> None:
        contribution = np.zeros_like(t.data)
        contribution[idx] = float(g)
        _accumulate(t, contribution)

    return _make(out, (t,), backprop), idx


def conv_nbest(rows, index, lengths, weights, filters: Sequence[tuple[Tensor, Tensor]], sizes) -> Tensor:
    """Weighted sums of max-pooled tanh convolutions over B n-best lists; returns [B, F].

    ``rows`` [U, D] holds each distinct word's vector once and ``index``
    [n, L] names, per hypothesis, the row at each of its L positions.  The
    lists' hypotheses come one list after another, ``sizes[b]`` of them for
    list b; one list is a batch of one.  Hypothesis i spans its first
    ``lengths[i]`` positions and has weight ``weights[i]``.  Per (weight
    [w*D, M], bias [M]) pair of ``filters`` (all with one M), every row goes
    through each D-row block W_k of the weight once, proj_k = rows @ W_k,
    and the pre-activation of the window starting at s is the sum over k of
    proj_k[index[:, s + k]], plus bias.  Windows past a hypothesis's length
    are masked, each map is max-pooled on its pre-activations, and tanh,
    being monotone, is applied once to the pooled [n, F].  Each list's
    weighted pooled rows are summed left to right into its output row.
    Identical windows give bit-identical pre-activations.

    Backward routes each map's gradient to the first window at its maximum
    pre-activation.  Per pair, one ``np.bincount`` adds each routed gradient
    onto the projected rows of its window, giving dProj [w, U, M], and
    d_weight is the product rows.T @ dProj, a row-block per W_k; d_bias is
    the routed gradients summed.  A NaN map routes a NaN, so its filter
    gradient is NaN.  Only the filters get gradients.
    """
    rows = np.asarray(rows, dtype=np.float64)
    index = np.asarray(index, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if (rows.ndim != 2 or index.ndim != 2 or index.shape[0] == 0 or lengths.shape != index.shape[:1]
            or weights.shape != lengths.shape or sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1
            or sizes.sum() != len(index) or not filters):
        raise ShapeMismatchError(f"conv_nbest needs [U, D] rows, an [n, L] index, n lengths, n weights, list "
                                 f"sizes summing to n and filters, got rows {rows.shape}, index {index.shape}, "
                                 f"lengths {lengths.shape}, weights {weights.shape}, sizes {sizes.tolist()} and "
                                 f"{len(filters)} filters")
    if index.size and not (0 <= index.min() and index.max() < len(rows)):
        raise DomainError(f"conv_nbest index {index.tolist()} out of range for {len(rows)} rows")
    count, span = index.shape
    dim, maps_count = rows.shape[1], filters[0][1].size
    shortest, longest = lengths.min(), lengths.max()
    # Window s of every hypothesis reads positions[s : s + w].  A position past a hypothesis's length
    # reads row U, whose projection is -inf, so every window that reaches past the end is masked.
    positions = np.where(np.arange(span)[:, None] < lengths, index.T, len(rows))
    responses = []  # per pair: the [windows, n, M] pre-activations
    for weight, bias in filters:
        width = weight.shape[0] // dim if weight.ndim == 2 and dim else 0
        if width < 1 or weight.shape != (width * dim, maps_count) or bias.shape != (maps_count,):
            raise ShapeMismatchError(f"conv_nbest filter {weight.shape} + {bias.shape} does not fit {dim}-d rows "
                                     f"and {maps_count} maps")
        if shortest < width or longest > span:
            raise DomainError(f"hypothesis lengths {lengths.tolist()} leave no width-{width} window in {span} rows")
        starts = span - width + 1
        proj = np.empty((width, len(rows) + 1, maps_count))
        np.matmul(rows, weight.data.reshape(width, dim, -1), out=proj[:, :-1])
        proj[:, -1] = -np.inf
        maps = proj[0].take(positions[:starts], axis=0)
        for k in range(1, width):
            maps += proj[k].take(positions[k : k + starts], axis=0)
        maps += bias.data
        responses.append(maps)
    peaks = [maps.max(axis=0) for maps in responses]
    pooled = np.tanh(np.concatenate(peaks, axis=1))
    # Each list's weighted rows are added strictly in order, as the list alone adds them; accumulate
    # does, where sum may pair them.
    weighted = pooled * weights[:, None]
    ends = np.cumsum(sizes).tolist()
    out = np.array([np.add.accumulate(weighted[end - size : end])[-1] for end, size in zip(ends, sizes.tolist())])

    def backprop(g: np.ndarray) -> None:
        dpooled = weights[:, None] * g[np.repeat(np.arange(len(sizes)), sizes)] * (1.0 - pooled * pooled)
        block_size = len(rows) * maps_count  # the entries of one block of dProj
        for (weight, bias), maps, peak, dmaximum in zip(filters, responses, peaks,
                                                       np.split(dpooled, len(filters), axis=1)):
            width = span - len(maps) + 1
            # The first window at the peak, as a flat position in index: window s scores S - s where it
            # reaches the peak, and a NaN map, which reaches it nowhere, takes window 0.
            score = (maps == peak) * np.arange(len(maps), 0, -1, dtype=np.int32)[:, None, None]
            best = (len(maps) - score.max(axis=0)) % len(maps) + np.arange(0, count * span, span)[:, None]
            # The dProj entry [k, row, map] of each (block k, hypothesis, map): the row its window reads at k.
            targets = index.take(best + np.arange(width)[:, None, None])
            targets *= maps_count
            targets += np.arange(0, width * block_size, block_size)[:, None, None] + np.arange(maps_count)
            dproj = np.bincount(targets.ravel(), np.broadcast_to(dmaximum, targets.shape).ravel(),
                                minlength=width * block_size)
            _accumulate(weight, (rows.T @ dproj.reshape(width, len(rows), maps_count)).reshape(width * dim, -1))
            _accumulate(bias, dmaximum.sum(axis=0))

    return _make(out, tuple(t for pair in filters for t in pair), backprop)


def lstm_sequence(rows: Tensor, index, h0: Tensor, c0: Tensor, params, lengths) -> tuple[Tensor, Tensor]:
    """Run an LSTM over B sequences of rows of a table; returns their final (hidden, cell).

    Step p reads row ``index[p]`` of the [V, D] ``rows``, as ``conv_nbest``
    reads its row table.  ``lengths[b]`` steps belong to sequence b, the
    sequences one after another along the N entries of ``index``; ``h0``,
    ``c0`` and the results are [B, H].  One sequence is a batch of one.  An
    empty ``index`` returns (h0, c0) themselves.
    ``params`` is a ``context.LstmParams``, whose ``stacked`` W [4H, D], U
    [4H, H] and b [4H] hold the gates gate-major and whose per-gate row
    blocks in ``w``, ``u`` and ``b`` receive the gradients.

    The sequences are sorted by length, stably and longest first, and laid
    out time-major, so the n_t still running at step t are the first n_t of
    step t - 1 and each step reads and writes contiguous rows (sequence
    bucketing, Khomenko et al. 2016, https://arxiv.org/abs/1708.05604).  The
    forward gathers each step's row once, straight into that layout.  As in
    Appleyard et al. 2016 (https://arxiv.org/abs/1604.01946), one [N, D]
    @ [D, 4H] product gives every input preactivation, and step t adds one
    [n_t, H] @ [H, 4H] recurrent product.  At paper sizes on two cores,
    sixteen [400 x 100] matrix-vector products took 167 us and one
    [16 x 100] @ [100 x 400] product 47 us.

    Backward through time computes the gates' local derivatives for all
    steps at once; step t scales them by its hidden and cell gradients and
    sends one [n_t, 4H] @ [4H, H] product to step t - 1.  With dZ the [N, 4H]
    preactivation gradients, dW = dZ.T @ X, dU = dZ.T @ H_prev, db = dZ
    summed and dX = dZ @ W are one product each over the packed rows.  dX
    is put back in input order and scattered onto the table with one
    ``np.add.at``, so a row that several steps read sums their gradients.
    A run is one tape node: the final hidden and cell states stacked on a
    new leading axis, returned split by ``unstack``.
    """
    if rows.ndim != 2 or rows.shape[1] != params.input_dim:
        raise ShapeMismatchError(f"lstm_sequence rows {rows.shape} are not a [V, {params.input_dim}] table")
    index, lengths = np.asarray(index, dtype=np.int64), np.asarray(lengths, dtype=np.int64)
    if index.ndim != 1 or lengths.ndim != 1 or lengths.sum() != index.size:
        raise ShapeMismatchError(f"lstm_sequence lengths {lengths.tolist()} do not cover index {index.tolist()}")
    if lengths.size and lengths.min() < 0:
        raise DomainError(f"lstm_sequence lengths must not be negative, got {lengths.tolist()}")
    if index.size and not (0 <= index.min() and index.max() < len(rows.data)):
        raise DomainError(f"lstm_sequence index {index.tolist()} out of range for {len(rows.data)} rows")
    count, total, size = len(lengths), len(index), params.hidden_size
    if h0.shape != (count, size) or c0.shape != (count, size):
        raise ShapeMismatchError(f"lstm_sequence states h0 {h0.shape}, c0 {c0.shape} are not {(count, size)}")
    if total == 0:
        return h0, c0
    w, u, b = params.stacked
    gate_tensors = [*params.w.values(), *params.u.values(), *params.b.values()]

    # The layout.  The state of the k-th longest sequence after t steps is state row
    # slot[t, k]: the initial states first, then each step's new states, running sequences
    # only, so every step reads and writes contiguous rows.  Packed row p is state row count + p.
    order = np.argsort(-lengths, kind="stable")
    rank = np.argsort(order)
    by_length = lengths[order]
    alive = np.arange(by_length[0] + 1)[:, None] <= by_length
    slot = np.cumsum(alive).reshape(alive.shape) - 1
    step_of, seq_of = np.nonzero(alive[1:])
    source = (np.cumsum(lengths) - lengths)[order][seq_of] + step_of  # the entry of index each packed row reads
    prev = slot[step_of, seq_of]  # the state row each packed row reads
    final = slot[lengths, rank]  # each sequence's last state row
    # Per step: the state rows it reads, the state rows it writes, and its packed rows.
    steps = [(slice(read, read + n), slice(write, write + n), slice(write - count, write - count + n))
             for read, write, n in zip(slot[:-1, 0].tolist(), slot[1:, 0].tolist(), alive[1:].sum(axis=1).tolist())]

    sigmoids = 3 * size  # the input, forget and output gates; the update is the last H
    packed = rows.data[index[source]]
    gates = packed @ w.T
    gates += b
    # With several rows per step the recurrent product runs about three times faster on a
    # C-ordered copy of U.T; one sequence's single rows multiply by U as it is.
    recurrent = u.T if count == 1 else np.ascontiguousarray(u.T)
    states = np.empty((2, count + total, size))  # hidden over cell: one index reads both final states
    hiddens, cells = states
    hiddens[:count] = h0.data[order]
    cells[:count] = c0.data[order]
    squashed = np.empty((total, size))  # tanh of each new cell
    for before, after, here in steps:
        z = gates[here]
        z += hiddens[before] @ recurrent
        # s(z) = (1 + tanh(z / 2)) / 2, so one tanh over contiguous rows covers all four gates.
        s = z[:, :sigmoids]
        s *= 0.5
        np.tanh(z, out=z)
        s *= 0.5
        s += 0.5
        cell = cells[after]
        np.multiply(z[:, :size], z[:, sigmoids:], out=cell)
        cell += z[:, size : 2 * size] * cells[before]
        np.tanh(cell, out=squashed[here])
        np.multiply(z[:, 2 * size : sigmoids], squashed[here], out=hiddens[after])

    def backprop(dstate: np.ndarray) -> None:
        dstates = np.zeros_like(states)
        dhiddens, dcells = dstates
        dstates[:, final] = dstate
        # Local derivatives for all steps at once: the preactivation gradient of gate block k is
        # scale[:, k] times the row's cell gradient (its hidden gradient for the output gate).
        gate = gates.reshape(total, 4, size)
        i, f, o, g = (gate[:, k] for k in range(4))
        scale = np.empty_like(gate)
        np.multiply(gate[:, :3], 1.0 - gate[:, :3], out=scale[:, :3])
        scale[:, 0] *= g
        scale[:, 1] *= cells[prev]
        scale[:, 2] *= squashed
        np.multiply(i, 1.0 - g * g, out=scale[:, 3])
        carry = o * (1.0 - squashed * squashed)  # d cell / d hidden of the same step
        dz = np.empty_like(gate)
        for before, after, here in reversed(steps):
            dh, dcell = dhiddens[after], dcells[after]
            dcell += dh * carry[here]
            np.multiply(scale[here], dcell[:, None, :], out=dz[here])
            np.multiply(scale[here, 2], dh, out=dz[here, 2])
            dhiddens[before] += dz[here].reshape(-1, 4 * size) @ u
            dcells[before] += dcell * f[here]
        dz = dz.reshape(total, 4 * size)
        # One stacked product at a time, so no two [4H, *] temporaries are alive together.
        _accumulate_gates(params.w, dz.T @ packed)
        _accumulate_gates(params.u, dz.T @ hiddens[prev])
        _accumulate_gates(params.b, dz.sum(axis=0))
        if rows.requires_grad:
            dxs = np.empty((total, rows.shape[1]))
            dxs[source] = dz @ w
            if rows.grad is None:
                rows.grad = np.zeros_like(rows.data)
            np.add.at(rows.grad, index, dxs)
        _accumulate(h0, dhiddens[rank])
        _accumulate(c0, dcells[rank])

    return unstack(_make(states[:, final], (rows, h0, c0, *gate_tensors), backprop))


def _accumulate_gates(tensors: dict[str, Tensor], grad: np.ndarray) -> None:
    """Add a stacked gate-major gradient onto its per-gate row-block tensors."""
    for tensor, block in zip(tensors.values(), grad.reshape(len(tensors), -1, *grad.shape[1:])):
        _accumulate(tensor, block)


def unstack(t: Tensor) -> tuple[Tensor, ...]:
    """The slices of a tensor along its first axis as separate tensors.

    ``t`` has two or more dimensions; backward adds each slice's gradient
    into its slice.
    """
    if t.ndim < 2:
        raise ShapeMismatchError(f"unstack needs two or more dimensions, got shape {t.shape}")

    def row(k: int) -> Tensor:
        def backprop(g: np.ndarray) -> None:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad[k] += g

        return _make(t.data[k], (t,), backprop)

    return tuple(row(k) for k in range(len(t.data)))


def dropout_apply(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout for training: mask, then rescale by 1/(1-rate).

    Decoding never calls it, so no rescaling is needed at decode time.
    Rate zero returns ``t`` itself.  Backward multiplies by the forward mask.
    """
    if rate == 0.0:
        return t
    keep = 1.0 - rate
    mask = (rng.random(t.shape) >= rate).astype(np.float64) / keep
    out = t.data * mask

    def backprop(g: np.ndarray) -> None:
        _accumulate(t, g * mask)

    return _make(out, (t,), backprop)
