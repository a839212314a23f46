"""Reverse-mode automatic differentiation over dense float64 arrays.

The tape is deliberately small: it covers exactly the operations the
semantic decoder composes (affine maps, tanh/sigmoid nonlinearities,
softmax heads with negative log-likelihood, max pooling with argmax
routing, inverted dropout, embedding-row gathers, elementwise sums and
products) plus two fused ops with hand-written backward passes: the
n-best convolution (``conv_nbest``, one node per n-best list, which
reads each distinct word's row once plus an index of where it occurs,
pools by max and finds the argmax only in backward) and the LSTM over a
whole sequence (``lstm_sequence``, which reads the gate
weights where ``context.LstmParams`` stores them, stacked gate-major).
Each op records a closure that routes the upstream gradient to its
inputs; ``Tensor.backward`` replays the closures in reverse topological
order, leaving gradients on every input that asked for them.

Graphs are single-use: once ``backward`` has run, the tape is released
and a fresh forward pass is required.  Parameters (leaf tensors with
``requires_grad=True``) accumulate gradients across backward calls until
the optimizer's step consumes them, which is how mini-batch gradients are
summed.  During a training run each parameter's ``grad`` is a view into
the run's flat gradient buffer (see ``optim``): ops add into it in place,
``gather_rows`` scatters into it, and the step zero-fills it.  Only
tensors inside a graph get freshly allocated gradients.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GraphStateError, NumericFailure, ShapeMismatchError

_finite_checks = False


def set_finite_checks(enabled: bool) -> None:
    """Validate every op output for NaN/Inf (slow; meant for tests)."""
    global _finite_checks
    _finite_checks = bool(enabled)


def _checked(opname: str, data: np.ndarray) -> np.ndarray:
    if _finite_checks and not np.all(np.isfinite(data)):
        raise NumericFailure(f"{opname} produced a non-finite value")
    return data


class Tensor:
    """A float64 array plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backprop", "_freed")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backprop: Callable[[np.ndarray], None] | None = None
        self._freed = False

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

    def backward(self, upstream=None) -> None:
        """Propagate gradients from this tensor back to every graph input.

        ``upstream`` seeds the gradient at this tensor; it defaults to 1
        for scalar outputs.  After the call the tape is released.
        """
        if self._freed:
            raise GraphStateError("graph already consumed by a previous backward; run a new forward pass")
        if self._backprop is None:
            raise GraphStateError("backward requires a completed forward pass with gradient-tracked inputs")
        if upstream is None:
            if self.data.size != 1:
                raise DomainError(f"implicit upstream gradient needs a scalar output, got shape {self.data.shape}")
            upstream = np.ones_like(self.data)
        else:
            upstream = np.asarray(upstream, dtype=np.float64)
            if upstream.shape != self.data.shape:
                raise ShapeMismatchError(
                    f"upstream gradient shape {upstream.shape} does not match output shape {self.data.shape}"
                )

        # Post-order DFS over the recorded graph; reversed, it is a valid
        # topological order (each node handled before any of its inputs).
        order: list[Tensor] = []
        seen: set[int] = {id(self)}
        frames = [(self, iter(self._parents))]
        while frames:
            node, parents = frames[-1]
            pushed = False
            for parent in parents:
                if parent._backprop is not None and id(parent) not in seen:
                    seen.add(id(parent))
                    frames.append((parent, iter(parent._parents)))
                    pushed = True
                    break
            if not pushed:
                order.append(node)
                frames.pop()

        self.grad = upstream.copy() if self.grad is None else self.grad + upstream
        for node in reversed(order):
            node._backprop(node.grad)
            node._parents = ()
            node._backprop = None
            node._freed = True
            if node is not self:
                node.grad = None


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backprop, opname: str) -> Tensor:
    out = Tensor(_checked(opname, data))
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
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
    """``weight @ x + bias`` for a vector input.

    Backward: d_weight = outer(g, x), d_x = weight.T @ g, d_bias = g.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if (
        weight.ndim != 2
        or x.ndim != 1
        or bias.ndim != 1
        or weight.shape[1] != x.shape[0]
        or weight.shape[0] != bias.shape[0]
    ):
        raise ShapeMismatchError(
            f"affine shapes do not conform: weight {weight.shape} @ x {x.shape} + bias {bias.shape}"
        )
    out = weight.data @ x.data + bias.data

    def backprop(g: np.ndarray) -> None:
        if weight.requires_grad:
            _accumulate(weight, np.outer(g, x.data))
        if x.requires_grad:
            _accumulate(x, weight.data.T @ g)
        if bias.requires_grad:
            _accumulate(bias, g)

    return _make(out, (x, weight, bias), backprop, "affine")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: [m,n] @ [n] -> [m] or [m,n] @ [n,p] -> [m,p]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul shapes do not conform: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backprop(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, np.outer(g, b.data) if b.ndim == 1 else g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(out, (a, b), backprop, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add shapes do not conform: {a.shape} + {b.shape}")
    out = a.data + b.data

    def backprop(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(out, (a, b), backprop, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul shapes do not conform: {a.shape} * {b.shape}")
    out = a.data * b.data

    def backprop(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _make(out, (a, b), backprop, "mul")


def add_n(parts: Sequence[Tensor]) -> Tensor:
    """Sum a sequence of same-shape tensors, left to right."""
    if not parts:
        raise DomainError("add_n needs at least one term")
    parts = tuple(as_tensor(p) for p in parts)
    shape = parts[0].shape
    for p in parts[1:]:
        if p.shape != shape:
            raise ShapeMismatchError(f"add_n shapes do not conform: {shape} vs {p.shape}")
    out = parts[0].data.copy()
    for p in parts[1:]:
        out += p.data

    def backprop(g: np.ndarray) -> None:
        for p in parts:
            _accumulate(p, g)

    return _make(out, parts, backprop, "add_n")


def tanh(t: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent; derivative is 1 - tanh(x)^2."""
    t = as_tensor(t)
    out = np.tanh(t.data)

    def backprop(g: np.ndarray) -> None:
        _accumulate(t, g * (1.0 - out * out))

    return _make(out, (t,), backprop, "tanh")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid split by sign, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(t: Tensor) -> Tensor:
    """Elementwise logistic sigmoid; derivative is s(x)(1 - s(x))."""
    t = as_tensor(t)
    out = _sigmoid(t.data)

    def backprop(g: np.ndarray) -> None:
        _accumulate(t, g * out * (1.0 - out))

    return _make(out, (t,), backprop, "sigmoid")


def softmax(logits: Tensor) -> Tensor:
    """Stable softmax over a vector of logits.

    The maximum logit is subtracted before exponentiation, so arbitrarily
    large inputs cannot overflow, and the argmax of the output always
    equals the argmax of the input.
    """
    logits = as_tensor(logits)
    if logits.ndim != 1 or logits.size == 0:
        raise DomainError(f"softmax needs a non-empty vector of logits, got shape {logits.shape}")
    shifted = logits.data - logits.data.max()
    exps = np.exp(shifted)
    probs = exps / exps.sum()

    def backprop(g: np.ndarray) -> None:
        _accumulate(logits, probs * (g - float(g @ probs)))

    return _make(probs, (logits,), backprop, "softmax")


def nll_loss(probs: Tensor, target: int) -> Tensor:
    """Negative log-likelihood of ``target`` under a probability vector."""
    probs = as_tensor(probs)
    if probs.ndim != 1:
        raise DomainError(f"nll_loss needs a probability vector, got shape {probs.shape}")
    target = int(target)
    if not 0 <= target < probs.size:
        raise DomainError(f"target {target} out of range for {probs.size} classes")
    p = probs.data[target]
    out = np.asarray(-np.log(p))

    def backprop(g: np.ndarray) -> None:
        contribution = np.zeros_like(probs.data)
        contribution[target] = -float(g) / p
        _accumulate(probs, contribution)

    return _make(out, (probs,), backprop, "nll_loss")


def max_pool(t: Tensor) -> tuple[Tensor, int]:
    """Maximum of a vector plus the index it came from.

    The index is what routes the gradient: backward delivers the upstream
    gradient to that single position and zero everywhere else.
    """
    t = as_tensor(t)
    if t.ndim != 1 or t.size == 0:
        raise DomainError(f"max_pool needs a non-empty vector, got shape {t.shape}")
    idx = int(np.argmax(t.data))
    out = np.asarray(t.data[idx])

    def backprop(g: np.ndarray) -> None:
        contribution = np.zeros_like(t.data)
        contribution[idx] = float(g)
        _accumulate(t, contribution)

    return _make(out, (t,), backprop, "max_pool"), idx


def conv_nbest(rows, index, lengths, weights, filters: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Weighted sum over an n-best list of max-pooled tanh convolutions.

    ``rows`` [U, D] holds each distinct word's vector once and ``index``
    [n, L] names, per hypothesis, the row at each of its L positions;
    hypothesis i spans its first ``lengths[i]`` positions and has weight
    ``weights[i]``.  Per (weight [w*D, M], bias [M]) pair of ``filters``,
    every distinct row goes through each of the w D-row blocks W_k of the
    weight once, proj_k = rows @ W_k, and the response of the window
    starting at s is sum over k of proj_k[index[:, s + k]], plus bias,
    through tanh.  Windows starting past ``lengths[i] - w`` are masked,
    each map is max-pooled, and the weighted pooled rows are summed left
    to right.  The output concatenates the pairs' sums.  Identical windows
    give bit-identical responses.

    Backward routes each map's gradient to its argmax over windows, the
    first window at the maximum since masked windows are -inf, and gathers
    the [n*(L-w+1), w*D] windows with one take of ``rows`` at
    ``index[:, s + k]``: with dMaps the tanh-input gradient, one non-zero
    per (hypothesis, filter) at its pooled window, d_weight = windows.T @
    dMaps and d_bias = dMaps summed.  A NaN map routes a NaN, so its filter
    gradient is NaN.  Rows, index, lengths and weights get no gradient.
    """
    rows = np.asarray(rows, dtype=np.float64)
    index = np.asarray(index, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if (rows.ndim != 2 or index.ndim != 2 or index.shape[0] == 0 or lengths.shape != index.shape[:1]
            or weights.shape != lengths.shape):
        raise ShapeMismatchError(f"conv_nbest needs [U, D] rows, an [n, L] index, n lengths and n weights, got "
                                 f"rows {rows.shape}, index {index.shape}, lengths {lengths.shape}, "
                                 f"weights {weights.shape}")
    if index.size and not (0 <= index.min() and index.max() < len(rows)):
        raise DomainError(f"conv_nbest index {index.tolist()} out of range for {len(rows)} rows")
    count, span = index.shape
    dim = rows.shape[1]
    shortest, longest = lengths.min(), lengths.max()
    filters = tuple((as_tensor(w), as_tensor(b)) for w, b in filters)
    responses = []
    for weight, bias in filters:
        width = weight.shape[0] // dim if weight.ndim == 2 and dim else 0
        if width < 1 or weight.shape[0] != width * dim or bias.shape != weight.shape[1:]:
            raise ShapeMismatchError(f"conv_nbest filter {weight.shape} + {bias.shape} does not fit {dim}-d rows")
        if shortest < width or longest > span:
            raise DomainError(f"hypothesis lengths {lengths.tolist()} leave no width-{width} window in {span} rows")
        starts = span - width + 1
        proj = rows @ weight.data.reshape(width, dim, -1)
        maps = proj[0].take(index[:, :starts], axis=0)
        for k in range(1, width):
            maps += proj[k].take(index[:, k : k + starts], axis=0)
        maps += bias.data
        np.tanh(maps, out=maps)
        maps[np.arange(starts)[None, :] > (lengths - width)[:, None]] = -np.inf
        responses.append(maps)
    pooled = np.concatenate([maps.max(axis=1) for maps in responses], axis=1)
    # accumulate adds the weighted rows strictly in order; sum may pair them.
    out = np.add.accumulate(pooled * weights[:, None])[-1]

    def backprop(g: np.ndarray) -> None:
        dpooled = weights[:, None] * g * (1.0 - pooled * pooled)
        offset = 0
        for (weight, bias), maps in zip(filters, responses):
            starts, maps_count = maps.shape[1:]
            width = span - starts + 1
            dmaximum = dpooled[:, offset : offset + maps_count]
            offset += maps_count
            # Masked windows are -inf, so the argmax is the first window at the maximum; a NaN map's
            # argmax is its first NaN, whose NaN gradient the optimizer then refuses.
            dmaps = np.zeros(maps.shape)
            dmaps[np.arange(count)[:, None], maps.argmax(axis=1), np.arange(maps_count)] = dmaximum
            windows = rows.take(index[:, np.arange(starts)[:, None] + np.arange(width)], axis=0)
            _accumulate(weight, windows.reshape(count * starts, width * dim).T @ dmaps.reshape(count * starts, -1))
            _accumulate(bias, dmaximum.sum(axis=0))

    return _make(out, tuple(t for pair in filters for t in pair), backprop, "conv_nbest")


def gather_rows(table: Tensor, indices) -> Tensor:
    """Rows ``indices`` of a [rows, dim] parameter as one [len(indices), dim] matrix.

    Backward scatters every row gradient into the table with one
    ``np.add.at``, so repeated indices sum their contributions.
    """
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeMismatchError(f"gather_rows needs a matrix, got shape {table.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ShapeMismatchError(f"gather_rows needs a vector of row indices, got shape {indices.shape}")
    if indices.size and not (0 <= indices.min() and indices.max() < table.shape[0]):
        raise DomainError(f"row indices {indices.tolist()} out of range for table with {table.shape[0]} rows")
    out = table.data[indices]

    def backprop(g: np.ndarray) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, indices, g)

    return _make(out, (table,), backprop, "gather_rows")


def lstm_sequence(xs: Tensor, h0: Tensor, c0: Tensor, params) -> tuple[Tensor, Tensor]:
    """Run an LSTM over the rows of ``xs`` from state (h0, c0); returns the final (hidden, cell).

    ``params`` is a ``context.LstmParams``: its ``stacked`` arrays W [4H, D],
    U [4H, H] and b [4H] hold the four gates gate-major, so each step's
    preactivations are (W x + b) + U h: two matrix-vector products for all
    four gates.  Its dicts ``w``, ``u`` and ``b`` hold the per-gate row
    blocks of those arrays, in the same gate order, as the tensors that
    receive the gradients.  (One [T, D] @ [D, 4H] product for all inputs
    would be fewer calls, but on a busy two-core host a threaded BLAS ran a
    product that size several times slower than T matrix-vector products.)
    A 1-D ``xs`` is a single step; an empty ``xs`` returns (h0, c0)
    themselves.

    Backward is backprop through time over the kept gates, cells and
    hiddens: with dZ the [T, 4H] preactivation gradients, X the inputs and
    H_prev the hiddens entering each step, dW = dZ.T @ X, dU = dZ.T @ H_prev,
    db = dZ summed over time, dxs = dZ @ W.  Each stacked product is added
    by gate onto the twelve row-block tensors before the next is computed,
    so at most one [4H, *] temporary is alive.  The final hidden is a second
    tape node under the final cell; its gradient joins the cell's backward.
    """
    xs, h0, c0 = as_tensor(xs), as_tensor(h0), as_tensor(c0)
    hidden_size, input_dim = params.hidden_size, params.input_dim
    steps = xs.data[None, :] if xs.ndim == 1 else xs.data
    if steps.ndim != 2 or steps.shape[1] != input_dim:
        raise ShapeMismatchError(f"lstm_sequence input shape {xs.shape} does not match input width {input_dim}")
    if h0.shape != (hidden_size,) or c0.shape != (hidden_size,):
        raise ShapeMismatchError(
            f"lstm_sequence state shapes h0 {h0.shape}, c0 {c0.shape} do not match hidden size {hidden_size}"
        )
    count = steps.shape[0]
    if count == 0:
        return h0, c0
    w, u, b = params.stacked
    gate_tensors = [*params.w.values(), *params.u.values(), *params.b.values()]
    sigmoids = 3 * hidden_size  # the input, forget and output gates; the update is the last H

    gates = np.empty((count, 4 * hidden_size))
    hiddens = np.empty((count + 1, hidden_size))
    cells = np.empty((count + 1, hidden_size))
    hiddens[0], cells[0] = h0.data, c0.data
    for t in range(count):
        z = gates[t]
        np.add(w @ steps[t], b, out=z)
        z += u @ hiddens[t]
        z[:sigmoids] = _sigmoid(z[:sigmoids])
        z[sigmoids:] = np.tanh(z[sigmoids:])
        i, f, o, g = z.reshape(4, hidden_size)
        cells[t + 1] = i * g + f * cells[t]
        hiddens[t + 1] = o * np.tanh(cells[t + 1])
    squashed = np.tanh(cells[1:])
    final_hidden_grad: list[np.ndarray] = []

    def backprop(dc: np.ndarray) -> None:
        dh = final_hidden_grad.pop() if final_hidden_grad else np.zeros(hidden_size)
        dc = dc.copy()
        dz = np.empty_like(gates)
        for t in range(count - 1, -1, -1):
            i, f, o, g = gates[t].reshape(4, hidden_size)
            dc += dh * o * (1.0 - squashed[t] * squashed[t])
            dzt = dz[t].reshape(4, hidden_size)
            dzt[0] = dc * g * i * (1.0 - i)
            dzt[1] = dc * cells[t] * f * (1.0 - f)
            dzt[2] = dh * squashed[t] * o * (1.0 - o)
            dzt[3] = dc * i * (1.0 - g * g)
            dh = u.T @ dz[t]
            dc *= f
        # One stacked product at a time, so no two [4H, *] temporaries are alive together.
        _accumulate_gates(params.w, dz.T @ steps)
        _accumulate_gates(params.u, dz.T @ hiddens[:-1])
        _accumulate_gates(params.b, dz.sum(axis=0))
        if xs.requires_grad:
            _accumulate(xs, (dz @ w).reshape(xs.shape))
        _accumulate(h0, dh)
        _accumulate(c0, dc)

    cell = _make(cells[-1], (xs, h0, c0, *gate_tensors), backprop, "lstm_sequence")

    def route_hidden(g: np.ndarray) -> None:
        final_hidden_grad.append(g)
        _accumulate(cell, np.zeros(hidden_size))

    return _make(hiddens[-1], (cell,), route_hidden, "lstm_sequence"), cell


def _accumulate_gates(tensors: dict[str, Tensor], grad: np.ndarray) -> None:
    """Add a stacked gate-major gradient onto its per-gate row-block tensors."""
    for tensor, block in zip(tensors.values(), grad.reshape(len(tensors), -1, *grad.shape[1:])):
        _accumulate(tensor, block)


def dropout_apply(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout for training: mask, then rescale by 1/(1-rate).

    Decoding never calls it, so no rescaling is needed at decode time.
    Rate zero returns ``t`` itself.  Backward multiplies by the forward mask.
    """
    t = as_tensor(t)
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return t
    keep = 1.0 - rate
    mask = (rng.random(t.shape) >= rate).astype(np.float64) / keep
    out = t.data * mask

    def backprop(g: np.ndarray) -> None:
        _accumulate(t, g * mask)

    return _make(out, (t,), backprop, "dropout")
