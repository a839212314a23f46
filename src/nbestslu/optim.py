"""The Adadelta update rule.

Per parameter the optimizer keeps running averages of squared gradients
and squared updates:

    E[g^2]  <- rho * E[g^2]  + (1 - rho) * g^2
    step    <- -sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps) * g
    E[dx^2] <- rho * E[dx^2] + (1 - rho) * step^2
    param   <- param + step

No learning rate is involved; the ratio of the two accumulators sets the
effective step size.

A step is all or nothing: every gradient is checked for shape and
finiteness before any parameter or accumulator changes.  The update then
runs in place, through scratch buffers shared by all parameters, so
parameters that are views into shared storage (the LSTM's row blocks, the
embedding table's system block) are updated where they live.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .autograd import Tensor
from .errors import DomainError, NumericFailure, ShapeMismatchError


class Adadelta:
    """Adadelta over a named set of parameter tensors.

    ``step(batch_size)`` treats each tensor's accumulated ``grad`` as a sum
    over the batch and divides by ``batch_size``, so the update sees the
    mean per-example gradient, and then clears it for the next batch.  A
    parameter whose gradient is unset this batch goes through the same rule
    with a zero gradient: its value is a fixed point and its accumulators
    decay.
    """

    def __init__(self, params: Mapping[str, Tensor], rho: float = 0.95, epsilon: float = 1e-6):
        if not 0.0 < rho < 1.0:
            raise DomainError(f"adadelta decay must lie in (0, 1), got {rho}")
        if epsilon <= 0.0:
            raise DomainError(f"adadelta stabilizer must be positive, got {epsilon}")
        self._rho = rho
        self._epsilon = epsilon
        self._params = dict(params)
        # Per parameter: (E[g^2], E[dx^2]), shaped like the parameter.
        self._states = {name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in self._params.items()}
        largest = max((p.size for p in self._params.values()), default=0)
        self._scratch = np.empty((3, largest))

    def step(self, batch_size: int = 1) -> None:
        if batch_size < 1:
            raise DomainError(f"batch size must be at least 1, got {batch_size}")
        for name, p in self._params.items():
            if p.grad is None:
                continue
            if p.grad.shape != p.shape:
                raise ShapeMismatchError(f"gradient shape {p.grad.shape} does not match parameter shape {p.shape}")
            if not np.all(np.isfinite(p.grad)):
                raise NumericFailure(f"non-finite gradient for {name}; update aborted")

        inv = 1.0 / batch_size
        rho, eps, keep = self._rho, self._epsilon, 1.0 - self._rho
        for name, p in self._params.items():
            avg_sq_grad, avg_sq_step = self._states[name]
            grad, step, tmp = (buffer[: p.size].reshape(p.shape) for buffer in self._scratch)
            if p.grad is None:
                grad.fill(0.0)
            else:
                np.multiply(p.grad, inv, out=grad)
            # The formulas above in their own operation order, so the bits are those of
            # evaluating them directly; each operator is one pass into a scratch buffer.
            np.multiply(grad, keep, out=tmp)
            tmp *= grad
            avg_sq_grad *= rho
            avg_sq_grad += tmp
            np.add(avg_sq_step, eps, out=step)
            np.sqrt(step, out=step)
            np.negative(step, out=step)
            np.add(avg_sq_grad, eps, out=tmp)
            np.sqrt(tmp, out=tmp)
            step /= tmp
            step *= grad
            np.multiply(step, keep, out=tmp)
            tmp *= step
            avg_sq_step *= rho
            avg_sq_step += tmp
            p.data += step
            p.grad = None
