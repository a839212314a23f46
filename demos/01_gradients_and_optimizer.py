"""A tour of the numeric core: tape-based gradients and the Adadelta rule.

Run:  python3 demos/01_gradients_and_optimizer.py
"""

import numpy as np

from nbestslu import autograd as ag
from nbestslu.autograd import Tensor
from nbestslu.optim import Adadelta

print("== forward/backward on a small composite expression ==")
x = Tensor([0.2, -0.4, 0.6], requires_grad=True, name="x")
w = Tensor(np.array([[0.5, -1.0, 0.25], [1.5, 0.75, -0.5]]), requires_grad=True, name="w")
b = Tensor([0.1, -0.1], requires_grad=True, name="b")

hidden = ag.tanh(ag.affine(x, w, b))
probs = ag.softmax(hidden)
loss = ag.nll_loss(probs, target=0)
print("probs:", probs.data, " loss:", loss.item())

loss.backward()
print("d loss / d x:", x.grad)
print("d loss / d b:", b.grad)

print()
print("== the analytic gradient agrees with central finite differences ==")
h = 1e-5
numeric = np.zeros_like(b.data)
for i in range(b.size):
    for sign, slot in ((+1, 0), (-1, 1)):
        b.data[i] += sign * h
        out = ag.nll_loss(ag.softmax(ag.tanh(ag.affine(x, w, b))), 0).item()
        b.data[i] -= sign * h
        numeric[i] += sign * out / (2 * h)
print("analytic:", b.grad)
print("numeric: ", numeric)
print("max abs difference:", np.abs(b.grad - numeric).max())

print()
print("== max pooling routes gradient to the winning position only ==")
v = Tensor([0.1, 0.9, 0.3], requires_grad=True)
pooled, winner = ag.max_pool(v)
pooled.backward()
print(f"pooled value {pooled.item()} came from index {winner}; gradient: {v.grad}")

print()
print("== Adadelta: no learning rate, the accumulators set the step size ==")
param = Tensor([0.0], requires_grad=True, name="param")
optimizer = Adadelta({"param": param}, rho=0.95, epsilon=1e-6)
print("step  param        update")
previous = param.data[0]
for step in range(1, 9):
    param.grad = np.array([1.0])  # constant gradient of 1
    optimizer.step()
    print(f"{step:>4}  {param.data[0]: .6f}  {param.data[0] - previous: .6f}")
    previous = param.data[0]
print("the warm-up is visible: early steps are tiny, then they grow")
