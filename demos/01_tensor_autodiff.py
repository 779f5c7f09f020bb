"""Walk through the tensor core: the tape, a custom op, and gradients.

A graph convolution (``reconstitution.gcn_layer``) feeds the stacked
pooled cross-entropy (``tensor.pooled_cross_entropy``), after a softplus
that this script defines itself with ``tensor.node``, the extension point
for new ops.

Run:  python demos/01_tensor_autodiff.py
"""

import numpy as np

from sfinet import tensor as T
from sfinet.gradcheck import check_grad
from sfinet.reconstitution import gcn_layer
from sfinet.tensor import CompGraph, Tensor

rng = np.random.default_rng(0)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x) elementwise: its backward hands each parent its gradient through ``accumulate``."""
    def bw(g):
        T.accumulate(x, g / (1.0 + np.exp(-x.data)))  # d softplus / dx = sigmoid(x)

    return T.node(np.logaddexp(0.0, x.data), (x,), bw, "softplus")


print("== a tiny graph and its tape ==")
params = {
    "rows": Tensor(rng.standard_normal((5, 3)), requires_grad=True),
    "adjacency": Tensor(rng.uniform(0.0, 0.4, (5, 5)), requires_grad=True),
    "weight": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
    "head": Tensor(rng.standard_normal((4, 3)), requires_grad=True),
}


def expression():
    graph_rows = gcn_layer(softplus(params["rows"]), params["adjacency"], params["weight"])
    return T.pooled_cross_entropy([(graph_rows, params["head"])], label=1)[0][0]


loss = expression()
print("ops executed, in order:")
for node in CompGraph.from_output(loss).nodes:
    print(f"  {node.op:20s} shape {node.shape}")

loss.backward()
print("\nanalytic dL/d(rows):\n", params["rows"].grad)

print("\n== cross-checking against central finite differences ==")
for name, err in check_grad(expression, params).items():
    print(f"  {name:10s} worst relative error {err:.3e}")

print("\n== determinism: repeated backward is bit-identical ==")
first = {name: p.grad.copy() for name, p in params.items()}
for p in params.values():
    p.zero_grad()
expression().backward()
print("bitwise equal:", all(np.array_equal(first[name], p.grad) for name, p in params.items()))
