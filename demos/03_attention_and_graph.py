"""Exercise the reconstitution stage: reassembly, attention, graph layer.

Demonstrates the algebraic identities the test suite pins down: identity
reassembly taps, identity head mixing vs plain multi-head attention,
permutation equivariance, and the identity graph convolution.

Run:  python demos/03_attention_and_graph.py
"""

import numpy as np

from sfinet.reconstitution import (gcn_forward, semantic_reassembly,
                                   talking_head_attention)
from sfinet.tensor import Tensor

rng = np.random.default_rng(3)
S, C, H = 6, 8, 2

g = Tensor(rng.standard_normal((S, C)))

print("== semantic reassembly ==")
identity = semantic_reassembly(g, Tensor(np.zeros(C)), Tensor(np.ones(C)), Tensor(np.zeros(C)))
print("identity taps reproduce the input:", np.array_equal(identity.data, g.data))
taps = [Tensor(rng.standard_normal(C) * 0.3) for _ in range(3)]
mixed = semantic_reassembly(g, *taps)
print("with random taps, row 0 uses rows 0..1 only; row 3 uses rows 2..4")

print("\n== talking-head attention ==")
d = C // H
wq = Tensor(rng.standard_normal((H, C, d)) * 0.5)
wk = Tensor(rng.standard_normal((H, C, d)) * 0.5)
wv = Tensor(rng.standard_normal((H, C, d)) * 0.5)

out_id, attn = talking_head_attention(mixed, wq, wk, wv, Tensor(np.eye(H)))
print("attention rows sum to 1:", np.allclose(attn.sum(axis=-1), 1.0))

mix = Tensor(np.array([[0.8, 0.2], [0.3, 0.7]]))
out_mixed, _ = talking_head_attention(mixed, wq, wk, wv, mix)
print("head mixing changes the output:", not np.allclose(out_id.data, out_mixed.data))

perm = rng.permutation(S)
direct, _ = talking_head_attention(Tensor(mixed.data[perm]), wq, wk, wv, mix)
print("permutation equivariant within 1e-9:",
      np.abs(direct.data - out_mixed.data[perm]).max() < 1e-9)

print("\n== graph convolution ==")
identity_out = gcn_forward(Tensor(np.abs(out_mixed.data)), Tensor(np.eye(S)), [Tensor(np.eye(C))])
print("Ad=I, W=I is the identity on non-negative input:",
      np.array_equal(identity_out.data, np.abs(out_mixed.data)))

adjacency = Tensor(np.full((S, S), 1.0 / S))  # the training start point
pooled = gcn_forward(out_mixed, adjacency, [Tensor(np.eye(C))])
print("uniform adjacency averages rows: row spread",
      float(np.ptp(pooled.data, axis=0).max()), "(tiny)")
