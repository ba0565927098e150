"""Attention on a token grid, seen as a spatial aggregation.

Every attention head mixes value vectors with a row-stochastic weight
matrix. Reshaping the n = m*m tokens back to their m x m grid makes that
mixing look like a convolution whose "kernel" depends on the input and on
the query position. This script walks through the exact path and checks
it against the grid-form evaluator.
"""

import numpy as np

from dwdropin import vit
from dwdropin.select import kernel_energy
from dwdropin.tensor import seeded_fill

cfg = vit.DESK
print(f"config: {cfg.n_b} blocks, {cfg.n_h} heads, d={cfg.d}, grid {cfg.m}x{cfg.m}")

model = vit.init_model(cfg, seed=42)
x = seeded_fill((cfg.n, cfg.d), 7, "gaussian")

# One head's weight matrix: every row sums to 1.
block = model.blocks[0]
q, k, v = vit.qkv_project(x, block, h=0)
e = vit.head_energy(q, k)
print(f"energy matrix shape {e.shape}, row sums in "
      f"[{e.sum(axis=1).min():.6f}, {e.sum(axis=1).max():.6f}]")

# The same computation written as an explicit sum over grid positions.
att = vit.head_attention(x, block, h=0)
att_grid = vit.explicit_attention(e, vit.grid(v, cfg.m))
gap = np.abs(att_grid - vit.grid(att, cfg.m)).max()
print(f"grid-form evaluator vs matmul path: max|diff| = {gap:.2e}")

# How concentrated is the mixing? Weight mass within the 3x3 neighborhood
# of each query, averaged over queries (a convolution-like head would put
# all of it there).
# The 3x3 window of every query is the support of an all-ones kernel head.
near = kernel_energy(np.ones((3, 3)), cfg.m) > 0
local = np.where(near, e, 0).sum(axis=1)
print(f"freshly initialized head: mean 3x3-local weight mass = {local.mean():.3f} "
      f"(1.0 would be a perfectly local head)")

# Full model forward.
out = vit.model_forward(x, model)
print(f"model forward: {x.shape} -> {out.shape}, output std {out.std():.3f}")
