"""A frozen plain-numpy forward pass of the exact model: the timing yardstick.

The benchmark runs this once before every timed op and reports op times as
multiples of it. On a shared host the wall-clock speed of the whole core
changes by ~1.5x from second to second as neighbours come and go; the
reference, run at the same moment on the same core, slows down with it,
so the ratio keeps the program's own cost. It lives in the benchmark and
never changes with the package, so a faster package gives a smaller ratio.

It also checks the package: its output must match `vit.model_forward`
to float32 rounding (see `REFERENCE_RTOL`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

# Same math in the same order as the package; the bound allows float32
# reassociation should either side change how it groups a sum.
REFERENCE_RTOL = 1e-5


def reference_forward(x: np.ndarray, model) -> np.ndarray:
    """Exact pre-norm ViT forward over all blocks, per head, float32."""
    eps = np.float32(1e-5)
    h = x + model.pos_enc
    for blk in model.blocks:
        d_h = blk.d_h
        scale = np.float32(1.0 / math.sqrt(d_h))
        a = (h - h.mean(-1, keepdims=True)) / np.sqrt(h.var(-1, keepdims=True) + eps)
        a = a * blk.norm1_scale + blk.norm1_shift
        heads = []
        for i in range(blk.n_h):
            cols = slice(i * d_h, (i + 1) * d_h)
            q = a @ blk.w_q[:, cols]
            k = a @ blk.w_k[:, cols]
            v = a @ blk.w_v[:, cols]
            t = (q @ k.T) * scale
            e = np.exp(t - t.max(axis=1, keepdims=True))
            heads.append((e / e.sum(axis=1, keepdims=True)) @ v)
        h = h + np.concatenate(heads, axis=1) @ blk.w_o
        f = (h - h.mean(-1, keepdims=True)) / np.sqrt(h.var(-1, keepdims=True) + eps)
        f = f * blk.norm2_scale + blk.norm2_shift
        u = f @ blk.ffn_w1
        u = u * np.float32(0.5) * (np.float32(1.0) + erf(u * np.float32(1.0 / math.sqrt(2.0))))
        h = h + u @ blk.ffn_w2
    return h
