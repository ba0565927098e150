"""Exact ViT forward path: batched multi-head attention, pre-norm blocks.

This is both the baseline model and the ground-truth oracle that every
convolutional replacement is measured against. Exact attention runs a
block's heads batched, in head groups sized to stay in cache
(`attention`); the per-head functions are its oracles. Inputs are token
grids (n = m*m tokens, no class token); a learned positional table is
added once at the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import erf

from .tensor import (
    F32,
    ConfigError,
    ShapeError,
    _check_finite,
    as_f32,
    matmul,
    seed_stream,
    seeded_fill,
    softmax_rows,
)

LN_EPS = F32(1e-5)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    n_b blocks of n_h heads; token embedding dim d = n_h * d_h; tokens form
    an m x m grid (n = m*m); k is the replacement kernel size.
    """

    n_b: int = 6
    n_h: int = 4
    d: int = 64
    d_h: int = 16
    m: int = 8
    k: int = 3
    ffn_mult: int = 4

    def __post_init__(self):
        if self.d != self.n_h * self.d_h:
            raise ConfigError(f"d ({self.d}) must equal n_h*d_h ({self.n_h}*{self.d_h})")
        if self.m < self.k:
            raise ConfigError(f"grid side m ({self.m}) must be >= kernel size k ({self.k})")
        if self.k % 2 == 0 or self.k < 1:
            raise ConfigError(f"kernel size k must be odd and >= 1, got {self.k}")
        if min(self.n_b, self.n_h, self.d_h, self.m, self.ffn_mult) < 1:
            raise ConfigError("all dimensions must be positive")

    @property
    def n(self) -> int:
        return self.m * self.m

    def to_dict(self) -> dict:
        return {
            "n_b": self.n_b, "n_h": self.n_h, "d": self.d, "d_h": self.d_h,
            "m": self.m, "k": self.k, "ffn_mult": self.ffn_mult,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Config from its dict form; every field must be present and an
        exact int, so a missing key is refused rather than defaulted, and
        6.9, "6" and true are refused rather than converted."""
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:
            raise ConfigError(f"config field {missing[0]!r} is missing")
        for key, value in d.items():
            # type() is int: JSON true/false load as bool, a subclass of int
            if type(value) is not int:
                raise ConfigError(f"config field {key!r} must be an integer, got {value!r}")
        return cls(**d)


# Desk-scale default for running everything end to end.
DESK = ModelConfig(n_b=6, n_h=4, d=64, d_h=16, m=8, k=3)
# ViT-Large-like shape, used for cost accounting and single-block benches.
VITL = ModelConfig(n_b=24, n_h=16, d=1024, d_h=64, m=24, k=3)

PRESETS = {"desk": DESK, "vitl": VITL}


@dataclass
class BlockParams:
    """One transformer block's weights.

    w_q/w_k/w_v are (d, d) with head h occupying columns [h*d_h, (h+1)*d_h);
    w_o is (d, d) with head h occupying the matching row group.
    """

    n_h: int
    d_h: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ffn_w1: np.ndarray
    ffn_w2: np.ndarray
    norm1_scale: np.ndarray = field(repr=False, default=None)
    norm1_shift: np.ndarray = field(repr=False, default=None)
    norm2_scale: np.ndarray = field(repr=False, default=None)
    norm2_shift: np.ndarray = field(repr=False, default=None)


@dataclass
class Model:
    config: ModelConfig
    pos_enc: np.ndarray  # (n, d), added once at the input
    blocks: list


def head_cols(w: np.ndarray, h: int, d_h: int) -> np.ndarray:
    """Column slice of a (d, d) projection belonging to head h."""
    return w[:, h * d_h : (h + 1) * d_h]


def head_columns(w: np.ndarray, heads: tuple, d_h: int) -> np.ndarray:
    """The columns of `heads` (sorted) side by side, gathered into one
    C-contiguous array; w itself when they are all of them."""
    cols = np.concatenate([np.arange(h * d_h, (h + 1) * d_h) for h in heads])
    return w if len(cols) == w.shape[1] else np.take(w, cols, axis=1)


def head_rows(w: np.ndarray, h: int, d_h: int) -> np.ndarray:
    """Row group of the output projection belonging to head h."""
    return w[h * d_h : (h + 1) * d_h, :]


# Weight tensors of one block, in the order they are seeded and archived.
BLOCK_TENSOR_NAMES = ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_w2")


def block_shapes(config: ModelConfig) -> dict:
    """Shape of every tensor of one block, in archive order: the weights
    (BLOCK_TENSOR_NAMES), then the two layer norms' scale and shift."""
    d, hidden = config.d, config.ffn_mult * config.d
    return {
        "w_q": (d, d), "w_k": (d, d), "w_v": (d, d), "w_o": (d, d),
        "ffn_w1": (d, hidden), "ffn_w2": (hidden, d),
        "norm1_scale": (d,), "norm1_shift": (d,),
        "norm2_scale": (d,), "norm2_shift": (d,),
    }


def init_model(config: ModelConfig, seed: int) -> Model:
    """Build a model with gaussian(0, 1/sqrt(d)) weights from one seed.

    Tensors consume derived seeds in a fixed order (pos_enc, then each
    block's weights in BLOCK_TENSOR_NAMES order), so the whole model is a
    pure function of (config, seed).
    """
    seeds = seed_stream(seed)
    std = 1.0 / math.sqrt(config.d)
    d = config.d
    shapes = block_shapes(config)
    pos_enc = seeded_fill((config.n, d), next(seeds), "gaussian", 0.0, std)
    blocks = []
    for _ in range(config.n_b):
        tensors = {
            name: seeded_fill(shapes[name], next(seeds), "gaussian", 0.0, std)
            for name in BLOCK_TENSOR_NAMES
        }
        blocks.append(BlockParams(
            n_h=config.n_h, d_h=config.d_h,
            norm1_scale=np.ones(d, dtype=F32), norm1_shift=np.zeros(d, dtype=F32),
            norm2_scale=np.ones(d, dtype=F32), norm2_shift=np.zeros(d, dtype=F32),
            **tensors,
        ))
    return Model(config=config, pos_enc=pos_enc, blocks=blocks)


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    # the arithmetic of x.mean and x.var, bit for bit, without their Python
    # wrappers or x.var's second mean; then normalise, scale and shift in place
    x = as_f32(x)
    n = x.shape[-1]
    x = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    x /= np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / n + LN_EPS)
    x *= scale
    x += shift
    return x


def gelu(x: np.ndarray) -> np.ndarray:
    return x * F32(0.5) * (F32(1.0) + erf(x * F32(1.0 / math.sqrt(2.0))))


def ffn_forward(x: np.ndarray, block: BlockParams) -> np.ndarray:
    return matmul(gelu(matmul(x, block.ffn_w1)), block.ffn_w2)


def qkv_project(x: np.ndarray, block: BlockParams, h: int):
    """Project tokens (n, d) to this head's query/key/value, each (n, d_h)."""
    if not 0 <= h < block.n_h:
        raise ConfigError(f"head index {h} out of range [0, {block.n_h})")
    q = matmul(x, head_cols(block.w_q, h, block.d_h))
    k = matmul(x, head_cols(block.w_k, h, block.d_h))
    v = matmul(x, head_cols(block.w_v, h, block.d_h))
    return q, k, v


def head_energy(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row-stochastic attention-weight matrix softmax(q k^T / sqrt(d_h))."""
    scale = F32(1.0 / math.sqrt(q.shape[1]))
    return softmax_rows(matmul(q, k.T) * scale)


def head_attention(x: np.ndarray, block: BlockParams, h: int) -> np.ndarray:
    """One head's attention output (n, d_h)."""
    q, k, v = qkv_project(x, block, h)
    return matmul(head_energy(q, k), v)


def explicit_attention(e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Grid-form attention: reference evaluator for the flattened matmul.

    e is ((m*m), (m*m)) row-stochastic, v is (m, m, d_h); the output at
    (i, j) sums e[(i,j),(u,v)] * v[u, v] over the whole grid. Accumulates
    in float64 so it can serve as an independent oracle.
    """
    if v.ndim != 3 or v.shape[0] != v.shape[1]:
        raise ShapeError(f"values must be (m, m, d_h), got {v.shape}")
    m = v.shape[0]
    n = m * m
    if e.shape != (n, n):
        raise ShapeError(f"energy matrix {e.shape} does not match grid {m}x{m}")
    e64 = np.asarray(e, dtype=np.float64)
    v64 = np.asarray(v, dtype=np.float64)
    out = np.zeros((m, m, v.shape[2]), dtype=np.float64)
    for i in range(m):
        for j in range(m):
            weights = e64[i * m + j].reshape(m, m)
            out[i, j] = (weights[:, :, None] * v64).sum(axis=(0, 1))
    return out.astype(F32)


# Bytes of float32 attention weights one head group may hold. Exact
# attention runs energies, softmax and EV over consecutive heads whose
# (g, n, n) weights fit it, so those passes stay in a core's 2 MiB L2
# cache: all four heads of a desk block form one group, a vitl block runs
# one head at a time.
GROUP_BYTES = 2 * 1024 * 1024


def group_size(n: int) -> int:
    """Heads per group over n tokens: as many as fit GROUP_BYTES, at least one."""
    return max(1, GROUP_BYTES // (4 * n * n))


def head_groups(c: int, n: int) -> list:
    """The [h0, h1) ranges of c heads that `attention` runs together over
    n tokens: consecutive, in head order."""
    g = group_size(n)
    return [(h0, min(h0 + g, c)) for h0 in range(0, c, g)]


def attention(x: np.ndarray, w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray,
              d_h: int, energy_tap=None) -> np.ndarray:
    """Attention of the heads whose q/k/v columns w_q, w_k, w_v (d, c)
    hold, returned side by side: one (n, c) C-contiguous array in head
    order, the layout `project_heads` and the drop-ins share. Three
    full-width GEMMs, then for each of `head_groups` in turn one stacked
    energy matmul, softmax in place and one stacked EV matmul that writes
    the group's columns of the output. Each head's columns are
    `head_attention`'s: bitwise where BLAS rounds the full-width and the
    per-head projection GEMMs alike (desk and vitl with OpenBLAS), else
    within float32 rounding (3.6e-7 at n_h=4, d=32, d_h=8, m=24).
    `energy_tap(e, h0)` sees each group's weights (g, n, n), heads
    h0 .. h0 + g - 1, once, in head order.

    Energies and EV are checked finite. Finite energies need no softmax
    check: shifted by their row max (or overflowing to -inf) they
    exponentiate into [0, 1] with a 1 in every row, so each row sum lies
    in [1, n]."""
    n = x.shape[0]
    q, k, v = (matmul(x, w).reshape(n, -1, d_h).transpose(1, 0, 2) for w in (w_q, w_k, w_v))
    out = np.empty((n, w_v.shape[1]), dtype=F32)
    heads = out.reshape(n, -1, d_h).transpose(1, 0, 2)
    scale = F32(1.0 / math.sqrt(d_h))
    for h0, h1 in head_groups(heads.shape[0], n):
        s = slice(h0, h1)
        e = _check_finite(np.matmul(q[s], k[s].transpose(0, 2, 1)), "matmul result")
        e *= scale
        with np.errstate(over="ignore"):  # a shift past -max overflows to -inf: weight 0
            e -= e.max(axis=2, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=2, keepdims=True)
        if energy_tap is not None:
            energy_tap(e, h0)
        _check_finite(np.matmul(e, v[s], out=heads[s]), "matmul result")
    return out


def project_heads(head_outputs: np.ndarray, block: BlockParams) -> np.ndarray:
    """Apply the output projection to the head outputs side by side, an
    (n, d) array in head order."""
    return matmul(head_outputs, block.w_o)


def mhsa_forward(x: np.ndarray, block: BlockParams, energy_tap=None) -> np.ndarray:
    """Multi-head self-attention of one block, (n, d) -> (n, d), every head
    through `attention`, which also takes `energy_tap`."""
    return project_heads(attention(x, block.w_q, block.w_k, block.w_v, block.d_h,
                                   energy_tap), block)


def mhsa_forward_headsum(x: np.ndarray, block: BlockParams) -> np.ndarray:
    """Head-sum form: sum_h Att^h . w_o[h-th row group].

    Algebraically identical to mhsa_forward; kept as the identity that
    makes per-head replacement well defined.
    """
    out = np.zeros((x.shape[0], block.w_o.shape[1]), dtype=F32)
    for h in range(block.n_h):
        out += matmul(head_attention(x, block, h), head_rows(block.w_o, h, block.d_h))
    return out


def block_forward(x: np.ndarray, block: BlockParams, mhsa_fn=None) -> np.ndarray:
    """Pre-norm residual block: x + MhSA(norm(x)), then x + FFN(norm(x)).

    `mhsa_fn(attn_in, block)` substitutes the attention sublayer: drop-in
    surgery, gating and the fit's capture all go through it.
    """
    attn_in = layer_norm(x, block.norm1_scale, block.norm1_shift)
    fn = mhsa_forward if mhsa_fn is None else mhsa_fn
    x = x + fn(attn_in, block)
    x = x + ffn_forward(layer_norm(x, block.norm2_scale, block.norm2_shift), block)
    return x


def model_forward(x: np.ndarray, model: Model, mhsa_fns=None) -> np.ndarray:
    """Full forward pass over all blocks; adds the positional table once.

    `mhsa_fns` maps block index -> substitute attention sublayer.
    """
    if x.shape != (model.config.n, model.config.d):
        raise ShapeError(
            f"input must be (n, d) = ({model.config.n}, {model.config.d}), got {x.shape}"
        )
    h = as_f32(x) + model.pos_enc
    for b, block in enumerate(model.blocks):
        h = block_forward(h, block, mhsa_fn=mhsa_fns.get(b) if mhsa_fns else None)
    return h


def grid(x: np.ndarray, m: int) -> np.ndarray:
    """Reshape flattened tokens (n, c) to the (m, m, c) grid view."""
    if x.shape[0] != m * m:
        raise ShapeError(f"cannot view {x.shape[0]} tokens as a {m}x{m} grid")
    return x.reshape(m, m, x.shape[1])


def flat(x: np.ndarray) -> np.ndarray:
    """Inverse of grid: (m, m, c) -> (m*m, c)."""
    return x.reshape(x.shape[0] * x.shape[1], x.shape[2])
