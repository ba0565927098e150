"""Exact ViT forward path: batched multi-head attention, pre-norm blocks.

This is both the baseline model and the ground-truth oracle that every
convolutional replacement is measured against. A block holds its query,
key and value projections as one (d, 3d) array (`BlockParams.w_qkv`),
built once, so exact attention (`attention`) projects with one GEMM and
then runs the heads batched, in head groups sized to stay in cache; the
per-head functions are its oracles. The FFN's GELU is one loop over row
bands at every size, in place past one band, else into a new array. Its
erf runs on |u|/sqrt 2 and the sign is put back after: that keeps scipy's
bits, since that erf is odd bit for bit, and spares erf a sign branch
that mispredicts on inputs of random sign. Head groups and GELU bands are
both sized by `tensor.GROUP_BYTES`, the budget `dwconv2d`'s bands also
use. Inputs are token grids (n = m*m tokens, no class token); a learned
positional table is added once at the input (`embed`).

One block loop (`blocks_forward`) runs every forward: one sample's (n, d)
residual in `model_forward`, or in the one sample pass (`attention_reads`),
which scoring taps and the fit's capture folds, a chunk stacked as one
(B*n, d) residual, so each block's row-wise work (norms, GEMMs, GELU,
residual adds) runs once per chunk while its weights stay in cache, and
only the attention core runs per sample. Chunks hold as many samples as
fit GROUP_BYTES at a block's peak (`chunk_size`): 8 at desk, 1 at vitl.
At desk the pass runs on two cores as two stages (`two_stage`): the
calling thread runs the first half of the blocks, one worker thread the
rest, a chunk behind. OpenBLAS threads an sgemm past about 10^6
multiply-adds and its second thread then spins, taking the other stage's
core, so the pass runs its GEMMs in row pieces within that size
(`tensor.small_gemms`); every other GEMM stays one call. At vitl, whose
GEMMs no row piece fits and already run on both cores, the pass runs on
the calling thread alone.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import queue
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import erf

from .tensor import (
    F32,
    ConfigError,
    ShapeError,
    _check_finite,
    as_f32,
    budget_units,
    matmul,
    piece_rows,
    seed_stream,
    seeded_fill,
    small_gemms,
    softmax_rows,
)

LN_EPS = F32(1e-5)
# Fewest rows a piece of the FFN's GEMM may hold for the sample pass to
# run on two threads (`two_stage`); thinner pieces waste the GEMM kernel:
# a desk chunk's FFN GEMMs in 16-row pieces took 1.2-1.7x the time of
# 48-row ones.
MIN_PIECE_ROWS = 16


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
        return asdict(self)

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
    w_o is (d, d) with head h occupying the matching row group. The block
    holds one float32 (d, 3d) array `w_qkv` = [w_q | w_k | w_v], built once
    here, and w_q, w_k and w_v are its column views: no second copy, and
    writing through a view writes the fused array. Rebinding a view is
    refused, since exact attention would not see it.
    """

    n_h: int
    d_h: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ffn_w1: np.ndarray
    ffn_w2: np.ndarray
    norm1_scale: np.ndarray = field(repr=False)
    norm1_shift: np.ndarray = field(repr=False)
    norm2_scale: np.ndarray = field(repr=False)
    norm2_shift: np.ndarray = field(repr=False)
    w_qkv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shapes = [np.shape(w) for w in (self.w_q, self.w_k, self.w_v)]
        if len(shapes[0]) != 2 or shapes.count(shapes[0]) != 3:
            raise ShapeError(f"w_q, w_k and w_v must share one (d, d) shape, got {shapes}")
        w_qkv = np.concatenate((self.w_q, self.w_k, self.w_v), axis=1, dtype=F32)
        self.w_q, self.w_k, self.w_v = np.split(w_qkv, 3, axis=1)
        self.w_qkv = w_qkv

    def __setattr__(self, name, value):
        if name in ("w_q", "w_k", "w_v") and hasattr(self, "w_qkv"):
            raise AttributeError(f"{name} is a view of w_qkv: write into it, do not rebind it")
        super().__setattr__(name, value)


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


def qkv_columns(block: BlockParams, heads: tuple) -> np.ndarray:
    """The query, key and value columns of `heads` (sorted) as one
    [W_q | W_k | W_v] array gathered from block.w_qkv, whose d_h-column
    slots run q heads, then k heads, then v heads: the weight `attention`
    takes for those heads, block.w_qkv itself when they are all of them."""
    slots = [part * block.n_h + h for part in range(3) for h in heads]
    return head_columns(block.w_qkv, slots, block.d_h)


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
    """Normalise each row, then scale and shift it. A row whose variance
    overflows float32 (|x| past about 1.8e19) raises NonFiniteError rather
    than normalising to its shift."""
    # the arithmetic of x.mean and x.var, bit for bit, without their Python
    # wrappers or x.var's second mean; then normalise, scale and shift in place
    x = as_f32(x)
    n = x.shape[-1]
    with np.errstate(over="ignore"):
        x = x - np.add.reduce(x, axis=-1, keepdims=True) / n
        var = _check_finite(np.add.reduce(x * x, axis=-1, keepdims=True) / n,
                            "layer norm variance")
    x /= np.sqrt(var + LN_EPS)
    x *= scale
    x += shift
    return x


def attention_input(x: np.ndarray, block: BlockParams) -> np.ndarray:
    """What a block's attention sublayer reads: its first layer norm of the
    residual x."""
    return layer_norm(x, block.norm1_scale, block.norm1_shift)


def gelu(u: np.ndarray) -> np.ndarray:
    """GELU of the C-contiguous float32 (p, q) array u, with the bits of the
    float32 expression u * 0.5 * (1 + erf(u * (1/sqrt 2))). erf runs on
    |u| * (1/sqrt 2) and copysign puts u's sign back: fl(|u| c) = |fl(u c)|,
    and scipy's erf (Cephes) begins "if x < 0, return -erf(-x)", so it is
    odd bit for bit (`tests/check_erf_sign.py` checks every float32). That
    branch mispredicts on inputs of random sign, never on |u|: gelu took 14%
    less time at desk, 26% at vitl (2-core x86-64, scipy 1.17).

    Every size runs one loop over row bands of GROUP_BYTES (`budget_units`)
    through one band-sized scratch t, so each band's passes stay in cache:
    t = |u|, t *= 1/sqrt 2, erf in place, copysign from u, t += 1,
    out = u * 0.5, out *= t. Size only picks where the result goes: an
    array that fits one band, already in cache, goes to a new array
    (writing into the GEMM's output measured slower at desk); a larger one
    is rewritten in place and returned, so the FFN holds no second hidden
    array. Each value takes the expression's float32 operations in order
    (1 + e and e + 1 round alike), so the bits are the expression's."""
    rows = budget_units(4 * u.shape[1])
    out = np.empty_like(u) if rows >= u.shape[0] else u
    t = np.empty((min(rows, u.shape[0]), u.shape[1]), dtype=F32)
    for i in range(0, u.shape[0], rows):
        band, o = u[i : i + rows], out[i : i + rows]
        t_b = t[: band.shape[0]]
        np.abs(band, out=t_b)
        t_b *= F32(1.0 / math.sqrt(2.0))
        erf(t_b, out=t_b)
        np.copysign(t_b, band, out=t_b)
        t_b += F32(1.0)
        np.multiply(band, F32(0.5), out=o)
        o *= t_b
    return out


def ffn_forward(x: np.ndarray, block: BlockParams) -> np.ndarray:
    """The FFN sublayer, (n, d) -> (n, d): a GEMM into the (n, hidden)
    array, `gelu` over it (in place, band by band, once it exceeds one
    band), then a GEMM back. x is not written."""
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


def group_size(n: int) -> int:
    """Heads per group over n tokens: as many as fit their (g, n, n)
    float32 weights in GROUP_BYTES, at least one. Exact attention runs
    energies, softmax and EV over one group at a time, so those passes stay
    in cache: all four heads of a desk block form one group, a vitl block
    runs one head at a time."""
    return budget_units(4 * n * n)


def head_groups(c: int, n: int) -> list:
    """The [h0, h1) ranges of c heads that `attention` runs together over
    n tokens: consecutive, in head order."""
    g = group_size(n)
    return [(h0, min(h0 + g, c)) for h0 in range(0, c, g)]


def attention(x: np.ndarray, w_qkv: np.ndarray, d_h: int, energy_tap=None) -> np.ndarray:
    """Attention of the heads whose query, key and value columns w_qkv
    (d, 3c) holds as [W_q | W_k | W_v], c columns each (a block's
    `BlockParams.w_qkv`, or a scattered block's kept heads), returned side
    by side: one C-contiguous array in head order, the layout
    `project_heads` and the drop-ins share. x is one sample's (n, d)
    tokens, giving (n, c), or a chunk of samples (B, n, d), giving
    (B, n, c). One projection GEMM over all the rows, whose q, k and v
    heads are strided views of its result, then per sample, in sample
    order, for each of `head_groups` in turn one stacked energy matmul,
    softmax in place and one stacked EV matmul that writes the group's
    columns of the output. Each head's columns are `head_attention`'s:
    bitwise where BLAS rounds the full-width and the per-head projection
    GEMMs alike (desk and vitl with OpenBLAS), else within float32
    rounding (3.6e-7 at n_h=4, d=32, d_h=8, m=24); a sample's columns do
    not depend on the chunk it came in. `energy_tap(e, h0)` sees each
    group's weights (g, n, n), heads h0 .. h0 + g - 1, once per sample:
    sample by sample, each in head order.

    The energies are checked finite per group, the output once. Finite
    energies need no softmax check: shifted by their row max (or
    overflowing to -inf) they exponentiate into [0, 1] with a 1 in every
    row, so each row sum lies in [1, n]. The output is checked whole
    rather than as each group's strided EV view, which the check would
    have to copy."""
    n, d = x.shape[-2:]
    c = w_qkv.shape[1] // 3
    q, k, v = matmul(x.reshape(-1, d), w_qkv).reshape(-1, n, 3, c // d_h, d_h).transpose(
        2, 0, 3, 1, 4)
    out = np.empty((*x.shape[:-1], c), dtype=F32)
    heads = out.reshape(-1, n, c // d_h, d_h).transpose(0, 2, 1, 3)
    groups = head_groups(c // d_h, n)
    scale = F32(1.0 / math.sqrt(d_h))
    for i in range(heads.shape[0]):
        for h0, h1 in groups:
            s = (i, slice(h0, h1))
            e = _check_finite(np.matmul(q[s], k[s].transpose(0, 2, 1)), "matmul result")
            e *= scale
            with np.errstate(over="ignore"):  # a shift past -max overflows to -inf: weight 0
                # max with an identity: numpy's reduce without one takes a slow path on short rows
                e -= np.maximum.reduce(e, axis=2, keepdims=True, initial=F32(-np.inf))
            np.exp(e, out=e)
            e /= e.sum(axis=2, keepdims=True)
            if energy_tap is not None:
                energy_tap(e, h0)
            np.matmul(e, v[s], out=heads[s])
    return _check_finite(out, "matmul result")


def project_heads(head_outputs: np.ndarray, block: BlockParams) -> np.ndarray:
    """Apply the output projection to the head outputs side by side, an
    (n, d) array in head order."""
    return matmul(head_outputs, block.w_o)


def mhsa_forward(x: np.ndarray, block: BlockParams) -> np.ndarray:
    """Multi-head self-attention of one block, (n, d) -> (n, d)."""
    return project_heads(attention(x, block.w_qkv, block.d_h), block)


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
    """Pre-norm residual block: x + MhSA(norm(x)), then x + FFN(norm(x)),
    over the rows of x: one sample's (n, d) tokens, or a chunk's (B*n, d).
    x is not written: the attention add makes the new residual, and the
    FFN adds into it in place.

    `mhsa_fn(attn_in, block)` substitutes the attention sublayer: drop-in
    surgery and the sample pass (`attention_reads`) go through it.
    """
    fn = mhsa_forward if mhsa_fn is None else mhsa_fn
    x = x + fn(attention_input(x, block), block)
    x += ffn_forward(layer_norm(x, block.norm2_scale, block.norm2_shift), block)
    return x


def blocks_forward(x: np.ndarray, model: Model, start: int, stop: int | None = None,
                   mhsa_fns=None) -> np.ndarray:
    """The one block loop: run the residual x entering block `start`
    through blocks [start, stop) (stop defaults to n_b) and return the
    residual entering block `stop`. `mhsa_fns` maps block index ->
    substitute attention sublayer (`block_forward`). x is not written."""
    for b in range(start, model.config.n_b if stop is None else stop):
        x = block_forward(x, model.blocks[b], mhsa_fn=mhsa_fns.get(b) if mhsa_fns else None)
    return x


def embed(x: np.ndarray, model: Model, out: np.ndarray | None = None) -> np.ndarray:
    """The residual entering block 0: the (n, d) input plus the positional
    table, into `out` if given. Any other shape is a ShapeError."""
    if x.shape != (model.config.n, model.config.d):
        raise ShapeError(
            f"input must be (n, d) = ({model.config.n}, {model.config.d}), got {x.shape}"
        )
    return np.add(as_f32(x), model.pos_enc, out=out)


def model_forward(x: np.ndarray, model: Model, mhsa_fns=None,
                  stop: int | None = None) -> np.ndarray:
    """Forward pass of one sample: `embed`, then `blocks_forward` (with its
    `mhsa_fns`) over all blocks, or over blocks [0, stop), returning the
    residual entering block `stop`. The sample passes run the same two
    steps over a chunk of samples (`attention_reads`)."""
    return blocks_forward(embed(x, model), model, 0, stop, mhsa_fns)


def chunk_size(config: ModelConfig) -> int:
    """Samples the sample passes (`attention_reads`) carry through a block
    at once: as many as fit GROUP_BYTES (`budget_units`) at the float32
    bytes one sample holds at a block's peak, 4 (3 + 3 ffn_mult) n d. The
    peak is the FFN's GELU: the residual entering the block and the one
    leaving it, the FFN's normed input (n d each), then the hidden array,
    GELU's scratch and GELU's output (ffn_mult n d each). So a block's
    weights and working set stay in cache across a chunk: 8 samples at
    desk, 58 at n_b=2, n_h=3, d=24, d_h=8, m=5, and 1 at vitl, where the
    passes run one sample at a time."""
    return budget_units(4 * (3 + 3 * config.ffn_mult) * config.n * config.d)


def _stacked(first: np.ndarray, rest, model: Model, size: int) -> np.ndarray:
    """`first` and up to size - 1 more samples drawn from the iterator
    `rest`, each `embed`ded into its n rows of one C-contiguous
    (B*n, d) array."""
    n = model.config.n
    x = np.empty((size * n, model.config.d), dtype=F32)
    rows = 0
    for sample in itertools.chain((first,), itertools.islice(rest, size - 1)):
        embed(sample, model, out=x[rows : rows + n])
        rows += n
    return x[:rows]


def two_stage(config: ModelConfig) -> bool:
    """Whether the sample pass (`attention_reads`) runs as two stages on
    two threads: when its FFN GEMM, (rows, d) x (d, ffn_mult d), pieces
    into at least MIN_PIECE_ROWS rows within SMALL_GEMM
    (`tensor.piece_rows`), so every GEMM of both stages stays on its
    calling thread. Desk (61-row pieces) and n_b=2, n_h=3, d=24, d_h=8,
    m=5 (434) do; vitl, whose GEMMs no row piece fits and which already
    run on both cores, does not."""
    return piece_rows(config.d, config.ffn_mult * config.d) >= MIN_PIECE_ROWS


def attention_reads(samples, model: Model, taps=None, folds=None) -> int:
    """The one sample pass of scoring and the fit's capture over the
    iterable `samples` of (n, d) inputs. `chunk_size` samples at a time
    make one C-contiguous (B*n, d) residual (`_stacked`) that
    `blocks_forward` carries, so norms, GEMMs, GELU and residual adds run
    once per block and chunk; each sample's rows are `model_forward`'s bit
    for bit where BLAS rounds a GEMM row alike whatever the row count
    (desk, vitl and n_b=2, n_h=3, d=24, d_h=8, m=5 with OpenBLAS). Block
    b's exact `attention` runs here on the chunk's normed input, viewed
    (B, n, d), with `taps[b]` as its `energy_tap(e, h0)`; then
    `folds[b](a_in, out)` gets that input and the (B, n, d) head outputs,
    which the pass goes on to use: read them, do not write them. The pass
    ends after the attention of the last block either names, before its
    output projection; if neither names one, it raises ConfigError before
    drawing a sample. Returns the sample count.

    Where `two_stage`, the pass runs within `small_gemms` as a pipeline
    of two stages: the calling thread stacks each chunk and runs blocks
    [0, s), s = (last + 1) // 2, then hands the chunk on through a queue
    of one to a worker thread, which runs the rest, in a copy of the
    caller's context (so `np.errstate` and `small_gemms` hold there). So
    each block's taps and folds run in order, chunk after chunk and
    sample after sample, but two blocks in different stages tap and fold
    at once: callers must keep no mutable state across blocks, as
    `select.score_model` and `dropin._BlockFit` keep theirs per block. An
    error in either stage stops the pass and is raised as the one-thread
    loop raises it: the worker's, from an earlier chunk, before the
    caller's. The worker never outlives the call. Nothing holds a chunk's
    input past block 0, and a chunk lives from its stacking to the end of
    its stage two: up to three chunks at once, one per stage and one in
    the queue."""
    taps, folds = taps or {}, folds or {}
    if not taps and not folds:
        raise ConfigError("a sample pass needs a tap or a fold")
    cfg = model.config
    n, d, last = cfg.n, cfg.d, max(taps.keys() | folds.keys())
    size, pipelined = chunk_size(cfg), two_stage(cfg)
    split = (last + 1) // 2 if pipelined else 0

    def attend(b, a_in):
        block, a_in = model.blocks[b], a_in.reshape(-1, n, d)
        out = attention(a_in, block.w_qkv, block.d_h, energy_tap=taps.get(b))
        if b in folds:
            folds[b](a_in, out)
        return out

    fns = {b: lambda a_in, block, b=b: project_heads(attend(b, a_in).reshape(-1, d), block)
           for b in range(last)}

    def stage_one(first) -> np.ndarray:
        return blocks_forward(_stacked(first, samples, model, size), model, 0, split, fns)

    def stage_two(x) -> int:
        x = blocks_forward(x, model, split, last, fns)
        attend(last, attention_input(x, model.blocks[last]))
        return len(x) // n

    samples = iter(samples)
    if not pipelined:  # one thread: split is 0, so stage two runs every block
        return sum(stage_two(_stacked(first, samples, model, size)) for first in samples)
    handoff, failed, counts = queue.Queue(maxsize=1), [], []

    def worker():
        while (x := handoff.get()) is not None:  # after a failure, drain what is handed on
            if not failed:
                try:
                    counts.append(stage_two(x))
                except BaseException as e:  # raised by the caller, after join
                    failed.append(e)

    with small_gemms():
        thread = threading.Thread(target=contextvars.copy_context().run, args=(worker,))
        thread.start()
        try:
            for first in itertools.takewhile(lambda _: not failed, samples):
                handoff.put(stage_one(first))
        finally:
            handoff.put(None)
            thread.join()
            if failed:
                raise failed[0]
    return sum(counts)


def grid(x: np.ndarray, m: int) -> np.ndarray:
    """Reshape flattened tokens (n, c) to the (m, m, c) grid view."""
    if x.shape[0] != m * m:
        raise ShapeError(f"cannot view {x.shape[0]} tokens as a {m}x{m} grid")
    return x.reshape(m, m, x.shape[1])


def flat(x: np.ndarray) -> np.ndarray:
    """Inverse of grid: (m, m, c) -> (m*m, c)."""
    return x.reshape(x.shape[0] * x.shape[1], x.shape[2])
