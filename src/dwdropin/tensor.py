"""Dense-tensor kernels every other module is built on.

Values are float32 numpy arrays, C-contiguous and row-major. Arithmetic
stays in float32 on the forward path; a result containing NaN/Inf is an
error, never returned silently. `all_finite` is the one finiteness test:
one BLAS self-dot, with the elementwise check only when that sum of
squares overflows from finite values, so a check allocates nothing.

Determinism: every operation here is a pure function of its inputs and
repeated calls give bitwise-identical results. `matmul` is one of its
inputs and of whether `small_gemms` holds, since BLAS may round a row of
one large GEMM otherwise than the same row in a small piece. Convolutions
accumulate over the windows of `shifted_windows` in row-major offset order from +0:
`conv2d` one GEMM per offset, whose channel contraction BLAS reduces in
an order fixed for a given build; `dwconv2d` multiplies a band of grid
rows by every tap at once and sums the products over the taps in that
same order, so its bits are those of one multiply-add per offset.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math

import numpy as np

F32 = np.float32

# Bytes of float32 temporaries one pass over a block of work may hold, so
# that it stays in a core's 2 MiB L2 cache: exact attention's head groups
# (`vit.group_size`), `dwconv2d`'s bands of products (`band_rows`) and the
# FFN's GELU row bands (`vit.gelu`), each sized by `budget_units`.
GROUP_BYTES = 2 * 1024 * 1024

# Multiply-adds up to which OpenBLAS keeps an sgemm on its calling thread
# (its small-matrix path). A larger one runs on two threads, and the second
# then busy-waits about 135 ms after the call: a (64, 64, 244) GEMM ran at
# cpu/wall 1.0, a (64, 64, 245) one at 1.97 (2-core x86-64, OpenBLAS 0.3.31).
# Within `small_gemms`, `matmul` runs in row pieces of at most this many.
SMALL_GEMM = 10**6

_small_gemms = contextvars.ContextVar("small_gemms", default=False)


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class ConfigError(ValueError):
    """A structural parameter (kernel size, head count, budget...) is invalid."""


class FormatError(ValueError):
    """An input file (model archive, plan, score report) is malformed."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared where only finite values are allowed."""


def budget_units(unit_bytes: int) -> int:
    """How many units of `unit_bytes` bytes fit GROUP_BYTES, at least one:
    the one rule that sizes a pass's block of work."""
    return max(1, GROUP_BYTES // unit_bytes)


def all_finite(a: np.ndarray) -> bool:
    """Whether every value of the float array `a` is finite: the value of
    np.isfinite(a).all(), in one BLAS pass and no temporary for a
    contiguous `a`. A NaN or inf makes the self-dot a.a NaN or inf (the
    squares are >= 0, so no inf - inf cancels one); finite values make it
    finite unless their squares overflow its sum (|a| past about
    1.8e19 / sqrt(a.size) in float32), and only then does the elementwise
    check decide. numpy reports no floating-point error from a dot, so no
    warning escapes."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not all_finite(a):
        raise NonFiniteError(f"non-finite values in {what}")
    return a


def as_f32(a) -> np.ndarray:
    """Return `a` as a C-contiguous float32 array."""
    return np.ascontiguousarray(a, dtype=F32)


def piece_rows(q: int, r: int) -> int:
    """Rows of a (p, q) x (q, r) GEMM that fit SMALL_GEMM multiply-adds:
    0 when one row exceeds it."""
    return SMALL_GEMM // max(1, q * r)


@contextlib.contextmanager
def small_gemms():
    """Within it, in this context, `matmul` runs each GEMM as row pieces
    of `piece_rows` rows, so every call stays on the calling thread, in
    place of one call that OpenBLAS would thread; a GEMM that no row
    piece fits runs whole. Each row's bits are those of the small-matrix
    path: the row's GEMM alone where that is small. A thread started
    within sees it only if it runs in a copy of this context
    (`contextvars.copy_context`)."""
    token = _small_gemms.set(True)
    try:
        yield
    finally:
        _small_gemms.reset(token)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a (p, q) and b (q, r) -> (p, r), float32, reading
    both in place: a strided view (a block's `w_v`) is not copied first.
    One np.matmul, or row pieces of it within `small_gemms`."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    rows = piece_rows(*b.shape) if _small_gemms.get() else 0
    if 0 < rows < a.shape[0]:
        out = np.empty((a.shape[0], b.shape[1]), dtype=F32)
        for i in range(0, a.shape[0], rows):
            np.matmul(a[i : i + rows], b, out=out[i : i + rows], dtype=F32)
    else:
        out = np.matmul(a, b, dtype=F32)
    return _check_finite(out, "matmul result")


def softmax_rows(t: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (p, q) matrix with per-row max subtraction."""
    if t.ndim != 2:
        raise ShapeError(f"softmax_rows needs a rank-2 input, got shape {t.shape}")
    t = as_f32(_check_finite(t, "softmax_rows input"))
    z = t - t.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)
    return _check_finite(out, "softmax_rows result")


def softmax64(z: np.ndarray) -> np.ndarray:
    """Softmax of a float64 vector with max subtraction."""
    e = np.exp(z - z.max())
    return e / e.sum()


def _zero_pad(x: np.ndarray, half: int) -> np.ndarray:
    """x (m, m, c) inside a zero border `half` wide on both grid axes: the
    values of np.pad's constant mode without its per-call overhead."""
    m = x.shape[0]
    out = np.zeros((m + 2 * half, m + 2 * half, x.shape[2]), dtype=x.dtype)
    out[half : half + m, half : half + m] = x
    return out


def shifted_windows(x: np.ndarray, k: int) -> np.ndarray:
    """The k*k windows of x (m, m, c) zero-padded by k // 2, as one
    read-only (k, k, m, m, c) strided view of the padded grid: window
    [r, s] is the one of kernel offset (r, s), and its [i, j] holds
    x[i+r, j+s], or zero off the grid. A window row [r, s, i] is m*c
    contiguous values. This is the one place a kernel offset meets the
    grid; convolutions, the kernel fit and the structural checks all read
    their windows here, in row-major offset order."""
    m = x.shape[0]
    xp = _zero_pad(x, k // 2)
    row, col, ch = xp.strides
    windows = np.ndarray((k, k, m, m, x.shape[2]), xp.dtype, xp, 0, (row, col, row, col, ch))
    windows.flags.writeable = False
    return windows


def _conv_operands(op: str, x: np.ndarray, w: np.ndarray, rank: int, layout: str):
    """Check a convolution's grid x and kernel w (k, k, c, ...) of `rank`
    axes; returns both as float32 and the kernel side k."""
    if x.ndim != 3 or w.ndim != rank:
        raise ShapeError(f"{op} expects {layout}, got {x.shape}, {w.shape}")
    k = w.shape[0]
    if k != w.shape[1] or k % 2 == 0:
        raise ConfigError(f"kernel must be square with odd side, got {w.shape[:2]}")
    if x.shape[0] != x.shape[1]:
        raise ShapeError(f"input grid must be square, got {x.shape}")
    if w.shape[2] != x.shape[2]:
        raise ShapeError(f"channel mismatch: input {x.shape[2]}, kernel {w.shape[2]}")
    return as_f32(x), as_f32(w), k


def conv2d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2-D convolution of x (m, m, c_i) with w (k, k, c_i, c_o), stride 1.

    Out-of-grid inputs count as zero, so the output keeps the m x m grid.
    out[i, j] = sum over offsets (r, s) of w[r, s]^T . x[i+r, j+s].
    """
    x, w, k = _conv_operands("conv2d", x, w, 4, "(m,m,ci) and (k,k,ci,co)")
    m = x.shape[0]
    out = np.zeros((m * m, w.shape[3]), dtype=F32)
    windows = itertools.chain.from_iterable(shifted_windows(x, k))
    for window, w_rs in zip(windows, w.reshape(k * k, *w.shape[2:])):
        out += window.reshape(m * m, -1) @ w_rs
    return _check_finite(out.reshape(m, m, -1), "conv2d result")


def band_rows(k: int, m: int, c: int) -> int:
    """Grid rows `dwconv2d` multiplies at once for a k x k kernel over an
    (m, m, c) grid: as many as keep their k*k*m*c float32 products within
    GROUP_BYTES, at least one and at most m."""
    return min(m, budget_units(4 * k * k * m * c))


def row_taps(kern: np.ndarray, m: int) -> np.ndarray:
    """The (k, k, c) kernel tiled along a grid row of m pixels: (k, k, 1,
    m*c) row taps, tap [r, s, 0] holding kern[r, s] once per pixel, the
    operand `dwconv2d` multiplies its window rows by. The one tiling rule:
    `dwconv2d` makes the taps per call unless its caller holds them."""
    k = kern.shape[0]
    return np.tile(as_f32(kern), (1, 1, m)).reshape(k, k, 1, m * kern.shape[2])


def dwconv2d(x: np.ndarray, kern: np.ndarray, taps: np.ndarray | None = None) -> np.ndarray:
    """Depthwise 2-D convolution: one (k, k) filter per channel.

    x is (m, m, c), kern is (k, k, c); same zero-padding rule as conv2d.
    The kernel is tiled along a grid row (`row_taps`; `taps`, if given,
    must be row_taps(kern, m), made once by a caller that holds the
    kernel), so each band of `band_rows` rows takes one multiply of its
    windows by every tap into one reused product buffer, and one sum over
    the taps, in row-major offset order from +0: bitwise the sum of
    window * kern[r, s] over the offsets.
    """
    x, kern, k = _conv_operands("dwconv2d", x, kern, 3, "(m,m,c) and (k,k,c)")
    m, row = x.shape[0], x.shape[1] * x.shape[2]
    if taps is None:
        taps = row_taps(kern, m)
    elif taps.shape != (k, k, 1, row) or taps.dtype != F32:
        raise ShapeError(f"dwconv2d taps must be float32 {(k, k, 1, row)} for input {x.shape}, "
                         f"got {taps.dtype} {taps.shape}")
    windows = shifted_windows(x, k).reshape(k, k, m, row)
    band = band_rows(k, m, x.shape[2])
    products = np.empty((k * k, band, row), dtype=F32)
    out = np.empty((m, row), dtype=F32)
    for i in range(0, m, band):
        p = products[:, : min(band, m - i)]
        np.multiply(windows[:, :, i : i + band], taps, out=p.reshape(k, k, -1, row))
        np.add.reduce(p, axis=0, out=out[i : i + band], initial=0)
    return _check_finite(out.reshape(x.shape), "dwconv2d result")


def seeded_generator(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator for `seed`, which must be >= 0: every seeded
    draw of the package starts here."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def seeded_fill(shape, seed: int, dist: str = "gaussian",
                mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """Deterministically fill a tensor from a seed.

    Uses numpy's PCG64 bit generator: identical (shape, seed, dist)
    arguments reproduce the same bits on any platform running the same
    numpy version. "uniform" draws from [0, 1); "gaussian" from N(mu, sigma^2).
    """
    gen = seeded_generator(seed)
    if dist == "uniform":
        out = gen.random(size=shape, dtype=F32)
    elif dist == "gaussian":
        out = gen.standard_normal(size=shape, dtype=F32)
        out *= F32(sigma)
        out += F32(mu)
    else:
        raise ConfigError(f"unknown distribution {dist!r}")
    return np.ascontiguousarray(out)


def seed_stream(seed: int):
    """Yield an unbounded stream of derived integer seeds.

    Consuming seeds in a fixed documented order is how composite objects
    (models, sample batches) stay reproducible from a single master seed.
    The seed is checked here, not at the first draw.
    """
    gen = seeded_generator(seed)
    return (int(gen.integers(0, 2**63 - 1)) for _ in itertools.count())
