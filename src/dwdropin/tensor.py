"""Dense-tensor kernels every other module is built on.

Values are float32 numpy arrays, C-contiguous and row-major. Arithmetic
stays in float32 on the forward path; a result containing NaN/Inf is an
error, never returned silently.

Determinism: every operation here is a pure function of its inputs and
repeated calls give bitwise-identical results. Convolutions accumulate
over the shift set in row-major offset order; the channel contraction is
delegated to BLAS, whose reduction order is fixed for a given build.
"""

from __future__ import annotations

import numpy as np

F32 = np.float32


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class ConfigError(ValueError):
    """A structural parameter (kernel size, head count, budget...) is invalid."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared where only finite values are allowed."""


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"non-finite values in {what}")
    return a


def as_f32(a) -> np.ndarray:
    """Return `a` as a C-contiguous float32 array."""
    return np.ascontiguousarray(a, dtype=F32)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a (p, q) and b (q, r) -> (p, r), float32."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    out = as_f32(a) @ as_f32(b)
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


def conv2d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2-D convolution of x (m, m, c_i) with w (k, k, c_i, c_o), stride 1.

    Out-of-grid inputs count as zero, so the output keeps the m x m grid.
    out[i, j] = sum over offsets (r, s) of w[r, s]^T . x[i+r, j+s].
    """
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d expects (m,m,ci) and (k,k,ci,co), got {x.shape}, {w.shape}")
    k = w.shape[0]
    if k != w.shape[1] or k % 2 == 0:
        raise ConfigError(f"kernel must be square with odd side, got {w.shape[:2]}")
    if x.shape[0] != x.shape[1]:
        raise ShapeError(f"input grid must be square, got {x.shape}")
    if w.shape[2] != x.shape[2]:
        raise ShapeError(f"channel mismatch: input {x.shape[2]}, kernel {w.shape[2]}")
    x = as_f32(x)
    w = as_f32(w)
    m = x.shape[0]
    half = k // 2
    xp = np.pad(x, ((half, half), (half, half), (0, 0)))
    out = np.zeros((m, m, w.shape[3]), dtype=F32)
    for a in range(k):
        for b in range(k):
            out += np.tensordot(xp[a : a + m, b : b + m], w[a, b], axes=([2], [0]))
    return _check_finite(out, "conv2d result")


def dwconv2d(x: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Depthwise 2-D convolution: one (k, k) filter per channel.

    x is (m, m, c), kern is (k, k, c); same zero-padding rule as conv2d.
    """
    if x.ndim != 3 or kern.ndim != 3:
        raise ShapeError(f"dwconv2d expects (m,m,c) and (k,k,c), got {x.shape}, {kern.shape}")
    k = kern.shape[0]
    if k != kern.shape[1] or k % 2 == 0:
        raise ConfigError(f"kernel must be square with odd side, got {kern.shape[:2]}")
    if x.shape[0] != x.shape[1]:
        raise ShapeError(f"input grid must be square, got {x.shape}")
    if kern.shape[2] != x.shape[2]:
        raise ShapeError(f"channel mismatch: input {x.shape[2]}, kernel {kern.shape[2]}")
    x = as_f32(x)
    kern = as_f32(kern)
    m = x.shape[0]
    half = k // 2
    xp = np.pad(x, ((half, half), (half, half), (0, 0)))
    out = np.zeros_like(x)
    for a in range(k):
        for b in range(k):
            out += xp[a : a + m, b : b + m] * kern[a, b]
    return _check_finite(out, "dwconv2d result")


def seeded_fill(shape, seed: int, dist: str = "gaussian",
                mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """Deterministically fill a tensor from a seed.

    Uses numpy's PCG64 bit generator: identical (shape, seed, dist)
    arguments reproduce the same bits on any platform running the same
    numpy version. "uniform" draws from [0, 1); "gaussian" from N(mu, sigma^2).
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    if dist == "uniform":
        out = gen.random(size=shape, dtype=F32)
    elif dist == "gaussian":
        out = gen.standard_normal(size=shape, dtype=F32)
        out = out * F32(sigma) + F32(mu)
    else:
        raise ConfigError(f"unknown distribution {dist!r}")
    return np.ascontiguousarray(out)


def seed_stream(seed: int):
    """Yield an unbounded stream of derived integer seeds.

    Consuming seeds in a fixed documented order is how composite objects
    (models, sample batches) stay reproducible from a single master seed.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    while True:
        yield int(gen.integers(0, 2**63 - 1))
