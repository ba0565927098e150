import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dwdropin.select import check_properties, gumbel_noise
from dwdropin.tensor import (
    ConfigError,
    NonFiniteError,
    ShapeError,
    _zero_pad,
    all_finite,
    band_rows,
    conv2d,
    dwconv2d,
    matmul,
    row_taps,
    seed_stream,
    seeded_fill,
    shifted_windows,
)
from dwdropin.tensor import softmax_rows

from conftest import traced_peak


class TestShiftSet:
    """The k x k offset set the convolutions accumulate over and the
    structural checks test: symmetric about (0, 0), odd k only."""

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_symmetric_and_complete(self, k):
        # an impulse through an all-ones depthwise kernel stamps every offset once
        m = 2 * k + 1
        x = np.zeros((m, m, 1), dtype=np.float32)
        x[k, k, 0] = 1.0
        out = dwconv2d(x, np.ones((k, k, 1), dtype=np.float32))[:, :, 0]
        offsets = {(int(i) - k, int(j) - k) for i, j in zip(*np.nonzero(out))}
        half = k // 2
        assert len(offsets) == k * k
        assert offsets == {
            (r, c) for r in range(-half, half + 1) for c in range(-half, half + 1)
        }
        assert (0, 0) in offsets
        assert np.all(out[out != 0] == 1.0)

    @pytest.mark.parametrize("k", [0, 2, 4, -1])
    def test_even_or_nonpositive_rejected(self, k):
        with pytest.raises(ConfigError):
            check_properties([np.eye(16)], k, 1e-6)


class TestMatmul:
    def test_identity(self, rng):
        m = rng.standard_normal((2, 2)).astype(np.float32)
        np.testing.assert_array_equal(matmul(np.eye(2, dtype=np.float32), m), m)

    def test_hand_case(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.float32)
        b = np.array([[1], [1]], dtype=np.float32)
        np.testing.assert_array_equal(matmul(a, b), [[3], [7]])

    def test_zero_annihilates(self, rng):
        a = rng.standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_array_equal(matmul(a, np.zeros((5, 2), np.float32)), 0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3), np.float32), np.ones((2, 3), np.float32))
        with pytest.raises(ShapeError):
            matmul(np.ones(3, np.float32), np.ones((3, 1), np.float32))

    def test_nonfinite_result_raises(self):
        big = np.full((2, 2), 3e38, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            matmul(big, big)

    def test_deterministic(self, rng):
        a = rng.standard_normal((17, 23)).astype(np.float32)
        b = rng.standard_normal((23, 11)).astype(np.float32)
        np.testing.assert_array_equal(matmul(a, b), matmul(a, b))

    def test_column_view_read_in_place(self, rng):
        """A strided column view, as a block's w_v is of its w_qkv, is read
        where it lies: the product allocates its result, not a copy of the
        view, and equals the product with a contiguous copy bitwise."""
        x = rng.standard_normal((4, 256)).astype(np.float32)
        view = rng.standard_normal((256, 768)).astype(np.float32)[:, 512:]
        assert not view.flags.c_contiguous
        assert traced_peak(lambda: matmul(x, view)) < view.nbytes // 4
        np.testing.assert_array_equal(matmul(x, view), matmul(x, np.ascontiguousarray(view)))


class TestAllFinite:
    """`all_finite` is `np.isfinite(a).all()`: its self-dot decides alone
    unless the squares of finite values overflow, then the exact check does."""

    @given(st.sampled_from([np.float32, np.float64]),
           hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
           st.sampled_from(["zero", "unit", "1e20", "sqrt-max", "max"]),
           st.sampled_from([None, np.nan, np.inf, -np.inf, -0.0]),
           st.integers(0, 2**32 - 1),
           st.sampled_from(["contiguous", "strided", "transposed"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_isfinite(self, dtype, shape, scale, special, seed, view):
        """Finite values up to the dtype's max, which overflow the self-dot
        from 1e20 (float32) or sqrt(max) on, with one NaN, +inf, -inf or -0.0
        at any position, in contiguous, strided and transposed views."""
        big = np.finfo(dtype).max
        scale = {"zero": 0.0, "unit": 1.0, "1e20": 1e20, "sqrt-max": np.sqrt(big),
                 "max": big}[scale]
        rng = np.random.default_rng(seed)
        base = (rng.uniform(-1.0, 1.0, (*shape[:-1], 2 * shape[-1])) * scale).astype(dtype)
        a = {"contiguous": base[..., : shape[-1]].copy(), "strided": base[..., ::2],
             "transposed": base[..., ::2].copy().T}[view]
        if special is not None and a.size:
            a[np.unravel_index(int(rng.integers(a.size)), a.shape)] = special
        assert all_finite(a) is bool(np.isfinite(a).all())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [1e20, 3.4e38, -3.4e38])
    def test_huge_finite_values_pass(self, dtype, value):
        a = np.full((576, 4), value, dtype=dtype)
        assert all_finite(a)
        assert all_finite(a[:, :1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 37, -1])
    def test_one_non_finite_value_fails(self, value, where):
        a = np.full((64, 1), 1e20, dtype=np.float32)
        a[where] = value
        assert not all_finite(a)

    def test_negative_zero_and_empty_pass(self):
        assert all_finite(np.full((3, 1), -0.0, dtype=np.float32))
        assert all_finite(np.empty((0, 5), dtype=np.float32))
        assert all_finite(np.empty(0, dtype=np.float64))

    def test_raises_no_floating_point_error(self):
        """The self-dot that overflows to inf and the exact fallback after it
        signal nothing, even with every floating-point error raised."""
        a = np.full((64, 64), 3.4e38, dtype=np.float32)
        with np.errstate(all="raise"):
            assert all_finite(a)
            a[5, 7] = np.nan
            assert not all_finite(a)

    def test_checks_in_place(self):
        """A contiguous (576, 4096) float32 check allocates no bool array
        (np.isfinite's would be 2.25 MiB)."""
        a = np.ones((576, 4096), dtype=np.float32)
        assert traced_peak(lambda: all_finite(a)) < 64 * 1024


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((1, 2), np.float32)), [[0.5, 0.5]])

    def test_large_equal_logits_no_overflow(self):
        out = softmax_rows(np.full((1, 2), 1000.0, np.float32))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_closed_form(self):
        out = softmax_rows(np.array([[np.log(2.0), 0.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], rtol=1e-6)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 40),
           st.floats(1.0, 200.0))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, seed, p, q, spread):
        t = seeded_fill((p, q), seed, "gaussian", 0.0, spread)
        sums = softmax_rows(t).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_nonfinite_input_rejected(self):
        bad = np.array([[0.0, np.inf]], dtype=np.float32)
        with pytest.raises(NonFiniteError):
            softmax_rows(bad)


def direct_conv_oracle(x, w):
    """Sum the definition directly, one offset at a time, in float64."""
    k = w.shape[0]
    m = x.shape[0]
    half = k // 2
    out = np.zeros((m, m, w.shape[3]))
    for i in range(m):
        for j in range(m):
            for r in range(-half, half + 1):
                for s in range(-half, half + 1):
                    u, v = i + r, j + s
                    if 0 <= u < m and 0 <= v < m:
                        out[i, j] += w[r + half, s + half].T.astype(np.float64) @ x[u, v]
    return out.astype(np.float32)


class TestZeroPad:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m, c, half", [(8, 16, 1), (4, 1, 2), (3, 5, 0)])
    def test_equals_np_pad_bitwise(self, rng, m, c, half, dtype):
        x = rng.standard_normal((m, m, c)).astype(dtype)
        got = _zero_pad(x, half)
        want = np.pad(x, ((half, half), (half, half), (0, 0)))
        assert got.dtype == want.dtype and got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got, want)


class TestShiftedWindows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("m, c, k", [(8, 16, 3), (5, 1, 5), (4, 3, 1), (2, 2, 5), (1, 1, 3)])
    def test_equals_np_pad_and_slice(self, rng, m, c, k, dtype):
        """Window [a, b], of offset (a, b) - k // 2, is the np.pad grid
        sliced at that offset, bitwise, including k > m; the windows are
        one read-only view."""
        x = (rng.standard_normal((m, m, c)) * 100).astype(dtype)
        half = k // 2
        xp = np.pad(x, ((half, half), (half, half), (0, 0)))
        got = shifted_windows(x, k)
        assert got.shape == (k, k, m, m, c) and got.dtype == x.dtype
        assert not got.flags.writeable
        for a in range(k):
            for b in range(k):
                np.testing.assert_array_equal(got[a, b], xp[a : a + m, b : b + m])


class TestConv2d:
    def test_1x1_identity_kernel(self, rng):
        x = rng.standard_normal((5, 5, 3)).astype(np.float32)
        w = np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3)
        np.testing.assert_array_equal(conv2d(x, w), x)

    def test_constant_input_interior(self, rng):
        c = rng.standard_normal(4).astype(np.float32)
        x = np.broadcast_to(c, (6, 6, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 4, 2)).astype(np.float32)
        out = conv2d(x, w)
        expected = w.sum(axis=(0, 1)).T @ c
        np.testing.assert_allclose(out[1:-1, 1:-1], np.broadcast_to(expected, (4, 4, 2)),
                                   atol=1e-5)

    def test_impulse_stamps_kernel(self, rng):
        x = np.zeros((5, 5, 2), dtype=np.float32)
        x[2, 3] = rng.standard_normal(2).astype(np.float32)
        w = rng.standard_normal((3, 3, 2, 4)).astype(np.float32)
        np.testing.assert_allclose(conv2d(x, w), direct_conv_oracle(x, w), atol=1e-6)

    @pytest.mark.parametrize("m, c_i, c_o, k", [(8, 64, 16, 3), (8, 64, 64, 3), (5, 24, 8, 5),
                                                (7, 35, 7, 3)])
    def test_matches_tensordot_sum_bitwise(self, rng, m, c_i, c_o, k):
        """One GEMM per offset on the window's (m*m, c_i) copy, as the
        formula stood with np.tensordot, in the same offset order."""
        x = rng.standard_normal((m, m, c_i)).astype(np.float32)
        w = rng.standard_normal((k, k, c_i, c_o)).astype(np.float32)
        xp = np.pad(x, ((k // 2, k // 2), (k // 2, k // 2), (0, 0)))
        want = np.zeros((m, m, c_o), dtype=np.float32)
        for a in range(k):
            for b in range(k):
                want += np.tensordot(xp[a : a + m, b : b + m], w[a, b], axes=([2], [0]))
        np.testing.assert_array_equal(conv2d(x, w), want)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            conv2d(np.zeros((4, 4, 1), np.float32), np.zeros((2, 2, 1, 1), np.float32))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((4, 4, 2), np.float32), np.zeros((3, 3, 3, 1), np.float32))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_input(self, seed):
        x = seeded_fill((6, 6, 3), seed, "gaussian")
        y = seeded_fill((6, 6, 3), seed + 1, "gaussian")
        w = seeded_fill((3, 3, 3, 2), seed + 2, "gaussian")
        a, b = np.float32(0.7), np.float32(-1.3)
        lhs = conv2d(a * x + b * y, w)
        rhs = a * conv2d(x, w) + b * conv2d(y, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)


class TestDwconv2d:
    def test_delta_kernel_is_identity(self, rng):
        x = rng.standard_normal((6, 6, 4)).astype(np.float32)
        kern = np.zeros((3, 3, 4), dtype=np.float32)
        kern[1, 1] = 1.0
        np.testing.assert_array_equal(dwconv2d(x, kern), x)

    def test_equals_diagonal_embedding(self, rng):
        x = rng.standard_normal((5, 5, 3)).astype(np.float32)
        kern = rng.standard_normal((3, 3, 3)).astype(np.float32)
        diag = np.zeros((3, 3, 3, 3), dtype=np.float32)
        diag[:, :, np.arange(3), np.arange(3)] = kern
        full = conv2d(x, diag)
        np.testing.assert_allclose(dwconv2d(x, kern), full, atol=1e-6)

    def test_linearity(self, rng):
        x = rng.standard_normal((5, 5, 2)).astype(np.float32)
        y = rng.standard_normal((5, 5, 2)).astype(np.float32)
        kern = rng.standard_normal((3, 3, 2)).astype(np.float32)
        a, b = np.float32(2.0), np.float32(0.5)
        np.testing.assert_allclose(
            dwconv2d(a * x + b * y, kern),
            a * dwconv2d(x, kern) + b * dwconv2d(y, kern),
            atol=1e-5,
        )

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            dwconv2d(np.zeros((4, 4, 2), np.float32), np.zeros((3, 3, 5), np.float32))

    @staticmethod
    def per_offset_loop(x, kern):
        """dwconv2d as one broadcast multiply-add per offset, in row-major
        offset order from +0."""
        k, m = kern.shape[0], x.shape[0]
        half = k // 2
        xp = np.pad(x, ((half, half), (half, half), (0, 0)))
        out = np.zeros_like(x)
        for a in range(k):
            for b in range(k):
                out += xp[a : a + m, b : b + m] * kern[a, b]
        return out

    @pytest.mark.parametrize("m", list(range(1, 12)) + [24])
    def test_matches_per_offset_loop_bitwise(self, rng, m):
        """Bands summed over their taps give the per-offset loop's bits,
        signed zeros included: k > m, zero rows, -0.0 inputs and taps, and
        an all -0.0 grid under non-negative taps, whose products are all
        -0.0 away from the border: their sum is +0.0 from the +0 seed."""
        for k in (1, 3, 5, 7):
            for c in (1, 2, 7, 16, 64) + ((1024,) if m == 24 else ()):
                x = rng.standard_normal((m, m, c)).astype(np.float32)
                kern = rng.standard_normal((k, k, c)).astype(np.float32)
                x[::3] = 0.0
                x[rng.random(x.shape) < 0.2] = -0.0
                kern[rng.random(kern.shape) < 0.2] = -0.0
                for grid, taps in ((x, kern), (np.full_like(x, -0.0), np.abs(kern))):
                    got, want = dwconv2d(grid, taps), self.per_offset_loop(grid, taps)
                    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32),
                                                  err_msg=f"m={m} k={k} c={c}")

    def test_holds_one_band(self, rng):
        """At the vitl shape the conv holds the padded grid, the output, the
        tiled taps, one band of products and the finiteness check's boolean
        mask, never all k*k products; given held taps, it makes none."""
        m, c, k = 24, 1024, 3
        x = rng.standard_normal((m, m, c)).astype(np.float32)
        kern = rng.standard_normal((k, k, c)).astype(np.float32)
        taps = row_taps(kern, m)
        dwconv2d(x, kern)
        peak = traced_peak(lambda: dwconv2d(x, kern))
        band = band_rows(k, m, c)
        assert band < m
        held = 4 * ((m + k - 1) ** 2 * c + m * m * c + k * k * m * c + band * k * k * m * c)
        held += m * m * c
        assert peak <= held + 64 * 1024, (peak, held)  # 64 KiB for numpy's small objects
        assert peak < 4 * k * k * m * m * c
        peak = traced_peak(lambda: dwconv2d(x, kern, taps))
        assert peak <= held - taps.nbytes + 64 * 1024, (peak, held - taps.nbytes)

    @pytest.mark.parametrize("m, c, k", [(8, 64, 3), (5, 7, 5), (1, 3, 3), (24, 1024, 3),
                                         (24, 64, 7)])
    def test_held_taps_give_the_same_bits(self, rng, m, c, k):
        """Taps made once (`row_taps`) give the bits of taps made per call,
        at desk, with k > m, and in the two-row bands of the vitl shape."""
        x = rng.standard_normal((m, m, c)).astype(np.float32)
        kern = rng.standard_normal((k, k, c)).astype(np.float32)
        kern[rng.random(kern.shape) < 0.2] = -0.0
        taps = row_taps(kern, m)
        assert taps.shape == (k, k, 1, m * c) and taps.dtype == np.float32
        np.testing.assert_array_equal(taps.reshape(k, k, m, c), np.broadcast_to(
            kern[:, :, None], (k, k, m, c)))
        if (m, c) == (24, 1024):
            assert band_rows(k, m, c) == 2
        got, want = dwconv2d(x, kern, taps), dwconv2d(x, kern)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("bad", ["other m", "other c", "flat", "float64"])
    def test_mis_shaped_taps_refused(self, bad):
        m, c, k = 6, 4, 3
        kern = np.ones((k, k, c), dtype=np.float32)
        taps = {"other m": row_taps(kern, m + 1), "other c": row_taps(kern[:, :, 1:], m),
                "flat": row_taps(kern, m).ravel(),
                "float64": row_taps(kern, m).astype(np.float64)}[bad]
        with pytest.raises(ShapeError, match=r"^dwconv2d taps must be float32 \(3, 3, 1, 24\)"):
            dwconv2d(np.ones((m, m, c), dtype=np.float32), kern, taps)


class TestSeededFill:
    def test_same_seed_bitwise_equal(self):
        a = seeded_fill((7, 5), 99, "gaussian", 0.0, 2.0)
        b = seeded_fill((7, 5), 99, "gaussian", 0.0, 2.0)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        a = seeded_fill((8, 8), 1, "uniform")
        b = seeded_fill((8, 8), 2, "uniform")
        assert (a != b).any()

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.25, 0.02), (-3.7, 1.9), (1e-3, 1e30)])
    def test_gaussian_scales_and_shifts_bitwise(self, mu, sigma):
        """The in-place scale and shift keep the bits of the expression
        draw * sigma + mu over a fresh draw from the same seed."""
        draw = np.random.Generator(np.random.PCG64(5)).standard_normal(size=(9, 7), dtype=np.float32)
        want = draw * np.float32(sigma) + np.float32(mu)
        got = seeded_fill((9, 7), 5, "gaussian", mu, sigma)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_gaussian_sample_mean(self):
        x = seeded_fill((100_000,), 7, "gaussian", 0.0, 1.0)
        assert abs(float(x.mean())) < 0.02

    def test_uniform_range(self):
        x = seeded_fill((1000,), 3, "uniform")
        assert x.min() >= 0.0 and x.max() < 1.0

    def test_unknown_distribution(self):
        with pytest.raises(ConfigError):
            seeded_fill((2,), 0, "cauchy")

    def test_float32_output(self):
        assert seeded_fill((3,), 0, "gaussian").dtype == np.float32

    @pytest.mark.parametrize("draw", [
        lambda: seeded_fill((2,), -1), lambda: seed_stream(-1), lambda: gumbel_noise(2, -1)],
        ids=["seeded_fill", "seed_stream", "gumbel_noise"])
    def test_negative_seed_refused(self, draw):
        """Refused before any draw (`seed_stream` at the call, not at the
        first seed), as a ConfigError rather than numpy's ValueError."""
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            draw()


# Refusals no other test reaches: (callable, arguments, error, message fragment).
REFUSALS = [
    (softmax_rows, (np.zeros(3, np.float32),), ShapeError,
     "softmax_rows needs a rank-2 input, got shape (3,)"),
    (dwconv2d, (np.zeros((4, 4), np.float32), np.zeros((3, 3, 4), np.float32)), ShapeError,
     "dwconv2d expects (m,m,c) and (k,k,c), got (4, 4), (3, 3, 4)"),
    (conv2d, (np.zeros((4, 5, 2), np.float32), np.zeros((3, 3, 2, 2), np.float32)),
     ShapeError, "input grid must be square, got (4, 5, 2)"),
]


@pytest.mark.parametrize("fn, args, error, fragment", REFUSALS)
def test_refusal(fn, args, error, fragment):
    with pytest.raises(error) as exc:
        fn(*args)
    assert fragment in str(exc.value)
