import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwdropin.tensor import ConfigError, NonFiniteError, matmul, seeded_fill, softmax_rows
from dwdropin.vit import (
    DESK,
    GROUP_BYTES,
    LN_EPS,
    VITL,
    BlockParams,
    ModelConfig,
    attention,
    block_forward,
    explicit_attention,
    grid,
    head_attention,
    head_cols,
    head_columns,
    head_energy,
    head_groups,
    head_rows,
    init_model,
    layer_norm,
    mhsa_forward,
    mhsa_forward_headsum,
    model_forward,
    qkv_project,
)

from conftest import GROUPED, TINY, make_inputs


# exact attention over its 576 tokens runs one head at a time
ONE_HEAD_GROUPS = ModelConfig(n_b=1, n_h=4, d=64, d_h=16, m=24, k=3, ffn_mult=2)


def random_block(cfg, seed):
    return init_model(cfg, seed).blocks[0]


class TestConfig:
    def test_dims_must_factor(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_b=1, n_h=3, d=8, d_h=4, m=4, k=3)

    def test_grid_hosts_kernel(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_b=1, n_h=1, d=4, d_h=4, m=2, k=3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_b=1, n_h=1, d=4, d_h=4, m=4, k=2)

    def test_roundtrip(self):
        assert ModelConfig.from_dict(TINY.to_dict()) == TINY

    @pytest.mark.parametrize("key", list(TINY.to_dict()))
    def test_missing_key_refused(self, key):
        d = TINY.to_dict()
        del d[key]
        with pytest.raises(ConfigError, match=f"config field '{key}' is missing"):
            ModelConfig.from_dict(d)


class TestQkvProject:
    def test_zero_input(self, tiny_model):
        blk = tiny_model.blocks[0]
        q, k, v = qkv_project(np.zeros((TINY.n, TINY.d), np.float32), blk, 0)
        assert not q.any() and not k.any() and not v.any()

    def test_selector_weights(self, rng):
        cfg = TINY
        blk = random_block(cfg, 7)
        blk.w_q[:, : cfg.d_h] = np.eye(cfg.d, cfg.d_h, dtype=np.float32)
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        q, _, _ = qkv_project(x, blk, 0)
        np.testing.assert_array_equal(q, x[:, : cfg.d_h])

    def test_matches_slice_then_matmul(self, rng):
        cfg = TINY
        blk = random_block(cfg, 8)
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        for h in range(cfg.n_h):
            q, k, v = qkv_project(x, blk, h)
            np.testing.assert_array_equal(q, matmul(x, head_cols(blk.w_q, h, cfg.d_h)))
            np.testing.assert_array_equal(k, matmul(x, head_cols(blk.w_k, h, cfg.d_h)))
            np.testing.assert_array_equal(v, matmul(x, head_cols(blk.w_v, h, cfg.d_h)))

    def test_head_out_of_range(self, tiny_model):
        with pytest.raises(ConfigError):
            qkv_project(np.zeros((TINY.n, TINY.d), np.float32), tiny_model.blocks[0], 2)


class TestHeadEnergy:
    def test_zero_queries_uniform(self, rng):
        k = rng.standard_normal((6, 4)).astype(np.float32)
        e = head_energy(np.zeros((6, 4), np.float32), k)
        np.testing.assert_allclose(e, 1 / 6, atol=1e-7)

    def test_zero_keys_uniform(self, rng):
        q = rng.standard_normal((6, 4)).astype(np.float32)
        np.testing.assert_allclose(head_energy(q, np.zeros((6, 4), np.float32)), 1 / 6,
                                   atol=1e-7)

    def test_against_two_step_oracle(self, rng):
        q = rng.standard_normal((4, 3)).astype(np.float32)
        k = rng.standard_normal((4, 3)).astype(np.float32)
        expected = softmax_rows((q @ k.T) * np.float32(1 / np.sqrt(3)))
        np.testing.assert_allclose(head_energy(q, k), expected, atol=1e-7)

    def test_rows_stochastic_on_model(self, desk_model, rng):
        cfg = desk_model.config
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        for h in range(cfg.n_h):
            q, k, _ = qkv_project(x, desk_model.blocks[0], h)
            sums = head_energy(q, k).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestHeadAttention:
    def test_uniform_mixing(self, rng):
        cfg = TINY
        blk = random_block(cfg, 9)
        blk.w_q[:] = 0
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        _, _, v = qkv_project(x, blk, 1)
        out = head_attention(x, blk, 1)
        np.testing.assert_allclose(out, np.broadcast_to(v.mean(axis=0), out.shape),
                                   atol=1e-6)

    def test_single_token_passthrough(self):
        cfg = ModelConfig(n_b=1, n_h=1, d=4, d_h=4, m=1, k=1)
        blk = init_model(cfg, 3).blocks[0]
        x = seeded_fill((1, 4), 5, "gaussian")
        _, _, v = qkv_project(x, blk, 0)
        np.testing.assert_allclose(head_attention(x, blk, 0), v, atol=1e-7)


class TestExplicitAttention:
    def test_identity_energy(self, rng):
        v = rng.standard_normal((4, 4, 3)).astype(np.float32)
        e = np.eye(16, dtype=np.float32)
        np.testing.assert_allclose(explicit_attention(e, v), v, atol=1e-7)

    def test_uniform_energy(self, rng):
        v = rng.standard_normal((3, 3, 2)).astype(np.float32)
        e = np.full((9, 9), 1 / 9, dtype=np.float32)
        out = explicit_attention(e, v)
        np.testing.assert_allclose(out, np.broadcast_to(v.mean(axis=(0, 1)), out.shape),
                                   atol=1e-6)

    def test_matches_flattened_matmul(self, rng):
        for _ in range(5):
            m, d_h = 5, 6
            e = softmax_rows(rng.standard_normal((m * m, m * m)).astype(np.float32))
            v = rng.standard_normal((m, m, d_h)).astype(np.float32)
            ref = grid(matmul(e, v.reshape(m * m, d_h)), m)
            np.testing.assert_allclose(explicit_attention(e, v), ref, atol=1e-6)

    def test_grid_mismatch(self, rng):
        with pytest.raises(Exception):
            explicit_attention(np.eye(10, dtype=np.float32),
                               rng.standard_normal((3, 3, 2)).astype(np.float32))


class TestMhsa:
    def test_identity_output_projection(self, rng):
        cfg = TINY
        blk = random_block(cfg, 11)
        blk.w_o = np.eye(cfg.d, dtype=np.float32)
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        heads = np.concatenate([head_attention(x, blk, h) for h in range(cfg.n_h)], axis=1)
        np.testing.assert_allclose(mhsa_forward(x, blk), heads, atol=1e-6)

    def test_single_head_degenerate_concat(self, rng):
        cfg = ModelConfig(n_b=1, n_h=1, d=8, d_h=8, m=4, k=3)
        blk = init_model(cfg, 13).blocks[0]
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        np.testing.assert_allclose(mhsa_forward(x, blk),
                                   matmul(head_attention(x, blk, 0), blk.w_o), atol=1e-7)

    def test_concat_equals_headsum(self, desk_model, rng):
        cfg = desk_model.config
        for blk in desk_model.blocks[:2]:
            x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
            np.testing.assert_allclose(mhsa_forward(x, blk), mhsa_forward_headsum(x, blk),
                                       atol=1e-5)

    def test_head_permutation_invariance(self, rng):
        cfg = TINY
        blk = random_block(cfg, 17)
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        baseline = mhsa_forward(x, blk)
        perm = [1, 0]
        d_h = cfg.d_h

        def permute_cols(w):
            return np.concatenate([head_cols(w, p, d_h) for p in perm], axis=1)

        permuted = BlockParams(
            n_h=cfg.n_h, d_h=d_h,
            w_q=permute_cols(blk.w_q), w_k=permute_cols(blk.w_k),
            w_v=permute_cols(blk.w_v),
            w_o=np.concatenate([head_rows(blk.w_o, p, d_h) for p in perm], axis=0),
            ffn_w1=blk.ffn_w1, ffn_w2=blk.ffn_w2,
            norm1_scale=blk.norm1_scale, norm1_shift=blk.norm1_shift,
            norm2_scale=blk.norm2_scale, norm2_shift=blk.norm2_shift,
        )
        np.testing.assert_allclose(mhsa_forward(x, permuted), baseline, atol=1e-5)


class TestBlockAndModelForward:
    def test_zero_weights_residual_only(self, rng):
        cfg = TINY
        model = init_model(cfg, 19)
        for blk in model.blocks:
            for name in ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_w2"):
                getattr(blk, name)[:] = 0
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        np.testing.assert_allclose(model_forward(x, model), x + model.pos_enc, atol=1e-7)

    def test_ffn_zeroed_isolates_attention(self, rng):
        cfg = TINY
        model = init_model(cfg, 23)
        blk = model.blocks[0]
        blk.ffn_w2[:] = 0
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        attn_in = layer_norm(x, blk.norm1_scale, blk.norm1_shift)
        np.testing.assert_allclose(block_forward(x, blk), x + mhsa_forward(attn_in, blk),
                                   atol=1e-7)

    def test_two_block_model_composes(self, rng):
        cfg = ModelConfig(n_b=2, n_h=2, d=8, d_h=4, m=4, k=3, ffn_mult=2)
        model = init_model(cfg, 29)
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        manual = block_forward(block_forward(x + model.pos_enc, model.blocks[0]),
                               model.blocks[1])
        np.testing.assert_array_equal(model_forward(x, model), manual)

    def test_deterministic_init(self):
        a = init_model(TINY, 31)
        b = init_model(TINY, 31)
        np.testing.assert_array_equal(a.pos_enc, b.pos_enc)
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba.w_q, bb.w_q)
            np.testing.assert_array_equal(ba.ffn_w2, bb.ffn_w2)


class TestExplicitVsHeadAttention:
    def test_agreement_on_model(self, desk_model, rng):
        cfg = desk_model.config
        blk = desk_model.blocks[1]
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        for h in range(cfg.n_h):
            q, k, v = qkv_project(x, blk, h)
            e = head_energy(q, k)
            np.testing.assert_allclose(explicit_attention(e, grid(v, cfg.m)),
                                       grid(head_attention(x, blk, h), cfg.m), atol=1e-6)


class TestLayerNorm:
    def test_matches_var_formula_bitwise(self, rng):
        """One mean per row, then np.var's arithmetic on the centred rows."""
        for shape, loc, spread in (((64, 64), 0.0, 1.0), ((25, 24), 30.0, 0.01),
                                   ((576, 1024), -2.0, 50.0)):
            x = (loc + spread * rng.standard_normal(shape)).astype(np.float32)
            scale, shift = (rng.standard_normal(shape[1]).astype(np.float32) for _ in range(2))
            want = ((x - x.mean(axis=-1, keepdims=True))
                    / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS) * scale + shift)
            np.testing.assert_array_equal(layer_norm(x, scale, shift), want)

    @pytest.mark.parametrize("d", [64, 1024, 35])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_mean_formula_bitwise(self, rng, d, dtype):
        """The row mean and variance through `.mean`, as the formula stood
        before it reduced with np.add.reduce and worked in place."""
        x = (3.0 + 7.0 * rng.standard_normal((49, d))).astype(dtype)
        scale, shift = (rng.standard_normal(d).astype(np.float32) for _ in range(2))
        c = x.astype(np.float32)
        c = c - c.mean(axis=-1, keepdims=True)
        want = c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + LN_EPS) * scale + shift
        got = layer_norm(x, scale, shift)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


# the full-width q/k/v GEMM and the per-head column-slice GEMM round
# differently in OpenBLAS at these widths
ROUNDING_DIFFERS = ModelConfig(n_b=1, n_h=4, d=32, d_h=8, m=24, k=3, ffn_mult=2)


class TestBatchedAttention:
    """`attention` runs a group of heads at once and returns them side by
    side; each head's columns equal its `head_attention` up to how BLAS
    rounds the full-width and the per-head projection GEMMs: bitwise at the
    desk and vitl shapes below."""

    @staticmethod
    def assert_matches_per_head(x, blk, heads, atol=0.0):
        """The output is one C-contiguous (n, c) array whose head columns,
        and the tapped weights, equal the per-head oracles bitwise, or
        within `atol` when given; the tap sees each of `head_groups` once, in
        head order. Returns the taps."""
        if atol:
            def same(got, want):
                np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        else:
            same = np.testing.assert_array_equal
        cols = [head_columns(w, heads, blk.d_h) for w in (blk.w_q, blk.w_k, blk.w_v)]
        seen = []
        outs = attention(x, *cols, blk.d_h,
                         energy_tap=lambda e, h0: seen.append((h0, e.copy())))
        assert outs.shape == (x.shape[0], len(heads) * blk.d_h)
        assert outs.flags.c_contiguous
        assert [(h0, h0 + len(e)) for h0, e in seen] == head_groups(len(heads), x.shape[0])
        weights = np.concatenate([e for _, e in seen])
        assert len(weights) == len(heads)
        for i, h in enumerate(heads):
            same(head_cols(outs, i, blk.d_h), head_attention(x, blk, h))
            q, k, _ = qkv_project(x, blk, h)
            same(weights[i], head_energy(q, k))
        return seen

    @pytest.mark.parametrize("heads", [(0, 1, 2, 3), (2,), (1, 3)],
                             ids=["all", "one", "non-contiguous"])
    def test_desk(self, desk_model, heads):
        for b, x in enumerate(make_inputs(DESK, 2, 61)):
            blk = desk_model.blocks[b]
            a_in = layer_norm(x, blk.norm1_scale, blk.norm1_shift)
            assert len(self.assert_matches_per_head(a_in, blk, heads)) == 1

    def test_vitl_head_groups(self):
        """At vitl each head is a group of its own: the tap runs once per head."""
        cfg = ModelConfig(**{**VITL.to_dict(), "n_b": 1})
        blk = init_model(cfg, 62).blocks[0]
        x = layer_norm(make_inputs(cfg, 1, 63)[0], blk.norm1_scale, blk.norm1_shift)
        for heads in ((5,), (4, 5, 6, 7), tuple(range(cfg.n_h))):
            assert len(self.assert_matches_per_head(x, blk, heads)) == len(heads)

    @pytest.mark.parametrize("cfg", [ONE_HEAD_GROUPS, GROUPED],
                             ids=["one-head-groups", "uneven-groups"])
    def test_multi_group(self, cfg):
        blk = init_model(cfg, 67).blocks[0]
        x = layer_norm(make_inputs(cfg, 1, 68)[0], blk.norm1_scale, blk.norm1_shift)
        every = tuple(range(cfg.n_h))
        for heads in (every, every[1::2], every[:1]):
            self.assert_matches_per_head(x, blk, heads)

    def test_projection_rounding_differs(self):
        """Where the two projection GEMMs round apart, outputs and weights of
        magnitude ~1 agree within 1e-6 (measured: up to 3.6e-7 and 1.6e-7)."""
        cfg = ROUNDING_DIFFERS
        for seed in range(3):
            blk = init_model(cfg, 60 + seed).blocks[0]
            x = layer_norm(make_inputs(cfg, 1, 70 + seed)[0], blk.norm1_scale,
                           blk.norm1_shift)
            self.assert_matches_per_head(x, blk, tuple(range(cfg.n_h)), atol=1e-6)

    @pytest.mark.parametrize("cfg, n_groups", [
        (DESK, 1), (ONE_HEAD_GROUPS, 4), (GROUPED, 2), (VITL, 16),
    ], ids=["desk", "one-head-groups", "uneven-groups", "vitl"])
    def test_head_groups_fit_the_budget(self, cfg, n_groups):
        """Consecutive ranges covering every head once; a group holds more
        than one head only when its (g, n, n) float32 weights fit GROUP_BYTES."""
        groups = head_groups(cfg.n_h, cfg.n)
        assert len(groups) == n_groups
        assert [h for h0, h1 in groups for h in range(h0, h1)] == list(range(cfg.n_h))
        for h0, h1 in groups:
            assert h1 - h0 == 1 or 4 * (h1 - h0) * cfg.n ** 2 <= GROUP_BYTES

    @pytest.mark.parametrize("shape", ["desk", "vitl-block"])
    def test_stack_slices_match_gathered_columns(self, desk_model, shape):
        """Gathering a head group's columns out of the full-width output
        equals running `attention` on that group's gathered weight columns,
        bitwise: the fit takes its targets from the capture that way."""
        if shape == "desk":
            cfg, blk = DESK, desk_model.blocks[3]
            groups = ((0,), (3,), (1, 3), (0, 2, 3), (0, 1, 2, 3))
        else:
            cfg = ModelConfig(**{**VITL.to_dict(), "n_b": 1})
            blk = init_model(cfg, 65).blocks[0]
            groups = ((7,), (0, 15), (1, 4, 9), tuple(range(0, 16, 2)), tuple(range(16)))
        x = layer_norm(make_inputs(cfg, 1, 66)[0], blk.norm1_scale, blk.norm1_shift)
        out = attention(x, blk.w_q, blk.w_k, blk.w_v, blk.d_h)
        for heads in groups:
            cols = [head_columns(w, heads, blk.d_h) for w in (blk.w_q, blk.w_k, blk.w_v)]
            np.testing.assert_array_equal(head_columns(out, heads, blk.d_h),
                                          attention(x, *cols, blk.d_h))

    def test_head_columns(self, desk_model):
        w = desk_model.blocks[0].w_q
        assert head_columns(w, (0, 1, 2, 3), DESK.d_h) is w
        got = head_columns(w, (1, 3), DESK.d_h)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, np.concatenate(
            [head_cols(w, 1, DESK.d_h), head_cols(w, 3, DESK.d_h)], axis=1))

    def test_overflowing_energies_refused(self, tiny_model):
        """Finite projections whose energies overflow raise at the energy matmul."""
        blk = tiny_model.blocks[0]
        x = layer_norm(make_inputs(TINY, 1, 65)[0], blk.norm1_scale, blk.norm1_shift)
        w_q, w_k = blk.w_q * np.float32(1e20), blk.w_k * np.float32(1e20)
        assert np.isfinite(x @ w_q).all() and np.isfinite(x @ w_k).all()
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="non-finite values in matmul result"):
            attention(x, w_q, w_k, blk.w_v, blk.d_h)


class TestSoftmaxOfFiniteEnergies:
    """`attention` checks its energies finite but not their softmax: finite
    energies always give finite weights whose rows sum to 1."""

    @staticmethod
    def weights(t):
        """The tapped weights of one d_h = 1 head over tokens t (n,): its
        energies are the outer product t t^T."""
        w = np.ones((1, 1), dtype=np.float32)
        seen = []
        attention(t.reshape(-1, 1), w, w, w, 1, energy_tap=lambda e, h0: seen.append(e.copy()))
        return seen[0][0]

    @staticmethod
    def assert_stochastic(e):
        assert np.isfinite(e).all()
        assert (e >= 0).all()
        np.testing.assert_allclose(e.sum(axis=1, dtype=np.float64), 1.0, rtol=0,
                                   atol=len(e) * np.finfo(np.float32).eps)

    def test_rows_spanning_float32_range(self):
        # energies ±2.9e38: the max shift of a row overflows to -inf
        t = np.array([1.7e19, -1.7e19, 1.0, -3.0, 0.0, 1.7e19, 2e-30, -1e19],
                     dtype=np.float32)
        e = np.outer(t, t)
        assert np.isfinite(e).all()
        with np.errstate(over="ignore"):
            assert np.isneginf(e - e.max(axis=1, keepdims=True)).any()
        self.assert_stochastic(self.weights(t))

    def test_overflowing_shift_is_silent(self):
        """Energies spanning more than float32's range overflow the max shift
        to -inf, which is weight 0: no RuntimeWarning reaches the caller."""
        t = np.array([1.7e19, -1.7e19, 1.0], dtype=np.float32)
        w = np.ones((1, 1), dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(t.reshape(-1, 1), w, w, w, 1)
        assert np.isfinite(out).all()

    # |t| up to 1.8e19 keeps t t^T (up to 3.2e38) below float32's max
    T_MAX = float(np.float32(1.8e19))

    @given(st.lists(st.floats(-T_MAX, T_MAX, width=32), min_size=1, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_any_finite_energies(self, tokens):
        self.assert_stochastic(self.weights(np.array(tokens, dtype=np.float32)))


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"


def load_reference_forward():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_forward


class TestFrozenReference:
    """model_forward equals the benchmark's frozen plain-numpy forward
    (perfbench/reference.py), which runs one head at a time, bitwise."""

    @pytest.mark.parametrize("cfg, seed", [
        (DESK, 0), (DESK, 1), (DESK, 2),
        (ModelConfig(n_b=2, n_h=3, d=24, d_h=8, m=5, k=5), 3),
        (ModelConfig(**{**VITL.to_dict(), "n_b": 1}), 4),
    ], ids=["desk-0", "desk-1", "desk-2", "odd", "vitl-block"])
    def test_model_forward_bitwise(self, cfg, seed):
        reference_forward = load_reference_forward()
        model = init_model(cfg, seed)
        for x in make_inputs(cfg, 3, 70 + seed):
            np.testing.assert_array_equal(model_forward(x, model), reference_forward(x, model))
