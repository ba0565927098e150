import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from dwdropin import tensor, vit
from dwdropin.tensor import (
    F32,
    GROUP_BYTES,
    ConfigError,
    NonFiniteError,
    ShapeError,
    budget_units,
    matmul,
    seeded_fill,
    softmax_rows,
)
from dwdropin.vit import (
    DESK,
    LN_EPS,
    VITL,
    BlockParams,
    ModelConfig,
    attention,
    attention_input,
    attention_reads,
    block_forward,
    explicit_attention,
    ffn_forward,
    gelu,
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
    qkv_columns,
    qkv_project,
)

from conftest import GROUPED, TINY, block_residuals, make_inputs, traced_peak


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


def plain_gelu(x):
    """GELU as one expression over the whole array: the bits `gelu` keeps."""
    return x * F32(0.5) * (F32(1.0) + erf(x * F32(1.0 / math.sqrt(2.0))))


# n = 576 tokens of d = 512: the FFN's (576, 2048) hidden array is 3 GELU bands
THREE_BANDS = ModelConfig(n_b=1, n_h=8, d=512, d_h=64, m=24, k=3)


def f32_near(x, ulps):
    """The float32 values within `ulps` patterns of the positive float32 x."""
    return (np.uint32(F32(x).view(np.uint32)) + np.arange(-ulps, ulps + 1)).astype(np.uint32).view(F32)


def with_negatives(x):
    return np.concatenate([x, -x])


# erf's argument where the Cephes erf switches to 1 - erfc: on 1.0 or next to it
# (u near sqrt 2, so that fl(u * (1/sqrt 2)) is 1 - 2 ulp ... 1 + 1 ulp)
NEAR_SQRT2 = f32_near(math.sqrt(2.0), 2)[1:]


def erf_odd_inputs():
    """float32 x where the odd symmetry of erf could break: every exponent
    0-254 with several mantissas (subnormals included), +-0, +-inf, the
    neighbours of 1.0, where Cephes switches to 1 - erfc, and the range
    around 3.92, where float32 erf rounds to 1. Both signs of each."""
    rng = np.random.Generator(np.random.PCG64(2027))
    mantissas = np.concatenate([[0, 1, 2, 0x400000, 0x7FFFFE, 0x7FFFFF],
                                rng.integers(0, 1 << 23, 10)]).astype(np.uint32)
    exponents = np.arange(255, dtype=np.uint32) << np.uint32(23)
    patterns = np.concatenate([(exponents[:, None] | mantissas).ravel(),
                               rng.integers(1, 1 << 23, 1000, dtype=np.uint32),
                               [0x7F800000]]).astype(np.uint32)
    return with_negatives(np.concatenate([patterns.view(F32), f32_near(1.0, 64),
                                          f32_near(3.92, 4096)]))


def test_erf_is_odd_bitwise():
    """copysign(erf(|x|), x) is erf(x) bit for bit: what `gelu` rests on.
    `tests/check_erf_sign.py` checks every float32; this samples each class
    so that a scipy whose erf is not odd fails here at once."""
    x = erf_odd_inputs()
    e = erf(x)
    assert np.isin([0.0, 1.0, -1.0], e).all() and np.isinf(x).any()
    assert ((x != 0) & (np.abs(x) < np.finfo(F32).tiny)).any()  # subnormals
    crossing = np.abs(e[(np.abs(x) > 3.91) & (np.abs(x) < 3.93)])
    assert (crossing < 1).any() and (crossing == 1).any()
    got = np.copysign(erf(np.abs(x)), x)
    np.testing.assert_array_equal(got.view(np.uint32), e.view(np.uint32))


class TestGelu:
    """`gelu` has the bits of the plain expression; it rewrites a hidden
    array of more than one band in place, band by band."""

    # signed zeros, subnormals, tiny values, u whose fl(u / sqrt 2) is on or
    # next to 1.0, and values where erf rounds to +-1
    EDGES = with_negatives(np.concatenate([
        np.array([0.0, 1e-45, 1e-40, 1.1754942e-38, 1e-30, 6.0, 40.0], dtype=F32),
        NEAR_SQRT2]))

    @classmethod
    def hidden(cls, shape, seed):
        """Values across erf's range: gaussian of scale 4, with `EDGES` first."""
        u = np.random.Generator(np.random.PCG64(seed)).standard_normal(shape).astype(F32) * 4
        u.flat[: len(cls.EDGES)] = cls.EDGES
        return u

    def test_edges_reach_erfs_switch_to_erfc(self):
        t = NEAR_SQRT2 * F32(1.0 / math.sqrt(2.0))
        assert (t == 1).any() and (t < 1).any() and (t > 1).any()

    @pytest.mark.parametrize("shape, group_bytes, rows", [
        ((64, 256), GROUP_BYTES, 64),
        ((576, 4096), GROUP_BYTES, 128),
        ((10, 32), 4 * 32, 1),
        ((10, 32), 3 * 4 * 32, 3),
        ((3, 32), 3 * 4 * 32, 3),
        ((4, 32), 3 * 4 * 32, 3),
    ], ids=["desk", "vitl", "one-row-bands", "three-row-bands", "one-band",
            "one-band-and-a-row"])
    def test_plain_expression_bitwise(self, monkeypatch, shape, group_bytes, rows):
        """An array of more rows than one band is rewritten in place (the
        last band may be one row); one that fits a band goes to a new array
        and u keeps its bits."""
        monkeypatch.setattr(tensor, "GROUP_BYTES", group_bytes)
        assert min(shape[0], budget_units(4 * shape[1])) == rows
        u = self.hidden(shape, 31)
        kept = u.copy()
        want = plain_gelu(u)
        got = gelu(u)
        assert (got is u) == (rows < shape[0])
        if got is not u:
            np.testing.assert_array_equal(u.view(np.uint32), kept.view(np.uint32))
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("cfg", [DESK, THREE_BANDS], ids=["desk", "three-bands"])
    def test_ffn_forward_bitwise_and_leaves_x(self, cfg):
        blk = random_block(cfg, 37)
        x = make_inputs(cfg, 1, 38)[0]
        kept = x.copy()
        want = matmul(plain_gelu(matmul(x, blk.ffn_w1)), blk.ffn_w2)
        got = ffn_forward(x, blk)
        np.testing.assert_array_equal(x.view(np.uint32), kept.view(np.uint32))
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_ffn_holds_one_band_of_scratch(self):
        """One FFN call holds its hidden array, one GELU band of scratch and
        its (n, d) output: below their sum. The whole-array expression held
        four hidden-sized temporaries at once."""
        cfg = THREE_BANDS
        blk = random_block(cfg, 41)
        x = make_inputs(cfg, 1, 42)[0]
        hidden = 4 * cfg.n * cfg.ffn_mult * cfg.d
        assert math.ceil(cfg.n / budget_units(hidden // cfg.n)) == 3
        ffn_forward(x, blk)  # warm caches
        peak = traced_peak(lambda: ffn_forward(x, blk))
        assert peak < hidden + GROUP_BYTES + 4 * cfg.n * cfg.d, peak


class TestAttentionReads:
    """The one pass rule of scoring and the fit's capture: the pass runs
    every block's attention itself, taps and folds each block in chunk
    order on the forward's own normed inputs, and stops at the last
    tapped or folded block's attention."""

    @pytest.mark.parametrize("blocks", [(4, 1), (0,), (DESK.n_b - 1,), (3, 2),
                                        tuple(range(DESK.n_b))],
                             ids=["1-4", "0", "last", "2-3", "all"])
    def test_reads_in_block_order_and_stop_at_the_last(self, desk_model, monkeypatch, blocks):
        """Two chunks, a full one and one sample: per block, each chunk's
        fold sees its samples' normed inputs stacked (B, n, d) and their
        exact head outputs, after the taps of every sample's head groups,
        sample by sample, and each block before the last projects and runs
        its FFN once per chunk. Blocks in the pass's two stages run at
        once, so the order across blocks is not pinned."""
        size = vit.chunk_size(DESK)
        xs = make_inputs(DESK, size + 1, 241)
        want = [[attention_input(h, blk)
                 for h, blk in zip(block_residuals(desk_model, x), desk_model.blocks)]
                for x in xs]
        index = {id(blk): b for b, blk in enumerate(desk_model.blocks)}
        ran = []
        for name in ("project_heads", "ffn_forward"):
            fn = getattr(vit, name)
            monkeypatch.setattr(vit, name, lambda y, blk, fn=fn, name=name:
                                ran.append((name, index[id(blk)])) or fn(y, blk))
        reads, events = [], []
        taps = {b: lambda e, h0, b=b: events.append(("tap", b, h0)) for b in blocks}
        folds = {b: lambda a_in, out, b=b: events.append(("fold", b)) or reads.append(
                     (b, a_in, out)) for b in blocks}

        assert attention_reads(iter(xs), desk_model, taps=taps, folds=folds) == len(xs)
        chunks = [range(size), range(size, size + 1)]
        groups = head_groups(DESK.n_h, DESK.n)
        for b in blocks:
            blk = desk_model.blocks[b]
            mine = [(a_in, out) for c, a_in, out in reads if c == b]
            assert [(a_in.shape, out.shape) for a_in, out in mine] == [
                ((len(chunk), DESK.n, DESK.d), (len(chunk), DESK.n, DESK.d)) for chunk in chunks]
            for (a_in, out), chunk in zip(mine, chunks):
                np.testing.assert_array_equal(out, attention(a_in, blk.w_qkv, blk.d_h))
                for got, i in zip(a_in, chunk, strict=True):
                    np.testing.assert_array_equal(got, want[i][b])
            assert [e for e in events if e[1] == b] == [event for chunk in chunks for event in (
                [("tap", b, h0) for _ in chunk for h0, _ in groups] + [("fold", b)])]
        assert {e[1] for e in events} == set(blocks)
        last = max(blocks)
        assert sorted(ran, key=lambda r: r[1]) == [
            (name, b) for b in range(last) for _ in chunks
            for name in ("project_heads", "ffn_forward")]

    @pytest.mark.parametrize("taps, folds", [((1,), (4,)), ((4,), (1,)), ((), (2,)),
                                             ((2,), ())], ids=["tap-1-fold-4", "tap-4-fold-1",
                                                               "fold-only", "tap-only"])
    def test_stops_at_the_last_block_either_names(self, desk_model, monkeypatch, taps, folds):
        """A tap and a fold on different blocks: each reaches only its own
        block, and every block up to the later one runs its attention."""
        index = {id(blk.w_qkv): b for b, blk in enumerate(desk_model.blocks)}
        ran, seen = [], set()
        monkeypatch.setattr(vit, "attention", lambda x, w_qkv, d_h, energy_tap=None, fn=attention:
                            ran.append(index[id(w_qkv)]) or fn(x, w_qkv, d_h, energy_tap))
        attention_reads(make_inputs(DESK, 2, 242), desk_model,
                        taps={b: lambda e, h0, b=b: seen.add(("tap", b)) for b in taps},
                        folds={b: lambda a_in, out, b=b: seen.add(("fold", b)) for b in folds})
        assert ran == list(range(max(taps + folds) + 1))
        assert seen == {("tap", b) for b in taps} | {("fold", b) for b in folds}

    @pytest.mark.parametrize("taps, folds", [(None, None), ({}, {})], ids=["none", "empty"])
    def test_nothing_to_read_refused(self, desk_model, taps, folds):
        """A pass with neither a tap nor a fold refuses before it draws a
        sample."""
        samples = iter(make_inputs(DESK, 2, 243))
        with pytest.raises(ConfigError, match="^a sample pass needs a tap or a fold$"):
            attention_reads(samples, desk_model, taps=taps, folds=folds)
        assert len(list(samples)) == 2


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
        seen = []
        outs = attention(x, qkv_columns(blk, heads), blk.d_h,
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
        out = attention(x, blk.w_qkv, blk.d_h)
        for heads in groups:
            np.testing.assert_array_equal(head_columns(out, heads, blk.d_h),
                                          attention(x, qkv_columns(blk, heads), blk.d_h))

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
            attention(x, np.concatenate([w_q, w_k, blk.w_v], axis=1), blk.d_h)

    @pytest.mark.parametrize("group", [0, 1])
    def test_non_finite_weights_of_any_group_refused(self, group):
        """The output is checked once, after the last group: NaN weights in
        either of GROUPED's two head groups reach it and raise."""
        blk = init_model(GROUPED, 69).blocks[0]
        x = layer_norm(make_inputs(GROUPED, 1, 70)[0], blk.norm1_scale, blk.norm1_shift)
        groups = head_groups(GROUPED.n_h, GROUPED.n)
        assert len(groups) == 2

        def tap(e, h0):
            if h0 == groups[group][0]:
                e[-1, 3, 5] = np.nan

        with pytest.raises(NonFiniteError, match="non-finite values in matmul result"):
            attention(x, blk.w_qkv, blk.d_h, energy_tap=tap)


def norms(blk) -> dict:
    """A block's four layer-norm tensors, as BlockParams takes them."""
    return {name: getattr(blk, name)
            for name in ("norm1_scale", "norm1_shift", "norm2_scale", "norm2_shift")}


def three_gemm_attention(x, w_q, w_k, w_v, d_h):
    """`attention` as it ran before the block held one fused weight: three
    full-width projection GEMMs, each head's q, k and v a strided view of
    its own (n, c) result, then the same head-group loop."""
    n = x.shape[0]
    q, k, v = (matmul(x, w).reshape(n, -1, d_h).transpose(1, 0, 2) for w in (w_q, w_k, w_v))
    out = np.empty((n, w_v.shape[1]), dtype=np.float32)
    heads = out.reshape(n, -1, d_h).transpose(1, 0, 2)
    scale = np.float32(1.0 / np.sqrt(d_h))
    for h0, h1 in head_groups(heads.shape[0], n):
        s = slice(h0, h1)
        e = np.matmul(q[s], k[s].transpose(0, 2, 1))
        e *= scale
        with np.errstate(over="ignore"):
            e -= np.maximum.reduce(e, axis=2, keepdims=True, initial=np.float32(-np.inf))
        np.exp(e, out=e)
        e /= e.sum(axis=2, keepdims=True)
        np.matmul(e, v[s], out=heads[s])
    return out


class TestFusedProjection:
    """A block holds one (d, 3d) [W_q | W_k | W_v] array; `attention`
    projects with one GEMM over it and gives the three-GEMM form's bits."""

    @pytest.mark.parametrize("cfg", [
        DESK,
        ModelConfig(**{**VITL.to_dict(), "n_b": 1}),
        ModelConfig(n_b=1, n_h=3, d=24, d_h=8, m=5, k=5),
        ModelConfig(n_b=1, n_h=4, d=32, d_h=8, m=24, k=3, ffn_mult=2),
        ModelConfig(n_b=1, n_h=12, d=48, d_h=4, m=16, k=3, ffn_mult=2),
    ], ids=["desk", "vitl-block", "n_h3-d_h8-m5", "n_h4-d_h8-m24", "n_h12-d_h4-m16"])
    def test_equals_three_gemm_form_bitwise(self, cfg):
        blk = init_model(cfg, 71).blocks[0]
        for x in make_inputs(cfg, 2, 72):
            a_in = attention_input(x, blk)
            np.testing.assert_array_equal(
                attention(a_in, blk.w_qkv, blk.d_h),
                three_gemm_attention(a_in, blk.w_q, blk.w_k, blk.w_v, blk.d_h))

    def test_q_k_v_are_views_of_the_fused_weight(self, rng):
        d = TINY.d
        w_q, w_k, w_v = (rng.standard_normal((d, d)) for _ in range(3))  # float64 in
        blk = random_block(TINY, 73)
        fused = BlockParams(n_h=TINY.n_h, d_h=TINY.d_h, w_q=w_q, w_k=w_k, w_v=w_v,
                            w_o=blk.w_o, ffn_w1=blk.ffn_w1, ffn_w2=blk.ffn_w2, **norms(blk))
        assert fused.w_qkv.shape == (d, 3 * d) and fused.w_qkv.dtype == F32
        assert fused.w_qkv.flags.c_contiguous
        for i, (w, given) in enumerate(zip((fused.w_q, fused.w_k, fused.w_v), (w_q, w_k, w_v))):
            assert np.shares_memory(w, fused.w_qkv)
            np.testing.assert_array_equal(w, given.astype(F32))
            np.testing.assert_array_equal(fused.w_qkv[:, i * d:(i + 1) * d], w)
        fused.w_k[:] = 0
        assert not fused.w_qkv[:, d:2 * d].any() and fused.w_qkv[:, :d].any()
        with pytest.raises(AttributeError, match="w_q is a view of w_qkv"):
            fused.w_q = np.zeros((d, d), dtype=F32)

    def test_mismatched_projections_refused(self):
        blk = random_block(TINY, 74)
        with pytest.raises(ShapeError, match="w_q, w_k and w_v must share one"):
            BlockParams(n_h=TINY.n_h, d_h=TINY.d_h, w_q=blk.w_q, w_k=blk.w_k[:, 1:],
                        w_v=blk.w_v, w_o=blk.w_o, ffn_w1=blk.ffn_w1, ffn_w2=blk.ffn_w2,
                        **norms(blk))

    def test_block_without_norms_refused(self):
        """A block is built with its layer norms or not at all, rather than
        failing deep in its forward."""
        blk = random_block(TINY, 75)
        with pytest.raises(TypeError, match="norm1_scale"):
            BlockParams(n_h=TINY.n_h, d_h=TINY.d_h, w_q=blk.w_q, w_k=blk.w_k, w_v=blk.w_v,
                        w_o=blk.w_o, ffn_w1=blk.ffn_w1, ffn_w2=blk.ffn_w2)

    def test_qkv_columns(self, desk_model):
        blk = desk_model.blocks[0]
        assert qkv_columns(blk, (0, 1, 2, 3)) is blk.w_qkv
        got = qkv_columns(blk, (1, 3))
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, np.concatenate(
            [head_columns(w, (1, 3), DESK.d_h) for w in (blk.w_q, blk.w_k, blk.w_v)], axis=1))


class TestSoftmaxOfFiniteEnergies:
    """`attention` checks its energies finite but not their softmax: finite
    energies always give finite weights whose rows sum to 1."""

    @staticmethod
    def weights(t):
        """The tapped weights of one d_h = 1 head over tokens t (n,): its
        energies are the outer product t t^T."""
        w_qkv = np.ones((1, 3), dtype=np.float32)
        seen = []
        attention(t.reshape(-1, 1), w_qkv, 1, energy_tap=lambda e, h0: seen.append(e.copy()))
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
        w_qkv = np.ones((1, 3), dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = attention(t.reshape(-1, 1), w_qkv, 1)
        assert np.isfinite(out).all()

    # |t| up to 1.8e19 keeps t t^T (up to 3.2e38) below float32's max
    T_MAX = float(np.float32(1.8e19))

    @given(st.lists(st.floats(-T_MAX, T_MAX, width=32), min_size=1, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_any_finite_energies(self, tokens):
        self.assert_stochastic(self.weights(np.array(tokens, dtype=np.float32)))


class TestRowMax:
    """`attention` shifts each energy row by a max seeded from -inf; a max
    is exact, so its weights are `head_energy`'s bit for bit."""

    @staticmethod
    def assert_weights_match(t, key_sign):
        """One d_h = 1 head over tokens t (n,) whose energies are
        key_sign * t t^T, single products that every path rounds alike."""
        q = t.reshape(-1, 1)
        w_qkv = np.array([[1, key_sign, 1]], dtype=np.float32)
        seen = []
        attention(q, w_qkv, 1, energy_tap=lambda e, h0: seen.append(e.copy()))
        want = head_energy(q, key_sign * q)
        np.testing.assert_array_equal(seen[0][0].view(np.uint32), want.view(np.uint32))

    def test_tied_row_max(self):
        # every row's maximum is tied: three keys (t_j = 3 or t_j = -2), or all for t_i = 0
        t = np.array([3.0, -2.0, 3.0, 1.0, -2.0, 0.5, 3.0, -2.0, 0.0], dtype=np.float32)
        self.assert_weights_match(t, np.float32(1))

    def test_large_negative_rows(self):
        # energies -t_i t_j all lie in [-1.2e4, -9.9e3]: every entry of every row is negative
        t = np.linspace(99.5, 109.5, 24, dtype=np.float32)
        self.assert_weights_match(t, np.float32(-1))


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


# Refusals no other test reaches: (callable, arguments, error, message fragment).
REFUSALS = [
    (explicit_attention, (np.zeros((16, 16), np.float32), np.zeros((16, 2), np.float32)),
     ShapeError, "values must be (m, m, d_h), got (16, 2)"),
    (model_forward, (np.zeros((TINY.n, TINY.d + 1), np.float32), init_model(TINY, 0)),
     ShapeError, f"input must be (n, d) = ({TINY.n}, {TINY.d}), got (16, 9)"),
    (grid, (np.zeros((5, 2), np.float32), 2), ShapeError,
     "cannot view 5 tokens as a 2x2 grid"),
]


@pytest.mark.parametrize("fn, args, error, fragment", REFUSALS)
def test_refusal(fn, args, error, fragment):
    with pytest.raises(error) as exc:
        fn(*args)
    assert fragment in str(exc.value)
