import numpy as np
import pytest

from dwdropin import dropin, vit
from dwdropin.dropin import (
    BlockDropin,
    attention_inputs,
    attn_conv_full,
    attn_dw,
    build_dropins,
    ensemble_weights,
    fit_block,
    fit_depthwise_kernel,
    fit_loss_and_grad,
    fold_full_kernel,
    hybrid_forward,
    init_kernel,
    kernel_shape,
    mhsa_dw_ensembled,
    replace_heads,
)
from dwdropin.select import SelectionPlan, kernel_energy, read_off_kernel
from dwdropin.tensor import (
    ConfigError,
    NonFiniteError,
    ShapeError,
    dwconv2d,
    matmul,
    seed_stream,
    seeded_fill,
    softmax64,
)
from dwdropin.vit import DESK, ModelConfig, grid, head_cols, head_rows, init_model

from conftest import GROUPED, TINY, block_inputs, make_inputs


def delta_kernel(k, channels=None):
    shape = (k, k) if channels is None else (k, k, channels)
    kern = np.zeros(shape, dtype=np.float32)
    kern[k // 2, k // 2] = 1.0
    return kern


def one_head_sublayer(model, b, h, kern):
    """The sublayer `replace_heads` builds for block b with only head h
    replaced by a dw kernel."""
    plan = SelectionPlan(mode="scattered", order="lowest", budget=1, targets=((b, h),))
    hm = replace_heads(model, plan, {b: BlockDropin(variant="dw", head_kernels={h: kern})})
    return hm.sublayers[b]


class TestFoldFullKernel:
    def test_delta_fold(self, rng):
        w_v = rng.standard_normal((6, 3)).astype(np.float32)
        folded = fold_full_kernel(delta_kernel(3), w_v)
        np.testing.assert_array_equal(folded[1, 1], w_v)
        folded[1, 1] = 0
        assert not folded.any()

    def test_zero_kernel(self, rng):
        w_v = rng.standard_normal((6, 3)).astype(np.float32)
        assert not fold_full_kernel(np.zeros((3, 3), np.float32), w_v).any()

    def test_spatial_slices_are_scalar_multiples(self, rng):
        k_h = rng.standard_normal((3, 3)).astype(np.float32)
        w_v = rng.standard_normal((6, 3)).astype(np.float32)
        folded = fold_full_kernel(k_h, w_v)
        for r in range(3):
            for s in range(3):
                np.testing.assert_allclose(folded[r, s], k_h[r, s] * w_v, atol=1e-7)


class TestAttnConvFull:
    def test_delta_center_is_value_projection(self, rng):
        x = rng.standard_normal((5, 5, 6)).astype(np.float32)
        w_v = rng.standard_normal((6, 3)).astype(np.float32)
        out = attn_conv_full(x, fold_full_kernel(delta_kernel(3), w_v))
        np.testing.assert_allclose(out, np.tensordot(x, w_v, axes=([2], [0])), atol=1e-6)

    def test_shift_accumulate_oracle(self, rng):
        x = rng.standard_normal((6, 6, 4)).astype(np.float32)
        w_v = rng.standard_normal((4, 2)).astype(np.float32)
        k_h = rng.standard_normal((3, 3)).astype(np.float32)
        out = attn_conv_full(x, fold_full_kernel(k_h, w_v))
        v = np.tensordot(x, w_v, axes=([2], [0])).astype(np.float64)
        expected = np.zeros_like(v)
        for r in (-1, 0, 1):
            for s in (-1, 0, 1):
                shifted = np.zeros_like(v)
                src_i = slice(max(r, 0), 6 + min(r, 0))
                dst_i = slice(max(-r, 0), 6 + min(-r, 0))
                src_j = slice(max(s, 0), 6 + min(s, 0))
                dst_j = slice(max(-s, 0), 6 + min(-s, 0))
                shifted[dst_i, dst_j] = v[src_i, src_j]
                expected += k_h[r + 1, s + 1] * shifted
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_constant_input_interior(self, rng):
        c = rng.standard_normal(4).astype(np.float32)
        x = np.broadcast_to(c, (6, 6, 4)).astype(np.float32)
        w_v = rng.standard_normal((4, 2)).astype(np.float32)
        k_h = rng.standard_normal((3, 3)).astype(np.float32)
        out = attn_conv_full(x, fold_full_kernel(k_h, w_v))
        interior = out[1:-1, 1:-1]
        np.testing.assert_allclose(interior, np.broadcast_to(interior[0, 0], interior.shape),
                                   atol=1e-5)


class TestAttnDw:
    def test_delta_center_is_value_projection(self, rng):
        x = rng.standard_normal((5, 5, 6)).astype(np.float32)
        w_v = rng.standard_normal((6, 3)).astype(np.float32)
        out = attn_dw(x, w_v, delta_kernel(3, 3))
        np.testing.assert_allclose(out, np.tensordot(x, w_v, axes=([2], [0])), atol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_channel_shared_equals_full_conv(self, seed):
        x = seeded_fill((6, 6, 8), seed, "gaussian")
        w_v = seeded_fill((8, 4), seed + 100, "gaussian", 0.0, 8 ** -0.5)
        k_h = seeded_fill((3, 3), seed + 200, "gaussian", 0.0, 1 / 3)
        shared = np.repeat(k_h[:, :, None], 4, axis=2)
        lhs = attn_dw(x, w_v, shared)
        rhs = attn_conv_full(x, fold_full_kernel(k_h, w_v))
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_zero_input(self):
        out = attn_dw(np.zeros((4, 4, 6), np.float32),
                      np.ones((6, 3), np.float32), delta_kernel(3, 3))
        assert not out.any()

    def test_value_gemm_goes_through_matmul(self, monkeypatch, rng):
        """The value GEMM is `tensor.matmul` on (n, d), the binding the
        tracer meters, and its overflow is refused where it happens."""
        x = rng.standard_normal((5, 5, 6)).astype(np.float32)
        w_v = rng.standard_normal((6, 3)).astype(np.float32)
        shapes = []
        monkeypatch.setattr(dropin, "matmul", lambda a, b: shapes.append(a.shape) or matmul(a, b))
        attn_dw(x, w_v, delta_kernel(3, 3))
        assert shapes == [(25, 6)]
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="non-finite values in matmul result"):
            attn_dw(x * np.float32(1e30), w_v * np.float32(1e30), delta_kernel(3, 3))


class TestEnsembleWeights:
    def test_uniform_gamma_is_mean(self, tiny_model):
        blk = tiny_model.blocks[0]
        w_ve, w_oe = ensemble_weights(np.zeros(2), blk.w_v, blk.w_o, 2, TINY.d_h)
        mean_v = (head_cols(blk.w_v, 0, TINY.d_h) + head_cols(blk.w_v, 1, TINY.d_h)) / 2
        mean_o = (head_rows(blk.w_o, 0, TINY.d_h) + head_rows(blk.w_o, 1, TINY.d_h)) / 2
        np.testing.assert_allclose(w_ve, mean_v, atol=1e-7)
        np.testing.assert_allclose(w_oe, mean_o, atol=1e-7)

    def test_saturated_softmax_selects_head_zero(self, tiny_model):
        blk = tiny_model.blocks[0]
        gamma = np.array([0.0, -60.0])
        w_ve, w_oe = ensemble_weights(gamma, blk.w_v, blk.w_o, 2, TINY.d_h)
        np.testing.assert_allclose(w_ve, head_cols(blk.w_v, 0, TINY.d_h), atol=1e-4)
        np.testing.assert_allclose(w_oe, head_rows(blk.w_o, 0, TINY.d_h), atol=1e-4)

    def test_identical_slices_fixed_point(self, rng):
        d, d_h, n_h = 8, 4, 2
        slice_v = rng.standard_normal((d, d_h)).astype(np.float32)
        slice_o = rng.standard_normal((d_h, d)).astype(np.float32)
        w_v = np.concatenate([slice_v, slice_v], axis=1)
        w_o = np.concatenate([slice_o, slice_o], axis=0)
        gamma = rng.standard_normal(n_h)
        w_ve, w_oe = ensemble_weights(gamma, w_v, w_o, n_h, d_h)
        np.testing.assert_allclose(w_ve, slice_v, atol=1e-6)
        np.testing.assert_allclose(w_oe, slice_o, atol=1e-6)


class TestEnsembledForward:
    def test_delta_kernel_degenerates_to_projections(self, rng):
        cfg = TINY
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        w_ve = rng.standard_normal((cfg.d, cfg.d_h)).astype(np.float32)
        w_oe = rng.standard_normal((cfg.d_h, cfg.d)).astype(np.float32)
        out = mhsa_dw_ensembled(x, w_ve, delta_kernel(cfg.k, cfg.d_h), w_oe, cfg.m)
        np.testing.assert_allclose(out, (x @ w_ve) @ w_oe, atol=1e-5)

    def test_single_head_collapse(self, rng):
        cfg = ModelConfig(n_b=1, n_h=1, d=8, d_h=8, m=4, k=3)
        blk = init_model(cfg, 41).blocks[0]
        x = rng.standard_normal((cfg.n, cfg.d)).astype(np.float32)
        kern = rng.standard_normal((3, 3, 8)).astype(np.float32)
        w_ve, w_oe = ensemble_weights(np.zeros(1), blk.w_v, blk.w_o, 1, cfg.d_h)
        ens = mhsa_dw_ensembled(x, w_ve, kern, w_oe, cfg.m)
        plain = vit.flat(attn_dw(grid(x, cfg.m), head_cols(blk.w_v, 0, cfg.d_h), kern)) @ blk.w_o
        np.testing.assert_allclose(ens, plain, atol=1e-5)

    def test_zero_input(self, rng):
        cfg = TINY
        w_ve = rng.standard_normal((cfg.d, cfg.d_h)).astype(np.float32)
        w_oe = rng.standard_normal((cfg.d_h, cfg.d)).astype(np.float32)
        kern = rng.standard_normal((cfg.k, cfg.k, cfg.d_h)).astype(np.float32)
        out = mhsa_dw_ensembled(np.zeros((cfg.n, cfg.d), np.float32), w_ve, kern, w_oe, cfg.m)
        assert not out.any()


class TestReplaceHeads:
    def test_empty_plan_is_noop_bitwise(self, tiny_model):
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=0, targets=())
        hm = replace_heads(tiny_model, plan, {})
        x = make_inputs(TINY, 1, 51)[0]
        np.testing.assert_array_equal(hybrid_forward(hm, x),
                                      vit.model_forward(x, tiny_model))

    def test_surgery_is_live(self, tiny_model):
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=1, targets=(0,))
        params = {0: BlockDropin(variant="dw", head_kernels={
            h: init_kernel("dw", TINY, 60 + h) for h in range(TINY.n_h)})}
        hm = replace_heads(tiny_model, plan, params)
        x = make_inputs(TINY, 1, 52)[0]
        assert np.abs(hybrid_forward(hm, x) - vit.model_forward(x, tiny_model)).max() > 1e-4

    def test_ensembled_partial_block_refused(self, tiny_model):
        plan = SelectionPlan(mode="scattered", order="lowest", budget=1, targets=((0, 0),))
        params = {0: BlockDropin(variant="ens-dw", gamma=np.zeros(2),
                                 kernel=init_kernel("ens-dw", TINY, 1))}
        with pytest.raises(ConfigError):
            replace_heads(tiny_model, plan, params)

    def test_missing_kernels_refused(self, tiny_model):
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=1, targets=(0,))
        params = {0: BlockDropin(variant="dw", head_kernels={0: init_kernel("dw", TINY, 2)})}
        with pytest.raises(ConfigError):
            replace_heads(tiny_model, plan, params)

    def test_scattered_and_blockwise_cover_same_heads_agree(self, tiny_model):
        kernels = {h: init_kernel("dw", TINY, 70 + h) for h in range(TINY.n_h)}
        bw = replace_heads(
            tiny_model,
            SelectionPlan(mode="blockwise", order="lowest", budget=1, targets=(1,)),
            {1: BlockDropin(variant="dw", head_kernels=dict(kernels))},
        )
        sc = replace_heads(
            tiny_model,
            SelectionPlan(mode="scattered", order="lowest", budget=TINY.n_h,
                          targets=tuple((1, h) for h in range(TINY.n_h))),
            {1: BlockDropin(variant="dw", head_kernels=dict(kernels))},
        )
        x = make_inputs(TINY, 1, 53)[0]
        np.testing.assert_allclose(hybrid_forward(bw, x), hybrid_forward(sc, x), atol=1e-6)

    def test_surgery_locality(self, tiny_model):
        """Replacing one head changes the block output only through that
        head's output-projection row group."""
        cfg = TINY
        blk = tiny_model.blocks[0]
        x = make_inputs(cfg, 1, 54)[0]
        a_in = vit.layer_norm(x + tiny_model.pos_enc, blk.norm1_scale, blk.norm1_shift)
        kern = init_kernel("dw", cfg, 80)
        swapped = one_head_sublayer(tiny_model, 0, 1, kern)(a_in, blk)
        baseline = vit.mhsa_forward(a_in, blk)
        repl_out = vit.flat(attn_dw(grid(a_in, cfg.m), head_cols(blk.w_v, 1, cfg.d_h), kern))
        base_head = vit.head_attention(a_in, blk, 1)
        expected_delta = (repl_out - base_head) @ head_rows(blk.w_o, 1, cfg.d_h)
        np.testing.assert_allclose(swapped - baseline, expected_delta, atol=1e-5)

    def test_untargeted_heads_bitwise_unchanged(self, tiny_model):
        # the swapped path evaluates untouched heads with the same function
        cfg = TINY
        blk = tiny_model.blocks[0]
        x = make_inputs(cfg, 1, 55)[0]
        a_in = vit.layer_norm(x + tiny_model.pos_enc, blk.norm1_scale, blk.norm1_shift)
        before = vit.head_attention(a_in, blk, 0)
        one_head_sublayer(tiny_model, 0, 1, init_kernel("dw", cfg, 81))(a_in, blk)
        np.testing.assert_array_equal(vit.head_attention(a_in, blk, 0), before)


FOUR_HEADS = ModelConfig(n_b=2, n_h=4, d=16, d_h=4, m=4, k=3, ffn_mult=2)


def _per_head_sublayer(dp, cfg):
    """Reference for the fused sublayer: each replaced head on its own
    (attn_dw / attn_conv_full), then the output projection over all heads."""
    def fn(x, block):
        outs = []
        for h in range(block.n_h):
            if h not in dp.head_kernels:
                outs.append(vit.head_attention(x, block, h))
                continue
            w_v_slice = head_cols(block.w_v, h, block.d_h)
            if dp.variant == "dw":
                y = attn_dw(grid(x, cfg.m), w_v_slice, dp.head_kernels[h])
            else:
                y = attn_conv_full(grid(x, cfg.m), fold_full_kernel(dp.head_kernels[h], w_v_slice))
            outs.append(vit.flat(y))
        return vit.project_heads(np.concatenate(outs, axis=1), block)
    return fn


class TestFusedDropins:
    """A block's replaced heads run as one group: one convolution per block."""

    @pytest.mark.parametrize("heads", [(0, 1, 2, 3), (2,), (0, 1), (0, 2)],
                             ids=["every-head", "single", "contiguous", "non-contiguous"])
    @pytest.mark.parametrize("variant, conv", [("dw", "dwconv2d"), ("convfull", "conv2d")])
    def test_matches_per_head_reference(self, monkeypatch, variant, conv, heads):
        cfg = FOUR_HEADS
        model = init_model(cfg, 303)
        seeds = seed_stream(17)
        plan = SelectionPlan("scattered", "lowest", cfg.n_b * len(heads),
                             tuple((b, h) for b in range(cfg.n_b) for h in heads))
        params = {b: BlockDropin(variant, head_kernels={
            h: init_kernel(variant, cfg, next(seeds)) for h in heads}) for b in range(cfg.n_b)}
        hm = replace_heads(model, plan, params)
        x = make_inputs(cfg, 1, 18)[0]
        want = vit.model_forward(x, model, mhsa_fns={
            b: _per_head_sublayer(dp, cfg) for b, dp in params.items()})

        calls = []
        original = getattr(dropin, conv)
        monkeypatch.setattr(dropin, conv, lambda *a: calls.append(1) or original(*a))
        got = hybrid_forward(hm, x)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        assert len(calls) == cfg.n_b


    @pytest.mark.parametrize("variant", ["dw", "convfull"])
    def test_non_contiguous_untouched_heads_bitwise(self, variant):
        """Heads 1 and 3 of 4 replaced: the untouched heads 0 and 2 run
        batched, and the hybrid equals the per-head assembly bitwise."""
        cfg = FOUR_HEADS
        model = init_model(cfg, 306)
        seeds = seed_stream(19)
        plan = SelectionPlan("scattered", "lowest", 2 * cfg.n_b,
                             tuple((b, h) for b in range(cfg.n_b) for h in (1, 3)))
        params = {b: BlockDropin(variant, head_kernels={
            h: init_kernel(variant, cfg, next(seeds)) for h in (1, 3)}) for b in range(cfg.n_b)}
        hm = replace_heads(model, plan, params)
        for x in make_inputs(cfg, 3, 20):
            want = vit.model_forward(x, model, mhsa_fns={
                b: _per_head_sublayer(dp, cfg) for b, dp in params.items()})
            np.testing.assert_array_equal(hybrid_forward(hm, x), want)

    def test_kept_heads_in_groups_bitwise(self):
        """Two of 12 heads replaced over n = 256 tokens: the 10 kept heads run
        in two head groups (8 and 2), and the hybrid still equals the
        per-head assembly bitwise."""
        cfg = GROUPED
        model = init_model(cfg, 307)
        assert len(vit.head_groups(cfg.n_h - 2, cfg.n)) == 2
        plan = SelectionPlan("scattered", "lowest", 2, ((0, 3), (0, 10)))
        seeds = seed_stream(21)
        params = {0: BlockDropin("dw", head_kernels={
            h: init_kernel("dw", cfg, next(seeds)) for h in (3, 10)})}
        hm = replace_heads(model, plan, params)
        for x in make_inputs(cfg, 2, 22):
            want = vit.model_forward(x, model, mhsa_fns={0: _per_head_sublayer(params[0], cfg)})
            np.testing.assert_array_equal(hybrid_forward(hm, x), want)


class TestDwSublayerAssembly:
    """A dw block's sublayer projects one head-ordered (n, d) array: the
    conv output itself when every head is replaced, else a buffer that the
    replaced and the kept heads fill. It equals the per-head assembly: one
    `attn_dw` per replaced head on its own value columns, `head_attention`
    per kept head, `project_heads` on the list in head order. That is
    bitwise at desk; at n_h=5/d_h=7 the BLAS build may round the block's one
    value GEMM (and the kept heads' batched projections) differently from
    per-head GEMMs in the last bits, so there the per-head path is held to
    float32 rounding and the bitwise check assembles the same per-head
    pieces from the block's own GEMMs."""

    SHAPES = {"desk": DESK, "odd": ModelConfig(n_b=1, n_h=5, d=35, d_h=7, m=5, k=3)}
    HEADS = {"all": None, "contiguous": (1, 2), "non-contiguous": (0, 2, 3)}

    @pytest.mark.parametrize("heads", list(HEADS))
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_matches_per_head_assembly(self, shape, heads):
        cfg = self.SHAPES[shape]
        heads = self.HEADS[heads] or tuple(range(cfg.n_h))
        kept = tuple(h for h in range(cfg.n_h) if h not in heads)
        model = init_model(cfg, 311)
        blk = model.blocks[0]
        seeds = seed_stream(23)
        kerns = {h: init_kernel("dw", cfg, next(seeds)) for h in heads}
        plan = SelectionPlan("scattered", "lowest", len(heads), tuple((0, h) for h in heads))
        sublayer = replace_heads(model, plan, {0: BlockDropin("dw", head_kernels=kerns)}).sublayers[0]
        for x in make_inputs(cfg, 2, 24):
            a_in = vit.layer_norm(x, blk.norm1_scale, blk.norm1_shift)
            got = sublayer(a_in, blk)
            per_head = vit.project_heads(np.concatenate([
                vit.flat(attn_dw(grid(a_in, cfg.m), head_cols(blk.w_v, h, cfg.d_h), kerns[h]))
                if h in kerns else vit.head_attention(a_in, blk, h) for h in range(cfg.n_h)],
                axis=1), blk)
            if shape == "desk":
                np.testing.assert_array_equal(got, per_head)
            assert np.abs(got - per_head).max() <= 1e-6 * np.abs(per_head).max()

            values = matmul(a_in, vit.head_columns(blk.w_v, heads, cfg.d_h))
            outs = dict(zip(heads, (
                vit.flat(dwconv2d(grid(values[:, i * cfg.d_h:(i + 1) * cfg.d_h], cfg.m), kerns[h]))
                for i, h in enumerate(heads))))
            if kept:
                exact = vit.attention(a_in, *(
                    vit.head_columns(w, kept, cfg.d_h) for w in (blk.w_q, blk.w_k, blk.w_v)),
                    cfg.d_h)
                outs.update((h, head_cols(exact, i, cfg.d_h)) for i, h in enumerate(kept))
            np.testing.assert_array_equal(got, vit.project_heads(
                np.concatenate([outs[h] for h in range(cfg.n_h)], axis=1), blk))


class TestConstructedEquivalence:
    def test_kernel_like_head_replacement_matches(self, tiny_model):
        """A head driven by an ideal kernel-like weight matrix is replaced
        exactly by the depthwise kernel read off that matrix."""
        cfg = TINY
        b, h = 1, 0
        kern2d = seeded_fill((cfg.k, cfg.k), 90, "uniform") + np.float32(0.05)
        kern2d = (kern2d / kern2d.sum()).astype(np.float32)
        e_synth = kernel_energy(kern2d, cfg.m)

        def synthetic_fn(a_in, block):
            outs = []
            for hh in range(block.n_h):
                if hh == h:
                    v = a_in @ head_cols(block.w_v, hh, block.d_h)
                    outs.append(vit.flat(vit.explicit_attention(e_synth, grid(v, cfg.m))))
                else:
                    outs.append(vit.head_attention(a_in, block, hh))
            return vit.project_heads(np.concatenate(outs, axis=1), block)

        read = read_off_kernel(e_synth, cfg.m, cfg.k)
        np.testing.assert_allclose(read, kern2d, atol=1e-7)
        shared = np.repeat(read[:, :, None], cfg.d_h, axis=2)
        plan = SelectionPlan(mode="scattered", order="lowest", budget=1, targets=((b, h),))
        hm = replace_heads(tiny_model, plan,
                           {b: BlockDropin(variant="dw", head_kernels={h: shared})})
        for x in make_inputs(cfg, 3, 91):
            with_synth = vit.model_forward(x, tiny_model, mhsa_fns={b: synthetic_fn})
            with_dropin = hybrid_forward(hm, x)
            np.testing.assert_allclose(with_dropin, with_synth, atol=1e-4)


class TestKernelFitting:
    def test_planted_kernel_recovered(self):
        k, c = 3, 4
        planted = seeded_fill((k, k, c), 100, "gaussian", 0.0, 0.5)
        v_list = [seeded_fill((8, 8, c), 101 + i, "gaussian") for i in range(3)]
        t_list = [dwconv2d(v, planted) for v in v_list]
        fitted, rep = fit_depthwise_kernel(v_list, t_list, k)
        np.testing.assert_allclose(fitted, planted, atol=1e-4)
        assert not rep.ridge_channels

    def test_zero_values_fall_back_to_ridge(self):
        v = [np.zeros((6, 6, 2), np.float32)]
        t = [np.zeros((6, 6, 2), np.float32)]
        fitted, rep = fit_depthwise_kernel(v, t, 3)
        assert not fitted.any()
        assert rep.ridge_channels == (0, 1)

    def test_uniform_energy_head_has_residual(self, desk_model):
        model = init_model(vit.DESK, 303)
        model.blocks[2].w_q[:] = 0  # uniform attention: global mean, not local
        samples = make_inputs(vit.DESK, 2, 107)
        [(kern, rep)] = fit_block(model, 2, "dw", (0,), None,
                                  attention_inputs(model, samples, [2]))
        assert np.isfinite(kern).all()
        assert rep.objective > 1e-6
        assert rep.objective <= rep.zero_objective

    def test_fitted_never_worse_than_zero_kernel(self):
        for seed in range(5):
            v_list = [seeded_fill((6, 6, 3), seed * 7 + i, "gaussian") for i in range(2)]
            t_list = [seeded_fill((6, 6, 3), seed * 11 + 50 + i, "gaussian")
                      for i in range(2)]
            _, rep = fit_depthwise_kernel(v_list, t_list, 3)
            assert rep.objective <= rep.zero_objective * (1 + 1e-12)

    def test_shared_kernel_fit_recovers_planted(self):
        k, c = 3, 4
        shared = seeded_fill((k, k), 120, "gaussian", 0.0, 0.5)
        planted = np.repeat(shared[:, :, None], c, axis=2)
        v_list = [seeded_fill((8, 8, c), 121 + i, "gaussian") for i in range(2)]
        t_list = [dwconv2d(v, planted) for v in v_list]
        fitted, _ = fit_depthwise_kernel(v_list, t_list, k, shared=True)
        np.testing.assert_allclose(fitted, shared, atol=1e-4)

    def test_fit_kernels_roundtrip_through_model(self, tiny_model):
        samples = make_inputs(TINY, 3, 130)
        [(kern, rep)] = fit_block(tiny_model, 0, "dw", (1,), None,
                                  attention_inputs(tiny_model, samples, [0]))
        assert kern.shape == (TINY.k, TINY.k, TINY.d_h)
        assert rep.objective <= rep.zero_objective

    def test_needs_samples(self, tiny_model):
        with pytest.raises(ConfigError):
            fit_depthwise_kernel([], [], 3)

    def test_lazy_samples_match_lists(self):
        v_list = [seeded_fill((6, 6, 4), 230 + i, "gaussian") for i in range(3)]
        t_list = [seeded_fill((6, 6, 4), 240 + i, "gaussian") for i in range(3)]
        kern, rep = fit_depthwise_kernel(v_list, t_list, 3)
        lazy, lazy_rep = fit_depthwise_kernel(iter(v_list), (t for t in t_list), 3)
        np.testing.assert_array_equal(lazy, kern)
        assert lazy_rep == rep

    @pytest.mark.parametrize("n_v, n_t", [(2, 3), (3, 2)])
    def test_sample_count_mismatch_refused(self, n_v, n_t):
        v = [seeded_fill((6, 6, 2), 250 + i, "gaussian") for i in range(n_v)]
        t = [seeded_fill((6, 6, 2), 260 + i, "gaussian") for i in range(n_t)]
        with pytest.raises(ShapeError, match="counts differ"):
            fit_depthwise_kernel(iter(v), iter(t), 3)

    def test_heads_split_matches_separate_fits(self):
        """Fitting a block's channels as `heads` equal runs equals fitting
        each run alone, for per-channel and shared kernels."""
        v_list = [seeded_fill((6, 6, 6), 270 + i, "gaussian") for i in range(2)]
        t_list = [seeded_fill((6, 6, 6), 280 + i, "gaussian") for i in range(2)]
        for shared in (False, True):
            fits = fit_depthwise_kernel(v_list, t_list, 3, heads=3, shared=shared)
            for h, (kern, rep) in enumerate(fits):
                cols = slice(2 * h, 2 * h + 2)
                want, want_rep = fit_depthwise_kernel([v[..., cols] for v in v_list],
                                                      [t[..., cols] for t in t_list], 3,
                                                      shared=shared)
                np.testing.assert_array_equal(kern, want)
                assert rep == want_rep


def _fit_sets(desk_model):
    """(v_list, t_list, k) regression sets: planted, random, all-zero, and
    desk heads' values and exact outputs."""
    planted = seeded_fill((3, 3, 4), 210, "gaussian", 0.0, 0.5)
    v = [seeded_fill((8, 8, 4), 211 + i, "gaussian") for i in range(3)]
    sets = [(v, [dwconv2d(x, planted) for x in v], 3),
            (v, [seeded_fill((8, 8, 4), 215 + i, "gaussian") for i in range(3)], 3),
            ([np.zeros((6, 6, 2), np.float32)], [np.zeros((6, 6, 2), np.float32)], 3)]
    cfg = vit.DESK
    inputs = [block_inputs(desk_model, x) for x in make_inputs(cfg, 4, 220)]
    for b, h in ((0, 1), (4, 3)):
        block = desk_model.blocks[b]
        w_v = head_cols(block.w_v, h, cfg.d_h)
        sets.append(([grid(per_block[b] @ w_v, cfg.m) for per_block in inputs],
                     [grid(vit.head_attention(per_block[b], block, h), cfg.m)
                      for per_block in inputs], cfg.k))
    return sets


class TestClosedFormObjective:
    def test_matches_loss_oracle(self, desk_model):
        for v, t, k in _fit_sets(desk_model):
            c = v[0].shape[2]
            kern, rep = fit_depthwise_kernel(v, t, k)
            shared, shared_rep = fit_depthwise_kernel(v, t, k, shared=True)
            for got, oracle_kern in ((rep, kern),
                                     (shared_rep, np.repeat(shared[:, :, None], c, axis=2))):
                want, _ = fit_loss_and_grad(oracle_kern, v, t)
                assert abs(got.objective - want) <= 1e-9 * got.zero_objective
                assert got.zero_objective == pytest.approx(
                    fit_loss_and_grad(np.zeros_like(oracle_kern), v, t)[0], rel=1e-12)


class TestLossAndGrad:
    def test_zero_everything(self):
        kern = np.zeros((3, 3, 2), np.float32)
        v = [seeded_fill((5, 5, 2), 140, "gaussian")]
        t = [np.zeros((5, 5, 2), np.float32)]
        loss, grad = fit_loss_and_grad(kern, v, t)
        assert loss == 0.0
        assert not grad.any()

    def test_gradient_matches_finite_differences(self):
        for seed in range(10):
            kern = seeded_fill((3, 3, 2), 150 + seed, "gaussian", 0.0, 0.3)
            v = [seeded_fill((5, 5, 2), 160 + seed, "gaussian")]
            t = [seeded_fill((5, 5, 2), 170 + seed, "gaussian")]
            _, grad = fit_loss_and_grad(kern, v, t)
            fd = np.zeros_like(grad)
            step = 1e-3
            for idx in np.ndindex(kern.shape):
                up = kern.astype(np.float64).copy()
                dn = up.copy()
                up[idx] += step
                dn[idx] -= step
                lu, _ = fit_loss_and_grad(up, v, t)
                ld, _ = fit_loss_and_grad(dn, v, t)
                fd[idx] = (lu - ld) / (2 * step)
            denom = max(float(np.abs(fd).max()), 1e-9)
            assert float(np.abs(grad - fd).max()) / denom <= 1e-3

    def test_gradient_small_at_optimum(self):
        v_list = [seeded_fill((7, 7, 3), 180 + i, "gaussian") for i in range(2)]
        t_list = [seeded_fill((7, 7, 3), 190 + i, "gaussian") for i in range(2)]
        fitted, _ = fit_depthwise_kernel(v_list, t_list, 3)
        _, grad = fit_loss_and_grad(fitted, v_list, t_list)
        assert float(np.linalg.norm(grad)) <= 1e-4


class TestEnsembledFitting:
    def test_fit_reduces_objective(self, tiny_model):
        samples = make_inputs(TINY, 3, 200)
        [(kern, rep)] = fit_block(tiny_model, 0, "ens-dw", tuple(range(TINY.n_h)),
                                  np.zeros(TINY.n_h), attention_inputs(tiny_model, samples, [0]))
        assert kern.shape == (TINY.k, TINY.k, TINY.d_h)
        assert rep.objective <= rep.zero_objective


def per_head_fit(model, b, h, samples, variant):
    """Reference fit of one head alone: its own value columns against its
    own exact attention output, one normal-equation system per head."""
    cfg, block = model.config, model.blocks[b]
    inputs = [block_inputs(model, x)[b] for x in samples]
    v = [grid(matmul(a_in, head_cols(block.w_v, h, cfg.d_h)), cfg.m) for a_in in inputs]
    t = [grid(vit.head_attention(a_in, block, h), cfg.m) for a_in in inputs]
    return fit_depthwise_kernel(v, t, cfg.k, shared=variant == "convfull")


def sigma_mix_fit(model, b, gamma, samples, variant):
    """Reference fit of an ensembled block: the softmax(gamma)-merged values
    against the softmax(gamma) mix of the exact head outputs."""
    cfg, block = model.config, model.blocks[b]
    w_ve, _ = ensemble_weights(gamma, block.w_v, block.w_o, cfg.n_h, cfg.d_h)
    sig = softmax64(np.asarray(gamma, dtype=np.float64))
    v, t = [], []
    for x in samples:
        a_in = block_inputs(model, x)[b]
        mix = np.zeros((cfg.n, cfg.d_h), dtype=np.float64)
        for h in range(cfg.n_h):
            mix += sig[h] * vit.head_attention(a_in, block, h)
        v.append(grid(matmul(a_in, w_ve), cfg.m))
        t.append(grid(mix.astype(np.float32), cfg.m))
    return fit_depthwise_kernel(v, t, cfg.k, shared=variant == "ens-convfull")


class TestFitBlock:
    """One block fit equals fitting each replaced head alone, bitwise."""

    @pytest.mark.parametrize("heads", [(0, 1, 2, 3), (1,), (1, 2), (0, 2, 3)],
                             ids=["blockwise", "single", "contiguous", "non-contiguous"])
    @pytest.mark.parametrize("variant", ["dw", "convfull"])
    def test_matches_per_head_reference(self, variant, heads):
        model = init_model(FOUR_HEADS, 304)
        samples = make_inputs(FOUR_HEADS, 3, 94)
        inputs = attention_inputs(model, samples, range(FOUR_HEADS.n_b))
        for b in range(FOUR_HEADS.n_b):
            fits = fit_block(model, b, variant, heads, None, inputs)
            assert len(fits) == len(heads)
            for h, (kern, rep) in zip(heads, fits):
                want, want_rep = per_head_fit(model, b, h, samples, variant)
                assert kern.shape == kernel_shape(variant, FOUR_HEADS)
                np.testing.assert_array_equal(kern, want)
                assert rep == want_rep

    @pytest.mark.parametrize("gamma_seed", [None, 95], ids=["zero-gamma", "seeded-gamma"])
    @pytest.mark.parametrize("variant", ["ens-dw", "ens-convfull"])
    def test_ensembled_matches_sigma_mix_reference(self, variant, gamma_seed):
        model = init_model(FOUR_HEADS, 305)
        samples = make_inputs(FOUR_HEADS, 3, 96)
        inputs = attention_inputs(model, samples, range(FOUR_HEADS.n_b))
        gamma = (np.zeros(FOUR_HEADS.n_h, np.float32) if gamma_seed is None
                 else seeded_fill((FOUR_HEADS.n_h,), gamma_seed))
        for b in range(FOUR_HEADS.n_b):
            [(kern, rep)] = fit_block(model, b, variant, tuple(range(FOUR_HEADS.n_h)),
                                      gamma, inputs)
            want, want_rep = sigma_mix_fit(model, b, gamma, samples, variant)
            assert kern.shape == kernel_shape(variant, FOUR_HEADS)
            np.testing.assert_array_equal(kern, want)
            assert rep == want_rep


class TestBuiltOnce:
    """A hybrid's sublayers are built at surgery, not per forward call."""

    def test_ensemble_weights_once_per_block(self, tiny_model, monkeypatch):
        merge, calls = dropin.ensemble_weights, []
        monkeypatch.setattr(dropin, "ensemble_weights",
                            lambda *a: calls.append(1) or merge(*a))
        plan = SelectionPlan("blockwise", "lowest", 2, (0, 1))
        hm, _ = build_dropins(tiny_model, plan, "ens-dw", seed=4)
        for x in make_inputs(TINY, 3, 97):
            hybrid_forward(hm, x)
        assert len(calls) == TINY.n_b

    @pytest.mark.parametrize("variant", dropin.VARIANTS)
    def test_values_resolved_at_surgery_only(self, tiny_model, monkeypatch, variant):
        """The value gather or merge runs once per replaced block when the
        hybrid is built and never in a forward call."""
        resolve, calls = dropin._block_values, []
        monkeypatch.setattr(dropin, "_block_values", lambda *a: calls.append(1) or resolve(*a))
        plan = SelectionPlan("blockwise", "lowest", 2, (0, 1))
        hm, _ = build_dropins(tiny_model, plan, variant, seed=5)
        assert len(calls) == TINY.n_b and set(hm.sublayers) == {0, 1}
        for x in make_inputs(TINY, 3, 98):
            hybrid_forward(hm, x)
        assert len(calls) == TINY.n_b


class TestCapture:
    """The fit's capture: one forward per sample, each planned block's exact
    attention run once and recorded."""

    def test_records_planned_blocks_bitwise(self, desk_model, monkeypatch):
        samples = make_inputs(DESK, 3, 231)
        want = [vit.model_forward(x, desk_model) for x in samples]
        forward, outputs = vit.model_forward, []
        monkeypatch.setattr(vit, "model_forward",
                            lambda *a, **kw: outputs.append(forward(*a, **kw)) or outputs[-1])
        captured = attention_inputs(desk_model, samples, (4, 1))
        assert sorted(captured) == [1, 4]
        for x, out, ref in zip(samples, outputs, want):
            np.testing.assert_array_equal(out, ref)
        for b, records in captured.items():
            blk = desk_model.blocks[b]
            assert len(records) == len(samples)
            for x, (a_in, heads) in zip(samples, records):
                np.testing.assert_array_equal(a_in, block_inputs(desk_model, x)[b])
                assert heads.shape == (DESK.n, DESK.d)
                np.testing.assert_array_equal(
                    heads, vit.attention(a_in, blk.w_q, blk.w_k, blk.w_v, blk.d_h))

    def test_head_groups_recorded_bitwise(self):
        """Where attention runs in head groups, the recorded head outputs hold
        every head's `head_attention` in its columns, bitwise."""
        model = init_model(GROUPED, 233)
        blk = model.blocks[0]
        for a_in, heads in attention_inputs(model, make_inputs(GROUPED, 2, 234), (0,))[0]:
            for h in range(GROUPED.n_h):
                np.testing.assert_array_equal(head_cols(heads, h, GROUPED.d_h),
                                              vit.head_attention(a_in, blk, h))

    @pytest.mark.parametrize("variant, mode, targets", [
        *((v, "blockwise", (3, 0)) for v in dropin.VARIANTS),
        ("dw", "scattered", ((0, 1), (0, 3), (2, 0), (5, 2))),
        ("convfull", "scattered", ((1, 2), (4, 0), (4, 1))),
    ])
    def test_fitting_runs_attention_once_per_block_and_sample(self, desk_model, monkeypatch,
                                                              variant, mode, targets):
        """`vit.attention` runs len(samples) x n_b times: in the capture
        forwards only, never again in `fit_block`."""
        attend, calls = vit.attention, []
        monkeypatch.setattr(vit, "attention", lambda *a, **kw: calls.append(1) or attend(*a, **kw))
        samples = make_inputs(DESK, 3, 232)
        plan = SelectionPlan(mode, "lowest", len(targets), targets)
        _, reports = build_dropins(desk_model, plan, variant, samples=samples)
        assert reports
        assert len(calls) == len(samples) * DESK.n_b


class TestBuildDropins:
    @pytest.mark.parametrize("variant", ["dw", "convfull"])
    def test_fit_matches_per_head_fitting_bitwise(self, tiny_model, variant):
        samples = make_inputs(TINY, 3, 91)
        plan = SelectionPlan("scattered", "lowest", 3, ((1, 0), (0, 1), (1, 1)))
        hm, reports = build_dropins(tiny_model, plan, variant, samples=samples)
        assert list(reports) == [(0, 1), (1, 0), (1, 1)]
        for (b, h), rep in reports.items():
            kern, want = per_head_fit(tiny_model, b, h, samples, variant)
            np.testing.assert_array_equal(hm.dropins[b].head_kernels[h], kern)
            assert rep == want

    @pytest.mark.parametrize("variant", ["ens-dw", "ens-convfull"])
    def test_fit_matches_block_fitting_bitwise(self, tiny_model, variant):
        samples = make_inputs(TINY, 3, 92)
        plan = SelectionPlan("blockwise", "lowest", 2, (1, 0))
        hm, reports = build_dropins(tiny_model, plan, variant, samples=samples)
        assert list(reports) == [0, 1]
        gamma = np.zeros(TINY.n_h, dtype=np.float32)
        for b, rep in reports.items():
            kern, want = sigma_mix_fit(tiny_model, b, gamma, samples, variant)
            np.testing.assert_array_equal(hm.dropins[b].kernel, kern)
            np.testing.assert_array_equal(hm.dropins[b].gamma, gamma)
            assert rep == want

    @pytest.mark.parametrize("variant", dropin.VARIANTS)
    def test_fit_captures_attention_inputs_once(self, tiny_model, monkeypatch, variant):
        capture, calls = dropin.attention_inputs, []

        def counted(model, samples, blocks):
            calls.append((len(samples), sorted(blocks)))
            return capture(model, samples, blocks)
        monkeypatch.setattr(dropin, "attention_inputs", counted)
        plan = SelectionPlan("blockwise", "lowest", 2, (1, 0))  # 2 blocks x 2 heads
        _, reports = build_dropins(tiny_model, plan, variant, samples=make_inputs(TINY, 3, 93))
        assert calls == [(3, [0, 1])]
        assert len(reports) == (2 if variant in dropin.ENSEMBLED else 4)

    @pytest.mark.parametrize("variant", dropin.VARIANTS)
    def test_init_draws_seed_stream_in_sorted_order(self, tiny_model, variant):
        plan = SelectionPlan("blockwise", "lowest", 2, (1, 0))
        hm, reports = build_dropins(tiny_model, plan, variant, seed=12)
        assert reports == {}
        seeds = seed_stream(12)
        for b in (0, 1):
            dp = hm.dropins[b]
            if variant in dropin.ENSEMBLED:
                kernels = [dp.kernel]
            else:
                kernels = [dp.head_kernels[h] for h in range(TINY.n_h)]
            for kern in kernels:
                assert kern.shape == kernel_shape(variant, TINY)
                np.testing.assert_array_equal(kern, init_kernel(variant, TINY, next(seeds)))

    @pytest.mark.parametrize("variant", dropin.ENSEMBLED)
    def test_ensembled_scattered_plan_refused(self, tiny_model, variant):
        # refused even when the scattered targets cover a whole block
        plan = SelectionPlan("scattered", "lowest", 2, ((0, 0), (0, 1)))
        with pytest.raises(ConfigError, match="blockwise"):
            build_dropins(tiny_model, plan, variant)

    @pytest.mark.parametrize("target", [99, -1])
    @pytest.mark.parametrize("variant", ["dw", "ens-dw"])
    def test_nonexistent_block_refused_before_fitting(self, tiny_model, monkeypatch,
                                                      target, variant):
        def no_capture(*args):
            raise AssertionError("fitting started before the plan was checked")
        monkeypatch.setattr(dropin, "attention_inputs", no_capture)
        plan = SelectionPlan("blockwise", "lowest", 1, (target,))
        with pytest.raises(ConfigError, match="nonexistent head"):
            build_dropins(tiny_model, plan, variant, samples=make_inputs(TINY, 1, 5))

    def test_empty_plan_is_noop_bitwise(self, tiny_model):
        hm, reports = build_dropins(tiny_model, SelectionPlan("blockwise", "lowest", 0, ()),
                                    "ens-dw", samples=make_inputs(TINY, 1, 6))
        assert hm.dropins == {} and reports == {}
        x = make_inputs(TINY, 1, 7)[0]
        np.testing.assert_array_equal(hybrid_forward(hm, x), vit.model_forward(x, tiny_model))
