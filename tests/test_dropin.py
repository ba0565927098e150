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
    fit_depthwise_kernel,
    fit_ensembled_kernel,
    fit_kernels,
    fit_loss_and_grad,
    fit_shared_kernel,
    fold_full_kernel,
    hybrid_forward,
    init_kernel,
    kernel_shape,
    mhsa_dw_ensembled,
    replace_heads,
)
from dwdropin.select import SelectionPlan, kernel_energy, read_off_kernel
from dwdropin.tensor import ConfigError, dwconv2d, seed_stream, seeded_fill
from dwdropin.vit import ModelConfig, grid, head_cols, head_rows, init_model

from conftest import TINY, make_inputs


def delta_kernel(k, channels=None):
    shape = (k, k) if channels is None else (k, k, channels)
    kern = np.zeros(shape, dtype=np.float32)
    kern[k // 2, k // 2] = 1.0
    return kern


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
        fn = dropin._block_mhsa_fn(BlockDropin(variant="dw", head_kernels={1: kern}), cfg)
        swapped = fn(a_in, blk)
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
        fn = dropin._block_mhsa_fn(
            BlockDropin(variant="dw", head_kernels={1: init_kernel("dw", cfg, 81)}), cfg)
        fn(a_in, blk)
        np.testing.assert_array_equal(vit.head_attention(a_in, blk, 0), before)


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
            return vit.project_heads(outs, block)

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
        kern, rep = fit_kernels(model, (2, 0), attention_inputs(model, samples), variant="dw")
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
        fitted, _ = fit_shared_kernel(v_list, t_list, k)
        np.testing.assert_allclose(fitted, shared, atol=1e-4)

    def test_fit_kernels_roundtrip_through_model(self, tiny_model):
        samples = make_inputs(TINY, 3, 130)
        kern, rep = fit_kernels(tiny_model, (0, 1), attention_inputs(tiny_model, samples),
                                variant="dw")
        assert kern.shape == (TINY.k, TINY.k, TINY.d_h)
        assert rep.objective <= rep.zero_objective

    def test_needs_samples(self, tiny_model):
        with pytest.raises(ConfigError):
            fit_depthwise_kernel([], [], 3)


def _fit_sets(desk_model):
    """(v_list, t_list, k) regression sets: planted, random, all-zero, and
    desk heads built from one capture the way `fit_kernels` builds them."""
    planted = seeded_fill((3, 3, 4), 210, "gaussian", 0.0, 0.5)
    v = [seeded_fill((8, 8, 4), 211 + i, "gaussian") for i in range(3)]
    sets = [(v, [dwconv2d(x, planted) for x in v], 3),
            (v, [seeded_fill((8, 8, 4), 215 + i, "gaussian") for i in range(3)], 3),
            ([np.zeros((6, 6, 2), np.float32)], [np.zeros((6, 6, 2), np.float32)], 3)]
    cfg = vit.DESK
    inputs = attention_inputs(desk_model, make_inputs(cfg, 4, 220))
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
            shared, shared_rep = fit_shared_kernel(v, t, k)
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
        kern, rep = dropin.fit_ensembled_kernel(tiny_model, 0, np.zeros(TINY.n_h),
                                                attention_inputs(tiny_model, samples),
                                                variant="ens-dw")
        assert kern.shape == (TINY.k, TINY.k, TINY.d_h)
        assert rep.objective <= rep.zero_objective


class TestBuildDropins:
    @pytest.mark.parametrize("variant", ["dw", "convfull"])
    def test_fit_matches_per_head_fitting_bitwise(self, tiny_model, variant):
        samples = make_inputs(TINY, 3, 91)
        plan = SelectionPlan("scattered", "lowest", 3, ((1, 0), (0, 1), (1, 1)))
        hm, reports = build_dropins(tiny_model, plan, variant, samples=samples)
        assert list(reports) == [(0, 1), (1, 0), (1, 1)]
        inputs = attention_inputs(tiny_model, samples)
        for (b, h), rep in reports.items():
            kern, want = fit_kernels(tiny_model, (b, h), inputs, variant=variant)
            np.testing.assert_array_equal(hm.dropins[b].head_kernels[h], kern)
            assert rep == want

    @pytest.mark.parametrize("variant", ["ens-dw", "ens-convfull"])
    def test_fit_matches_block_fitting_bitwise(self, tiny_model, variant):
        samples = make_inputs(TINY, 3, 92)
        plan = SelectionPlan("blockwise", "lowest", 2, (1, 0))
        hm, reports = build_dropins(tiny_model, plan, variant, samples=samples)
        assert list(reports) == [0, 1]
        gamma = np.zeros(TINY.n_h, dtype=np.float32)
        inputs = attention_inputs(tiny_model, samples)
        for b, rep in reports.items():
            kern, want = fit_ensembled_kernel(tiny_model, b, gamma, inputs, variant=variant)
            np.testing.assert_array_equal(hm.dropins[b].kernel, kern)
            np.testing.assert_array_equal(hm.dropins[b].gamma, gamma)
            assert rep == want

    @pytest.mark.parametrize("variant", dropin.VARIANTS)
    def test_fit_captures_attention_inputs_once(self, tiny_model, monkeypatch, variant):
        capture, calls = dropin.attention_inputs, []

        def counted(model, samples):
            calls.append(len(samples))
            return capture(model, samples)
        monkeypatch.setattr(dropin, "attention_inputs", counted)
        plan = SelectionPlan("blockwise", "lowest", 2, (1, 0))  # 2 blocks x 2 heads
        _, reports = build_dropins(tiny_model, plan, variant, samples=make_inputs(TINY, 3, 93))
        assert calls == [3]
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
