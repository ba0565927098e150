import time

import pytest

from dwdropin import dropin, vit
from dwdropin.dropin import build_dropins
from dwdropin.cost import (
    VARIANTS,
    activation_bytes,
    bench,
    budget_sweep,
    ffn_flops_params,
    flops_params,
    model_cost_report,
    variant_table,
    variant_table_text,
)
from dwdropin.select import SelectionPlan
from dwdropin.tensor import ConfigError
from dwdropin.vit import DESK, VITL, ModelConfig

from conftest import TINY, make_inputs, traced_peak

ODD = ModelConfig(n_b=1, n_h=3, d=24, d_h=8, m=5, k=5)
UNIT_KERNEL = ModelConfig(n_b=1, n_h=4, d=64, d_h=16, m=8, k=1)

# Reference single-block table at the ViT-Large-like shape
# (d=1024, n_h=16, d_h=64, m=24 -> n=576, k=3), GFLOPs / Mparams.
# Values kept as printed, since their precision varies (4.2 vs 2.11).
TABLE = {
    "mhsa": ("6.19", "4.2"),
    "convfull": ("12.08", "2.1"),
    "dw": ("2.43", "2.11"),
    "ens-convfull": ("0.75", "2.1"),
    "ens-dw": ("0.15", "2.1"),
}


def matches_printed(value: float, printed: str) -> bool:
    """True when `value` rounds to `printed` at its own decimal precision."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return abs(value - float(printed)) <= 0.5 * 10 ** (-decimals) + 1e-12


class TestFlopsParams:
    @pytest.mark.parametrize("variant", sorted(TABLE))
    def test_rounds_to_reference_table(self, variant):
        f, p = flops_params(variant, VITL)
        assert matches_printed(f / 1e9, TABLE[variant][0])
        assert matches_printed(p / 1e6, TABLE[variant][1])

    def test_mhsa_independent_formula(self):
        for cfg in (TINY, vit.DESK, VITL):
            f, _ = flops_params("mhsa", cfg)
            assert f == 2 * cfg.n * cfg.d * (4 * cfg.d + 2 * cfg.n)

    def test_dw_cheaper_than_mhsa(self):
        for d, n_h in ((16, 2), (64, 4), (256, 8), (1024, 16)):
            cfg = ModelConfig(n_b=1, n_h=n_h, d=d, d_h=d // n_h, m=8, k=3)
            assert flops_params("dw", cfg)[0] < flops_params("mhsa", cfg)[0]

    def test_param_surplus_of_per_channel_kernels(self):
        # per-channel kernels cost exactly k^2*d - n_h*k^2 more than shared ones
        _, p_conv = flops_params("convfull", VITL)
        _, p_dw = flops_params("dw", VITL)
        k2 = VITL.k * VITL.k
        assert p_dw - p_conv == k2 * VITL.d - VITL.n_h * k2

    def test_unit_kernel_depthwise_term(self):
        cfg = UNIT_KERNEL
        f_dw, _ = flops_params("dw", cfg)
        # value + output projections, plus the k=1 depthwise pass: exactly 2nd
        assert f_dw - 4 * cfg.n * cfg.d * cfg.d == 2 * cfg.n * cfg.d

    @staticmethod
    def closed_forms(cfg, replaced=None):
        """Block (FLOPs, params) of each attention choice, written out in
        d = n_h * d_h: projections, the attention or convolution, and for
        the ensembled choices one merged head plus its n_h logits. With
        `replaced` < n_h heads, the unensembled choices keep the other
        heads' exact attention: whole-block costs in proportion r / n_h
        and (n_h - r) / n_h, as each head owns a d_h-column share."""
        n, d, d_h, n_h, k = cfg.n, cfg.d, cfg.d_h, cfg.n_h, cfg.k
        whole = {
            "mhsa": (8 * n * d * d + 4 * n * n * d, 4 * d * d),
            "convfull": (2 * n * k * k * d * d + 2 * n * d * d, 2 * d * d + n_h * k * k),
            "dw": (4 * n * d * d + 2 * n * k * k * d, 2 * d * d + k * k * d),
            "ens-convfull": (2 * n * k * k * d * d_h + 2 * n * d_h * d,
                             2 * d * d + k * k + n_h),
            "ens-dw": (4 * n * d * d_h + 2 * n * k * k * d_h, 2 * d * d + k * k * d_h + n_h),
        }
        r = n_h if replaced is None else replaced
        if r == n_h:
            return whole
        # exact: with d = n_h * d_h every whole-block count is a multiple of n_h
        return {v: tuple((r * a + (n_h - r) * b) // n_h for a, b in zip(cost, whole["mhsa"]))
                for v, cost in whole.items() if v not in dropin.ENSEMBLED}

    def test_per_head_sums_to_block(self):
        for cfg in (vit.DESK, VITL, ODD, UNIT_KERNEL):
            assert set(self.closed_forms(cfg)) == set(VARIANTS)
            for variant, cost in self.closed_forms(cfg).items():
                assert flops_params(variant, cfg) == cost, (cfg, variant)
            for replaced in range(cfg.n_h + 1):
                for variant, cost in self.closed_forms(cfg, replaced).items():
                    assert flops_params(variant, cfg, replaced) == cost, (cfg, variant, replaced)

    def test_no_replaced_head_is_attention(self):
        for cfg in (vit.DESK, VITL, ODD):
            for variant in VARIANTS:
                assert flops_params(variant, cfg, 0) == flops_params("mhsa", cfg)

    @pytest.mark.parametrize("variant,replaced", [
        ("dw", -1), ("convfull", 17), ("ens-dw", 1), ("ens-convfull", 15)])
    def test_illegal_replaced_count(self, variant, replaced):
        with pytest.raises(ConfigError):
            flops_params(variant, VITL, replaced)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            flops_params("winograd", VITL)

    def test_counters_are_exact_integers_at_large_scale(self):
        cfg = ModelConfig(n_b=1, n_h=64, d=8192, d_h=128, m=100, k=3)
        f, p = flops_params("mhsa", cfg)
        assert isinstance(f, int) and isinstance(p, int)
        assert f == 2 * cfg.n * cfg.d * (4 * cfg.d + 2 * cfg.n)  # > 2**63 is fine


class TestPricesWhatRuns:
    """flops_params is 2 x the multiply-accumulates of one real attention
    sublayer call: every GEMM and convolution it runs is metered, and
    `vit.attention`'s stacked energy and EV matmuls add n^2 c each for its
    c columns. The kernel fold is elementwise, so it adds none."""

    @staticmethod
    def metered(monkeypatch, macs):
        def meter(module, name, count):
            fn = getattr(module, name)

            def wrapped(*args):
                macs.append(count(*args))
                return fn(*args)
            monkeypatch.setattr(module, name, wrapped)

        def gemm(a, b):
            return a.shape[0] * a.shape[1] * b.shape[1]

        def conv(x, w, taps=None):  # every output pixel reads the whole (k, k, ...) kernel
            return x.shape[0] * x.shape[1] * w.size

        def energy_and_ev(x, w_qkv, d_h, energy_tap=None):
            return 2 * x.shape[0] ** 2 * (w_qkv.shape[1] // 3)

        for module in (dropin, vit):
            meter(module, "matmul", gemm)
        meter(dropin, "conv2d", conv)
        meter(dropin, "dwconv2d", conv)
        meter(vit, "attention", energy_and_ev)

    @pytest.mark.parametrize("cfg", [TINY, ODD], ids=["tiny", "odd"])
    @pytest.mark.parametrize("variant", dropin.VARIANTS)
    def test_two_flops_per_metered_mac(self, monkeypatch, cfg, variant):
        model = vit.init_model(ModelConfig(**{**cfg.to_dict(), "n_b": 1}), 5)
        block, n_h = model.blocks[0], cfg.n_h
        x = make_inputs(cfg, 1, 6)[0]
        sublayers = {0: vit.mhsa_forward}
        for replaced in ((n_h,) if variant in dropin.ENSEMBLED else range(1, n_h + 1)):
            plan = (SelectionPlan("blockwise", "lowest", 1, (0,)) if replaced == n_h else
                    SelectionPlan("scattered", "lowest", replaced,
                                  tuple((0, h) for h in range(n_h - replaced, n_h))))
            sublayers[replaced] = build_dropins(model, plan, variant, seed=7)[0].sublayers[0]
        macs = []
        self.metered(monkeypatch, macs)
        for replaced, sublayer in sublayers.items():
            macs.clear()
            sublayer(x, block)
            assert 2 * sum(macs) == flops_params(variant, cfg, replaced)[0], replaced


class TestModelCostReport:
    def test_empty_plan_is_baseline(self):
        rep = model_cost_report(VITL, None, "dw")
        assert rep.totals == rep.baseline | {"attn_flops": rep.baseline["attn_flops"]}
        assert rep.deltas["flops_ratio"] == 1.0

    def test_all_blocks_dw_additivity(self):
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=VITL.n_b,
                             targets=tuple(range(VITL.n_b)))
        rep = model_cost_report(VITL, plan, "dw")
        f_dw, _ = flops_params("dw", VITL)
        ffn_f, _ = ffn_flops_params(VITL)
        assert rep.totals["flops"] == VITL.n_b * (f_dw + ffn_f)

    def test_half_blocks_attention_reduction(self):
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=12,
                             targets=tuple(range(12)))
        rep = model_cost_report(VITL, plan, "dw")
        assert 60.5 <= rep.deltas["attn_reduction_pct_replaced"] <= 61.0
        assert 0 < rep.deltas["flops_reduction_pct"] < 100

    def test_scattered_full_block_equals_blockwise(self):
        bw = SelectionPlan(mode="blockwise", order="lowest", budget=1, targets=(0,))
        sc = SelectionPlan(mode="scattered", order="lowest", budget=VITL.n_h,
                           targets=tuple((0, h) for h in range(VITL.n_h)))
        rep_bw = model_cost_report(VITL, bw, "dw")
        rep_sc = model_cost_report(VITL, sc, "dw")
        assert rep_bw.totals["flops"] == rep_sc.totals["flops"]

    def test_scattered_partial_block_mixes_per_head(self):
        sc = SelectionPlan(mode="scattered", order="lowest", budget=3,
                           targets=((0, 0), (0, 5), (0, 9)))
        for variant in ("convfull", "dw"):
            rep = model_cost_report(VITL, sc, variant)
            row = rep.rows[0]
            want = TestFlopsParams.closed_forms(VITL, 3)[variant]
            assert (row["attn_flops"], row["attn_params"]) == want
            assert row["attention"] == f"mixed({variant} x3)"
            assert rep.rows[1]["attn_flops"] == flops_params("mhsa", VITL)[0]

    def test_ensembled_partial_refused(self):
        sc = SelectionPlan(mode="scattered", order="lowest", budget=1, targets=((0, 0),))
        with pytest.raises(ConfigError):
            model_cost_report(VITL, sc, "ens-dw")

    def test_totals_sum_of_parts(self):
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=2, targets=(1, 3))
        rep = model_cost_report(vit.DESK, plan, "ens-dw")
        assert rep.totals["flops"] == sum(r["attn_flops"] + r["ffn_flops"] for r in rep.rows)
        assert rep.to_table()

    def test_json_has_manifest_free_shape(self):
        rep = model_cost_report(TINY, None, "dw")
        doc = rep.to_json()
        assert doc["config"] == TINY.to_dict()
        assert len(doc["rows"]) == TINY.n_b


class TestSweep:
    def test_monotone_non_increasing(self):
        sweep = budget_sweep(VITL, "dw")
        assert len(sweep) == VITL.n_b + 1
        flops = [row["flops"] for row in sweep]
        assert all(a >= b for a, b in zip(flops, flops[1:]))
        assert sweep[0]["flops_ratio"] == 1.0

    def test_zero_budget_is_baseline(self):
        sweep = budget_sweep(vit.DESK, "ens-dw")
        assert sweep[0]["flops_reduction_pct"] == 0.0


class TestVariantTable:
    def test_covers_all_variants(self):
        rows = variant_table(VITL)
        assert [r["attention"] for r in rows] == list(
            ("mhsa", "convfull", "dw", "ens-convfull", "ens-dw"))
        gf = {r["attention"]: r["gflops"] for r in rows}
        assert gf["mhsa"] == 6.19 and gf["ens-dw"] == 0.15

    def test_text_render(self):
        text = variant_table_text(VITL)
        assert "6.19" in text and "0.15" in text and "2.11" in text

    def test_activation_estimate_positive(self):
        for v in ("mhsa", "convfull", "dw", "ens-convfull", "ens-dw"):
            assert activation_bytes(v, VITL) > 0


ACTIVATION_CONFIGS = {
    "desk": DESK,
    "odd": ODD,
    # exact attention in 4 head groups
    "grouped": ModelConfig(n_b=1, n_h=4, d=64, d_h=16, m=24, k=3),
}


class TestActivationBytes:
    """The estimate prices what one attention sublayer call holds: within a
    factor of 2 of the traced peak of a real call, its input included."""

    @staticmethod
    def assert_matches_traced_peak(cfg, variant, replaced=None) -> float:
        """Assert the factor-2 band and return the traced peak / estimate."""
        model = vit.init_model(ModelConfig(**{**cfg.to_dict(), "n_b": 1}), 7)
        block = model.blocks[0]
        if variant == "mhsa":
            sublayer = vit.mhsa_forward
        else:
            plan = (SelectionPlan("blockwise", "lowest", 1, (0,)) if replaced is None else
                    SelectionPlan("scattered", "lowest", replaced,
                                  tuple((0, h) for h in range(replaced))))
            sublayer = build_dropins(model, plan, variant, seed=8)[0].sublayers[0]
        x = make_inputs(cfg, 1, 9)[0]
        sublayer(x, block)  # warm caches
        peak = traced_peak(lambda: sublayer(x, block)) + x.nbytes
        estimate = activation_bytes(variant, cfg, replaced)
        assert estimate / 2 <= peak <= 2 * estimate, (peak, estimate)
        return peak / estimate

    @pytest.mark.parametrize("cfg", ACTIVATION_CONFIGS.values(), ids=ACTIVATION_CONFIGS.keys())
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_traced_peak(self, cfg, variant):
        self.assert_matches_traced_peak(cfg, variant)

    @pytest.mark.parametrize("variant, name, replaced", [
        (variant, name, r) for variant in ("dw", "convfull")
        for name, cfg in ACTIVATION_CONFIGS.items() for r in range(1, cfg.n_h)])
    def test_partly_replaced_block_matches_traced_peak(self, variant, name, replaced):
        """A block with some of its heads replaced holds its drop-in and its
        kept heads' exact attention: priced as exact attention, the odd
        config's traced peak is 2.8-5.7x the estimate."""
        self.assert_matches_traced_peak(ACTIVATION_CONFIGS[name], variant, replaced)

    @pytest.mark.parametrize("cfg", ACTIVATION_CONFIGS.values(), ids=ACTIVATION_CONFIGS.keys())
    @pytest.mark.parametrize("variant", ["convfull", "ens-convfull"])
    def test_full_convolution_within_15_percent(self, cfg, variant):
        """A whole full-convolution block holds its fold, then the larger of
        the fold multiply's buffers and the convolution's padded input and
        (n, c) arrays, which never coexist: priced so, it reads within 15%
        of its traced peak."""
        assert 0.85 <= self.assert_matches_traced_peak(cfg, variant) <= 1.15

    def test_one_head_prices_alike_ensembled_or_not(self):
        """At n_h = 1 every drop-in runs over c = d_h channels, so the
        ensembled and plain forms of a formulation hold the same arrays."""
        cfg = ModelConfig(n_b=1, n_h=1, d=16, d_h=16, m=8, k=3)
        assert activation_bytes("dw", cfg) == activation_bytes("ens-dw", cfg)
        assert activation_bytes("convfull", cfg) == activation_bytes("ens-convfull", cfg)

    @pytest.mark.parametrize("variant", dropin.VARIANTS)
    def test_prices_the_heads_flops_params_does(self, variant):
        """No head replaced is exact attention, all of them the whole
        block, and a count `flops_params` refuses is refused."""
        for cfg in ACTIVATION_CONFIGS.values():
            assert activation_bytes(variant, cfg, 0) == activation_bytes("mhsa", cfg)
            assert activation_bytes(variant, cfg, cfg.n_h) == activation_bytes(variant, cfg)
            for bad in (-1, cfg.n_h + 1) + ((1,) if variant in dropin.ENSEMBLED else ()):
                with pytest.raises(ConfigError):
                    flops_params(variant, cfg, bad)
                with pytest.raises(ConfigError):
                    activation_bytes(variant, cfg, bad)


class TestBench:
    def test_single_rep_median_is_measurement(self):
        res = bench(lambda x: sum(x), [1, 2, 3], warmup=0, reps=1)
        assert res["median"] == res["p10"] == res["p90"] > 0

    def test_order_statistics(self):
        res = bench(lambda x: time.sleep(0.001), None, warmup=1, reps=10)
        assert res["p10"] <= res["median"] <= res["p90"]

    def test_reps_validated(self):
        with pytest.raises(ConfigError):
            bench(lambda x: x, 0, warmup=0, reps=0)
