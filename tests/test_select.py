import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dwdropin import vit
from dwdropin.select import (
    GateParams,
    ScoreResult,
    SelectionPlan,
    WelfordState,
    anneal_tau,
    check_properties,
    gate_trace,
    gated_block_forward,
    gumbel_noise,
    gumbel_topk_relax,
    hard_topk_gate,
    kernel_energy,
    plan_from_file,
    plan_to_file,
    read_off_kernel,
    score_model,
    scores_from_file,
    select,
    sigma_block,
    sigma_head,
    welford_finalize,
    welford_update,
)
from dwdropin.tensor import ConfigError, FormatError, ShapeError, seeded_fill, softmax_rows
from dwdropin.vit import init_model

from conftest import (
    GROUPED,
    PLAN_FAULTS,
    REPORT_FAULTS,
    TINY,
    block_inputs,
    full_forward_scores,
    make_inputs,
)


def two_pass_std(samples):
    """Independent oracle: plain two-pass population standard deviation."""
    stack = np.stack([np.asarray(s, dtype=np.float64) for s in samples])
    mean = stack.sum(axis=0) / len(samples)
    return np.sqrt(((stack - mean) ** 2).sum(axis=0) / len(samples))


def _rows(elements, width=4):
    """Streams of 1 to 12 samples, each `width` values drawn from `elements`."""
    return st.lists(st.lists(elements, min_size=width, max_size=width),
                    min_size=1, max_size=12).map(np.array)


def _softmax(logits):
    z = logits.astype(np.float32)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
# Streams whose M2 the update keeps at +0 or above with no clamp: softmax
# rows (float32, as scoring taps them), constants of any finite size, ±1
# alternation, a large mean with small noise, and subnormals with ±0,
# whose products underflow to ±0.
WELFORD_STREAMS = st.one_of(
    _rows(st.floats(-30, 30)).map(_softmax),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 12))
    .map(lambda vc: np.full((vc[1], 4), vc[0])),
    st.tuples(st.sampled_from([1.0, -1.0]), st.integers(1, 12))
    .map(lambda sc: np.full((sc[1], 4), sc[0]) * (-1.0) ** np.arange(sc[1])[:, None]),
    _rows(st.floats(-1e-3, 1e-3)).map(lambda noise: 1e6 + noise),
    _rows(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                    st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL))),
)


class TestWelford:
    def test_identical_samples_zero_m2(self, rng):
        x = rng.standard_normal((4, 4))
        st_ = WelfordState.new((4, 4))
        welford_update(st_, x)
        welford_update(st_, x)
        assert not st_.m2.any()

    def test_two_point_closed_form(self):
        st_ = WelfordState.new((2, 2))
        welford_update(st_, np.zeros((2, 2)))
        welford_update(st_, np.full((2, 2), 2.0))
        np.testing.assert_allclose(st_.mean, 1.0)
        np.testing.assert_allclose(st_.m2, 2.0)            # unbiased var 2
        np.testing.assert_allclose(welford_finalize(st_), 1.0)  # population var 1

    @pytest.mark.parametrize("count", [2, 17, 303])
    def test_matches_two_pass_oracle(self, count, rng):
        samples = [rng.standard_normal((3, 5)) for _ in range(count)]
        st_ = WelfordState.new((3, 5))
        for s in samples:
            welford_update(st_, s)
        online = welford_finalize(st_)
        oracle = two_pass_std(samples)
        np.testing.assert_allclose(online, oracle, rtol=1e-10, atol=1e-13)

    def test_matches_textbook_update_bitwise(self, rng):
        """The in-place update does the textbook arithmetic and leaves the
        caller's sample untouched, float64 or float32."""
        samples = [rng.standard_normal((3, 5)) for _ in range(20)]
        samples.append(samples[0].astype(np.float32))
        st_ = WelfordState.new((3, 5))
        mean, m2 = np.zeros((3, 5)), np.zeros((3, 5))
        for count, s in enumerate(samples, start=1):
            before = s.copy()
            welford_update(st_, s)
            np.testing.assert_array_equal(s, before)
            x = np.asarray(s, dtype=np.float64)
            delta = x - mean
            mean = mean + delta / count
            m2 = np.maximum(m2 + delta * (x - mean), 0.0)
        np.testing.assert_array_equal(st_.mean, mean)
        np.testing.assert_array_equal(st_.m2, m2)

    def test_high_mean_stress(self, rng):
        # mean 1e6, unit variance: the catastrophic-cancellation guard
        samples = [1e6 + rng.standard_normal((2, 2)) for _ in range(10_000)]
        st_ = WelfordState.new((2, 2))
        for s in samples:
            welford_update(st_, s)
        online = welford_finalize(st_)
        oracle = two_pass_std(samples)
        assert float(np.abs(online - oracle).max() / oracle.max()) <= 1e-10

    def test_m2_nonnegative(self, rng):
        st_ = WelfordState.new((3,))
        for _ in range(500):
            welford_update(st_, 1e6 + 1e-3 * rng.standard_normal(3))
            assert (st_.m2 >= 0).all()

    @given(WELFORD_STREAMS)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_m2_never_below_plus_zero(self, stream):
        """After every update M2 is >= 0 with no -0 bit, and one sample
        finalizes to exactly +0: the bounds the update keeps with no clamp."""
        st_ = WelfordState.new(stream.shape[1:])
        for x in stream:
            welford_update(st_, x)
            assert (st_.m2 >= 0).all() and not np.signbit(st_.m2).any()
            if st_.count == 1:
                sigma = welford_finalize(st_)
                assert not sigma.any() and not np.signbit(sigma).any()

    def test_finalize_empty_raises(self):
        with pytest.raises(ConfigError):
            welford_finalize(WelfordState.new((2,)))

    def test_finalize_single_sample_zero(self, rng):
        st_ = WelfordState.new((2,))
        welford_update(st_, rng.standard_normal(2))
        np.testing.assert_array_equal(welford_finalize(st_), 0.0)

    def test_constant_stream_zero_std(self):
        st_ = WelfordState.new((2, 2))
        for _ in range(9):
            welford_update(st_, np.full((2, 2), 3.7))
        np.testing.assert_array_equal(welford_finalize(st_), 0.0)

    def test_alternating_unit_std(self):
        st_ = WelfordState.new((2,))
        for i in range(10):
            welford_update(st_, np.full(2, 1.0 if i % 2 == 0 else -1.0))
        np.testing.assert_allclose(welford_finalize(st_), 1.0, rtol=1e-12)


class TestSigmaScores:
    def test_zero_std_zero_score(self):
        assert sigma_head(np.zeros((8, 8))) == 0.0

    def test_all_ones_counts_entries(self):
        # an 8x8 token grid has a 64x64 weight matrix: 4096 entries
        assert sigma_head(np.ones((64, 64))) == 4096.0

    def test_block_mean(self):
        assert sigma_block([0.0, 2.0]) == 1.0
        assert sigma_block([3.0, 3.0, 3.0]) == 3.0

    def test_block_mean_oracle(self, rng):
        vals = rng.standard_normal(7)
        assert abs(sigma_block(vals) - float(np.mean(vals))) < 1e-12


class TestScoreModel:
    def test_single_sample_zero_scores(self, tiny_model):
        res = score_model(tiny_model, make_inputs(TINY, 1, 7))
        assert not res.sigma_h.any()
        assert not res.sigma_b.any()

    def test_uniform_attention_block_scores_zero_and_lowest(self):
        model = init_model(vit.DESK, 404)
        model.blocks[3].w_q[:] = 0  # weight matrices constant across inputs
        res = score_model(model, make_inputs(vit.DESK, 6, 11))
        assert res.sigma_h[3].max() <= 1e-9
        assert res.sigma_b.argmin() == 3
        others = [res.sigma_b[b] for b in range(vit.DESK.n_b) if b != 3]
        assert min(others) > 1e-3

    @staticmethod
    def per_head_sigmas(model, samples):
        """One accumulator per head fed by the per-head oracles."""
        cfg = model.config
        states = [[WelfordState.new((cfg.n, cfg.n)) for _ in range(cfg.n_h)]
                  for _ in range(cfg.n_b)]
        for x in samples:
            for b, a_in in enumerate(block_inputs(model, x)):
                for h in range(cfg.n_h):
                    q, k, _ = vit.qkv_project(a_in, model.blocks[b], h)
                    welford_update(states[b][h], vit.head_energy(q, k))
        return np.array([[sigma_head(welford_finalize(st_)) for st_ in row] for row in states])

    def test_matches_per_head_reference_bitwise(self, monkeypatch):
        """The batched scorer gives the sigmas of one accumulator per head fed
        by the per-head oracles, and folds each block in one update."""
        cfg = vit.DESK
        model = init_model(cfg, 405)
        model.blocks[2].w_q[:] = 0                      # a uniform-attention block
        for b, h in ((0, 1), (3, 0), (3, 2), (5, 3)):   # and scattered uniform heads
            vit.head_cols(model.blocks[b].w_q, h, cfg.d_h)[:] = 0
        samples = make_inputs(cfg, 17, 31)
        sigma_h = self.per_head_sigmas(model, samples)

        calls = []
        monkeypatch.setattr("dwdropin.select.welford_update",
                            lambda st_, e: calls.append(1) or welford_update(st_, e))
        res = score_model(model, samples)
        np.testing.assert_array_equal(res.sigma_h, sigma_h)
        np.testing.assert_array_equal(res.sigma_b, [sigma_block(row) for row in sigma_h])
        assert not res.sigma_h[2].any() and not res.sigma_h[3, 0] and not res.sigma_h[5, 3]
        assert len(calls) == cfg.n_b * len(samples)

    def test_head_groups_match_per_head_reference_bitwise(self, monkeypatch):
        """Where a block's attention runs in several head groups (here 8 and
        4 heads over n = 256 tokens), each group folds into its own
        accumulator and the sigmas stay the per-head reference's, bitwise."""
        cfg = vit.ModelConfig(**{**GROUPED.to_dict(), "n_b": 2})
        assert len(vit.head_groups(cfg.n_h, cfg.n)) == 2
        model = init_model(cfg, 406)
        vit.head_cols(model.blocks[1].w_q, 9, cfg.d_h)[:] = 0   # a uniform head
        samples = make_inputs(cfg, 5, 32)
        sigma_h = self.per_head_sigmas(model, samples)

        calls = []
        monkeypatch.setattr("dwdropin.select.welford_update",
                            lambda st_, e: calls.append(e.shape[0]) or welford_update(st_, e))
        res = score_model(model, samples)
        np.testing.assert_array_equal(res.sigma_h, sigma_h)
        np.testing.assert_array_equal(res.sigma_b, [sigma_block(row) for row in sigma_h])
        assert not res.sigma_h[1, 9] and res.sigma_h.all(axis=1).sum() == 1
        assert calls == [8, 4] * cfg.n_b * len(samples)

    @pytest.mark.parametrize("n_b", [6, 1], ids=["desk", "one-block"])
    def test_report_matches_full_forward_scoring(self, n_b):
        """Stopping at the last block's attention weights leaves the score
        report byte for byte that of full forwards."""
        cfg = vit.ModelConfig(**{**vit.DESK.to_dict(), "n_b": n_b})
        model = init_model(cfg, 407)
        samples = make_inputs(cfg, 9, 33)
        want = full_forward_scores(model, samples).to_report()
        got = score_model(model, iter(samples)).to_report()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("n_b", [6, 1], ids=["desk", "one-block"])
    def test_pass_stops_at_last_attention(self, monkeypatch, n_b):
        """Per chunk of samples: one `blocks_forward` call per stage of the
        pass, n_b - 1 FFNs and output projections, and n_b attentions; no
        `model_forward`."""
        cfg = vit.ModelConfig(**{**vit.DESK.to_dict(), "n_b": n_b})
        model = init_model(cfg, 408)
        calls = []
        for name in ("model_forward", "blocks_forward", "ffn_forward", "project_heads",
                     "attention"):
            fn = getattr(vit, name)
            monkeypatch.setattr(vit, name, lambda *a, fn=fn, name=name, **kw:
                                calls.append(name) or fn(*a, **kw))
        samples = make_inputs(cfg, vit.chunk_size(cfg) + 1, 34)
        chunks = 2
        score_model(model, iter(samples))
        assert calls.count("model_forward") == 0
        assert calls.count("blocks_forward") == 2 * chunks
        assert calls.count("ffn_forward") == chunks * (n_b - 1)
        assert calls.count("project_heads") == chunks * (n_b - 1)
        assert calls.count("attention") == chunks * n_b

    def test_deterministic(self, tiny_model):
        r1 = score_model(tiny_model, make_inputs(TINY, 4, 13))
        r2 = score_model(tiny_model, make_inputs(TINY, 4, 13))
        np.testing.assert_array_equal(r1.sigma_h, r2.sigma_h)

    def test_streams_from_generator(self, tiny_model):
        res = score_model(tiny_model, (x for x in make_inputs(TINY, 3, 17)))
        assert res.n_samples == 3

    def test_memory_does_not_grow_with_sample_count(self, tiny_model):
        # samples are folded in one chunk at a time; peak allocation is set
        # by the accumulators and one chunk's pass, not by the stream length
        import tracemalloc

        from dwdropin.tensor import seed_stream

        def lazy(count, seed):
            seeds = seed_stream(seed)
            for _ in range(count):
                yield seeded_fill((TINY.n, TINY.d), next(seeds), "gaussian")

        def peak(count):
            tracemalloc.start()
            score_model(tiny_model, lazy(count, 29))
            _, pk = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return pk

        peak(2)  # warm caches
        small, big = peak(4), peak(64)
        assert big < 2 * small + 1_000_000

    def test_zero_iff_identical_weight_matrices(self, tiny_model):
        same = make_inputs(TINY, 1, 19)[0]
        res = score_model(tiny_model, [same, same, same])
        assert not res.sigma_h.any()
        res2 = score_model(tiny_model, make_inputs(TINY, 3, 19))
        assert (res2.sigma_h > 0).all()

    def test_report_shape(self, tiny_model):
        rep = score_model(tiny_model, make_inputs(TINY, 2, 23)).to_report()
        assert rep["convention"] == "population"
        assert len(rep["sigma_b"]) == TINY.n_b
        assert len(rep["ranking_heads"]) == TINY.n_b * TINY.n_h


class TestCheckProperties:
    def test_uniform_matrix(self):
        e = np.full((16, 16), 1 / 16, dtype=np.float32)
        props = check_properties([e, e], k=3, tol=1e-6)
        assert props == {"L": False, "TI": True, "II": True}

    def test_identity_matrix(self):
        e = np.eye(16, dtype=np.float32)
        props = check_properties([e, e], k=3, tol=1e-6)
        assert props == {"L": True, "TI": True, "II": True}

    def test_random_matrices_fail_all(self, rng):
        es = [softmax_rows(rng.standard_normal((16, 16)).astype(np.float32))
              for _ in range(3)]
        props = check_properties(es, k=3, tol=1e-3)
        assert props == {"L": False, "TI": False, "II": False}

    def test_kernel_energy_satisfies_all(self):
        kern = seeded_fill((3, 3), 31, "uniform") + np.float32(0.01)
        kern = (kern / kern.sum()).astype(np.float32)
        e = kernel_energy(kern, 5)
        props = check_properties([e, e, e], k=3, tol=1e-6)
        assert props == {"L": True, "TI": True, "II": True}

    def test_ti_is_per_sample(self):
        # each sample is a perfect kernel head, but the kernel drifts
        # between samples: TI and L hold, input invariance does not
        k1 = seeded_fill((3, 3), 32, "uniform") + np.float32(0.01)
        k2 = seeded_fill((3, 3), 33, "uniform") + np.float32(0.01)
        es = [kernel_energy((kk / kk.sum()).astype(np.float32), 5) for kk in (k1, k2)]
        props = check_properties(es, k=3, tol=1e-6)
        assert props == {"L": True, "TI": True, "II": False}

    def test_input_invariant_head_reports_ii(self, tiny_model):
        model = init_model(TINY, 505)
        model.blocks[0].w_q[:] = 0
        es = []
        for x in make_inputs(TINY, 3, 37):
            a_in = vit.layer_norm(x + model.pos_enc, model.blocks[0].norm1_scale,
                                  model.blocks[0].norm1_shift)
            q, k, _ = vit.qkv_project(a_in, model.blocks[0], 0)
            es.append(vit.head_energy(q, k))
        assert check_properties(es, k=TINY.k, tol=1e-6)["II"] is True


class TestReadOffKernel:
    def test_roundtrip(self):
        kern = seeded_fill((3, 3), 41, "uniform")
        np.testing.assert_allclose(read_off_kernel(kernel_energy(kern, 6), 6, 3),
                                   kern, atol=1e-7)


def kernel_energy_oracle(kernel, m):
    """Row (i, j), column (u, v) holds kernel[u-i+half, v-j+half] when that
    offset lies in the kernel, in float32."""
    k = kernel.shape[0]
    half = k // 2
    e = np.zeros((m * m, m * m), dtype=np.float32)
    for i in range(m):
        for j in range(m):
            for u in range(m):
                for v in range(m):
                    if abs(u - i) <= half and abs(v - j) <= half:
                        e[i * m + j, u * m + v] = kernel[u - i + half, v - j + half]
    return e


def check_properties_oracle(es, k, tol):
    """L, TI and II by brute force over every (sample, query, key) triple."""
    m = math.isqrt(es[0].shape[0])
    half = k // 2
    stack = np.stack([np.asarray(e, dtype=np.float64) for e in es])
    loc, per_offset = True, {}
    for i in range(m):
        for j in range(m):
            for u in range(m):
                for v in range(m):
                    col = stack[:, i * m + j, u * m + v]
                    if abs(u - i) <= half and abs(v - j) <= half:
                        per_offset.setdefault((u - i, v - j), []).append(col)
                    elif np.abs(col).max() > tol:
                        loc = False
    ti = all(np.ptp(np.stack(cols), axis=0).max() <= tol for cols in per_offset.values())
    ii = bool(np.ptp(stack, axis=0).max() <= tol)
    return {"L": loc, "TI": ti, "II": ii}


class TestWindowGeometry:
    """kernel_energy, read_off_kernel and check_properties against direct
    offset arithmetic."""

    @pytest.mark.parametrize("m, k", [(1, 1), (3, 1), (3, 3), (4, 3), (5, 5), (6, 3),
                                      (2, 3), (3, 5), (2, 7)])
    def test_kernel_energy_matches_oracle_bitwise(self, rng, m, k):
        kern = rng.standard_normal((k, k)).astype(np.float32)
        np.testing.assert_array_equal(kernel_energy(kern, m), kernel_energy_oracle(kern, m))

    @pytest.mark.parametrize("m, k", [(1, 1), (3, 3), (4, 3), (5, 5), (8, 5), (7, 7)])
    def test_read_off_kernel_matches_oracle_bitwise(self, rng, m, k):
        e = rng.standard_normal((m * m, m * m)).astype(np.float32)
        i = j = m // 2
        half = k // 2
        want = np.array([[e[i * m + j, u * m + v] for v in range(j - half, j + half + 1)]
                         for u in range(i - half, i + half + 1)], dtype=np.float32)
        np.testing.assert_array_equal(read_off_kernel(e, m, k), want)

    @pytest.mark.parametrize("tol", [0.0, 1e-7, 1e-5, 1e-4, 1e-3, 1e-2, 0.3, 2.0])
    @pytest.mark.parametrize("m, k", [(3, 1), (3, 3), (4, 3), (5, 3), (5, 5), (3, 5), (4, 7)])
    def test_check_properties_matches_oracle(self, rng, m, k, tol):
        """Kernel heads with small per-entry, per-sample and off-window noise
        at several scales, so the sweep flips each property somewhere."""
        n = m * m
        base = kernel_energy(rng.random((k, k)).astype(np.float32), m)
        outside = kernel_energy(np.ones((k, k)), m) == 0
        cases = [[base, base],
                 [base + np.float32(1e-4) * outside, base],
                 [base + np.float32(1e-6) * rng.standard_normal((n, n)).astype(np.float32)
                  for _ in range(3)],
                 [(base + np.float32(s) * rng.random((n, n)).astype(np.float32))
                  for s in (1e-3, 1e-2)],
                 [softmax_rows(rng.standard_normal((n, n)).astype(np.float32))]]
        for es in cases:
            assert check_properties(es, k, tol) == check_properties_oracle(es, k, tol)


class TestSelect:
    def test_lowest_budget_one(self):
        assert select([3.0, 1.0, 2.0], 1).targets == (1,)

    def test_tie_break_lower_index(self):
        assert select([1.0, 1.0, 1.0], 2).targets == (0, 1)

    def test_full_budget_any_order(self):
        assert select([5.0, 1.0, 3.0], 3, order="lowest").targets == (0, 1, 2)
        assert select([5.0, 1.0, 3.0], 3, order="highest").targets == (0, 1, 2)

    def test_highest_complements_lowest(self):
        scores = [4.0, 0.5, 2.0, 3.0]
        low = set(select(scores, 2, order="lowest").targets)
        high = set(select(scores, 2, order="highest").targets)
        assert low == {1, 2} and high == {0, 3}

    def test_scattered_targets(self):
        scores = np.array([[3.0, 0.1], [0.2, 5.0]])
        plan = select(scores, 2, mode="scattered")
        assert plan.targets == ((0, 1), (1, 0))
        assert plan.covered_heads(TINY) == {(0, 1), (1, 0)}

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=10,
                    unique=True),
           st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_argsort_invariance(self, scores, budget):
        budget = min(budget, len(scores))
        squeezed = [np.arctan(0.01 * s) for s in scores]
        # the squeeze must stay strictly monotone; tiny scores can underflow
        # to a tie (e.g. -5e-324 -> -0.0 == 0.0), which tie-breaking decides
        assume(len(set(squeezed)) == len(scores))
        assert select(scores, budget).targets == select(squeezed, budget).targets

    def test_budget_bounds(self):
        with pytest.raises(ConfigError):
            select([1.0, 2.0], 3)

    def test_plan_json_roundtrip(self, tmp_path):
        plan = SelectionPlan(mode="scattered", order="highest", budget=2,
                             targets=((0, 1), (1, 0)))
        p = tmp_path / "plan.json"
        plan_to_file(plan, p)
        assert plan_from_file(p) == plan

    def test_plan_without_order_reads_lowest(self):
        plan = SelectionPlan.from_json({"mode": "blockwise", "budget": 1, "targets": [1]})
        assert plan == SelectionPlan("blockwise", "lowest", 1, (1,))

    @pytest.mark.parametrize("doc, message", [f[1:] for f in PLAN_FAULTS],
                             ids=[f[0] for f in PLAN_FAULTS])
    def test_malformed_plan_refused(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            SelectionPlan.from_json(doc)
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(f"{p}: not a plan file: ")):
            plan_from_file(p)

    @pytest.mark.parametrize("mode, fault, message", [f[1:] for f in REPORT_FAULTS],
                             ids=[f[0] for f in REPORT_FAULTS])
    def test_malformed_score_report_refused(self, tmp_path, mode, fault, message):
        report = ScoreResult(sigma_h=np.arange(4.0).reshape(2, 2), sigma_b=np.array([0.5, 2.5]),
                             n_samples=2).to_report()
        p = tmp_path / "report.json"
        p.write_text(json.dumps(report))
        np.testing.assert_array_equal(scores_from_file(p, mode),
                                      report["sigma_b" if mode == "blockwise" else "sigma_h"])
        p.write_text(json.dumps(fault(report)))
        with pytest.raises(FormatError, match=re.escape(f"{p}: not a score report: {message}")):
            scores_from_file(p, mode)


class TestHardTopK:
    def test_examples(self):
        np.testing.assert_array_equal(hard_topk_gate([0.1, 0.9, 0.5], 1), [0, 1, 0])
        np.testing.assert_array_equal(hard_topk_gate([0.1, 0.9, 0.5], 3), [1, 1, 1])

    def test_tie_break(self):
        np.testing.assert_array_equal(hard_topk_gate([1.0, 1.0, 0.0], 1), [1, 0, 0])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_sort_oracle(self, seed, n):
        w = seeded_fill((n,), seed, "gaussian").astype(np.float64)
        p = 1 + seed % n
        mask = hard_topk_gate(w, p)
        assert mask.sum() == p
        chosen = set(np.where(mask == 1)[0])
        threshold = sorted(w, reverse=True)[p - 1]
        assert all(w[i] >= threshold for i in chosen)


class TestGumbelTopK:
    def test_deterministic(self):
        a = gumbel_topk_relax(np.zeros(8), 3, 0.7, seed=5)
        b = gumbel_topk_relax(np.zeros(8), 3, 0.7, seed=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("tau", [4.0, 1.0, 0.3, 0.05, 0.01])
    def test_sums_to_budget_and_unit_interval(self, tau):
        for seed in range(20):
            wt = gumbel_topk_relax(np.zeros(10), 4, tau, seed)
            assert abs(wt.sum() - 4.0) <= 1e-5
            assert wt.min() >= 0.0 and wt.max() <= 1.0 + 1e-12

    def test_full_budget_all_ones(self):
        wt = gumbel_topk_relax(np.zeros(6), 6, 0.5, seed=3)
        np.testing.assert_allclose(wt, 1.0, atol=1e-9)

    def test_low_temperature_matches_hard_mask(self):
        # well-separated logits dominate the Gumbel noise
        for seed in range(10):
            gen = np.random.Generator(np.random.PCG64(seed + 900))
            w = gen.permutation(10.0 * np.arange(9))
            z = w + gumbel_noise(9, seed)
            mask = hard_topk_gate(z, 4)
            wt = gumbel_topk_relax(w, 4, 0.01, seed)
            assert float(np.abs(wt - mask).max()) <= 1e-2

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigError):
            gumbel_topk_relax(np.zeros(4), 2, 0.0, seed=1)
        for tau in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="positive and finite"):
                gumbel_topk_relax(np.zeros(4), 2, tau, seed=1)

    @pytest.mark.parametrize("tau", [1e-320, 5e-324])
    def test_temperature_that_overflows_the_logits_refused(self, tau):
        """A positive, finite tau at which the perturbed logits / tau
        overflow would make every weight NaN; it is refused instead."""
        with pytest.raises(ConfigError, match=f"temperature {tau!r} overflows float64"):
            gumbel_topk_relax(np.zeros(6), 2, tau, seed=1)

    def test_annealing_shrinks_l1_on_average(self):
        n_b, p, steps, seeds = 8, 3, 6, 120
        totals = np.zeros(steps + 1)
        for seed in range(seeds):
            z = gumbel_noise(n_b, seed)
            mask = hard_topk_gate(z, p)
            for t in range(steps + 1):
                tau = anneal_tau(t, steps, 4.0, 0.05)
                wt = gumbel_topk_relax(np.zeros(n_b), p, tau, seed)
                totals[t] += np.abs(wt - mask).sum()
        avg = totals / seeds
        assert (np.diff(avg) <= 1e-9).all()


class TestGatedForward:
    def test_hard_gate_bitwise(self, tiny_model, rng):
        blk = tiny_model.blocks[0]
        x = make_inputs(TINY, 1, 43)[0]
        repl = lambda inp: np.zeros_like(inp)
        np.testing.assert_array_equal(gated_block_forward(x, blk, repl, 0.0),
                                      vit.mhsa_forward(x, blk))
        np.testing.assert_array_equal(gated_block_forward(x, blk, repl, 1.0), repl(x))

    def test_half_gate_is_mean(self, tiny_model):
        blk = tiny_model.blocks[0]
        x = make_inputs(TINY, 1, 47)[0]
        repl = lambda inp: np.float32(2.0) * inp
        mixed = gated_block_forward(x, blk, repl, 0.5)
        expected = 0.5 * (vit.mhsa_forward(x, blk) + repl(x))
        np.testing.assert_allclose(mixed, expected, atol=1e-6)


class TestAnnealTau:
    def test_endpoints_exact(self):
        assert anneal_tau(0, 10, 4.0, 0.05) == 4.0
        assert anneal_tau(10, 10, 4.0, 0.05) == 0.05

    def test_midpoint_geometric_mean(self):
        mid = anneal_tau(5, 10, 4.0, 0.05)
        assert abs(mid - np.sqrt(4.0 * 0.05)) <= 1e-9

    def test_monotone_non_increasing(self):
        taus = [anneal_tau(t, 20, 4.0, 0.05) for t in range(21)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            anneal_tau(5, 0, 4.0, 0.05)
        with pytest.raises(ConfigError):
            anneal_tau(3, 2, 4.0, 0.05)
        with pytest.raises(ConfigError):
            anneal_tau(1, 2, -4.0, 0.05)

    @pytest.mark.parametrize("tau0, tau_end, message", [
        (1e300, 1e-300, "tau_end / tau0 (1e-300 / 1e+300) underflows float64"),
        (1e-320, 0.05, "tau_end / tau0 (0.05 / 1e-320) overflows float64")])
    def test_ratio_out_of_float64_refused_at_every_step(self, tau0, tau_end, message):
        """The steps between the endpoints anneal by tau_end / tau0: with
        any such step, a ratio that leaves float64 refuses the schedule at
        every step; with none, the endpoints run."""
        for step in range(3):
            with pytest.raises(ConfigError, match=re.escape(message)):
                anneal_tau(step, 2, tau0, tau_end)
        assert [anneal_tau(step, 1, tau0, tau_end) for step in (0, 1)] == [tau0, tau_end]

    @pytest.mark.parametrize("tau0, tau_end", [(np.nan, 0.05), (4.0, np.nan),
                                               (np.inf, 0.05), (4.0, np.inf)])
    def test_non_finite_temperatures_refused(self, tau0, tau_end):
        with pytest.raises(ConfigError, match="positive and finite"):
            anneal_tau(1, 2, tau0, tau_end)


class TestGateTrace:
    def test_trace_structure(self):
        params = GateParams(logits=np.zeros(6), budget=2, tau0=4.0, tau_end=0.05, seed=8)
        trace = gate_trace(params, steps=10)
        assert len(trace) == 11
        assert trace[0]["tau"] == 4.0
        assert trace[-1]["tau"] == 0.05
        assert sum(trace[-1]["hard_mask"]) == 2
        assert trace[-1]["l1_to_hard"] < trace[0]["l1_to_hard"]

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            GateParams(logits=np.zeros(4), budget=5)

    @pytest.mark.parametrize("taus", [{"tau0": np.nan}, {"tau_end": np.nan},
                                      {"tau0": np.inf}, {"tau_end": np.inf},
                                      {"tau0": 0.0}, {"tau_end": -1.0}])
    def test_temperatures_must_be_positive_and_finite(self, taus):
        with pytest.raises(ConfigError, match="positive and finite"):
            GateParams(logits=np.zeros(4), budget=2, **taus)

    @pytest.mark.parametrize("tau0, tau_end, message", [
        (1e300, 1e-300, "tau_end / tau0 (1e-300 / 1e+300) underflows float64"),
        (1e-320, 1e-320, "temperature 1e-320 overflows float64")])
    def test_schedule_leaving_float64_refused(self, tau0, tau_end, message):
        """A ratio that leaves float64, or a temperature that overflows the
        perturbed logits, is refused with its own message, not as a
        temperature of 0 or a trace of NaN weights."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            gate_trace(GateParams(logits=np.zeros(6), budget=2, tau0=tau0, tau_end=tau_end), 5)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_needs_a_step(self, steps):
        with pytest.raises(ConfigError, match="steps must be >= 1"):
            gate_trace(GateParams(logits=np.zeros(4), budget=2), steps)


# Refusals no other test reaches: (callable, arguments, error, message fragment).
REFUSALS = [
    (welford_update, (WelfordState.new((2, 3)), np.zeros((3, 2))), ShapeError,
     "sample shape (3, 2) != state shape (2, 3)"),
    (sigma_block, ([],), ConfigError, "block score needs at least one head score"),
    (score_model, (init_model(TINY, 0), []), ConfigError,
     "scoring needs at least one sample"),
    (check_properties, ([], 3, 0.1), ConfigError, "property check needs at least one sample"),
    (check_properties, ([np.zeros((5, 5))], 3, 0.1), ShapeError,
     "weight matrices must be (m*m, m*m), got (5, 5)"),
    (kernel_energy, (np.zeros((2, 2), np.float32), 4), ShapeError,
     "kernel must be square with odd side, got (2, 2)"),
    (read_off_kernel, (np.zeros((4, 4), np.float32), 2, 3), ConfigError,
     "grid side 2 too small to host a 3x3 kernel"),
    (select, (np.zeros(3), 1, "diagonal"), ConfigError,
     "mode must be one of ('blockwise', 'scattered'), got 'diagonal'"),
    (select, (np.zeros(3), 1, "blockwise", "middle"), ConfigError,
     "order must be one of ('lowest', 'highest'), got 'middle'"),
    (select, (np.zeros((3, 2)), 1, "blockwise"), ShapeError,
     "blockwise selection expects one score per block"),
    (select, (np.zeros(3), 1, "scattered"), ShapeError,
     "scattered selection expects an (n_b, n_h) score array"),
    (hard_topk_gate, (np.zeros(3), 0), ConfigError, "p must be in (0, 3], got 0"),
    (gumbel_topk_relax, (np.zeros(3), 4, 1.0, 0), ConfigError, "p must be in (0, 3], got 4"),
]


@pytest.mark.parametrize("fn, args, error, fragment", REFUSALS)
def test_refusal(fn, args, error, fragment):
    with pytest.raises(error) as exc:
        fn(*args)
    assert fragment in str(exc.value)
