"""Acceptance suite: one check per numbered criterion, one line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion alongside the pytest verdicts.
"""

import functools
import time

import numpy as np

from dwdropin import vit
from dwdropin.cost import bench, budget_sweep, flops_params
from dwdropin.dropin import (
    BlockDropin,
    attn_conv_full,
    attn_dw,
    fit_depthwise_kernel,
    fit_loss_and_grad,
    fold_full_kernel,
    hybrid_forward,
    init_kernel,
    replace_heads,
)
from dwdropin.select import (
    SelectionPlan,
    WelfordState,
    gated_block_forward,
    gumbel_noise,
    gumbel_topk_relax,
    hard_topk_gate,
    kernel_energy,
    read_off_kernel,
    score_model,
    welford_finalize,
    welford_update,
)
from dwdropin.tensor import dwconv2d, seed_stream, seeded_fill
from dwdropin.vit import DESK, VITL, ModelConfig, grid, init_model

from conftest import block_inputs, make_inputs


def criterion(line):
    """Print one pass/fail line for the criterion this test implements."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE FAIL  {line}")
                raise
            print(f"ACCEPTANCE PASS  {line}")
        return wrapper
    return deco


@functools.lru_cache(maxsize=None)
def desk_model():
    return init_model(DESK, seed=1001)


# Reference table at (d=1024, n_h=16, d_h=64, n=576, k=3), values as printed.
FLOPS_G = {"mhsa": "6.19", "convfull": "12.08", "dw": "2.43",
           "ens-convfull": "0.75", "ens-dw": "0.15"}
PARAMS_M = {"mhsa": "4.2", "convfull": "2.1", "dw": "2.11",
            "ens-convfull": "2.1", "ens-dw": "2.1"}


def close_to_printed(value: float, printed: str, rel_tol: float = 0.01) -> bool:
    """Within rel_tol of the printed number, or indistinguishable from it
    at its own print precision.

    The reference table prints 2-3 significant figures; for its smallest
    entry (0.15 G) the print granularity (half an ulp = 0.005, i.e. 3.3%)
    exceeds the 1% band, so agreement tighter than the rounding cannot be
    asserted. A value passes if it is within 1% of the printed number or
    rounds to exactly that number at the printed number of decimals.
    """
    ref = float(printed)
    if abs(value - ref) / ref <= rel_tol:
        return True
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return abs(value - ref) <= 0.5 * 10 ** (-decimals) + 1e-12


@criterion("1. single-block FLOPs at the ViT-Large shape reproduce the reference table")
def test_criterion_01_table_flops():
    for variant, printed in FLOPS_G.items():
        f, _ = flops_params(variant, VITL)
        assert close_to_printed(f / 1e9, printed), (variant, f / 1e9, printed)


@criterion("2. single-block params at the ViT-Large shape reproduce the reference table")
def test_criterion_02_table_params():
    for variant, printed in PARAMS_M.items():
        _, p = flops_params(variant, VITL)
        assert close_to_printed(p / 1e6, printed), (variant, p / 1e6, printed)
        # all five are in fact within the plain 1% band
        assert abs(p / 1e6 - float(printed)) / float(printed) <= 0.01


@criterion("3. channel-shared depthwise == folded full convolution (<= 1e-5, 20 cases)")
def test_criterion_03_channel_shared_equivalence():
    start = time.perf_counter()
    seeds = seed_stream(3003)
    worst = 0.0
    for _ in range(20):
        x = seeded_fill((DESK.m, DESK.m, DESK.d), next(seeds), "gaussian")
        w_v = seeded_fill((DESK.d, DESK.d_h), next(seeds), "gaussian", 0.0, DESK.d ** -0.5)
        kern = seeded_fill((DESK.k, DESK.k), next(seeds), "gaussian", 0.0, 1 / DESK.k)
        shared = np.repeat(kern[:, :, None], DESK.d_h, axis=2)
        lhs = attn_dw(x, w_v, shared)
        rhs = attn_conv_full(x, fold_full_kernel(kern, w_v))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-5, worst
    assert time.perf_counter() - start < 5.0


@criterion("4. attention with an ideal local/invariant weight matrix equals the "
           "depthwise replacement (<= 1e-5, 20 inputs)")
def test_criterion_04_kernel_like_head_exactness():
    m, k, d_h = DESK.m, DESK.k, DESK.d_h
    kern = seeded_fill((k, k), 44, "uniform") + np.float32(0.05)
    kern = (kern / kern.sum()).astype(np.float32)
    e = kernel_energy(kern, m)
    read = read_off_kernel(e, m, k)
    shared = np.repeat(read[:, :, None], d_h, axis=2)
    seeds = seed_stream(4004)
    worst = 0.0
    for _ in range(20):
        v = seeded_fill((m, m, d_h), next(seeds), "gaussian")
        exact = vit.explicit_attention(e, v)
        approx = dwconv2d(v, shared)
        worst = max(worst, float(np.abs(exact - approx).max()))
    assert worst <= 1e-5, worst


@criterion("5. grid-form attention evaluator matches the matmul path (<= 1e-6, 50 cases)")
def test_criterion_05_grid_attention_oracle():
    seeds = seed_stream(5005)
    cases = 0
    worst = 0.0
    for m in (4, 6, 8):
        cfg = ModelConfig(n_b=1, n_h=4, d=64, d_h=16, m=m, k=3)
        for trial in range(17):
            model = init_model(cfg, next(seeds))
            x = seeded_fill((cfg.n, cfg.d), next(seeds), "gaussian")
            h = trial % cfg.n_h
            q, kk, v = vit.qkv_project(x, model.blocks[0], h)
            e = vit.head_energy(q, kk)
            ref = vit.explicit_attention(e, grid(v, m))
            got = grid(vit.head_attention(x, model.blocks[0], h), m)
            worst = max(worst, float(np.abs(ref - got).max()))
            cases += 1
    assert cases >= 50
    assert worst <= 1e-6, worst


@criterion("6. one-pass head scores match a two-pass oracle (<= 1e-10 relative), "
           "and an input-invariant block scores zero and ranks lowest")
def test_criterion_06_welford():
    model = init_model(DESK, 606)
    model.blocks[2].w_q[:] = 0
    probe_heads = [(0, 0), (2, 1), (4, 3)]
    for n_s in (2, 17, 256):
        samples = make_inputs(DESK, n_s, 6006 + n_s)
        result = score_model(model, samples)
        for b, h in probe_heads:
            energies = []
            for x in samples:
                blk = model.blocks[b]
                q, kq, _ = vit.qkv_project(block_inputs(model, x)[b], blk, h)
                energies.append(np.asarray(vit.head_energy(q, kq), dtype=np.float64))
            stack = np.stack(energies)
            mean = stack.sum(axis=0) / n_s
            sigma = np.sqrt(((stack - mean) ** 2).sum(axis=0) / n_s)
            oracle = float(sigma.sum())
            online = result.sigma_h[b, h]
            if oracle == 0.0:
                assert online <= 1e-9
            else:
                assert abs(online - oracle) / oracle <= 1e-10, (b, h, n_s)
        # the zeroed-query block is input-invariant: zero score, lowest rank
        assert result.sigma_h[2].max() <= 1e-9
        if n_s > 1:
            others = np.delete(result.sigma_b, 2)
            assert (others > result.sigma_b[2]).all()
            assert result.sigma_b.argmin() == 2

    # high-mean stress stream: mean 1e6, unit variance
    gen = np.random.Generator(np.random.PCG64(66))
    stream = [1e6 + gen.standard_normal((4, 4)) for _ in range(10_000)]
    state = WelfordState.new((4, 4))
    for s in stream:
        welford_update(state, s)
    online = welford_finalize(state)
    stack = np.stack(stream)
    mean = stack.sum(axis=0) / len(stream)
    oracle = np.sqrt(((stack - mean) ** 2).sum(axis=0) / len(stream))
    assert float(np.abs(online - oracle).max() / oracle.max()) <= 1e-10


@criterion("7. kernel fitting: planted recovery <= 1e-4, analytic gradient matches "
           "finite differences <= 1e-3, fitted objective never above zero-kernel")
def test_criterion_07_fitting():
    k, c = 3, 8
    seeds = seed_stream(7007)
    planted = seeded_fill((k, k, c), next(seeds), "gaussian", 0.0, 0.5)
    v_list = [seeded_fill((8, 8, c), next(seeds), "gaussian") for _ in range(3)]
    t_list = [dwconv2d(v, planted) for v in v_list]
    fitted, rep = fit_depthwise_kernel(v_list, t_list, k)
    assert float(np.abs(fitted - planted).max()) <= 1e-4
    assert rep.objective <= rep.zero_objective

    for trial in range(10):
        kern = seeded_fill((k, k, 2), next(seeds), "gaussian", 0.0, 0.3)
        v = [seeded_fill((5, 5, 2), next(seeds), "gaussian")]
        t = [seeded_fill((5, 5, 2), next(seeds), "gaussian")]
        _, grad = fit_loss_and_grad(kern, v, t)
        fd = np.zeros_like(grad)
        step = 1e-3
        for idx in np.ndindex(kern.shape):
            up = kern.astype(np.float64).copy()
            dn = up.copy()
            up[idx] += step
            dn[idx] -= step
            fd[idx] = (fit_loss_and_grad(up, v, t)[0]
                       - fit_loss_and_grad(dn, v, t)[0]) / (2 * step)
        rel = float(np.abs(grad - fd).max()) / max(float(np.abs(fd).max()), 1e-12)
        assert rel <= 1e-3, (trial, rel)

    for trial in range(10):
        v = [seeded_fill((6, 6, 3), next(seeds), "gaussian") for _ in range(2)]
        t = [seeded_fill((6, 6, 3), next(seeds), "gaussian") for _ in range(2)]
        _, rep = fit_depthwise_kernel(v, t, k)
        assert rep.objective <= rep.zero_objective * (1 + 1e-12)


@criterion("8. gating: exact-p hard mask with low-index ties, relaxed weights sum "
           "to p, tau=0.01 matches the hard mask, hard gates are bitwise")
def test_criterion_08_gating():
    mask = hard_topk_gate([0.1, 0.9, 0.5], 1)
    np.testing.assert_array_equal(mask, [0, 1, 0])
    np.testing.assert_array_equal(hard_topk_gate([1.0, 1.0, 0.5], 1), [1, 0, 0])
    for p in (1, 3, 6):
        assert hard_topk_gate(gumbel_noise(6, p), p).sum() == p

    for seed in range(10):
        for tau in (2.0, 0.5, 0.05):
            wt = gumbel_topk_relax(np.zeros(9), 4, tau, seed)
            assert abs(wt.sum() - 4.0) <= 1e-5
            assert wt.min() >= 0.0 and wt.max() <= 1.0 + 1e-12

    for seed in range(10):
        gen = np.random.Generator(np.random.PCG64(8000 + seed))
        w = gen.permutation(10.0 * np.arange(9))
        z = w + gumbel_noise(9, seed)
        hard = hard_topk_gate(z, 4)
        wt = gumbel_topk_relax(w, 4, 0.01, seed)
        assert float(np.abs(wt - hard).max()) <= 1e-2

    model = desk_model()
    blk = model.blocks[0]
    x = make_inputs(DESK, 1, 808)[0]
    repl = lambda inp: np.float32(0.5) * inp
    np.testing.assert_array_equal(gated_block_forward(x, blk, repl, 0.0),
                                  vit.mhsa_forward(x, blk))
    np.testing.assert_array_equal(gated_block_forward(x, blk, repl, 1.0), repl(x))


@criterion("9. empty-plan surgery is bitwise a no-op; scattered and blockwise plans "
           "over the same heads agree (<= 1e-6)")
def test_criterion_09_surgery():
    model = desk_model()
    empty = replace_heads(model, SelectionPlan("blockwise", "lowest", 0, ()), {})
    for x in make_inputs(DESK, 3, 909):
        np.testing.assert_array_equal(hybrid_forward(empty, x),
                                      vit.model_forward(x, model))

    kernels = {h: init_kernel("dw", DESK, 990 + h) for h in range(DESK.n_h)}
    bw = replace_heads(model, SelectionPlan("blockwise", "lowest", 1, (2,)),
                       {2: BlockDropin(variant="dw", head_kernels=dict(kernels))})
    sc = replace_heads(
        model,
        SelectionPlan("scattered", "lowest", DESK.n_h,
                      targets=tuple((2, h) for h in range(DESK.n_h))),
        {2: BlockDropin(variant="dw", head_kernels=dict(kernels))})
    for x in make_inputs(DESK, 3, 919):
        a, b = hybrid_forward(bw, x), hybrid_forward(sc, x)
        assert float(np.abs(a - b).max()) <= 1e-6


@criterion("10. wall-clock ordering ens-dw < dw < mhsa at the ViT-Large single block "
           "(100 reps) and the blockwise FLOP sweep is monotone non-increasing")
def test_criterion_10_bench_ordering_and_sweep():
    from dwdropin.cli import single_block_bench_fns

    fns = single_block_bench_fns(VITL, seed=10)
    x = seeded_fill((VITL.n, VITL.d), 1010, "gaussian")
    medians = {v: bench(fns[v], x, warmup=3, reps=100)["median"]
               for v in ("ens-dw", "dw", "mhsa")}
    assert medians["ens-dw"] < medians["dw"] < medians["mhsa"], medians

    sweep = budget_sweep(VITL, "dw")
    flops = [row["flops"] for row in sweep]
    assert all(a >= b for a, b in zip(flops, flops[1:]))
    assert flops[0] > flops[-1]
