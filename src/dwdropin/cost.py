"""Analytic FLOP/parameter/activation accounting plus a timing harness.

Counting conventions (documented because they decide every number):

  * 2 FLOPs per multiply-accumulate;
  * softmax, normalization, bias adds, and reshapes are not counted;
  * n = m*m tokens; counts are per block for the attention path, with the
    feed-forward path accounted separately;
  * parameters are the stored weights: derived weights (folded or
    ensembled projections) are never counted, their sources are;
  * counters are Python integers, so they cannot overflow.

Per-block attention path, as it runs (`dropin.BlockSublayer`): with r of
n_h heads replaced, the drop-in has c channels (d_h if ensembled, else
r d_h) and the kept heads c_k = (n_h - r) d_h. FLOPs are the value GEMM
and depthwise pass 2 n d c + 2 n k^2 c (or the kernel folded into a full
convolution, 2 n k^2 d c), the kept heads' QKV projections, QK^T and EV
6 n d c_k + 4 n^2 c_k, and one output projection 2 n (c + c_k) d. Params
are every head's value/output projections 2 d^2, the kept heads' query/key
ones 2 d c_k, a kernel per replaced head (one per ensembled block, plus
its n_h logits). A partly replaced block is this shape at its r, r = 0 is
exact attention (8 n d^2 + 4 n^2 d), and whole blocks at the vitl shape
cost 6.19 (mhsa) / 12.08 (convfull) / 2.43 (dw) / 0.75 (ens-convfull) /
0.15 (ens-dw) GFLOPs.

Activation estimates sum the tensors one attention sublayer call holds at
its peak, from the same c and c_k, by formulation: a depthwise drop-in
holds its values, conv output, padded grid, row taps and one band of
products with its ufunc buffers; a full-convolution one holds its fold
plus the larger of the fold's ufunc buffers and the convolution's padded
input and two (n, c) arrays, which never coexist. Tests keep them within
a factor of 2 of the traced peak of a real call.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import dropin
from .select import SelectionPlan
from .tensor import ConfigError, band_rows
from .vit import ModelConfig, group_size

VARIANTS = ("mhsa",) + dropin.VARIANTS


def _channels(variant: str, cfg: ModelConfig, replaced: int | None) -> tuple:
    """(c, c_k, ensembled) of a block with `replaced` heads (default all; none
    for "mhsa") run as `variant`; an ensembled variant replaces 0 or n_h."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown attention variant {variant!r}")
    d_h, n_h = cfg.d_h, cfg.n_h
    replaced = 0 if variant == "mhsa" else n_h if replaced is None else replaced
    ensembled = variant in dropin.ENSEMBLED and replaced > 0
    if not 0 <= replaced <= n_h or (ensembled and replaced != n_h):
        raise ConfigError(f"{variant} cannot replace {replaced} of {n_h} heads")
    return (d_h if ensembled else replaced * d_h), (n_h - replaced) * d_h, ensembled


def flops_params(variant: str, cfg: ModelConfig, replaced: int | None = None) -> tuple:
    """Closed-form (flops, params) of one block's attention path with
    `replaced` heads run as `variant` (`_channels`), as the module prices it."""
    n, d, d_h, k, n_h = cfg.n, cfg.d, cfg.d_h, cfg.k, cfg.n_h
    c, c_k, ensembled = _channels(variant, cfg, replaced)
    # the value GEMM and depthwise pass, or the kernel folded into a full convolution
    conv = 2 * n * c * (d + k * k) if variant in dropin.DEPTHWISE else 2 * n * k * k * d * c
    flops = conv + 6 * n * d * c_k + 4 * n * n * c_k + 2 * n * (c + c_k) * d
    kernels = c // d_h * math.prod(dropin.kernel_shape(variant, cfg))
    return flops, 2 * d * d + 2 * d * c_k + kernels + (n_h if ensembled else 0)


def ffn_flops_params(cfg: ModelConfig) -> tuple:
    """One block's feed-forward path: two linears d <-> ffn_mult*d."""
    hidden = cfg.ffn_mult * cfg.d
    return 4 * cfg.n * cfg.d * hidden, 2 * cfg.d * hidden


def activation_bytes(variant: str, cfg: ModelConfig, replaced: int | None = None) -> int:
    """Per-block activation footprint (float32 bytes) of one attention
    sublayer call with `replaced` of its heads run as `variant`
    (`_channels`), input included: what its implementation holds at once."""
    n, d, d_h, k, m = cfg.n, cfg.d, cfg.d_h, cfg.k, cfg.m
    c, c_k, _ = _channels(variant, cfg, replaced)
    padded = (m + k - 1) ** 2  # tokens of a grid zero-padded for a k x k kernel
    if not c:
        drop_in = 0
    elif variant in dropin.DEPTHWISE:
        # the values and the conv output; dwconv2d's padded grid, row taps (held by the
        # sublayer from surgery on) and one band of products, plus numpy's ufunc buffers
        # for the strided windows and the broadcast taps, np.getbufsize() values at most
        band = band_rows(k, m, c) * k * k * m * c
        drop_in = 2 * n * c + padded * c + k * k * m * c + band + 2 * min(np.getbufsize(), band)
    else:
        # fold_full_kernel's (k, k, d, c) kernel, then the larger of two phases that
        # never coexist: the fold multiply's ufunc buffers, freed when it returns,
        # and conv2d's padded input and its two (n, c) arrays
        fold = k * k * d * c
        drop_in = fold + max(2 * min(np.getbufsize(), fold), padded * d + 2 * n * c)
    # the kept heads' q, k, v and outputs; one head group's weights
    exact = 4 * n * c_k + min(c_k // d_h, group_size(n)) * n * n
    # x and out, and the (n, d) buffer both kinds of head fill in a partly replaced block
    held = (3 if 0 < c_k < d else 2) * n * d
    return 4 * (held + drop_in + exact)


@dataclass
class CostReport:
    config: ModelConfig
    variant: str
    rows: list                 # per block: dict with attention/ffn counts
    totals: dict               # model totals for this plan
    baseline: dict             # model totals with attention everywhere
    deltas: dict               # ratios and percentage changes vs baseline

    def to_json(self) -> dict:
        return asdict(self)

    def to_table(self) -> str:
        lines = [
            f"{'Block':>5}  {'Attention':<14} {'FLOPs (G)':>10} {'Params (M)':>11} {'Act (MB)':>9}"
        ]
        for r in self.rows:
            lines.append(
                f"{r['block']:>5}  {r['attention']:<14} {r['attn_flops'] / 1e9:>10.3f} "
                f"{r['attn_params'] / 1e6:>11.3f} {r['activation_bytes'] / 1e6:>9.2f}"
            )
        t, b = self.totals, self.deltas
        lines.append(
            f"{'total':>5}  {'':<14} {t['flops'] / 1e9:>10.3f} {t['params'] / 1e6:>11.3f}"
        )
        lines.append(
            f"model FLOPs vs baseline: x{b['flops_ratio']:.4f} "
            f"({b['flops_reduction_pct']:+.2f}% reduction); "
            f"attention-path reduction on replaced blocks: {b['attn_reduction_pct_replaced']:.2f}%"
        )
        return "\n".join(lines)


def variant_table(cfg: ModelConfig) -> list:
    """Single-block comparison of every attention choice (the headline table)."""
    rows = []
    for variant in VARIANTS:
        f, p = flops_params(variant, cfg)
        rows.append({
            "attention": variant,
            "flops": f,
            "gflops": round(f / 1e9, 2),
            "params": p,
            "mparams": round(p / 1e6, 2),
            "activation_bytes": activation_bytes(variant, cfg),
        })
    return rows


def variant_table_text(cfg: ModelConfig) -> str:
    lines = [f"{'Attention':<14} {'FLOPs (G)':>10} {'Params (M)':>11} {'Act (MB)':>9}"]
    for r in variant_table(cfg):
        lines.append(
            f"{r['attention']:<14} {r['flops'] / 1e9:>10.2f} {r['params'] / 1e6:>11.2f} "
            f"{r['activation_bytes'] / 1e6:>9.2f}"
        )
    return "\n".join(lines)


def _priced(cfg: ModelConfig, by_block: dict, variant: str) -> tuple:
    """(rows, totals): per block its attention choice and the counts of
    `flops_params` with its planned heads replaced, and their model sums,
    the positional table's params included."""
    ffn_f, ffn_p = ffn_flops_params(cfg)
    rows = []
    for b in range(cfg.n_b):
        replaced = len(by_block.get(b, ()))
        att = ("mhsa" if not replaced else variant if replaced == cfg.n_h
               else f"mixed({variant} x{replaced})")
        att_f, att_p = flops_params(variant, cfg, replaced)
        rows.append({
            "block": b,
            "attention": att,
            "attn_flops": att_f,
            "attn_params": att_p,
            "ffn_flops": ffn_f,
            "ffn_params": ffn_p,
            "activation_bytes": activation_bytes(variant, cfg, replaced),
        })
    return rows, {
        "flops": sum(r["attn_flops"] + r["ffn_flops"] for r in rows),
        "params": sum(r["attn_params"] + r["ffn_params"] for r in rows) + cfg.n * cfg.d,
        "attn_flops": sum(r["attn_flops"] for r in rows),
        "activation_bytes": sum(r["activation_bytes"] for r in rows),
    }


def model_cost_report(cfg: ModelConfig, plan=None, variant: str = "dw") -> CostReport:
    """Whole-model accounting for a replacement plan.

    The plan must pass `dropin.planned_heads` for the variant. The
    baseline is the same pricing (`_priced`) with no head replaced, so an
    empty or missing plan reproduces it.
    """
    if plan is None:
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=0, targets=())
    by_block = dropin.planned_heads(plan, cfg, variant)
    rows, totals = _priced(cfg, by_block, variant)
    base_rows, baseline = _priced(cfg, {}, variant)
    if by_block:
        attn_red = 100.0 * (1.0 - sum(rows[b]["attn_flops"] for b in by_block)
                            / sum(base_rows[b]["attn_flops"] for b in by_block))
    else:
        attn_red = 0.0
    deltas = {
        "flops_ratio": totals["flops"] / baseline["flops"],
        "flops_reduction_pct": 100.0 * (1.0 - totals["flops"] / baseline["flops"]),
        "attn_flops_ratio": totals["attn_flops"] / baseline["attn_flops"],
        "attn_reduction_pct_replaced": attn_red,
    }
    return CostReport(config=cfg, variant=variant if by_block else "mhsa",
                      rows=rows, totals=totals, baseline=baseline, deltas=deltas)


def budget_sweep(cfg: ModelConfig, variant: str = "dw") -> list:
    """Blockwise FLOP totals at every budget 0..n_b (selection by index;
    blockwise replacement cost is independent of which blocks are chosen)."""
    out = []
    for budget in range(cfg.n_b + 1):
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=budget,
                             targets=tuple(range(budget)))
        rep = model_cost_report(cfg, plan, variant)
        out.append({
            "budget": budget,
            "flops": rep.totals["flops"],
            "flops_ratio": rep.deltas["flops_ratio"],
            "flops_reduction_pct": rep.deltas["flops_reduction_pct"],
        })
    return out


def bench(fn, arg, warmup: int = 5, reps: int = 30) -> dict:
    """Time fn(arg) with a monotonic clock; reports order statistics.

    Warmup iterations are discarded; reps run sequentially on the calling
    thread. Returns seconds as {median, p10, p90, reps, warmup}.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn(arg)
    times = np.empty(reps, dtype=np.float64)
    for i in range(reps):
        t0 = time.perf_counter_ns()
        fn(arg)
        times[i] = (time.perf_counter_ns() - t0) / 1e9
    return {
        "median": float(np.percentile(times, 50)),
        "p10": float(np.percentile(times, 10)),
        "p90": float(np.percentile(times, 90)),
        "reps": reps,
        "warmup": warmup,
    }
