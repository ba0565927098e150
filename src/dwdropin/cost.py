"""Analytic FLOP/parameter/activation accounting plus a timing harness.

Counting conventions (documented because they decide every number):

  * 2 FLOPs per multiply-accumulate;
  * softmax, normalization, bias adds, and reshapes are not counted;
  * n = m*m tokens; counts are per block for the attention path, with the
    feed-forward path accounted separately;
  * parameters are the stored weights: derived weights (folded or
    ensembled projections) are never counted, their sources are;
  * counters are Python integers, so they cannot overflow.

Per-block attention-path FLOPs:

  mhsa           8 n d^2 + 4 n^2 d      (QKV+output projections; QK^T, EV)
  convfull       2 n k^2 d^2 + 2 n d^2  (folded conv per head; output proj)
  dw             4 n d^2 + 2 n k^2 d    (value+output proj; depthwise conv)
  ens-convfull   2 n k^2 d d_h + 2 n d_h d
  ens-dw         2 n d d_h + 2 n k^2 d_h + 2 n d_h d

Activation estimates sum the tensors one attention sublayer call holds at
its peak. They are coarse (numpy's own buffers are not counted), and tests
keep them within a factor of 2 of the traced peak of a real call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dropin
from .select import SelectionPlan
from .tensor import ConfigError
from .vit import ModelConfig, group_size

VARIANTS = ("mhsa",) + dropin.VARIANTS


def per_head_flops(variant: str, cfg: ModelConfig) -> int:
    """Attention-path FLOPs attributable to a single head."""
    n, d, d_h, k = cfg.n, cfg.d, cfg.d_h, cfg.k
    if variant == "mhsa":
        return 8 * n * d * d_h + 4 * n * n * d_h
    if variant == "convfull":
        return 2 * n * k * k * d * d_h + 2 * n * d_h * d
    if variant == "dw":
        return 2 * n * d * d_h + 2 * n * k * k * d_h + 2 * n * d_h * d
    raise ConfigError(f"per-head cost undefined for variant {variant!r}")


def per_head_params(variant: str, cfg: ModelConfig) -> int:
    """Stored parameters attributable to a single head.

    An attention head owns its Q/K/V column slices and output row group;
    a replaced head drops Q/K and adds its kernel.
    """
    if variant == "mhsa":
        return 4 * cfg.d * cfg.d_h
    if variant in ("convfull", "dw"):
        return 2 * cfg.d * cfg.d_h + math.prod(dropin.kernel_shape(variant, cfg))
    raise ConfigError(f"per-head cost undefined for variant {variant!r}")


def flops_params(variant: str, cfg: ModelConfig) -> tuple:
    """Closed-form (flops, params) of one block's attention path: n_h times
    the per-head cost, except for the ensembled variants, which run one
    effective head of their base formulation for the whole block and store
    every head's value and output projections, one kernel and n_h logits."""
    if variant in dropin.ENSEMBLED:
        return (per_head_flops("dw" if variant in dropin.DEPTHWISE else "convfull", cfg),
                2 * cfg.d * cfg.d + math.prod(dropin.kernel_shape(variant, cfg)) + cfg.n_h)
    if variant in VARIANTS:
        return cfg.n_h * per_head_flops(variant, cfg), cfg.n_h * per_head_params(variant, cfg)
    raise ConfigError(f"unknown attention variant {variant!r}")


def ffn_flops_params(cfg: ModelConfig) -> tuple:
    """One block's feed-forward path: two linears d <-> ffn_mult*d."""
    hidden = cfg.ffn_mult * cfg.d
    return 4 * cfg.n * cfg.d * hidden, 2 * cfg.d * hidden


def activation_bytes(variant: str, cfg: ModelConfig) -> int:
    """Per-block activation footprint (float32 bytes) of one attention
    sublayer call, input included: what its implementation holds at once."""
    n, d, d_h, k = cfg.n, cfg.d, cfg.d_h, cfg.k
    padded = (cfg.m + k - 1) ** 2  # tokens of a grid zero-padded for a k x k kernel
    g = min(cfg.n_h, group_size(n))  # heads whose weights exact attention holds at once
    counts = {
        "mhsa": 6 * n * d + g * n * n,                # x, q, k, v, heads, out; one head group's weights
        "convfull": 4 * n * d + k * k * d * d,        # x, padded x, conv out, out; the block's one fold
        "dw": 4 * n * d + padded * d,                 # x, values, conv out, shifted product; padded values
        "ens-convfull": 2 * n * d + padded * d + 2 * n * d_h + k * k * d * d_h,
        "ens-dw": 2 * n * d + 3 * n * d_h + padded * d_h,
    }
    if variant not in counts:
        raise ConfigError(f"unknown attention variant {variant!r}")
    return 4 * counts[variant]


@dataclass
class CostReport:
    config: ModelConfig
    variant: str
    rows: list                 # per block: dict with attention/ffn counts
    totals: dict               # model totals for this plan
    baseline: dict             # model totals with attention everywhere
    deltas: dict               # ratios and percentage changes vs baseline

    def to_json(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "variant": self.variant,
            "rows": self.rows,
            "totals": self.totals,
            "baseline": self.baseline,
            "deltas": self.deltas,
        }

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


def model_cost_report(cfg: ModelConfig, plan=None, variant: str = "dw") -> CostReport:
    """Whole-model accounting for a replacement plan.

    The plan must pass `dropin.planned_heads` for the variant. A block
    whose heads are all replaced is priced at the variant's block cost, a
    partly replaced one (unensembled variants only) per head: replaced heads
    at the variant's per-head cost, retained ones at attention's. An empty
    or missing plan reproduces the baseline.
    """
    if plan is None:
        plan = SelectionPlan(mode="blockwise", order="lowest", budget=0, targets=())
    by_block = dropin.planned_heads(plan, cfg, variant)
    ffn_f, ffn_p = ffn_flops_params(cfg)
    base_attn_f, base_attn_p = flops_params("mhsa", cfg)
    rows = []
    for b in range(cfg.n_b):
        replaced = len(by_block.get(b, ()))
        if replaced in (0, cfg.n_h):
            att = variant if replaced else "mhsa"
            att_f, att_p = flops_params(att, cfg)
        else:
            att = f"mixed({variant} x{replaced})"
            kept = cfg.n_h - replaced
            att_f = (replaced * per_head_flops(variant, cfg)
                     + kept * per_head_flops("mhsa", cfg))
            att_p = (replaced * per_head_params(variant, cfg)
                     + kept * per_head_params("mhsa", cfg))
        rows.append({
            "block": b,
            "attention": att,
            "attn_flops": att_f,
            "attn_params": att_p,
            "ffn_flops": ffn_f,
            "ffn_params": ffn_p,
            "activation_bytes": activation_bytes(att if att in VARIANTS else "mhsa", cfg),
        })
    pos_params = cfg.n * cfg.d
    totals = {
        "flops": sum(r["attn_flops"] + r["ffn_flops"] for r in rows),
        "params": sum(r["attn_params"] + r["ffn_params"] for r in rows) + pos_params,
        "attn_flops": sum(r["attn_flops"] for r in rows),
        "activation_bytes": sum(r["activation_bytes"] for r in rows),
    }
    baseline = {
        "flops": cfg.n_b * (base_attn_f + ffn_f),
        "params": cfg.n_b * (base_attn_p + ffn_p) + pos_params,
        "attn_flops": cfg.n_b * base_attn_f,
        "activation_bytes": cfg.n_b * activation_bytes("mhsa", cfg),
    }
    if by_block:
        repl_base = sum(rows[b]["attn_flops"] for b in by_block)
        attn_red = 100.0 * (1.0 - repl_base / (len(by_block) * base_attn_f))
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
