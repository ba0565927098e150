"""Convolutional drop-in replacements for attention heads.

Four formulations:

  convfull      per head, a shared k x k spatial kernel folded into the
                head's value projection and applied as a full convolution
  dw            per head, the value projection followed by a depthwise
                convolution with one k x k filter per channel
  ens-convfull  softmax(gamma)-weighted merge of all heads' value/output
                projections into a single effective head, full convolution
  ens-dw        the same ensembling with the depthwise formulation

Every replaced block is one shape (`BlockSublayer`): a value projection,
one per-channel (k, k, c) kernel and an output projection; `DEPTHWISE`
decides where the kernel meets the values. Unensembled variants replace
any subset of heads; ensembled variants collapse whole blocks and take
only blockwise plans (`planned_heads`). A block's kernels are fitted from
one set of per-channel least-squares normal equations against the
attention outputs the kernels stand in for: the capture hands each block
its inputs and outputs a chunk of samples at a time, and the fit folds
them in one sample at a time, in sample order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import vit
from .archive import ArchiveError, model_from_archive
from .select import SelectionPlan
from .tensor import (
    F32,
    ConfigError,
    ShapeError,
    as_f32,
    conv2d,
    dwconv2d,
    matmul,
    row_taps,
    seed_stream,
    seeded_fill,
    shifted_windows,
    softmax64,
)
from .vit import Model, flat, grid, head_cols, head_rows

VARIANTS = ("convfull", "dw", "ens-convfull", "ens-dw")
ENSEMBLED = ("ens-convfull", "ens-dw")
# The formulations whose kernel convolves the values after the value GEMM;
# the others fold it into the value projection (`fold_full_kernel`).
DEPTHWISE = ("dw", "ens-dw")


def fold_full_kernel(kern: np.ndarray, w_val: np.ndarray) -> np.ndarray:
    """Fold a spatial kernel into a value projection w_val (d, c): a (k, k)
    kernel shared by every channel, or a (k, k, c) kernel, one per channel.

    Slice [r, s] of the result is w_val with column j scaled by
    kern[r, s] (or kern[r, s, j]), giving the (k, k, d, c) kernel of the
    full-convolution formulation.
    """
    if (kern.ndim not in (2, 3) or kern.shape[0] != kern.shape[1] or w_val.ndim != 2
            or kern.shape[2:] not in ((), w_val.shape[1:])):
        raise ShapeError(f"kernel {kern.shape} must be (k, k) or (k, k, c) for values (d, c), "
                         f"got values {w_val.shape}")
    k = kern.shape[0]
    return as_f32(kern).reshape(k, k, 1, -1) * np.asarray(w_val, dtype=F32)


def attn_conv_full(x: np.ndarray, w_vh: np.ndarray) -> np.ndarray:
    """Full-convolution head replacement: conv2d of the (m, m, d) input."""
    return conv2d(x, w_vh)


def attn_dw(x: np.ndarray, w_v_slice: np.ndarray, kern: np.ndarray,
            taps: np.ndarray | None = None) -> np.ndarray:
    """Depthwise head replacement: value projection, then per-channel conv
    (`dwconv2d`, with the kernel's row taps if the caller holds them).

    x is the (m, m, d) block input; returns (m, m, d_h).
    """
    if x.ndim != 3:
        raise ShapeError(f"input must be (m, m, d), got {x.shape}")
    return dwconv2d(grid(matmul(flat(x), w_v_slice), x.shape[0]), kern, taps)


def ensemble_weights(gamma: np.ndarray, w_v: np.ndarray, w_o: np.ndarray,
                     n_h: int, d_h: int):
    """Merge all heads into one via softmax(gamma) combination weights.

    Returns (w_ve, w_oe): the (d, d_h) ensembled value projection and the
    (d_h, d) ensembled output projection.
    """
    gamma = np.asarray(gamma, dtype=np.float64).ravel()
    if gamma.shape != (n_h,):
        raise ShapeError(f"gamma must have {n_h} entries, got {gamma.shape}")
    sig = softmax64(gamma).astype(F32)
    w_ve = np.zeros((w_v.shape[0], d_h), dtype=F32)
    w_oe = np.zeros((d_h, w_o.shape[1]), dtype=F32)
    for h in range(n_h):
        w_ve += sig[h] * head_cols(w_v, h, d_h)
        w_oe += sig[h] * head_rows(w_o, h, d_h)
    return w_ve, w_oe


def mhsa_dw_ensembled(x: np.ndarray, w_ve: np.ndarray, kern_e: np.ndarray,
                      w_oe: np.ndarray, m: int) -> np.ndarray:
    """Reference form of an ens-dw block's sublayer, (n, d) -> (n, d)."""
    v_e = grid(matmul(x, w_ve), m)
    return matmul(flat(dwconv2d(v_e, kern_e)), w_oe)


def mhsa_convfull_ensembled(x: np.ndarray, w_ve: np.ndarray, k_e: np.ndarray,
                            w_oe: np.ndarray, m: int) -> np.ndarray:
    """Reference form of an ens-convfull block's sublayer, (n, d) -> (n, d)."""
    folded = fold_full_kernel(k_e, w_ve)
    return matmul(flat(conv2d(grid(x, m), folded)), w_oe)


@dataclass
class BlockDropin:
    """Replacement parameters for one block.

    Unensembled: `head_kernels` maps head -> kernel ((k, k) for convfull,
    (k, k, d_h) for dw). Ensembled: `gamma` logits plus one block kernel.
    """

    variant: str
    head_kernels: dict = field(default_factory=dict)
    gamma: np.ndarray | None = None
    kernel: np.ndarray | None = None


@dataclass
class HybridModel:
    base: Model
    dropins: dict  # block index -> BlockDropin
    plan: SelectionPlan
    sublayers: dict  # block index -> BlockSublayer


def kernel_shape(variant: str, cfg) -> tuple:
    """Kernel shape of a variant: (k, k, d_h) per-channel for the depthwise
    ones, a (k, k) spatial kernel shared by the channels for the others."""
    return (cfg.k, cfg.k, cfg.d_h) if variant in DEPTHWISE else (cfg.k, cfg.k)


def planned_heads(plan, cfg, *variants) -> dict:
    """The plan rule of surgery, archive loading and cost accounting: the
    covered heads as {block: set of heads}. Refuses an unknown variant, an
    ensembled variant on a non-empty plan that is not blockwise, and a
    (block, head) the config lacks."""
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        if variant in ENSEMBLED and plan.mode != "blockwise" and plan.targets:
            raise ConfigError(f"{variant} requires a blockwise plan")
    by_block: dict[int, set] = {}
    for b, h in sorted(plan.covered_heads(cfg)):
        if not (0 <= b < cfg.n_b and 0 <= h < cfg.n_h):
            raise ConfigError(f"plan targets nonexistent head (block {b}, head {h})")
        by_block.setdefault(b, set()).add(h)
    return by_block


def replace_heads(model: Model, plan, params: dict) -> HybridModel:
    """Swap the planned heads' attention for convolutional replacements.

    `plan` is a SelectionPlan; `params` maps each planned block, and no
    other, to a BlockDropin, and the plan must pass `planned_heads` for
    every variant they use. Heads outside the plan keep exact attention.
    """
    cfg = model.config
    by_block = planned_heads(plan, cfg, *(dp.variant for dp in params.values()))
    if set(params) != set(by_block):
        raise ConfigError(f"replacement parameters given for blocks {sorted(params)} "
                          f"but plan covers {sorted(by_block)}")
    dropins, sublayers = {}, {}
    for b, heads in by_block.items():
        dp = params[b]
        if dp.variant in ENSEMBLED:
            if dp.gamma is None or dp.kernel is None:
                raise ConfigError(f"block {b}: ensembled replacement needs gamma and kernel")
            if np.shape(dp.gamma) != (cfg.n_h,):
                raise ShapeError(f"block {b}: gamma must be ({cfg.n_h},), "
                                 f"got {np.shape(dp.gamma)}")
        elif set(dp.head_kernels) != heads:
            raise ConfigError(f"block {b}: kernels given for heads {sorted(dp.head_kernels)} "
                              f"but plan covers {sorted(heads)}")
        dropins[b] = dp
        sublayers[b] = BlockSublayer.build(dp, model.blocks[b], tuple(sorted(heads)), cfg)
    return HybridModel(base=model, dropins=dropins, plan=plan, sublayers=sublayers)


def _block_values(variant: str, block, heads: tuple, gamma) -> tuple:
    """The value and output projections of a replaced block, for both its
    sublayer and its fit: the value columns of `heads` (sorted) side by side
    (`vit.head_columns`) and block.w_o, or an ensembled block's
    softmax(gamma)-merged (w_ve, w_oe)."""
    if variant in ENSEMBLED:
        return ensemble_weights(gamma, block.w_v, block.w_o, block.n_h, block.d_h)
    return vit.head_columns(block.w_v, heads, block.d_h), block.w_o


@dataclass(frozen=True)
class BlockSublayer:
    """A replaced block's attention sublayer (x, block) -> (n, d), built
    once by `replace_heads`: a value projection `w_val` (d, c) and an
    output projection `w_out` (`_block_values`), and one per-channel
    `kernel` (k, k, c): the block's kernels side by side, each (k, k) one
    repeated over its head's d_h channels. A depthwise formulation
    convolves the value GEMM's output (`attn_dw`) with the kernel's
    read-only row `taps` (`tensor.row_taps`), made here once; the others
    fold the kernel into w_val once per call (`fold_full_kernel`; held,
    the fold would cost k^2 d c floats) and convolve the input. Untouched
    heads run batched exact attention (`vit.attention`) over `w_exact`,
    their [W_q | W_k | W_v] columns gathered here once. The output
    projection takes one head-ordered array: the convolution's output
    when every head is replaced, else one (n, d) buffer that replaced and
    untouched heads fill."""

    variant: str
    heads: tuple
    w_val: np.ndarray
    w_out: np.ndarray
    kernel: np.ndarray
    m: int
    taps: np.ndarray | None = None
    kept: tuple = ()
    w_exact: np.ndarray | None = None

    @classmethod
    def build(cls, dp: BlockDropin, block, heads: tuple, cfg) -> "BlockSublayer":
        kernels = [dp.kernel] if dp.variant in ENSEMBLED else [dp.head_kernels[h] for h in heads]
        want = kernel_shape(dp.variant, cfg)
        for kern in kernels:
            if tuple(kern.shape) != want:
                raise ShapeError(f"{dp.variant} kernel must be {want}, got {tuple(kern.shape)}")
        side = (cfg.k, cfg.k)
        kernel = np.concatenate([np.broadcast_to(kern.reshape(*side, -1), (*side, cfg.d_h))
                                 for kern in kernels], axis=2)
        taps = None
        if dp.variant in DEPTHWISE:
            taps = row_taps(kernel, cfg.m)
            taps.flags.writeable = False
        w_val, w_out = _block_values(dp.variant, block, heads, dp.gamma)
        kept = tuple(h for h in range(block.n_h) if h not in heads)
        w_exact = vit.qkv_columns(block, kept) if kept else None
        return cls(dp.variant, heads, w_val, w_out, kernel, cfg.m, taps, kept, w_exact)

    def __call__(self, x: np.ndarray, block) -> np.ndarray:
        if self.variant in DEPTHWISE:
            y = flat(attn_dw(grid(x, self.m), self.w_val, self.kernel, self.taps))
        else:
            y = flat(attn_conv_full(grid(x, self.m), fold_full_kernel(self.kernel, self.w_val)))
        if self.kept:
            n = x.shape[0]
            heads = np.empty((n, block.n_h, block.d_h), dtype=F32)
            heads[:, list(self.heads)] = y.reshape(n, len(self.heads), block.d_h)
            heads[:, list(self.kept)] = vit.attention(x, self.w_exact, block.d_h).reshape(
                n, len(self.kept), block.d_h)
            y = heads.reshape(n, -1)
        return matmul(y, self.w_out)


def hybrid_forward(hm: HybridModel, x: np.ndarray) -> np.ndarray:
    """Forward pass with replacements live: each replaced block runs the
    sublayer `replace_heads` built for it, and untouched blocks run the
    exact baseline code path, so an empty plan reproduces the baseline
    bitwise."""
    return vit.model_forward(x, hm.base, mhsa_fns=hm.sublayers)


def init_kernel(variant: str, cfg, seed: int) -> np.ndarray:
    """Unfitted kernel init: gaussian(0, 1/k), scaled like a convex mix."""
    return seeded_fill(kernel_shape(variant, cfg), seed, "gaussian", 0.0, 1.0 / cfg.k)


def build_dropins(model: Model, plan, variant: str, seed: int = 0, samples=None):
    """Build the plan's replacements and swap them in: the one surgery step.

    The plan is checked (`planned_heads`) before any kernel is made.
    Covered blocks are then built in sorted order, each block's kernels in
    head order (an ensembled block has one): with `samples`, which may be
    a lazy iterable, one streamed capture (`attention_inputs`) folds each
    planned block's input and exact head outputs into that block's fit
    (`_BlockFit`) as the sample's pass reads the block, so fit memory does
    not grow with the sample count; without them, kernels are drawn by
    `init_kernel` from `seed_stream(seed)` in that order. Ensembled blocks
    start from zero gamma logits. Returns (HybridModel, reports), where
    `reports` maps (block, head) or, for ensembled variants, block ->
    FitReport.
    """
    cfg = model.config
    by_block = planned_heads(plan, cfg, variant)
    seeds = seed_stream(seed)
    heads = {b: tuple(sorted(by_block[b])) for b in sorted(by_block)}
    gammas = {b: np.zeros(cfg.n_h, dtype=F32) if variant in ENSEMBLED else None for b in heads}
    if samples is not None:
        fits = {b: _BlockFit(model, b, variant, hs, gammas[b]) for b, hs in heads.items()}
        attention_inputs(model, samples, {b: fit.add for b, fit in fits.items()})
    params, reports = {}, {}
    for b, hs in heads.items():
        gamma = gammas[b]
        keys = [b] if gamma is not None else [(b, h) for h in hs]
        if samples is None:
            kernels = [init_kernel(variant, cfg, next(seeds)) for _ in keys]
        else:
            solved = fits[b].solve()
            kernels = [kern for kern, _ in solved]
            reports.update((key, rep) for key, (_, rep) in zip(keys, solved))
        params[b] = (BlockDropin(variant, gamma=gamma, kernel=kernels[0]) if gamma is not None
                     else BlockDropin(variant, head_kernels=dict(zip(hs, kernels))))
    return replace_heads(model, plan, params), reports


# Reserved archive tensor names for replacement parameters.
def _head_kernel_name(b: int, h: int) -> str:
    return f"dropin.block{b}.head{h}.K"


def _gamma_name(b: int) -> str:
    return f"dropin.block{b}.gamma"


def _ens_kernel_name(b: int) -> str:
    return f"dropin.block{b}.K_ens"


def hybrid_tensors_meta(hm: HybridModel) -> tuple:
    """Extra archive tensors and manifest metadata for a hybrid model."""
    tensors = {}
    variants = {}
    for b in sorted(hm.dropins):
        dp = hm.dropins[b]
        variants[str(b)] = dp.variant
        if dp.variant in ENSEMBLED:
            tensors[_gamma_name(b)] = np.asarray(dp.gamma, dtype=F32)
            tensors[_ens_kernel_name(b)] = dp.kernel
        else:
            for h in sorted(dp.head_kernels):
                tensors[_head_kernel_name(b, h)] = dp.head_kernels[h]
    return tensors, {"variants": variants, "plan": hm.plan.to_json()}


def hybrid_from_archive(ar) -> HybridModel:
    """The hybrid an archive holds: its `dropin.*` tensors are popped out of
    `ar.tensors`, the rest is built by `model_from_archive`, and the section
    (none: the empty plan) is rebuilt through `replace_heads`. So a variant,
    plan, gamma or kernel that surgery would refuse is refused here too, as
    is a `dropin.*` tensor that no replaced block uses, and a block key in
    `variants` that is not its block's canonical decimal. Every refusal is
    an ArchiveError."""
    section = {n: ar.tensors.pop(n) for n in list(ar.tensors) if n.startswith("dropin.")}
    model = model_from_archive(ar)
    info = ar.meta.get("dropin")
    try:
        params, plan = {}, SelectionPlan("blockwise", "lowest", 0, ())
        if info:
            for b_str, variant in info["variants"].items():
                b = int(b_str)
                if str(b) != b_str:  # int() also reads " +2 ", "00" and other digits
                    raise ValueError(f"block key {b_str!r} must be written {str(b)!r}")
                if variant in ENSEMBLED:
                    params[b] = BlockDropin(variant=variant, gamma=section[_gamma_name(b)],
                                            kernel=section[_ens_kernel_name(b)])
                    continue
                names = {h: _head_kernel_name(b, h) for h in range(model.config.n_h)}
                params[b] = BlockDropin(variant=variant, head_kernels={
                    h: section[name] for h, name in names.items() if name in section})
            plan = SelectionPlan.from_json(info["plan"])
        hm = replace_heads(model, plan, params)
    except KeyError as exc:
        raise ArchiveError(f"drop-in section is missing {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ArchiveError(f"bad drop-in section: {exc}") from exc
    used = hybrid_tensors_meta(hm)[0]
    unused = sorted(n for n in section if n not in used)
    if unused:
        raise ArchiveError(f"drop-in tensor {unused[0]!r} belongs to no replaced head")
    return hm


# ---------------------------------------------------------------------------
# Kernel fitting: exact least squares on the linear objective
# ---------------------------------------------------------------------------

RIDGE_EPS = 1e-6


@dataclass
class FitReport:
    objective: float        # sum of squared errors at the fitted kernel
    zero_objective: float   # same objective at the all-zero kernel
    ridge_channels: tuple   # channels whose normal matrix needed ridge


class _NormalEquations:
    """Per-channel normal equations of targets ~ dwconv2d(v, kernel): gram
    (c, k^2, k^2), rhs (c, k^2) and t^T t (c,), accumulated in float64 one
    (value, target) pair at a time, so only that pair and its shifts are
    ever held. The one accumulator of every fit: `fit_depthwise_kernel`
    pulls pairs from iterables, a block's streamed fit (`_BlockFit`) pushes
    one per capture forward. It refuses the kernel sizes and grids
    `dwconv2d` refuses, and a pair whose channels are not the first's."""

    def __init__(self, k: int):
        if k % 2 == 0 or k < 1:
            raise ConfigError(f"kernel size k must be odd and >= 1, got {k}")
        self.k = k
        self.gram = self.rhs = self.tt = None

    def add(self, v: np.ndarray, t: np.ndarray) -> None:
        if v.shape != t.shape:
            raise ShapeError(f"value {v.shape} and target {t.shape} shapes differ")
        if v.ndim != 3 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"value grid must be (m, m, c), got {v.shape}")
        if self.gram is None:
            c, kk = v.shape[2], self.k * self.k
            self.gram, self.rhs, self.tt = np.zeros((c, kk, kk)), np.zeros((c, kk)), np.zeros(c)
        elif v.shape[2] != len(self.tt):
            raise ShapeError(f"value {v.shape} has {v.shape[2]} channels, "
                             f"the first sample {len(self.tt)}")
        shifts = shifted_windows(np.asarray(v, dtype=np.float64), self.k).reshape(-1, *v.shape)
        t64 = np.asarray(t, dtype=np.float64)
        self.gram += np.einsum("qijc,pijc->cqp", shifts, shifts)
        self.rhs += np.einsum("qijc,ijc->cq", shifts, t64)
        self.tt += np.einsum("ijc,ijc->c", t64, t64)

    def solve(self, split: int, shared: bool) -> list:
        """[(kernel, FitReport)] for each of `split` equal runs of channels."""
        if self.gram is None:
            raise ConfigError("kernel fitting needs at least one sample")
        k, gram, rhs, tt = self.k, self.gram, self.rhs, self.tt
        width = len(tt) // split
        fits = []
        for part in (slice(lo, lo + width) for lo in range(0, len(tt), width)):
            if shared:
                coeff, used = _solve_ridge(gram[part].sum(axis=0), rhs[part].sum(axis=0))
                kern, ridge = coeff.reshape(k, k).astype(F32), ((0,) if used else ())
            else:
                solved = [_solve_ridge(g, r) for g, r in zip(gram[part], rhs[part])]
                kern = np.stack([x for x, _ in solved], axis=1).reshape(k, k, -1).astype(F32)
                ridge = tuple(ch for ch, (_, used) in enumerate(solved) if used)
            fits.append((kern, _fit_report(kern, gram[part], rhs[part], tt[part], ridge)))
        return fits


def _solve_ridge(gram: np.ndarray, rhs: np.ndarray):
    """Exact solve of gram @ x = rhs, falling back to ridge (eps RIDGE_EPS)
    when gram is singular. Returns (x, whether ridge was applied)."""
    try:
        np.linalg.cholesky(gram)
        return np.linalg.solve(gram, rhs), False
    except np.linalg.LinAlgError:
        return np.linalg.solve(gram + RIDGE_EPS * np.eye(len(rhs)), rhs), True


def _fit_report(kern: np.ndarray, gram, rhs, tt, ridge: tuple) -> FitReport:
    """FitReport with the objective in closed form at the float32 kernel:
    per channel t^T t - 2 k^T r + k^T G k. A (k, k) kernel is shared by
    every channel."""
    kk, c = gram.shape[1], tt.shape[0]
    w = np.broadcast_to(np.asarray(kern, dtype=np.float64).reshape(kk, -1), (kk, c))
    per_channel = (tt - 2.0 * np.einsum("qc,cq->c", w, rhs)
                   + np.einsum("qc,cqp,pc->c", w, gram, w))
    # cancellation can push a near-exact fit a rounding error below zero
    return FitReport(objective=max(float(per_channel.sum()), 0.0),
                     zero_objective=float(tt.sum()), ridge_channels=ridge)


def fit_depthwise_kernel(v_samples, target_samples, k: int, shared=False):
    """Least-squares depthwise kernel for targets ~ dwconv2d(v, kernel).

    The objective is linear in the kernel entries, so each channel solves
    its own k^2 x k^2 normal equations exactly; with `shared`, the
    channels sum theirs into one system for one (k, k) kernel. A singular
    normal matrix falls back to ridge regularization (eps 1e-6) and is
    reported. The samples may be lazy iterables. Returns (kernel float32
    (k, k, c) or shared (k, k), FitReport).
    """
    eqs = _NormalEquations(k)
    for v, t in itertools.zip_longest(v_samples, target_samples):
        if v is None or t is None:
            raise ShapeError("value/target sample counts differ")
        eqs.add(v, t)
    return eqs.solve(1, shared)[0]


def fit_loss_and_grad(kern: np.ndarray, v_samples: list, target_samples: list):
    """Frobenius fitting objective and its analytic gradient.

    loss = sum_s ||dwconv2d(v_s, kern) - t_s||_F^2, evaluated in float64;
    grad[r, s, c] = 2 sum_s <residual_s[..., c], shift(v_s, (r, s))[..., c]>.
    The fitters report the same loss in closed form; this is its oracle.
    """
    k = kern.shape[0]
    kern64 = np.asarray(kern, dtype=np.float64)
    loss = 0.0
    gradient = np.zeros_like(kern64)
    for v, t in zip(v_samples, target_samples):
        shifts = shifted_windows(np.asarray(v, dtype=np.float64), k).reshape(-1, *v.shape)
        pred = np.einsum("qijc,qc->ijc", shifts, kern64.reshape(k * k, -1))
        resid = pred - np.asarray(t, dtype=np.float64)
        loss += float((resid ** 2).sum())
        gradient += 2.0 * np.einsum("qijc,ijc->qc", shifts, resid).reshape(kern64.shape)
    return loss, gradient


def attention_inputs(model: Model, samples, folds: dict) -> None:
    """The fit's capture: one `vit.attention_reads` pass over the samples
    that folds each block b in `folds`: folds[b] gets each chunk's normed
    inputs to b and b's exact head outputs, both (B, n, d), so nothing
    outlives its block. An empty `folds` runs no forward."""
    if folds:
        vit.attention_reads(samples, model, folds=folds)


class _BlockFit:
    """Least-squares fit of one replaced block's kernels; `add` is its
    capture fold (`attention_inputs`). The regressors are what the block's
    sublayer convolves (`_block_values`) of the normed input; the targets
    come from the head outputs: the columns of `heads` (`vit.head_columns`,
    the regressors' gather), or for an ensembled block the softmax(gamma)
    mix of all heads. One normal-equation system serves the block, and
    only its fold writes it, so blocks in the pass's two stages fold at
    once."""

    def __init__(self, model: Model, b: int, variant: str, heads: tuple, gamma):
        self.cfg = cfg = model.config
        self.heads = heads
        self.w_val, _ = _block_values(variant, model.blocks[b], heads, gamma)
        ensembled = variant in ENSEMBLED
        self.sig = softmax64(np.asarray(gamma, dtype=np.float64).ravel()) if ensembled else None
        self.split = 1 if ensembled else len(heads)
        self.shared = variant not in DEPTHWISE
        self.eqs = _NormalEquations(cfg.k)

    def _target(self, out: np.ndarray) -> np.ndarray:
        d_h = self.cfg.d_h
        if self.sig is None:
            return vit.head_columns(out, self.heads, d_h)
        mix = np.zeros((out.shape[0], d_h), dtype=np.float64)
        for h, s in enumerate(self.sig):
            mix += s * vit.head_cols(out, h, d_h)
        return mix.astype(F32)

    def add(self, a_in: np.ndarray, out: np.ndarray) -> None:
        """Fold in normed inputs and head outputs, one sample's (n, d) or a
        chunk's (B, n, d): the value GEMM and the targets run once over all
        the rows, then each sample is folded in turn, in order."""
        cfg = self.cfg
        v = matmul(a_in.reshape(-1, cfg.d), self.w_val)
        t = self._target(out.reshape(-1, cfg.d))
        for v_s, t_s in zip(*(a.reshape(-1, cfg.m, cfg.m, a.shape[1]) for a in (v, t))):
            self.eqs.add(v_s, t_s)

    def solve(self) -> list:
        """[(kernel, FitReport)]: one per head of `heads`, or one for an
        ensembled block."""
        return self.eqs.solve(self.split, self.shared)

