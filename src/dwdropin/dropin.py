"""Convolutional drop-in replacements for attention heads.

Four formulations:

  convfull      per head, a shared k x k spatial kernel folded into the
                head's value projection and applied as a full convolution
  dw            per head, the value projection followed by a depthwise
                convolution with one k x k filter per channel
  ens-convfull  softmax(gamma)-weighted merge of all heads' value/output
                projections into a single effective head, full convolution
  ens-dw        the same ensembling with the depthwise formulation

Unensembled variants replace any subset of heads; ensembled variants
collapse a whole block and are only legal when every head of that block is
replaced. Kernel fitting is exact per-channel linear least squares against
the attention outputs the kernels stand in for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import vit
from .archive import ArchiveError
from .select import SelectionPlan
from .tensor import (
    F32,
    ConfigError,
    ShapeError,
    as_f32,
    conv2d,
    dwconv2d,
    matmul,
    seed_stream,
    seeded_fill,
    softmax64,
)
from .vit import Model, flat, grid, head_cols, head_rows

VARIANTS = ("convfull", "dw", "ens-convfull", "ens-dw")
ENSEMBLED = ("ens-convfull", "ens-dw")


def fold_full_kernel(k_h: np.ndarray, w_v_slice: np.ndarray) -> np.ndarray:
    """Fold a shared spatial kernel (k, k) into a value projection (d, d_h).

    Every spatial slice of the result is k_h[r, s] * w_v_slice, giving the
    (k, k, d, d_h) kernel of the full-convolution formulation.
    """
    if k_h.ndim != 2 or k_h.shape[0] != k_h.shape[1]:
        raise ShapeError(f"shared kernel must be (k, k), got {k_h.shape}")
    if w_v_slice.ndim != 2:
        raise ShapeError(f"value slice must be (d, d_h), got {w_v_slice.shape}")
    return as_f32(k_h)[:, :, None, None] * as_f32(w_v_slice)[None, None, :, :]


def attn_conv_full(x: np.ndarray, w_vh: np.ndarray) -> np.ndarray:
    """Full-convolution head replacement: conv2d of the (m, m, d) input."""
    return conv2d(x, w_vh)


def attn_dw(x: np.ndarray, w_v_slice: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Depthwise head replacement: value projection, then per-channel conv.

    x is the (m, m, d) block input; returns (m, m, d_h).
    """
    if x.ndim != 3:
        raise ShapeError(f"input must be (m, m, d), got {x.shape}")
    v = np.tensordot(as_f32(x), as_f32(w_v_slice), axes=([2], [0]))
    return dwconv2d(v, kern)


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
    """Whole-block ensembled depthwise attention, (n, d) -> (n, d)."""
    v_e = grid(matmul(x, w_ve), m)
    return matmul(flat(dwconv2d(v_e, kern_e)), w_oe)


def mhsa_convfull_ensembled(x: np.ndarray, w_ve: np.ndarray, k_e: np.ndarray,
                            w_oe: np.ndarray, m: int) -> np.ndarray:
    """Whole-block ensembled full-convolution attention, (n, d) -> (n, d)."""
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

    def heads(self) -> tuple:
        return tuple(sorted(self.head_kernels))


@dataclass
class HybridModel:
    base: Model
    dropins: dict  # block index -> BlockDropin
    plan: object | None = None

    @property
    def config(self):
        return self.base.config


def kernel_shape(variant: str, cfg) -> tuple:
    """Kernel shape of a variant: (k, k) shared spatial kernel for the
    full-convolution variants, (k, k, d_h) per-channel for the depthwise ones."""
    if variant in ("convfull", "ens-convfull"):
        return (cfg.k, cfg.k)
    return (cfg.k, cfg.k, cfg.d_h)


def _check_kernel_shape(variant: str, kern: np.ndarray, cfg) -> None:
    want = kernel_shape(variant, cfg)
    if tuple(kern.shape) != want:
        raise ShapeError(f"{variant} kernel must be {want}, got {tuple(kern.shape)}")


def _planned_heads(plan, cfg) -> dict:
    """The plan's covered heads grouped by block; refuses nonexistent heads."""
    by_block: dict[int, set] = {}
    for b, h in plan.covered_heads(cfg):
        if not (0 <= b < cfg.n_b and 0 <= h < cfg.n_h):
            raise ConfigError(f"plan targets nonexistent head (block {b}, head {h})")
        by_block.setdefault(b, set()).add(h)
    return by_block


def replace_heads(model: Model, plan, params: dict) -> HybridModel:
    """Swap the planned heads' attention for convolutional replacements.

    `plan` is a SelectionPlan; `params` maps block index -> BlockDropin.
    Heads outside the plan keep the exact attention path. Ensembled
    variants are refused unless the plan covers every head of the block.
    """
    cfg = model.config
    by_block = _planned_heads(plan, cfg)
    dropins = {}
    for b, heads in by_block.items():
        if b not in params:
            raise ConfigError(f"no replacement parameters for block {b}")
        dp = params[b]
        if dp.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {dp.variant!r}")
        if dp.variant in ENSEMBLED:
            if heads != set(range(cfg.n_h)):
                raise ConfigError(
                    f"{dp.variant} collapses a whole block; plan covers only "
                    f"{sorted(heads)} of block {b}"
                )
            if dp.gamma is None or dp.kernel is None:
                raise ConfigError(f"block {b}: ensembled replacement needs gamma and kernel")
            if np.shape(dp.gamma) != (cfg.n_h,):
                raise ShapeError(f"block {b}: gamma must be ({cfg.n_h},), "
                                 f"got {np.shape(dp.gamma)}")
            _check_kernel_shape(dp.variant, dp.kernel, cfg)
        else:
            if set(dp.head_kernels) != heads:
                raise ConfigError(
                    f"block {b}: kernels given for heads {sorted(dp.head_kernels)} "
                    f"but plan covers {sorted(heads)}"
                )
            for kern in dp.head_kernels.values():
                _check_kernel_shape(dp.variant, kern, cfg)
        dropins[b] = dp
    return HybridModel(base=model, dropins=dropins, plan=plan)


def _block_mhsa_fn(dp: BlockDropin, cfg):
    """Attention-sublayer substitute implementing this block's replacement."""
    m = cfg.m

    if dp.variant in ENSEMBLED:
        def ens_fn(x, block):
            w_ve, w_oe = ensemble_weights(dp.gamma, block.w_v, block.w_o,
                                          block.n_h, block.d_h)
            if dp.variant == "ens-dw":
                return mhsa_dw_ensembled(x, w_ve, dp.kernel, w_oe, m)
            return mhsa_convfull_ensembled(x, w_ve, dp.kernel, w_oe, m)
        return ens_fn

    def swapped_fn(x, block):
        outs = []
        xg = None
        for h in range(block.n_h):
            if h in dp.head_kernels:
                if xg is None:
                    xg = grid(x, m)
                w_v_slice = head_cols(block.w_v, h, block.d_h)
                if dp.variant == "dw":
                    y = attn_dw(xg, w_v_slice, dp.head_kernels[h])
                else:
                    y = attn_conv_full(xg, fold_full_kernel(dp.head_kernels[h], w_v_slice))
                outs.append(flat(y))
            else:
                outs.append(vit.head_attention(x, block, h))
        return vit.project_heads(outs, block)
    return swapped_fn


def hybrid_forward(hm: HybridModel, x: np.ndarray) -> np.ndarray:
    """Forward pass with replacements live; untouched blocks run the exact
    baseline code path, so an empty plan reproduces the baseline bitwise."""
    fns = {b: _block_mhsa_fn(dp, hm.config) for b, dp in hm.dropins.items()}
    return vit.model_forward(x, hm.base, mhsa_fns=fns)


def init_kernel(variant: str, cfg, seed: int) -> np.ndarray:
    """Unfitted kernel init: gaussian(0, 1/k), scaled like a convex mix."""
    return seeded_fill(kernel_shape(variant, cfg), seed, "gaussian", 0.0, 1.0 / cfg.k)


def build_dropins(model: Model, plan, variant: str, seed: int = 0, samples=None):
    """Build the plan's replacements and swap them in: the one surgery step.

    The plan is checked before any kernel is made. Covered heads (or, for
    ensembled variants, covered blocks) are then built in sorted order:
    with `samples`, the attention inputs are captured once and each kernel
    is least-squares fitted against the exact attention; without them,
    kernels are drawn by `init_kernel` from `seed_stream(seed)` in that
    order. Ensembled blocks start from zero gamma logits. Returns (HybridModel, reports), where `reports` maps
    (block, head) or, for ensembled variants, block -> FitReport.
    """
    cfg = model.config
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant in ENSEMBLED and plan.mode != "blockwise" and plan.targets:
        raise ConfigError(f"{variant} requires a blockwise plan")
    by_block = _planned_heads(plan, cfg)
    seeds = seed_stream(seed)
    inputs = attention_inputs(model, samples) if samples is not None and by_block else None
    params, reports = {}, {}
    for b in sorted(by_block):
        if variant in ENSEMBLED:
            gamma = np.zeros(cfg.n_h, dtype=F32)
            if inputs is None:
                kern = init_kernel(variant, cfg, next(seeds))
            else:
                kern, reports[b] = fit_ensembled_kernel(model, b, gamma, inputs, variant)
            params[b] = BlockDropin(variant=variant, gamma=gamma, kernel=kern)
            continue
        kernels = {}
        for h in sorted(by_block[b]):
            if inputs is None:
                kernels[h] = init_kernel(variant, cfg, next(seeds))
            else:
                kernels[h], reports[b, h] = fit_kernels(model, (b, h), inputs, variant)
        params[b] = BlockDropin(variant=variant, head_kernels=kernels)
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
            for h in dp.heads():
                tensors[_head_kernel_name(b, h)] = dp.head_kernels[h]
    meta = {"variants": variants}
    if hm.plan is not None:
        meta["plan"] = hm.plan.to_json()
    return tensors, meta


def hybrid_from_archive(ar, model: Model) -> HybridModel:
    """Rebuild a HybridModel from an archive's dropin tensors and metadata.

    The rebuild goes through `replace_heads`, so a variant, plan, gamma or
    kernel that surgery would refuse is refused here too, as is a `dropin.*`
    tensor that no replaced block uses. Every refusal is an ArchiveError.
    """
    info = ar.meta.get("dropin")
    hm = HybridModel(base=model, dropins={}, plan=None)
    try:
        if info:
            params = {}
            for b_str, variant in info["variants"].items():
                b = int(b_str)
                if variant in ENSEMBLED:
                    params[b] = BlockDropin(variant=variant, gamma=ar.tensors[_gamma_name(b)],
                                            kernel=ar.tensors[_ens_kernel_name(b)])
                    continue
                names = {h: _head_kernel_name(b, h) for h in range(model.config.n_h)}
                params[b] = BlockDropin(variant=variant, head_kernels={
                    h: ar.tensors[name] for h, name in names.items() if name in ar.tensors})
            hm = replace_heads(model, SelectionPlan.from_json(info["plan"]), params)
    except KeyError as exc:
        raise ArchiveError(f"drop-in section is missing {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ArchiveError(f"bad drop-in section: {exc}") from exc
    used = hybrid_tensors_meta(hm)[0]
    unused = sorted(n for n in ar.tensors if n.startswith("dropin.") and n not in used)
    if unused:
        raise ArchiveError(f"drop-in tensor {unused[0]!r} belongs to no replaced head")
    return hm


# ---------------------------------------------------------------------------
# Kernel fitting: exact least squares on the linear objective
# ---------------------------------------------------------------------------

RIDGE_EPS = 1e-6


def _shift_stack(v: np.ndarray, k: int) -> np.ndarray:
    """Stack the k*k zero-padded shifts of v (m, m, c) as (k*k, m, m, c).

    Row q = offset (r, s) in row-major order; entry [q, i, j, c] is
    v[i+r, j+s, c] with off-grid reads as zero. These are the per-offset
    predictors of the depthwise-convolution output.
    """
    m = v.shape[0]
    half = k // 2
    vp = np.pad(np.asarray(v, dtype=np.float64), ((half, half), (half, half), (0, 0)))
    rows = [vp[a : a + m, b : b + m] for a in range(k) for b in range(k)]
    return np.stack(rows, axis=0)


@dataclass
class FitReport:
    objective: float        # sum of squared errors at the fitted kernel
    zero_objective: float   # same objective at the all-zero kernel
    ridge_channels: tuple   # channels whose normal matrix needed ridge


def _normal_equations(v_samples: list, target_samples: list, k: int):
    """Per-channel normal equations of targets ~ dwconv2d(v, kernel).

    Accumulated in float64 one sample at a time, so only one sample's
    shifts are ever held: gram (c, k^2, k^2), rhs (c, k^2), t^T t (c,).
    """
    if not v_samples:
        raise ConfigError("kernel fitting needs at least one sample")
    if len(v_samples) != len(target_samples):
        raise ShapeError("value/target sample counts differ")
    c = v_samples[0].shape[2]
    kk = k * k
    gram, rhs, tt = np.zeros((c, kk, kk)), np.zeros((c, kk)), np.zeros(c)
    for v, t in zip(v_samples, target_samples):
        if v.shape != t.shape:
            raise ShapeError(f"value {v.shape} and target {t.shape} shapes differ")
        shifts = _shift_stack(v, k)                      # (kk, m, m, c)
        t64 = np.asarray(t, dtype=np.float64)
        gram += np.einsum("qijc,pijc->cqp", shifts, shifts)
        rhs += np.einsum("qijc,ijc->cq", shifts, t64)
        tt += np.einsum("ijc,ijc->c", t64, t64)
    return gram, rhs, tt


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


def fit_depthwise_kernel(v_samples: list, target_samples: list, k: int):
    """Least-squares depthwise kernel for targets ~ dwconv2d(v, kernel).

    The objective is linear in the kernel entries, so each channel solves
    its own k^2 x k^2 normal equations exactly. A singular normal matrix
    falls back to ridge regularization (eps 1e-6) and is reported.
    Returns (kernel (k, k, c) float32, FitReport).
    """
    gram, rhs, tt = _normal_equations(v_samples, target_samples, k)
    solved = [_solve_ridge(g, r) for g, r in zip(gram, rhs)]
    kern = np.stack([x for x, _ in solved], axis=1).reshape(k, k, -1).astype(F32)
    ridge = tuple(ch for ch, (_, used) in enumerate(solved) if used)
    return kern, _fit_report(kern, gram, rhs, tt, ridge)


def fit_shared_kernel(v_samples: list, target_samples: list, k: int):
    """Least-squares shared spatial kernel (k, k), one weight per offset
    across all channels: the channel-summed system of the fit above."""
    gram, rhs, tt = _normal_equations(v_samples, target_samples, k)
    coeff, used = _solve_ridge(gram.sum(axis=0), rhs.sum(axis=0))
    kern = coeff.reshape(k, k).astype(F32)
    return kern, _fit_report(kern, gram, rhs, tt, (0,) if used else ())


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
        shifts = _shift_stack(v, k)                      # (kk, m, m, c)
        pred = np.einsum("qijc,qc->ijc", shifts, kern64.reshape(k * k, -1))
        resid = pred - np.asarray(t, dtype=np.float64)
        loss += float((resid ** 2).sum())
        gradient += 2.0 * np.einsum("qijc,ijc->qc", shifts, resid).reshape(kern64.shape)
    return loss, gradient


def attention_inputs(model: Model, samples: list) -> list:
    """Normed attention inputs per block for each sample: list over samples
    of lists over blocks of (n, d) arrays, captured in one forward pass each."""
    captured = []
    for x in samples:
        per_block = [None] * model.config.n_b
        vit.model_forward(x, model, attn_tap=lambda b, a: per_block.__setitem__(b, a))
        captured.append(per_block)
    return captured


def fit_kernels(model: Model, target, inputs: list, variant: str = "dw"):
    """Fit one head's replacement kernel against its exact attention output.

    `target` is a (block, head) pair; `inputs` is what `attention_inputs`
    captured for the fitting samples. The head's values are the regressors,
    its exact attention outputs the regression targets, and the kernel is
    the exact least-squares minimizer. Returns (kernel, FitReport).
    """
    b, h = target
    cfg = model.config
    block = model.blocks[b]
    w_v_slice = head_cols(block.w_v, h, block.d_h)
    v_list = [grid(matmul(per_block[b], w_v_slice), cfg.m) for per_block in inputs]
    t_list = [grid(vit.head_attention(per_block[b], block, h), cfg.m) for per_block in inputs]
    if variant == "dw":
        return fit_depthwise_kernel(v_list, t_list, cfg.k)
    if variant == "convfull":
        return fit_shared_kernel(v_list, t_list, cfg.k)
    raise ConfigError(f"per-head fitting applies to 'dw' or 'convfull', not {variant!r}")


def fit_ensembled_kernel(model: Model, b: int, gamma: np.ndarray,
                         inputs: list, variant: str = "ens-dw"):
    """Fit a block's ensembled kernel from `attention_inputs`' capture.

    The regression target is the softmax(gamma)-weighted mix of the block's
    exact head attentions (the quantity the ensembled convolution replaces
    ahead of the merged output projection); inputs are the ensembled values.
    """
    cfg = model.config
    block = model.blocks[b]
    w_ve, _ = ensemble_weights(gamma, block.w_v, block.w_o, block.n_h, block.d_h)
    sig = softmax64(np.asarray(gamma, dtype=np.float64).ravel())
    v_list, t_list = [], []
    for per_block in inputs:
        a_in = per_block[b]
        v_list.append(grid(matmul(a_in, w_ve), cfg.m))
        mix = np.zeros((cfg.n, cfg.d_h), dtype=np.float64)
        for h in range(cfg.n_h):
            mix += sig[h] * vit.head_attention(a_in, block, h)
        t_list.append(grid(mix.astype(F32), cfg.m))
    if variant == "ens-dw":
        return fit_depthwise_kernel(v_list, t_list, cfg.k)
    if variant == "ens-convfull":
        return fit_shared_kernel(v_list, t_list, cfg.k)
    raise ConfigError(f"ensembled fitting applies to 'ens-dw' or 'ens-convfull', not {variant!r}")
