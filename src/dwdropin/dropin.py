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
collapse whole blocks and take only blockwise plans (`planned_heads`).
A replaced block is one group: `replace_heads` resolves its sublayer once
(`BlockSublayer`), and `fit_block` fits all its kernels from one set of
per-channel least-squares normal equations against the attention outputs
the kernels stand in for.
"""

from __future__ import annotations

import itertools
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
    shifted_windows,
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
    return dwconv2d(grid(matmul(flat(x), w_v_slice), x.shape[0]), kern)


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
    sublayers: dict = field(default_factory=dict)  # block index -> BlockSublayer


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

    `plan` is a SelectionPlan; `params` maps block index -> BlockDropin,
    and the plan must pass `planned_heads` for every variant they use.
    Heads outside the plan keep the exact attention path.
    """
    cfg = model.config
    by_block = planned_heads(plan, cfg, *(dp.variant for dp in params.values()))
    dropins, sublayers = {}, {}
    for b, heads in by_block.items():
        if b not in params:
            raise ConfigError(f"no replacement parameters for block {b}")
        dp = params[b]
        if dp.variant in ENSEMBLED:
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
        sublayers[b] = BlockSublayer.build(dp, model.blocks[b], tuple(sorted(heads)), cfg.m)
    return HybridModel(base=model, dropins=dropins, plan=plan, sublayers=sublayers)


def _block_values(variant: str, block, heads: tuple, gamma) -> tuple:
    """What a replaced block convolves after its one value GEMM, for both
    its sublayer and its fit: the value columns of `heads` (sorted) side by
    side (`vit.head_columns`), or an ensembled block's softmax(gamma)-merged
    w_ve. Returns (value projection, merged output projection or None)."""
    if variant in ENSEMBLED:
        return ensemble_weights(gamma, block.w_v, block.w_o, block.n_h, block.d_h)
    return vit.head_columns(block.w_v, heads, block.d_h), None


@dataclass(frozen=True)
class BlockSublayer:
    """A replaced block's attention sublayer (x, block) -> (n, d), built
    once by `replace_heads`. The replaced heads run fused: one value GEMM
    (`_block_values`) and one convolution over the dw kernels stacked along
    channels, the convfull kernels folded per call (held, the folds would
    cost k^2 d d_h floats per head), or the ensembled block kernel.
    Untouched heads run batched exact attention (`vit.attention`) over
    their query/key/value columns, gathered here once. The output
    projection takes one head-ordered (n, d) array: the convolution's
    output when every head is replaced, else one buffer that the replaced
    and the untouched heads fill."""

    variant: str
    heads: tuple
    w_val: np.ndarray
    w_out: np.ndarray | None
    kernel: object
    m: int
    kept: tuple = ()
    exact: tuple = ()

    @classmethod
    def build(cls, dp: BlockDropin, block, heads: tuple, m: int) -> "BlockSublayer":
        w_val, w_out = _block_values(dp.variant, block, heads, dp.gamma)
        if dp.variant in ENSEMBLED:
            kernel = dp.kernel
        elif dp.variant == "dw":
            kernel = np.concatenate([dp.head_kernels[h] for h in heads], axis=2)
        else:
            kernel = [dp.head_kernels[h] for h in heads]
        kept = tuple(h for h in range(block.n_h) if h not in heads)
        exact = tuple(vit.head_columns(w, kept, block.d_h)
                      for w in (block.w_q, block.w_k, block.w_v)) if kept else ()
        return cls(dp.variant, heads, w_val, w_out, kernel, m, kept, exact)

    def __call__(self, x: np.ndarray, block) -> np.ndarray:
        if self.variant == "ens-dw":
            return mhsa_dw_ensembled(x, self.w_val, self.kernel, self.w_out, self.m)
        if self.variant == "ens-convfull":
            return mhsa_convfull_ensembled(x, self.w_val, self.kernel, self.w_out, self.m)
        if self.variant == "dw":
            y = flat(attn_dw(grid(x, self.m), self.w_val, self.kernel))
        else:
            w_vs = np.split(self.w_val, len(self.heads), axis=1)
            y = flat(attn_conv_full(grid(x, self.m), np.concatenate(
                [fold_full_kernel(kern, w_v) for kern, w_v in zip(self.kernel, w_vs)], axis=3)))
        if self.kept:
            n = x.shape[0]
            heads = np.empty((n, block.n_h, block.d_h), dtype=F32)
            heads[:, list(self.heads)] = y.reshape(n, len(self.heads), block.d_h)
            heads[:, list(self.kept)] = vit.attention(x, *self.exact, block.d_h).reshape(
                n, len(self.kept), block.d_h)
            y = heads.reshape(n, -1)
        return vit.project_heads(y, block)


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
    head order (an ensembled block has one): with `samples`, one capture
    (`attention_inputs`) records the planned blocks' inputs and exact head
    outputs, and `fit_block` fits each block from it; without them,
    kernels are drawn by `init_kernel` from `seed_stream(seed)` in that
    order. Ensembled blocks start from zero gamma logits. Returns
    (HybridModel, reports), where `reports` maps (block, head) or, for
    ensembled variants, block -> FitReport.
    """
    cfg = model.config
    by_block = planned_heads(plan, cfg, variant)
    seeds = seed_stream(seed)
    fitting = samples is not None and by_block
    inputs = attention_inputs(model, samples, by_block) if fitting else None
    params, reports = {}, {}
    for b in sorted(by_block):
        heads = tuple(sorted(by_block[b]))
        gamma = np.zeros(cfg.n_h, dtype=F32) if variant in ENSEMBLED else None
        keys = [b] if gamma is not None else [(b, h) for h in heads]
        if inputs is None:
            kernels = [init_kernel(variant, cfg, next(seeds)) for _ in keys]
        else:
            fits = fit_block(model, b, variant, heads, gamma, inputs)
            kernels = [kern for kern, _ in fits]
            reports.update((key, rep) for key, (_, rep) in zip(keys, fits))
        params[b] = (BlockDropin(variant, gamma=gamma, kernel=kernels[0]) if gamma is not None
                     else BlockDropin(variant, head_kernels=dict(zip(heads, kernels))))
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


@dataclass
class FitReport:
    objective: float        # sum of squared errors at the fitted kernel
    zero_objective: float   # same objective at the all-zero kernel
    ridge_channels: tuple   # channels whose normal matrix needed ridge


def _normal_equations(v_samples, target_samples, k: int):
    """Per-channel normal equations of targets ~ dwconv2d(v, kernel).

    Accumulated in float64 one (value, target) pair at a time, so when the
    samples are lazy iterables only one sample's values, targets and shifts
    are ever held: gram (c, k^2, k^2), rhs (c, k^2), t^T t (c,).
    """
    kk = k * k
    gram = rhs = tt = None
    for v, t in itertools.zip_longest(v_samples, target_samples):
        if v is None or t is None:
            raise ShapeError("value/target sample counts differ")
        if v.shape != t.shape:
            raise ShapeError(f"value {v.shape} and target {t.shape} shapes differ")
        if gram is None:
            c = v.shape[2]
            gram, rhs, tt = np.zeros((c, kk, kk)), np.zeros((c, kk)), np.zeros(c)
        shifts = np.stack(shifted_windows(np.asarray(v, dtype=np.float64), k))
        t64 = np.asarray(t, dtype=np.float64)
        gram += np.einsum("qijc,pijc->cqp", shifts, shifts)
        rhs += np.einsum("qijc,ijc->cq", shifts, t64)
        tt += np.einsum("ijc,ijc->c", t64, t64)
    if gram is None:
        raise ConfigError("kernel fitting needs at least one sample")
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


def fit_depthwise_kernel(v_samples, target_samples, k: int, heads=None, shared=False):
    """Least-squares depthwise kernel for targets ~ dwconv2d(v, kernel).

    The objective is linear in the kernel entries, so each channel solves
    its own k^2 x k^2 normal equations exactly; with `shared`, a head's
    channels sum theirs into one system for one (k, k) kernel. A singular
    normal matrix falls back to ridge regularization (eps 1e-6) and is
    reported. The samples may be lazy iterables. Returns (kernel float32
    (k, k, c) or shared (k, k), FitReport) for all channels as one head,
    or with `heads` a list of such pairs, one per equal run of channels.
    """
    gram, rhs, tt = _normal_equations(v_samples, target_samples, k)
    width = len(tt) // (heads or 1)
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
    return fits if heads else fits[0]


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
        shifts = np.stack(shifted_windows(np.asarray(v, dtype=np.float64), k))
        pred = np.einsum("qijc,qc->ijc", shifts, kern64.reshape(k * k, -1))
        resid = pred - np.asarray(t, dtype=np.float64)
        loss += float((resid ** 2).sum())
        gradient += 2.0 * np.einsum("qijc,ijc->qc", shifts, resid).reshape(kern64.shape)
    return loss, gradient


def attention_inputs(model: Model, samples, blocks) -> dict:
    """The fit's capture: one forward pass per sample in which each of
    `blocks` runs a `mhsa_fns` sublayer that calls `vit.attention` once,
    records (normed input (n, d), head outputs (n, d)) and projects those
    same outputs, so the pass is `model_forward`'s bit for bit. Returns
    {block: [(input, head outputs) for each sample]}."""
    captured = {b: [] for b in blocks}

    def capture(record):
        def sublayer(a_in, block):
            out = vit.attention(a_in, block.w_q, block.w_k, block.w_v, block.d_h)
            # a copy fills the heap space attention's temporaries just freed;
            # holding `out` itself raised pipeline-desk peak RSS by 1.4 MiB
            record.append((a_in, out.copy()))
            return vit.project_heads(out, block)
        return sublayer

    fns = {b: capture(record) for b, record in captured.items()}
    for x in samples:
        vit.model_forward(x, model, mhsa_fns=fns)
    return captured


def fit_block(model: Model, b: int, variant: str, heads: tuple, gamma, inputs: dict):
    """Least-squares fit of block b's kernels from `attention_inputs`' capture.

    The regressors are what the block's sublayer convolves (`_block_values`)
    of the recorded inputs; the targets come from the recorded head outputs:
    the columns of `heads` (`vit.head_columns`, the regressors' gather), or
    for an ensembled block the softmax(gamma) mix of all heads. One
    normal-equation system, fed one sample at a time, serves the block. Returns [(kernel, FitReport)]: one
    per head of `heads`, or one for an ensembled block.
    """
    cfg = model.config
    w_val, _ = _block_values(variant, model.blocks[b], heads, gamma)
    ensembled = variant in ENSEMBLED
    sig = softmax64(np.asarray(gamma, dtype=np.float64).ravel()) if ensembled else None

    def target(out):
        if not ensembled:
            return vit.head_columns(out, heads, cfg.d_h)
        mix = np.zeros((cfg.n, cfg.d_h), dtype=np.float64)
        for h, s in enumerate(sig):
            mix += s * vit.head_cols(out, h, cfg.d_h)
        return mix.astype(F32)

    values = (grid(matmul(a_in, w_val), cfg.m) for a_in, _ in inputs[b])
    targets = (grid(target(out), cfg.m) for _, out in inputs[b])
    return fit_depthwise_kernel(values, targets, cfg.k, heads=1 if ensembled else len(heads),
                                shared=len(kernel_shape(variant, cfg)) == 2)
