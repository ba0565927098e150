"""Head and block selection: variance scoring, diagnostics, and gating.

The variance criterion streams every head's attention-weight matrix
through a one-pass Welford accumulator and scores each head by the summed
pointwise standard deviation over the sample set. A head whose weights
never move is input-invariant and behaves like a fixed spatial kernel, so
low scores mark the heads a convolution can stand in for. Accumulation is
float64 even though the model runs float32: near-identical float32 weight
matrices would cancel catastrophically otherwise.

The gating alternative learns nothing here; it implements the relaxed
top-k selection semantics (seeded Gumbel perturbation, temperature
annealing, convex combination of the two branches) so their limit
behavior can be verified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import vit
from .tensor import (
    ConfigError,
    FormatError,
    ShapeError,
    seeded_generator,
    shifted_windows,
    softmax64,
)
from .vit import Model

POPULATION = "population"  # sigma = sqrt(M2 / N); documented convention


# ---------------------------------------------------------------------------
# One-pass statistics
# ---------------------------------------------------------------------------

@dataclass
class WelfordState:
    """Streaming pointwise mean/M2 accumulator (float64)."""

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def new(cls, shape) -> "WelfordState":
        return cls(count=0,
                   mean=np.zeros(shape, dtype=np.float64),
                   m2=np.zeros(shape, dtype=np.float64))


def welford_update(state: WelfordState, sample: np.ndarray) -> WelfordState:
    """Fold one sample in: count+=1; delta=x-mean; mean+=delta/count;
    m2+=delta*(x-mean), in place on a float64 copy of the sample. Mutates
    and returns the state."""
    x = np.array(sample, dtype=np.float64)
    if x.shape != state.mean.shape:
        raise ShapeError(f"sample shape {x.shape} != state shape {state.mean.shape}")
    state.count += 1
    delta = x - state.mean
    state.mean += delta / state.count
    x -= state.mean
    delta *= x
    state.m2 += delta
    # mathematically >= 0; clamp float dust so the invariant holds exactly
    np.maximum(state.m2, 0.0, out=state.m2)
    return state


def welford_finalize(state: WelfordState) -> np.ndarray:
    """Pointwise standard deviation sqrt(M2/count), population convention."""
    if state.count == 0:
        raise ConfigError("cannot finalize statistics over zero samples")
    if state.count == 1:
        return np.zeros_like(state.m2)
    return np.sqrt(state.m2 / state.count)


def sigma_head(sigma: np.ndarray) -> float:
    """Scalar head score: the sum of all entries of the pointwise std."""
    return float(np.asarray(sigma, dtype=np.float64).sum())


def sigma_block(head_scores) -> float:
    """Block score: arithmetic mean of its heads' scores."""
    scores = [float(s) for s in head_scores]
    if not scores:
        raise ConfigError("block score needs at least one head score")
    return math.fsum(scores) / len(scores)


def _ranked(scores, sign: float = 1.0) -> list:
    """Flat indices of `scores` by ascending sign * score, ties toward the
    lower index: the one ranking rule of score reports, plans and gates."""
    flat = np.asarray(scores, dtype=np.float64).ravel()
    return sorted(range(flat.size), key=lambda i: (sign * float(flat[i]), i))


@dataclass
class ScoreResult:
    sigma_h: np.ndarray   # (n_b, n_h) float64
    sigma_b: np.ndarray   # (n_b,) float64
    n_samples: int
    convention: str = POPULATION

    def to_report(self, meta: dict | None = None) -> dict:
        n_h = self.sigma_h.shape[1]
        report = {
            "criterion": "summed pointwise std of attention weights",
            "convention": self.convention,
            "n_samples": self.n_samples,
            "sigma_h": [[float(v) for v in row] for row in self.sigma_h],
            "sigma_b": [float(v) for v in self.sigma_b],
            "ranking_heads": [list(divmod(i, n_h)) for i in _ranked(self.sigma_h)],
            "ranking_blocks": _ranked(self.sigma_b),
        }
        if meta:
            report["meta"] = meta
        return report


def score_model(model: Model, samples) -> ScoreResult:
    """Score every head over an iterable of (n, d) inputs, one pass.

    Each block's attention runs with a tap that folds the (g, n, n)
    weights of each head group (`vit.head_groups`) the forward itself
    computes into that group's one accumulator, so nothing is recomputed
    and nothing is kept per sample: memory stays at two float64 n x n
    buffers per head regardless of the sample count.
    """
    cfg = model.config
    groups = vit.head_groups(cfg.n_h, cfg.n)
    states = [{h0: WelfordState.new((h1 - h0, cfg.n, cfg.n)) for h0, h1 in groups}
              for _ in range(cfg.n_b)]
    fns = {b: lambda x, block, s=state: vit.mhsa_forward(
               x, block, energy_tap=lambda e, h0: welford_update(s[h0], e))
           for b, state in enumerate(states)}
    n_samples = 0
    for x in samples:
        n_samples += 1
        vit.model_forward(x, model, mhsa_fns=fns)
    if n_samples == 0:
        raise ConfigError("scoring needs at least one sample")
    sig_h = np.array([[sigma_head(sigma) for h0, _ in groups
                       for sigma in welford_finalize(state[h0])] for state in states])
    sig_b = np.array([sigma_block(sig_h[b]) for b in range(cfg.n_b)])
    return ScoreResult(sigma_h=sig_h, sigma_b=sig_b, n_samples=n_samples)


# ---------------------------------------------------------------------------
# Structural diagnostics
# ---------------------------------------------------------------------------

def _key_table(m: int, k: int) -> np.ndarray:
    """(k*k, n) token indices: entry [q, p] is the key that query p reads at
    kernel offset q (row-major), or -1 off the grid. These are the
    `shifted_windows` of the m x m token-index grid."""
    ids = np.arange(1, m * m + 1).reshape(m, m, 1)
    return np.stack(shifted_windows(ids, k)).reshape(k * k, m * m) - 1


def check_properties(e_samples: list, k: int, tol: float) -> dict:
    """Test attention-weight matrices for the three kernel-like properties.

    L   (locality): entries at grid offsets outside the k x k shift set stay
        within tol of zero in every sample.
    TI  (translation invariance): for each in-set offset, the weight varies
        across query positions by at most tol; only positions whose shifted
        partner is on-grid participate.
    II  (input invariance): entries vary across samples by at most tol.
    """
    if not e_samples:
        raise ConfigError("property check needs at least one sample")
    n = e_samples[0].shape[0]
    m = math.isqrt(n)
    if m * m != n or e_samples[0].shape != (n, n):
        raise ShapeError(f"weight matrices must be (m*m, m*m), got {e_samples[0].shape}")
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"kernel size must be odd and >= 1, got {k}")
    stack = np.stack([np.asarray(e, dtype=np.float64) for e in e_samples])

    ii = float((stack.max(axis=0) - stack.min(axis=0)).max()) <= tol

    local_mask = kernel_energy(np.ones((k, k)), m) > 0
    loc = float(np.abs(stack[:, ~local_mask]).max()) <= tol if (~local_mask).any() else True

    # TI holds per matrix: the offset's weight must be constant across
    # query positions within each sample (samples may differ; that is II's
    # business, not TI's).
    ti = True
    for keys in _key_table(m, k):
        on = keys >= 0
        vals = stack[:, on, keys[on]]
        if vals.size and float((vals.max(axis=1) - vals.min(axis=1)).max()) > tol:
            ti = False
            break
    return {"L": loc, "TI": ti, "II": ii}


def kernel_energy(kernel: np.ndarray, m: int) -> np.ndarray:
    """Build the weight matrix of an ideal kernel-like head.

    Row (i, j) carries kernel[r, s] at column (i+r, j+s) for every in-set,
    on-grid offset and zero elsewhere, so the matrix satisfies locality,
    translation invariance, and input invariance exactly. Interior rows of
    a stochastic kernel sum to 1; boundary rows lose the off-grid mass,
    mirroring the zero-padding rule of the convolution it equals.
    """
    k = kernel.shape[0]
    if kernel.shape != (k, k) or k % 2 == 0:
        raise ShapeError(f"kernel must be square with odd side, got {kernel.shape}")
    keys = _key_table(m, k)
    q, p = np.nonzero(keys >= 0)
    e = np.zeros((m * m, m * m), dtype=np.float64)
    e[p, keys[q, p]] = kernel.reshape(k * k)[q]
    return e.astype(np.float32)


def read_off_kernel(e: np.ndarray, m: int, k: int) -> np.ndarray:
    """Extract the shared kernel from a kernel-like weight matrix.

    Reads the in-set weights around a fully interior query position, the
    inverse of kernel_energy for matrices that satisfy the three properties.
    """
    if m < k:
        raise ConfigError(f"grid side {m} too small to host a {k}x{k} kernel")
    p = (m // 2) * m + m // 2
    return e[p, _key_table(m, k)[:, p]].reshape(k, k).astype(np.float32)


# ---------------------------------------------------------------------------
# Selection plans
# ---------------------------------------------------------------------------

MODES = ("blockwise", "scattered")
ORDERS = ("lowest", "highest")


@dataclass(frozen=True)
class SelectionPlan:
    """The chosen replacement set.

    Blockwise targets are block indices (every head of each is covered);
    scattered targets are (block, head) pairs.
    """

    mode: str
    order: str
    budget: int
    targets: tuple

    def covered_heads(self, cfg) -> set:
        if self.mode == "blockwise":
            return {(b, h) for b in self.targets for h in range(cfg.n_h)}
        return {(b, h) for b, h in self.targets}

    def blocks(self) -> tuple:
        if self.mode == "blockwise":
            return tuple(self.targets)
        return tuple(sorted({b for b, _ in self.targets}))

    def to_json(self) -> dict:
        targets = (list(self.targets) if self.mode == "blockwise"
                   else [[b, h] for b, h in self.targets])
        return {"mode": self.mode, "order": self.order,
                "budget": self.budget, "targets": targets}

    @classmethod
    def from_json(cls, d) -> "SelectionPlan":
        """A plan from its JSON form, refusing (ConfigError) a `mode` or
        `order` outside MODES/ORDERS (a missing order reads as "lowest"), a
        budget that is not an exact int, and targets that are not exact-int
        block indices (blockwise) or [block, head] pairs (scattered).
        Whether the targets exist is `dropin.planned_heads`' question."""
        if not isinstance(d, dict):
            raise ConfigError("plan must be a JSON object")
        mode, order, budget = d.get("mode"), d.get("order", "lowest"), d.get("budget")
        if mode not in MODES:
            raise ConfigError(f"plan mode must be one of {MODES}, got {mode!r}")
        if order not in ORDERS:
            raise ConfigError(f"plan order must be one of {ORDERS}, got {order!r}")
        # type() is int: JSON true/false load as bool, a subclass of int
        if type(budget) is not int:
            raise ConfigError(f"plan budget must be an integer, got {budget!r}")
        targets = d.get("targets")
        if mode == "blockwise":
            ok = isinstance(targets, list) and all(type(b) is int for b in targets)
            what = "block indices"
        else:
            ok = isinstance(targets, list) and all(
                isinstance(t, list) and len(t) == 2 and all(type(i) is int for i in t)
                for t in targets)
            what = "[block, head] pairs"
        if not ok:
            raise ConfigError(f"{mode} plan targets must be a list of integer {what}, "
                              f"got {targets!r}")
        return cls(mode=mode, order=order, budget=budget,
                   targets=tuple(t if mode == "blockwise" else tuple(t) for t in targets))


def select(scores, budget: int, mode: str = "blockwise",
           order: str = "lowest") -> SelectionPlan:
    """Pick the `budget` best-scoring units, deterministically.

    Blockwise scores are per block; scattered scores are per (block, head)
    as a 2-D array. "lowest" keeps the smallest scores (the convolution-like
    candidates); "highest" keeps the largest (the worst-candidate ablation).
    Ties break toward the lower index.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if order not in ORDERS:
        raise ConfigError(f"order must be one of {ORDERS}, got {order!r}")
    arr = np.asarray(scores, dtype=np.float64)
    if mode == "blockwise":
        if arr.ndim != 1:
            raise ShapeError("blockwise selection expects one score per block")
    elif arr.ndim != 2:
        raise ShapeError("scattered selection expects an (n_b, n_h) score array")
    if not 0 <= budget <= arr.size:
        raise ConfigError(f"budget {budget} out of range [0, {arr.size}]")
    chosen = sorted(_ranked(arr, 1.0 if order == "lowest" else -1.0)[:budget])
    if mode == "blockwise":
        targets = tuple(chosen)
    else:
        targets = tuple(divmod(i, arr.shape[1]) for i in chosen)
    return SelectionPlan(mode=mode, order=order, budget=budget, targets=targets)


def plan_to_file(plan: SelectionPlan, path, meta: dict | None = None) -> None:
    doc = plan.to_json()
    if meta:
        doc["meta"] = meta
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def plan_from_file(path) -> SelectionPlan:
    """Read a plan file; one that is not a plan (`SelectionPlan.from_json`)
    or not JSON is refused as a FormatError naming the file."""
    with open(path) as f:
        try:
            return SelectionPlan.from_json(json.load(f))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or ConfigError
            raise FormatError(f"{path}: not a plan file: {exc}") from exc


def scores_from_file(path, mode: str) -> np.ndarray:
    """The scores `select` ranks for `mode`, read from a score report:
    `sigma_b`, one per block (blockwise), or `sigma_h`, one row of head
    scores per block (scattered). A report without them, or with a score
    that is not a finite number, is refused as a FormatError naming the file."""
    key, shape = (("sigma_b", "a list") if mode == "blockwise"
                  else ("sigma_h", "equal-length rows"))
    with open(path) as f:
        try:
            report = json.load(f)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise FormatError(f"{path}: not a score report: {exc}") from exc
    scores = report.get(key) if isinstance(report, dict) else None
    rows = scores if mode != "blockwise" and isinstance(scores, list) else [scores]
    finite = (type(v) in (int, float) and math.isfinite(v) for r in rows for v in r)
    if not (all(isinstance(r, list) for r in rows) and all(finite)
            and len({len(r) for r in rows}) <= 1):
        raise FormatError(f"{path}: not a score report: {key!r} must be {shape} of "
                          "finite numbers")
    return np.asarray(scores, dtype=np.float64)


# ---------------------------------------------------------------------------
# Differentiable gating (relaxed top-k)
# ---------------------------------------------------------------------------

def _check_temperatures(*taus) -> None:
    for tau in taus:
        if not 0 < tau < math.inf:  # false for NaN too
            raise ConfigError(f"temperatures must be positive and finite, got {tau}")


@dataclass(frozen=True)
class GateParams:
    logits: np.ndarray
    budget: int
    tau0: float = 4.0
    tau_end: float = 0.05
    seed: int = 0

    def __post_init__(self):
        n = np.asarray(self.logits).shape[0]
        if not 0 < self.budget <= n:
            raise ConfigError(f"budget must be in (0, {n}], got {self.budget}")
        _check_temperatures(self.tau0, self.tau_end)


def hard_topk_gate(w, p: int) -> np.ndarray:
    """Binary mask of the p largest entries; ties keep the lower index."""
    w = np.asarray(w, dtype=np.float64).ravel()
    if not 0 < p <= w.shape[0]:
        raise ConfigError(f"p must be in (0, {w.shape[0]}], got {p}")
    mask = np.zeros(w.shape[0], dtype=np.float64)
    mask[_ranked(w, -1.0)[:p]] = 1.0
    return mask


def gumbel_noise(n: int, seed: int) -> np.ndarray:
    """Seeded standard Gumbel draws g = -log(-log(u))."""
    u = seeded_generator(seed).random(n, dtype=np.float64)
    return -np.log(-np.log(u))


def gumbel_topk_relax(w, p: int, tau: float, seed: int) -> np.ndarray:
    """Relaxed top-k weights over Gumbel-perturbed logits.

    Runs p rounds of softmax at temperature tau, each round accumulating
    the soft selection and suppressing the selected mass (softmax without
    replacement). Mid-range temperatures can push one entry's accumulated
    mass past 1, so the result is projected back: overflow is clipped and
    the deficit redistributed in proportion to remaining capacity, which
    keeps every weight in [0, 1] and the total exactly p. As tau -> 0 the
    rounds become disjoint one-hots and the projection is a no-op, leaving
    the hard mask over the same perturbed logits.
    """
    w = np.asarray(w, dtype=np.float64).ravel()
    _check_temperatures(tau)
    if not 0 < p <= w.shape[0]:
        raise ConfigError(f"p must be in (0, {w.shape[0]}], got {p}")
    z = w + gumbel_noise(w.shape[0], seed)
    cur = z.copy()
    acc = np.zeros_like(z)
    for _ in range(p):
        s = softmax64(cur / tau)
        acc += s
        with np.errstate(divide="ignore"):
            cur = cur + np.log1p(-np.minimum(s, 1.0))
    clipped = np.minimum(acc, 1.0)
    deficit = p - clipped.sum()
    if deficit > 1e-12:
        capacity = 1.0 - clipped
        clipped = clipped + deficit * capacity / capacity.sum()
    return clipped


def gated_block_forward(x: np.ndarray, block, replacement, w_bar: float) -> np.ndarray:
    """Convex gate between exact attention and its replacement.

    Returns (1 - w_bar) * MhSA(x) + w_bar * replacement(x). At w_bar exactly
    0 or 1 the untaken branch has no influence, so the taken branch is
    returned as computed.
    """
    if w_bar == 0.0:
        return vit.mhsa_forward(x, block)
    if w_bar == 1.0:
        return replacement(x)
    wb = np.float32(w_bar)
    return (np.float32(1.0) - wb) * vit.mhsa_forward(x, block) + wb * replacement(x)


def anneal_tau(step: int, total_steps: int, tau0: float, tau_end: float) -> float:
    """Exponential temperature schedule tau0 -> tau_end with exact endpoints."""
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    _check_temperatures(tau0, tau_end)
    if step == 0:
        return float(tau0)
    if step == total_steps:
        return float(tau_end)
    return float(tau0 * (tau_end / tau0) ** (step / total_steps))


def gate_trace(params: GateParams, steps: int) -> list:
    """Anneal the relaxation over a fixed Gumbel draw; one record per step.

    The perturbation is drawn once from the seed and reused, so every step
    compares against the same hard mask and the trace isolates the pure
    effect of the temperature.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    w = np.asarray(params.logits, dtype=np.float64).ravel()
    z = w + gumbel_noise(w.shape[0], params.seed)
    mask = hard_topk_gate(z, params.budget)
    trace = []
    for t in range(steps + 1):
        tau = anneal_tau(t, steps, params.tau0, params.tau_end)
        relaxed = gumbel_topk_relax(w, params.budget, tau, params.seed)
        trace.append({
            "step": t,
            "tau": tau,
            "relaxed": [float(v) for v in relaxed],
            "hard_mask": [int(v) for v in mask],
            "l1_to_hard": float(np.abs(relaxed - mask).sum()),
        })
    return trace
