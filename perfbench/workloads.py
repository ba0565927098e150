"""The benchmark's workloads, built only from the package's public entry points.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned, as in the offline tools the package serves.
A workload builds its inputs from the workload seed alone, then yields
rounds of named ops. Each op returns its output, which the runner checks
outside the timed region.

  pipeline-desk  the README's CLI loop through `cli.main`, then a held-out
                 comparison of the fitted hybrids against the exact model
  forward-desk   model_forward / hybrid_forward at the desk shape, every
                 variant at full budget plus a partial (scattered) dw plan
  block-vitl     one block at the vitl shape: exact attention, dw, ens-dw

Drop-ins are built only with init_model, init_kernel and replace_heads (or
by the CLI), and run only through model_forward and hybrid_forward, so a
later change to how drop-ins are built or fused is measured through the
path users call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dwdropin import archive, cli, cost, dropin, select, vit
from dwdropin.select import SelectionPlan
from dwdropin.tensor import seed_stream, seeded_fill
from dwdropin.vit import DESK, VITL, ModelConfig
from reference import REFERENCE_RTOL, reference_forward

# dw and ens-dw kernels in forward-desk are channel repeats of the convfull
# and ens-convfull kernels, so the two formulations must agree up to float32
# reassociation; measured max relative gap is ~1e-7.
FORMULATION_RTOL = 1e-5
# What a model archive's CLI commands may exit with: 0 ok; verify 1 is a
# documented tolerance failure (the README's --tol 0.5 on a fitted hybrid).
CLI_CODES = {"gen": {0}, "score": {0}, "plan": {0}, "replace": {0}, "verify": {0, 1}}
VERIFY_INVARIANTS = ("grid_attention_oracle", "concat_vs_headsum",
                     "channel_shared_reduction", "kernel_like_head_exactness")


@dataclass
class Op:
    """One timed call: `call()` returns the output that `check` inspects.

    A reference op times `reference_forward`; every other op's time is also
    recorded as a multiple of the latest reference time.
    """

    name: str                           # timing key, e.g. "dw" or "replace-dw"
    span: str                           # span name in the traced run
    call: Callable[[], object]
    check: Callable[[object], str | None]
    reference: bool = False


def reference_op(model, x, log, key) -> Op:
    return Op("reference", "op.reference", lambda: reference_forward(x, model),
              log.checker("reference", key), reference=True)


def agreement(log, op: str, ref_op: str, name: str, rtol: float) -> tuple:
    """Check that `op`'s logged outputs match `ref_op`'s within `rtol`."""
    gap = log.gap(op, ref_op)
    return (name, bool(gap <= rtol), f"relative gap {gap:.3e} <= {rtol:g}")


def derived_seeds(seed: int, count: int) -> list:
    gen = seed_stream(seed)
    return [next(gen) % 2**31 for _ in range(count)]


def sample_pool(cfg: ModelConfig, count: int, seed: int) -> list:
    """Distinct seeded gaussian token grids, one derived seed each."""
    return [seeded_fill((cfg.n, cfg.d), s, "gaussian", 0.0, 1.0)
            for s in derived_seeds(seed, count)]


def rel_err(got: list, ref: list) -> float:
    """||got - ref||_2 / ||ref||_2 over all samples together, in float64."""
    num = sum(float(np.sum((g.astype(np.float64) - r.astype(np.float64)) ** 2))
              for g, r in zip(got, ref))
    den = sum(float(np.sum(r.astype(np.float64) ** 2)) for r in ref)
    return float(np.sqrt(num / den))


def forward_flops(cfg: ModelConfig, plan, variant: str) -> int:
    """Analytic FLOPs of one forward of `variant` under `plan`, from
    cost.model_cost_report; "baseline" has no plan, "scattered-dw" is dw."""
    if variant == "baseline":
        return cost.model_cost_report(cfg).totals["flops"]
    return cost.model_cost_report(cfg, plan, variant.removeprefix("scattered-")).totals["flops"]


class OutputLog:
    """First output seen per (op, key); later outputs must match it bitwise."""

    def __init__(self, shape):
        self.shape = shape
        self.first: dict = {}

    def checker(self, op: str, key):
        def check(out):
            if not isinstance(out, np.ndarray) or out.shape != self.shape:
                return f"{op}: output shape {getattr(out, 'shape', None)} != {self.shape}"
            if not np.all(np.isfinite(out)):
                return f"{op}: non-finite output"
            ref = self.first.setdefault((op, key), out)
            if ref is not out and not np.array_equal(ref, out):
                return f"{op}: output for input {key} differs from its first run"
            return None
        return check

    def outputs(self, op: str) -> dict:
        return {k: v for (o, k), v in self.first.items() if o == op}

    def gap(self, op: str, ref_op: str) -> float:
        """rel_err of `op` against `ref_op` over the inputs both have seen."""
        got, ref = self.outputs(op), self.outputs(ref_op)
        keys = sorted(set(got) & set(ref))
        if not keys:
            return float("nan")
        return rel_err([got[k] for k in keys], [ref[k] for k in keys])


class Workload:
    """What every workload has: a base model, hybrids of it and an output log."""

    def forward(self, variant: str, x):
        if variant == "baseline":
            return vit.model_forward(x, self.model)
        return dropin.hybrid_forward(self.hybrids[variant], x)

    def rel_errs(self) -> dict:
        return {v: self.log.gap(v, "baseline") for v in ("dw", "ens-dw")}


class ForwardWorkload(Workload):
    """Interleaved model_forward / hybrid_forward calls over a sample pool."""

    def __init__(self, name: str, cfg: ModelConfig, seed: int, pool: int,
                 setup_reps: int):
        self.name = name
        self.cfg = cfg
        self.seed = seed
        self.pool_size = pool
        self.setup_reps = setup_reps
        self.log = OutputLog((cfg.n, cfg.d))

    def config(self) -> dict:
        return {"model": self.cfg.to_dict(), "pool": self.pool_size,
                "variants": list(self.variants())}

    def setup(self) -> None:
        model_seed, kernel_seed, pool_seed = derived_seeds(self.seed, 3)
        self.model = vit.init_model(self.cfg, model_seed)
        self.pool = sample_pool(self.cfg, self.pool_size, pool_seed)
        self.hybrids, self.plans = self.build_hybrids(kernel_seed)
        for v in self.variants():
            self.forward(v, self.pool[0])

    def round_ops(self, r: int) -> list:
        key = r % self.pool_size
        x = self.pool[key]
        names = list(self.variants())
        shift = r % len(names)
        return [reference_op(self.model, x, self.log, key)] + [
            Op(v, f"op.{v}", (lambda v=v: self.forward(v, x)), self.log.checker(v, key))
            for v in names[shift:] + names[:shift]]

    def timed_variants(self) -> dict:
        """Variant -> analytic FLOPs per forward, for the FLOP-order check."""
        return {v: forward_flops(self.cfg, self.plans.get(v), v) for v in self.variants()}

    def checks(self) -> list:
        x = self.pool[0]
        empty = dropin.replace_heads(
            self.model, SelectionPlan("blockwise", "lowest", 0, ()), {})
        same = np.array_equal(dropin.hybrid_forward(empty, x), vit.model_forward(x, self.model))
        return [("empty_plan_bitwise", same, "empty-plan hybrid_forward == model_forward"),
                agreement(self.log, "baseline", "reference", "reference_matches_model_forward",
                          REFERENCE_RTOL)]


class ForwardDesk(ForwardWorkload):
    def __init__(self, seed: int):
        super().__init__("forward-desk", DESK, seed, pool=16, setup_reps=7)

    @staticmethod
    def variants():
        return ("baseline", "dw", "convfull", "ens-dw", "ens-convfull", "scattered-dw")

    def build_hybrids(self, seed: int):
        cfg = self.cfg
        seeds = seed_stream(seed)
        full = SelectionPlan("blockwise", "lowest", cfg.n_b, tuple(range(cfg.n_b)))
        shared = [[dropin.init_kernel("convfull", cfg, next(seeds)) for _ in range(cfg.n_h)]
                  for _ in range(cfg.n_b)]
        ens = [dropin.init_kernel("ens-convfull", cfg, next(seeds)) for _ in range(cfg.n_b)]
        gammas = [seeded_fill((cfg.n_h,), next(seeds)) for _ in range(cfg.n_b)]
        picks = [sorted(np.random.Generator(np.random.PCG64(next(seeds)))
                        .permutation(cfg.n_h)[: cfg.n_h // 2].tolist())
                 for _ in range(cfg.n_b)]
        scattered = SelectionPlan("scattered", "lowest", sum(map(len, picks)),
                                  tuple((b, h) for b in range(cfg.n_b) for h in picks[b]))

        def rep(kern):
            return np.repeat(kern[:, :, None], cfg.d_h, axis=2)

        params = {
            "convfull": {b: dropin.BlockDropin("convfull", head_kernels=dict(enumerate(shared[b])))
                         for b in range(cfg.n_b)},
            "dw": {b: dropin.BlockDropin("dw", head_kernels={h: rep(k)
                                                              for h, k in enumerate(shared[b])})
                   for b in range(cfg.n_b)},
            "ens-convfull": {b: dropin.BlockDropin("ens-convfull", gamma=gammas[b], kernel=ens[b])
                             for b in range(cfg.n_b)},
            "ens-dw": {b: dropin.BlockDropin("ens-dw", gamma=gammas[b], kernel=rep(ens[b]))
                       for b in range(cfg.n_b)},
            "scattered-dw": {b: dropin.BlockDropin("dw", head_kernels={h: rep(shared[b][h])
                                                                        for h in picks[b]})
                             for b in range(cfg.n_b)},
        }
        plans = {v: (scattered if v == "scattered-dw" else full) for v in params}
        hybrids = {v: dropin.replace_heads(self.model, plans[v], p) for v, p in params.items()}
        return hybrids, plans

    def checks(self) -> list:
        return super().checks() + [
            agreement(self.log, dw, full, f"{dw}_equals_{full}", FORMULATION_RTOL)
            for dw, full in (("dw", "convfull"), ("ens-dw", "ens-convfull"))]


class BlockVitl(ForwardWorkload):
    def __init__(self, seed: int):
        # n_b is 1: all 24 vitl blocks would hold about 1.2 GB of weights.
        cfg = ModelConfig(**{**VITL.to_dict(), "n_b": 1})
        super().__init__("block-vitl", cfg, seed, pool=4, setup_reps=3)

    @staticmethod
    def variants():
        return ("baseline", "dw", "ens-dw")

    def build_hybrids(self, seed: int):
        cfg = self.cfg
        seeds = seed_stream(seed)
        plan = SelectionPlan("blockwise", "lowest", 1, (0,))
        dw = {0: dropin.BlockDropin("dw", head_kernels={
            h: dropin.init_kernel("dw", cfg, next(seeds)) for h in range(cfg.n_h)})}
        ens = {0: dropin.BlockDropin("ens-dw", gamma=seeded_fill((cfg.n_h,), next(seeds)),
                                     kernel=dropin.init_kernel("ens-dw", cfg, next(seeds)))}
        hybrids = {"dw": dropin.replace_heads(self.model, plan, dw),
                   "ens-dw": dropin.replace_heads(self.model, plan, ens)}
        return hybrids, {"dw": plan, "ens-dw": plan}


def file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class PipelineDesk(Workload):
    """gen -> score -> plan -> replace --fit (dw, ens-dw) -> verify, in-process."""

    SCORE_SAMPLES = 256
    FIT_SAMPLES = 64
    VERIFY_SAMPLES = 8
    HELD_OUT = 48
    BUDGET = 3
    BURST = 5

    def __init__(self, seed: int, workdir: str):
        self.name = "pipeline-desk"
        self.cfg = DESK
        self.seed = seed
        self.setup_reps = 7
        self.dir = workdir
        (self.gen_seed, self.score_seed, self.fit_seed, self.verify_seed,
         self.pool_seed) = derived_seeds(seed, 5)
        self.log = OutputLog((DESK.n, DESK.d))
        self.hashes: dict = {}
        self.cli_output: dict = {}
        self.verify_reports: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def config(self) -> dict:
        return {"model": self.cfg.to_dict(), "argv": self.commands(), "held_out": self.HELD_OUT}

    def commands(self) -> dict:
        p = self.path
        return {
            "gen": ["gen", "--config", "desk", "--seed", str(self.gen_seed),
                    "--out", p("model.bin")],
            "score": ["score", "--model", p("model.bin"), "--samples", str(self.SCORE_SAMPLES),
                      "--seed", str(self.score_seed), "--out", p("report.json")],
            "plan": ["plan", "--report", p("report.json"), "--budget", str(self.BUDGET),
                     "--mode", "blockwise", "--order", "lowest", "--out", p("plan.json")],
            **{f"replace-{v}": ["replace", "--model", p("model.bin"), "--plan", p("plan.json"),
                                "--variant", v, "--fit", "--samples", str(self.FIT_SAMPLES),
                                "--seed", str(self.fit_seed), "--out", p(f"hybrid-{v}.bin")]
               for v in ("dw", "ens-dw")},
            **{f"verify-{v}": ["verify", "--model", p("model.bin"),
                               "--hybrid", p(f"hybrid-{v}.bin"),
                               "--samples", str(self.VERIFY_SAMPLES),
                               "--seed", str(self.verify_seed),
                               "--tol", "0.5", "--out", p(f"verify-{v}.json")]
               for v in ("dw", "ens-dw")},
        }

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        code = self.run_cli(self.commands()["gen"])
        if code != 0:
            raise RuntimeError(f"gen exited {code} during setup")
        self.archive = archive.load_archive(self.path("model.bin"))
        self.model = vit.init_model(DESK, self.gen_seed)
        self.pool = sample_pool(DESK, self.HELD_OUT, self.pool_seed)

    def run_cli(self, argv: list) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        self.cli_output[argv[0]] = out.getvalue() + err.getvalue()
        return code

    def cli_check(self, name: str, argv: list):
        """Exit code allowed, --out file as in the first round, verify invariants pass."""
        allowed = CLI_CODES[argv[0]]
        out_file = argv[argv.index("--out") + 1]

        def check(code):
            if code not in allowed:
                return (f"{name}: exit code {code} not in {sorted(allowed)}: "
                        f"{self.cli_output.get(argv[0], '')[-500:]}")
            digest = file_sha256(out_file)
            if self.hashes.setdefault(name, digest) != digest:
                return f"{name}: {out_file} differs from its first run (SHA-256)"
            if argv[0] == "verify":
                with open(out_file) as fh:
                    report = json.load(fh)
                self.verify_reports[name] = report
                failed = [c["name"] for c in report["checks"]
                          if c["name"] in VERIFY_INVARIANTS and not c["passed"]]
                if failed or {c["name"] for c in report["checks"]} < set(VERIFY_INVARIANTS):
                    return f"{name}: invariant checks failed or missing: {failed}"
            return None
        return check

    def load_hybrids(self) -> dict:
        """Rebuild both fitted hybrids from their archives through replace_heads."""
        plan = select.plan_from_file(self.path("plan.json"))
        hybrids = {}
        for v in ("dw", "ens-dw"):
            t = archive.load_archive(self.path(f"hybrid-{v}.bin")).tensors
            params = {}
            for b in plan.blocks():
                if v == "ens-dw":
                    params[b] = dropin.BlockDropin(v, gamma=t[f"dropin.block{b}.gamma"],
                                                   kernel=t[f"dropin.block{b}.K_ens"])
                else:
                    params[b] = dropin.BlockDropin(v, head_kernels={
                        h: t[f"dropin.block{b}.head{h}.K"] for h in range(DESK.n_h)})
            hybrids[v] = dropin.replace_heads(self.model, plan, params)
        self.plan = plan
        self.hybrids = hybrids
        return hybrids

    def round_ops(self, r: int) -> list:
        cmds = self.commands()
        # A burst of reference forwards around every CLI command: the commands
        # last seconds, so each is set against the host's speed on both sides.
        ops = []
        for i, (name, argv) in enumerate(cmds.items()):
            ops += self.reference_burst(i)
            ops.append(Op(name, f"cli.{argv[0]}", (lambda argv=argv: self.run_cli(argv)),
                          self.cli_check(name, argv)))
        ops += self.reference_burst(len(cmds))
        ops.append(Op("load-hybrids", "op.load-hybrids", self.load_hybrids,
                      lambda h: None if set(h) == {"dw", "ens-dw"} else "hybrids missing"))
        for key, x in enumerate(self.pool):
            ops.append(reference_op(self.model, x, self.log, key))
            for v in ("baseline", "dw", "ens-dw"):
                ops.append(Op(v, f"op.{v}", (lambda v=v, x=x: self.forward(v, x)),
                              self.log.checker(v, key)))
        return ops

    def reference_burst(self, i: int) -> list:
        keys = range(i * self.BURST, (i + 1) * self.BURST)
        return [reference_op(self.model, self.pool[k % self.HELD_OUT], self.log, k % self.HELD_OUT)
                for k in keys]

    def timed_variants(self) -> dict:
        plan = getattr(self, "plan", None)
        return {v: forward_flops(DESK, plan, v) for v in ("baseline", "dw", "ens-dw")}

    def checks(self) -> list:
        expect = archive.model_tensors(self.model)
        same = (list(expect) == [n for n in self.archive.tensors]
                and all(np.array_equal(expect[n], self.archive.tensors[n]) for n in expect))
        out = [("gen_matches_init_model", same,
                "gen's archive holds init_model's tensors bitwise")]
        plan = getattr(self, "plan", None)
        out.append(("plan_budget", plan is not None and len(plan.blocks()) == self.BUDGET,
                    f"plan replaces {self.BUDGET} blocks"))
        drift = {k: next(c["max_diff"] for c in rep["checks"] if c["name"] == "forward_equivalence")
                 for k, rep in self.verify_reports.items()}
        out.append(("verify_drift_finite", bool(drift) and all(np.isfinite(list(drift.values()))),
                    f"verify forward_equivalence max|diff|: {drift}"))
        out.append(agreement(self.log, "baseline", "reference",
                             "reference_matches_model_forward", REFERENCE_RTOL))
        return out


WORKLOADS = ("pipeline-desk", "forward-desk", "block-vitl")


def make(name: str, seed: int, workdir: str):
    if name == "pipeline-desk":
        return PipelineDesk(seed, workdir)
    if name == "forward-desk":
        return ForwardDesk(seed)
    if name == "block-vitl":
        return BlockVitl(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
