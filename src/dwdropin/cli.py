"""Command-line pipeline: gen -> score -> plan -> replace -> verify -> cost/bench/gate.

Every command is a pure function of its flags, input files, and seeds;
outputs carry the run manifest that produced them and contain no
timestamps, so re-running reproduces them byte for byte.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import re
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__, cost, dropin, select, vit
from .archive import (
    ArchiveError,
    load_archive,
    model_from_archive,
    model_tensors,
    save_archive,
    save_model,
    write_json,
)
from .tensor import (
    ConfigError,
    FormatError,
    NonFiniteError,
    ShapeError,
    dwconv2d,
    seed_stream,
    seeded_fill,
)
from .vit import PRESETS, ModelConfig

TOOL = "dwdropin"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def run_manifest(command: str, args: argparse.Namespace) -> dict:
    """Provenance record embedded in every output artifact: command,
    resolved options (inputs, seeds, output paths), tool version. No
    timestamps, so re-running a command reproduces its outputs bitwise."""
    options = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"tool": TOOL, "version": __version__, "command": command, "options": options}


# The flags that override a --config preset, by the config field each sets.
CONFIG_FLAGS = {"blocks": "n_b", "heads": "n_h", "dim": "d", "head_dim": "d_h",
                "grid": "m", "kernel": "k", "ffn_mult": "ffn_mult"}


def refuse_unread(args, flags, unread, why: str) -> None:
    """When `unread` holds, refuse the first of `flags` given, as `--flag {why}`."""
    given = [f for f in flags if getattr(args, f, None) is not None]
    if unread and given:
        raise ConfigError(f"--{given[0].replace('_', '-')} {why}")


def refuse_next_to_model(args, flags) -> None:
    """Refuse any of `flags` given next to --model, whose archive fixes the config."""
    refuse_unread(args, flags, getattr(args, "model", None),
                  "cannot be given with --model: the archive fixes the config")


def refuse_preset_next_to_model(args) -> None:
    """Refuse --config or an override flag next to --model, and record
    --config's default (desk) for the run manifest."""
    refuse_next_to_model(args, ["config", *CONFIG_FLAGS])
    record_defaults(args, config="desk")


def config_from_args(args) -> ModelConfig:
    """The --model archive's config, next to which neither --config nor an
    override flag may be given, else the --config preset with the override
    flags applied."""
    refuse_preset_next_to_model(args)
    if getattr(args, "model", None):
        return load_archive(args.model).config
    overrides = {field: getattr(args, flag) for flag, field in CONFIG_FLAGS.items()
                 if getattr(args, flag, None) is not None}
    return dataclasses.replace(PRESETS[args.config], **overrides)


def synthetic_samples(cfg: ModelConfig, count: int, seed: int) -> Iterator[np.ndarray]:
    """Seeded gaussian token grids, one derived seed per sample, drawn
    lazily: one pass over the iterator holds one grid at a time. The
    count and the seed are checked here, before the first draw."""
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")
    seeds = seed_stream(seed)
    return (seeded_fill((cfg.n, cfg.d), next(seeds), "gaussian", 0.0, 1.0)
            for _ in range(count))


def save_samples(path, cfg: ModelConfig, samples: list, meta=None) -> None:
    tensors = {f"sample{i}": s for i, s in enumerate(samples)}
    save_archive(path, cfg, tensors, meta or {})


def load_samples(path, cfg: ModelConfig) -> list:
    """The `sample{i}` tensors of an archive in index order, refusing any
    other tensor name (`sample_x`, `sample01`, `pos_enc`)."""
    ar = load_archive(path)
    for n in ar.tensors:
        if not re.fullmatch(r"sample(0|[1-9][0-9]*)", n):
            raise ArchiveError(f"{path}: tensor {n!r} is not named sample<i> (an integer "
                               "i >= 0 without leading zeros)")
    names = sorted(ar.tensors, key=lambda n: int(n[len("sample"):]))
    if not names:
        raise ArchiveError(f"{path}: no sample tensors found")
    samples = [ar.tensors[n] for n in names]
    for s in samples:
        if s.shape != (cfg.n, cfg.d):
            raise ArchiveError(
                f"{path}: sample shape {s.shape} does not match model ({cfg.n}, {cfg.d})"
            )
    return samples


def get_samples(args, cfg: ModelConfig) -> tuple:
    """Resolve the sample source; returns (samples, source description).
    Archive samples come as a list, synthetic ones as `synthetic_samples`'
    one-pass iterator."""
    if getattr(args, "data", None):
        return load_samples(args.data, cfg), {"kind": "archive", "path": args.data}
    n = getattr(args, "samples", None)
    if n is None or n < 1:
        raise ConfigError("need --data or --samples N with N >= 1")
    seed = getattr(args, "seed", 0)
    return synthetic_samples(cfg, n, seed), {"kind": "synthetic", "n": n, "seed": seed}


def record_defaults(args, **defaults) -> None:
    """Set each omitted flag of `defaults` to its default, for the run manifest."""
    for flag, value in defaults.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)


def refuse_next_to_data(args) -> None:
    """Refuse --samples or --seed next to --data, whose archive holds the samples."""
    refuse_unread(args, ["samples", "seed"], args.data is not None,
                  "cannot be given with --data: the archive holds the samples")


def load_weights(path, purpose: str, read):
    """`read` of the archive at `path`: `model_from_archive` for a model
    archive, `dropin.hybrid_from_archive` for a hybrid or model one. Every
    refusal is an ArchiveError naming `path`; a config-only archive's says
    that `purpose` needs weights."""
    ar = load_archive(path)
    if not ar.tensors:
        raise ArchiveError(f"{path} is config-only; {purpose} needs weights")
    try:
        return read(ar)
    except ArchiveError as exc:
        raise ArchiveError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def overflow_is_file_fault(path, data=None):
    """Refuse, as an ArchiveError naming `path` (exit 3), a forward pass
    that overflows; with `data`, the sample archive it read, naming both."""
    try:
        yield
    except NonFiniteError as exc:
        source = f"{path} on the samples of {data}" if data else path
        raise ArchiveError(f"{source}: the model's forward pass overflows ({exc})") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = config_from_args(args)
    config_only = args.config_only or args.config == "vitl"
    refuse_unread(args, ["seed"], config_only,
                  "cannot be given for a config-only archive: it has no weights")
    record_defaults(args, seed=0)
    meta = {"manifest": run_manifest("gen", args)}
    if config_only:
        save_archive(args.out, cfg, {}, meta)
        print(f"wrote config-only archive {args.out} ({cfg.to_dict()})")
    else:
        model = vit.init_model(cfg, args.seed)
        save_model(args.out, model, meta)
        print(f"wrote model archive {args.out} "
              f"({len(model_tensors(model))} tensors, seed {args.seed})")
    return EXIT_OK


def cmd_score(args) -> int:
    refuse_next_to_data(args)
    if args.data is None:
        record_defaults(args, samples=256, seed=0)
    model = load_weights(args.model, "scoring", model_from_archive)
    samples, source = get_samples(args, model.config)
    with overflow_is_file_fault(args.model, args.data):
        result = select.score_model(model, samples)
    report = result.to_report(meta={"source": source,
                                    "manifest": run_manifest("score", args)})
    write_json(args.out, report)
    ranked = report["ranking_blocks"]
    print(f"scored {result.n_samples} samples; block ranking (lowest first): {ranked}")
    return EXIT_OK


def cmd_plan(args) -> int:
    scores = select.scores_from_file(args.report, args.mode)
    plan = select.select(scores, args.budget, mode=args.mode, order=args.order)
    select.plan_to_file(plan, args.out, meta={"report": args.report,
                                              "manifest": run_manifest("plan", args)})
    print(f"plan {plan.mode}/{plan.order} budget {plan.budget}: targets {list(plan.targets)}")
    return EXIT_OK


def cmd_replace(args) -> int:
    refuse_unread(args, ["samples", "data", "seed"], not args.fit, "is read only by --fit")
    refuse_next_to_data(args)
    refuse_unread(args, ["init_seed"], args.fit,
                  "cannot be given with --fit: fitted kernels are not drawn")
    record_defaults(args, seed=0, init_seed=0)
    model = load_weights(args.model, "surgery", model_from_archive)
    plan = select.plan_from_file(args.plan)
    samples = get_samples(args, model.config)[0] if args.fit else None
    with overflow_is_file_fault(args.model, args.data):
        hm, reports = dropin.build_dropins(model, plan, args.variant, args.init_seed, samples)
    for key, rep in reports.items():
        if args.variant in dropin.ENSEMBLED:
            print(f"block {key}: fitted {args.variant} kernel, "
                  f"objective {rep.objective:.6g} (zero-kernel {rep.zero_objective:.6g})")
        elif rep.ridge_channels:
            print(f"block {key[0]} head {key[1]}: ridge applied on channels "
                  f"{list(rep.ridge_channels)}")
    extra, dmeta = dropin.hybrid_tensors_meta(hm)
    tensors = {**model_tensors(model), **extra}
    meta = {"dropin": dmeta, "manifest": run_manifest("replace", args)}
    save_archive(args.out, model.config, tensors, meta)
    print(f"wrote hybrid archive {args.out} "
          f"({len(plan.covered_heads(model.config))} heads across {len(hm.dropins)} blocks, "
          f"variant {args.variant})")
    return EXIT_OK


def _max_diff_located(ref: list, got: list):
    worst = (0.0, None)
    for idx, (a, b) in enumerate(zip(ref, got)):
        diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
        dmax = float(diff.max())
        if dmax >= worst[0]:
            loc = np.unravel_index(int(diff.argmax()), diff.shape)
            worst = (dmax, (idx, *[int(i) for i in loc]))
    return worst


def shared_prefix(hm_a: dropin.HybridModel, hm_b: dropin.HybridModel) -> int:
    """How many leading blocks two hybrids of one config run bitwise alike:
    every block before the first that either replaces, when their base
    tensors (`pos_enc` and every block tensor) are bitwise identical;
    else 0."""
    tensors_b = model_tensors(hm_b.base)
    if not all(np.array_equal(a.view(np.uint32), tensors_b[name].view(np.uint32))
               for name, a in model_tensors(hm_a.base).items()):
        return 0
    return min([*hm_a.sublayers, *hm_b.sublayers, hm_a.base.config.n_b])


def verification_checks(path_a: str, path_b: str, samples_n: int, seed: int,
                        tol: float) -> list:
    """The equivalence and invariant suite behind cmd_verify."""
    if not tol >= 0:  # false for NaN too
        raise ConfigError(f"tolerance must be >= 0, got {tol}")
    hm_a = load_weights(path_a, "verification", dropin.hybrid_from_archive)
    hm_b = load_weights(path_b, "verification", dropin.hybrid_from_archive)
    model_a, cfg = hm_a.base, hm_a.base.config
    if cfg != hm_b.base.config:
        raise ConfigError("archives have different configurations")
    checks = []
    xs = list(synthetic_samples(cfg, samples_n, seed))

    # the --hybrid pass starts from the residuals the --model pass kept at
    # the end of the prefix both run alike; every --model forward runs
    # first, so an overflow names the archive it names without sharing
    shared = shared_prefix(hm_a, hm_b)
    residuals, outs_a = [], []
    with overflow_is_file_fault(path_a):
        for x in xs:
            residuals.append(vit.model_forward(x, model_a, hm_a.sublayers, stop=shared))
            outs_a.append(vit.blocks_forward(residuals[-1], model_a, shared,
                                             mhsa_fns=hm_a.sublayers))
    with overflow_is_file_fault(path_b):
        outs_b = ([vit.blocks_forward(h, hm_b.base, shared, mhsa_fns=hm_b.sublayers)
                   for h in residuals] if shared
                  else [dropin.hybrid_forward(hm_b, x) for x in xs])
    dmax, where = _max_diff_located(outs_a, outs_b)
    checks.append({"name": "forward_equivalence", "passed": dmax <= tol,
                   "max_diff": dmax, "tol": tol,
                   "where": {"sample": where[0], "token": where[1], "channel": where[2]}})

    # the oracle checks read block 0's normed input for up to 3 samples
    block = model_a.blocks[0]
    a_ins = [vit.attention_input(x + model_a.pos_enc, block) for x in xs[:3]]

    # grid-form attention evaluator vs the flattened matmul path
    worst = 0.0
    for a_in in a_ins:
        for h in range(cfg.n_h):
            q, k, v = vit.qkv_project(a_in, block, h)
            e = vit.head_energy(q, k)
            ref = vit.explicit_attention(e, vit.grid(v, cfg.m))
            got = vit.grid(vit.matmul(e, v), cfg.m)
            worst = max(worst, float(np.abs(ref - got).max()))
    checks.append({"name": "grid_attention_oracle", "passed": worst <= 1e-6,
                   "max_diff": worst, "tol": 1e-6})

    # concatenated and head-sum attention forms agree
    worst = 0.0
    for a_in in a_ins:
        worst = max(worst, float(np.abs(
            vit.mhsa_forward(a_in, block) - vit.mhsa_forward_headsum(a_in, block)
        ).max()))
    checks.append({"name": "concat_vs_headsum", "passed": worst <= 1e-5,
                   "max_diff": worst, "tol": 1e-5})

    # a channel-shared depthwise kernel equals the folded full convolution
    seeds = seed_stream(seed + 1)
    worst = 0.0
    for _ in range(5):
        x = seeded_fill((cfg.m, cfg.m, cfg.d), next(seeds), "gaussian", 0.0, 1.0)
        w_v = seeded_fill((cfg.d, cfg.d_h), next(seeds), "gaussian", 0.0, cfg.d ** -0.5)
        kern = seeded_fill((cfg.k, cfg.k), next(seeds), "gaussian", 0.0, 1.0 / cfg.k)
        shared = np.repeat(kern[:, :, None], cfg.d_h, axis=2)
        lhs = dropin.attn_dw(x, w_v, shared)
        rhs = dropin.attn_conv_full(x, dropin.fold_full_kernel(kern, w_v))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    checks.append({"name": "channel_shared_reduction", "passed": worst <= 1e-5,
                   "max_diff": worst, "tol": 1e-5})

    # a head with an ideal kernel-like weight matrix is exactly a depthwise conv
    kern = np.abs(seeded_fill((cfg.k, cfg.k), seed + 2, "uniform")) + 0.05
    kern = (kern / kern.sum()).astype(np.float32)
    e = select.kernel_energy(kern, cfg.m)
    worst = 0.0
    for _ in range(5):
        v = seeded_fill((cfg.m, cfg.m, cfg.d_h), next(seeds), "gaussian", 0.0, 1.0)
        exact = vit.explicit_attention(e, v)
        read = select.read_off_kernel(e, cfg.m, cfg.k)
        approx = dwconv2d(v, np.repeat(read[:, :, None], cfg.d_h, axis=2))
        worst = max(worst, float(np.abs(exact - approx).max()))
    checks.append({"name": "kernel_like_head_exactness", "passed": worst <= 1e-5,
                   "max_diff": worst, "tol": 1e-5})
    return checks


def cmd_verify(args) -> int:
    checks = verification_checks(args.model, args.hybrid, args.samples,
                                 args.seed, args.tol)
    ok = True
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        ok = ok and c["passed"]
        where = f" at {c['where']}" if not c["passed"] and "where" in c else ""
        print(f"{status} {c['name']}: max|diff|={c['max_diff']:.3e} tol={c['tol']:.0e}{where}")
    if args.out:
        write_json(args.out, {"checks": checks,
                              "manifest": run_manifest("verify", args)})
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_cost(args) -> int:
    refuse_unread(args, ["variant"], not (args.plan or args.sweep),
                  "is read only by --plan or --sweep")
    record_defaults(args, variant="dw")
    cfg = config_from_args(args)
    plan = select.plan_from_file(args.plan) if args.plan else None
    doc = {"variant_table": cost.variant_table(cfg),
           "manifest": run_manifest("cost", args)}
    if args.sweep:
        doc["sweep"] = cost.budget_sweep(cfg, args.variant)
    report = cost.model_cost_report(cfg, plan, args.variant)
    doc["model"] = report.to_json()
    if args.format == "table":
        print(cost.variant_table_text(cfg))
        if plan is not None:
            print()
            print(report.to_table())
        if args.sweep:
            print("\nbudget  FLOPs(G)  reduction(%)")
            for row in doc["sweep"]:
                print(f"{row['budget']:>6}  {row['flops'] / 1e9:>8.3f}  "
                      f"{row['flops_reduction_pct']:>11.2f}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        write_json(args.out, doc)
    return EXIT_OK


def single_block_bench_fns(cfg: ModelConfig, seed: int) -> dict:
    """Attention-sublayer callables for one seeded block of this config:
    the exact "mhsa" plus every drop-in variant with seeded kernels."""
    model = vit.init_model(dataclasses.replace(cfg, n_b=1), seed)
    block = model.blocks[0]
    plan = select.SelectionPlan(mode="blockwise", order="lowest", budget=1, targets=(0,))
    fns = {"mhsa": functools.partial(vit.mhsa_forward, block=block)}
    for v in dropin.VARIANTS:
        hm, _ = dropin.build_dropins(model, plan, v, seed)
        fns[v] = functools.partial(hm.sublayers[0], block=block)
    return fns


def cmd_bench(args) -> int:
    refuse_unread(args, ["variants"], args.plan,
                  "cannot be given with --plan, which times --variant")
    refuse_unread(args, ["variant"], not args.plan, "is read only by --plan")
    record_defaults(args, variant="dw", variants="mhsa,dw,ens-dw")
    if args.plan:
        # whole-model comparison: baseline forward vs the planned hybrid
        if not args.model:
            raise ConfigError("--plan benching needs --model with weights")
        refuse_preset_next_to_model(args)
        model = load_weights(args.model, "--plan benching", model_from_archive)
        cfg = model.config
        plan = select.plan_from_file(args.plan)
        hm, _ = dropin.build_dropins(model, plan, args.variant, args.seed)
        fns = {"baseline": lambda inp: vit.model_forward(inp, model),
               f"hybrid[{args.variant}]": lambda inp: dropin.hybrid_forward(hm, inp)}
    else:
        cfg = config_from_args(args)
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        if not variants:
            raise ConfigError(f"--variants {args.variants!r} names no variant")
        block_fns = single_block_bench_fns(cfg, args.seed)
        for v in variants:
            if v not in block_fns:
                raise ConfigError(f"unknown bench variant {v!r}")
        fns = {v: block_fns[v] for v in variants}
    x = seeded_fill((cfg.n, cfg.d), args.seed + 1, "gaussian", 0.0, 1.0)
    results = {}
    # the weights are the file's only with --plan; the others are seeded
    with overflow_is_file_fault(args.model) if args.plan else contextlib.nullcontext():
        for name, fn in fns.items():
            results[name] = cost.bench(fn, x, warmup=args.warmup, reps=args.reps)
    for name, r in results.items():
        print(f"{name:<18} median {r['median'] * 1e3:9.3f} ms   "
              f"p10 {r['p10'] * 1e3:9.3f}   p90 {r['p90'] * 1e3:9.3f}")
    if args.out:
        write_json(args.out, {"config": cfg.to_dict(), "results": results,
                              "manifest": run_manifest("bench", args)})
    return EXIT_OK


def cmd_gate(args) -> int:
    refuse_next_to_model(args, ["blocks"])
    n_b = load_archive(args.model).config.n_b if args.model else args.blocks
    if n_b is None:
        raise ConfigError("need --model or --blocks to size the gate")
    if n_b < 1:
        raise ConfigError(f"--blocks must be >= 1, got {n_b}")
    params = select.GateParams(logits=np.zeros(n_b), budget=args.budget,
                               tau0=args.tau0, tau_end=args.tau_end, seed=args.seed)
    trace = select.gate_trace(params, args.steps)
    final = trace[-1]
    doc = {"n_b": n_b, "budget": args.budget, "trace": trace,
           "final_mask": final["hard_mask"],
           "manifest": run_manifest("gate", args)}
    if args.out:
        write_json(args.out, doc)
    print(f"step {trace[0]['step']:>4}: tau={trace[0]['tau']:.4f} "
          f"L1(relaxed, hard)={trace[0]['l1_to_hard']:.4f}")
    print(f"step {final['step']:>4}: tau={final['tau']:.4f} "
          f"L1(relaxed, hard)={final['l1_to_hard']:.6f}")
    print(f"selected blocks: {[i for i, v in enumerate(final['hard_mask']) if v]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class Parser(argparse.ArgumentParser):
    """argparse takes `-1e-6` or `-inf` after a flag for an option and
    stops with "expected one argument"; this parser reads every negative
    number `float` accepts as a value, so it reaches the command's own
    check. It replaces argparse's private `_negative_number_matcher`
    (an instance attribute in Python 3.10 to 3.13); subcommand parsers are
    made of the same class."""

    NEGATIVE_NUMBER = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self.NEGATIVE_NUMBER


def _add_config_flags(p):
    p.add_argument("--config", choices=sorted(PRESETS), help="preset (default desk)")
    p.add_argument("--blocks", type=int, help="override block count")
    p.add_argument("--heads", type=int, help="override heads per block")
    p.add_argument("--dim", type=int, help="override embedding dim")
    p.add_argument("--head-dim", dest="head_dim", type=int)
    p.add_argument("--grid", type=int, help="override grid side m")
    p.add_argument("--kernel", type=int, help="override kernel size k")
    p.add_argument("--ffn-mult", dest="ffn_mult", type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = Parser(prog=TOOL, description=__doc__)
    ap.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded model archive")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, help="weight seed (default 0)")
    p.add_argument("--config-only", action="store_true",
                   help="write the config without weights (implied by --config vitl)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("score", help="variance-score every head over samples")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", type=int, help="synthetic sample count (default 256)")
    p.add_argument("--seed", type=int, help="synthetic sample seed (default 0)")
    p.add_argument("--data", help="sample archive instead of synthetic inputs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("plan", help="turn a score report into a replacement plan")
    p.add_argument("--report", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--mode", choices=select.MODES, default="blockwise")
    p.add_argument("--order", choices=select.ORDERS, default="lowest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("replace", help="swap planned heads for convolutions")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--variant", choices=dropin.VARIANTS, default="dw")
    p.add_argument("--fit", action="store_true",
                   help="least-squares fit kernels against the exact heads")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data")
    p.add_argument("--init-seed", dest="init_seed", type=int,
                   help="seed of unfitted kernels (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replace)

    p = sub.add_parser("verify", help="equivalence + invariant checks on two archives")
    p.add_argument("--model", required=True)
    p.add_argument("--hybrid", required=True)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cost", help="FLOP/parameter accounting")
    _add_config_flags(p)
    p.add_argument("--model", help="read the config from an archive instead")
    p.add_argument("--plan")
    p.add_argument("--variant", choices=dropin.VARIANTS,
                   help="with --plan or --sweep: the variant priced (default dw)")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--sweep", action="store_true",
                   help="emit the FLOPs-vs-budget curve for blockwise replacement")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("bench", help="wall-clock comparison (single block, or "
                                     "baseline-vs-hybrid with --plan)")
    _add_config_flags(p)
    p.add_argument("--model")
    p.add_argument("--plan", help="time the whole model against this plan's hybrid")
    p.add_argument("--variant", choices=dropin.VARIANTS,
                   help="with --plan: the hybrid's variant (default dw)")
    p.add_argument("--variants", help="single-block mode: which attention choices to time "
                                      "(default mhsa,dw,ens-dw)")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gate", help="relaxed top-k gate annealing trace")
    p.add_argument("--model")
    p.add_argument("--blocks", type=int)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--tau0", type=float, default=4.0)
    p.add_argument("--tau-end", dest="tau_end", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gate)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # finiteness is checked explicitly (NonFiniteError), so numpy's
        # floating-point warnings would only add stray stderr lines
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
