"""dwdropin benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload forward-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30        # every workload, one after another

With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every per-layer
metric. A run also writes perfbench/results/<workload>-seed<n>-trace<t>.json
with the provenance, per-op order statistics, the checks and, for a traced
run, the spans file next to it. Metric meanings are in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"


def import_package():
    """Import dwdropin from this checkout's source tree, never from elsewhere."""
    if not (SRC / "dwdropin" / "__init__.py").is_file():
        sys.exit(f"error: no source tree at {SRC / 'dwdropin'}; run from a dwdropin checkout")
    sys.path.insert(0, str(SRC))
    import dwdropin

    if Path(dwdropin.__file__).resolve().parent != (SRC / "dwdropin").resolve():
        sys.exit(f"error: imported dwdropin from {dwdropin.__file__}, not from {SRC}")


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def order_stats(values: list) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    arr = np.asarray(values, dtype=np.float64)
    out = {"count": int(arr.size), "median": float(np.median(arr))}
    for p in TAIL_PERCENTILES:
        if arr.size * (1.0 - p / 100.0) >= 10:
            out["tail_percentile"] = p
            out["tail"] = float(np.percentile(arr, p))
            break
    return out


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD commit read from .git without running git; the benchmark checkout
    need not be a repository, in which case the source digest identifies it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "dwdropin").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int, config: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset (OpenBLAS uses nproc threads)"),
        },
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": config,
    }


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed ops; an op fails if it raises or its check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)


def measure(wl, seconds: float, tally: Tally, tracer=None) -> dict:
    """Run rounds until `seconds` would be exceeded; at least one round.

    A new round starts only if the median round so far still fits, so a
    workload with long rounds runs the same number of them every time.
    Returns per-op durations (ns), per-op multiples of the reference time,
    and per-round totals of both (reference ops excluded). Consecutive
    reference ops form a burst whose median is the reference time; an op's
    divisor is the mean of the bursts just before and just after it in the
    same round, or the one before if none follows.
    """
    times: dict = {}
    rel: dict = {}
    rounds: list = []
    rounds_rel: list = []
    t_end = time.perf_counter() + seconds
    r = 0
    while True:
        total = total_rel = 0
        ref = None
        burst: list = []            # reference times of the current burst
        pending: list = []          # (op, ns) since the latest burst

        def settle(divisor):
            nonlocal total_rel
            for name, dt in pending:
                rel.setdefault(name, []).append(dt / divisor)
                total_rel += dt / divisor
            pending.clear()

        for op in wl.round_ops(r):
            if tracer is not None:
                tracer.set_op(op.name)
                span = tracer.begin(op.span)
            tally.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                out = op.call()
                err = None
            except Exception as exc:  # an op that raises is counted, not fatal
                out, err = None, f"{op.name}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.finish(span)
            if err is None:
                err = op.check(out)
            if err is not None:
                tally.fail(err)
            times.setdefault(op.name, []).append(t1 - t0)
            if op.reference:
                burst.append(t1 - t0)
                continue
            if burst:
                new_ref = median(burst)
                burst.clear()
                if pending:
                    settle((ref + new_ref) / 2)
                ref = new_ref
            pending.append((op.name, t1 - t0))
            total += t1 - t0
        settle((ref + median(burst)) / 2 if burst else ref)
        rounds.append(total)
        rounds_rel.append(total_rel)
        r += 1
        remaining = t_end - time.perf_counter()
        if remaining <= 0 or median(rounds) / 1e9 > remaining:
            break
    return {"times": times, "rel": rel, "rounds": rounds, "rounds_rel": rounds_rel}


def median(values) -> float:
    return statistics.median(values)


def flop_order(medians: dict, flops: dict) -> int:
    """1 if the ops' median times rank in the order of their analytic FLOPs."""
    names = sorted(flops)
    by_time = sorted(names, key=lambda v: medians[v])
    by_flops = sorted(names, key=lambda v: flops[v])
    return int(by_time == by_flops)


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    import gc

    import workloads

    workdir = str(BENCH_DIR / "tmp" / f"{name}-{os.getpid()}")
    wl = workloads.make(name, seed, workdir)
    tally = Tally()
    try:
        setup_s = []
        for _ in range(wl.setup_reps):
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        gc.collect()
        if trace:
            result = run_traced(wl, seconds, tally)
        else:
            result = {"untraced": measure(wl, seconds, tally)}
        checks = list(wl.checks())
        for check_name, ok, _ in checks:
            tally.attempted += 1
            if not ok:
                tally.fail(f"check {check_name} failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(wl=wl, tally=tally, setup_s=setup_s, checks=checks)
    return result


def run_traced(wl, seconds: int, tally: Tally) -> dict:
    """Half the time untraced, half traced; the traced rounds restart at
    round 0 so every traced output is compared bitwise with its untraced twin."""
    from spans import Tracer

    untraced = measure(wl, seconds / 2, tally)
    tracer = Tracer(wl.cfg)
    with tracer:
        traced = measure(wl, seconds / 2, tally, tracer)
    return {"untraced": untraced, "traced": traced, "tracer": tracer}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(res: dict) -> dict:
    m = res["untraced"]
    return {
        "setup_s": (median(res["setup_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "round_vs_ref": (median(m["rounds_rel"]), "x_ref"),
        "fwd_vs_ref.baseline": (median(m["rel"]["baseline"]), "x_ref"),
        "fwd_vs_ref.dw": (median(m["rel"]["dw"]), "x_ref"),
        "fwd_vs_ref.ens-dw": (median(m["rel"]["ens-dw"]), "x_ref"),
    }


def per_layer(res: dict) -> dict:
    from spans import check_sublayer_flops

    wl = res["wl"]
    tr = res["tracer"]
    s = tr.summary()
    rounds = len(res["traced"]["rounds"])
    untraced_rel = {op: median(v) for op, v in res["untraced"]["rel"].items()}

    def ms(name):
        return s.ns[name] / 1e6 / rounds

    def calls(name):
        return s.calls[name] / rounds

    def gflops(work, ns):
        return work / ns if ns else 0.0       # FLOP per ns == GFLOP/s

    def rate(name):
        return gflops(s.work[name], s.ns[name])

    def per(a, b):
        return a / b if b else 0.0

    baseline_forwards = s.op_calls[("vit.model_forward", "baseline")]
    if wl.name == "pipeline-desk":
        matmul_per_sample = per(s.score_matmuls, s.scored_samples)
    else:
        matmul_per_sample = per(s.op_calls[("tensor.matmul", "baseline")], baseline_forwards)
    flops = wl.timed_variants()
    rel = wl.rel_errs()
    forward_ns = sum(sum(v) for op, v in res["untraced"]["times"].items() if op in flops)
    forward_flops = sum(flops[op] * len(v) for op, v in res["untraced"]["times"].items()
                        if op in flops)
    overhead = (median(res["traced"]["rounds_rel"]) / median(res["untraced"]["rounds_rel"])
                - 1.0) * 100.0
    out = {
        "vit.model_forward.calls": (calls("vit.model_forward"), "count"),
        "vit.model_forward.ms": (ms("vit.model_forward"), "ms"),
        "vit.layer_norm.ms": (ms("vit.layer_norm"), "ms"),
        "vit.qkv_project.ms": (ms("vit.qkv_project"), "ms"),
        "vit.qkv_project.gflops": (rate("vit.qkv_project"), "GFLOP/s"),
        "vit.head_energy.ms": (ms("vit.head_energy"), "ms"),
        "vit.head_energy.gflops": (rate("vit.head_energy"), "GFLOP/s"),
        "vit.ev.ms": (s.ev_ns / 1e6 / rounds, "ms"),
        "vit.ev.gflops": (gflops(s.ev_work, s.ev_ns), "GFLOP/s"),
        "vit.project_heads.ms": (ms("vit.project_heads"), "ms"),
        "vit.project_heads.gflops": (rate("vit.project_heads"), "GFLOP/s"),
        "vit.ffn_forward.ms": (ms("vit.ffn_forward"), "ms"),
        "vit.ffn_forward.gflops": (rate("vit.ffn_forward"), "GFLOP/s"),
        "vit.matmul_per_sample": (matmul_per_sample, "count"),
        "tensor.matmul.calls": (calls("tensor.matmul"), "count"),
        "tensor.matmul.ms": (ms("tensor.matmul"), "ms"),
        "tensor.matmul.gflops": (rate("tensor.matmul"), "GFLOP/s"),
        "tensor.softmax_rows.calls": (calls("tensor.softmax_rows"), "count"),
        "tensor.softmax_rows.ms": (ms("tensor.softmax_rows"), "ms"),
        "tensor.dwconv2d.calls": (calls("tensor.dwconv2d"), "count"),
        "tensor.dwconv2d.ms": (ms("tensor.dwconv2d"), "ms"),
        "tensor.dwconv2d.mb_computed": (s.work["tensor.dwconv2d"] / 2**20 / rounds, "MiB"),
        "tensor.conv2d.calls": (calls("tensor.conv2d"), "count"),
        "tensor.conv2d.ms": (ms("tensor.conv2d"), "ms"),
        "tensor.conv2d.gflops": (rate("tensor.conv2d"), "GFLOP/s"),
        "select.score_model.ms": (ms("select.score_model"), "ms"),
        "select.recompute.ms": (s.recompute_ns / 1e6 / rounds, "ms"),
        "select.recompute_matmul_per_sample": (per(s.recompute_matmuls, s.scored_samples), "count"),
        "select.welford_update.calls": (calls("select.welford_update"), "count"),
        "select.welford_update.ms": (ms("select.welford_update"), "ms"),
        "dropin.capture_forwards": (s.capture_forwards / rounds, "count"),
        "dropin.capture_useful_ratio": (per(s.distinct_captures, s.capture_forwards), "ratio"),
        "dropin.attention_inputs.ms": (ms("dropin.attention_inputs"), "ms"),
        "dropin.fit_depthwise_kernel.ms": (ms("dropin.fit_depthwise_kernel"), "ms"),
        "dropin.fit_loss_and_grad.ms": (ms("dropin.fit_loss_and_grad"), "ms"),
        "dropin.attn_dw.calls": (calls("dropin.attn_dw"), "count"),
        "dropin.attn_dw.ms": (ms("dropin.attn_dw"), "ms"),
        "dropin.ensemble_weights.calls": (calls("dropin.ensemble_weights"), "count"),
        "dropin.ensemble_weights.ms": (ms("dropin.ensemble_weights"), "ms"),
        "dropin.fold_full_kernel.calls": (calls("dropin.fold_full_kernel"), "count"),
        "dropin.fold_full_kernel.ms": (ms("dropin.fold_full_kernel"), "ms"),
        "dropin.mhsa_dw_ensembled.ms": (ms("dropin.mhsa_dw_ensembled"), "ms"),
        "dropin.mhsa_convfull_ensembled.ms": (ms("dropin.mhsa_convfull_ensembled"), "ms"),
        "dropin.attn_conv_full.ms": (ms("dropin.attn_conv_full"), "ms"),
        "archive.load_archive.calls": (calls("archive.load_archive"), "count"),
        "archive.load_archive.ms": (ms("archive.load_archive"), "ms"),
        "archive.load_archive.mb": (s.work["archive.load_archive"] / rounds, "MiB"),
        "archive.save_archive.calls": (calls("archive.save_archive"), "count"),
        "archive.save_archive.ms": (ms("archive.save_archive"), "ms"),
        "archive.save_archive.mb": (s.work["archive.save_archive"] / rounds, "MiB"),
        **{f"cli.{c}.ms": (ms(f"cli.{c}"), "ms")
           for c in ("gen", "score", "plan", "replace", "verify")},
        "cli.synthetic_samples.ms": (ms("cli.synthetic_samples"), "ms"),
        "cost.forward_gflop_per_round": (forward_flops / 1e9 / len(res["untraced"]["rounds"]),
                                         "GFLOP"),
        "cost.forward_gflops": (gflops(forward_flops, forward_ns), "GFLOP/s"),
        "cost.sublayer_flops_consistent": (int(check_sublayer_flops(wl.cfg)), "bool"),
        "order.matches_flops": (flop_order(untraced_rel, flops), "bool"),
        "dropin.hybrid_rel_err.dw": (rel["dw"], "ratio"),
        "dropin.hybrid_rel_err.ens-dw": (rel["ens-dw"], "ratio"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.spans_per_round": (len(tr.start) / rounds, "count"),
    }
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def report(name: str, seed: int, seconds: int, trace: int, res: dict) -> dict:
    wl = res["wl"]
    tally = res["tally"]
    spec = declared()
    metrics = per_layer(res) if trace else end_to_end(res)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    extra = [m for m in metrics if m not in wanted]
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    bad = [m for m in wanted if not math.isfinite(metrics[m][0])]
    for m in bad:
        tally.fail(f"metric {m} is not finite")
    stats = {"untraced": {op: order_stats([t / 1e6 for t in v])
                          for op, v in res["untraced"]["times"].items()}}
    stats["untraced"]["round"] = order_stats([t / 1e6 for t in res["untraced"]["rounds"]])
    vs_ref = {op: median(v) for op, v in res["untraced"]["rel"].items()}
    vs_ref["round"] = median(res["untraced"]["rounds_rel"])
    if trace:
        stats["traced"] = {op: order_stats([t / 1e6 for t in v])
                           for op, v in res["traced"]["times"].items()}
        stats["traced"]["round"] = order_stats([t / 1e6 for t in res["traced"]["rounds"]])
    prov = provenance(name, seed, seconds, trace, wl.config())
    rel = wl.rel_errs()
    correct = tally.failed == 0 and all(ok for _, ok, _ in res["checks"])
    doc = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_ms": stats,
        "op_vs_ref": vs_ref,
        "setup_s": res["setup_s"],
        "hybrid_rel_err": rel,
        "checks": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in res["checks"]],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    if trace:
        res["tracer"].save(out_dir / f"{stem}.spans.jsonl")

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for op, st in stats["untraced"].items():
        tail = (f"  p{st['tail_percentile']:g} {st['tail']:.4f}" if "tail" in st else "")
        ratio = f"  ({vs_ref[op]:.4f} x_ref)" if op in vs_ref else ""
        print(f"  op {op:<16} median {st['median']:.4f} ms{tail}  n={st['count']}{ratio}")
    for n, ok, d in res["checks"]:
        print(f"  check {'PASS' if ok else 'FAIL'} {n}: {d}")
    for e in tally.errors:
        print(f"  error {e}")
    print("  hybrid_rel_err " + "  ".join(f"{v} {e:.6g}" for v, e in rel.items()))
    rate = tally.failed / tally.attempted
    print(f"  error_rate {rate:.6g} (failed {tally.failed} / attempted {tally.attempted})")
    for k, (v, u) in metrics.items():
        print(f"  {k:<40} {v:.6g} {u}")
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    results = {}
    for name in [w["name"] for w in declared()["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    import_package()
    if args.workload is None:
        return run_all(args)
    names = [w["name"] for w in declared()["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    line = report(args.workload, args.seed, args.seconds, args.trace, res)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
