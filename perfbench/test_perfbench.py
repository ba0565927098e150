"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q

They run every workload for a one-second budget (one round each), traced
and untraced, so the file takes a minute or two.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from dwdropin.archive import model_tensors  # noqa: E402
from dwdropin.vit import DESK  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def pipeline_inputs(seed: int, workdir: Path) -> tuple:
    wl = workloads.PipelineDesk(seed, str(workdir))
    wl.setup()
    return workloads.file_sha256(wl.path("model.bin")), digest(wl.pool)


def test_same_seed_same_inputs(tmp_path):
    # one directory for all: gen records its --out path in the archive
    first = pipeline_inputs(3, tmp_path / "w")
    assert pipeline_inputs(3, tmp_path / "w") == first
    other = pipeline_inputs(4, tmp_path / "w")
    assert other[0] != first[0] and other[1] != first[1]

    def forward_inputs(seed):
        wl = workloads.ForwardDesk(seed)
        wl.setup()
        return digest(wl.pool), digest(model_tensors(wl.model).values())

    assert forward_inputs(3) == forward_inputs(3)
    assert forward_inputs(3)[0] != forward_inputs(4)[0]


def test_tracer_restores_every_binding():
    targets = spans.wrap_targets(DESK)
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    tracer = spans.Tracer(DESK)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            for (module, attr, _, _), original in zip(targets, originals):
                assert getattr(module, attr) is not original
            1 / 0
    for (module, attr, _, _), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def run_bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=[w["name"] for w in DECLARED["workloads"]])
def runs(request):
    name = request.param
    return name, run_bench(name, 1, 0), run_bench(name, 1, 1), run_bench(name, 2, 1)


def test_emitted_metrics_are_declared(runs):
    _, plain, traced, _ = runs
    for doc, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        assert set(doc["metrics"]) == set(declared)
        for name, m in doc["metrics"].items():
            assert NAME.fullmatch(name), name
            assert m["unit"] == declared[name], name


EXACT_COUNTS = {
    "pipeline-desk": {"vit.matmul_per_sample": 234, "select.recompute_matmul_per_sample": 96,
                      "dropin.capture_forwards": 960},
    "forward-desk": {"vit.matmul_per_sample": 138},
    "block-vitl": {"vit.matmul_per_sample": 83},
}


def test_exact_counts_repeat(runs):
    name, _, first, second = runs
    counts = ("vit.matmul_per_sample", "select.recompute_matmul_per_sample",
              "dropin.capture_forwards", "tensor.matmul.calls", "tensor.dwconv2d.calls",
              "select.welford_update.calls", "vit.model_forward.calls")
    for c in counts:
        assert first["metrics"][c]["value"] == second["metrics"][c]["value"], c
    for c, want in EXACT_COUNTS[name].items():
        assert first["metrics"][c]["value"] == want, c


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("tmp", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "forward-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
