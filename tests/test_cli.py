import hashlib
import json

import numpy as np
import pytest

import dwdropin
from dwdropin import dropin, vit
from dwdropin.archive import load_archive, model_from_archive, model_tensors, save_archive, save_model
from dwdropin.cli import main, save_samples, single_block_bench_fns
from dwdropin.select import SelectionPlan, plan_to_file

from conftest import TINY, make_inputs, rewrite_manifest


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


TINY_FLAGS = ("--blocks", 2, "--heads", 2, "--dim", 8, "--head-dim", 4,
              "--grid", 4, "--ffn-mult", 2)


class TestGen:
    def test_rerun_reproduces_archive_bitwise(self, tmp_path):
        out = tmp_path / "a.bin"
        assert run("gen", "--seed", 5, "--out", out, *TINY_FLAGS) == 0
        first = sha256(out)
        assert run("gen", "--seed", 5, "--out", out, *TINY_FLAGS) == 0
        assert sha256(out) == first
        assert run("gen", "--seed", 6, "--out", out, *TINY_FLAGS) == 0
        assert sha256(out) != first

    def test_desk_inventory(self, tmp_path):
        out = tmp_path / "m.bin"
        assert run("gen", "--config", "desk", "--seed", 1, "--out", out) == 0
        ar = load_archive(out)
        assert ar.config == vit.DESK
        names = set(ar.tensors)
        assert "pos_enc" in names
        for b in range(vit.DESK.n_b):
            for t in ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_w2"):
                assert f"block{b}.{t}" in names
        assert len(names) == 1 + 10 * vit.DESK.n_b
        assert ar.meta["manifest"]["command"] == "gen"

    def test_vitl_is_config_only(self, tmp_path):
        out = tmp_path / "v.bin"
        assert run("gen", "--config", "vitl", "--out", out) == 0
        ar = load_archive(out)
        assert ar.config == vit.VITL and not ar.tensors

    def test_invalid_dims_usage_error(self, tmp_path):
        code = run("gen", "--dim", 7, "--head-dim", 4, "--out", tmp_path / "x.bin")
        assert code == 2


@pytest.fixture()
def tiny_archive(tmp_path):
    out = tmp_path / "model.bin"
    assert run("gen", "--seed", 7, "--out", out, *TINY_FLAGS) == 0
    return out


class TestScore:
    def test_report_contents(self, tmp_path, tiny_archive):
        rep = tmp_path / "report.json"
        assert run("score", "--model", tiny_archive, "--samples", 4, "--seed", 3,
                   "--out", rep) == 0
        doc = json.loads(rep.read_text())
        assert len(doc["sigma_b"]) == 2
        assert doc["meta"]["source"]["kind"] == "synthetic"
        assert doc["meta"]["manifest"]["command"] == "score"

    def test_uniform_attention_block_ranks_first(self, tmp_path):
        model = vit.init_model(vit.DESK, 8)
        model.blocks[4].w_q[:] = 0
        marchive = tmp_path / "m.bin"
        save_model(marchive, model)
        rep = tmp_path / "r.json"
        assert run("score", "--model", marchive, "--samples", 5, "--out", rep) == 0
        doc = json.loads(rep.read_text())
        assert doc["ranking_blocks"][0] == 4

    def test_zero_samples_usage_error(self, tmp_path, tiny_archive):
        assert run("score", "--model", tiny_archive, "--samples", 0,
                   "--out", tmp_path / "r.json") == 2

    def test_malformed_archive_io_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"this is not an archive at all")
        assert run("score", "--model", bad, "--samples", 2,
                   "--out", tmp_path / "r.json") == 3

    def test_data_archive_source(self, tmp_path, tiny_archive):
        samples = make_inputs(TINY, 3, 77)
        data = tmp_path / "samples.bin"
        save_samples(data, TINY, samples)
        rep = tmp_path / "r.json"
        assert run("score", "--model", tiny_archive, "--data", data, "--out", rep) == 0
        assert json.loads(rep.read_text())["n_samples"] == 3


class TestPlan:
    @pytest.fixture()
    def report(self, tmp_path, tiny_archive):
        rep = tmp_path / "report.json"
        run("score", "--model", tiny_archive, "--samples", 4, "--out", rep)
        return rep

    def test_budget_selects_smallest(self, tmp_path, report):
        plan = tmp_path / "plan.json"
        assert run("plan", "--report", report, "--budget", 1, "--out", plan) == 0
        doc = json.loads(plan.read_text())
        scores = json.loads(report.read_text())["sigma_b"]
        assert doc["targets"] == [int(np.argmin(scores))]

    def test_full_budget_all_blocks(self, tmp_path, report):
        plan = tmp_path / "plan.json"
        assert run("plan", "--report", report, "--budget", 2, "--out", plan) == 0
        assert json.loads(plan.read_text())["targets"] == [0, 1]

    def test_highest_is_complement(self, tmp_path, report):
        lo, hi = tmp_path / "lo.json", tmp_path / "hi.json"
        run("plan", "--report", report, "--budget", 1, "--order", "lowest", "--out", lo)
        run("plan", "--report", report, "--budget", 1, "--order", "highest", "--out", hi)
        t_lo = set(json.loads(lo.read_text())["targets"])
        t_hi = set(json.loads(hi.read_text())["targets"])
        assert t_lo | t_hi == {0, 1} and t_lo.isdisjoint(t_hi)

    def test_scattered_mode(self, tmp_path, report):
        plan = tmp_path / "plan.json"
        assert run("plan", "--report", report, "--budget", 3, "--mode", "scattered",
                   "--out", plan) == 0
        doc = json.loads(plan.read_text())
        assert len(doc["targets"]) == 3 and all(len(t) == 2 for t in doc["targets"])

    def test_half_of_24_blocks_takes_the_12_smallest(self, tmp_path):
        # synthetic 24-block report; the plan must pick the 12 smallest scores
        gen = np.random.Generator(np.random.PCG64(8))
        scores = gen.permutation(np.arange(24, dtype=float))
        rep = tmp_path / "r.json"
        rep.write_text(json.dumps({"sigma_b": scores.tolist(),
                                   "sigma_h": [[s] for s in scores]}))
        plan = tmp_path / "p.json"
        assert run("plan", "--report", rep, "--budget", 12, "--out", plan) == 0
        chosen = json.loads(plan.read_text())["targets"]
        assert sorted(chosen) == sorted(np.argsort(scores)[:12].tolist())


class TestReplace:
    def test_empty_plan_forward_equivalent(self, tmp_path, tiny_archive):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 0, ()), plan)
        out = tmp_path / "hybrid.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--out", out) == 0
        base = model_from_archive(load_archive(tiny_archive))
        ar = load_archive(out)
        hm = dropin.hybrid_from_archive(ar, model_from_archive(ar))
        x = make_inputs(TINY, 1, 99)[0]
        np.testing.assert_array_equal(dropin.hybrid_forward(hm, x),
                                      vit.model_forward(x, base))

    def test_fit_beats_random_init(self, tmp_path, tiny_archive):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        fitted, seeded = tmp_path / "fit.bin", tmp_path / "rand.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--variant", "dw",
                   "--fit", "--samples", 4, "--seed", 21, "--out", fitted) == 0
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--variant", "dw",
                   "--init-seed", 5, "--out", seeded) == 0
        base = model_from_archive(load_archive(tiny_archive))

        def max_gap(path):
            ar = load_archive(path)
            hm = dropin.hybrid_from_archive(ar, model_from_archive(ar))
            gaps = []
            for x in make_inputs(TINY, 4, 21):
                gaps.append(float(np.abs(dropin.hybrid_forward(hm, x)
                                         - vit.model_forward(x, base)).max()))
            return max(gaps)

        assert max_gap(fitted) < max_gap(seeded)

    def test_ensembled_scattered_refused(self, tmp_path, tiny_archive):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("scattered", "lowest", 1, ((0, 0),)), plan)
        assert run("replace", "--model", tiny_archive, "--plan", plan,
                   "--variant", "ens-dw", "--out", tmp_path / "h.bin") == 2

    @pytest.mark.parametrize("variant", ["dw", "ens-dw"])
    @pytest.mark.parametrize("target", [99, -1])
    def test_fit_nonexistent_block_usage_error(self, tmp_path, tiny_archive, capsys,
                                               variant, target):
        # refused with one error line before any kernel is fitted
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (target,)), plan)
        out = tmp_path / "h.bin"
        capsys.readouterr()
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--variant", variant,
                   "--fit", "--samples", 2, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: plan targets nonexistent head (block {target},")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_ensembled_blockwise_accepted(self, tmp_path, tiny_archive):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (1,)), plan)
        out = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan,
                   "--variant", "ens-dw", "--out", out) == 0
        ar = load_archive(out)
        assert "dropin.block1.gamma" in ar.tensors
        assert "dropin.block1.K_ens" in ar.tensors

    def test_written_kernels_roundtrip_bitwise(self, tmp_path, tiny_archive):
        # the archive hands back exactly the kernels surgery planted
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        out = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan,
                   "--variant", "dw", "--init-seed", 31, "--out", out) == 0
        from dwdropin.tensor import seed_stream
        seeds = seed_stream(31)
        expected = {h: dropin.init_kernel("dw", TINY, next(seeds))
                    for h in range(TINY.n_h)}
        ar = load_archive(out)
        for h in range(TINY.n_h):
            np.testing.assert_array_equal(
                ar.tensors[f"dropin.block0.head{h}.K"], expected[h])


class TestVerify:
    def test_identical_archives_pass(self, tmp_path, tiny_archive, capsys):
        assert run("verify", "--model", tiny_archive, "--hybrid", tiny_archive,
                   "--samples", 2, "--tol", 1e-6) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_corrupted_kernel_fails_with_location(self, tmp_path, tiny_archive, capsys):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        hybrid = tmp_path / "h.bin"
        run("replace", "--model", tiny_archive, "--plan", plan, "--init-seed", 9,
            "--out", hybrid)
        ar = load_archive(hybrid)
        ar.tensors["dropin.block0.head0.K"] = ar.tensors["dropin.block0.head0.K"] + 10.0
        corrupted = tmp_path / "bad.bin"
        save_archive(corrupted, ar.config, ar.tensors, ar.meta)
        assert run("verify", "--model", hybrid, "--hybrid", corrupted,
                   "--samples", 2, "--tol", 1e-5) == 1
        out = capsys.readouterr().out
        assert "FAIL forward_equivalence" in out and "sample" in out

    def test_shared_kernel_dw_matches_convfull_hybrid(self, tmp_path, tiny_archive):
        """The channel-shared depthwise hybrid and the folded full-conv
        hybrid are the same operator."""
        base = model_from_archive(load_archive(tiny_archive))
        plan = SelectionPlan("blockwise", "lowest", 1, (0,))
        shared = {h: dropin.init_kernel("convfull", TINY, 300 + h)
                  for h in range(TINY.n_h)}
        hm_cf = dropin.replace_heads(base, plan, {0: dropin.BlockDropin(
            variant="convfull", head_kernels=dict(shared))})
        hm_dw = dropin.replace_heads(base, plan, {0: dropin.BlockDropin(
            variant="dw", head_kernels={
                h: np.repeat(k[:, :, None], TINY.d_h, axis=2)
                for h, k in shared.items()})})
        paths = []
        for name, hm in (("cf.bin", hm_cf), ("dw.bin", hm_dw)):
            extra, meta = dropin.hybrid_tensors_meta(hm)
            p = tmp_path / name
            save_archive(p, TINY, {**model_tensors(base), **extra}, {"dropin": meta})
            paths.append(p)
        assert run("verify", "--model", paths[0], "--hybrid", paths[1],
                   "--samples", 3, "--tol", 1e-5) == 0


def _unknown_variant(ar):
    ar.meta["dropin"]["variants"]["0"] = "dw-typo"


def _wrong_shape_kernel(ar):
    ar.tensors["dropin.block0.head0.K"] = np.zeros((TINY.k, TINY.k, TINY.d_h + 1), np.float32)


def _renamed_kernel(ar):
    ar.tensors["dropin.block0.head0.kernel"] = ar.tensors.pop("dropin.block0.head0.K")


def _wrong_shape_gamma(ar):
    ar.tensors["dropin.block0.gamma"] = np.zeros(TINY.n_h + 1, np.float32)


def _stray_kernel(ar):
    ar.tensors["dropin.block1.head0.K"] = ar.tensors["dropin.block0.head0.K"]


class TestMalformedArchives:
    """Each malformed archive exits 3 with one error line, before any forward."""

    @pytest.mark.parametrize("variant, mutate, message", [
        ("dw", _unknown_variant, "unknown variant 'dw-typo'"),
        ("dw", _wrong_shape_kernel, "dw kernel must be"),
        ("dw", _renamed_kernel, "kernels given for heads [1] but plan covers [0, 1]"),
        ("ens-dw", _wrong_shape_gamma, f"gamma must be ({TINY.n_h},)"),
        ("dw", _stray_kernel, "'dropin.block1.head0.K' belongs to no replaced head"),
    ], ids=["unknown-variant", "wrong-shape-kernel", "renamed-kernel", "wrong-shape-gamma",
            "stray-kernel"])
    def test_bad_dropin_section(self, tmp_path, tiny_archive, capsys, variant, mutate, message):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        hybrid = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan,
                   "--variant", variant, "--out", hybrid) == 0
        ar = load_archive(hybrid)
        mutate(ar)
        save_archive(hybrid, ar.config, ar.tensors, ar.meta)
        capsys.readouterr()
        assert run("verify", "--model", tiny_archive, "--hybrid", hybrid,
                   "--samples", 2) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("change", [{"n_b": "two"}, {"d": TINY.d + 1}],
                             ids=["non-integer", "d-not-n_h-times-d_h"])
    def test_bad_config_block(self, tiny_archive, capsys, change):
        rewrite_manifest(tiny_archive, lambda m: m["config"].update(change))
        capsys.readouterr()
        assert run("score", "--model", tiny_archive, "--samples", 2,
                   "--out", tiny_archive.with_suffix(".json")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad config block" in err


class TestCost:
    def test_vitl_table_output(self, capsys):
        assert run("cost", "--config", "vitl", "--format", "table") == 0
        out = capsys.readouterr().out
        assert "6.19" in out and "12.08" in out and "2.43" in out and "0.15" in out

    def test_config_only_archive_accepted(self, tmp_path, capsys):
        arch = tmp_path / "v.bin"
        run("gen", "--config", "vitl", "--out", arch)
        capsys.readouterr()
        assert run("cost", "--model", arch, "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["variant_table"][0]["gflops"] == 6.19

    def test_sweep_monotone(self, tmp_path):
        out = tmp_path / "cost.json"
        assert run("cost", "--config", "vitl", "--sweep", "--variant", "dw",
                   "--format", "json", "--out", out) == 0
        sweep = json.loads(out.read_text())["sweep"]
        flops = [row["flops"] for row in sweep]
        assert len(flops) == vit.VITL.n_b + 1
        assert all(a >= b for a, b in zip(flops, flops[1:]))

    def test_plan_pricing(self, tmp_path, tiny_archive):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        out = tmp_path / "cost.json"
        assert run("cost", "--model", tiny_archive, "--plan", plan, "--variant", "dw",
                   "--format", "json", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["model"]["deltas"]["flops_ratio"] < 1.0


class TestBench:
    def test_smoke_and_shape(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run("bench", *TINY_FLAGS, "--variants", "mhsa,dw,ens-dw",
                   "--reps", 3, "--warmup", 1, "--out", out) == 0
        doc = json.loads(out.read_text())
        for v in ("mhsa", "dw", "ens-dw"):
            r = doc["results"][v]
            assert r["p10"] <= r["median"] <= r["p90"]

    def test_single_block_fns_cover_every_variant(self):
        fns = single_block_bench_fns(TINY, seed=3)
        assert set(fns) == {"mhsa", *dropin.VARIANTS}
        x = make_inputs(TINY, 1, 4)[0]
        for v, fn in fns.items():
            y = fn(x)
            assert y.shape == (TINY.n, TINY.d), v
            assert np.all(np.isfinite(y)), v

    def test_plan_mode_times_baseline_and_hybrid(self, tmp_path, tiny_archive):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        out = tmp_path / "bench.json"
        assert run("bench", "--model", tiny_archive, "--plan", plan,
                   "--variant", "dw", "--reps", 2, "--warmup", 1, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert set(doc["results"]) == {"baseline", "hybrid[dw]"}


class TestGate:
    def test_trace_endpoints_and_mask(self, tmp_path):
        out = tmp_path / "gate.json"
        assert run("gate", "--blocks", 24, "--budget", 12, "--steps", 15,
                   "--seed", 4, "--out", out) == 0
        doc = json.loads(out.read_text())
        trace = doc["trace"]
        assert trace[0]["tau"] == 4.0 and trace[-1]["tau"] == 0.05
        assert sum(doc["final_mask"]) == 12
        assert trace[-1]["l1_to_hard"] < trace[0]["l1_to_hard"]

    def test_final_l1_below_initial_averaged_over_seeds(self):
        from dwdropin.select import GateParams, gate_trace
        first = last = 0.0
        for seed in range(100):
            trace = gate_trace(GateParams(logits=np.zeros(8), budget=3, seed=seed), 6)
            first += trace[0]["l1_to_hard"]
            last += trace[-1]["l1_to_hard"]
        assert last < first

    def test_needs_size(self):
        assert run("gate", "--budget", 2) == 2


class TestEntryPoint:
    def test_console_module_runs_in_subprocess(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "m.bin"
        cmd = [sys.executable, "-m", "dwdropin.cli", "gen", "--seed", "5",
               "--out", str(out)] + [str(a) for a in TINY_FLAGS]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert load_archive(out).config == TINY
        bad = subprocess.run([sys.executable, "-m", "dwdropin.cli", "score",
                              "--model", str(out), "--samples", "0",
                              "--out", str(tmp_path / "r.json")],
                             capture_output=True, text=True)
        assert bad.returncode == 2


class TestVersion:
    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out == f"dwdropin {dwdropin.__version__}\n"

    def test_manifest_records_package_version(self, tmp_path):
        out = tmp_path / "m.bin"
        assert run("gen", "--seed", 1, "--out", out, *TINY_FLAGS) == 0
        assert load_archive(out).meta["manifest"]["version"] == dwdropin.__version__


    @pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
    def test_pyproject_reads_package_version(self):
        from pathlib import Path

        from setuptools.config.pyprojecttoml import read_configuration

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        config = read_configuration(pyproject, expand=True)
        assert config["project"]["version"] == dwdropin.__version__


class TestManifestReproducibility:
    def test_rerun_reproduces_report_bitwise(self, tmp_path, tiny_archive):
        rep = tmp_path / "r.json"
        run("score", "--model", tiny_archive, "--samples", 3, "--seed", 2, "--out", rep)
        first = rep.read_bytes()
        run("score", "--model", tiny_archive, "--samples", 3, "--seed", 2, "--out", rep)
        assert rep.read_bytes() == first
        doc = json.loads(first)
        assert doc["meta"]["manifest"]["options"]["out"].endswith("r.json")
