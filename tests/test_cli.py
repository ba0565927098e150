import collections
import contextlib
import hashlib
import io
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwdropin
from dwdropin import cli, cost, dropin, vit
from dwdropin.archive import load_archive, model_from_archive, model_tensors, save_archive, save_model
from dwdropin.cli import load_samples, main, save_samples, single_block_bench_fns, synthetic_samples
from dwdropin.select import SelectionPlan, plan_from_file, plan_to_file
from dwdropin.tensor import ConfigError, NonFiniteError, seed_stream, seeded_fill

from conftest import (
    BAD_CONFIGS,
    MANIFEST_FAULTS,
    PLAN_FAULTS,
    REPORT_FAULTS,
    TINY,
    change_config,
    make_inputs,
    read_manifest,
    rewrite_manifest,
    traced_peak,
    write_manifest,
)


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

    @pytest.mark.parametrize("flag", ["--blocks", "--ffn-mult"])
    @pytest.mark.parametrize("command", ["gen", "cost", "bench"])
    def test_zero_dimension_refused(self, tmp_path, capsys, command, flag):
        out = tmp_path / "x.out"
        capsys.readouterr()
        assert run(command, "--out", out, flag, 0) == 2
        assert capsys.readouterr() == ("", "error: all dimensions must be positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--config", "vitl"), ("--config-only", *TINY_FLAGS)],
                             ids=["vitl", "config-only"])
    def test_seed_for_config_only_archive_refused(self, tmp_path, capsys, flags):
        """A config-only archive draws no weights, so --seed would choose
        nothing; omitted, it is recorded as 0."""
        out = tmp_path / "c.bin"
        capsys.readouterr()
        assert run("gen", *flags, "--seed", 0, "--out", out) == 2
        assert capsys.readouterr().err == ("error: --seed cannot be given for a config-only "
                                           "archive: it has no weights\n")
        assert not out.exists()
        assert run("gen", *flags, "--out", out) == 0
        assert load_archive(out).meta["manifest"]["options"]["seed"] == 0


@pytest.fixture()
def tiny_archive(tmp_path):
    out = tmp_path / "model.bin"
    assert run("gen", "--seed", 7, "--out", out, *TINY_FLAGS) == 0
    return out


@pytest.fixture(scope="module")
def fuzz_archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "model.bin"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("gen", "--seed", 7, "--out", out, *TINY_FLAGS) == 0
    return out


@pytest.fixture(scope="module")
def fuzz_hybrid(fuzz_archive):
    """A dw hybrid of fuzz_archive over block 0, next to its plan.json."""
    plan = fuzz_archive.with_name("plan.json")
    plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
    out = fuzz_archive.with_name("hybrid.bin")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("replace", "--model", fuzz_archive, "--plan", plan, "--out", out) == 0
    return out


def mutate_bytes(archive, region, writes):
    """A copy of `archive` with bytes of its manifest or blob overwritten;
    `writes` holds (position as a fraction of the region, byte) pairs."""
    raw = bytearray(archive.read_bytes())
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    lo, hi = (16, 16 + mlen) if region == "manifest" else (16 + mlen, len(raw))
    for where, byte in writes:
        raw[lo + int(where * (hi - lo))] = byte
    mutated = archive.with_name("mutated.bin")
    mutated.write_bytes(bytes(raw))
    return mutated


def run_quietly(*argv):
    """Run the CLI; returns (exit code, number of stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue().count("\n")


# a byte is arbitrary or JSON punctuation/digits, which keep more mutated
# manifests parseable and so reach the structural checks
BYTE_WRITES = st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                 st.integers(0, 255) | st.sampled_from(b'0123456789-.e"[]{},:')),
                       min_size=1, max_size=4)


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

    @pytest.mark.parametrize("flags, flag", [
        (("--samples", 5), "--samples"), (("--seed", 9), "--seed"), (("--seed", 0), "--seed"),
        (("--seed", 9, "--samples", 5), "--samples")],
        ids=["samples", "seed", "seed-zero", "both"])
    def test_sample_choice_next_to_data_refused(self, tmp_path, tiny_archive, capsys,
                                                flags, flag):
        """--data fixes the samples, so --samples or --seed next to it
        exits 2 with one line rather than being recorded as if it had
        chosen them."""
        data = tmp_path / "data.bin"
        save_samples(data, TINY, make_inputs(TINY, 2, 5))
        rep = tmp_path / "r.json"
        capsys.readouterr()
        assert run("score", "--model", tiny_archive, "--data", data, *flags, "--out", rep) == 2
        assert capsys.readouterr().err == (f"error: {flag} cannot be given with --data: "
                                           "the archive holds the samples\n")
        assert not rep.exists()

    def test_manifest_records_the_sample_choice(self, tmp_path, tiny_archive):
        """Omitted, --samples and --seed are recorded as 256 and 0; next to
        --data, which chooses the samples, as null."""
        data = tmp_path / "data.bin"
        save_samples(data, TINY, make_inputs(TINY, 2, 5))
        for source, want in (((), (256, 0)), (("--data", data), (None, None))):
            rep = tmp_path / "r.json"
            assert run("score", "--model", tiny_archive, *source, "--out", rep) == 0
            options = json.loads(rep.read_text())["meta"]["manifest"]["options"]
            assert (options["samples"], options["seed"]) == want

    def test_data_archive_read_in_index_order(self, tmp_path):
        samples = make_inputs(TINY, 12, 78)
        data = tmp_path / "samples.bin"
        save_samples(data, TINY, samples)
        for got, want in zip(load_samples(data, TINY), samples, strict=True):
            np.testing.assert_array_equal(got, want)


class TestSyntheticSamples:
    def test_drawn_lazily_from_the_seed_stream(self):
        samples = synthetic_samples(TINY, 3, 4)
        assert not isinstance(samples, list)
        seeds = seed_stream(4)
        for got in samples:
            np.testing.assert_array_equal(
                got, seeded_fill((TINY.n, TINY.d), next(seeds), "gaussian", 0.0, 1.0))

    @pytest.mark.parametrize("count, seed, message", [
        (0, 0, "sample count must be >= 1, got 0"), (-2, 0, "sample count must be >= 1, got -2"),
        (2, -1, "seed must be >= 0, got -1")])
    def test_refused_before_the_first_draw(self, count, seed, message):
        with pytest.raises(ConfigError, match=message):
            synthetic_samples(TINY, count, seed)

    def test_score_memory_does_not_grow_with_samples(self, tmp_path):
        """`score` draws and scores one chunk of samples at a time: 256 desk
        samples peak less than 1 MiB above 64. Drawing them all first grew
        it by about 3 MiB."""
        model, rep = tmp_path / "m.bin", tmp_path / "r.json"
        assert run("gen", "--config", "desk", "--seed", 3, "--out", model) == 0
        small, large = (traced_peak(lambda n=n: run_quietly(
            "score", "--model", model, "--samples", n, "--seed", 5, "--out", rep))
            for n in (64, 256))
        assert json.loads(rep.read_text())["n_samples"] == 256
        assert large - small < 2**20, (small, large)


class TestSampleNames:
    """A `--data` archive tensor not named `sample{i}` exits 3 with one
    error line naming the file and the tensor."""

    @pytest.mark.parametrize("command", ["score", "replace"])
    @pytest.mark.parametrize("name", ["sample_x", "samples", "sample01", "sample-1",
                                      "sample+1", "sample 1", "sample", "junk", "pos_enc"])
    def test_bad_sample_name_refused(self, tmp_path, tiny_archive, capsys, command, name):
        x0, x1 = make_inputs(TINY, 2, 79)
        data = tmp_path / "samples.bin"
        save_archive(data, TINY, {"sample0": x0, "sample1": x1, name: x1})
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        argv = (("score", "--out", tmp_path / "r.json") if command == "score" else
                ("replace", "--plan", plan, "--fit", "--out", tmp_path / "h.bin"))
        capsys.readouterr()
        assert run(*argv, "--model", tiny_archive, "--data", data) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: tensor {name!r} ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["score", "replace"])
    @pytest.mark.parametrize("tensors, message", [
        ({}, "no sample tensors found"),
        ({"sample0": np.zeros((3, 3), np.float32)},
         f"sample shape (3, 3) does not match model ({TINY.n}, {TINY.d})"),
    ], ids=["no-samples", "wrong-shape"])
    def test_bad_sample_set_refused(self, tmp_path, tiny_archive, capsys, command,
                                    tensors, message):
        data = tmp_path / "samples.bin"
        save_archive(data, TINY, tensors)
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        argv = (("score", "--out", tmp_path / "r.json") if command == "score" else
                ("replace", "--plan", plan, "--fit", "--out", tmp_path / "h.bin"))
        capsys.readouterr()
        assert run(*argv, "--model", tiny_archive, "--data", data) == 3
        assert capsys.readouterr().err == f"error: {data}: {message}\n"


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
        hm = dropin.hybrid_from_archive(ar)
        x = make_inputs(TINY, 1, 99)[0]
        np.testing.assert_array_equal(dropin.hybrid_forward(hm, x),
                                      vit.model_forward(x, base))

    def test_fit_reports_ridge(self, tmp_path, capsys):
        """A W_V column of zeros leaves its value channel's normal matrix
        singular, so the dw fit solves that channel with ridge and says so."""
        model = vit.init_model(vit.DESK, 3)
        block = model.blocks[0]
        vit.head_cols(block.w_v, 1, block.d_h)[:, 0] = 0
        save_model(tmp_path / "m.bin", model)
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        capsys.readouterr()
        assert run("replace", "--model", tmp_path / "m.bin", "--plan", plan, "--variant", "dw",
                   "--fit", "--samples", 4, "--out", tmp_path / "h.bin") == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "block 0 head 1: ridge applied on channels [0]"]

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
            hm = dropin.hybrid_from_archive(ar)
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

    @pytest.mark.parametrize("flags, flag", [
        (("--samples", 4), "--samples"), (("--data", "does-not-exist.bin"), "--data"),
        (("--samples", 4, "--data", "does-not-exist.bin"), "--samples"),
        (("--seed", 9), "--seed"), (("--seed", 0), "--seed")],
        ids=["samples", "data", "both", "seed", "seed-zero"])
    def test_sample_source_without_fit_refused(self, tmp_path, tiny_archive, capsys,
                                               flags, flag):
        """Only --fit reads samples: without it, --samples, --data or the
        sample --seed exits 2 with one line rather than writing seeded
        kernels."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        out = tmp_path / "h.bin"
        capsys.readouterr()
        assert run("replace", "--model", tiny_archive, "--plan", plan, *flags,
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: {flag} is read only by --fit\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, flag", [
        (("--samples", 4), "--samples"), (("--seed", 9), "--seed"), (("--seed", 0), "--seed"),
        (("--seed", 9, "--samples", 4), "--samples")],
        ids=["samples", "seed", "seed-zero", "both"])
    def test_sample_choice_next_to_data_refused(self, tmp_path, tiny_archive, capsys,
                                                flags, flag):
        """--data fixes the samples, so --samples or --seed next to it
        exits 2 with one line rather than being recorded as if it had
        chosen them."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        data = tmp_path / "data.bin"
        save_samples(data, TINY, make_inputs(TINY, 2, 5))
        out = tmp_path / "h.bin"
        capsys.readouterr()
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--fit",
                   "--data", data, *flags, "--out", out) == 2
        assert capsys.readouterr().err == (f"error: {flag} cannot be given with --data: "
                                           "the archive holds the samples\n")
        assert not out.exists()
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--fit",
                   "--data", data, "--out", out) == 0

    @pytest.mark.parametrize("seed", [99, 0])
    @pytest.mark.parametrize("source", [("--samples", 2), ("--data",)], ids=["synthetic", "data"])
    def test_init_seed_next_to_fit_refused(self, tmp_path, tiny_archive, capsys, seed, source):
        """A fit draws no kernel, so --init-seed next to --fit exits 2 with
        one line rather than being recorded as if it had chosen them."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        if source == ("--data",):
            source = ("--data", tmp_path / "data.bin")
            save_samples(source[1], TINY, make_inputs(TINY, 2, 5))
        out = tmp_path / "h.bin"
        capsys.readouterr()
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--fit", *source,
                   "--init-seed", seed, "--out", out) == 2
        assert capsys.readouterr().err == ("error: --init-seed cannot be given with --fit: "
                                           "fitted kernels are not drawn\n")
        assert not out.exists()

    def test_omitted_init_seed_recorded_as_zero(self, tmp_path, tiny_archive):
        """A replace without --init-seed draws and records seed 0, so
        unfitted archives keep their bytes."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        out = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--init-seed", 0,
                   "--out", out) == 0
        zero = out.read_bytes()
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--out", out) == 0
        assert read_manifest(out)["meta"]["manifest"]["options"]["init_seed"] == 0
        assert out.read_bytes() == zero

    @pytest.mark.parametrize("fit", [(), ("--fit", "--samples", 2)], ids=["init", "fit"])
    def test_omitted_seed_recorded_as_zero(self, tmp_path, tiny_archive, fit):
        """A replace without --seed records seed 0 in its run manifest, so
        unfitted archives keep their bytes."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        out = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, *fit, "--out", out) == 0
        assert read_manifest(out)["meta"]["manifest"]["options"]["seed"] == 0

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

    @pytest.mark.parametrize("tol", ["nan", "-1e-6", "-inf"])
    def test_bad_tolerance_is_usage_error(self, tiny_archive, capsys, tol):
        """A tolerance no difference can meet is refused (exit 2), not
        reported as a failing hybrid (exit 1), whether the value is joined
        to its flag or follows it."""
        for flag in ([f"--tol={tol}"], ["--tol", tol]):
            capsys.readouterr()
            assert run("verify", "--model", tiny_archive, "--hybrid", tiny_archive,
                       "--samples", 2, *flag) == 2
            err = capsys.readouterr().err
            assert err == f"error: tolerance must be >= 0, got {float(tol)}\n"

    @pytest.mark.parametrize("other_side", ["model", "hybrid"])
    def test_different_configs_refused(self, tmp_path, tiny_archive, capsys, other_side):
        other = tmp_path / "other.bin"
        save_model(other, vit.init_model(vit.ModelConfig(**{**TINY.to_dict(), "n_b": 1}), 3))
        pair = (other, tiny_archive) if other_side == "model" else (tiny_archive, other)
        capsys.readouterr()
        assert run("verify", "--model", pair[0], "--hybrid", pair[1], "--samples", 2) == 2
        assert capsys.readouterr().err == "error: archives have different configurations\n"

    def test_zero_tolerance_accepted(self, tiny_archive):
        assert run("verify", "--model", tiny_archive, "--hybrid", tiny_archive,
                   "--samples", 2, "--tol", 0) == 0

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


DEEP_FLAGS = ("--blocks", 4, *TINY_FLAGS[2:])


@pytest.fixture()
def deep_archives(tmp_path):
    """A 4-block tiny model, hybrids of it and a model of another seed:
    {name: path}. `b2` replaces block 2 (dw, fitted), `b13` blocks 1 and 3
    (ens-dw, fitted), `b0` block 0 (dw, seeded); `other-b2` is `b2`'s plan
    on the other model."""
    paths = {name: tmp_path / f"{name}.bin" for name in ("model", "other", "b2", "b13", "b0",
                                                         "other-b2")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("gen", "--seed", 7, "--out", paths["model"], *DEEP_FLAGS) == 0
        assert run("gen", "--seed", 8, "--out", paths["other"], *DEEP_FLAGS) == 0
        for name, base, targets, flags in (
                ("b2", "model", (2,), ("--fit", "--samples", 3)),
                ("b13", "model", (1, 3), ("--variant", "ens-dw", "--fit", "--samples", 3)),
                ("b0", "model", (0,), ()),
                ("other-b2", "other", (2,), ())):
            plan = tmp_path / f"plan-{name}.json"
            plan_to_file(SelectionPlan("blockwise", "lowest", len(targets), targets), plan)
            assert run("replace", "--model", paths[base], "--plan", plan, *flags,
                       "--out", paths[name]) == 0
    return paths


def verify_unshared(monkeypatch, capsys, *argv):
    """Run verify as full forwards, no prefix shared: (exit code, stdout, stderr)."""
    with monkeypatch.context() as m:
        m.setattr(cli, "shared_prefix", lambda hm_a, hm_b: 0)
        capsys.readouterr()
        code = run("verify", *argv)
        captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifySharedPrefix:
    """verify runs the blocks before the first replaced one once per sample
    when both archives hold the same base tensors, and its outputs stay
    those of full forwards."""

    @pytest.mark.parametrize("model, hybrid, shared", [
        ("model", "b2", 2), ("b2", "b13", 1), ("b13", "model", 1), ("model", "model", 4),
        ("model", "b0", 0), ("model", "other-b2", 0)],
        ids=["model-vs-hybrid", "hybrid-vs-hybrid", "hybrid-vs-model", "model-vs-model",
             "first-block-replaced", "different-base"])
    def test_report_matches_full_forwards(self, tmp_path, deep_archives, monkeypatch, capsys,
                                          model, hybrid, shared):
        paths = deep_archives
        hms = [cli.load_weights(paths[name], "verification", dropin.hybrid_from_archive)
               for name in (model, hybrid)]
        assert cli.shared_prefix(*hms) == shared
        out = tmp_path / "verify.json"
        argv = ("--model", paths[model], "--hybrid", paths[hybrid], "--samples", 3,
                "--tol", 0.5, "--out", out)
        want = verify_unshared(monkeypatch, capsys, *argv)
        want_bytes = out.read_bytes()
        out.unlink()
        got = run("verify", *argv)
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == want
        assert out.read_bytes() == want_bytes

    def test_shared_blocks_run_once_per_sample(self, deep_archives, monkeypatch):
        """model vs b2: blocks 0 and 1 run once per sample, in the --model
        pass; blocks 2 and 3 run once per sample in each pass."""
        forward, blocks = vit.block_forward, []

        def counted(x, block, **kw):
            blocks.append(id(block))
            return forward(x, block, **kw)
        monkeypatch.setattr(vit, "block_forward", counted)
        assert run("verify", "--model", deep_archives["model"], "--hybrid", deep_archives["b2"],
                   "--samples", 3, "--tol", 0.5) in (0, 1)
        # each archive holds its own block objects: 4 of --model's, 2 of --hybrid's
        counts = collections.Counter(blocks)
        assert len(counts) == 4 + 2
        assert set(counts.values()) == {3}

    def test_overflow_in_shared_prefix_names_model(self, tmp_path, deep_archives, monkeypatch,
                                                   capsys):
        """Block 0's energies overflow in both archives: the --model pass,
        which runs the shared prefix, names the --model archive."""
        model, hybrid = deep_archives["model"], tmp_path / "b2-big.bin"
        for path in (model, deep_archives["b2"]):
            ar = load_archive(path)
            for name in ("block0.w_q", "block0.w_k"):
                ar.tensors[name] = ar.tensors[name] * np.float32(1e20)
            save_archive(hybrid if path != model else model, ar.config, ar.tensors, ar.meta)
        argv = ("--model", model, "--hybrid", hybrid, "--samples", 2)
        want = verify_unshared(monkeypatch, capsys, *argv)
        assert run("verify", *argv) == 3
        captured = capsys.readouterr()
        assert (3, captured.out, captured.err) == want
        assert captured.err == (f"error: {model}: the model's forward pass overflows "
                                "(non-finite values in matmul result)\n")

    def test_overflow_in_hybrid_suffix_names_hybrid(self, tmp_path, deep_archives, monkeypatch,
                                                    capsys):
        """The hybrid's own block 2 overflows after the shared prefix: the
        --hybrid pass names the --hybrid archive."""
        model, hybrid = deep_archives["model"], tmp_path / "b2-big.bin"
        ar = load_archive(deep_archives["b2"])
        for h in range(TINY.n_h):
            ar.tensors[f"dropin.block2.head{h}.K"] = np.full((TINY.k, TINY.k, TINY.d_h), 3e38,
                                                             np.float32)
        save_archive(hybrid, ar.config, ar.tensors, ar.meta)
        argv = ("--model", model, "--hybrid", hybrid, "--samples", 2)
        want = verify_unshared(monkeypatch, capsys, *argv)
        assert run("verify", *argv) == 3
        captured = capsys.readouterr()
        assert (3, captured.out, captured.err) == want
        assert captured.err == (f"error: {hybrid}: the model's forward pass overflows "
                                "(non-finite values in dwconv2d result)\n")


def _unknown_variant(ar):
    ar.meta["dropin"]["variants"]["0"] = "dw-typo"


def _wrong_shape_kernel(ar):
    ar.tensors["dropin.block0.head0.K"] = np.zeros((TINY.k, TINY.k, TINY.d_h + 1), np.float32)


def _renamed_kernel(ar):
    ar.tensors["dropin.block0.head0.kernel"] = ar.tensors.pop("dropin.block0.head0.K")


def _wrong_shape_gamma(ar):
    ar.tensors["dropin.block0.gamma"] = np.zeros(TINY.n_h + 1, np.float32)


def _stray_variant(ar):
    ar.meta["dropin"]["variants"]["1"] = "dw"


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
        ("dw", _stray_variant, "bad drop-in section: replacement parameters given for "
         "blocks [0, 1] but plan covers [0]"),
        ("ens-dw", lambda ar: ar.tensors.pop("dropin.block0.gamma"),
         "drop-in section is missing 'dropin.block0.gamma'"),
    ], ids=["unknown-variant", "wrong-shape-kernel", "renamed-kernel", "wrong-shape-gamma",
            "stray-kernel", "stray-variant", "missing-gamma"])
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

    @pytest.mark.parametrize("command", ["verify", "score"])
    @pytest.mark.parametrize("key", [" +0 ", "+0", "0 ", "00", "\u0660", "\uff10"],
                             ids=["padded-plus", "plus", "trailing-space", "leading-zero",
                                  "arabic-indic", "fullwidth"])
    def test_non_canonical_block_key(self, tmp_path, tiny_archive, capsys, command, key):
        """A `variants` key that int() reads as block 0 but that is not
        "0" names no block: verify exits 3, one line naming the hybrid.
        score reads only model archives, so it refuses the hybrid's first
        drop-in tensor before any section is read."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        hybrid = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--out", hybrid) == 0
        ar = load_archive(hybrid)
        ar.meta["dropin"]["variants"] = {key: "dw"}
        save_archive(hybrid, ar.config, ar.tensors, ar.meta)
        argv, message = {
            "verify": (("verify", "--model", tiny_archive, "--hybrid", hybrid),
                       f"bad drop-in section: block key {key!r} must be written '0'"),
            "score": (("score", "--model", hybrid, "--out", tmp_path / "r.json"),
                      "tensor 'dropin.block0.head0.K' is not a tensor of this model")}[command]
        capsys.readouterr()
        assert run(*argv, "--samples", 2) == 3
        assert capsys.readouterr().err == f"error: {hybrid}: {message}\n"

    def test_missing_dropin_tensor_names_the_hybrid(self, tmp_path, tiny_archive, capsys):
        """verify reads two archives: a malformed drop-in section is refused
        with the path of the archive that holds it."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        hybrid = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan,
                   "--variant", "ens-dw", "--out", hybrid) == 0
        ar = load_archive(hybrid)
        del ar.tensors["dropin.block0.gamma"]
        save_archive(hybrid, ar.config, ar.tensors, ar.meta)
        capsys.readouterr()
        assert run("verify", "--model", tiny_archive, "--hybrid", hybrid, "--samples", 2) == 3
        assert capsys.readouterr().err == (
            f"error: {hybrid}: drop-in section is missing 'dropin.block0.gamma'\n")

    @pytest.mark.parametrize("variant, first", [("dw", "dropin.block0.head0.K"),
                                                ("ens-dw", "dropin.block0.gamma")],
                             ids=["dw", "ens-dw"])
    @pytest.mark.parametrize("command", ["score", "replace", "bench-plan"])
    def test_hybrid_model_refused(self, tmp_path, tiny_archive, capsys, command, variant,
                                  first):
        """score, replace and bench --plan read a model archive: a hybrid
        --model exits 3 with one line naming it and its first drop-in
        tensor in manifest order, and writes nothing."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 2, (1, 0)), plan)
        hybrid, out = tmp_path / "h.bin", tmp_path / "out"
        assert run("replace", "--model", tiny_archive, "--plan", plan,
                   "--variant", variant, "--out", hybrid) == 0
        assert [n for n in load_archive(hybrid).tensors if n.startswith("dropin.")][0] == first
        argv = {"score": ("score", "--samples", 2, "--out", out),
                "replace": ("replace", "--plan", plan, "--out", out),
                "bench-plan": ("bench", "--plan", plan, "--reps", 1, "--warmup", 0,
                               "--out", out)}[command]
        capsys.readouterr()
        assert run(*argv, "--model", hybrid) == 3
        assert capsys.readouterr() == ("", f"error: {hybrid}: tensor {first!r} is not a "
                                           "tensor of this model\n")
        assert not out.exists()

    @staticmethod
    def score_error(archive, capsys) -> str:
        """Run score on a malformed archive: exit 3 and one error line."""
        capsys.readouterr()
        assert run("score", "--model", archive, "--samples", 2,
                   "--out", archive.with_suffix(".json")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("name", ["w_q", "w_k", "w_v"])
    def test_wrong_projection_shape(self, tiny_archive, capsys, name):
        ar = load_archive(tiny_archive)
        ar.tensors[f"block1.{name}"] = ar.tensors[f"block1.{name}"][:, 1:]
        save_archive(tiny_archive, ar.config, ar.tensors, ar.meta)
        assert self.score_error(tiny_archive, capsys).endswith(
            f"tensor 'block1.{name}' has shape (8, 7), expected (8, 8)\n")

    @pytest.mark.parametrize("name", ["block1.ffn_w2", "block0.w_v", "pos_enc"])
    def test_missing_tensor(self, tiny_archive, capsys, name):
        ar = load_archive(tiny_archive)
        del ar.tensors[name]
        save_archive(tiny_archive, ar.config, ar.tensors, ar.meta)
        assert self.score_error(tiny_archive, capsys) == (
            f"error: {tiny_archive}: archive is missing tensor {name!r}\n")

    @pytest.mark.parametrize("name, shape", [
        (f"block{TINY.n_b}.w_o", (TINY.d, TINY.d)),
        ("x.w_q", (TINY.d, TINY.d)),
        ("block0.w_q.copy", (TINY.d, TINY.d)),
        ("junk", (3,)),
    ], ids=["block-past-the-last", "other-prefix", "suffixed", "junk"])
    def test_stray_tensor(self, tiny_archive, capsys, name, shape):
        """A tensor that is neither the model's nor a drop-in's is refused
        by name, even when its shape is a model tensor's."""
        ar = load_archive(tiny_archive)
        ar.tensors[name] = np.ones(shape, np.float32)
        save_archive(tiny_archive, ar.config, ar.tensors, ar.meta)
        assert self.score_error(tiny_archive, capsys) == (
            f"error: {tiny_archive}: tensor {name!r} is not a tensor of this model\n")

    def test_stray_tensor_fails_verify(self, tmp_path, tiny_archive, capsys):
        """An archive that differs from the model only by a stray tensor is
        refused, not verified equal to it."""
        stray = tmp_path / "stray.bin"
        ar = load_archive(tiny_archive)
        save_archive(stray, ar.config, {**ar.tensors, "junk": np.ones(3, np.float32)}, ar.meta)
        capsys.readouterr()
        assert run("verify", "--model", stray, "--hybrid", tiny_archive, "--samples", 2) == 3
        assert capsys.readouterr().err == (
            f"error: {stray}: tensor 'junk' is not a tensor of this model\n")

    @pytest.mark.parametrize("change", [c for _, c in BAD_CONFIGS],
                             ids=[i for i, _ in BAD_CONFIGS])
    def test_bad_config_block(self, tiny_archive, capsys, change):
        rewrite_manifest(tiny_archive, lambda m: change_config(m, change))
        assert "bad config block" in self.score_error(tiny_archive, capsys)

    @pytest.mark.parametrize("fault, message", [f[1:] for f in MANIFEST_FAULTS],
                             ids=[f[0] for f in MANIFEST_FAULTS])
    def test_malformed_manifest(self, tiny_archive, capsys, fault, message):
        write_manifest(tiny_archive, fault(read_manifest(tiny_archive)))
        assert message in self.score_error(tiny_archive, capsys)

    def test_overflowing_weights(self, tiny_archive, capsys):
        ar = load_archive(tiny_archive)
        ar.tensors["block0.w_q"] = np.full_like(ar.tensors["block0.w_q"], 3e38)
        save_archive(tiny_archive, ar.config, ar.tensors, ar.meta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err = self.score_error(tiny_archive, capsys)
        assert "the model's forward pass overflows" in err

    @pytest.mark.parametrize("command", ["score", "replace", "verify-model", "verify-hybrid",
                                         "bench"])
    def test_config_only_archive(self, tmp_path, tiny_archive, capsys, command):
        """Every command that runs the model refuses a config-only archive:
        exit 3 and one error line naming the file."""
        config_only = tmp_path / "config.bin"
        assert run("gen", "--config-only", "--out", config_only, *TINY_FLAGS) == 0
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        argv = {
            "score": ("score", "--model", config_only, "--samples", 2,
                      "--out", tmp_path / "r.json"),
            "replace": ("replace", "--model", config_only, "--plan", plan,
                        "--out", tmp_path / "h.bin"),
            "verify-model": ("verify", "--model", config_only, "--hybrid", tiny_archive,
                             "--samples", 2),
            "verify-hybrid": ("verify", "--model", tiny_archive, "--hybrid", config_only,
                              "--samples", 2),
            "bench": ("bench", "--model", config_only, "--plan", plan,
                      "--reps", 1, "--warmup", 0),
        }[command]
        capsys.readouterr()
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_only} is config-only; ")
        assert err.endswith(" needs weights\n") and err.count("\n") == 1

    @settings(max_examples=40, deadline=None)
    @given(region=st.sampled_from(["manifest", "blob"]), writes=BYTE_WRITES)
    def test_mutated_bytes_exit_cleanly(self, fuzz_archive, region, writes):
        """score on an archive with overwritten manifest or blob bytes exits 0,
        or 3 with one error line; an exception escaping main fails the test."""
        mutated = mutate_bytes(fuzz_archive, region, writes)
        code, err_lines = run_quietly("score", "--model", mutated, "--samples", 2,
                                      "--out", mutated.with_suffix(".json"))
        assert code in (0, 3)
        assert err_lines == (1 if code == 3 else 0)

    @pytest.mark.parametrize("command", ["replace", "verify"])
    @settings(max_examples=40, deadline=None)
    @given(region=st.sampled_from(["manifest", "blob"]), writes=BYTE_WRITES)
    def test_mutated_hybrid_exits_cleanly(self, fuzz_archive, fuzz_hybrid, command,
                                          region, writes):
        """replace --fit on a mutated hybrid exits 0 or 3; verify against it
        exits 0, 1 (a check failed, or its forward overflowed) or 3; an
        error exit prints one line."""
        mutated = mutate_bytes(fuzz_hybrid, region, writes)
        if command == "replace":
            code, err_lines = run_quietly(
                "replace", "--model", mutated, "--plan", fuzz_hybrid.with_name("plan.json"),
                "--fit", "--samples", 2, "--out", mutated.with_name("refit.bin"))
            assert code in (0, 3)
        else:
            code, err_lines = run_quietly("verify", "--model", fuzz_archive,
                                          "--hybrid", mutated, "--samples", 2)
            assert code in (0, 1, 3)
        assert err_lines == (1 if code == 3 else 0) or (code == 1 and err_lines == 1)

    def test_replace_fit_overflowing_weights(self, tmp_path, tiny_archive, capsys):
        """replace --fit and bench --plan refuse the archive, exit 3, one line."""
        ar = load_archive(tiny_archive)
        ar.tensors["block0.w_q"] = np.full_like(ar.tensors["block0.w_q"], 3e38)
        save_archive(tiny_archive, ar.config, ar.tensors, ar.meta)
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        for argv in (("replace", "--fit", "--samples", 2, "--out", tmp_path / "h.bin"),
                     ("bench", "--reps", 1, "--warmup", 0)):
            capsys.readouterr()
            assert run(*argv, "--model", tiny_archive, "--plan", plan) == 3, argv[0]
            err = capsys.readouterr().err
            assert err == (f"error: {tiny_archive}: the model's forward pass overflows "
                           "(non-finite values in matmul result)\n"), argv[0]


    def test_overflowing_energies(self, tmp_path, tiny_archive, capsys):
        """Projections that stay finite but whose energies overflow: score,
        replace --fit and verify each exit 3 with one line naming the archive."""
        ar = load_archive(tiny_archive)
        for name in ("block0.w_q", "block0.w_k"):
            ar.tensors[name] = ar.tensors[name] * np.float32(1e20)
        save_archive(tiny_archive, ar.config, ar.tensors, ar.meta)
        blk = model_from_archive(load_archive(tiny_archive)).blocks[0]
        a_in = vit.layer_norm(make_inputs(TINY, 1, 3)[0], blk.norm1_scale, blk.norm1_shift)
        q, k = a_in @ blk.w_q, a_in @ blk.w_k
        assert np.isfinite(q).all() and np.isfinite(k).all()
        with np.errstate(over="ignore"):
            assert not np.isfinite(q @ k.T).all()
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (1,)), plan)
        hybrid = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--out", hybrid) == 0
        for argv in (("score", "--samples", 2, "--out", tmp_path / "r.json"),
                     ("replace", "--plan", plan, "--fit", "--samples", 2,
                      "--out", tmp_path / "f.bin"),
                     ("verify", "--hybrid", hybrid, "--samples", 2)):
            capsys.readouterr()
            assert run(*argv, "--model", tiny_archive) == 3, argv[0]
            assert capsys.readouterr().err == (
                f"error: {tiny_archive}: the model's forward pass overflows "
                "(non-finite values in matmul result)\n"), argv[0]

    def test_overflowing_layer_norm(self, tmp_path, tiny_archive, capsys):
        """A finite positional table whose rows' variance overflows float32:
        score, replace --fit and verify each exit 3 with one line naming the
        archive, where normalising those rows to their shift would rank
        every head as perfectly convolution-like."""
        ar = load_archive(tiny_archive)
        ar.tensors["pos_enc"] = ar.tensors["pos_enc"] * np.float32(1e20)
        save_archive(tiny_archive, ar.config, ar.tensors, ar.meta)
        assert np.isfinite(load_archive(tiny_archive).tensors["pos_enc"]).all()
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        hybrid = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--out", hybrid) == 0
        for argv in (("score", "--samples", 2, "--out", tmp_path / "r.json"),
                     ("replace", "--plan", plan, "--fit", "--samples", 2,
                      "--out", tmp_path / "f.bin"),
                     ("verify", "--hybrid", hybrid, "--samples", 2)):
            capsys.readouterr()
            assert run(*argv, "--model", tiny_archive) == 3, argv[0]
            assert capsys.readouterr().err == (
                f"error: {tiny_archive}: the model's forward pass overflows "
                "(non-finite values in layer norm variance)\n"), argv[0]
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "f.bin").exists()

    @pytest.mark.parametrize("command", ["score", "replace-fit"])
    def test_overflowing_data_names_both_archives(self, tmp_path, tiny_archive, capsys,
                                                  command):
        """Samples of --data that overflow a model which runs synthetic
        samples cleanly: the error names the sample archive next to the
        model, since either may be at fault, and exits 3."""
        data, out = tmp_path / "data.bin", tmp_path / "out.bin"
        save_samples(data, TINY, [make_inputs(TINY, 1, 5)[0] * np.float32(1e30)])
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        argv = {"score": ("score",),
                "replace-fit": ("replace", "--plan", plan, "--fit")}[command]
        assert run(*argv, "--model", tiny_archive, "--samples", 2, "--out", out) == 0
        capsys.readouterr()
        assert run(*argv, "--model", tiny_archive, "--data", data, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"error: {tiny_archive} on the samples of {data}: the model's forward pass "
            "overflows (non-finite values in layer norm variance)\n")


    @pytest.mark.parametrize("command", ["score", "replace-fit"])
    def test_overflow_late_in_a_chunk(self, tmp_path, capsys, command):
        """A --data sample whose block-2 energies overflow, where gaussian
        samples' do not: placed last in the first chunk of the pass, it is
        refused as it is when it comes first, exit 3 and the same one line
        naming both archives."""
        model_path = tmp_path / "m.bin"
        assert run("gen", "--config", "desk", "--seed", 3, "--out", model_path) == 0
        model = model_from_archive(load_archive(model_path))
        blk = model.blocks[2]

        def max_energy(x):
            a_in = vit.attention_input(vit.model_forward(x, model, stop=2), blk)
            q = (a_in @ blk.w_q).reshape(vit.DESK.n, vit.DESK.n_h, vit.DESK.d_h)
            k = (a_in @ blk.w_k).reshape(vit.DESK.n, vit.DESK.n_h, vit.DESK.d_h)
            return float(np.abs(np.einsum("phc,qhc->hpq", q, k)).max())

        # every token one direction: an extreme eigenvector of a head's
        # W_q W_k^T, which block 2 reads back almost unchanged
        directions = [vec - vec.mean() for h in range(vit.DESK.n_h)
                      for vec in np.linalg.eigh(vit.head_cols(blk.w_q, h, vit.DESK.d_h) @
                                                vit.head_cols(blk.w_k, h, vit.DESK.d_h).T)[1].T]
        bad = max((np.tile(100 * v / v.std(), (vit.DESK.n, 1)).astype(np.float32)
                   for v in directions), key=max_energy)
        size = vit.chunk_size(vit.DESK)
        good = make_inputs(vit.DESK, size + 2, 83)
        worst, top = max_energy(bad), max(map(max_energy, good))
        assert worst > 2 * top
        scale = np.float32(np.sqrt(np.finfo(np.float32).max / np.sqrt(worst * top)))
        ar = load_archive(model_path)
        for name in ("block2.w_q", "block2.w_k"):
            ar.tensors[name] = ar.tensors[name] * scale
        save_archive(model_path, ar.config, ar.tensors, ar.meta)
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (2,)), plan)
        data, out = tmp_path / "data.bin", tmp_path / "out.bin"
        argv = {"score": ("score",),
                "replace-fit": ("replace", "--plan", plan, "--fit")}[command]
        argv = (*argv, "--model", model_path, "--data", data, "--out", out)
        save_samples(data, vit.DESK, good)
        assert run(*argv) == 0
        errors = []
        for samples in ([bad, *good], [*good[: size - 1], bad, *good[size - 1 :]]):
            save_samples(data, vit.DESK, samples)
            capsys.readouterr()
            assert run(*argv) == 3
            errors.append(capsys.readouterr().err)
        assert errors == 2 * [
            f"error: {model_path} on the samples of {data}: the model's forward pass "
            "overflows (non-finite values in matmul result)\n"]

class TestMalformedPlans:
    """A plan file or score report that is not one exits 3 with one error
    line naming the file, in every command that reads it."""

    @pytest.mark.parametrize("doc, message", [f[1:] for f in PLAN_FAULTS],
                             ids=[f[0] for f in PLAN_FAULTS])
    @pytest.mark.parametrize("command", [("replace", "--out", "h.bin"), ("cost",),
                                         ("bench", "--reps", "1", "--warmup", "0")],
                             ids=["replace", "cost", "bench-plan"])
    def test_bad_plan_file(self, tmp_path, tiny_archive, capsys, command, doc, message):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        name, *rest = command
        rest = [tmp_path / a if a.endswith(".bin") else a for a in rest]
        capsys.readouterr()
        assert run(name, "--model", tiny_archive, "--plan", plan, *rest) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {plan}: not a plan file: ")
        assert captured.err.count("\n") == 1 and message in captured.err
        assert not (tmp_path / "h.bin").exists()

    def test_plan_file_not_json(self, tmp_path, tiny_archive, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{")
        capsys.readouterr()
        assert run("cost", "--model", tiny_archive, "--plan", plan) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan}: not a plan file: ") and err.count("\n") == 1

    def test_bad_plan_in_archive_meta(self, tmp_path, tiny_archive, capsys):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        hybrid = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--out", hybrid) == 0
        rewrite_manifest(hybrid, lambda m: m["meta"]["dropin"]["plan"].update(mode="diagonal"))
        capsys.readouterr()
        assert run("verify", "--model", tiny_archive, "--hybrid", hybrid, "--samples", 2) == 3
        assert capsys.readouterr().err == (
            f"error: {hybrid}: bad drop-in section: plan mode must be one of "
            "('blockwise', 'scattered'), got 'diagonal'\n")

    @pytest.mark.parametrize("mode, targets, twice", [
        ("blockwise", (0,), [0, 0]),
        ("scattered", ((0, 1),), [[0, 1], [0, 1]]),
    ], ids=["blockwise", "scattered"])
    def test_repeated_target_in_archive_meta(self, tmp_path, tiny_archive, capsys,
                                             mode, targets, twice):
        """A hybrid whose stored plan names a target twice is refused, not
        loaded as if it named it once."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan(mode, "lowest", 1, targets), plan)
        hybrid = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--out", hybrid) == 0
        rewrite_manifest(hybrid, lambda m: m["meta"]["dropin"]["plan"].update(targets=twice))
        capsys.readouterr()
        assert run("verify", "--model", tiny_archive, "--hybrid", hybrid, "--samples", 2) == 3
        assert capsys.readouterr().err == (
            f"error: {hybrid}: bad drop-in section: {mode} plan names target {twice[0]!r} twice\n")

    @pytest.mark.parametrize("mode, targets", [("blockwise", (0,)), ("scattered", ((0, 1),))],
                             ids=["blockwise", "scattered"])
    def test_budget_not_target_count_in_archive_meta(self, tmp_path, tiny_archive, capsys,
                                                     mode, targets):
        """A hybrid whose stored plan's budget is not its target count is
        refused, not loaded with a budget that describes another plan."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan(mode, "lowest", 1, targets), plan)
        hybrid = tmp_path / "h.bin"
        assert run("replace", "--model", tiny_archive, "--plan", plan, "--out", hybrid) == 0
        rewrite_manifest(hybrid, lambda m: m["meta"]["dropin"]["plan"].update(budget=-7))
        capsys.readouterr()
        assert run("verify", "--model", tiny_archive, "--hybrid", hybrid, "--samples", 2) == 3
        assert capsys.readouterr().err == (
            f"error: {hybrid}: bad drop-in section: plan budget must equal its target count 1, "
            "got -7\n")

    @pytest.mark.parametrize("mode, fault, message", [f[1:] for f in REPORT_FAULTS],
                             ids=[f[0] for f in REPORT_FAULTS])
    def test_bad_score_report(self, tmp_path, tiny_archive, capsys, mode, fault, message):
        report = tmp_path / "report.json"
        assert run("score", "--model", tiny_archive, "--samples", 2, "--out", report) == 0
        report.write_text(json.dumps(fault(json.loads(report.read_text()))))
        capsys.readouterr()
        assert run("plan", "--report", report, "--budget", 1, "--mode", mode,
                   "--out", tmp_path / "plan.json") == 3
        err = capsys.readouterr().err
        assert err == f"error: {report}: not a score report: {message}\n"
        assert not (tmp_path / "plan.json").exists()


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

    @pytest.mark.parametrize("flags", [("--blocks", 3), ("--heads", 2), ("--dim", 16),
                                       ("--head-dim", 2), ("--grid", 6), ("--kernel", 1),
                                       ("--ffn-mult", 3), ("--config", "vitl")],
                             ids=lambda f: f[0])
    def test_override_next_to_model_refused(self, tmp_path, tiny_archive, capsys, flags):
        """The archive fixes the config: a preset or an override flag next to
        --model exits 2 with one line instead of being silently dropped."""
        out = tmp_path / "cost.json"
        capsys.readouterr()
        assert run("cost", "--model", tiny_archive, *flags, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {flags[0]} cannot be given with --model: the archive fixes the config\n")
        assert not out.exists()

    @pytest.mark.parametrize("with_model", [False, True], ids=["preset", "model"])
    def test_variant_without_plan_or_sweep_refused(self, tmp_path, tiny_archive, capsys,
                                                   with_model):
        """Only --plan and --sweep price a variant: --variant without either
        exits 2 with one line; omitted, it is recorded as dw and --config as
        desk."""
        source = ("--model", tiny_archive) if with_model else ()
        out = tmp_path / "cost.json"
        capsys.readouterr()
        assert run("cost", *source, "--variant", "ens-dw", "--out", out) == 2
        assert capsys.readouterr().err == "error: --variant is read only by --plan or --sweep\n"
        assert not out.exists()
        assert run("cost", *source, "--out", out) == 0
        options = json.loads(out.read_text())["manifest"]["options"]
        assert (options["variant"], options["config"]) == ("dw", "desk")

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

    def test_plan_and_sweep_tables(self, tmp_path, capsys):
        """The table format prints the variant table, then the plan's
        `CostReport.to_table()`, then one row per budget of
        `cost.budget_sweep`: budget, GFLOPs to 3 places and % to 2."""
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 2, (0, 5)), plan)
        capsys.readouterr()
        assert run("cost", "--config", "vitl", "--plan", plan, "--variant", "ens-dw",
                   "--format", "table", "--sweep") == 0
        head, sweep = capsys.readouterr().out.split("\nbudget  FLOPs(G)  reduction(%)\n")
        report = cost.model_cost_report(vit.VITL, plan_from_file(plan), "ens-dw")
        assert head == f"{cost.variant_table_text(vit.VITL)}\n\n{report.to_table()}\n"
        rows = np.array([line.split() for line in sweep.splitlines()], dtype=np.float64)
        want = cost.budget_sweep(vit.VITL, "ens-dw")
        np.testing.assert_array_equal(rows[:, 0], [w["budget"] for w in want])
        np.testing.assert_allclose(rows[:, 1], [w["flops"] / 1e9 for w in want], rtol=0, atol=5e-4)
        np.testing.assert_allclose(rows[:, 2], [w["flops_reduction_pct"] for w in want],
                                   rtol=0, atol=5e-3)


class TestBench:
    def test_smoke_and_shape(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run("bench", *TINY_FLAGS, "--variants", "mhsa,dw,ens-dw",
                   "--reps", 3, "--warmup", 1, "--out", out) == 0
        doc = json.loads(out.read_text())
        for v in ("mhsa", "dw", "ens-dw"):
            r = doc["results"][v]
            assert r["p10"] <= r["median"] <= r["p90"]

    @pytest.mark.parametrize("variants", [",", " , ,", ""])
    def test_empty_variant_list_is_usage_error(self, tmp_path, capsys, variants):
        out = tmp_path / "bench.json"
        capsys.readouterr()
        assert run("bench", *TINY_FLAGS, "--variants", variants, "--reps", 1,
                   "--warmup", 0, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: --variants {variants!r} names no variant\n"
        assert not out.exists()

    @pytest.mark.parametrize("plan_mode", [False, True], ids=["single-block", "plan"])
    def test_flag_of_the_other_mode_refused(self, tmp_path, tiny_archive, capsys, plan_mode):
        """--variant is read only with --plan and --variants only without
        it; omitted, both are recorded as their defaults."""
        out = tmp_path / "bench.json"
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        source = ("--model", tiny_archive, "--plan", plan) if plan_mode else TINY_FLAGS
        stray, message = ((("--variants", "mhsa"), "--variants cannot be given with --plan, "
                           "which times --variant") if plan_mode else
                          (("--variant", "ens-convfull"), "--variant is read only by --plan"))
        argv = ("bench", *source, "--reps", 1, "--warmup", 0, "--out", out)
        capsys.readouterr()
        assert run(*argv, *stray) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert run(*argv) == 0
        options = json.loads(out.read_text())["manifest"]["options"]
        assert (options["variant"], options["variants"]) == ("dw", "mhsa,dw,ens-dw")

    @pytest.mark.parametrize("variants", ["mhsa,xx", "xx", "dw,mhsa,DW"])
    def test_unknown_variant_is_usage_error(self, tmp_path, capsys, variants):
        out = tmp_path / "bench.json"
        capsys.readouterr()
        assert run("bench", *TINY_FLAGS, "--variants", variants, "--reps", 1,
                   "--warmup", 0, "--out", out) == 2
        unknown = variants.split(",")[-1]
        assert capsys.readouterr().err == f"error: unknown bench variant {unknown!r}\n"
        assert not out.exists()

    def test_plan_without_model_refused(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        out = tmp_path / "bench.json"
        capsys.readouterr()
        assert run("bench", "--plan", plan, "--reps", 1, "--warmup", 0, "--out", out) == 2
        assert capsys.readouterr().err == "error: --plan benching needs --model with weights\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("plan_mode", [False, True], ids=["single-block", "plan"])
    def test_override_next_to_model_refused(self, tmp_path, tiny_archive, capsys, plan_mode):
        out = tmp_path / "bench.json"
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        extra = ("--plan", plan) if plan_mode else ()
        capsys.readouterr()
        assert run("bench", "--model", tiny_archive, *extra, "--heads", 4, "--reps", 1,
                   "--warmup", 0, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: --heads cannot be given with --model: the archive fixes the config\n")
        assert not out.exists()

    @pytest.mark.parametrize("plan_mode", [False, True], ids=["single-block", "plan"])
    def test_config_next_to_model_refused(self, tmp_path, tiny_archive, capsys, plan_mode):
        """The archive fixes the config in both modes: --config next to
        --model exits 2; omitted, it is recorded as desk."""
        out = tmp_path / "bench.json"
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        argv = ("bench", "--model", tiny_archive, *(("--plan", plan) if plan_mode else ()),
                "--reps", 1, "--warmup", 0, "--out", out)
        capsys.readouterr()
        assert run(*argv, "--config", "desk") == 2
        assert capsys.readouterr().err == (
            "error: --config cannot be given with --model: the archive fixes the config\n")
        assert not out.exists()
        assert run(*argv) == 0
        assert json.loads(out.read_text())["manifest"]["options"]["config"] == "desk"

    @pytest.mark.parametrize("plan_mode", [False, True], ids=["single-block", "plan"])
    def test_negative_warmup_is_usage_error(self, tmp_path, tiny_archive, capsys, plan_mode):
        out = tmp_path / "bench.json"
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        source = ("--model", tiny_archive, "--plan", plan) if plan_mode else TINY_FLAGS
        capsys.readouterr()
        assert run("bench", *source, "--reps", 1, "--warmup", -2, "--out", out) == 2
        assert capsys.readouterr().err == "error: warmup must be >= 0, got -2\n"
        assert not out.exists()


class TestNegativeSeed:
    """Every seeded command refuses a negative seed before it draws: exit 2,
    one error line, no output file."""

    @pytest.mark.parametrize("command", [
        "gen", "score", "replace-fit", "replace-init", "verify", "bench", "gate"])
    def test_refused(self, tmp_path, tiny_archive, capsys, command):
        plan = tmp_path / "plan.json"
        plan_to_file(SelectionPlan("blockwise", "lowest", 1, (0,)), plan)
        model, out = ("--model", tiny_archive), tmp_path / "out"
        argv = {
            "gen": ("gen", *TINY_FLAGS, "--seed", -1),
            "score": ("score", *model, "--samples", 2, "--seed", -1),
            "replace-fit": ("replace", *model, "--plan", plan, "--fit", "--samples", 2,
                            "--seed", -1),
            "replace-init": ("replace", *model, "--plan", plan, "--init-seed", -1),
            "verify": ("verify", *model, "--hybrid", tiny_archive, "--samples", 2,
                       "--seed", -1),
            "bench": ("bench", *TINY_FLAGS, "--reps", 1, "--warmup", 0, "--seed", -1),
            "gate": ("gate", "--blocks", 4, "--budget", 2, "--seed", -1),
        }[command]
        capsys.readouterr()
        assert run(*argv, "--out", out) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


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

    def test_blocks_next_to_model_refused(self, tmp_path, tiny_archive, capsys):
        out = tmp_path / "gate.json"
        capsys.readouterr()
        assert run("gate", "--model", tiny_archive, "--blocks", 2, "--budget", 1,
                   "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: --blocks cannot be given with --model: the archive fixes the config\n")
        assert not out.exists()

    def test_model_sizes_the_gate(self, tmp_path, tiny_archive):
        out = tmp_path / "gate.json"
        assert run("gate", "--model", tiny_archive, "--budget", 1, "--steps", 3,
                   "--out", out) == 0
        assert json.loads(out.read_text())["n_b"] == TINY.n_b

    @pytest.mark.parametrize("flags, message", [
        (("--steps", 0), "steps must be >= 1, got 0"),
        (("--steps", -3), "steps must be >= 1, got -3"),
        (("--tau0", "nan"), "temperatures must be positive and finite, got nan"),
        (("--tau0", "inf"), "temperatures must be positive and finite, got inf"),
        (("--tau-end", "inf"), "temperatures must be positive and finite, got inf"),
        (("--tau-end", "-0.5"), "temperatures must be positive and finite, got -0.5"),
        (("--tau0", "-inf"), "temperatures must be positive and finite, got -inf"),
        (("--tau-end", "-1e-3"), "temperatures must be positive and finite, got -0.001"),
        (("--blocks", -1), "--blocks must be >= 1, got -1"),
        (("--blocks", 0), "--blocks must be >= 1, got 0"),
        (("--tau0", "1e300", "--tau-end", "1e-300"),
         "tau_end / tau0 (1e-300 / 1e+300) underflows float64"),
        (("--tau0", "1e-320"), "tau_end / tau0 (0.05 / 1e-320) overflows float64"),
        (("--tau0", "1e-320", "--tau-end", "1e-320"),
         "temperature 1e-320 overflows float64 in perturbed logits / tau"),
    ])
    def test_bad_schedule_is_usage_error(self, tmp_path, capsys, flags, message):
        """A schedule with no steps, a temperature that is not positive and
        finite or that the perturbed logits overflow when divided by it, a
        pair of temperatures whose ratio leaves float64, or a gate over no
        blocks exits 2 with one error line and writes no trace."""
        out = tmp_path / "gate.json"
        capsys.readouterr()
        assert run("gate", "--blocks", 6, "--budget", 2, *flags, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_far_apart_temperatures_run_without_interior_steps(self, tmp_path):
        """Only the steps between the endpoints read tau_end / tau0, so a
        one-step schedule runs whatever that ratio is."""
        out = tmp_path / "gate.json"
        assert run("gate", "--blocks", 6, "--budget", 2, "--steps", 1, "--tau0", "1e300",
                   "--tau-end", "1e-300", "--out", out) == 0
        assert [r["tau"] for r in json.loads(out.read_text())["trace"]] == [1e300, 1e-300]


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

    def test_escaped_non_finite_error_exits_1(self, monkeypatch, capsys):
        """A NonFiniteError that no command turns into a file fault exits 1
        with one `error:` line. Every forward a command runs is such a
        fault (exit 3), so this takes a callee that raises it."""
        def overflow(*args, **kwargs):
            raise NonFiniteError("non-finite values in gate trace")

        monkeypatch.setattr(cli.select, "gate_trace", overflow)
        capsys.readouterr()
        assert run("gate", "--blocks", 2, "--budget", 1) == 1
        assert capsys.readouterr() == ("", "error: non-finite values in gate trace\n")


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
