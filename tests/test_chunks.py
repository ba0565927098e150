"""The sample passes run in chunks (`vit.attention_reads`): each chunk's
residual is one (B*n, d) array that the block loop carries, and the
attention core runs per sample inside it. A chunked pass must give what
one pass per sample gives, read by read and tap by tap, each block's in
(chunk, sample) order, and so must the σ report and the fitted kernels.
Blocks in the pass's two stages read at once, so the order across blocks
is not pinned.

The oracles here run one sample at a time: `model_forward(x, stop=b)`
for the residual entering block b, then `attention` of its normed input,
or one full `model_forward` per sample (`conftest.full_forward_scores`,
`full_forward_records`).

Bits hold where BLAS rounds a GEMM row alike whatever the row count:
desk, vitl and the odd config (d=24, d_h=8, m=5) with OpenBLAS. The pass
runs its GEMMs in row pieces on OpenBLAS's small-matrix path
(`tensor.small_gemms`), the path the odd config's per-sample GEMMs take,
so its FFN's (rows, 96) x (96, 24) down-projection rounds each row as one
sample's forward does.
"""

import dataclasses
import hashlib
import itertools
import json
import sys
import threading

import numpy as np
import pytest

from dwdropin import cli, dropin, select, tensor, vit
from dwdropin.select import SelectionPlan, score_model
from dwdropin.tensor import GROUP_BYTES, NonFiniteError
from dwdropin.vit import DESK, VITL, ModelConfig, attention, attention_input, init_model

from conftest import fit_records, full_forward_records, full_forward_scores

ODD = ModelConfig(n_b=2, n_h=3, d=24, d_h=8, m=5, k=5)
VITL_ONE = dataclasses.replace(VITL, n_b=1)


def sample_counts(cfg) -> list:
    """1, chunk - 1, chunk, chunk + 1 and 2 chunk + 1 samples, each once."""
    c = vit.chunk_size(cfg)
    return sorted({1, c - 1, c, c + 1, 2 * c + 1} - {0})


def samples_of(cfg, count: int, kind: str):
    """`count` seeded samples, as a `--data`-style list or lazily drawn."""
    drawn = cli.synthetic_samples(cfg, count, 7)
    return list(drawn) if kind == "list" else drawn


def digest(a: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).digest()


def tapped_attention(a_in, block):
    """`attention` of a_in, (n, d) or (B, n, d), and a digest of every
    weight group its energy tap sees, in tap order."""
    taps = []
    out = attention(a_in, block.w_qkv, block.d_h,
                    energy_tap=lambda e, h0: taps.append((h0, digest(e))))
    return out, taps


def chunked_reads(model, samples, blocks) -> list:
    """(block, normed input, head outputs, taps) of every sample's read,
    block by block, each block's in the order the chunked pass reads them:
    each block's tap digests every weight group the pass's attention sees,
    and its fold, which follows the chunk's taps, splits the chunk into its
    samples. Blocks in different stages read at once, so each block keeps
    its own taps and reads."""
    groups = len(vit.head_groups(model.config.n_h, model.config.n))
    reads, taps = ({b: [] for b in blocks} for _ in range(2))

    def fold(b):
        def add(a_in, out):
            assert len(taps[b]) == groups * len(a_in)
            reads[b].extend((b, a, o, taps[b][i * groups : (i + 1) * groups])
                            for i, (a, o) in enumerate(zip(a_in, out, strict=True)))
            taps[b].clear()
        return add

    tap = {b: lambda e, h0, b=b: taps[b].append((h0, digest(e))) for b in blocks}
    assert vit.attention_reads(samples, model, taps=tap, folds={b: fold(b) for b in blocks}) \
        == len(reads[max(blocks)])
    return [r for b in sorted(blocks) for r in reads[b]]


def per_sample_reads(model, samples, blocks) -> list:
    """The same reads, one sample at a time, in (block, sample) order."""
    reads = []
    for b in sorted(blocks):
        block = model.blocks[b]
        for x in samples:
            a_in = attention_input(vit.model_forward(x, model, stop=b), block)
            reads.append((b, a_in, *tapped_attention(a_in, block)))
    return reads


class TestChunkRule:
    def test_chunks_at_desk_one_sample_at_vitl(self):
        assert vit.chunk_size(DESK) == 8 > 1
        assert vit.chunk_size(ODD) == 58
        assert vit.chunk_size(VITL) == 1

    @pytest.mark.parametrize("cfg", [DESK, ODD, VITL], ids=["desk", "odd", "vitl"])
    def test_unit_is_a_sample_at_the_blocks_peak(self, cfg):
        """Two residuals, the FFN's normed input, and its hidden array,
        GELU's scratch and GELU's output, float32."""
        unit = 4 * cfg.n * (3 * cfg.d + 3 * cfg.ffn_mult * cfg.d)
        assert vit.chunk_size(cfg) == max(1, GROUP_BYTES // unit)


class TestChunkedReads:
    @pytest.mark.parametrize("kind", ["list", "lazy"])
    @pytest.mark.parametrize("count", sample_counts(DESK))
    def test_desk_reads_equal_per_sample_reads(self, desk_model, count, kind):
        samples = list(samples_of(DESK, count, "list"))
        blocks = range(DESK.n_b)
        got = chunked_reads(desk_model, samples_of(DESK, count, kind), blocks)
        want = per_sample_reads(desk_model, samples, blocks)
        assert [r[0] for r in got] == [r[0] for r in want]
        for (_, a_in, out, taps), (_, want_in, want_out, want_taps) in zip(got, want):
            np.testing.assert_array_equal(a_in, want_in)
            np.testing.assert_array_equal(out, want_out)
            assert taps == want_taps

    @pytest.mark.parametrize("kind", ["list", "lazy"])
    def test_vitl_block_reads_equal_per_sample_reads(self, kind):
        model = init_model(VITL_ONE, 13)
        samples = list(samples_of(VITL_ONE, 2, "list"))
        got = chunked_reads(model, samples_of(VITL_ONE, 2, kind), (0,))
        want = per_sample_reads(model, samples, (0,))
        assert len(got) == len(want) == 2
        for (_, a_in, out, taps), (_, want_in, want_out, want_taps) in zip(got, want):
            np.testing.assert_array_equal(a_in, want_in)
            np.testing.assert_array_equal(out, want_out)
            assert taps == want_taps

    @pytest.mark.parametrize("kind", ["list", "lazy"])
    @pytest.mark.parametrize("count", sample_counts(ODD))
    def test_odd_reads_match_per_sample_reads(self, count, kind):
        model = init_model(ODD, 11)
        samples = list(samples_of(ODD, count, "list"))
        got = chunked_reads(model, samples_of(ODD, count, kind), (0, 1))
        want = per_sample_reads(model, samples, (0, 1))
        assert [r[0] for r in got] == [r[0] for r in want]
        for (_, a_in, out, taps), (_, want_in, want_out, want_taps) in zip(got, want):
            np.testing.assert_array_equal(a_in, want_in)
            np.testing.assert_array_equal(out, want_out)
            assert taps == want_taps

    @pytest.mark.parametrize("cfg, count", [(DESK, 2 * vit.chunk_size(DESK) + 1),
                                            (VITL_ONE, 2)], ids=["desk", "vitl-block"])
    def test_stacked_forward_is_per_sample_forward(self, cfg, count):
        """The block loop over stacked samples, with attention per sample
        as the chunked pass runs it, gives each sample's `model_forward`
        rows, through every block."""
        model = init_model(cfg, 17)
        samples = list(samples_of(cfg, count, "list"))
        per_sample = {b: lambda a, blk: vit.project_heads(attention(
            a.reshape(count, cfg.n, cfg.d), blk.w_qkv, blk.d_h).reshape(-1, cfg.d), blk)
            for b in range(cfg.n_b)}
        stacked = vit.blocks_forward(np.concatenate([vit.embed(x, model) for x in samples]),
                                     model, 0, mhsa_fns=per_sample)
        for x, rows in zip(samples, np.split(stacked, count)):
            np.testing.assert_array_equal(rows, vit.model_forward(x, model))


class TestChunkedResults:
    @pytest.mark.parametrize("kind", ["list", "lazy"])
    @pytest.mark.parametrize("count", sample_counts(DESK))
    def test_desk_scores_equal_per_sample_scores(self, desk_model, count, kind):
        want = full_forward_scores(desk_model, list(samples_of(DESK, count, "list"))).to_report()
        got = score_model(desk_model, samples_of(DESK, count, kind)).to_report()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("variant, targets", [("dw", (2, 3, 5)), ("ens-dw", (2, 3, 5)),
                                                  ("dw", ((0, 1), (4, 2)))],
                             ids=["dw", "ens-dw", "dw-scattered"])
    @pytest.mark.parametrize("kind", ["list", "lazy"])
    @pytest.mark.parametrize("count", sample_counts(DESK))
    def test_desk_fits_equal_per_sample_fits(self, desk_model, count, kind, variant, targets):
        mode = "blockwise" if isinstance(targets[0], int) else "scattered"
        plan = SelectionPlan(mode, "lowest", len(targets), targets)
        hm, reports = dropin.build_dropins(desk_model, plan, variant,
                                           samples=samples_of(DESK, count, kind))
        by_block = dropin.planned_heads(plan, DESK, variant)
        records = full_forward_records(desk_model, list(samples_of(DESK, count, "list")),
                                       sorted(by_block))
        for b, heads in by_block.items():
            heads = tuple(sorted(heads))
            dp = hm.dropins[b]
            fits = fit_records(desk_model, b, variant, heads, dp.gamma, records)
            if variant in dropin.ENSEMBLED:
                [(kern, rep)] = fits
                np.testing.assert_array_equal(dp.kernel, kern)
                assert reports[b] == rep
            else:
                for h, (kern, rep) in zip(heads, fits):
                    np.testing.assert_array_equal(dp.head_kernels[h], kern)
                    assert reports[(b, h)] == rep

    @pytest.mark.parametrize("kind", ["list", "lazy"])
    def test_one_pass_taps_and_folds_the_same_blocks(self, desk_model, kind):
        """One pass that taps every block and folds blocks 2, 3 and 5 into
        their dw fits gives `score_model`'s σ and `build_dropins`' dw
        kernels bit for bit: the shared pass a block statistic beside σ
        needs."""
        count = 2 * vit.chunk_size(DESK) + 1
        groups = vit.head_groups(DESK.n_h, DESK.n)
        states = [{h0: select.WelfordState.new((h1 - h0, DESK.n, DESK.n)) for h0, h1 in groups}
                  for _ in range(DESK.n_b)]
        heads = tuple(range(DESK.n_h))
        fits = {b: dropin._BlockFit(desk_model, b, "dw", heads, None) for b in (2, 3, 5)}
        taps = {b: lambda e, h0, s=state: select.welford_update(s[h0], e)
                for b, state in enumerate(states)}
        assert vit.attention_reads(samples_of(DESK, count, kind), desk_model, taps=taps,
                                   folds={b: fit.add for b, fit in fits.items()}) == count
        sigma_h = np.array([[select.sigma_head(sigma) for h0, _ in groups
                             for sigma in select.welford_finalize(state[h0])]
                            for state in states])
        np.testing.assert_array_equal(
            sigma_h, score_model(desk_model, samples_of(DESK, count, kind)).sigma_h)
        plan = SelectionPlan("blockwise", "lowest", len(fits), tuple(fits))
        hm, reports = dropin.build_dropins(desk_model, plan, "dw",
                                           samples=samples_of(DESK, count, kind))
        for b, fit in fits.items():
            for h, (kern, rep) in zip(heads, fit.solve(), strict=True):
                np.testing.assert_array_equal(hm.dropins[b].head_kernels[h], kern)
                assert reports[(b, h)] == rep

    def test_odd_scores_and_fits_match_per_sample_ones(self):
        """Across two chunks and a partial third, bit for bit, past the
        FFN's GEMM too (module docstring)."""
        model = init_model(ODD, 12)
        count = 2 * vit.chunk_size(ODD) + 1
        samples = list(samples_of(ODD, count, "list"))
        want = full_forward_scores(model, samples)
        got = score_model(model, samples_of(ODD, count, "lazy"))
        np.testing.assert_array_equal(got.sigma_h, want.sigma_h)
        plan = SelectionPlan("blockwise", "lowest", 1, (1,))
        hm, reports = dropin.build_dropins(model, plan, "dw", samples=iter(samples))
        fits = fit_records(model, 1, "dw", tuple(range(ODD.n_h)), None,
                           full_forward_records(model, samples, (1,)))
        for h, (kern, rep) in enumerate(fits):
            np.testing.assert_array_equal(hm.dropins[1].head_kernels[h], kern)
            assert reports[(1, h)] == rep


DESK_CHUNK = vit.chunk_size(DESK)


def raising_tap(chunk: int, exc: BaseException, before=lambda: None):
    """A desk block's tap (one head group, so one call per sample) that
    calls `before()` and raises `exc` at its first read of chunk `chunk`."""
    reads = itertools.count()

    def tap(e, h0):
        if next(reads) // DESK_CHUNK == chunk:
            before()
            raise exc
    return tap


def sample_source_failing_after(count: int):
    yield from samples_of(DESK, count, "lazy")
    raise RuntimeError("sample source failed")


def failing_pass(case: str):
    """A desk pass over three chunks that taps every block and fails as
    `case` says: block b's output projection goes non-finite
    ("nonfinite-b"); block b's tap raises ValueError ("tap-b") or
    KeyboardInterrupt ("interrupt-b") in the second chunk; the sample
    source fails in the second chunk ("samples"); or block 4's tap fails
    in the first chunk and block 0's in the second ("cross-stage"), the
    worker's only once the caller's has. The pass's stage one runs blocks
    0 .. 2, its stage two blocks 3 .. 5."""
    model = init_model(DESK, 251)
    taps = dict.fromkeys(range(DESK.n_b), lambda e, h0: None)
    samples = samples_of(DESK, 2 * DESK_CHUNK + 1, "lazy")
    kind, _, b = case.partition("-")
    if kind == "nonfinite":
        model.blocks[int(b)].w_o[0, 0] = np.inf
    elif kind in ("tap", "interrupt"):
        taps[int(b)] = raising_tap(1, ValueError(f"tap {b} failed") if kind == "tap"
                                   else KeyboardInterrupt())
    elif kind == "samples":
        samples = sample_source_failing_after(DESK_CHUNK + 3)
    else:
        caller_failed = threading.Event()

        def in_worker_wait():
            if threading.current_thread() is not threading.main_thread():
                assert caller_failed.wait(30)

        taps[0] = raising_tap(1, ValueError("stage one failed"), caller_failed.set)
        taps[4] = raising_tap(0, ValueError("stage two failed"), in_worker_wait)
    return lambda: vit.attention_reads(samples, model, taps=taps)


class TestTwoStages:
    """Where `vit.two_stage`, the pass runs as two stages on two threads,
    the calling thread's and one worker's, and every GEMM it issues runs in
    row pieces on the calling thread (`tensor.small_gemms`). No thread
    outlives the pass, and an error is raised as the one-thread loop
    raises it."""

    def test_two_stages_at_desk_and_odd_one_thread_at_vitl(self):
        assert vit.two_stage(DESK) and vit.two_stage(ODD)
        assert not vit.two_stage(VITL)

    def test_vitl_pass_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("the vitl pass started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        model = init_model(VITL_ONE, 13)
        pieced = []
        assert vit.attention_reads(samples_of(VITL_ONE, 2, "lazy"), model, folds={
            0: lambda a_in, out: pieced.append(tensor._small_gemms.get())}) == 2
        assert pieced == [False, False]

    @pytest.mark.parametrize("cfg", [DESK, ODD], ids=["desk", "odd"])
    def test_both_stages_piece_their_gemms_and_no_thread_outlives_the_pass(self, cfg):
        model = init_model(cfg, 252)
        count = 2 * vit.chunk_size(cfg) + 1
        pieced = {b: [] for b in range(cfg.n_b)}
        threads = {b: set() for b in range(cfg.n_b)}

        def fold(b):
            def add(a_in, out):
                pieced[b].append(tensor._small_gemms.get())
                threads[b].add(threading.get_ident())
            return add

        before = threading.active_count()
        assert vit.attention_reads(samples_of(cfg, count, "lazy"), model,
                                   folds={b: fold(b) for b in range(cfg.n_b)}) == count
        assert threading.active_count() == before
        assert pieced == {b: [True] * 3 for b in range(cfg.n_b)}
        assert threads[0] == {threading.get_ident()}
        assert len(threads[cfg.n_b - 1]) == 1 and threads[cfg.n_b - 1] != threads[0]
        assert not tensor._small_gemms.get()

    def test_concurrent_passes_under_a_short_switch_interval(self, monkeypatch):
        """Two desk score passes at once from two threads, so four threads
        on two cores, switching every microsecond: each σ is its
        one-thread pass's bit for bit, and every thread ends."""
        models = [init_model(DESK, seed) for seed in (254, 255)]
        count = 2 * DESK_CHUNK + 1
        with monkeypatch.context() as m:
            m.setattr(vit, "two_stage", lambda cfg: False)
            want = [score_model(model, samples_of(DESK, count, "lazy")).sigma_h
                    for model in models]
        got = {}

        def score(i):
            got[i] = score_model(models[i], samples_of(DESK, count, "lazy")).sigma_h

        before, interval = threading.active_count(), sys.getswitchinterval()
        callers = [threading.Thread(target=score, args=(i,)) for i in range(len(models))]
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert threading.active_count() == before
        for i, sigma_h in enumerate(want):
            np.testing.assert_array_equal(got[i], sigma_h)

    @pytest.mark.parametrize("case, raised", [
        ("nonfinite-1", (NonFiniteError, "non-finite values in matmul result")),
        ("nonfinite-4", (NonFiniteError, "non-finite values in matmul result")),
        ("tap-0", (ValueError, "tap 0 failed")),
        ("tap-5", (ValueError, "tap 5 failed")),
        ("interrupt-1", (KeyboardInterrupt, "")),
        ("interrupt-4", (KeyboardInterrupt, "")),
        ("samples", (RuntimeError, "sample source failed")),
        ("cross-stage", (ValueError, "stage two failed"))])
    def test_errors_raise_as_in_one_thread_and_leave_no_thread(self, monkeypatch, case, raised):
        """The earlier chunk's error wins: in "cross-stage" stage two's,
        though stage one fails first."""
        def error_of(run):
            before = threading.active_count()
            with pytest.raises(BaseException) as info:
                run()
            assert threading.active_count() == before
            return type(info.value), str(info.value)

        assert error_of(failing_pass(case)) == raised
        monkeypatch.setattr(vit, "two_stage", lambda cfg: False)
        assert error_of(failing_pass(case)) == raised


def pass_gemms(cfg) -> list:
    """(a, b) at every GEMM shape of a full chunk's pass: the QKV and
    output projections, both FFN GEMMs, and the dw and ens-dw fits' value
    GEMMs, with a drawn from the samples of a chunk."""
    model = init_model(cfg, 253)
    block = model.blocks[0]
    a = np.concatenate(list(samples_of(cfg, vit.chunk_size(cfg), "lazy")))
    hidden = np.abs(np.concatenate([a] * cfg.ffn_mult, axis=1))
    w_val_dw = dropin._block_values("dw", block, tuple(range(cfg.n_h)), None)[0]
    w_val_ens = dropin._block_values("ens-dw", block, None, np.zeros(cfg.n_h))[0]
    return [(a, block.w_qkv), (a, block.w_o), (a, block.ffn_w1), (hidden, block.ffn_w2),
            (a, w_val_dw), (a, w_val_ens)]


class TestGemmPieces:
    @pytest.mark.parametrize("cfg", [DESK, ODD], ids=["desk", "odd"])
    def test_pieces_are_each_samples_gemm(self, cfg):
        """Within `small_gemms`, every pass GEMM equals one GEMM per
        sample's n rows, as a sample's forward runs it, bit for bit; at
        desk it also equals the one unpieced GEMM."""
        for a, b in pass_gemms(cfg):
            with tensor.small_gemms():
                pieced = tensor.matmul(a, b)
            per_sample = np.concatenate([tensor.matmul(a[i : i + cfg.n], b)
                                         for i in range(0, len(a), cfg.n)])
            np.testing.assert_array_equal(pieced, per_sample)
            if cfg == DESK:
                np.testing.assert_array_equal(pieced, tensor.matmul(a, b))

    def test_one_np_matmul_outside_pieces_within(self, monkeypatch):
        a, b = pass_gemms(DESK)[2]
        calls = []
        monkeypatch.setattr(np, "matmul", lambda x, y, np_matmul=np.matmul, **kw:
                            calls.append(x.shape) or np_matmul(x, y, **kw))
        tensor.matmul(a, b)
        assert calls == [a.shape]
        calls.clear()
        rows = tensor.piece_rows(*b.shape)
        assert rows == tensor.SMALL_GEMM // (DESK.d * DESK.ffn_mult * DESK.d) == 61
        with tensor.small_gemms():
            tensor.matmul(a, b)
        assert calls == [(min(rows, len(a) - i), DESK.d) for i in range(0, len(a), rows)]

    def test_a_gemm_no_piece_fits_runs_whole(self):
        """A row of more than SMALL_GEMM multiply-adds (a vitl FFN GEMM's)
        is not split."""
        assert tensor.piece_rows(VITL.d, VITL.ffn_mult * VITL.d) == 0
        a, b = np.ones((3, 1024), dtype=np.float32), np.ones((1024, 1000), dtype=np.float32)
        with tensor.small_gemms():
            np.testing.assert_array_equal(tensor.matmul(a, b), np.full((3, 1000), 1024.0))
