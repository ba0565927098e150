"""The sample passes run in chunks (`vit.attention_reads`): each chunk's
residual is one (B*n, d) array that the block loop carries, and the
attention core runs per sample inside it. A chunked pass must give what
one pass per sample gives, read by read and tap by tap, in (chunk,
block, sample) order, and so must the σ report and the fitted kernels.

The oracles here run one sample at a time: `model_forward(x, stop=b)`
for the residual entering block b, then `attention` of its normed input,
or one full `model_forward` per sample (`conftest.full_forward_scores`,
`full_forward_records`).

Bits hold where BLAS rounds a GEMM row alike whatever the row count: desk
and vitl with OpenBLAS. On the odd config (d=24, d_h=8, m=5) OpenBLAS
rounds the FFN's (rows, 96) x (96, 24) down-projection differently once a
chunk stacks 18 or more samples, so there only block 0's reads, which
precede every FFN, are bitwise; the rest agree within float32 rounding.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from dwdropin import cli, dropin, select, vit
from dwdropin.select import SelectionPlan, score_model
from dwdropin.tensor import GROUP_BYTES
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
    in the order the chunked pass reads them: each block's tap digests
    every weight group the pass's attention sees, and its fold, which
    follows the chunk's taps, splits the chunk into its samples."""
    groups = len(vit.head_groups(model.config.n_h, model.config.n))
    reads, taps = [], []

    def fold(b):
        def add(a_in, out):
            assert len(taps) == groups * len(a_in)
            reads.extend((b, a, o, taps[i * groups : (i + 1) * groups])
                         for i, (a, o) in enumerate(zip(a_in, out, strict=True)))
            taps.clear()
        return add

    tap = dict.fromkeys(blocks, lambda e, h0: taps.append((h0, digest(e))))
    assert vit.attention_reads(samples, model, taps=tap, folds={b: fold(b) for b in blocks}) \
        == sum(1 for r in reads if r[0] == max(blocks))
    return reads


def per_sample_reads(model, samples, blocks) -> list:
    """The same reads, one sample at a time, in (chunk, block, sample) order."""
    size = vit.chunk_size(model.config)
    reads = []
    for c in range(0, len(samples), size):
        for b in sorted(blocks):
            block = model.blocks[b]
            for x in samples[c : c + size]:
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
        for (b, a_in, out, taps), (_, want_in, want_out, want_taps) in zip(got, want):
            if b == 0:
                np.testing.assert_array_equal(a_in, want_in)
                np.testing.assert_array_equal(out, want_out)
                assert taps == want_taps
            else:
                np.testing.assert_allclose(a_in, want_in, rtol=1e-5, atol=1e-5)
                np.testing.assert_allclose(out, want_out, rtol=1e-5, atol=1e-5)

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
        """Across two chunks and a partial third, within float32 rounding
        of the FFN's GEMM (module docstring)."""
        model = init_model(ODD, 12)
        count = 2 * vit.chunk_size(ODD) + 1
        samples = list(samples_of(ODD, count, "list"))
        want = full_forward_scores(model, samples)
        got = score_model(model, samples_of(ODD, count, "lazy"))
        np.testing.assert_array_equal(got.sigma_h[0], want.sigma_h[0])
        np.testing.assert_allclose(got.sigma_h, want.sigma_h, rtol=1e-6)
        plan = SelectionPlan("blockwise", "lowest", 1, (1,))
        hm, reports = dropin.build_dropins(model, plan, "dw", samples=iter(samples))
        fits = fit_records(model, 1, "dw", tuple(range(ODD.n_h)), None,
                           full_forward_records(model, samples, (1,)))
        for h, (kern, rep) in enumerate(fits):
            np.testing.assert_allclose(hm.dropins[1].head_kernels[h], kern, rtol=1e-4, atol=1e-6)
            assert reports[(1, h)].objective == pytest.approx(rep.objective, rel=1e-4)
