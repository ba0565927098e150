import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dwdropin import dropin, select, vit
from dwdropin.tensor import as_f32, seed_stream, seeded_fill

TINY = vit.ModelConfig(n_b=2, n_h=2, d=8, d_h=4, m=4, k=3, ffn_mult=2)
# exact attention over its 256 tokens runs at most 8 of its 12 heads at once
GROUPED = vit.ModelConfig(n_b=1, n_h=12, d=192, d_h=16, m=16, k=3, ffn_mult=2)


def pytest_collection_modifyitems(items):
    """A RuntimeWarning fails every test of this suite: the library checks
    finiteness itself (NonFiniteError), so a numpy floating-point warning
    reaching a caller is a stray stderr line. Other suites collected in the
    same run keep pytest's default."""
    here = Path(__file__).resolve().parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while `fn()` runs, numpy
    buffers included, above what was allocated before it started."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def desk_model():
    return vit.init_model(vit.DESK, seed=101)


@pytest.fixture(scope="session")
def tiny_model():
    return vit.init_model(TINY, seed=202)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(4242))


def make_inputs(cfg, count, seed):
    seeds = seed_stream(seed)
    return [seeded_fill((cfg.n, cfg.d), next(seeds), "gaussian", 0.0, 1.0)
            for _ in range(count)]


def block_residuals(model, x):
    """The residual entering every block for one sample, walked block by
    block with `block_forward`: an oracle for the forward's own residual
    stream that shares no code with `blocks_forward` or the passes that
    stop early."""
    h = as_f32(x) + model.pos_enc
    residuals = []
    for block in model.blocks:
        residuals.append(h)
        h = vit.block_forward(h, block)
    return residuals


def block_inputs(model, x):
    """Every block's normed attention input for one sample: `layer_norm` of
    the `block_residuals` walk, an oracle for the forward's own inputs
    that shares no code with the fit's capture."""
    return [vit.layer_norm(h, block.norm1_scale, block.norm1_shift)
            for h, block in zip(block_residuals(model, x), model.blocks)]


def capture_records(model, samples, blocks):
    """The fit's capture, recorded: `dropin.attention_inputs` with a fold
    per block that splits each chunk's (B, n, d) normed inputs and head
    outputs into one (n, d) pair per sample and keeps them.
    Returns {block: [pair per sample]}."""
    records = {b: [] for b in blocks}
    dropin.attention_inputs(model, samples, {b: lambda a_in, out, r=r: r.extend(zip(a_in, out))
                                             for b, r in records.items()})
    return records


def full_forward_records(model, samples, blocks):
    """The capture as one full `model_forward` per sample, every block run:
    each of `blocks` records (normed input, `vit.attention` output) and
    projects that output. Returns {block: [pair per sample]}."""
    records = {b: [] for b in blocks}

    def recorder(record):
        def sublayer(a_in, block):
            out = vit.attention(a_in, block.w_qkv, block.d_h)
            record.append((a_in, out))
            return vit.project_heads(out, block)
        return sublayer

    fns = {b: recorder(record) for b, record in records.items()}
    for x in samples:
        vit.model_forward(x, model, mhsa_fns=fns)
    return records


def full_forward_scores(model, samples) -> select.ScoreResult:
    """The scorer as one full `model_forward` per sample, every block's
    attention tapped and every block run to its end."""
    cfg = model.config
    groups = vit.head_groups(cfg.n_h, cfg.n)
    states = [{h0: select.WelfordState.new((h1 - h0, cfg.n, cfg.n)) for h0, h1 in groups}
              for _ in range(cfg.n_b)]
    fns = {b: lambda x, block, s=state: vit.project_heads(vit.attention(
               x, block.w_qkv, block.d_h,
               energy_tap=lambda e, h0: select.welford_update(s[h0], e)), block)
           for b, state in enumerate(states)}
    for x in samples:
        vit.model_forward(x, model, mhsa_fns=fns)
    sigma_h = np.array([[select.sigma_head(sigma) for h0, _ in groups
                         for sigma in select.welford_finalize(state[h0])] for state in states])
    return select.ScoreResult(sigma_h=sigma_h, n_samples=len(samples),
                              sigma_b=np.array([select.sigma_block(r) for r in sigma_h]))


def fit_records(model, b, variant, heads, gamma, records):
    """Block b's kernels fitted from recorded capture pairs by the block
    fit `build_dropins` streams its capture into (`dropin._BlockFit`):
    [(kernel, FitReport)], one per head of `heads`, or one for an
    ensembled block."""
    fit = dropin._BlockFit(model, b, variant, heads, gamma)
    for pair in records[b]:
        fit.add(*pair)
    return fit.solve()


def read_manifest(path):
    """An archive's parsed manifest."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16 : 16 + mlen])


def write_manifest(path, manifest):
    """Replace an archive's manifest with any JSON value, keeping its blob."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    mbytes = json.dumps(manifest).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(mbytes)) + mbytes + raw[16 + mlen :])


def rewrite_manifest(path, edit):
    """Apply `edit` to an archive's parsed manifest in place, keeping its blob."""
    manifest = read_manifest(path)
    edit(manifest)
    write_manifest(path, manifest)


DROP = object()  # a BAD_CONFIGS value that deletes its key


def change_config(manifest, change):
    """Apply a BAD_CONFIGS change to a manifest's config (DROP deletes a key)."""
    for key, value in change.items():
        if value is DROP:
            del manifest["config"][key]
        else:
            manifest["config"][key] = value


# Config values load_archive refuses, as (id, config change).
BAD_CONFIGS = [
    ("non-integer", {"n_b": "two"}),
    ("infinite", {"n_b": 1.5e400}),
    ("d-not-n_h-times-d_h", {"d": TINY.d + 1}),
    ("fractional", {"n_b": TINY.n_b + 0.9}),
    ("bool", {"n_b": True}),
    ("numeric-string", {"n_b": str(TINY.n_b)}),
    ("missing-key", {"ffn_mult": DROP}),
]

# Manifests load_archive refuses, as (id, manifest -> faulty manifest, message
# fragment). Tensor 0 is pos_enc at offset 0, so offset 4 lands inside it.
MANIFEST_FAULTS = [
    ("not-an-object", lambda m: 5, "manifest must be a JSON object"),
    ("format-version-bool", lambda m: {**m, "format_version": True}, "unsupported format version"),
    ("tensors-not-a-list", lambda m: {**m, "tensors": 5}, "'tensors' must be a list"),
    ("meta-not-an-object", lambda m: {**m, "meta": [1]}, "'meta' must be a JSON object"),
    ("config-not-an-object", lambda m: {**m, "config": [1]},
     "bad config block: not a JSON object"),
    ("duplicate-name", lambda m: m["tensors"][1].update(name="pos_enc") or m,
     "'pos_enc' is listed twice"),
    ("overlapping-ranges", lambda m: m["tensors"][1].update(offset=4) or m,
     "'pos_enc' and 'block0.w_q' overlap"),
]

# Plan files SelectionPlan.from_json refuses, as (id, parsed JSON, message fragment).
PLAN_FAULTS = [
    ("no-mode", {"order": "lowest", "budget": 1, "targets": [0]}, "plan mode must be one of"),
    ("unknown-mode", {"mode": "diagonal", "order": "lowest", "budget": 1, "targets": [[0, 0]]},
     "got 'diagonal'"),
    ("unknown-order", {"mode": "blockwise", "order": "middle", "budget": 1, "targets": [0]},
     "plan order must be one of"),
    ("fractional-budget", {"mode": "blockwise", "order": "lowest", "budget": 1.5, "targets": [0]},
     "plan budget must be an integer, got 1.5"),
    ("targets-not-a-list", {"mode": "blockwise", "order": "lowest", "budget": 1, "targets": 5},
     "blockwise plan targets must be a list of integer block indices, got 5"),
    ("fractional-target", {"mode": "blockwise", "order": "lowest", "budget": 1, "targets": [0.7]},
     "integer block indices, got [0.7]"),
    ("bool-target", {"mode": "blockwise", "order": "lowest", "budget": 1, "targets": [True]},
     "integer block indices, got [True]"),
    ("scattered-target-not-a-pair",
     {"mode": "scattered", "order": "lowest", "budget": 1, "targets": [[0, 0, 1]]},
     "integer [block, head] pairs"),
    ("top-level-array", [0, 1], "plan must be a JSON object"),
    ("repeated-block", {"mode": "blockwise", "order": "lowest", "budget": 2, "targets": [1, 1]},
     "blockwise plan names target 1 twice"),
    ("repeated-pair",
     {"mode": "scattered", "order": "lowest", "budget": 3, "targets": [[0, 1], [1, 0], [0, 1]]},
     "scattered plan names target [0, 1] twice"),
    ("budget-not-target-count",
     {"mode": "blockwise", "order": "lowest", "budget": -7, "targets": [2]},
     "plan budget must equal its target count 1, got -7"),
    ("scattered-budget-not-target-count",
     {"mode": "scattered", "order": "lowest", "budget": 3, "targets": [[0, 1], [1, 0]]},
     "plan budget must equal its target count 2, got 3"),
]

# Score reports `plan` refuses, as (id, mode, report -> faulty report, message fragment).
REPORT_FAULTS = [
    ("no-sigma_b", "blockwise", lambda r: {k: v for k, v in r.items() if k != "sigma_b"},
     "'sigma_b' must be a list of finite numbers"),
    ("sigma_b-a-string", "blockwise", lambda r: {**r, "sigma_b": "abc"},
     "'sigma_b' must be a list of finite numbers"),
    ("null-score", "blockwise", lambda r: {**r, "sigma_b": [None, *r["sigma_b"][1:]]},
     "'sigma_b' must be a list of finite numbers"),
    ("nan-score", "blockwise", lambda r: {**r, "sigma_b": [float("nan"), *r["sigma_b"][1:]]},
     "'sigma_b' must be a list of finite numbers"),
    ("integer-past-float64", "blockwise",
     lambda r: {**r, "sigma_b": [10**400, *r["sigma_b"][1:]]},
     "'sigma_b' must be a list of finite numbers"),
    ("inf-head-score", "scattered",
     lambda r: {**r, "sigma_h": [[float("inf"), *r["sigma_h"][0][1:]], *r["sigma_h"][1:]]},
     "'sigma_h' must be equal-length rows of finite numbers"),
    ("ragged-sigma_h", "scattered", lambda r: {**r, "sigma_h": [r["sigma_h"][0], [1.0]]},
     "'sigma_h' must be equal-length rows of finite numbers"),
    ("not-an-object", "blockwise", lambda r: [r], "'sigma_b' must be a list of finite numbers"),
]
