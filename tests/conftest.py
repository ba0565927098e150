import json
import struct
from pathlib import Path

import numpy as np
import pytest

from dwdropin import vit
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


def block_inputs(model, x):
    """Every block's normed attention input for one sample, walked block by
    block with `layer_norm` and `block_forward`: an oracle for the forward's
    own inputs that shares no code with the fit's capture."""
    h = as_f32(x) + model.pos_enc
    inputs = []
    for block in model.blocks:
        inputs.append(vit.layer_norm(h, block.norm1_scale, block.norm1_shift))
        h = vit.block_forward(h, block)
    return inputs


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
    ("ragged-sigma_h", "scattered", lambda r: {**r, "sigma_h": [r["sigma_h"][0], [1.0]]},
     "'sigma_h' must be equal-length rows of finite numbers"),
    ("not-an-object", "blockwise", lambda r: [r], "'sigma_b' must be a list of finite numbers"),
]
