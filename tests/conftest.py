import json
import struct

import numpy as np
import pytest

from dwdropin import vit
from dwdropin.tensor import seed_stream, seeded_fill

TINY = vit.ModelConfig(n_b=2, n_h=2, d=8, d_h=4, m=4, k=3, ffn_mult=2)


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


# Config values load_archive refuses, as (id, config change).
BAD_CONFIGS = [
    ("non-integer", {"n_b": "two"}),
    ("infinite", {"n_b": 1.5e400}),
    ("d-not-n_h-times-d_h", {"d": TINY.d + 1}),
    ("fractional", {"n_b": TINY.n_b + 0.9}),
    ("bool", {"n_b": True}),
    ("numeric-string", {"n_b": str(TINY.n_b)}),
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

