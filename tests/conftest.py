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


def rewrite_manifest(path, edit):
    """Apply `edit` to an archive's parsed manifest in place, keeping its blob."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    manifest = json.loads(raw[16 : 16 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(mbytes)) + mbytes + raw[16 + mlen :])
