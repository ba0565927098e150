import hashlib

import numpy as np
import pytest

from dwdropin import dropin, vit
from dwdropin.archive import (
    ArchiveError,
    load_archive,
    model_from_archive,
    model_tensors,
    save_archive,
    save_model,
)
from dwdropin.select import SelectionPlan

from conftest import TINY, make_inputs


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_roundtrip_bit_exact(tmp_path, tiny_model):
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_model(p1, tiny_model, meta={"note": "x"})
    ar = load_archive(p1)
    save_archive(p2, ar.config, ar.tensors, ar.meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_tensors_restore_bitwise(tmp_path, tiny_model):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    restored = model_from_archive(load_archive(p))
    np.testing.assert_array_equal(restored.pos_enc, tiny_model.pos_enc)
    for a, b in zip(restored.blocks, tiny_model.blocks):
        for name in vit.BLOCK_TENSOR_NAMES:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_same_seed_same_hash(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(p1, vit.init_model(TINY, 77))
    save_model(p2, vit.init_model(TINY, 77))
    assert sha256(p1) == sha256(p2)


def test_forward_identical_after_roundtrip(tmp_path, tiny_model):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    restored = model_from_archive(load_archive(p))
    x = make_inputs(TINY, 1, 3)[0]
    np.testing.assert_array_equal(vit.model_forward(x, restored),
                                  vit.model_forward(x, tiny_model))


def test_config_only_archive(tmp_path):
    p = tmp_path / "c.bin"
    save_archive(p, vit.VITL, {})
    ar = load_archive(p)
    assert ar.config == vit.VITL
    assert not ar.tensors
    with pytest.raises(ArchiveError):
        model_from_archive(ar)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTANARCHIVE" + b"\x00" * 64)
    with pytest.raises(ArchiveError):
        load_archive(p)


def test_truncated_manifest_rejected(tmp_path, tiny_model):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    raw = p.read_bytes()
    p.write_bytes(raw[:20])
    with pytest.raises(ArchiveError):
        load_archive(p)


def test_overrunning_tensor_rejected(tmp_path, tiny_model):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    raw = bytearray(p.read_bytes())
    # drop the last kilobyte of blob so the final tensor overruns
    p.write_bytes(bytes(raw[:-1024]))
    with pytest.raises(ArchiveError):
        load_archive(p)


def test_wrong_shape_rejected(tmp_path, tiny_model):
    p = tmp_path / "m.bin"
    tensors = model_tensors(tiny_model)
    tensors["block0.w_q"] = np.zeros((3, 3), np.float32)
    save_archive(p, TINY, tensors)
    with pytest.raises(ArchiveError):
        model_from_archive(load_archive(p))


def test_hybrid_tensors_roundtrip(tmp_path, tiny_model):
    plan = SelectionPlan(mode="scattered", order="lowest", budget=2,
                         targets=((0, 1), (1, 0)))
    params = {
        0: dropin.BlockDropin(variant="dw",
                              head_kernels={1: dropin.init_kernel("dw", TINY, 5)}),
        1: dropin.BlockDropin(variant="dw",
                              head_kernels={0: dropin.init_kernel("dw", TINY, 6)}),
    }
    hm = dropin.replace_heads(tiny_model, plan, params)
    extra, dmeta = dropin.hybrid_tensors_meta(hm)
    assert set(extra) == {"dropin.block0.head1.K", "dropin.block1.head0.K"}
    p = tmp_path / "h.bin"
    save_archive(p, TINY, {**model_tensors(tiny_model), **extra}, {"dropin": dmeta})
    ar = load_archive(p)
    restored = dropin.hybrid_from_archive(ar, model_from_archive(ar))
    assert restored.plan == plan
    x = make_inputs(TINY, 1, 9)[0]
    np.testing.assert_array_equal(dropin.hybrid_forward(restored, x),
                                  dropin.hybrid_forward(hm, x))
