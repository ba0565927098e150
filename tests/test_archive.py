import hashlib
import re

import numpy as np
import pytest

from dwdropin import dropin, vit
from dwdropin.archive import (
    Archive,
    ArchiveError,
    load_archive,
    model_from_archive,
    model_tensors,
    read_json,
    save_archive,
    save_model,
    write_json,
)
from dwdropin.select import SelectionPlan
from dwdropin.tensor import FormatError

from conftest import (
    BAD_CONFIGS,
    MANIFEST_FAULTS,
    TINY,
    change_config,
    make_inputs,
    read_manifest,
    rewrite_manifest,
    write_manifest,
)


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


@pytest.mark.parametrize("name", ["w_q", "w_k", "w_v"])
def test_wrong_projection_shape_checked_before_any_block(tmp_path, tiny_model, name):
    """A wrong-shaped query, key or value tensor of the last block is an
    ArchiveError, raised before any block is built: no tensor is swapped."""
    p = tmp_path / "m.bin"
    tensors = model_tensors(tiny_model)
    bad = f"block{TINY.n_b - 1}.{name}"
    tensors[bad] = np.zeros((TINY.d, TINY.d - 1), np.float32)
    save_archive(p, TINY, tensors)
    ar = load_archive(p)
    loaded = dict(ar.tensors)
    with pytest.raises(ArchiveError, match=re.escape(
            f"tensor {bad!r} has shape ({TINY.d}, {TINY.d - 1}), expected ({TINY.d}, {TINY.d})")):
        model_from_archive(ar)
    assert all(ar.tensors[n] is arr for n, arr in loaded.items())


@pytest.mark.parametrize("name", [f"block{TINY.n_b}.w_o", "block0.w_o.copy", "junk"])
def test_stray_tensor_rejected_before_any_block(tmp_path, tiny_model, name):
    """A tensor outside the model's name table, and not a `dropin.*` one,
    is an ArchiveError naming it, raised before any block is built."""
    p = tmp_path / "m.bin"
    stray = np.ones((TINY.d, TINY.d), np.float32)
    save_archive(p, TINY, {**model_tensors(tiny_model), name: stray})
    ar = load_archive(p)
    loaded = dict(ar.tensors)
    with pytest.raises(ArchiveError, match=re.escape(f"{name!r} is not a tensor of this model")):
        model_from_archive(ar)
    assert all(ar.tensors[n] is arr for n, arr in loaded.items())


def test_projections_swapped_for_fused_views(tmp_path, tiny_model):
    """Loaded tensors are arrays of their own, not views of the file's
    bytes; building a block swaps its w_q, w_k and w_v in `ar.tensors` for
    the column views of its fused w_qkv, so no second copy is kept."""
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    ar = load_archive(p)
    assert all(arr.flags.owndata for arr in ar.tensors.values())
    names = list(ar.tensors)
    model = model_from_archive(ar)
    assert list(ar.tensors) == names
    for b, block in enumerate(model.blocks):
        for name in ("w_q", "w_k", "w_v"):
            assert ar.tensors[f"block{b}.{name}"] is getattr(block, name)
            assert np.shares_memory(getattr(block, name), block.w_qkv)
    save_archive(tmp_path / "again.bin", ar.config, ar.tensors, ar.meta)
    assert (tmp_path / "again.bin").read_bytes() == p.read_bytes()


@pytest.mark.parametrize("change", [c for _, c in BAD_CONFIGS], ids=[i for i, _ in BAD_CONFIGS])
def test_bad_config_block_rejected(tmp_path, tiny_model, change):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    rewrite_manifest(p, lambda m: change_config(m, change))
    with pytest.raises(ArchiveError, match="bad config block"):
        load_archive(p)


@pytest.mark.parametrize("change", [{"shape": [-1, TINY.d]}, {"shape": [TINY.n, 2.0 * TINY.d]},
                                    {"shape": [True, TINY.n * TINY.d]}, {"offset": -4},
                                    {"shape": "16x8"}, {"name": None}],
                         ids=["negative-dim", "float-dim", "bool-dim", "negative-offset",
                              "shape-not-a-list", "name-not-a-string"])
def test_bad_tensor_entry_rejected(tmp_path, tiny_model, change):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    rewrite_manifest(p, lambda m: m["tensors"][0].update(change))
    with pytest.raises(ArchiveError, match="needs a name and non-negative integer"):
        load_archive(p)


@pytest.mark.parametrize("field", ["name", "shape", "offset"])
def test_tensor_entry_missing_field_rejected(tmp_path, tiny_model, field):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    rewrite_manifest(p, lambda m: m["tensors"][-1].pop(field))
    with pytest.raises(ArchiveError, match="lacks a name, shape or offset"):
        load_archive(p)


@pytest.mark.parametrize("fault, message", [f[1:] for f in MANIFEST_FAULTS],
                         ids=[f[0] for f in MANIFEST_FAULTS])
def test_malformed_manifest_rejected(tmp_path, tiny_model, fault, message):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    write_manifest(p, fault(read_manifest(p)))
    with pytest.raises(ArchiveError, match=re.escape(message)):
        load_archive(p)


def test_adjacent_and_empty_tensors_accepted(tmp_path):
    # back-to-back ranges touch without overlapping; an empty tensor
    # occupies no bytes, wherever its offset points
    p = tmp_path / "m.bin"
    save_archive(p, TINY, {"a": np.ones((2, 3), np.float32), "b": np.zeros((0,), np.float32),
                           "c": np.full((4,), 2.0, np.float32)})
    rewrite_manifest(p, lambda m: m["tensors"][1].update(offset=4))
    ar = load_archive(p)
    assert [t.shape for t in ar.tensors.values()] == [(2, 3), (0,), (4,)]


def test_truncated_header_rejected(tmp_path, tiny_model):
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    p.write_bytes(p.read_bytes()[:12])
    with pytest.raises(ArchiveError, match="truncated header"):
        load_archive(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_rejected(tmp_path, tiny_model, value):
    p = tmp_path / "m.bin"
    tensors = model_tensors(tiny_model)
    tensors["block1.w_v"] = tensors["block1.w_v"].copy()
    tensors["block1.w_v"][2, 3] = value
    save_archive(p, TINY, tensors)
    with pytest.raises(ArchiveError, match="'block1.w_v' holds non-finite values"):
        load_archive(p)


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
    restored = dropin.hybrid_from_archive(ar)
    assert restored.plan == plan
    x = make_inputs(TINY, 1, 9)[0]
    np.testing.assert_array_equal(dropin.hybrid_forward(restored, x),
                                  dropin.hybrid_forward(hm, x))


def test_hybrid_from_plain_archive(tmp_path, tiny_model):
    """A model archive reads as the hybrid of the empty plan: no drop-in,
    no sublayer, and the baseline forward bit for bit."""
    p = tmp_path / "m.bin"
    save_model(p, tiny_model)
    hm = dropin.hybrid_from_archive(load_archive(p))
    assert hm.plan == SelectionPlan("blockwise", "lowest", 0, ())
    assert hm.dropins == {} and hm.sublayers == {}
    x = make_inputs(TINY, 1, 9)[0]
    np.testing.assert_array_equal(dropin.hybrid_forward(hm, x), vit.model_forward(x, tiny_model))


def test_model_reader_refuses_a_hybrid(tmp_path, tiny_model):
    """`model_from_archive` reads model archives only: a hybrid's first
    `dropin.*` tensor is refused as a stray."""
    plan = SelectionPlan("scattered", "lowest", 1, ((1, 0),))
    hm, _ = dropin.build_dropins(tiny_model, plan, "dw")
    extra, dmeta = dropin.hybrid_tensors_meta(hm)
    p = tmp_path / "h.bin"
    save_archive(p, TINY, {**model_tensors(tiny_model), **extra}, {"dropin": dmeta})
    with pytest.raises(ArchiveError, match="^tensor 'dropin.block1.head0.K' is not a tensor "
                                           "of this model$"):
        model_from_archive(load_archive(p))


def test_hybrid_reader_needs_the_model():
    """A drop-in section without the model's tensors is refused for the
    first model tensor it lacks, before the section is read."""
    ar = Archive(TINY, {"dropin.block0.gamma": np.zeros(TINY.n_h, np.float32)})
    with pytest.raises(ArchiveError, match="^archive is missing tensor 'pos_enc'$"):
        dropin.hybrid_from_archive(ar)


def test_report_layout(tmp_path):
    """A report is JSON with sorted keys, indent 2 and a trailing newline,
    and reads back as the document written."""
    p = tmp_path / "r.json"
    doc = {"b": [1, 2.5], "a": {"y": None, "x": "s"}}
    write_json(p, doc)
    assert p.read_text() == ('{\n  "a": {\n    "x": "s",\n    "y": null\n  },\n'
                             '  "b": [\n    1,\n    2.5\n  ]\n}\n')
    assert read_json(p, "report") == doc
    assert read_json(p, "report", lambda d: sorted(d)) == ["a", "b"]


@pytest.mark.parametrize("raw, parse, message", [
    (b"{", None, "Expecting property name"),
    (b"\xff", None, "can't decode byte 0xff"),
    (b"[1]", lambda d: int("x"), "invalid literal for int()"),
], ids=["not-json", "not-utf8", "parse-refuses"])
def test_report_refused(tmp_path, raw, parse, message):
    """Text that is not JSON, or a ValueError from `parse`, is a FormatError
    naming the file and what it is not."""
    p = tmp_path / "r.json"
    p.write_bytes(raw)
    with pytest.raises(FormatError, match=re.escape(f"{p}: not a widget: ") + ".*"
                       + re.escape(message)):
        read_json(p, "widget", parse)


def test_report_parse_fault_passes_through(tmp_path):
    """An error of `parse` that is not a ValueError is not a file fault."""
    p = tmp_path / "r.json"
    p.write_text("[1]")
    with pytest.raises(TypeError):
        read_json(p, "widget", lambda d: d["k"])
