"""The package's files, written and read only here. A report is sorted-key
JSON (`write_json`); `read_json` refuses one that is not JSON, or that its
`parse` refuses, as a FormatError naming the file. A model archive is a
JSON manifest followed by a float32 blob, in one file:

    bytes 0..8    magic b"DWDROPIN"
    bytes 8..16   little-endian uint64, manifest length in bytes
    manifest      UTF-8 JSON (sorted keys): {"format_version", "config",
                  "tensors": [{"name", "shape", "offset"}, ...], "meta"}
    blob          tensors back to back, little-endian IEEE-754 binary32,
                  row-major, at their stated byte offsets

Round trips are bit-exact: loading and re-saving an archive reproduces the
same bytes. `meta` carries free-form JSON (run manifests, drop-in plans).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import F32, FormatError, all_finite
from .vit import BlockParams, Model, ModelConfig, block_shapes

MAGIC = b"DWDROPIN"
FORMAT_VERSION = 1


class ArchiveError(FormatError):
    """Archive file is malformed or inconsistent."""


@dataclass
class Archive:
    config: ModelConfig
    tensors: dict  # name -> float32 ndarray, insertion-ordered
    meta: dict = field(default_factory=dict)


def write_json(path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path, what: str, parse=None):
    """The JSON document in `path`, or `parse` of it; a FormatError
    "{path}: not a {what}: ..." if it is not JSON or `parse` raises a ValueError."""
    with open(path) as f:
        try:
            doc = json.load(f)
            return parse(doc) if parse else doc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or parse's
            raise FormatError(f"{path}: not a {what}: {exc}") from exc


def save_archive(path, config: ModelConfig, tensors: dict, meta: dict | None = None) -> None:
    entries = []
    offset = 0
    blobs = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=F32)
        raw = arr.astype("<f4", copy=False).tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "tensors": entries,
        "meta": meta or {},
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(mbytes)))
        f.write(mbytes)
        for raw in blobs:
            f.write(raw)


def load_archive(path) -> Archive:
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(MAGIC)] != MAGIC:
        raise ArchiveError(f"{path}: bad magic, not a model archive")
    mstart = len(MAGIC) + 8
    if len(data) < mstart:
        raise ArchiveError(f"{path}: truncated header")
    (mlen,) = struct.unpack_from("<Q", data, len(MAGIC))
    if mstart + mlen > len(data):
        raise ArchiveError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(data[mstart : mstart + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArchiveError(f"{path}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ArchiveError(f"{path}: unsupported format version")
    if not isinstance(manifest.get("config"), dict):
        raise ArchiveError(f"{path}: bad config block: not a JSON object")
    try:
        config = ModelConfig.from_dict(manifest["config"])
    except (TypeError, ValueError) as exc:
        raise ArchiveError(f"{path}: bad config block: {exc}") from exc
    if not isinstance(manifest.get("tensors", []), list):
        raise ArchiveError(f"{path}: manifest 'tensors' must be a list")
    if not isinstance(manifest.get("meta", {}), dict):
        raise ArchiveError(f"{path}: manifest 'meta' must be a JSON object")
    entries = [_tensor_entry(path, entry) for entry in manifest.get("tensors", [])]
    _check_layout(path, entries)
    blob = memoryview(data)[mstart + mlen :]
    tensors = {}
    for name, shape, start in entries:
        end = start + 4 * math.prod(shape)
        if end > len(blob):
            raise ArchiveError(f"{path}: tensor {name!r} overruns the blob")
        arr = np.frombuffer(blob[start:end], dtype="<f4").reshape(shape)
        if not all_finite(arr):
            raise ArchiveError(f"{path}: tensor {name!r} holds non-finite values")
        tensors[name] = arr.astype(F32)  # its own copy, freed with it, not with the file
    return Archive(config=config, tensors=tensors, meta=manifest.get("meta", {}))


def _check_layout(path, entries: list) -> None:
    """Refuse duplicate tensor names and tensors whose byte ranges overlap."""
    names = set()
    for name, _, _ in entries:
        if name in names:
            raise ArchiveError(f"{path}: tensor {name!r} is listed twice")
        names.add(name)
    spans = sorted((start, start + 4 * math.prod(shape), name)
                   for name, shape, start in entries if math.prod(shape))
    for (_, end, before), (start, _, after) in zip(spans, spans[1:]):
        if start < end:
            raise ArchiveError(f"{path}: tensors {before!r} and {after!r} overlap")


def _tensor_entry(path, entry) -> tuple:
    """A manifest tensor entry as (name, shape, offset), refused unless every
    field is present and every dimension and the offset are integers >= 0."""
    try:
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
    except (KeyError, TypeError) as exc:
        raise ArchiveError(f"{path}: tensor entry {entry!r} lacks a name, shape "
                           "or offset") from exc
    # type(v) is int: JSON true/false load as bool, a subclass of int
    if not (isinstance(name, str) and isinstance(shape, list)
            and all(type(v) is int and v >= 0 for v in [*shape, offset])):
        raise ArchiveError(f"{path}: tensor entry {entry!r} needs a name and "
                           "non-negative integer shape and offset")
    return name, tuple(shape), offset


def _model_shapes(cfg: ModelConfig) -> dict:
    """Name -> shape of every tensor of a `cfg` model, in archive order."""
    shapes = {"pos_enc": (cfg.n, cfg.d)}
    for b in range(cfg.n_b):
        shapes.update((f"block{b}.{name}", shape) for name, shape in block_shapes(cfg).items())
    return shapes


def model_tensors(model: Model) -> dict:
    """Flatten a model's weights into archive naming order."""
    out = {"pos_enc": model.pos_enc}
    for b, blk in enumerate(model.blocks):
        for name in block_shapes(model.config):
            out[f"block{b}.{name}"] = getattr(blk, name)
    return out


def save_model(path, model: Model, meta: dict | None = None) -> None:
    save_archive(path, model.config, model_tensors(model), meta)


def model_from_archive(ar: Archive) -> Model:
    """The model an archive holds. Before any block is built, each
    `_model_shapes` name must be present with its shape, and any other name
    is refused. As each block is built, its w_q, w_k and w_v in `ar.tensors`
    are swapped for the column views of its fused `w_qkv`, so the archive's
    own copies are freed then, not held next to the fused ones until the
    load returns."""
    cfg = ar.config
    shapes = _model_shapes(cfg)
    for name, arr in ar.tensors.items():
        if name not in shapes:
            raise ArchiveError(f"tensor {name!r} is not a tensor of this model")
        if tuple(arr.shape) != shapes[name]:
            raise ArchiveError(f"tensor {name!r} has shape {arr.shape}, expected {shapes[name]}")
    missing = [name for name in shapes if name not in ar.tensors]
    if missing:
        raise ArchiveError(f"archive is missing tensor {missing[0]!r}")
    blocks = []
    for b in range(cfg.n_b):
        names = {name: f"block{b}.{name}" for name in block_shapes(cfg)}
        block = BlockParams(n_h=cfg.n_h, d_h=cfg.d_h,
                            **{name: ar.tensors[key] for name, key in names.items()})
        ar.tensors.update((names[name], getattr(block, name)) for name in ("w_q", "w_k", "w_v"))
        blocks.append(block)
    return Model(config=cfg, pos_enc=ar.tensors["pos_enc"], blocks=blocks)
