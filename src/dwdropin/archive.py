"""Model archive: a JSON manifest followed by a float32 blob, in one file.

Layout:

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
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import F32
from .vit import BlockParams, Model, ModelConfig, block_shapes

MAGIC = b"DWDROPIN"
FORMAT_VERSION = 1


class ArchiveError(ValueError):
    """Archive file is malformed or inconsistent."""


@dataclass
class Archive:
    config: ModelConfig
    tensors: dict  # name -> float32 ndarray, insertion-ordered
    meta: dict = field(default_factory=dict)


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
    (mlen,) = struct.unpack_from("<Q", data, len(MAGIC))
    mstart = len(MAGIC) + 8
    if mstart + mlen > len(data):
        raise ArchiveError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(data[mstart : mstart + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ArchiveError(f"{path}: unsupported format version")
    try:
        config = ModelConfig.from_dict(manifest["config"])
    except (KeyError, TypeError) as exc:
        raise ArchiveError(f"{path}: bad config block: {exc}") from exc
    blob = data[mstart + mlen :]
    tensors = {}
    for entry in manifest.get("tensors", []):
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = int(entry["offset"])
        end = start + 4 * count
        if start < 0 or end > len(blob):
            raise ArchiveError(f"{path}: tensor {entry['name']!r} overruns the blob")
        arr = np.frombuffer(blob[start:end], dtype="<f4").reshape(shape)
        tensors[entry["name"]] = np.ascontiguousarray(arr, dtype=F32)
    return Archive(config=config, tensors=tensors, meta=manifest.get("meta", {}))


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
    cfg = ar.config
    if not ar.tensors:
        raise ArchiveError("archive is config-only, it carries no weights")
    try:
        pos_enc = ar.tensors["pos_enc"]
        blocks = [BlockParams(n_h=cfg.n_h, d_h=cfg.d_h,
                              **{name: ar.tensors[f"block{b}.{name}"]
                                 for name in block_shapes(cfg)})
                  for b in range(cfg.n_b)]
    except KeyError as exc:
        raise ArchiveError(f"archive is missing tensor {exc}") from exc
    for name, arr in ar.tensors.items():
        expected = _expected_shape(name, cfg)
        if expected is not None and tuple(arr.shape) != expected:
            raise ArchiveError(f"tensor {name!r} has shape {arr.shape}, expected {expected}")
    return Model(config=cfg, pos_enc=pos_enc, blocks=blocks)


def _expected_shape(name: str, cfg: ModelConfig):
    if name == "pos_enc":
        return (cfg.n, cfg.d)
    return block_shapes(cfg).get(name.split(".", 1)[-1])
