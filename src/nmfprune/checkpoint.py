"""Self-describing binary container for tensors and model checkpoints.

Layout (all integers little-endian):

    bytes 0..3   magic "ONGC"
    bytes 4..7   format version (u32)
    body:
        u64   metadata length, then that many bytes of UTF-8 JSON
        u64   tensor count
        per tensor:
            u32   name length, then the UTF-8 name
            u64   rows, u64 cols
            rows*cols float64 values, raw little-endian
    trailer:
        u32   CRC-32 of the body

Raw float64 bytes round-trip bit-exactly. The CRC rejects truncated or
corrupted files before any tensor is handed back.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .network import LAYER_KINDS, Network, init_network
from .nmf import _check_matrix

MAGIC = b"ONGC"
VERSION = 1
_WRITE_BLOCK = 1 << 16  # values per converted chunk: 512 KiB as float64


class CheckpointError(ValueError):
    pass


def write_atomic(path, chunks: Iterable) -> None:
    """Write the byte chunks in order to a temp file in the target's
    directory, then rename it over ``path``: a crash mid-write leaves the
    previous file whole. Chunks may be any bytes-like objects, arrays
    included, and are written without copies."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only left behind when a step failed


def _body_chunks(meta: dict, tensors: dict[str, np.ndarray]) -> Iterator:
    """The container body in order. A contiguous float64 tensor is written as
    byte views of its array; any other (a bool mask) is converted to float64
    one block of ``_WRITE_BLOCK`` values at a time."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    yield struct.pack("<Q", len(meta_bytes)) + meta_bytes
    yield struct.pack("<Q", len(tensors))
    for name, tensor in tensors.items():
        arr = np.asarray(tensor)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise CheckpointError(f"tensor {name!r} must be 1D or 2D, got shape {tensor.shape}")
        name_bytes = name.encode("utf-8")
        yield struct.pack("<I", len(name_bytes)) + name_bytes + struct.pack("<QQ", *arr.shape)
        flat = arr.reshape(-1)
        for start in range(0, flat.size, _WRITE_BLOCK):
            block = flat[start : start + _WRITE_BLOCK]
            yield np.ascontiguousarray(block, dtype="<f8").view(np.uint8)


def write_container(path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Stream the container into ``path`` with a running body CRC."""

    def chunks():
        yield MAGIC + struct.pack("<I", VERSION)
        crc = 0
        for chunk in _body_chunks(meta, tensors):
            crc = zlib.crc32(chunk, crc)
            yield chunk
        yield struct.pack("<I", crc)

    write_atomic(path, chunks())


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"truncated container {self.path}")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    file = Path(path)
    if not file.is_file():
        raise CheckpointError(f"checkpoint file not found: {path}")
    raw = file.read_bytes()
    if len(raw) < 12:
        raise CheckpointError(f"truncated container {path}")
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a container (bad magic {raw[:4]!r})")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise CheckpointError(f"{path} has format version {version}, expected {VERSION}")
    body, (crc,) = raw[8:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"checksum failure reading {path}")

    reader = _Reader(body, path)
    meta_bytes = reader.take(reader.u64())
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise CheckpointError(f"{path}: metadata is not UTF-8 JSON: {exc}") from None
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u64()):
        name_bytes = reader.take(reader.u32())
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not UTF-8: {exc}") from None
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name!r} is stored twice")
        rows = reader.u64()
        cols = reader.u64()
        data = np.frombuffer(reader.take(rows * cols * 8), dtype="<f8")
        tensors[name] = data.reshape(rows, cols).copy()
    if reader.pos != len(body):
        raise CheckpointError(f"{path} has {len(body) - reader.pos} trailing bytes")
    return meta, tensors


_KIND_NAMES = {cls: kind for kind, cls in LAYER_KINDS.items()}


def save_checkpoint(net: Network, path) -> None:
    """Write specs, seed, weights, biases and masks; round-trips bit-exactly."""
    meta = {
        "kind": "checkpoint",
        "seed": net.seed,
        "specs": [{"kind": _KIND_NAMES[type(s)], **dataclasses.asdict(s)} for s in net.specs],
        "prunable": {l.layer_id: l.prunable for l in net.weighted_layers},
    }
    tensors: dict[str, np.ndarray] = {}
    for layer in net.weighted_layers:
        tensors[f"{layer.layer_id}.weight"] = layer.weights
        tensors[f"{layer.layer_id}.bias"] = layer.bias
        if layer.mask is not None:
            tensors[f"{layer.layer_id}.mask"] = layer.mask
    write_container(path, meta, tensors)


def _network_from_meta(meta, path) -> Network:
    """The network the metadata describes, with its stored prunable flags."""
    kind = meta.get("kind") if isinstance(meta, dict) else None
    if kind != "checkpoint":
        raise CheckpointError(f"{path} is a {kind!r} container, not a checkpoint")
    for key, expected in (("seed", int), ("specs", list), ("prunable", dict)):
        value = meta.get(key)
        if not isinstance(value, expected) or isinstance(value, bool):
            raise CheckpointError(
                f"{path}: metadata {key!r} is missing or not a {expected.__name__}"
            )
    specs = []
    for entry in meta["specs"]:
        fields = dict(entry) if isinstance(entry, dict) else {}
        kind = fields.pop("kind", None)
        cls = LAYER_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise CheckpointError(f"{path}: unknown layer spec {entry!r}")
        try:
            specs.append(cls(**fields))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad layer spec {entry!r}: {exc}") from None
    try:
        net = init_network(specs, meta["seed"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    for layer in net.weighted_layers:
        prunable = meta["prunable"].get(layer.layer_id)
        if not isinstance(prunable, bool):
            raise CheckpointError(f"{path}: no prunable flag for {layer.layer_id!r}")
        layer.prunable = prunable
    return net


def load_checkpoint(path) -> Network:
    """Rebuild a network from a checkpoint; raises before returning anything
    partial.

    Metadata, tensor shapes and masks are checked: every weight and bias is
    finite (no NaN or infinity), every mask holds only 0.0 and 1.0, every
    weight it prunes is exactly 0.0, and every tensor belongs to a layer.
    """
    meta, tensors = read_container(path)
    net = _network_from_meta(meta, path)
    for layer in net.weighted_layers:
        lid = layer.layer_id
        try:
            weight = tensors.pop(f"{lid}.weight")
            bias = tensors.pop(f"{lid}.bias")
        except KeyError as exc:
            raise CheckpointError(f"missing tensor {exc} in {path}") from None
        if weight.shape != layer.weights.shape:
            raise CheckpointError(
                f"checkpoint weight shape {weight.shape} does not match "
                f"{layer.weights.shape} for {lid!r}"
            )
        if bias.size != layer.bias.size:
            raise CheckpointError(
                f"checkpoint bias of {bias.size} values does not match "
                f"{layer.bias.size} for {lid!r}"
            )
        for name, tensor in ((f"{lid}.weight", weight), (f"{lid}.bias", bias)):
            try:
                _check_matrix(tensor, f"tensor {name!r}")
            except ValueError as exc:
                raise CheckpointError(f"{path}: {exc}") from None
        layer.weights = weight
        layer.bias = bias.reshape(layer.bias.shape)
        mask = tensors.pop(f"{lid}.mask", None)
        if mask is None:
            continue
        # Only 1.0 and +0.0: save_checkpoint writes a bool mask as those.
        if np.count_nonzero(mask == 1.0) != np.count_nonzero(mask) or np.signbit(mask).any():
            raise CheckpointError(f"{path}: mask of {lid!r} holds values other than 0.0 and 1.0")
        try:
            live = layer.attach_mask(mask == 1.0)
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        if live:
            raise CheckpointError(f"weights of {lid!r} are non-zero where its mask is 0.0")
    if tensors:
        raise CheckpointError(f"{path}: tensors {sorted(tensors)} belong to no layer")
    net.invalidate_cache()
    return net
