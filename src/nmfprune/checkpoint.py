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
from typing import get_args

import numpy as np

from .network import LAYER_KINDS, Network
from .nmf import _check_matrix
from .runconfig import _required, _type_hints

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


def _parse(raw: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """A container's metadata and tensors; a ValueError says what is wrong.
    The body is read through a memoryview, so each tensor is copied out of
    ``raw`` once and nothing else is."""
    if len(raw) < 12:
        raise ValueError("truncated container")
    if raw[:4] != MAGIC:
        raise ValueError(f"not a container (bad magic {raw[:4]!r})")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise ValueError(f"format version {version}, expected {VERSION}")
    body, (crc,) = memoryview(raw)[8:-4], struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(body) != crc:
        raise ValueError("checksum failure")
    pos = 0

    def take(size: int) -> memoryview:
        nonlocal pos
        pos += size
        if pos > len(body):
            raise ValueError("truncated container")
        return body[pos - size : pos]

    meta = json.loads(str(take(*struct.unpack("<Q", take(8))), "utf-8"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(*struct.unpack("<Q", take(8))):
        name = str(take(*struct.unpack("<I", take(4))), "utf-8")
        if name in tensors:
            raise ValueError(f"tensor {name!r} is stored twice")
        rows, cols = struct.unpack("<QQ", take(16))
        tensors[name] = np.frombuffer(take(8 * rows * cols), "<f8").reshape(rows, cols).copy()
    if pos != len(body):
        raise ValueError(f"{len(body) - pos} trailing bytes")
    return meta, tensors


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and named tensors of the container at ``path``. Any
    rejection is a CheckpointError that begins with ``<path>: ``."""
    try:
        if not Path(path).is_file():
            raise ValueError("checkpoint file not found")
        return _parse(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # RecursionError: metadata nested too deep
        raise CheckpointError(f"{path}: {exc}") from None


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


def _check_types(values: dict, hints: dict, required: set, what: str) -> None:
    """Raise unless ``values`` gives each name in ``required`` and no name
    outside ``hints``, each value exactly of a type its hint names, as JSON
    gives it: a bool is not an int, and ``bool | None`` takes a bool or null."""
    if not required <= values.keys() <= hints.keys():
        raise ValueError(f"{what} has fields {sorted(values)}: needs {sorted(required)}, "
                         f"takes only {sorted(hints)}")
    for name, value in values.items():
        types = get_args(hints[name]) or (hints[name],)
        if type(value) not in types:
            expected = " or ".join(t.__name__ for t in types)
            raise ValueError(f"{what} {name!r} has type {type(value).__name__}, not {expected}")


# The metadata save_checkpoint writes, by key and JSON type.
_META_TYPES = {"kind": str, "seed": int, "specs": list, "prunable": dict}


def _network_from_meta(meta, tensors: dict) -> Network:
    """The network the metadata describes, built from its stored prunable
    flags and from the weights and biases it takes out of ``tensors``."""
    kind = meta.get("kind") if isinstance(meta, dict) else None
    if kind != "checkpoint":
        raise ValueError(f"container kind {kind!r} is not a checkpoint")
    _check_types(meta, _META_TYPES, _META_TYPES.keys(), "metadata")
    specs = []
    for i, entry in enumerate(meta["specs"]):
        fields = dict(entry) if isinstance(entry, dict) else {}
        kind = fields.pop("kind", None)
        cls = LAYER_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"layer spec {i} has no known kind")
        required = {f.name for f in dataclasses.fields(cls) if _required(f)}
        _check_types(fields, _type_hints(cls), required, f"layer spec {i}")
        specs.append(cls(**fields))
    flags = meta["prunable"]

    def stored(lid: str, spec, _: bool) -> tuple:
        prunable = flags.pop(lid, None)
        if not isinstance(prunable, bool):
            raise ValueError(f"no prunable flag for {lid!r}")
        weights = _pop_tensor(tensors, f"{lid}.weight", spec.weight_shape)
        bias = _pop_tensor(tensors, f"{lid}.bias", (1, len(weights)))
        return prunable, weights, bias.reshape(-1)

    net = Network(specs, meta["seed"], stored)
    if flags:
        raise ValueError(f"prunable flags {sorted(flags)} belong to no layer")
    if not net.prunable_layers:  # run never saves one: it masks a prunable layer
        raise ValueError("network has no prunable layers")
    return net


def _pop_tensor(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """Remove tensor ``name`` and return it, checked for ``shape`` and finite values."""
    if name not in tensors:
        raise ValueError(f"tensor {name!r} is missing")
    tensor = tensors.pop(name)
    if tensor.shape != shape:
        raise ValueError(f"tensor {name!r} has shape {tensor.shape}, expected {shape}")
    _check_matrix(tensor, f"tensor {name!r}")
    return tensor


def load_checkpoint(path) -> Network:
    """Rebuild a network from a checkpoint; raises before returning anything partial.
    Its layers are built from the stored flags and tensors: nothing is drawn.

    The metadata holds exactly the keys save_checkpoint writes, each layer
    spec field a value of its annotated type. Every weight, bias and mask has
    its layer's shape and finite values, a mask only 0.0 and 1.0, every
    weight it prunes is exactly 0.0, and every tensor belongs to a layer.
    Every rejection, here or in ``read_container``, is a CheckpointError
    that begins with ``<path>: ``.
    """
    meta, tensors = read_container(path)
    try:
        net = _network_from_meta(meta, tensors)
        for layer in net.weighted_layers:
            lid = layer.layer_id
            if f"{lid}.mask" not in tensors:
                continue
            mask = _pop_tensor(tensors, f"{lid}.mask", layer.weights.shape)
            # Only 1.0 and +0.0: save_checkpoint writes a bool mask as those.
            if np.count_nonzero(mask == 1.0) != np.count_nonzero(mask) or np.signbit(mask).any():
                raise ValueError(f"mask of {lid!r} holds values other than 0.0 and 1.0")
            if layer.attach_mask(mask == 1.0):
                raise ValueError(f"weights of {lid!r} are non-zero where its mask is 0.0")
        if tensors:
            raise ValueError(f"tensors {sorted(tensors)} belong to no layer")
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return net
