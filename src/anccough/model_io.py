"""Binary model file format "ECN1".

Layout, all little-endian:

    magic     4 bytes  b"ECN1"
    version   u16      currently 1
    reserved  u16      0
    rate      u32      sample_rate_hz
    n_layers  u32
    layers    n_layers x (kind u8, p0 u32, p1 u32, p2 u32)
    arrays    raw float32 weight/bias data in spec traversal order
    crc       u32      CRC-32 of everything above

Layer kinds (the `_KINDS` table): 1 conv2d (p = kernel, out_channels, stride),
2 conv1d (kernel, out_channels, stride), 3 maxpool (width), 4 global average pool,
5 dense (out_features). Array shapes are derived from the layer table, so the
weight region carries no per-array headers. A full description lives in
docs/model-format.md.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import BadMagic, CrcMismatch, InvalidSpec, NonFiniteWeights, TruncatedFile, UnsupportedVersion
from .net import (
    Conv1d,
    Conv2d,
    Dense,
    GlobalAvgPool,
    MaxPool,
    ModelSpec,
    param_shapes,
    validate_params,
)

MAGIC = b"ECN1"
FORMAT_VERSION = 1

# ECN1 layer kind code -> (layer class, the fields stored as p0, p1, p2); a
# field not stored is written as 0
_KINDS = {
    1: (Conv2d, ("kernel", "out_channels", "stride")),
    2: (Conv1d, ("kernel", "out_channels", "stride")),
    3: (MaxPool, ("width",)),
    4: (GlobalAvgPool, ()),
    5: (Dense, ("out_features",)),
}
_CODE_OF = {cls: kind for kind, (cls, _) in _KINDS.items()}

_LAYER_STRUCT = struct.Struct("<BIII")
_HEADER_STRUCT = struct.Struct("<4sHHII")


def _layer_record(layer) -> tuple[int, int, int, int]:
    kind = _CODE_OF[type(layer)]
    return (kind, *(getattr(layer, name) for name in _KINDS[kind][1]), 0, 0, 0)[:4]


def _layer_from_record(kind: int, p0: int, p1: int, p2: int):
    if kind not in _KINDS:
        raise InvalidSpec(f"unknown layer kind {kind}")
    cls, names = _KINDS[kind]
    return cls(**dict(zip(names, (p0, p1, p2))))


def save_model(spec: ModelSpec, params: list[np.ndarray], path: str | Path) -> None:
    """Write spec and parameters; the round trip is bit-exact."""
    validate_params(spec, params)
    blob = bytearray()
    blob += _HEADER_STRUCT.pack(MAGIC, FORMAT_VERSION, 0,
                                spec.sample_rate_hz, len(spec.layers))
    for layer in spec.layers:
        blob += _LAYER_STRUCT.pack(*_layer_record(layer))
    for arr in params:
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    Path(path).write_bytes(bytes(blob))


def load_model(path: str | Path) -> tuple[ModelSpec, list[np.ndarray]]:
    """Read a model file back, verifying structure and checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise TruncatedFile(f"{path}: {len(raw)} bytes")
    if raw[:4] != MAGIC:
        raise BadMagic(f"{path}: magic {raw[:4]!r}")
    if len(raw) < _HEADER_STRUCT.size:
        raise TruncatedFile(f"{path}: header incomplete")
    _, version, _, rate, n_layers = _HEADER_STRUCT.unpack_from(raw, 0)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"{path}: unsupported format version {version}")

    pos = _HEADER_STRUCT.size
    layers = []
    for i in range(n_layers):
        if pos + _LAYER_STRUCT.size > len(raw):
            raise TruncatedFile(f"{path}: layer table incomplete")
        try:
            layers.append(_layer_from_record(*_LAYER_STRUCT.unpack_from(raw, pos)))
        except InvalidSpec as exc:
            raise InvalidSpec(f"{path}: layer {i} at offset {pos}: {exc}") from exc
        pos += _LAYER_STRUCT.size
    try:
        spec = ModelSpec(sample_rate_hz=rate, layers=tuple(layers))
    except InvalidSpec as exc:
        raise InvalidSpec(f"{path}: {exc}") from exc

    shapes = param_shapes(spec)
    weight_bytes = sum(math.prod(s) for s in shapes) * 4
    expected_len = pos + weight_bytes + 4
    if len(raw) < expected_len:
        raise TruncatedFile(f"{path}: {len(raw)} bytes, expected {expected_len}")
    if len(raw) > expected_len:
        raise TruncatedFile(f"{path}: {len(raw) - expected_len} trailing bytes")

    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise CrcMismatch(f"{path}: checksum mismatch")

    params = []
    for i, shape in enumerate(shapes):
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=pos)
        finite = np.isfinite(arr)
        if not finite.all():
            at = pos + 4 * int(np.argmin(finite))
            raise NonFiniteWeights(f"{path}: array {i} holds a non-finite value at offset {at}")
        params.append(arr.reshape(shape).astype(np.float32))
        pos += count * 4
    return spec, params
