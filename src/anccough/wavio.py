"""Minimal RIFF/WAVE reader and writer (PCM16 and IEEE float32, little-endian)."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import MalformedHeader, UnsupportedEncoding

FORMAT_PCM = 1
FORMAT_IEEE_FLOAT = 3

_INT16_FULL_SCALE = 32768.0


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a WAV file into a float32 array of shape (frames, channels) plus its rate.

    16-bit PCM samples are scaled to [-1, 1) by division by 32768; 32-bit float
    samples are passed through unchanged.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedHeader(f"{path}: not a RIFF/WAVE file")

    view = memoryview(raw)  # chunk bodies as views, not copies
    fmt = None
    data = None
    data_at = 0
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise MalformedHeader(f"{path}: chunk {cid!r} truncated")
        if cid == b"fmt ":
            if size < 16:
                raise MalformedHeader(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data, data_at = body, pos
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise MalformedHeader(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, rate, _byte_rate, block_align, bits = fmt
    if n_channels < 1:
        raise MalformedHeader(f"{path}: zero channels")

    if audio_format == FORMAT_PCM and bits == 16:
        dtype = "<i2"
    elif audio_format == FORMAT_IEEE_FLOAT and bits == 32:
        dtype = "<f4"
    else:
        raise UnsupportedEncoding(
            f"{path}: format {audio_format} at {bits} bits (want PCM16 or float32)"
        )
    if len(data) % (bits // 8):
        raise MalformedHeader(f"{path}: data chunk at byte {data_at} holds {len(data)} "
                              f"bytes, not a whole number of {bits // 8}-byte samples")
    flat = np.frombuffer(data, dtype=dtype).astype(np.float32)
    if dtype == "<i2":
        flat /= _INT16_FULL_SCALE  # in place; dividing by a power of two is exact

    if block_align != n_channels * bits // 8:
        raise MalformedHeader(f"{path}: inconsistent block alignment")
    n_frames = len(flat) // n_channels
    return flat[: n_frames * n_channels].reshape(n_frames, n_channels), rate


def write_wav(
    path: str | Path,
    frames: np.ndarray,
    rate: int,
    encoding: str = "int16",
) -> None:
    """Write (frames, channels) float32 audio as a WAV file.

    encoding "int16" quantizes with rounding and clipping; "float32" writes
    IEEE float samples verbatim.
    """
    frames = np.asarray(frames, dtype=np.float32)
    if frames.ndim == 1:
        frames = frames[:, None]
    n_channels = frames.shape[1]

    if encoding == "int16":
        audio_format, bits = FORMAT_PCM, 16
        scaled = np.clip(np.rint(frames * _INT16_FULL_SCALE), -32768, 32767)
        payload = scaled.astype("<i2").tobytes()
    elif encoding == "float32":
        audio_format, bits = FORMAT_IEEE_FLOAT, 32
        payload = frames.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")

    block_align = n_channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, n_channels, rate, rate * block_align, block_align, bits
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)
