"""Shared fixtures: small synthetic datasets and windows, built once per session."""

from __future__ import annotations

import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import settings

from anccough import synth
from anccough.dsp import DualChannelRecording, DualChannelWindow
from anccough.net import Conv1d, Conv2d, Dense, GlobalAvgPool, MaxPool

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is deterministic and its time stays small.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=150)
settings.load_profile("tier1")


# A layer table that passes every per-layer check but closes block one with the
# global pool, so the next conv would get a (n, channels) activation.
GAP_IN_BLOCK_ONE = (Conv2d(4, kernel=5), GlobalAvgPool(), Conv1d(4, kernel=5), MaxPool(1),
                    Conv1d(4, kernel=5), MaxPool(1), Conv1d(4, kernel=5), GlobalAvgPool(),
                    Dense(8), Dense(8), Dense(2))


def spy_thread_starts(monkeypatch, cpus: set[int]) -> list[threading.Thread]:
    """Pretend the process may run on `cpus`; returns the list every thread
    started from now on is appended to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    starts = []
    start = threading.Thread.start

    def spy_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    return starts


def make_window(rate_hz: int = 8000, seed: int = 0, scale: float = 0.5) -> DualChannelWindow:
    rng = np.random.default_rng(seed)
    data = (scale * rng.standard_normal((2, rate_hz // 2))).astype(np.float32)
    return DualChannelWindow(data=data, sample_rate_hz=rate_hz)


def write_pcm16_wav(path, payload: bytes) -> None:
    """A stereo 8 kHz PCM16 WAV around `payload`, whatever its length; the data
    chunk starts at byte 36."""
    header = b"RIFF" + struct.pack("<I", 36 + len(payload) + (len(payload) & 1)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000, 4, 16)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload + b"\0" * (len(payload) & 1))


def make_recording(duration_s: float, rate_hz: int = 8000, seed: int = 0,
                   scale: float = 0.3) -> DualChannelRecording:
    rng = np.random.default_rng(seed)
    n = round(duration_s * rate_hz)
    return DualChannelRecording((scale * rng.standard_normal((2, n))).astype(np.float32), rate_hz)


def sine_recording(freq_hz: float, rate_hz: int, duration_s: float = 1.0,
                   amp: float = 0.5) -> DualChannelRecording:
    t = np.arange(round(rate_hz * duration_s)) / rate_hz
    x = (amp * np.sin(2 * np.pi * freq_hz * t)).astype(np.float32)
    return DualChannelRecording(np.stack([x, x]), rate_hz)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """Three-user synthetic dataset shared by pipeline/cli tests."""
    root = tmp_path_factory.mktemp("smallds")
    manifest = synth.generate_dataset(root, n_users=3, seed=7)
    return root, manifest
