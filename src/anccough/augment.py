"""Three-stage training-set augmentation, deterministic under a seed.

Stage order per plan: standard waveform edits (gain, shift, pitch, speed,
masking), then noise injection (white noise, background mixing), then
formatting (normalization; windows already sit at their final rate). Each
stage's parameter is drawn from one fixed range below; a plan sets only how
many copies to make and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .dsp import DualChannelWindow, decimate, load_recording, normalize, slice_windows
from .errors import (
    EmptyNoisePool,
    FractionOutOfRange,
    ShapeMismatch,
    ShiftTooLarge,
    SilentInput,
)

MAX_SHIFT_S = 0.25
MAX_PITCH_SEMITONES = 12.0  # a full octave either way; plans draw within +/-2
SPEED_FACTOR_BOUNDS = (0.5, 2.0)
MAX_MASK_FRACTION = 0.10

# The ranges apply_plan draws each stage's parameter from, uniformly.
GAIN_DB_RANGE = (-6.0, 6.0)
SHIFT_RANGE_S = (-0.1, 0.1)
PITCH_SEMITONE_RANGE = (-2.0, 2.0)
SPEED_FACTOR_RANGE = (0.9, 1.1)
MASK_FRACTION_RANGE = (0.0, 0.10)
WHITE_NOISE_SNR_DB_RANGE = (5.0, 30.0)
BACKGROUND_SNR_DB_RANGE = (0.0, 20.0)


@dataclass(frozen=True)
class AugmentPlan:
    """How many augmented copies to make of each clip, and the seed that fixes them."""

    copies_per_clip: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.copies_per_clip < 0:
            raise ValueError("copies_per_clip must be >= 0")


def gain(win: DualChannelWindow, db: float) -> DualChannelWindow:
    """Scale both channels by 10^(db/20)."""
    factor = np.float32(10.0 ** (db / 20.0))
    return replace(win, data=win.data * factor)


def time_shift(win: DualChannelWindow, shift_s: float) -> DualChannelWindow:
    """Rotate both channels circularly by the same number of samples."""
    if abs(shift_s) > MAX_SHIFT_S:
        raise ShiftTooLarge(f"|{shift_s}| > {MAX_SHIFT_S} s")
    k = round(shift_s * win.sample_rate_hz)
    return replace(win, data=np.roll(win.data, k, axis=1))


def _time_resample(data: np.ndarray, factor: float) -> np.ndarray:
    """Rescale the time axis by `factor` with linear interpolation, refit to L.

    out[i] samples the input at position i * factor, so factor > 1 compresses
    (content plays faster / pitched up) and factor < 1 stretches. Both channels
    share one interpolation grid, preserving inter-channel alignment. Output is
    cropped or zero-padded back to the original length.
    """
    length = data.shape[1]
    new_len = max(1, round(length / factor))
    positions = np.arange(new_len) * factor
    grid = np.arange(length, dtype=np.float64)
    out = np.zeros_like(data)
    take = min(new_len, length)
    for ch in range(2):
        resampled = np.interp(positions, grid, data[ch].astype(np.float64))
        out[ch, :take] = resampled[:take].astype(np.float32)
    return out


def pitch_shift(win: DualChannelWindow, semitones: float) -> DualChannelWindow:
    """Scale pitch by 2^(semitones/12) via resampling, keeping window length."""
    if abs(semitones) > MAX_PITCH_SEMITONES:
        raise ValueError(f"|{semitones}| > {MAX_PITCH_SEMITONES} semitones")
    factor = 2.0 ** (semitones / 12.0)
    if factor == 1.0:
        return replace(win, data=win.data.copy())
    return replace(win, data=_time_resample(win.data, factor))


def speed(win: DualChannelWindow, factor: float) -> DualChannelWindow:
    """Rescale the time axis by `factor` (2.0 halves event durations)."""
    lo, hi = SPEED_FACTOR_BOUNDS
    if not lo <= factor <= hi:
        raise ValueError(f"speed factor {factor} outside [{lo}, {hi}]")
    if factor == 1.0:
        return replace(win, data=win.data.copy())
    return replace(win, data=_time_resample(win.data, factor))


def random_mask(win: DualChannelWindow, fraction: float, rng: np.random.Generator) -> DualChannelWindow:
    """Zero exactly round(fraction * L) indices per channel, drawn without replacement."""
    if not 0.0 <= fraction <= MAX_MASK_FRACTION:
        raise FractionOutOfRange(f"fraction {fraction} outside [0, {MAX_MASK_FRACTION}]")
    n_mask = round(fraction * win.n_samples)
    data = win.data.copy()
    for ch in range(2):
        idx = rng.choice(win.n_samples, size=n_mask, replace=False)
        data[ch, idx] = 0.0
    return replace(win, data=data)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x.astype(np.float64)))))


def add_white_noise(win: DualChannelWindow, snr_db: float, rng: np.random.Generator) -> DualChannelWindow:
    """Add per-channel Gaussian noise at an exact target SNR.

    The drawn noise is renormalized so that 20*log10(signal_rms / noise_rms)
    equals snr_db on each channel. An infinite SNR is a no-op.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return replace(win, data=win.data.copy())
    data = win.data.copy()
    for ch in range(2):
        sig_rms = _rms(data[ch])
        if sig_rms <= 0.0:
            raise SilentInput(f"channel {ch} has zero RMS")
        noise = rng.standard_normal(win.n_samples)
        noise *= (sig_rms / 10.0 ** (snr_db / 20.0)) / _rms(noise)
        data[ch] += noise.astype(np.float32)
    return replace(win, data=data)


def mix_background(win: DualChannelWindow, noise: DualChannelWindow, snr_db: float) -> DualChannelWindow:
    """Mix a background clip into the window at a target channel-0 SNR.

    One common scale factor, computed on channel 0, is applied to both noise
    channels so the clip's own inter-channel structure is preserved.
    """
    if noise.sample_rate_hz != win.sample_rate_hz or noise.data.shape != win.data.shape:
        raise ShapeMismatch("noise clip must match the window's rate and shape")
    noise_rms = _rms(noise.data[0])
    if noise_rms <= 0.0 or (np.isinf(snr_db) and snr_db > 0):
        return replace(win, data=win.data.copy())
    scale = _rms(win.data[0]) / (noise_rms * 10.0 ** (snr_db / 20.0))
    return replace(win, data=win.data + np.float32(scale) * noise.data)


def apply_plan(
    windows: Sequence[DualChannelWindow],
    plan: AugmentPlan,
    noise_pool: Sequence[DualChannelWindow] | None = None,
) -> list[DualChannelWindow]:
    """Emit each input window followed by its augmented variants.

    Every variant draws an independent parameter for each stage from its
    range; the RNG stream is derived from (plan.seed, window index, copy index)
    so the result is a pure function of (windows, plan, noise_pool) and is safe
    to compute in parallel per window.

    Passing noise_pool=None disables background mixing; an empty pool is an
    error because the plan's background stage would silently vanish.
    """
    if noise_pool is not None and len(noise_pool) == 0:
        raise EmptyNoisePool("background mixing enabled with an empty noise pool")
    out: list[DualChannelWindow] = []
    for idx, win in enumerate(windows):
        out.append(win)
        for copy_idx in range(plan.copies_per_clip):
            rng = np.random.default_rng([plan.seed, idx, copy_idx])
            w = gain(win, rng.uniform(*GAIN_DB_RANGE))
            w = time_shift(w, rng.uniform(*SHIFT_RANGE_S))
            w = pitch_shift(w, rng.uniform(*PITCH_SEMITONE_RANGE))
            w = speed(w, rng.uniform(*SPEED_FACTOR_RANGE))
            w = random_mask(w, rng.uniform(*MASK_FRACTION_RANGE), rng)
            w = add_white_noise(w, rng.uniform(*WHITE_NOISE_SNR_DB_RANGE), rng)
            if noise_pool is not None:
                clip = noise_pool[int(rng.integers(len(noise_pool)))]
                w = mix_background(w, clip, rng.uniform(*BACKGROUND_SNR_DB_RANGE))
            out.append(normalize(w))
    return out


def load_noise_pool(directory: str | Path, rate_hz: int) -> list[DualChannelWindow]:
    """Window-sized background clips from a directory of two-channel WAVs.

    Files are decimated to rate_hz when needed (their rates must be integer
    multiples) and cut into 0.5 s windows.
    """
    pool: list[DualChannelWindow] = []
    for path in sorted(Path(directory).glob("*.wav")):
        rec = load_recording(path)
        if rec.sample_rate_hz != rate_hz:
            rec = decimate(rec, rate_hz)
        pool.extend(slice_windows(rec))
    return pool
