"""Deterministic signal path: loading, rate conversion, windowing, normalization.

Channel convention used across the whole project: channel 0 is the feed-forward
(outer) microphone, channel 1 is the feedback (in-ear) microphone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft

from . import wavio
from .errors import NonFiniteSamples, NonIntegerFactor, NotStereo, UnsupportedRate

SUPPORTED_RATES = (8000, 16000, 24000, 48000)

WINDOW_S = 0.5

# Decimation filter: Kaiser-windowed sinc, >= 60 dB stopband at the target
# Nyquist, passband edge at 0.45x the target rate.
_STOPBAND_DB = 60.0
_PASSBAND_EDGE = 0.45

# Polyphase overlap-save blocks: each FFT spans _DECIMATE_FFT_LEN rows of every
# input phase and yields that many outputs less the sub-filter length plus one;
# _DECIMATE_GROUP blocks are transformed per pass, so the complex spectra held
# at once stay the same size whatever the recording's length.
_DECIMATE_FFT_LEN = 1024
_DECIMATE_GROUP = 8

_CONSTANT_CHANNEL_STD = 1e-8


@dataclass
class DualChannelRecording:
    """Time-aligned two-channel sample buffers with rate metadata."""

    samples_ff: np.ndarray
    samples_fb: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        self.samples_ff = np.asarray(self.samples_ff, dtype=np.float32)
        self.samples_fb = np.asarray(self.samples_fb, dtype=np.float32)
        if self.samples_ff.ndim != 1 or self.samples_fb.ndim != 1:
            raise ValueError("channel buffers must be one-dimensional")
        if len(self.samples_ff) != len(self.samples_fb):
            raise ValueError("channel buffers must have identical length")
        if self.sample_rate_hz not in SUPPORTED_RATES:
            raise UnsupportedRate(f"rate {self.sample_rate_hz} not in {SUPPORTED_RATES}")
        if not (np.isfinite(self.samples_ff).all() and np.isfinite(self.samples_fb).all()):
            raise NonFiniteSamples("samples must be finite")

    def __len__(self) -> int:
        return len(self.samples_ff)

    @property
    def duration_s(self) -> float:
        return len(self.samples_ff) / self.sample_rate_hz

    def stacked(self) -> np.ndarray:
        """Both channels as a (2, n) array, feed-forward first."""
        return np.stack([self.samples_ff, self.samples_fb])


@dataclass
class DualChannelWindow:
    """One 0.5 s two-channel clip, the unit of classification."""

    data: np.ndarray  # (2, L) with L = sample_rate_hz // 2
    sample_rate_hz: int
    start_s: float = 0.0

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float32)
        expected = (2, self.sample_rate_hz // 2)
        if self.data.shape != expected:
            raise ValueError(f"window shape {self.data.shape} != {expected}")

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def load_recording(path: str | Path) -> DualChannelRecording:
    """Load a stereo WAV file as a dual-channel recording.

    File channel 0 maps to the feed-forward mic, channel 1 to the feedback mic.
    """
    frames, rate = wavio.read_wav(path)
    return recording_from_frames(frames, rate, path)


def recording_from_frames(frames: np.ndarray, rate: int, path: str | Path) -> DualChannelRecording:
    """`load_recording` after the read: check the (frames, channels) array
    `wavio.read_wav` returned and split it into the two channels; errors name
    `path`."""
    if frames.shape[1] != 2:
        raise NotStereo(f"{path}: {frames.shape[1]} channels, need 2")
    if rate not in SUPPORTED_RATES:
        raise UnsupportedRate(f"{path}: rate {rate} not in {SUPPORTED_RATES}")
    try:
        return DualChannelRecording(
            samples_ff=frames[:, 0],
            samples_fb=frames[:, 1],
            sample_rate_hz=rate,
        )
    except NonFiniteSamples:
        frame = int(np.argmin(np.isfinite(frames).all(axis=1)))
        raise NonFiniteSamples(f"{path}: frame {frame} holds a non-finite sample") from None


def save_recording(rec: DualChannelRecording, path: str | Path, encoding: str = "int16") -> None:
    """Write a recording as a stereo WAV file (feed-forward = channel 0)."""
    wavio.write_wav(path, rec.stacked().T, rec.sample_rate_hz, encoding=encoding)


def design_decimation_taps(factor: int) -> np.ndarray:
    """Kaiser-windowed sinc lowpass for integer decimation by `factor`.

    Cutoff sits at 0.45/factor cycles per input sample; the transition band ends
    at the target Nyquist (0.5/factor) with >= 60 dB attenuation beyond it.
    Odd length, so the group delay is an integer number of samples.
    """
    cutoff = _PASSBAND_EDGE / factor
    transition = (0.5 - _PASSBAND_EDGE) / factor
    beta = 0.1102 * (_STOPBAND_DB - 8.7)
    n_taps = int(np.ceil((_STOPBAND_DB - 7.95) / (14.36 * transition))) + 1
    if n_taps % 2 == 0:
        n_taps += 1
    m = (n_taps - 1) / 2
    n = np.arange(n_taps)
    taps = 2.0 * cutoff * np.sinc(2.0 * cutoff * (n - m)) * np.kaiser(n_taps, beta)
    return taps / taps.sum()


@functools.lru_cache(maxsize=None)
def _polyphase_filter(factor: int) -> tuple[np.ndarray, int, int]:
    """The decimation filter split into `factor` sub-filters, as spectra.

    Returns (spectra, sub_len, lead). Sub-filter r holds taps[r::factor],
    zero-padded to sub_len = ceil(T / factor) taps. Phase row s of a segment
    (its samples s, s + factor, ...) meets sub-filter factor-1-s, so row s of
    the (factor, 1, FFT_LEN // 2 + 1) spectra is the rfft of that sub-filter.
    `lead` is how many samples before an output's input position its segment
    starts, which centres the filter ("same" alignment).
    """
    taps = design_decimation_taps(factor)
    sub_len = -(-len(taps) // factor)
    padded = np.zeros(sub_len * factor)
    padded[:len(taps)] = taps
    subfilters = padded.reshape(sub_len, factor).T[::-1]
    spectra = fft.rfft(subfilters, _DECIMATE_FFT_LEN, axis=-1)[:, None, :]
    spectra.flags.writeable = False
    return spectra, sub_len, factor * sub_len - 1 - (len(taps) - 1) // 2


def decimate(rec: DualChannelRecording, target_rate_hz: int) -> DualChannelRecording:
    """Anti-aliased integer-factor decimation of both channels.

    The FIR is linear phase and applied centred ("same" alignment), so the
    group delay is already compensated; output m is the filter centred on
    input sample m * factor, and the output has length floor(n / factor).

    Only the kept outputs are computed, by polyphase overlap-save: the
    zero-padded input is read as `factor` phase rows, each filtered by its
    own ceil(T / factor)-tap sub-filter, and the phases are summed. Per
    block, every phase row is rfft'd, multiplied by its sub-filter's cached
    spectrum and summed in the frequency domain; one irfft then gives the
    block's outputs after the first sub_len - 1, which are the rows of history
    the block carries. Both channels go through together, a group of blocks
    at a time, so memory stays bounded whatever the recording's length.

    The sum runs in float64 and each output is cast to float32 once. Against
    the exact float64 convolution an output is off by at most half a float32
    ulp plus a few float64 eps of the input's peak, from the FFT rounding.
    """
    if target_rate_hz <= 0 or rec.sample_rate_hz % target_rate_hz != 0:
        raise NonIntegerFactor(
            f"target {target_rate_hz} does not divide {rec.sample_rate_hz}"
        )
    factor = rec.sample_rate_hz // target_rate_hz
    if factor == 1:
        return DualChannelRecording(rec.samples_ff.copy(), rec.samples_fb.copy(),
                                    rec.sample_rate_hz)
    spectra, sub_len, lead = _polyphase_filter(factor)
    hop = _DECIMATE_FFT_LEN - (sub_len - 1)  # outputs per block
    n, out_len = len(rec), len(rec) // factor
    out = np.empty((2, out_len), np.float32)
    segment = np.empty((2, (_DECIMATE_GROUP * hop + sub_len - 1) * factor))
    for m0 in range(0, out_len, _DECIMATE_GROUP * hop):
        count = min(_DECIMATE_GROUP * hop, out_len - m0)
        n_blocks = -(-count // hop)
        rows = n_blocks * hop + sub_len - 1
        # input samples [start, stop), zero outside the recording
        start = factor * m0 - lead
        stop = start + rows * factor
        lo, hi = max(start, 0), min(stop, n)
        seg = segment[:, :rows * factor]
        if lo > start or hi < stop:
            seg.fill(0.0)
        seg[0, lo - start:hi - start] = rec.samples_ff[lo:hi]
        seg[1, lo - start:hi - start] = rec.samples_fb[lo:hi]
        phases = seg.reshape(2, rows, factor).transpose(0, 2, 1)
        blocks = sliding_window_view(phases, _DECIMATE_FFT_LEN, axis=-1)[:, :, ::hop]
        spectrum = fft.rfft(blocks, axis=-1)  # (2, factor, n_blocks, FFT_LEN // 2 + 1)
        spectrum *= spectra
        filtered = fft.irfft(spectrum.sum(axis=1), _DECIMATE_FFT_LEN, axis=-1)[..., sub_len - 1:]
        out[:, m0:m0 + count] = filtered.reshape(2, -1)[:, :count]
    return DualChannelRecording(out[0], out[1], target_rate_hz)


def slice_windows(rec: DualChannelRecording) -> list[DualChannelWindow]:
    """Cut a recording into back-to-back 0.5 s windows; a short trailing
    remainder is dropped."""
    length = rec.sample_rate_hz // 2
    data = rec.stacked()
    windows = []
    for start in range(0, len(rec) - length + 1, length):
        windows.append(
            DualChannelWindow(
                data=data[:, start:start + length].copy(),
                sample_rate_hz=rec.sample_rate_hz,
                start_s=start / rec.sample_rate_hz,
            )
        )
    return windows


def normalize(win: DualChannelWindow) -> DualChannelWindow:
    """Shift each channel to zero mean and scale to unit standard deviation.

    A nearly constant channel (std < 1e-8) becomes all zeros instead of
    blowing up. Statistics are computed in float64, the mean once: the std is
    taken from the centred channel with the operations `np.std` uses, so the
    bits equal a separate mean and std, and the result is idempotent well
    inside float32 resolution.
    """
    x = win.data.astype(np.float64)
    centred = x - x.sum(axis=-1, keepdims=True) / x.shape[-1]
    sd = np.sqrt(np.square(centred).sum(axis=-1, keepdims=True) / x.shape[-1])
    out = np.zeros_like(centred)
    np.divide(centred, sd, out=out, where=sd >= _CONSTANT_CHANNEL_STD)
    return replace(win, data=out.astype(np.float32))
