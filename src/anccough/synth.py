"""Deterministic synthetic dual-channel dataset generator.

Near-field subject sounds are rendered with a feedback-channel boost (body
conduction through the in-ear seal); far-field environmental sounds reach the
feedback channel attenuated, low-passed and slightly delayed (passive
isolation). That inter-channel contrast is the separability the detector's
subject-awareness relies on. All level and filter constants here are physical
surrogates, fixed as module constants, not measured claims. So are the cough
and sip durations, the cough peak levels and the ambient bed levels. Only the
event mix (`GeneratorConfig`: event counts, filler durations, gaps, lead-in) is
configurable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import get_type_hints

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal import butter, freqz, lfilter

from . import wavio
from .dsp import DualChannelWindow
from .errors import IoFailure, MalformedDatasetFile
from .threads import helpers

GENERATOR_RATE_HZ = 48000

EVENT_LABELS = (
    "single_cough_sitting",
    "continuous_cough_sitting",
    "bite_apple",
    "sip_water",
    "laughing",
    "reading",
    "head_movement",
    "walking",
    "single_cough_walking",
    "continuous_cough_walking",
    "environmental_cough",
    "background_noise",
)

SUBJECT_COUGH_LABELS = frozenset(
    {
        "single_cough_sitting",
        "continuous_cough_sitting",
        "single_cough_walking",
        "continuous_cough_walking",
    }
)

ENV_COUGH_LABEL = "environmental_cough"

ENVIRONMENTS = ("quiet", "noisy", "env_cough")

# Activity groups in collection order: seven sitting, three walking.
ACTIVITY_GROUPS = (
    ("single_cough_sitting", "sitting"),
    ("continuous_cough_sitting", "sitting"),
    ("bite_apple", "sitting"),
    ("sip_water", "sitting"),
    ("laughing", "sitting"),
    ("reading", "sitting"),
    ("head_movement", "sitting"),
    ("walking", "walking"),
    ("single_cough_walking", "walking"),
    ("continuous_cough_walking", "walking"),
)

COUGH_BAND_HZ = (350.0, 4000.0)

# Inter-channel rendering. Subject sources reach the feedback channel through
# a low-shelf boost plus a broadband gain. The environmental path attenuates
# the feedback channel by a seal isolation, draws a seal lowpass corner per
# event and passes the result through a short early-reflection train
# (multipath through the seal and vent). The corner variation keeps any single
# channel from carrying a fixed spectral signature, while the reflections
# guarantee the two channels disagree for far-field sources; both are needed
# for the dual-channel advantage to come from inter-channel structure rather
# than from one channel's private cue.
SUBJECT_FB_GAIN_DB = 6.0
SUBJECT_LOWSHELF_HZ = 800.0
SUBJECT_LOWSHELF_GAIN_DB = 6.0
ENV_ISOLATION_DB = (15.0, 30.0)
ENV_LOWPASS_RANGE_HZ = (900.0, 3200.0)
ENV_DELAY_MAX_SAMPLES_48K = 8
ENV_REFLECTIONS = 2
ENV_REFLECTION_DELAY_MS = (0.2, 1.5)
ENV_REFLECTION_GAIN = (0.3, 0.8)

# Feed-forward level of far-field sources relative to the emitted sound.
ENV_DISTANCE_GAIN_DB = -6.0

# Always-present microphone self-noise; keeps every window's RMS nonzero.
# Drawn per recording so the absolute floor level is not a class cue, and kept
# far below event level on both channels so no event's window is dominated by
# a floor with a readable texture.
SENSOR_NOISE_RMS_RANGE = (1.5e-4, 4.0e-4)

# Cough and sip durations, (mean, sd) in seconds: the collected-data averages.
SINGLE_SITTING_DUR = (0.384, 0.06)
CONTINUOUS_SITTING_DUR = (0.796, 0.08)
SINGLE_WALKING_DUR = (0.515, 0.07)
CONTINUOUS_WALKING_DUR = (0.682, 0.08)
ENV_COUGH_DUR = (1.166, 0.15)
SIP_DUR = (0.601, 0.10)

# Peak amplitude ranges of subject and environmental coughs.
COUGH_PEAK_RANGE = (0.45, 0.9)
ENV_COUGH_PEAK_RANGE = (0.6, 0.95)

# Feed-forward RMS of the ambient bed in each environment.
BED_RMS = {"quiet": 0.004, "noisy": 0.018, "env_cough": 0.008}

MANIFEST_FORMAT_VERSION = 1
MANIFEST_FILENAME = "manifest.json"


@dataclass(frozen=True)
class AnnotatedSegment:
    """One time-stamped event label inside a recording."""

    start_s: float
    end_s: float
    label: str

    def __post_init__(self) -> None:
        if not 0 <= self.start_s < self.end_s < float("inf"):  # also rejects NaN
            raise ValueError(f"bad segment bounds [{self.start_s}, {self.end_s}]")
        if self.label not in EVENT_LABELS:
            raise ValueError(f"unknown label {self.label!r}")

    def overlap_s(self, start_s: float, end_s: float) -> float:
        return max(0.0, min(self.end_s, end_s) - max(self.start_s, start_s))


@dataclass(frozen=True)
class ManifestEntry:
    """Paths (relative to the manifest) and metadata for one recording."""

    wav_path: str
    annotation_path: str
    user_id: int
    environment: str
    posture: str


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    seed: int
    format_version: int = MANIFEST_FORMAT_VERSION

    def user_ids(self) -> list[int]:
        return sorted({e.user_id for e in self.entries})


@dataclass(frozen=True)
class GeneratorConfig:
    """The configurable event mix: desk-scale event counts, filler durations,
    gaps and lead-in.

    Cough and sip durations are not here: they are the module constants
    `*_DUR`, from the collected-data averages. Long filler activities
    (laughing, reading, walking, head movement, apple bites) are shortened so
    a full ten-user dataset stays tractable; their relative loudness and
    texture is what matters downstream.
    """

    single_cough_count: int = 3
    continuous_cough_count: int = 2
    sip_count: int = 2
    env_coughs_per_recording: tuple[int, int] = (2, 3)

    laugh_dur: tuple[float, float] = (1.823, 0.25)
    apple_dur_range: tuple[float, float] = (2.2, 3.2)
    reading_dur_range: tuple[float, float] = (3.0, 4.0)
    head_dur_range: tuple[float, float] = (2.2, 3.0)
    walking_dur_range: tuple[float, float] = (3.0, 4.0)

    gap_range_s: tuple[float, float] = (0.6, 1.1)
    lead_s: float = 0.5


# ---------------------------------------------------------------------------
# sound synthesis primitives
# ---------------------------------------------------------------------------

def _band_noise(
    n: int,
    rate_hz: int,
    lo_hz: float,
    hi_hz: float,
    rng: np.random.Generator,
    knee_hz: float | None = None,
    tilt: float = 0.0,
) -> np.ndarray:
    """Gaussian noise synthesized in the frequency domain, band-limited to
    [lo_hz, hi_hz].

    The spectrum is drawn on the bins of m = next_fast_len(n) >= n samples,
    because pocketfft is slow at lengths with a large prime factor. The output
    is the first n samples of that m-periodic band-limited signal, peak
    normalized: exactly band-limited when n is itself a fast length, and only
    approximately so (a truncated period) otherwise. Optional 1/f-style
    rolloff above knee_hz with exponent `tilt`.
    """
    m = next_fast_len(n, real=True)
    freqs = np.fft.rfftfreq(m, 1.0 / rate_hz)
    band = (freqs >= lo_hz) & (freqs <= hi_hz)
    count = int(band.sum())
    if count == 0:
        return np.zeros(n, dtype=np.float64)
    spec = np.zeros(len(freqs), dtype=np.complex128)
    spec[band] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    if knee_hz is not None and tilt > 0:
        spec[band] *= 1.0 / (1.0 + (freqs[band] / knee_hz) ** tilt)
    x = np.fft.irfft(spec, m)[:n]
    peak = np.abs(x).max()
    return x / peak if peak > 0 else x


def synth_cough(
    duration_s: float,
    rate_hz: int,
    rng: np.random.Generator,
    peak_range: tuple[float, float] = (0.3, 0.9),
) -> np.ndarray:
    """One cough: a band-limited burst with a sharp attack, an exponential
    decay, and a weaker second burst for the voiced phase.

    Spectral content stays inside 350 Hz - 4 kHz (synthesis uses an inner band
    so envelope leakage cannot escape it). All time constants are fractions of
    the duration, and the scalar draws happen before the spectrum draw, so the
    same generator state yields the same cough shape at any duration.
    """
    if not 0.1 <= duration_s <= 2.0:
        raise ValueError(f"cough duration {duration_s} outside [0.1, 2.0] s")
    n = max(8, round(duration_s * rate_hz))

    hi = rng.uniform(2800.0, min(3800.0, 0.45 * rate_hz))
    knee = rng.uniform(600.0, 1200.0)
    tilt = rng.uniform(0.6, 1.6)
    voiced_at = rng.uniform(0.45, 0.6)
    voiced_amp = rng.uniform(0.25, 0.45)
    peak = rng.uniform(*peak_range)

    x = _band_noise(n, rate_hz, 450.0, hi, rng, knee_hz=knee, tilt=tilt)

    t = np.arange(n) / rate_hz
    attack = min(0.015, 0.12 * duration_s)
    env = np.minimum(t / attack, 1.0) * np.exp(-np.maximum(t - attack, 0.0) / (0.30 * duration_s))
    t2 = voiced_at * duration_s
    rise2 = np.clip((t - t2) / 0.010, 0.0, 1.0)
    env2 = voiced_amp * rise2 * np.exp(-np.maximum(t - t2 - 0.010, 0.0) / (0.18 * duration_s))
    env = np.maximum(env, env2)

    x *= env
    x *= peak / np.abs(x).max()
    return x.astype(np.float32)


def _cough_train(total_s: float, rate_hz: int, rng: np.random.Generator,
                 peak_range: tuple[float, float]) -> np.ndarray:
    """A continuous cough: two or three bursts packed into the total duration."""
    n = round(total_s * rate_hz)
    k = 2 if total_s < 0.7 else int(rng.integers(2, 4))
    gaps = rng.uniform(0.03, 0.07, size=k - 1)
    burst_total = max(0.12 * k, total_s - gaps.sum())
    shares = rng.dirichlet(np.full(k, 6.0)) * burst_total
    out = np.zeros(n, dtype=np.float32)
    t = 0.0
    for i in range(k):
        dur = float(np.clip(shares[i], 0.1, 2.0))
        burst = synth_cough(dur, rate_hz, rng, peak_range=peak_range)
        start = round(t * rate_hz)
        stop = min(n, start + len(burst))
        out[start:stop] += burst[: stop - start]
        t += dur + (gaps[i] if i < k - 1 else 0.0)
    peak = np.abs(out).max()
    if peak > 0:
        out *= rng.uniform(*peak_range) / peak
    return out


def _crunch(duration_s: float, rate_hz: int, rng: np.random.Generator) -> np.ndarray:
    """Apple-bite proxy: sparse high-band micro-transients."""
    n = round(duration_s * rate_hz)
    base = _band_noise(n, rate_hz, 1000.0, min(6000.0, 0.45 * rate_hz), rng)
    spikes = np.zeros(n)
    n_spikes = max(3, round(duration_s * rng.uniform(14, 22)))
    pos = rng.integers(0, n, size=n_spikes)
    spikes[pos] = rng.uniform(0.4, 1.0, size=n_spikes)
    decay = np.exp(-np.arange(round(0.004 * rate_hz)) / (0.0012 * rate_hz))
    envelope = np.convolve(spikes, decay)[:n] + 0.03
    x = base * envelope
    return (0.5 * x / np.abs(x).max()).astype(np.float32)


def _gulp(duration_s: float, rate_hz: int, rng: np.random.Generator) -> np.ndarray:
    """Water-sip proxy: a few slow low-frequency pulses."""
    n = round(duration_s * rate_hz)
    base = _band_noise(n, rate_hz, 80.0, 600.0, rng)
    t = np.arange(n) / rate_hz
    k = int(rng.integers(2, 4))
    env = np.zeros(n)
    for i in range(k):
        center = duration_s * (i + 0.5 + rng.uniform(-0.1, 0.1)) / k
        width = rng.uniform(0.05, 0.1)
        env += np.exp(-0.5 * ((t - center) / width) ** 2)
    x = base * env
    return (0.4 * x / np.abs(x).max()).astype(np.float32)


def _syllabic(duration_s: float, rate_hz: int, rng: np.random.Generator,
              lo_hz: float, hi_hz: float, mod_hz: tuple[float, float],
              depth: float, peak: float) -> np.ndarray:
    """Speech-like proxy: band noise amplitude-modulated at a syllabic rate."""
    n = round(duration_s * rate_hz)
    base = _band_noise(n, rate_hz, lo_hz, min(hi_hz, 0.45 * rate_hz), rng,
                       knee_hz=500.0, tilt=0.8)
    t = np.arange(n) / rate_hz
    rate_mod = rng.uniform(*mod_hz)
    phase = rng.uniform(0, 2 * np.pi)
    env = 1.0 - depth * 0.5 * (1.0 + np.sin(2 * np.pi * rate_mod * t + phase))
    env *= 1.0 - depth * 0.3 * np.sin(2 * np.pi * rate_mod * 0.37 * t)
    x = base * env
    return (peak * x / np.abs(x).max()).astype(np.float32)


def _rumble(duration_s: float, rate_hz: int, rng: np.random.Generator) -> np.ndarray:
    """Head-movement proxy: slowly varying low-frequency rumble."""
    n = round(duration_s * rate_hz)
    base = _band_noise(n, rate_hz, 25.0, 180.0, rng)
    slow = _band_noise(n, rate_hz, 0.3, 2.0, rng)
    x = base * (0.4 + 0.6 * np.abs(slow))
    return (0.35 * x / np.abs(x).max()).astype(np.float32)


def _thuds(duration_s: float, rate_hz: int, rng: np.random.Generator,
           peak: float = 0.45) -> np.ndarray:
    """Walking proxy: periodic low-frequency footfall thuds."""
    n = round(duration_s * rate_hz)
    step_hz = rng.uniform(1.7, 2.2)
    thud_len = round(0.08 * rate_hz)
    thud_t = np.arange(thud_len) / rate_hz
    out = np.zeros(n, dtype=np.float64)
    t = rng.uniform(0.0, 0.3)
    while t < duration_s - 0.1:
        f0 = rng.uniform(45.0, 110.0)
        thud = np.sin(2 * np.pi * f0 * thud_t) * np.exp(-thud_t / 0.02)
        thud *= rng.uniform(0.6, 1.0)
        start = round(t * rate_hz)
        stop = min(n, start + thud_len)
        out[start:stop] += thud[: stop - start]
        t += 1.0 / step_hz + rng.uniform(-0.03, 0.03)
    m = np.abs(out).max()
    if m > 0:
        out *= peak / m
    return out.astype(np.float32)


def _background(duration_s: float, rate_hz: int, rng: np.random.Generator) -> np.ndarray:
    """Ambient bed: broadband noise with a gentle downward tilt.

    Band-limited to start inside the cough band: sub-300 Hz bed energy would
    pass the seal lowpass unattenuated and hand single-channel models a
    floor-spectrum tell on far-field windows.
    """
    n = round(duration_s * rate_hz)
    x = _band_noise(n, rate_hz, 350.0, min(7000.0, 0.45 * rate_hz), rng,
                    knee_hz=700.0, tilt=1.0)
    return x.astype(np.float32)


# ---------------------------------------------------------------------------
# inter-channel rendering
# ---------------------------------------------------------------------------

def _low_shelf_coeffs(rate_hz: int, shelf_hz: float, gain_db: float) -> tuple[np.ndarray, np.ndarray]:
    """RBJ low-shelf biquad (S = 1)."""
    amp = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * np.pi * shelf_hz / rate_hz
    cw, sw = np.cos(w0), np.sin(w0)
    alpha = sw / 2.0 * np.sqrt(2.0)
    two_rt = 2.0 * np.sqrt(amp) * alpha
    b = np.array([
        amp * ((amp + 1) - (amp - 1) * cw + two_rt),
        2 * amp * ((amp - 1) - (amp + 1) * cw),
        amp * ((amp + 1) - (amp - 1) * cw - two_rt),
    ])
    a = np.array([
        (amp + 1) + (amp - 1) * cw + two_rt,
        -2 * ((amp - 1) + (amp + 1) * cw),
        (amp + 1) + (amp - 1) * cw - two_rt,
    ])
    return b / a[0], a / a[0]


@lru_cache(maxsize=512)
def _env_lowpass(rate_hz: int, lowpass_hz: float) -> tuple[tuple, tuple, float]:
    """Second-order lowpass plus its RMS gain for a cough-shaped source.

    The gain is used to renormalize the filtered channel so that a drawn
    isolation value equals the realized broadband level difference for
    cough-band sources, independent of the lowpass corner. The reference
    spectrum is the cough band with the generator's typical downward tilt.
    """
    b, a = butter(2, lowpass_hz, fs=rate_hz)
    grid = np.linspace(COUGH_BAND_HZ[0], min(COUGH_BAND_HZ[1], 0.45 * rate_hz), 256)
    _, h = freqz(b, a, worN=grid, fs=rate_hz)
    weight = 1.0 / (1.0 + (grid / 900.0) ** 1.1)
    band_gain = float(np.sqrt(np.sum((weight * np.abs(h)) ** 2) / np.sum(weight ** 2)))
    return tuple(b), tuple(a), band_gain


def render_subject(
    mono: np.ndarray,
    rng: np.random.Generator,
    rate_hz: int = GENERATOR_RATE_HZ,
) -> np.ndarray:
    """Near-field rendering: feed-forward unchanged, feedback boosted.

    The feedback channel gets the body-conduction treatment: a low-shelf boost
    below the shelf frequency plus a broadband gain, with zero inter-channel
    delay. Small per-call jitter keeps renders from being carbon copies.
    """
    mono = np.asarray(mono, dtype=np.float32)
    gain_db = SUBJECT_FB_GAIN_DB + rng.uniform(-1.0, 1.0)
    shelf_hz = SUBJECT_LOWSHELF_HZ * rng.uniform(0.9, 1.1)
    if len(mono) == 0:
        return np.zeros((2, 0), dtype=np.float32)
    b, a = _low_shelf_coeffs(rate_hz, shelf_hz, SUBJECT_LOWSHELF_GAIN_DB)
    fb = lfilter(b, a, mono.astype(np.float64)) * 10.0 ** (gain_db / 20.0)
    return np.stack([mono, fb.astype(np.float32)])


def render_environment(
    mono: np.ndarray,
    rng: np.random.Generator,
    rate_hz: int = GENERATOR_RATE_HZ,
    isolation_db: float | None = None,
) -> np.ndarray:
    """Far-field rendering: attenuated feed-forward, isolated feedback.

    Channel 0 is the source at a distance-attenuated level. Channel 1 is
    channel 0 attenuated by the isolation (drawn here unless the caller fixes
    it; one physical seal means one isolation per recording), low-passed at a
    per-call corner, passed through the early-reflection train, and delayed by
    a few samples. The whole filter chain is renormalized over the cough band
    so the isolation equals the realized level difference for band-limited
    sources.
    """
    mono = np.asarray(mono, dtype=np.float32)
    iso_db = float(rng.uniform(*ENV_ISOLATION_DB)) if isolation_db is None else isolation_db
    corner_hz = float(rng.uniform(*ENV_LOWPASS_RANGE_HZ))
    max_delay = round(ENV_DELAY_MAX_SAMPLES_48K * rate_hz / 48000)
    delay = int(rng.integers(0, max_delay + 1))
    refl_delays = rng.uniform(*ENV_REFLECTION_DELAY_MS, size=ENV_REFLECTIONS)
    refl_gains = rng.uniform(*ENV_REFLECTION_GAIN, size=ENV_REFLECTIONS)
    if len(mono) == 0:
        return np.zeros((2, 0), dtype=np.float32)
    ff = mono * np.float32(10.0 ** (ENV_DISTANCE_GAIN_DB / 20.0))
    corner_q = 25 * round(corner_hz / 25)  # quantized so the filter cache can hit
    b, a, band_gain = _env_lowpass(rate_hz, corner_q)
    fb = lfilter(np.array(b), np.array(a), ff.astype(np.float64))
    base = fb.copy()
    for d_ms, g in zip(refl_delays, refl_gains):
        d = max(1, round(d_ms * 1e-3 * rate_hz))
        if d < len(fb):
            fb[d:] += g * base[: len(fb) - d]
    comb_gain = float(np.sqrt(1.0 + np.sum(refl_gains**2)))
    fb *= 10.0 ** (-iso_db / 20.0) / (band_gain * comb_gain)
    if delay > 0:
        fb = np.concatenate([np.zeros(delay), fb[:-delay]])
    return np.stack([ff, fb.astype(np.float32)])


def generate_noise_pool(n_clips: int, rate_hz: int, seed: int) -> list[DualChannelWindow]:
    """Window-sized environmental noise clips for background mixing."""
    length = rate_hz // 2
    clips = []
    for i in range(n_clips):
        rng = np.random.default_rng([seed, 7001, i])
        lo = rng.uniform(50.0, 300.0)
        hi = rng.uniform(1500.0, min(7000.0, 0.45 * rate_hz))
        mono = _band_noise(length, rate_hz, lo, hi, rng,
                           knee_hz=rng.uniform(200, 800), tilt=rng.uniform(0.3, 1.2))
        mono = (rng.uniform(0.2, 0.6) * mono).astype(np.float32)
        data = render_environment(mono, rng, rate_hz=rate_hz)
        clips.append(DualChannelWindow(data=data, sample_rate_hz=rate_hz))
    return clips


# ---------------------------------------------------------------------------
# recording assembly
# ---------------------------------------------------------------------------

def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x.astype(np.float64))))) if len(x) else 0.0


def _planned_events(group: str, environment: str, cfg: GeneratorConfig,
                    rng: np.random.Generator) -> list[tuple[str | None, str, float]]:
    """Plan the (label, sound kind, duration) list for one recording."""

    def normal(mean_sd: tuple[float, float], lo: float, hi: float) -> float:
        mean, sd = mean_sd
        return float(np.clip(rng.normal(mean, sd), lo, hi))

    events: list[tuple[str | None, str, float]] = []
    if group == "single_cough_sitting":
        for _ in range(cfg.single_cough_count):
            events.append((group, "cough", normal(SINGLE_SITTING_DUR, 0.2, 0.65)))
    elif group == "continuous_cough_sitting":
        for _ in range(cfg.continuous_cough_count):
            events.append((group, "cough_train", normal(CONTINUOUS_SITTING_DUR, 0.5, 1.15)))
    elif group == "bite_apple":
        events.append((group, "crunch", float(rng.uniform(*cfg.apple_dur_range))))
    elif group == "sip_water":
        for _ in range(cfg.sip_count):
            events.append((group, "gulp", normal(SIP_DUR, 0.35, 0.95)))
    elif group == "laughing":
        events.append((group, "laugh", normal(cfg.laugh_dur, 1.2, 2.6)))
    elif group == "reading":
        events.append((group, "read", float(rng.uniform(*cfg.reading_dur_range))))
    elif group == "head_movement":
        events.append((group, "rumble", float(rng.uniform(*cfg.head_dur_range))))
    elif group == "walking":
        events.append((group, "thuds", float(rng.uniform(*cfg.walking_dur_range))))
    elif group == "single_cough_walking":
        for _ in range(cfg.single_cough_count):
            events.append((group, "cough", normal(SINGLE_WALKING_DUR, 0.25, 0.85)))
    elif group == "continuous_cough_walking":
        for _ in range(cfg.continuous_cough_count):
            events.append((group, "cough_train", normal(CONTINUOUS_WALKING_DUR, 0.4, 1.0)))
    else:
        raise ValueError(f"unknown group {group!r}")

    if environment == "env_cough":
        lo, hi = cfg.env_coughs_per_recording
        for _ in range(int(rng.integers(lo, hi + 1))):
            events.append((ENV_COUGH_LABEL, "env_cough", normal(ENV_COUGH_DUR, 0.7, 1.7)))
        rng.shuffle(events)
    return events


def _event_sound(kind: str, duration_s: float, rng: np.random.Generator,
                 rate_hz: int) -> np.ndarray:
    if kind == "cough":
        return synth_cough(duration_s, rate_hz, rng, peak_range=COUGH_PEAK_RANGE)
    if kind == "cough_train":
        return _cough_train(duration_s, rate_hz, rng, peak_range=COUGH_PEAK_RANGE)
    if kind == "env_cough":
        return _cough_train(duration_s, rate_hz, rng, peak_range=ENV_COUGH_PEAK_RANGE)
    if kind == "crunch":
        return _crunch(duration_s, rate_hz, rng)
    if kind == "gulp":
        return _gulp(duration_s, rate_hz, rng)
    if kind == "laugh":
        return _syllabic(duration_s, rate_hz, rng, 250.0, 3000.0, (4.0, 6.5), 0.9, 0.5)
    if kind == "read":
        return _syllabic(duration_s, rate_hz, rng, 150.0, 3400.0, (3.0, 8.0), 0.7, 0.35)
    if kind == "rumble":
        return _rumble(duration_s, rate_hz, rng)
    if kind == "thuds":
        return _thuds(duration_s, rate_hz, rng)
    raise ValueError(f"unknown sound kind {kind!r}")


def _build_recording(
    group: str,
    environment: str,
    posture: str,
    cfg: GeneratorConfig,
    rng: np.random.Generator,
    rate_hz: int,
) -> tuple[np.ndarray, list[AnnotatedSegment]]:
    """Render one recording: subject/environment events over an ambient bed.

    One isolation value is drawn per recording and shared by the bed and all
    environmental events: there is one physical seal, and a per-event draw
    would hand single-channel models a bed-relative loudness tell.
    """
    plan = _planned_events(group, environment, cfg, rng)
    seal_iso_db = float(rng.uniform(*ENV_ISOLATION_DB))

    placements = []  # (start sample, label, dual (2, n))
    t = cfg.lead_s
    for label, kind, duration_s in plan:
        mono = _event_sound(kind, duration_s, rng, rate_hz)
        if kind == "env_cough":
            dual = render_environment(mono, rng, rate_hz=rate_hz, isolation_db=seal_iso_db)
        else:
            dual = render_subject(mono, rng, rate_hz=rate_hz)
        placements.append((round(t * rate_hz), label, dual))
        t += len(mono) / rate_hz + float(rng.uniform(*cfg.gap_range_s))

    total_n = round((t + cfg.lead_s) * rate_hz)

    bed = _background(total_n / rate_hz, rate_hz, rng)[:total_n]
    if len(bed) < total_n:
        bed = np.pad(bed, (0, total_n - len(bed)))
    audio = render_environment(bed, rng, rate_hz=rate_hz, isolation_db=seal_iso_db)
    cur = _rms(audio[0])
    if cur > 0:
        audio *= np.float32(BED_RMS[environment] / cur)

    if posture == "walking":
        # unannotated footfall bed under the walking-state cough groups; kept
        # well below event level so it never dominates a segment's RMS
        steps = _thuds(total_n / rate_hz, rate_hz, rng, peak=0.012)
        audio += render_subject(steps, rng, rate_hz=rate_hz)[:, :total_n]

    segments = []
    for start_n, label, dual in placements:
        stop_n = min(total_n, start_n + dual.shape[1])
        audio[:, start_n:stop_n] += dual[:, : stop_n - start_n]
        segments.append(
            AnnotatedSegment(start_s=start_n / rate_hz, end_s=stop_n / rate_hz, label=label)
        )

    sensor_rms = rng.uniform(*SENSOR_NOISE_RMS_RANGE)
    audio += rng.normal(0.0, sensor_rms, size=audio.shape).astype(np.float32)
    segments.sort(key=lambda s: s.start_s)
    return audio.astype(np.float32), segments


# ---------------------------------------------------------------------------
# annotation and manifest files
# ---------------------------------------------------------------------------

def write_annotations(segments: list[AnnotatedSegment], path: str | Path) -> None:
    """One record per line: start_s<TAB>end_s<TAB>label."""
    lines = [f"{s.start_s:.6f}\t{s.end_s:.6f}\t{s.label}" for s in segments]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_annotations(path: str | Path) -> list[AnnotatedSegment]:
    segments = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise MalformedDatasetFile(f"{path}: not UTF-8 text: {exc}") from exc
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            start_s, end_s, label = line.split("\t")
            segments.append(AnnotatedSegment(float(start_s), float(end_s), label))
        except ValueError as exc:
            raise MalformedDatasetFile(
                f"{path}: line {number}: want start_s<TAB>end_s<TAB>label: {exc}") from exc
    return segments


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _field(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise MalformedDatasetFile(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedDatasetFile(
            f"{where}: field {key!r} is {type(value).__name__}, want {kind.__name__}")
    return value


def read_manifest(path: str | Path) -> DatasetManifest:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
        raise MalformedDatasetFile(f"{path}: not a JSON manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDatasetFile(f"{path}: manifest is {type(doc).__name__}, want object")
    version = _field(doc, "format_version", int, str(path))
    if version != MANIFEST_FORMAT_VERSION:
        raise MalformedDatasetFile(f"{path}: unknown format_version {version} "
                                   f"(want {MANIFEST_FORMAT_VERSION})")
    seed = _field(doc, "seed", int, str(path))
    kinds = get_type_hints(ManifestEntry)  # field -> type, in declaration order
    entries = []
    for i, e in enumerate(_field(doc, "entries", list, str(path))):
        where = f"{path}: entries[{i}]"
        if not isinstance(e, dict):
            raise MalformedDatasetFile(f"{where} is {type(e).__name__}, want object")
        entries.append(ManifestEntry(**{
            name: _field(e, name, kind, where) for name, kind in kinds.items()}))
    return DatasetManifest(entries=tuple(entries), seed=seed, format_version=version)


def generate_dataset(
    out_dir: str | Path,
    n_users: int = 10,
    seed: int = 0,
    config: GeneratorConfig | None = None,
) -> DatasetManifest:
    """Render the full synthetic study: n_users x 3 environments x 10 groups.

    Writes 48 kHz stereo 16-bit WAVs, one tab-separated annotation file per
    recording, and manifest.json at the dataset root. Per-recording RNG streams
    are derived from (seed, user, environment, group), so output is
    byte-identical for a given seed regardless of generation order.

    Recordings render on a `threads.helpers()` pool: the calling thread
    renders some, at most one helper thread, started and joined within this
    call, the others (see threads.py). Only the calling thread writes (WAVs,
    annotations, then the manifest, in the serial order), so every byte is the
    same for any thread count. With one CPU no thread is started.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    cfg = config or GeneratorConfig()
    out_dir = Path(out_dir)
    jobs = [
        (user, env_idx, group_idx)
        for user in range(n_users)
        for env_idx in range(len(ENVIRONMENTS))
        for group_idx in range(len(ACTIVITY_GROUPS))
    ]

    def render(job: tuple[int, int, int]) -> tuple[np.ndarray, list[AnnotatedSegment]]:
        user, env_idx, group_idx = job
        group, posture = ACTIVITY_GROUPS[group_idx]
        rng = np.random.default_rng([seed, *job])
        return _build_recording(
            group, ENVIRONMENTS[env_idx], posture, cfg, rng, GENERATOR_RATE_HZ
        )

    entries = []

    def write(job: tuple[int, int, int], rendered) -> None:
        user, env_idx, group_idx = job
        audio, segments = rendered
        environment = ENVIRONMENTS[env_idx]
        group, posture = ACTIVITY_GROUPS[group_idx]
        rec_dir = f"user{user:02d}/{environment}"
        stem = f"{group_idx:02d}_{group}"
        wav_rel, ann_rel = f"{rec_dir}/{stem}.wav", f"{rec_dir}/{stem}.tsv"
        (out_dir / rec_dir).mkdir(parents=True, exist_ok=True)
        wavio.write_wav(out_dir / wav_rel, audio.T, GENERATOR_RATE_HZ)
        write_annotations(segments, out_dir / ann_rel)
        entries.append(
            ManifestEntry(
                wav_path=wav_rel,
                annotation_path=ann_rel,
                user_id=user,
                environment=environment,
                posture=posture,
            )
        )

    try:
        with helpers() as ordered_map:
            for job, recording in zip(jobs, ordered_map(render, jobs)):
                write(job, recording)
        manifest = DatasetManifest(entries=tuple(entries), seed=seed)
        write_manifest(manifest, out_dir / MANIFEST_FILENAME)
    except OSError as exc:
        raise IoFailure(f"failed writing dataset under {out_dir}: {exc}") from exc
    return manifest

