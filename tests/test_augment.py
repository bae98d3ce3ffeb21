"""Augmentation stage tests: each operation plus the full deterministic plan."""

import hashlib

import numpy as np
import pytest

from anccough.augment import (
    AugmentPlan,
    add_white_noise,
    apply_plan,
    gain,
    mix_background,
    pitch_shift,
    random_mask,
    speed,
    time_shift,
)
from anccough.dsp import DualChannelWindow
from anccough.errors import (
    EmptyNoisePool,
    FractionOutOfRange,
    ShapeMismatch,
    ShiftTooLarge,
    SilentInput,
)
from anccough.synth import generate_noise_pool
from conftest import make_window


def sine_window(freq_hz: float, rate_hz: int = 8000, amp: float = 0.5) -> DualChannelWindow:
    t = np.arange(rate_hz // 2) / rate_hz
    x = (amp * np.sin(2 * np.pi * freq_hz * t)).astype(np.float32)
    return DualChannelWindow(data=np.stack([x, x]), sample_rate_hz=rate_hz)


def dominant_freq(x: np.ndarray, rate_hz: int) -> float:
    spectrum = np.abs(np.fft.rfft(x.astype(np.float64)))
    return float(np.fft.rfftfreq(len(x), 1.0 / rate_hz)[np.argmax(spectrum)])


def rms(x) -> float:
    return float(np.sqrt(np.mean(np.square(np.asarray(x, np.float64)))))


# --- gain ---

def test_gain_zero_is_identity():
    win = make_window(seed=0)
    assert np.array_equal(gain(win, 0.0).data, win.data)


def test_gain_six_db_doubles():
    win = make_window(seed=1)
    out = gain(win, 6.0206)
    assert np.abs(out.data - 2.0 * win.data).max() <= 1e-6 * np.abs(win.data).max() * 2


def test_gain_large_negative_silences():
    win = make_window(seed=2, scale=1.0)
    win.data[:] = np.clip(win.data, -1, 1)
    out = gain(win, -120.0)
    assert np.abs(out.data).max() < 1e-5


# --- time shift ---

def test_time_shift_zero_and_full_rotation_identity():
    win = make_window(seed=3)
    assert np.array_equal(time_shift(win, 0.0).data, win.data)
    full = win.n_samples / win.sample_rate_hz
    with pytest.raises(ShiftTooLarge):
        time_shift(win, full)  # 0.5 s exceeds the 0.25 s bound
    # rotation by L is the identity; check via two quarter-window shifts
    half1 = time_shift(win, full / 2)
    back = time_shift(half1, -full / 2)
    assert np.array_equal(back.data, win.data)


def test_time_shift_sample_mapping():
    win = make_window(8000, seed=4)
    out = time_shift(win, 0.1)
    k = round(0.1 * 8000)
    assert np.array_equal(out.data[:, k:], win.data[:, :-k])
    assert np.array_equal(out.data[:, :k], win.data[:, -k:])


def test_time_shift_too_large_rejected():
    with pytest.raises(ShiftTooLarge):
        time_shift(make_window(), 0.3)


# --- pitch shift ---

def test_pitch_shift_zero_is_identity():
    win = make_window(seed=5)
    assert np.abs(pitch_shift(win, 0.0).data - win.data).max() < 1e-5


def test_pitch_shift_octaves():
    win = sine_window(400)
    up = pitch_shift(win, 12.0)
    # analyze only the populated half to avoid the zero-padded tail
    half = up.data[0][: up.n_samples // 2]
    assert abs(dominant_freq(half, 8000) - 800) < 10
    down = pitch_shift(win, -12.0)
    assert abs(dominant_freq(down.data[0], 8000) - 200) < 10


# --- speed ---

def test_speed_one_is_identity():
    win = make_window(seed=6)
    assert np.abs(speed(win, 1.0).data - win.data).max() < 1e-6


def test_speed_two_halves_burst_width():
    rate = 8000
    data = np.zeros((2, rate // 2), np.float32)
    data[:, 1000:3000] = 0.5  # 0.25 s burst
    win = DualChannelWindow(data=data, sample_rate_hz=rate)
    out = speed(win, 2.0)
    width_s = np.count_nonzero(np.abs(out.data[0]) > 0.25) / rate
    assert abs(width_s - 0.125) < 0.01


def test_speed_keeps_channels_aligned():
    win = make_window(seed=7)
    win.data[1] = win.data[0]
    out = speed(win, 0.9)
    assert np.array_equal(out.data[0], out.data[1])


# --- random mask ---

def test_random_mask_zero_fraction_identity():
    win = make_window(seed=8)
    out = random_mask(win, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, win.data)


def test_random_mask_exact_count():
    win = make_window(8000, seed=9)
    win.data[win.data == 0] = 0.5  # ensure no accidental zeros
    out = random_mask(win, 0.10, np.random.default_rng(1))
    for ch in range(2):
        assert int(np.sum(out.data[ch] == 0.0)) == 400


def test_random_mask_deterministic_and_range_checked():
    win = make_window(seed=10)
    a = random_mask(win, 0.05, np.random.default_rng(2))
    b = random_mask(win, 0.05, np.random.default_rng(2))
    assert np.array_equal(a.data, b.data)
    with pytest.raises(FractionOutOfRange):
        random_mask(win, 0.2, np.random.default_rng(0))


# --- white noise ---

def test_white_noise_hits_target_snr():
    win = make_window(seed=11)
    out = add_white_noise(win, 20.0, np.random.default_rng(3))
    for ch in range(2):
        noise = out.data[ch] - win.data[ch]
        snr = 20 * np.log10(rms(win.data[ch]) / rms(noise))
        assert abs(snr - 20.0) < 0.5


def test_white_noise_infinite_snr_is_noop():
    win = make_window(seed=12)
    out = add_white_noise(win, np.inf, np.random.default_rng(0))
    assert np.array_equal(out.data, win.data)


def test_white_noise_seeds_differ_but_power_matches():
    win = make_window(seed=13)
    a = add_white_noise(win, 10.0, np.random.default_rng(4))
    b = add_white_noise(win, 10.0, np.random.default_rng(5))
    na, nb = a.data - win.data, b.data - win.data
    assert not np.array_equal(na, nb)
    assert abs(rms(na) - rms(nb)) / rms(nb) < 0.05


def test_white_noise_rejects_silence():
    win = make_window(seed=14)
    win.data[:] = 0.0
    with pytest.raises(SilentInput):
        add_white_noise(win, 10.0, np.random.default_rng(0))


# --- background mixing ---

def test_mix_background_zero_noise_identity():
    win = make_window(seed=15)
    silent = make_window(seed=16)
    silent.data[:] = 0.0
    out = mix_background(win, silent, 10.0)
    assert np.array_equal(out.data, win.data)


def test_mix_background_zero_db_matches_rms():
    win = make_window(seed=17)
    noise = make_window(seed=18)
    out = mix_background(win, noise, 0.0)
    added = out.data[0] - win.data[0]
    assert abs(rms(added) - rms(win.data[0])) / rms(win.data[0]) < 0.01


def test_mix_background_energy_additivity():
    win = make_window(seed=19)
    noise = make_window(seed=20)
    out = mix_background(win, noise, 6.0)
    added = out.data - win.data
    e_out = np.sum(out.data.astype(np.float64) ** 2)
    e_parts = np.sum(win.data.astype(np.float64) ** 2) + np.sum(added.astype(np.float64) ** 2)
    assert abs(e_out - e_parts) / e_parts < 0.10


def test_mix_background_shape_mismatch():
    win = make_window(8000, seed=21)
    other = make_window(16000, seed=22)
    with pytest.raises(ShapeMismatch):
        mix_background(win, other, 10.0)


# --- full plan ---

def test_apply_plan_zero_copies_is_identity():
    wins = [make_window(seed=s) for s in range(5)]
    out = apply_plan(wins, AugmentPlan(copies_per_clip=0, seed=1))
    assert len(out) == 5
    for a, b in zip(out, wins):
        assert np.array_equal(a.data, b.data)


def test_apply_plan_counts_and_determinism():
    wins = [make_window(seed=s) for s in range(10)]
    pool = [make_window(seed=100 + s, scale=0.1) for s in range(3)]
    plan = AugmentPlan(copies_per_clip=3, seed=9)
    out1 = apply_plan(wins, plan, pool)
    out2 = apply_plan(wins, plan, pool)
    assert len(out1) == 40
    for a, b in zip(out1, out2):
        assert np.array_equal(a.data, b.data)


def test_apply_plan_preserves_shape_and_rate():
    wins = [make_window(seed=s) for s in range(4)]
    out = apply_plan(wins, AugmentPlan(copies_per_clip=2, seed=3))
    assert all(w.data.shape == (2, 4000) and w.sample_rate_hz == 8000 for w in out)


def test_apply_plan_empty_pool_rejected():
    with pytest.raises(EmptyNoisePool):
        apply_plan([make_window()], AugmentPlan(seed=0), noise_pool=[])


# SHA-256 of apply_plan's float32 output (numpy 2.4.6, scipy 1.17.1) over six
# windows, two copies each, with background mixing from a synthetic pool.
APPLY_PLAN_DIGEST = "dae2a5d492849b610023ed662fe2d40abe126cc797f10d833759889595bf188c"


def test_apply_plan_matches_recorded_digest():
    windows = [make_window(8000, seed=s) for s in range(6)]
    out = apply_plan(windows, AugmentPlan(copies_per_clip=2, seed=7),
                     generate_noise_pool(4, 8000, 7))
    h = hashlib.sha256()
    for w in out:
        h.update(np.ascontiguousarray(w.data, dtype="<f4").tobytes())
    assert h.hexdigest() == APPLY_PLAN_DIGEST


def test_load_noise_pool_from_directory(tmp_path):
    from anccough import wavio
    from anccough.augment import load_noise_pool

    rng = np.random.default_rng(0)
    wavio.write_wav(tmp_path / "a.wav",
                    (0.1 * rng.standard_normal((48000, 2))).astype(np.float32), 48000)
    wavio.write_wav(tmp_path / "b.wav",
                    (0.1 * rng.standard_normal((6000, 2))).astype(np.float32), 8000)
    pool = load_noise_pool(tmp_path, 8000)
    assert len(pool) == 2 + 1  # 1 s at 48k -> 2 windows at 8k; 0.75 s -> 1
    assert all(w.data.shape == (2, 4000) for w in pool)


def test_plan_rejects_negative_copies():
    with pytest.raises(ValueError):
        AugmentPlan(copies_per_clip=-1)
