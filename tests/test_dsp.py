"""Signal-path tests: WAV I/O, decimation, windowing, normalization."""

import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
import scipy

from anccough import wavio
from anccough.dsp import (
    DualChannelRecording,
    DualChannelWindow,
    decimate,
    design_decimation_taps,
    load_recording,
    normalize,
    save_recording,
    slice_windows,
)
from anccough.errors import (
    AnccoughError,
    MalformedHeader,
    NonFiniteSamples,
    NonIntegerFactor,
    NotStereo,
    UnsupportedEncoding,
    UnsupportedRate,
)
from anccough.threads import helpers
from conftest import make_recording, sine_recording, spy_thread_starts, write_pcm16_wav


def tone_amplitude(x: np.ndarray, rate_hz: int, freq_hz: float) -> float:
    """Amplitude of the dominant bin near freq_hz, from an exact-length FFT."""
    spectrum = np.abs(np.fft.rfft(x.astype(np.float64)))
    freqs = np.fft.rfftfreq(len(x), 1.0 / rate_hz)
    k = np.argmin(np.abs(freqs - freq_hz))
    lo, hi = max(0, k - 2), k + 3
    return 2.0 * spectrum[lo:hi].max() / len(x)


# --- WAV I/O ---

def test_wav_int16_round_trip(tmp_path):
    raw = make_recording(0.75, 48000, seed=1)
    rec = DualChannelRecording(np.clip(raw.data, -0.99, 0.99), raw.sample_rate_hz)
    path = tmp_path / "x.wav"
    save_recording(rec, path)
    back = load_recording(path)
    assert back.sample_rate_hz == 48000
    assert len(back) == len(rec)
    assert np.abs(back.data - rec.data).max() < 1.0 / 32768


def test_wav_float32_round_trip_exact(tmp_path):
    rec = make_recording(0.25, 16000, seed=2)
    path = tmp_path / "x.wav"
    save_recording(rec, path, encoding="float32")
    back = load_recording(path)
    assert np.array_equal(back.data, rec.data)


def test_wav_full_scale_negative_maps_to_minus_one(tmp_path):
    path = tmp_path / "fs.wav"
    payload = np.full(64, -32768, dtype="<i2").tobytes()  # 32 stereo frames
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000, 4, 16)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)
    rec = load_recording(path)
    assert rec.data.shape == (2, 32) and np.all(rec.data == -1.0)


def test_wav_mono_rejected(tmp_path):
    path = tmp_path / "mono.wav"
    wavio.write_wav(path, np.zeros((100, 1), np.float32), 8000)
    with pytest.raises(NotStereo):
        load_recording(path)


def test_wav_unsupported_rate_rejected(tmp_path):
    path = tmp_path / "odd.wav"
    wavio.write_wav(path, np.zeros((100, 2), np.float32), 11025)
    with pytest.raises(UnsupportedRate):
        load_recording(path)


def test_wav_malformed_header_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"not a wave file at all, nope")
    with pytest.raises(MalformedHeader):
        load_recording(path)


def test_wav_unsupported_encoding_rejected(tmp_path):
    path = tmp_path / "u8.wav"
    payload = bytes(64)
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 8000, 16000, 2, 8)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)
    with pytest.raises(UnsupportedEncoding):
        load_recording(path)


def test_wav_odd_length_data_chunk_is_typed(tmp_path):
    path = tmp_path / "odd.wav"
    write_pcm16_wav(path, bytes(65))
    for load in (wavio.read_wav, load_recording):
        with pytest.raises(MalformedHeader) as exc:
            load(path)
        assert str(path) in str(exc.value) and "at byte 36" in str(exc.value)


def test_wav_non_finite_sample_is_typed(tmp_path):
    frames = np.zeros((100, 2), np.float32)
    frames[5, 1] = np.nan
    frames[7, 0] = np.inf
    path = tmp_path / "nan.wav"
    wavio.write_wav(path, frames, 8000, encoding="float32")
    with pytest.raises(NonFiniteSamples) as exc:
        load_recording(path)
    assert isinstance(exc.value, AnccoughError)
    assert str(path) in str(exc.value) and "frame 5" in str(exc.value)


def _read_wav_digest(path) -> str:
    frames, rate = wavio.read_wav(path)
    h = hashlib.sha256(f"{frames.dtype}{frames.shape}{rate}".encode())
    h.update(np.ascontiguousarray(frames).tobytes())
    return h.hexdigest()


READ_WAV_DIGESTS = {
    "int16": "7e89ae89a45053e792c2ebaa15d747f4233b59473918128f147c007ede07381a",
    "float32": "6d1448e48e3a2addc25a78bfc72029c61a12c08f731b2737b6678931dbba739c",
}


def test_read_wav_output_is_unchanged(tmp_path):
    """read_wav decodes to the same bytes as the copy-and-divide reader it
    replaced (digests recorded from that reader)."""
    rng = np.random.default_rng(41)
    frames = np.clip(0.4 * rng.standard_normal((4801, 2)), -1.0, 1.0).astype(np.float32)
    frames[:4] = [[-1.0, 1.0], [0.0, -0.0], [1 / 32768, -1 / 32768], [0.99999, -0.99999]]
    wavio.write_wav(tmp_path / "i.wav", frames, 48000)
    wavio.write_wav(tmp_path / "f.wav", frames, 48000, encoding="float32")
    assert _read_wav_digest(tmp_path / "i.wav") == READ_WAV_DIGESTS["int16"]
    assert _read_wav_digest(tmp_path / "f.wav") == READ_WAV_DIGESTS["float32"]


# --- decimation ---

def test_decimate_factor_one_is_bit_identical():
    rec = make_recording(0.5, 8000, seed=3)
    out = decimate(rec, 8000)
    assert np.array_equal(out.data, rec.data)


def test_decimate_non_integer_factor_rejected():
    rec = make_recording(0.5, 48000)
    with pytest.raises(NonIntegerFactor):
        decimate(rec, 9000)


def test_decimate_preserves_in_band_tone():
    rec = sine_recording(1000, 48000, duration_s=1.0, amp=0.5)
    out = decimate(rec, 8000)
    mid = out.data[0, 800:4800]  # steady state, away from edges
    amp = tone_amplitude(mid, 8000, 1000)
    assert abs(amp - 0.5) / 0.5 < 0.01


def test_decimate_attenuates_alias():
    rec = sine_recording(5000, 48000, duration_s=1.0, amp=0.5)
    out = decimate(rec, 8000)
    mid = out.data[0, 800:4800].astype(np.float64)
    in_energy = 0.5**2 / 2  # mean square of the input tone
    out_energy = np.mean(mid**2)
    assert 10 * np.log10(in_energy / max(out_energy, 1e-30)) >= 40


def test_decimate_is_linear():
    a, b = 0.7, -1.3
    x = make_recording(1.0, 48000, seed=4)
    y = make_recording(1.0, 48000, seed=5)
    mixed = DualChannelRecording(a * x.data + b * y.data, 48000)
    lhs = decimate(mixed, 8000).data
    rhs = a * decimate(x, 8000).data + b * decimate(y, 8000).data
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-5


@pytest.mark.parametrize("target", [8000, 16000, 24000, 48000])
def test_decimate_then_slice_yields_half_rate_windows(target):
    rec = make_recording(1.6, 48000, seed=6)
    wins = slice_windows(decimate(rec, target))
    assert all(w.data.shape == (2, target // 2) for w in wins)


RATE_PAIRS = [(48000, 24000), (48000, 16000), (48000, 8000), (24000, 8000), (16000, 8000)]


def _decimate_inputs(src, dst):
    """Distinct noise channels at lengths shorter than every filter, not a
    multiple of any factor, and several block groups long."""
    for i, n in enumerate((97, 431, 4999, 5 * src + 7)):
        rng = np.random.default_rng(1000 * i + src // 1000 + dst // 1000)
        x = (0.3 * rng.standard_normal((2, n))).astype(np.float32)
        yield DualChannelRecording(x, src)


def _decimate_digest(src, dst) -> str:
    h = hashlib.sha256()
    for rec in _decimate_inputs(src, dst):
        out = decimate(rec, dst)
        h.update(f"{out.sample_rate_hz}:{len(out)}".encode())
        h.update(out.data[0].tobytes())
        h.update(out.data[1].tobytes())
    return h.hexdigest()


# SHA-256 of decimate's own float32 output on _decimate_inputs: any change to
# its arithmetic that moves a bit shows here.
PINNED_VERSIONS = ("2.4.6", "1.17.1")  # numpy, scipy
DECIMATE_DIGESTS = {
    (48000, 24000): "3d6b9b4ecc0743f23d7a22c63fd1ab368ec3aa692c281ac1f268a8c07e40675d",
    (48000, 16000): "6ebd90551eb52fad20df1159b1847ae2d1e2ea746bc4c306750e646700e455df",
    (48000, 8000): "1b264e0e78aa7993668650c98ee30a8286f591e0318db315996d5e3e32eb3088",
    (24000, 8000): "53ccd9060fc1a3baf9fd6fa6e5e82167e32fcf32353a898d801caa92a6fbc628",
    (16000, 8000): "ab0be50b0cd19aa92b6f8687825b906e5ac960db864f98d7d3d81fcf0c04117d",
}


@pytest.mark.skipif((np.__version__, scipy.__version__) != PINNED_VERSIONS,
                    reason="digests recorded with numpy %s, scipy %s" % PINNED_VERSIONS)
@pytest.mark.parametrize("src,dst", RATE_PAIRS)
def test_decimate_matches_recorded_digest(src, dst):
    assert _decimate_digest(src, dst) == DECIMATE_DIGESTS[src, dst]


@pytest.mark.skipif((np.__version__, scipy.__version__) != PINNED_VERSIONS,
                    reason="digests recorded with numpy %s, scipy %s" % PINNED_VERSIONS)
@pytest.mark.parametrize("where", ["1 thread", "2 threads", "inside an open pool"])
@pytest.mark.parametrize("src,dst", RATE_PAIRS)
def test_decimate_digest_holds_on_the_helper_pool(monkeypatch, src, dst, where):
    """The block groups map over the helper pool (or serially inside another
    open pool) with every output bit unchanged, and no thread outlives a call."""
    starts = spy_thread_starts(monkeypatch, {0} if where == "1 thread" else {0, 1})
    if where == "inside an open pool":
        with helpers():
            assert _decimate_digest(src, dst) == DECIMATE_DIGESTS[src, dst]
    else:
        assert _decimate_digest(src, dst) == DECIMATE_DIGESTS[src, dst]
    # the longest input has several block groups: one helper per call at 2 CPUs
    assert len(starts) == (where == "2 threads")
    assert not any(t.is_alive() for t in starts)


def _level_jump_inputs(src, dst):
    """Noise whose level jumps by up to 100 dB every 10 ms: quiet samples
    beside loud ones, where FFT rounding is largest against the output."""
    rng = np.random.default_rng(src // 1000 + dst)
    for n in (300, 4401, 3 * src + 5):
        level = np.repeat(10.0 ** rng.uniform(-5, 0, (2, n // 480 + 1)), 480, axis=1)[:, :n]
        x = (level * rng.standard_normal((2, n))).astype(np.float32)
        yield DualChannelRecording(x, src)


@pytest.mark.parametrize("src,dst", RATE_PAIRS)
def test_decimate_matches_direct_convolution(src, dst):
    """Within 1e-6 of a float64 direct convolution, and per output within half
    a float32 ulp of it plus 1e-15 of the input's peak."""
    factor = src // dst
    taps = design_decimation_taps(factor)
    centre = (len(taps) - 1) // 2
    for rec in itertools.chain(_decimate_inputs(src, dst), _level_jump_inputs(src, dst)):
        out = decimate(rec, dst)
        n = len(rec)
        for got, x in zip(out.data, rec.data):
            same = np.convolve(x.astype(np.float64), taps)[centre:centre + n]
            want = same[::factor][:n // factor]
            assert got.dtype == np.float32 and got.shape == want.shape
            err = np.abs(got - want)
            assert err.max(initial=0.0) <= 1e-6
            half_ulp = 0.5 * np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
            bound = half_ulp + 1e-15 * float(np.abs(x).max())
            assert np.all(err <= bound)


def test_decimate_memory_is_a_fraction_of_the_input():
    """Blocks of outputs, not whole-signal float64 copies: the traced peak for
    62 s of 48 kHz stereo stays within 1.25x the input's float64 size."""
    rng = np.random.default_rng(12)
    frames = (0.3 * rng.standard_normal((62 * 48000, 2))).astype(np.float32)
    rec = DualChannelRecording(frames.T, 48000)
    tracemalloc.start()
    try:
        out = decimate(rec, 8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == len(rec) // 6
    assert peak <= 1.25 * frames.size * 8


# --- windowing ---

def test_slice_window_counts():
    assert len(slice_windows(make_recording(33.0, 48000))) == 66
    assert len(slice_windows(make_recording(0.4, 8000))) == 0
    wins = slice_windows(make_recording(1.25, 8000))
    assert [w.start_s for w in wins] == [0.0, 0.5]


def test_slice_preserves_sample_identity():
    rec = make_recording(2.3, 8000, seed=7)
    wins = slice_windows(rec)
    joined = np.concatenate([w.data for w in wins], axis=1)
    assert np.array_equal(joined, rec.data[:, : joined.shape[1]])


# --- normalization ---

def test_normalize_stats_and_idempotence():
    from conftest import make_window

    win = make_window(8000, seed=9)
    n1 = normalize(win)
    for ch in range(2):
        assert abs(float(n1.data[ch].mean())) < 1e-6
        assert 1 - 1e-4 <= float(n1.data[ch].std()) <= 1 + 1e-4
    n2 = normalize(n1)
    assert np.abs(n2.data - n1.data).max() < 1e-5


def test_normalize_constant_channel_becomes_zero():
    data = np.stack([np.full(4000, 0.7, np.float32), np.ones(4000, np.float32)])
    from anccough.dsp import DualChannelWindow

    win = DualChannelWindow(data=data, sample_rate_hz=8000)
    out = normalize(win)
    assert np.all(out.data == 0.0)


def test_normalize_alternating_channel_is_fixed_point():
    alt = np.tile(np.array([1.0, -1.0], np.float32), 2000)
    data = np.stack([alt, alt])
    from anccough.dsp import DualChannelWindow

    win = DualChannelWindow(data=data, sample_rate_hz=8000)
    out = normalize(win)
    assert np.abs(out.data - data).max() < 1e-6


def test_normalize_matches_separate_mean_and_std_bits():
    rng = np.random.default_rng(13)
    data = (rng.standard_normal((9, 2, 4000)) * rng.uniform(0.01, 3.0, (9, 2, 1))).astype(np.float32)
    data[2, 1] = 0.7  # a constant channel
    data[5] = 0.0
    for d in data:
        x = d.astype(np.float64)
        want = np.zeros_like(x)
        for ch in range(2):
            if x[ch].std() >= 1e-8:
                want[ch] = (x[ch] - x[ch].mean()) / x[ch].std()
        got = normalize(DualChannelWindow(d, 8000)).data
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.astype(np.float32).view(np.uint32))
    assert np.all(normalize(DualChannelWindow(data[2], 8000)).data[1] == 0.0)


def test_recording_non_finite_is_typed():
    with pytest.raises(NonFiniteSamples):
        DualChannelRecording(np.array([[0, 0, 0, 0], [0, 0, np.inf, 0]], np.float32), 8000)


def test_recording_validation():
    for shape in ((10,), (10, 2), (3, 10), (2, 5, 2)):
        with pytest.raises(ValueError):
            DualChannelRecording(np.zeros(shape, np.float32), 8000)
    with pytest.raises(UnsupportedRate):
        DualChannelRecording(np.zeros((2, 10), np.float32), 44100)
    with pytest.raises(ValueError):
        DualChannelRecording(np.array([[np.nan], [0]], np.float32), 8000)
