"""Generator tests: cough synthesis, channel rendering, dataset invariants."""

import hashlib
import os
import threading

import numpy as np
import pytest

from anccough import synth, wavio
from anccough.dsp import load_recording
from anccough.errors import IoFailure
from anccough.synth import (
    ENV_COUGH_LABEL,
    SUBJECT_COUGH_LABELS,
    AnnotatedSegment,
    DatasetManifest,
    GeneratorConfig,
    generate_noise_pool,
    read_annotations,
    read_manifest,
    render_environment,
    render_subject,
    synth_cough,
    write_annotations,
    write_manifest,
)
from anccough.threads import thread_count


def band_noise_48k(n, lo, hi, seed=0, tilted=False):
    """Band-limited noise probe; tilted=True mimics the cough reference
    spectrum the environmental isolation is normalized over."""
    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n, 1 / 48000)
    band = (freqs >= lo) & (freqs <= hi)
    spec = np.zeros(len(freqs), complex)
    spec[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    if tilted:
        spec[band] *= 1.0 / (1.0 + (freqs[band] / 900.0) ** 1.1)
    x = np.fft.irfft(spec, n)
    return (0.3 * x / np.abs(x).max()).astype(np.float32)


def rms(x):
    return float(np.sqrt(np.mean(np.square(np.asarray(x, np.float64)))))


# --- cough synthesis ---

def test_cough_band_energy():
    x = synth_cough(0.384, 48000, np.random.default_rng(5))
    spec = np.abs(np.fft.rfft(x.astype(np.float64))) ** 2
    freqs = np.fft.rfftfreq(len(x), 1 / 48000)
    in_band = spec[(freqs >= 350) & (freqs <= 4000)].sum()
    assert in_band / spec.sum() >= 0.95


def test_cough_deterministic():
    a = synth_cough(0.4, 48000, np.random.default_rng(8))
    b = synth_cough(0.4, 48000, np.random.default_rng(8))
    assert np.array_equal(a, b)


def test_cough_peak_range():
    for seed in range(5):
        x = synth_cough(0.5, 48000, np.random.default_rng(seed))
        assert 0.3 <= np.abs(x).max() <= 0.9


def test_cough_duration_bounds():
    with pytest.raises(ValueError):
        synth_cough(0.05, 48000, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synth_cough(2.5, 48000, np.random.default_rng(0))


def test_cough_envelope_scales_with_duration():
    def t20(duration):
        y = np.abs(synth_cough(duration, 48000, np.random.default_rng(9)))
        k = max(1, len(y) // 200)
        env = np.convolve(y, np.ones(k) / k, mode="same")
        above = np.nonzero(env >= 0.1 * env.max())[0]
        return above[-1] / 48000

    ratio = t20(1.0) / t20(0.1)
    assert 8.0 <= ratio <= 12.0


# --- band noise ---

@pytest.mark.parametrize("n", [18433, 96001])  # prime; 3 * 32000 + 1
@pytest.mark.parametrize("lo,hi,knee,tilt,in_band", [
    (25.0, 180.0, None, 0.0, 0.95),
    (350.0, 7000.0, 900.0, 1.1, 0.99),
    (1000.0, 6000.0, None, 0.0, 0.99),
])
def test_band_noise_at_slow_lengths(n, lo, hi, knee, tilt, in_band):
    """Drawn at a fast FFT length and cut to n: still n samples, peak 1, and
    nearly all of its energy inside the band. Cutting the period leaks the
    most from the narrow low band: over 300 draws at n = 18433 its in-band
    share ranged 0.964-1.0 (median 0.995); wide bands kept >= 0.996."""
    x = synth._band_noise(n, 48000, lo, hi, np.random.default_rng(n), knee_hz=knee, tilt=tilt)
    assert x.shape == (n,) and x.dtype == np.float64
    assert np.abs(x).max() == 1.0
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(n, 1 / 48000)
    assert power[(freqs >= lo) & (freqs <= hi)].sum() / power.sum() >= in_band


def test_band_noise_at_a_fast_length_is_the_exact_inverse():
    n, rate, lo, hi, knee, tilt = 4000, 8000, 120.0, 3000.0, 400.0, 0.8
    x = synth._band_noise(n, rate, lo, hi, np.random.default_rng(3), knee_hz=knee, tilt=tilt)
    rng = np.random.default_rng(3)
    freqs = np.fft.rfftfreq(n, 1 / rate)
    band = (freqs >= lo) & (freqs <= hi)
    spec = np.zeros(len(freqs), complex)
    spec[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    spec[band] *= 1.0 / (1.0 + (freqs[band] / knee) ** tilt)
    y = np.fft.irfft(spec, n)
    assert np.array_equal(x, y / np.abs(y).max())


# --- channel rendering ---

def test_render_subject_silence_and_level():
    silent = np.zeros(4800, np.float32)
    out = render_subject(silent, np.random.default_rng(0))
    assert np.abs(out).max() < 1e-9
    x = band_noise_48k(48000, 350, 4000, seed=1)
    out = render_subject(x, np.random.default_rng(1))
    assert np.array_equal(out[0], x)
    assert rms(out[1]) >= rms(out[0])


def test_render_subject_shelf_boosts_lows_more():
    t = np.arange(48000) / 48000
    low = np.sin(2 * np.pi * 200 * t).astype(np.float32)
    high = np.sin(2 * np.pi * 2000 * t).astype(np.float32)
    out_low = render_subject(low, np.random.default_rng(2))
    out_high = render_subject(high, np.random.default_rng(2))
    gain_low = rms(out_low[1]) / rms(out_low[0])
    gain_high = rms(out_high[1]) / rms(out_high[0])
    assert gain_low > gain_high


def test_render_environment_isolation_interval():
    x = band_noise_48k(48000, 350, 4000, seed=3, tilted=True)
    for seed in range(8):
        out = render_environment(x, np.random.default_rng(seed))
        diff_db = 20 * np.log10(rms(out[0]) / rms(out[1]))
        assert 13.0 <= diff_db <= 32.0  # drawn from [15, 30]; comb ripple slack


def test_render_environment_silence():
    out = render_environment(np.zeros(4800, np.float32), np.random.default_rng(0))
    assert np.abs(out).max() < 1e-9


def test_render_environment_lowpass_ordering():
    # narrowband noise probes; averaged over draws to wash out comb ripple
    low = band_noise_48k(48000, 250, 350, seed=4)
    high = band_noise_48k(48000, 2800, 3300, seed=5)
    atten_low, atten_high = [], []
    for seed in range(6):
        out_l = render_environment(low, np.random.default_rng(seed))
        out_h = render_environment(high, np.random.default_rng(seed))
        atten_low.append(rms(out_l[0]) / rms(out_l[1]))
        atten_high.append(rms(out_h[0]) / rms(out_h[1]))
    assert np.mean(atten_high) > np.mean(atten_low)


def test_render_environment_fixed_isolation():
    x = band_noise_48k(48000, 350, 4000, seed=6, tilted=True)
    out = render_environment(x, np.random.default_rng(3), isolation_db=20.0)
    diff_db = 20 * np.log10(rms(out[0]) / rms(out[1]))
    assert abs(diff_db - 20.0) < 2.5


# --- noise pool ---

def test_noise_pool_shapes_and_determinism():
    pool1 = generate_noise_pool(4, 8000, seed=3)
    pool2 = generate_noise_pool(4, 8000, seed=3)
    assert len(pool1) == 4
    for a, b in zip(pool1, pool2):
        assert a.data.shape == (2, 4000)
        assert np.array_equal(a.data, b.data)


# SHA-256 of the pool's float32 clips (numpy 2.4.6, scipy 1.17.1): its clip
# length (rate / 2) is a fast FFT length, so band-noise synthesis must
# reproduce these bits exactly.
NOISE_POOL_DIGEST = "60e23e400af72c7d00e111e6a73ba2027d09c6584d233d336e74e6d2dec804c3"


def test_noise_pool_matches_recorded_digest():
    h = hashlib.sha256()
    for clip in generate_noise_pool(32, 8000, 7):
        h.update(np.ascontiguousarray(clip.data, dtype="<f4").tobytes())
    assert h.hexdigest() == NOISE_POOL_DIGEST


# --- annotations and manifest ---

def test_annotation_round_trip(tmp_path):
    segs = [
        AnnotatedSegment(0.5, 1.0, "single_cough_sitting"),
        AnnotatedSegment(2.25, 3.5, "environmental_cough"),
    ]
    path = tmp_path / "a.tsv"
    write_annotations(segs, path)
    assert read_annotations(path) == segs


def test_annotation_validation():
    with pytest.raises(ValueError):
        AnnotatedSegment(1.0, 0.5, "laughing")
    with pytest.raises(ValueError):
        AnnotatedSegment(0.0, 1.0, "sneeze")
    for start_s, end_s in ((float("nan"), 1.0), (0.0, float("nan")), (0.0, float("inf"))):
        with pytest.raises(ValueError):
            AnnotatedSegment(start_s, end_s, "laughing")


def test_manifest_round_trip(small_dataset, tmp_path):
    _, manifest = small_dataset
    path = tmp_path / "m.json"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest


# --- generated dataset properties ---

def test_dataset_layout(small_dataset):
    root, manifest = small_dataset
    assert isinstance(manifest, DatasetManifest)
    assert len(manifest.entries) == 3 * 3 * 10
    assert manifest.user_ids() == [0, 1, 2]
    for e in manifest.entries:
        assert (root / e.wav_path).exists()
        assert (root / e.annotation_path).exists()
        assert e.environment in ("quiet", "noisy", "env_cough")
        assert e.posture in ("sitting", "walking")


def test_dataset_channel_separability(small_dataset):
    root, manifest = small_dataset
    n_subj = n_env = 0
    for e in manifest.entries:
        rec = load_recording(root / e.wav_path)
        for s in read_annotations(root / e.annotation_path):
            i0 = int(s.start_s * rec.sample_rate_hz)
            i1 = int(s.end_s * rec.sample_rate_hz)
            level = np.sqrt(np.mean(rec.data[:, i0:i1].astype(np.float64) ** 2, axis=1))
            if s.label in SUBJECT_COUGH_LABELS:
                n_subj += 1
                assert level[1] >= level[0]
            elif s.label == ENV_COUGH_LABEL:
                n_env += 1
                assert 20 * np.log10(level[0] / level[1]) >= 10.0
    assert n_subj > 0 and n_env > 0


def test_dataset_cough_energy_over_background(small_dataset):
    root, manifest = small_dataset
    checked = 0
    for e in manifest.entries:
        rec = load_recording(root / e.wav_path)
        rate = rec.sample_rate_hz
        ff = rec.data[0].astype(np.float64)
        anns = read_annotations(root / e.annotation_path)
        for s in anns:
            if s.label not in SUBJECT_COUGH_LABELS and s.label != ENV_COUGH_LABEL:
                continue
            i0, i1 = int(s.start_s * rate), int(s.end_s * rate)
            inside = np.mean(ff[i0:i1] ** 2)
            adjacent = []
            for a0, a1 in ((i0 - rate // 4, i0), (i1, i1 + rate // 4)):
                a0, a1 = max(0, a0), min(len(ff), a1)
                span = (a0 / rate, a1 / rate)
                if a1 > a0 and not any(
                    o.overlap_s(*span) > 0 for o in anns if o is not s
                ):
                    adjacent.append(ff[a0:a1])
            if not adjacent:
                continue
            bg = np.mean(np.concatenate(adjacent) ** 2)
            assert 10 * np.log10(inside / bg) >= 10.0
            checked += 1
    assert checked > 10


def test_dataset_deterministic(tmp_path):
    cfg = GeneratorConfig()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    synth.generate_dataset(a_dir, n_users=1, seed=5, config=cfg)
    synth.generate_dataset(b_dir, n_users=1, seed=5, config=cfg)
    a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()


# SHA-256 over every file generate_dataset writes (relative path, then bytes, in
# path order) for two users at seed 3 with a small event mix (numpy 2.4.6,
# scipy 1.17.1). It pins the rendering of both source paths and the bed.
SMALL_CONFIG = GeneratorConfig(
    single_cough_count=1,
    continuous_cough_count=1,
    sip_count=1,
    env_coughs_per_recording=(1, 1),
    laugh_dur=(1.3, 0.1),
    apple_dur_range=(0.6, 0.8),
    reading_dur_range=(0.6, 0.8),
    head_dur_range=(0.6, 0.8),
    walking_dur_range=(0.6, 0.8),
    gap_range_s=(0.3, 0.5),
    lead_s=0.25,
)
SMALL_DATASET_DIGEST = "3eb2ad0bc5716a006073f2102120e82a11eea8331616544a1fb2b350d09d87c7"


def test_dataset_matches_recorded_digest(tmp_path):
    synth.generate_dataset(tmp_path, n_users=2, seed=3, config=SMALL_CONFIG)
    h = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        h.update(path.relative_to(tmp_path).as_posix().encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == SMALL_DATASET_DIGEST


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# --- rendering on threads ---

@pytest.mark.parametrize("threads", [1, 2, 3])
def test_dataset_bytes_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, threads):
    monkeypatch.setattr("anccough.threads.thread_count", lambda: threads)
    before = threading.active_count()
    manifest = synth.generate_dataset(tmp_path, n_users=2, seed=3, config=SMALL_CONFIG)
    assert threading.active_count() == before
    assert tree_digest(tmp_path) == SMALL_DATASET_DIGEST
    assert manifest == read_manifest(tmp_path / synth.MANIFEST_FILENAME)


def test_one_cpu_starts_no_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert thread_count() == 1
    before = threading.active_count()
    seen = []
    write_wav = wavio.write_wav

    def spy_write(*args, **kwargs):
        seen.append(threading.active_count())
        return write_wav(*args, **kwargs)

    monkeypatch.setattr(wavio, "write_wav", spy_write)
    synth.generate_dataset(tmp_path, n_users=1, seed=3, config=SMALL_CONFIG)
    assert seen and set(seen) == {before}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("failing_group", [0, 1])  # T = 2: the caller's, then a helper's
def test_a_failed_render_propagates_and_leaves_no_thread(tmp_path, monkeypatch, threads,
                                                         failing_group):
    monkeypatch.setattr("anccough.threads.thread_count", lambda: threads)
    build = synth._build_recording
    boom = RuntimeError("render failed")

    def flaky_build(group, environment, *rest):
        # the second environment's recordings, so some files are already written
        if environment == "noisy" and group == synth.ACTIVITY_GROUPS[failing_group][0]:
            raise boom
        return build(group, environment, *rest)

    monkeypatch.setattr(synth, "_build_recording", flaky_build)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        synth.generate_dataset(tmp_path, n_users=1, seed=3, config=SMALL_CONFIG)
    assert exc.value is boom
    assert threading.active_count() == before
    assert not (tmp_path / synth.MANIFEST_FILENAME).exists()


def test_every_wav_is_written_on_the_calling_thread(tmp_path, monkeypatch):
    monkeypatch.setattr("anccough.threads.thread_count", lambda: 2)
    write_wav = wavio.write_wav
    writers, renderers = [], set()

    def spy_write(*args, **kwargs):
        writers.append(threading.get_ident())
        return write_wav(*args, **kwargs)

    build = synth._build_recording

    def spy_build(*args):
        renderers.add(threading.get_ident())
        return build(*args)

    monkeypatch.setattr(wavio, "write_wav", spy_write)
    monkeypatch.setattr(synth, "_build_recording", spy_build)
    manifest = synth.generate_dataset(tmp_path, n_users=1, seed=3, config=SMALL_CONFIG)
    assert len(writers) == len(manifest.entries)
    assert set(writers) == {threading.get_ident()}
    assert len(renderers) == 2  # the caller and one helper both rendered


@pytest.mark.parametrize("threads", [1, 2])
def test_unwritable_out_dir_is_io_failure(tmp_path, monkeypatch, threads):
    monkeypatch.setattr("anccough.threads.thread_count", lambda: threads)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    before = threading.active_count()
    with pytest.raises(IoFailure, match="failed writing dataset"):
        synth.generate_dataset(blocker / "ds", n_users=1, seed=3, config=SMALL_CONFIG)
    assert threading.active_count() == before


def test_dataset_rejects_bad_user_count(tmp_path):
    with pytest.raises(ValueError):
        synth.generate_dataset(tmp_path, n_users=0, seed=0)
