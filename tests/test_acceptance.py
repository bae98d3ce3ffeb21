"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end study
(criteria 4 and 5) generates the fixed-seed ten-user dataset once per session
and trains the 8 kHz variant on the 6/2/2 user split.
"""

import time

import numpy as np
import pytest

from anccough import evalkit, net, pipeline, stream, synth
from anccough.augment import AugmentPlan
from anccough.cli import main as cli_main
from anccough.dsp import DualChannelRecording, decimate, normalize, slice_windows
from anccough.errors import BadMagic, CrcMismatch, TruncatedFile
from anccough.model_io import load_model, save_model
from anccough.profile import profile
from test_net import full_model_fd_check
from test_pipeline import brute_force_label

STUDY_SEED = 2024
TRAIN_SEED = 7

# Criterion 4 trains with STUDY_CONFIG, criterion 5 each ablation arm with
# ABLATION_CONFIG; tools/seed_sweep.py runs both at other seeds.
STUDY_CONFIG = pipeline.TrainConfig(epochs_max=15, batch_size=32, learning_rate=1e-3,
                                    early_stop_patience=3, seed=TRAIN_SEED,
                                    class_weighting=True)
ABLATION_CONFIG = pipeline.TrainConfig(epochs_max=8, batch_size=32, learning_rate=1e-3,
                                       early_stop_patience=2, seed=TRAIN_SEED,
                                       class_weighting=True)

PUBLISHED_SPACE_KB = {8000: 385, 16000: 641, 24000: 897, 48000: 1665}
PUBLISHED_FLOPS_M = {8000: 12.20, 16000: 24.53, 24000: 36.88, 48000: 73.91}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --- shared end-to-end study (criteria 4 and 5) ---

def train_study(train_set, val_set, spec, cfg=STUDY_CONFIG):
    """Criterion 4's training: one augmented copy per clip, mixed from a
    32-clip noise pool, both drawn from cfg.seed."""
    plan = AugmentPlan(copies_per_clip=1, seed=cfg.seed)
    pool = synth.generate_noise_pool(32, 8000, cfg.seed)
    return pipeline.train(train_set, val_set, spec, cfg, plan=plan, noise_pool=pool)


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    t0 = time.time()
    manifest = synth.generate_dataset(root, n_users=10, seed=STUDY_SEED)
    split = pipeline.default_split(manifest.user_ids())
    train_set, val_set, test_set = pipeline.split_by_user(manifest, split, root, 8000)

    spec = net.default_spec(8000)
    params, history = train_study(train_set, val_set, spec)
    elapsed = time.time() - t0
    return {
        "root": root,
        "manifest": manifest,
        "split": split,
        "sets": (train_set, val_set, test_set),
        "spec": spec,
        "params": params,
        "history": history,
        "train_elapsed_s": elapsed,
    }


def test_criterion_01_resource_reproduction():
    t0 = time.time()
    details = []
    ok = True
    for rate in sorted(PUBLISHED_SPACE_KB):
        prof = profile(net.default_spec(rate))
        space_ok = prof.space_kb <= PUBLISHED_SPACE_KB[rate]
        flops_err = abs(prof.flops_m - PUBLISHED_FLOPS_M[rate]) / PUBLISHED_FLOPS_M[rate]
        ok = ok and space_ok and flops_err <= 0.15
        details.append(f"{rate//1000}k: {prof.flops_m:.2f}M/{prof.space_kb:.0f}kB "
                       f"(d{flops_err*100:+.1f}%)")
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(1, "resource reproduction", ok, "; ".join(details) + f"; {elapsed:.3f}s")


def test_criterion_02_scaling_law():
    rates_khz = np.array(sorted(PUBLISHED_SPACE_KB)) / 1000.0
    profs = [profile(net.default_spec(int(r * 1000))) for r in rates_khz]
    space_kb = np.array([p.space_kb for p in profs])
    slope, intercept = np.polyfit(rates_khz, space_kb, 1)
    flops = np.array([p.flops for p in profs], dtype=np.float64)
    rates = rates_khz * 1000
    origin_slope = float(np.sum(rates * flops) / np.sum(rates * rates))
    residual = float((np.abs(flops - origin_slope * rates) / flops).max())
    ok = 25.0 <= slope <= 40.0 and 100.0 <= intercept <= 160.0 and residual < 0.10
    report(2, "scaling law", ok,
           f"space = {slope:.1f} kB/kHz + {intercept:.1f} kB; "
           f"flops origin-fit residual {residual*100:.2f}%")


def test_criterion_03_gradient_correctness():
    t0 = time.time()
    spec = net.reduced_spec(64)
    worst = max(full_model_fd_check(spec, seed, probes_per_array=6)
                for seed in range(10))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(3, "gradient correctness", ok,
           f"max rel err {worst:.2e} over 10 seeds in {elapsed:.1f}s")


def test_criterion_04_end_to_end_study(study):
    _, _, test_set = study["sets"]
    rep = evalkit.evaluate(study["spec"], study["params"], test_set)
    epochs = len(study["history"])
    elapsed = study["train_elapsed_s"]
    ok = (rep.acc1 >= 0.90 and rep.f1_1 >= 0.85 and rep.acc2 >= 0.90
          and epochs <= 50 and elapsed < 1200)
    report(4, "end-to-end synthetic study", ok,
           f"acc1 {rep.acc1:.4f} f1_1 {rep.f1_1:.4f} acc2 {rep.acc2:.4f} "
           f"({epochs} epochs, {elapsed:.0f}s)")


def test_criterion_05_ablation_ordering(study):
    train_set, val_set, test_set = study["sets"]
    reports = evalkit.ablation(train_set, val_set, test_set, study["spec"], ABLATION_CONFIG)
    dual = reports["dual"].acc2
    ff = reports["feed_forward_only"].acc2
    fb = reports["feedback_only"].acc2
    ok = (dual - ff) >= 0.05 and (dual - fb) >= 0.05
    report(5, "ablation ordering", ok,
           f"dual {dual:.4f} vs ff {ff:.4f} (gap {100*(dual-ff):.1f}) "
           f"and fb {fb:.4f} (gap {100*(dual-fb):.1f})")


def test_extra_study_statistics(study):
    """Generator statistics on the fixed-seed study (not a numbered criterion):
    cough duration means on target, ten users x three environments, and the
    window class counts ordered others >> env >> subject in every split.
    """
    manifest = study["manifest"]
    root = study["root"]
    assert manifest.user_ids() == list(range(10))
    envs = {(e.user_id, e.environment) for e in manifest.entries}
    assert len(envs) == 30

    singles, conts = [], []
    for entry in manifest.entries:
        for seg in synth.read_annotations(root / entry.annotation_path):
            dur = seg.end_s - seg.start_s
            if seg.label == "single_cough_sitting":
                singles.append(dur)
            elif seg.label == "continuous_cough_sitting":
                conts.append(dur)
    single_mean = float(np.mean(singles))
    cont_mean = float(np.mean(conts))
    assert abs(single_mean - 0.384) <= 0.05
    assert abs(cont_mean - 0.796) <= 0.08

    for split_windows in study["sets"]:
        counts = {"subject_cough": 0, "env_cough": 0, "other": 0}
        for lw in split_windows:
            counts[lw.label] += 1
        assert counts["other"] > counts["env_cough"] > counts["subject_cough"]
    print(f"extra       [PASS] study statistics: single mean {single_mean:.4f}, "
          f"continuous mean {cont_mean:.4f}, class ordering holds in all splits")


def test_extra_detect_counts_injected_coughs(study):
    """Continuous detection over one long recording against ground truth.

    Not a numbered criterion: verifies the detector-level contract that ten
    well-separated subject coughs yield 10 +/- 1 merged events, each
    overlapping its annotation.
    """
    rng = np.random.default_rng(33)
    rate = 48000
    n = 60 * rate
    # quiet ambient bed, environment-rendered like the generator's own beds
    bed_mono = synth._background(60.0, rate, rng)[:n]
    audio = synth.render_environment(bed_mono, rng, rate_hz=rate)
    audio *= np.float32(3e-3 / np.sqrt(np.mean(audio[0].astype(np.float64) ** 2)))
    marks = []
    for k in range(10):
        at_s = 3.0 + 5.7 * k
        dur = float(rng.uniform(0.35, 0.75))
        cough = synth.render_subject(
            synth.synth_cough(dur, rate, rng, peak_range=(0.5, 0.9)), rng, rate_hz=rate)
        i0 = round(at_s * rate)
        audio[:, i0:i0 + cough.shape[1]] += cough
        marks.append((at_s, at_s + dur))
    audio += rng.normal(0.0, 2.5e-4, size=audio.shape).astype(np.float32)
    rec = DualChannelRecording(audio, rate)
    rec8 = decimate(rec, 8000)
    events = stream.detect(study["spec"], study["params"], rec8, threshold=0.5)
    overlap_ok = all(
        any(e.start_s < m1 and e.end_s > m0 for m0, m1 in marks) for e in events
    )
    assert 9 <= len(events) <= 11, f"{len(events)} events for 10 coughs"
    assert overlap_ok, "an event matches no injected cough"
    print(f"extra       [PASS] long-recording detection: {len(events)} events "
          f"for 10 injected coughs, all overlapping annotations")


def test_criterion_06_batch_stream_equivalence():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=11)
    detector = stream.StreamingDetector(spec, params, threshold=0.5)
    rng = np.random.default_rng(60)
    mismatches = 0
    for case in range(100):
        n = int(rng.integers(2 * 4000, 8 * 4000))
        rec = DualChannelRecording((0.4 * rng.standard_normal((2, n))).astype(np.float32), 8000)
        batch = stream.detect(spec, params, rec)
        state = detector.new_state()
        streamed = []
        for win in slice_windows(rec):
            state, event = detector.step(state, win)
            if event:
                streamed.append(event)
        _, event = detector.flush(state)
        if event:
            streamed.append(event)
        if streamed != batch:
            mismatches += 1
    report(6, "batch/stream equivalence", mismatches == 0,
           f"{100 - mismatches}/100 recordings identical")


def test_criterion_07_dsp_oracles():
    t = np.arange(48000) / 48000.0
    tone = lambda f: (0.5 * np.sin(2 * np.pi * f * t)).astype(np.float32)

    rec1k = DualChannelRecording(np.stack([tone(1000)] * 2), 48000)
    out = decimate(rec1k, 8000)
    mid = out.data[0, 800:4800].astype(np.float64)
    spectrum = np.abs(np.fft.rfft(mid))
    amp = 2 * spectrum.max() / len(mid)
    tone_ok = abs(amp - 0.5) / 0.5 < 0.01

    rec5k = DualChannelRecording(np.stack([tone(5000)] * 2), 48000)
    out5 = decimate(rec5k, 8000)
    mid5 = out5.data[0, 800:4800].astype(np.float64)
    atten_db = 10 * np.log10((0.5**2 / 2) / max(np.mean(mid5**2), 1e-30))
    alias_ok = atten_db >= 40.0

    rng = np.random.default_rng(7)
    win = slice_windows(DualChannelRecording(
        (0.3 * rng.standard_normal((2, 8000))).astype(np.float32), 8000))[0]
    n1 = normalize(win)
    n2 = normalize(n1)
    idem = float(np.abs(n2.data - n1.data).max())
    norm_ok = idem < 1e-5

    ok = tone_ok and alias_ok and norm_ok
    report(7, "dsp oracles", ok,
           f"1 kHz amp err {abs(amp-0.5)/0.5*100:.3f}%, alias atten "
           f"{atten_db:.1f} dB, normalize idempotence {idem:.2e}")


def test_criterion_08_cli_determinism(tmp_path):
    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    ds = []
    for tag in ("a", "b"):
        out = tmp_path / f"ds_{tag}"
        assert cli_main(["synth", "--out", str(out), "--users", "3",
                         "--seed", "5"]) == 0
        ds.append(out)
    synth_ok = tree(ds[0]) == tree(ds[1])

    models = []
    metrics = []
    for tag in ("a", "b"):
        model = tmp_path / f"model_{tag}.ecn1"
        assert cli_main(["train", "--manifest", str(ds[0] / "manifest.json"),
                         "--rate", "8000", "--out", str(model),
                         "--epochs", "1", "--patience", "1", "--copies", "1",
                         "--seed", "3", "--class-weighting"]) == 0
        models.append(model.read_bytes())
        out_dir = tmp_path / f"metrics_{tag}"
        assert cli_main(["eval", "--manifest", str(ds[0] / "manifest.json"),
                         "--model", str(model), "--out-dir", str(out_dir)]) == 0
        metrics.append((out_dir / "metrics.json").read_bytes())
    train_ok = models[0] == models[1]
    eval_ok = metrics[0] == metrics[1]

    ok = synth_ok and train_ok and eval_ok
    report(8, "determinism of synth/train/eval", ok,
           f"wav tree {'=' if synth_ok else '!='}, ecn1 "
           f"{'=' if train_ok else '!='}, metrics {'=' if eval_ok else '!='}")


def test_criterion_09_serialization(tmp_path):
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=1)
    path = tmp_path / "m.ecn1"
    save_model(spec, params, path)
    spec2, params2 = load_model(path)
    round_ok = spec2 == spec and all(
        a.tobytes() == b.tobytes() for a, b in zip(params, params2))

    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    (tmp_path / "flip.ecn1").write_bytes(bytes(raw))
    errors_ok = True
    try:
        load_model(tmp_path / "flip.ecn1")
        errors_ok = False
    except CrcMismatch:
        pass
    (tmp_path / "trunc.ecn1").write_bytes(path.read_bytes()[:12])
    try:
        load_model(tmp_path / "trunc.ecn1")
        errors_ok = False
    except TruncatedFile:
        pass
    (tmp_path / "magic.ecn1").write_bytes(b"XXXX" + path.read_bytes()[4:])
    try:
        load_model(tmp_path / "magic.ecn1")
        errors_ok = False
    except BadMagic:
        pass

    ok = round_ok and errors_ok
    report(9, "serialization", ok,
           f"round trip {'bit-exact' if round_ok else 'differs'}, "
           f"corruptions {'rejected' if errors_ok else 'accepted'}")


def test_criterion_10_labeling_rule():
    rng = np.random.default_rng(10)
    rec = DualChannelRecording(np.zeros((2, 8 * 8000), np.float32), 8000)
    labels = ["single_cough_sitting", "continuous_cough_sitting",
              "single_cough_walking", "continuous_cough_walking",
              "environmental_cough", "laughing", "reading", "walking"]
    disagreements = 0
    for _ in range(1000):
        anns = []
        for _ in range(int(rng.integers(1, 7))):
            start = float(rng.uniform(0, 7.4))
            anns.append(synth.AnnotatedSegment(
                start, start + float(rng.uniform(0.05, 1.5)),
                str(rng.choice(labels))))
        got = pipeline.label_windows(rec, anns)
        for lw in got:
            start = lw.window.start_s
            if lw.label != brute_force_label(start, start + 0.5, anns):
                disagreements += 1
    report(10, "labeling rule vs brute force", disagreements == 0,
           f"{disagreements} disagreements over 1000 random layouts")
