"""Labeling, splitting, and training-loop tests."""

import hashlib
import importlib.util
import os
import re
import struct
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from anccough import net, pipeline, wavio
from anccough.dsp import DualChannelWindow
from anccough.errors import MalformedHeader, OverlappingUserSets, SingleClassTrainingSet
from anccough.evalkit import evaluate
from anccough.pipeline import (
    OVERLAP_THRESHOLD_S,
    LabeledWindow,
    SplitConfig,
    TrainConfig,
    default_split,
    label_windows,
    split_by_user,
    train,
)
from anccough.synth import AnnotatedSegment, DatasetManifest, ManifestEntry
from conftest import make_recording


def seg(start, end, label="single_cough_sitting"):
    return AnnotatedSegment(start_s=start, end_s=end, label=label)


# --- labeling rule ---

def test_label_windows_overlap_rule():
    rec = make_recording(2.0, 8000, seed=0)
    wins = label_windows(rec, [seg(1.0, 1.4)])
    by_start = {round(w.window.start_s, 3): w.label for w in wins}
    assert by_start[1.0] == "subject_cough"  # overlap 400 ms
    assert by_start[0.5] == "other"

    wins = label_windows(rec, [seg(1.45, 1.80)])
    by_start = {round(w.window.start_s, 3): w.label for w in wins}
    assert by_start[1.0] == "other"  # overlap 50 ms < 120 ms
    assert by_start[1.5] == "subject_cough"  # overlap 300 ms


def test_label_windows_env_and_precedence():
    rec = make_recording(1.5, 8000, seed=1)
    anns = [seg(0.0, 0.45, "environmental_cough"), seg(0.55, 1.0)]
    wins = label_windows(rec, anns)
    assert wins[0].label == "env_cough"
    assert wins[1].label == "subject_cough"  # subject rule wins over env

    both = [seg(0.0, 0.3, "environmental_cough"), seg(0.3, 0.5)]
    wins = label_windows(rec, both)
    assert wins[0].label == "subject_cough"


def brute_force_label(start, end, annotations):
    """Independent re-statement of the rule: scan segments one by one."""
    best_subject = 0.0
    best_env = 0.0
    for s in annotations:
        overlap = min(s.end_s, end) - max(s.start_s, start)
        if overlap <= 0:
            continue
        if s.label in ("single_cough_sitting", "continuous_cough_sitting",
                       "single_cough_walking", "continuous_cough_walking"):
            best_subject = max(best_subject, overlap)
        elif s.label == "environmental_cough":
            best_env = max(best_env, overlap)
    if best_subject >= OVERLAP_THRESHOLD_S:
        return "subject_cough"
    if best_env >= OVERLAP_THRESHOLD_S:
        return "env_cough"
    return "other"


def test_label_windows_matches_brute_force_on_random_layouts():
    rng = np.random.default_rng(99)
    rec = make_recording(6.0, 8000, seed=2)
    labels = ["single_cough_sitting", "continuous_cough_walking",
              "environmental_cough", "laughing"]
    for _ in range(200):
        anns = []
        for _ in range(rng.integers(1, 6)):
            start = float(rng.uniform(0, 5.5))
            anns.append(seg(start, start + float(rng.uniform(0.05, 1.2)),
                            str(rng.choice(labels))))
        got = label_windows(rec, anns)
        for lw in got:
            start = lw.window.start_s
            assert lw.label == brute_force_label(start, start + 0.5, anns)


# --- splits ---

def test_split_config_rejects_overlap():
    with pytest.raises(OverlappingUserSets):
        SplitConfig((0, 1), (1,), (2,))


def test_default_split_ten_users_is_622():
    cfg = default_split(list(range(10)))
    assert len(cfg.train_users) == 6
    assert len(cfg.val_users) == 2
    assert len(cfg.test_users) == 2


def test_split_by_user_partitions(small_dataset):
    root, manifest = small_dataset
    cfg = SplitConfig((0,), (1,), ())
    tr, va, te = split_by_user(manifest, cfg, root, 8000)
    assert te == []
    assert {w.user_id for w in tr} == {0}
    assert {w.user_id for w in va} == {1}
    assert len(tr) > 0 and len(va) > 0


def test_split_by_user_unknown_user(small_dataset):
    root, manifest = small_dataset
    with pytest.raises(ValueError):
        split_by_user(manifest, SplitConfig((0,), (1,), (5,)), root, 8000)


# SHA-256 of split_by_user over the small dataset, by target rate (see
# `splits_digest`).
LABELED_WINDOWS_DIGESTS = {
    8000: "d0ad5143322839701a5c2326e2e8542316794a8507b6e69fb20d2471f6ec213e",
    16000: "7e82f63e36fc1fe0cd6e340646172b1e91b3779480ce405dca3b15626ac64850",
    48000: "7a0f14ef2832d2d33c9beffba2235c9c7e2f89c8062fa6c350138c5f0f7de290",
}


def splits_digest(splits) -> str:
    """SHA-256 over every window of the splits, in order: its data bytes,
    start_s, rate, label and user id."""
    h = hashlib.sha256()
    for split in splits:
        for lw in split:
            h.update(lw.window.data.tobytes())
            h.update(struct.pack("<dq", lw.window.start_s, lw.window.sample_rate_hz))
            h.update(lw.label.encode() + b"\0")
            h.update(struct.pack("<q", lw.user_id))
    return h.hexdigest()


@pytest.mark.parametrize("rate", sorted(LABELED_WINDOWS_DIGESTS))
def test_labeled_windows_digest(small_dataset, rate):
    root, manifest = small_dataset
    splits = split_by_user(manifest, default_split(manifest.user_ids()), root, rate)
    assert splits_digest(splits) == LABELED_WINDOWS_DIGESTS[rate]


# --- loading on threads ---

@pytest.mark.parametrize("threads", [1, 2, 3])
def test_labeled_windows_do_not_depend_on_the_thread_count(small_dataset, monkeypatch, threads):
    root, manifest = small_dataset
    monkeypatch.setattr(pipeline, "thread_count", lambda: threads)
    before = threading.active_count()
    splits = split_by_user(manifest, default_split(manifest.user_ids()), root, 8000)
    assert threading.active_count() == before
    assert splits_digest(splits) == LABELED_WINDOWS_DIGESTS[8000]


def test_a_traced_load_on_two_threads_closes_every_span_in_order(small_dataset, monkeypatch):
    """The benchmark's span recorder keeps one open-span stack per process, so
    only the calling thread may enter a binding it wraps."""
    import anccough
    import anccough.cli  # noqa: F401  (the recorder wraps cli bindings too)

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    root, manifest = small_dataset
    monkeypatch.setattr(pipeline, "thread_count", lambda: 2)
    recorder = spans.Recorder()
    restore = spans.instrument(recorder, anccough)
    try:
        splits = split_by_user(manifest, default_split(manifest.user_ids()), root, 8000)
    finally:
        restore()
    assert splits_digest(splits) == LABELED_WINDOWS_DIGESTS[8000]
    loads = [s for s in recorder.spans if s.name == "dsp.load_recording"]
    assert len(loads) == (len(manifest.entries) + 1) // 2  # the calling thread's share


@pytest.mark.parametrize("cpus,started", [({0}, 0), ({0, 1}, 1), ({0, 1, 2, 3}, 1)])
def test_threads_started_per_split(small_dataset, monkeypatch, cpus, started):
    """One helper at most per load, none at one CPU, none alive after."""
    root, manifest = small_dataset
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    starts = []
    start = threading.Thread.start

    def spy_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    split_by_user(manifest, SplitConfig((0,), (), ()), root, 8000)
    assert len(starts) == started
    assert not any(t.is_alive() for t in starts)


def tiny_dataset(root, n_entries: int) -> DatasetManifest:
    """Silent one-second 8 kHz recordings, one per user, each with a cough."""
    entries = []
    for user in range(n_entries):
        wavio.write_wav(root / f"u{user}.wav", np.zeros((8000, 2), np.float32), 8000)
        (root / f"u{user}.tsv").write_text("0.100000\t0.400000\tsingle_cough_sitting\n")
        entries.append(ManifestEntry(f"u{user}.wav", f"u{user}.tsv", user, "quiet", "sitting"))
    return DatasetManifest(tuple(entries), seed=0)


@pytest.mark.parametrize("truncated", [2, 3])  # T = 2: the caller's, then the helper's
def test_a_truncated_wav_names_its_file_and_leaves_no_thread(tmp_path, monkeypatch, truncated):
    manifest = tiny_dataset(tmp_path, 6)
    bad = tmp_path / f"u{truncated}.wav"
    bad.write_bytes(bad.read_bytes()[:1000])
    monkeypatch.setattr(pipeline, "thread_count", lambda: 2)
    before = threading.active_count()
    with pytest.raises(MalformedHeader, match=f"^{re.escape(str(bad))}: "):
        pipeline.load_labeled_windows(manifest, tmp_path, 8000)
    assert threading.active_count() == before


def test_split_locality(small_dataset):
    root, manifest = small_dataset
    full = split_by_user(manifest, SplitConfig((0,), (), (1,)), root, 8000)
    reduced = split_by_user(manifest, SplitConfig((0,), (), ()), root, 8000)
    assert len(reduced[0]) == len(full[0])
    assert reduced[2] == []


# --- training ---

def toy_set(n_per_class, rate=128, seed=0):
    """Burst-envelope toy problem on the reduced input size.

    Positive windows carry a loud centered burst over a quiet floor; negatives
    are flat noise. The envelope contrast survives per-window normalization.
    """
    rng = np.random.default_rng(seed)
    out = []
    length = rate // 2
    for i in range(n_per_class * 2):
        data = 0.05 * rng.standard_normal((2, length)).astype(np.float32)
        if i % 2 == 0:
            lo = length // 2 - length // 8 + int(rng.integers(-4, 5))
            data[:, lo:lo + length // 4] += rng.standard_normal(length // 4).astype(np.float32)
            label = "subject_cough"
        else:
            label = "other"
        win = DualChannelWindow(data=data, sample_rate_hz=rate)
        out.append(LabeledWindow(window=win, label=label, user_id=i % 4))
    return out


def test_train_learns_separable_toy_problem():
    spec = net.reduced_spec(64)
    data = toy_set(40, seed=1)
    cfg = TrainConfig(epochs_max=30, batch_size=16, learning_rate=3e-3,
                      early_stop_patience=30, seed=0)
    params, history = train(data, data, spec, cfg)
    assert history[-1]["val_acc1"] >= 0.99 or max(h["val_acc1"] for h in history) >= 0.99


def test_train_single_class_rejected():
    spec = net.reduced_spec(64)
    data = [lw for lw in toy_set(10) if lw.label == "other"]
    cfg = TrainConfig(epochs_max=2, seed=0)
    with pytest.raises(SingleClassTrainingSet):
        train(data, data, spec, cfg)


def test_train_patience_stops_early():
    spec = net.reduced_spec(64)
    data = toy_set(10, seed=2)
    # learning_rate 0: no improvement is possible after epoch 1's baseline
    cfg = TrainConfig(epochs_max=10, learning_rate=0.0, early_stop_patience=1, seed=0)
    _, history = train(data, data, spec, cfg)
    assert len(history) == 2  # epoch 1 sets the best; epoch 2 triggers patience


def test_train_deterministic():
    spec = net.reduced_spec(64)
    data = toy_set(12, seed=3)
    cfg = TrainConfig(epochs_max=3, early_stop_patience=3, seed=5)
    p1, h1 = train(data, data, spec, cfg)
    p2, h2 = train(data, data, spec, cfg)
    assert h1 == h2
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))


def test_train_restores_best_epoch(tmp_path):
    spec = net.reduced_spec(64)
    data = toy_set(16, seed=4)
    ckpt = tmp_path / "ckpts"
    ckpt.mkdir()
    cfg = TrainConfig(epochs_max=6, early_stop_patience=6, seed=1)
    params, history = train(data, data, spec, cfg, checkpoint_dir=ckpt)
    best_epoch = max(history, key=lambda r: (r["val_f1_1"], -r["epoch"]))["epoch"]
    from anccough.model_io import load_model

    _, best_ckpt = load_model(ckpt / f"epoch{best_epoch:03d}.ecn1")
    assert all(np.array_equal(a, b) for a, b in zip(params, best_ckpt))


def test_validation_scores_match_evaluate():
    """The best epoch's history row scores its parameters exactly as
    evalkit.evaluate scores them on the same windows."""
    spec = net.reduced_spec(64)
    # environmental coughs are negatives in both
    val_set = [replace(lw, label="env_cough") if i % 4 == 1 else lw
               for i, lw in enumerate(toy_set(12, seed=7))]
    cfg = TrainConfig(epochs_max=8, batch_size=8, learning_rate=3e-3,
                      early_stop_patience=8, seed=3)
    params, history = train(toy_set(16, seed=6), val_set, spec, cfg)
    best = max(history, key=lambda r: (r["val_f1_1"], -r["epoch"]))
    assert best is not history[-1]  # the restored parameters are not the last epoch's
    report = evaluate(spec, params, val_set)
    assert (best["val_acc1"], best["val_f1_1"]) == (report.acc1, report.f1_1)


def test_train_optimizers_run():
    spec = net.reduced_spec(64)
    data = toy_set(8, seed=6)
    for opt in ("sgd", "momentum", "adam"):
        cfg = TrainConfig(epochs_max=2, early_stop_patience=2, optimizer=opt, seed=0)
        params, history = train(data, data, spec, cfg)
        assert len(history) == 2


def test_history_csv_format():
    rows = [{"epoch": 1, "train_loss": 0.5, "val_acc1": 0.9, "val_f1_1": 0.8}]
    text = pipeline.history_to_csv(rows)
    assert text.splitlines()[0] == "epoch,train_loss,val_acc1,val_f1_1"
    assert text.splitlines()[1].startswith("1,0.5")
