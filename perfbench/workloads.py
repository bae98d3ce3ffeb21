"""The anccough benchmark: one run of one workload.

A workload is one kind of operation, repeated by a single caller in a closed
loop for the run's measuring time, after SETUP_REPS set-ups:

- detect: `anccough detect --out` in-process through `cli.main` on a 48 kHz
  stereo WAV, then the same decimated windows one at a time through
  `StreamingDetector.step`. Set-up ingests, trains the model and builds the WAV.
- train: `pipeline.train` with augmentation, the noise pool, class weighting
  and a fixed epoch count, then `evalkit.evaluate` on the test split. Set-up
  ingests and builds the noise pool.
- ingest: `synth.generate_dataset` into a fresh directory, then
  `pipeline.split_by_user` at 8 kHz. Set-up is one such ingest, whose bytes
  every later one must repeat.

Every workload reports the same end-to-end metrics, each read off its own
operation (see END_TO_END). Each operation checks its outputs, against
`reference` where the network is involved, and counts as failed when a check
fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import time
import traceback
import wave
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import anccough as ac
import anccough.cli  # noqa: F401  (binds ac.cli)
import reference
import spans
import stats

WORKLOADS = ("detect", "train", "ingest")

# (name, unit, better, bound) in report order; BENCHMARK.json's end_to_end list.
# rtf: seconds of audio the operation's bulk call handles per wall second
#   (detect: the WAV through cli.main; train: the windows pipeline.train steps
#   through; ingest: the audio generated, written, reloaded, decimated, labelled).
# ms_per_window: median wall time per window of its per-window pass
#   (detect: one StreamingDetector.step; train: evalkit.evaluate over the test
#   split; ingest: pipeline.split_by_user).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("rtf", "x_realtime", "higher", 0.25),
    ("ms_per_window", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

SETUP_REPS = 3  # set-ups per run; setup_s is their median
TRACED_OPS = 2  # traced operations after the loop of a --trace 1 run

RATE_HZ = 8000
USERS = 2
# user 0 trains; user 1 validates, is the test split, and is the detect WAV
SPLIT = ac.SplitConfig(train_users=(0,), val_users=(1,), test_users=())
EPOCHS = 2
COPIES = 1
POOL_CLIPS = 32
DETECT_EPOCHS = 1  # the detect model's training in set-up, without augmentation

# The generator's own event mix with fewer and shorter events per recording,
# so that a set-up (two users, 60 recordings) can be repeated within one run.
# Every group, environment and sound kind is still rendered.
GENERATOR = ac.GeneratorConfig(
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

# Floor on test acc1 after EPOCHS epochs: below the lowest value over seeds
# 0-39 (0.181) with a margin. Sixteen steps do not train a stable model: seeds
# end anywhere from "everything is a subject cough" (acc1 near 0.2) to
# "nothing is" (f1_1 = 0 on seeds 27 and 36), so f1_1 gets no floor. The
# reference network checks the arithmetic; quality at full training is the
# acceptance suite's job.
ACC1_FLOOR = 0.1

# The detect threshold sits in the widest gap between the reference scores of
# the WAV's windows within this quantile range, so every seed yields events and
# no score lies near the threshold.
DETECT_QUANTILES = (0.6, 0.95)


@dataclass
class Study:
    """What set-up hands to the operations."""

    data_dir: Path
    train: list
    test: list
    pool: list | None = None
    # detect only
    model_path: Path | None = None
    detector: object = None
    wav_path: Path | None = None
    wav_s: float = 0.0
    windows: list | None = None  # the WAV decimated and sliced, for the stepper
    expected: list | None = None  # events from reference.merge_events


class OperationFailed(Exception):
    pass


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    traced: bool
    work: Path

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    op_walls: dict = field(default_factory=lambda: defaultdict(list))  # traced? -> walls
    digest: str | None = None
    first_train: tuple | None = None
    normalized_windows: int = 0
    recorder: spans.Recorder = field(default_factory=spans.Recorder)
    _restore: object = None
    study: Study | None = None

    def __post_init__(self) -> None:
        self.spec = ac.net.default_spec(RATE_HZ)

    # -- tracing ---------------------------------------------------------
    @property
    def is_tracing(self) -> bool:
        return self._restore is not None

    def tracing(self, on: bool) -> None:
        if on and self._restore is None:
            self._restore = spans.instrument(self.recorder, ac)
        elif not on and self._restore is not None:
            self._restore()
            self._restore = None

    def sample(self, name: str, value: float) -> None:
        """Keep a metric sample; traced operations give none."""
        if not self.is_tracing:
            self.samples[name].append(value)

    # -- operations ------------------------------------------------------
    def op(self, kind: str, fn, *args):
        """Run one checked operation; a failed check marks it failed."""
        self.attempted += 1
        op_id = f"{kind}-{self.attempted}"
        self.recorder.run_id = op_id
        problems: list[str] = []
        traced = self.is_tracing
        t0 = time.perf_counter()
        try:
            with self.recorder.span(f"op.{kind}") if traced else contextlib.nullcontext():
                result = fn(self, problems, *args)
        except Exception:  # an operation that raises is a failed operation
            self.failed += 1
            self.problems.append(f"{op_id}: raised\n{traceback.format_exc()}")
            raise OperationFailed(op_id) from None
        if kind == self.workload:
            self.op_walls[traced].append(time.perf_counter() - t0)
        if problems:
            self.failed += 1
            self.problems.extend(f"{op_id}: {p}" for p in problems)
        return result


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def dataset_digest(data_dir: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in data_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(data_dir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _wav_frames(path: Path) -> int:
    # read with the standard library, independently of anccough.wavio
    with wave.open(str(path), "rb") as w:
        return w.getnframes()


def ingest(run: Run, problems: list, out_dir: Path, measure: bool = False):
    """Generate and split one dataset into `out_dir`; check it; returns the splits.

    With `measure` its timings are samples of the ingest workload's metrics.
    """
    t0 = time.perf_counter()
    manifest = ac.synth.generate_dataset(out_dir, n_users=USERS, seed=run.seed, config=GENERATOR)
    t1 = time.perf_counter()
    train, test, _ = ac.split_by_user(manifest, SPLIT, out_dir, RATE_HZ)
    t2 = time.perf_counter()

    frames = [_wav_frames(out_dir / e.wav_path) for e in manifest.entries]
    windows = len(train) + len(test)
    if measure:
        run.sample("rtf", sum(frames) / ac.synth.GENERATOR_RATE_HZ / (t2 - t0))
        run.sample("ms_per_window", 1e3 * (t2 - t1) / windows)

    expected = sum(f // (ac.synth.GENERATOR_RATE_HZ // 2) for f in frames)
    if len(manifest.entries) != USERS * 30:
        problems.append(f"{len(manifest.entries)} manifest entries, want {USERS * 30}")
    if windows != expected:
        problems.append(f"{windows} labelled windows, want {expected}")
    for name, split in (("train", train), ("test", test)):
        labels = {lw.label for lw in split}
        if not labels <= set(ac.pipeline.WINDOW_LABELS) or "subject_cough" not in labels:
            problems.append(f"{name} split labels {sorted(labels)}")
    digest = dataset_digest(out_dir)
    if run.digest is None:
        run.digest = digest
    elif digest != run.digest:
        problems.append("dataset bytes differ from the first ingest of this run")
    return manifest, train, test


def ingest_op(run: Run, problems: list) -> None:
    out_dir = run.work / f"ingest-{run.attempted}"
    try:
        ingest(run, problems, out_dir, measure=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _normalized(windows) -> np.ndarray:
    return np.stack([ac.normalize(w).data for w in windows])


def _binary(labels) -> np.ndarray:
    return np.array([ac.net.CLASS_SUBJECT if lab == "subject_cough" else ac.net.CLASS_OTHER
                     for lab in labels])


def setup(run: Run, problems: list, rep: int) -> Study:
    out_dir = run.work / f"setup-{rep}"
    manifest, train, test = ingest(run, problems, out_dir)
    study = Study(out_dir, train, test)
    if run.workload == "train":
        study.pool = ac.generate_noise_pool(POOL_CLIPS, RATE_HZ, run.seed)
        # the backward pass against a finite difference of the reference forward
        err = reference.gradient_error(run.spec, ac.net.init_params(run.spec, seed=run.seed),
                                       run.seed)
        if not err <= reference.GRAD_TOL:
            problems.append(f"net.loss_and_grads off the reference by {err:.2e} (relative)")
    elif run.workload == "detect":
        setup_detect(run, problems, study, manifest)
    return study


def setup_detect(run: Run, problems: list, study: Study, manifest) -> None:
    """Train the model, join the test user's recordings into the WAV, fix the
    threshold and the events the reference network predicts."""
    cfg = ac.TrainConfig(epochs_max=DETECT_EPOCHS, early_stop_patience=DETECT_EPOCHS + 1,
                         seed=run.seed, class_weighting=True)
    params, _ = ac.pipeline.train(study.train, study.test, run.spec, cfg)
    study.model_path = study.data_dir / "model.ecn1"
    ac.save_model(run.spec, params, study.model_path)

    # every recording of the test user: all ten groups, all three environments
    test_user = SPLIT.val_users[0]
    parts = [ac.wavio.read_wav(study.data_dir / e.wav_path)[0]
             for e in manifest.entries if e.user_id == test_user]
    study.wav_path = study.data_dir / "detect.wav"
    ac.wavio.write_wav(study.wav_path, np.concatenate(parts), ac.synth.GENERATOR_RATE_HZ)
    rec = ac.load_recording(study.wav_path)
    study.wav_s = rec.duration_s
    study.windows = ac.slice_windows(ac.decimate(rec, RATE_HZ))

    ref = reference.forward_probs(run.spec, params, _normalized(study.windows))[:, ac.net.CLASS_SUBJECT]
    lib = np.array([ac.net.forward(run.spec, params, ac.normalize(w))[0] for w in study.windows])
    err = float(np.max(np.abs(lib - ref)))
    if not err <= reference.PROB_TOL:
        problems.append(f"net.forward off the reference by {err:.2e}")
    threshold, gap = detect_threshold(ref)
    if gap <= 4 * reference.PROB_TOL:
        problems.append(f"no threshold clear of the scores: widest gap {gap:.2e}")
    study.detector = ac.StreamingDetector(run.spec, params, threshold=threshold)
    window_s = run.spec.input_len / run.spec.sample_rate_hz
    study.expected = reference.merge_events(ref, [w.start_s for w in study.windows],
                                            window_s, threshold)


def detect_threshold(scores) -> tuple[float, float]:
    """Midpoint of the widest gap between sorted scores within DETECT_QUANTILES,
    and the gap; the windows above it are positive on any correct network."""
    s = np.sort(np.asarray(scores))
    lo, hi = (max(1, int(q * len(s))) for q in DETECT_QUANTILES)
    k = lo + int(np.argmax(np.diff(s[lo - 1:hi])))
    return float((s[k - 1] + s[k]) / 2), float(s[k] - s[k - 1])


# ---------------------------------------------------------------------------
# train (and eval)
# ---------------------------------------------------------------------------

def train_op(run: Run, problems: list) -> None:
    study = run.study
    cfg = ac.TrainConfig(epochs_max=EPOCHS, early_stop_patience=EPOCHS + 1,
                         seed=run.seed, class_weighting=True)
    plan = ac.AugmentPlan(copies_per_clip=COPIES, seed=run.seed)
    t0 = time.perf_counter()
    params, history = ac.pipeline.train(study.train, study.test, run.spec, cfg,
                                        plan=plan, noise_pool=study.pool)
    t1 = time.perf_counter()
    report = ac.evalkit.evaluate(run.spec, params, study.test)
    t2 = time.perf_counter()

    stepped = len(study.train) * (1 + COPIES) * EPOCHS
    run.sample("rtf", stepped * ac.dsp.WINDOW_S / (t1 - t0))
    run.sample("ms_per_window", 1e3 * (t2 - t1) / len(study.test))
    if run.is_tracing:
        # one normalization per window: the augmented training set, validation, test
        run.normalized_windows += len(study.train) * (1 + COPIES) + 2 * len(study.test)

    losses = [row["train_loss"] for row in history]
    if len(history) != EPOCHS:
        problems.append(f"history has {len(history)} epochs, want {EPOCHS}")
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite training loss {losses}")
    if report.acc1 < ACC1_FLOOR:
        problems.append(f"test acc1 {report.acc1:.3f} below the floor {ACC1_FLOOR}")
    if run.first_train is None:
        check_confusion(run, problems, params, report)
        run.first_train = (history, params, report.confusion)
    else:
        # the code does not change within a run: every training repeats the first
        history0, params0, confusion0 = run.first_train
        if history != history0 or not all(np.array_equal(a, b) for a, b in zip(params, params0)):
            problems.append("training differs from the first training of this run")
        if report.confusion != confusion0:
            problems.append(f"confusion {report.confusion} differs from the first {confusion0}")


def check_confusion(run: Run, problems: list, params, report) -> None:
    """The report's confusion matrix against the reference network's predictions.

    A window whose reference score is within PROB_TOL of 0.5 may fall either
    way; each such window may move one count between two cells.
    """
    test = run.study.test
    p = reference.forward_probs(run.spec, params, _normalized([lw.window for lw in test]))
    p = p[:, ac.net.CLASS_SUBJECT]
    pred = p >= 0.5
    truth = _binary([lw.label for lw in test]) == ac.net.CLASS_SUBJECT
    want = ((int(np.sum(truth & pred)), int(np.sum(truth & ~pred))),
            (int(np.sum(~truth & pred)), int(np.sum(~truth & ~pred))))
    ambiguous = int(np.sum(np.abs(p - 0.5) < reference.PROB_TOL))
    moved = sum(abs(a - b) for ra, rb in zip(report.confusion, want) for a, b in zip(ra, rb))
    if moved > 2 * ambiguous:
        problems.append(f"confusion {report.confusion}, the reference network gives {want}")


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def detect_op(run: Run, problems: list) -> None:
    study = run.study
    detector = study.detector
    out = run.work / "events.ndjson"
    argv = ["detect", "--wav", str(study.wav_path), "--model", str(study.model_path),
            "--out", str(out), "--threshold", repr(detector.threshold)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = ac.cli.main(argv)
        t1 = time.perf_counter()
    run.sample("rtf", study.wav_s / (t1 - t0))

    state = detector.new_state()
    events = []
    for window in study.windows:
        t0 = time.perf_counter()
        state, event = detector.step(state, window)
        run.sample("ms_per_window", 1e3 * (time.perf_counter() - t0))
        if event is not None:
            events.append(event)
    _, event = detector.flush(state)
    if event is not None:
        events.append(event)
    if run.is_tracing:
        run.normalized_windows += 2 * len(study.windows)  # cli detect and the stepper

    if code != 0:
        problems.append(f"cli detect exited {code}")
        return
    ndjson = out.read_text(encoding="utf-8")
    if ndjson != ac.stream.events_to_ndjson(events):
        problems.append("cli NDJSON differs from the StreamingDetector fold")
    got = [json.loads(line) for line in ndjson.splitlines()]
    if not events_match(got, study.expected):
        problems.append(f"{len(got)} events differ from the reference network's "
                        f"{len(study.expected)}")
    want = math.floor(study.wav_s / ac.dsp.WINDOW_S)
    if len(study.windows) != want:
        problems.append(f"{len(study.windows)} windows, want floor(duration / 0.5) = {want}")
    if not got:
        problems.append("no detection events")


def events_match(got: list[dict], expected: list[tuple]) -> bool:
    return len(got) == len(expected) and all(
        math.isclose(g["start_s"], s, abs_tol=1e-9) and math.isclose(g["end_s"], e, abs_tol=1e-9)
        and abs(g["mean_confidence"] - c) <= reference.PROB_TOL and g["window_count"] == n
        for g, (s, e, c, n) in zip(got, expected))


OPERATIONS = {"detect": detect_op, "train": train_op, "ingest": ingest_op}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def execute(run: Run) -> None:
    """Set up, run the loop, then the traced operations of a traced run.

    Raises OperationFailed if an operation raised.
    """
    run.work.mkdir(parents=True, exist_ok=True)
    for rep in range(SETUP_REPS):
        if run.study is not None:
            shutil.rmtree(run.study.data_dir, ignore_errors=True)
        t0 = time.perf_counter()
        run.study = run.op("setup", setup, rep)
        run.samples["setup_s"].append(time.perf_counter() - t0)
    operation = OPERATIONS[run.workload]
    start = time.perf_counter()
    while True:  # at least one operation; then none that would likely end past the loop
        run.op(run.workload, operation)
        if time.perf_counter() - start + stats.median(run.op_walls[False]) > run.seconds:
            break
    if run.traced:
        for _ in range(TRACED_OPS):  # each traced operation right after an untraced twin
            run.op(run.workload, operation)
            run.tracing(True)
            run.op(run.workload, operation)
            run.tracing(False)


def end_to_end(run: Run) -> dict[str, float]:
    s = run.samples
    return {
        "setup_s": stats.median(s["setup_s"]),
        "rtf": stats.median(s["rtf"]),
        "ms_per_window": stats.median(s["ms_per_window"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run) -> dict[str, float]:
    pairs = zip(run.op_walls[False][-TRACED_OPS:], run.op_walls[True])
    overhead = stats.median([100.0 * (traced / plain - 1.0) for plain, traced in pairs])
    return spans.layer_metrics(
        run.recorder.spans,
        flops_per_window=ac.profile(run.spec).flops,
        normalized_windows=run.normalized_windows,
        overhead_pct=overhead,
    )


def detail(run: Run) -> dict:
    """Sample counts and percentile reports that go with the metrics."""
    per_window = run.samples["ms_per_window"]
    out = {"samples": {k: len(v) for k, v in run.samples.items()},
           "op_walls": {("traced" if k else "untraced"): v for k, v in run.op_walls.items()}}
    if per_window:
        out["ms_per_window_percentiles"] = {
            "p50": stats.percentile_report(per_window, 50.0),
            "p90": stats.percentile_report(per_window, 90.0),
            "top": stats.top_percentile(per_window),
        }
    return out
