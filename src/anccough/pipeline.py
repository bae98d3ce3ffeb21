"""Dataset assembly (windowing, labeling, user-level splits) and training.

Splits are partitioned by user identity so no user's audio crosses the
train/validation/test boundary. Training runs minibatch gradient descent on
the augmented training windows, watches validation F1-1 after every epoch, and
returns the parameters of the best validation epoch (earliest on ties).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import net, wavio
from .augment import AugmentPlan, apply_plan
from .dsp import (
    DualChannelRecording,
    DualChannelWindow,
    decimate,
    load_recording,
    normalize,
    recording_from_frames,
    slice_windows,
)
from .errors import (InvalidSplit, InvalidTrainConfig, NonFiniteLoss, OverlappingUserSets,
                     SingleClassTrainingSet)
from .synth import (
    ENV_COUGH_LABEL,
    SUBJECT_COUGH_LABELS,
    AnnotatedSegment,
    DatasetManifest,
    read_annotations,
)
from .threads import helpers

WINDOW_LABELS = ("subject_cough", "env_cough", "other")

# A window is a cough window if it overlaps a cough segment by at least this
# much: about a third of the mean single-cough duration, so a cough clipped at
# a window edge still labels positive.
OVERLAP_THRESHOLD_S = 0.120

OPTIMIZERS = ("sgd", "momentum", "adam")


@dataclass
class LabeledWindow:
    window: DualChannelWindow
    label: str
    user_id: int = 0


@dataclass(frozen=True)
class SplitConfig:
    """Disjoint user-id sets for train / validation / test."""

    train_users: tuple[int, ...]
    val_users: tuple[int, ...]
    test_users: tuple[int, ...]

    def __post_init__(self) -> None:
        groups = (set(self.train_users), set(self.val_users), set(self.test_users))
        total = sum(len(g) for g in groups)
        union = set().union(*groups)
        if len(union) != total:
            raise OverlappingUserSets("a user id appears in more than one split")

    @property
    def users(self) -> set[int]:
        """Every user id the split names."""
        return set(self.train_users) | set(self.val_users) | set(self.test_users)


def default_split(user_ids: list[int]) -> SplitConfig:
    """The 6/2/2 protocol for ten users, proportional otherwise."""
    users = sorted(user_ids)
    n = len(users)
    if n < 3:
        raise InvalidSplit("need at least 3 users for a train/val/test split")
    if n == 10:
        n_train, n_val = 6, 2
    else:
        n_val = max(1, round(0.2 * n))
        n_train = max(1, n - 2 * n_val)
    return SplitConfig(
        train_users=tuple(users[:n_train]),
        val_users=tuple(users[n_train:n_train + n_val]),
        test_users=tuple(users[n_train + n_val:]),
    )


def label_windows(
    rec: DualChannelRecording,
    annotations: list[AnnotatedSegment],
    user_id: int = 0,
) -> list[LabeledWindow]:
    """Slice a recording and label each window from the annotations.

    A window is subject_cough if it overlaps any subject-cough segment by at
    least OVERLAP_THRESHOLD_S, else env_cough by the same rule against
    environmental-cough segments, else other.
    """
    return _label(slice_windows(rec), annotations, user_id)


def _label(
    windows: list[DualChannelWindow],
    annotations: list[AnnotatedSegment],
    user_id: int,
) -> list[LabeledWindow]:
    subject_segs = [s for s in annotations if s.label in SUBJECT_COUGH_LABELS]
    env_segs = [s for s in annotations if s.label == ENV_COUGH_LABEL]
    out = []
    for win in windows:
        start = win.start_s
        end = start + win.n_samples / win.sample_rate_hz
        if any(s.overlap_s(start, end) >= OVERLAP_THRESHOLD_S for s in subject_segs):
            label = "subject_cough"
        elif any(s.overlap_s(start, end) >= OVERLAP_THRESHOLD_S for s in env_segs):
            label = "env_cough"
        else:
            label = "other"
        out.append(LabeledWindow(window=win, label=label, user_id=user_id))
    return out


# What a helper thread of `load_labeled_windows` reads, decimates and slices
# with: the functions as bound when this module was imported. The calling
# thread goes through the module bindings, which the traced benchmark run
# swaps for span wrappers (see threads.py), so a traced run times the calling
# thread's recordings alone.
_read_wav, _decimate, _slice_windows = wavio.read_wav, decimate, slice_windows


def _helper_load(path: Path) -> DualChannelRecording:
    return recording_from_frames(*_read_wav(path), path)


def _helper_label(rec: DualChannelRecording, annotations: list[AnnotatedSegment],
                  user_id: int) -> list[LabeledWindow]:
    return _label(_slice_windows(rec), annotations, user_id)


def load_labeled_windows(
    manifest: DatasetManifest,
    data_dir: str | Path,
    target_rate_hz: int,
    users: set[int] | None = None,
) -> list[LabeledWindow]:
    """Load, decimate, window and label every manifest entry (optionally filtered).

    Recordings go through a `threads.helpers()` pool: the calling thread
    loads, decimates and labels some, at most one helper thread the others
    (see threads.py), and the windows come back in manifest order, so the
    list is the same for any thread count. With one CPU no thread is started.
    Helpers enter none of this module's bindings (load_recording, decimate,
    label_windows, slice_windows) nor wavio.read_wav, so a function swapped
    into one of them sees the calling thread's recordings only.
    """
    data_dir = Path(data_dir)
    entries = [e for e in manifest.entries if users is None or e.user_id in users]

    def load(entry, read, resample, label) -> list[LabeledWindow]:
        rec = read(data_dir / entry.wav_path)
        if rec.sample_rate_hz != target_rate_hz:
            rec = resample(rec, target_rate_hz)
        annotations = read_annotations(data_dir / entry.annotation_path)
        return label(rec, annotations, entry.user_id)

    def on_caller(entry) -> list[LabeledWindow]:
        return load(entry, load_recording, decimate, label_windows)

    def on_helper(entry) -> list[LabeledWindow]:
        return load(entry, _helper_load, _decimate, _helper_label)

    out = []
    with helpers() as ordered_map:
        for windows in ordered_map(on_caller, entries, on_helper):
            out.extend(windows)
    return out


def check_split_users(manifest: DatasetManifest, config: SplitConfig) -> None:
    """Raise InvalidSplit if the split names a user the manifest does not hold."""
    missing = config.users - set(manifest.user_ids())
    if missing:
        raise InvalidSplit(f"split names users absent from the manifest: {sorted(missing)}")


def split_by_user(
    manifest: DatasetManifest,
    config: SplitConfig,
    data_dir: str | Path,
    target_rate_hz: int,
) -> tuple[list[LabeledWindow], list[LabeledWindow], list[LabeledWindow]]:
    """Window the dataset and route every window to the split owning its user."""
    check_split_users(manifest, config)
    windows = load_labeled_windows(manifest, data_dir, target_rate_hz, users=config.users)
    train = [w for w in windows if w.user_id in set(config.train_users)]
    val = [w for w in windows if w.user_id in set(config.val_users)]
    test = [w for w in windows if w.user_id in set(config.test_users)]
    return train, val, test


@dataclass(frozen=True)
class TrainConfig:
    epochs_max: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    early_stop_patience: int = 5
    seed: int = 0
    class_weighting: bool = False  # inverse-frequency loss weights when true

    def __post_init__(self) -> None:
        if self.epochs_max < 1:
            raise InvalidTrainConfig("epochs_max must be >= 1")
        if self.early_stop_patience < 1:
            raise InvalidTrainConfig("early_stop_patience must be >= 1")
        if self.batch_size < 1:
            raise InvalidTrainConfig("batch_size must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidTrainConfig(f"optimizer must be one of {OPTIMIZERS}")


def _binary_label(label: str) -> int:
    # two-way head: environmental coughs train as "other"
    return net.CLASS_SUBJECT if label == "subject_cough" else net.CLASS_OTHER


def _binary_scores(truth: np.ndarray, pred: np.ndarray):
    """Confusion ((tp, fn), (fp, tn)), accuracy and F1 of boolean predictions
    against boolean truth. Each score is integer counts divided once, or 0.0
    where its denominator is 0."""
    tp = int(np.sum(truth & pred))
    fn = int(np.sum(truth & ~pred))
    fp = int(np.sum(~truth & pred))
    tn = int(np.sum(~truth & ~pred))
    total = tp + fn + fp + tn
    acc = (tp + tn) / total if total else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return ((tp, fn), (fp, tn)), acc, f1


MOMENTUM = 0.9  # velocity decay of the "momentum" optimizer


class _Optimizer:
    """SGD, classical momentum, or adaptive-moment updates."""

    def __init__(self, kind: str, lr: float, params: list[np.ndarray]):
        self.kind = kind
        self.lr = lr
        self.t = 0
        if kind in ("momentum", "adam"):
            self.m = [np.zeros_like(p) for p in params]
        if kind == "adam":
            self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        if self.kind == "sgd":
            for p, g in zip(params, grads):
                p -= self.lr * g
        elif self.kind == "momentum":
            for p, g, m in zip(params, grads, self.m):
                m *= MOMENTUM
                m += g
                p -= self.lr * m
        else:  # adam
            b1, b2, eps = 0.9, 0.999, 1e-8
            for p, g, m, v in zip(params, grads, self.m, self.v):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * np.square(g)
                m_hat = m / (1 - b1 ** self.t)
                v_hat = v / (1 - b2 ** self.t)
                p -= (self.lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype)


def _stack_normalized(windows: list[DualChannelWindow]) -> np.ndarray:
    return np.stack([normalize(w).data for w in windows])


def train(
    train_set: list[LabeledWindow],
    val_set: list[LabeledWindow],
    spec: net.ModelSpec,
    cfg: TrainConfig,
    plan: AugmentPlan | None = None,
    noise_pool=None,
    checkpoint_dir: str | Path | None = None,
) -> tuple[list[np.ndarray], list[dict]]:
    """Fit the detector; returns best-validation-epoch parameters and history.

    Augmentation (when a plan is given) expands the training windows once,
    before the epoch loop, and only ever touches the training split. History
    holds one row per epoch: epoch, train_loss, val_acc1, val_f1_1.
    """
    if not train_set or not val_set:
        raise InvalidSplit("train and validation sets must be nonempty")
    y_train_labels = [lw.label for lw in train_set]
    binary = {_binary_label(l) for l in y_train_labels}
    if len(binary) < 2:
        raise SingleClassTrainingSet("training set must contain both classes")

    windows = [lw.window for lw in train_set]
    if plan is not None:
        aug_windows = apply_plan(windows, plan, noise_pool)
        per = 1 + plan.copies_per_clip
        aug_labels = [lab for lab in y_train_labels for _ in range(per)]
    else:
        aug_windows = windows
        aug_labels = y_train_labels

    x = _stack_normalized(aug_windows)
    y = np.array([_binary_label(l) for l in aug_labels], dtype=np.int64)
    x_val = _stack_normalized([lw.window for lw in val_set])
    val_subject = np.array([_binary_label(lw.label) == net.CLASS_SUBJECT for lw in val_set])

    if cfg.class_weighting:
        counts = np.bincount(y, minlength=2).astype(np.float64)
        class_w = len(y) / (2.0 * np.maximum(counts, 1))
        sample_w = class_w[y]
    else:
        sample_w = None

    params = net.init_params(spec, seed=cfg.seed)
    optimizer = _Optimizer(cfg.optimizer, cfg.learning_rate, params)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])

    history: list[dict] = []
    best_f1 = -1.0
    best_params = copy.deepcopy(params)
    epochs_without_improvement = 0

    for epoch in range(1, cfg.epochs_max + 1):
        order = shuffle_rng.permutation(len(x))
        total_loss = 0.0
        for i in range(0, len(order), cfg.batch_size):
            idx = order[i:i + cfg.batch_size]
            batch_w = sample_w[idx] if sample_w is not None else None
            loss, grads = net.loss_and_grads(spec, params, x[idx], y[idx], batch_w)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss diverged at epoch {epoch}")
            optimizer.step(params, grads)
            total_loss += loss * len(idx)
        train_loss = total_loss / len(order)

        probs = net.predict_probs(spec, params, x_val)
        _, val_acc1, val_f1 = _binary_scores(val_subject, probs[:, net.CLASS_SUBJECT] >= 0.5)
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_acc1": val_acc1, "val_f1_1": val_f1})

        if checkpoint_dir is not None:
            from .model_io import save_model
            save_model(spec, params, Path(checkpoint_dir) / f"epoch{epoch:03d}.ecn1")

        if val_f1 > best_f1:
            best_f1 = val_f1
            best_params = copy.deepcopy(params)
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= cfg.early_stop_patience:
                break

    return best_params, history


def history_to_csv(history: list[dict]) -> str:
    lines = ["epoch,train_loss,val_acc1,val_f1_1"]
    for row in history:
        lines.append(
            f"{row['epoch']},{row['train_loss']:.6f},{row['val_acc1']:.6f},{row['val_f1_1']:.6f}"
        )
    return "\n".join(lines) + "\n"
