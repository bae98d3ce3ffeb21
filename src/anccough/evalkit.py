"""Window-level detection metrics, the channel ablation protocol, and the
resource table.

Two metric pairs are reported. Acc-1/F1-1 score subject coughs against
everything else on the full test set. Acc-2/F1-2 restrict the test set to the
two cough classes and measure subject-awareness: an environmental cough
predicted "other" counts as a correct rejection.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace as dc_replace

import numpy as np

from . import net, pipeline
from .dsp import SUPPORTED_RATES
from .errors import EmptyTestSet
from .profile import ResourceProfile, profile


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts and both metric pairs, plus the variant's resources.

    Confusion layout: rows are truth, columns are prediction, class order
    (subject_cough, other). confusion_cough_only uses truth rows
    (subject_cough, env_cough) with the same prediction columns.
    """

    confusion: tuple[tuple[int, int], tuple[int, int]]
    acc1: float
    f1_1: float
    confusion_cough_only: tuple[tuple[int, int], tuple[int, int]]
    acc2: float
    f1_2: float
    resource: ResourceProfile

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        (tp, fn), (fp, tn) = self.confusion
        (tp2, fn2), (fp2, tn2) = self.confusion_cough_only
        lines = [
            "metric          value",
            f"acc1            {self.acc1:8.4f}",
            f"f1_1            {self.f1_1:8.4f}",
            f"acc2            {self.acc2:8.4f}",
            f"f1_2            {self.f1_2:8.4f}",
            "",
            "confusion (rows truth subject/other, cols pred subject/other)",
            f"  {tp:7d} {fn:7d}",
            f"  {fp:7d} {tn:7d}",
            "confusion, cough classes only (rows truth subject/env)",
            f"  {tp2:7d} {fn2:7d}",
            f"  {fp2:7d} {tn2:7d}",
            "",
            f"flops           {self.resource.flops}",
            f"space_bytes     {self.resource.space_bytes}",
        ]
        return "\n".join(lines) + "\n"


def report_from_predictions(
    labels: list[str],
    pred_subject: np.ndarray,
    resource: ResourceProfile,
) -> MetricsReport:
    """Build the report from 3-class truth labels and binary predictions."""
    truth = np.array(labels)
    pred = np.asarray(pred_subject, dtype=bool)

    is_subject = truth == "subject_cough"
    confusion, acc1, f1_1 = pipeline._binary_scores(is_subject, pred)
    # task 2 scores the cough windows only: subject against environmental
    cough = is_subject | (truth == "env_cough")
    confusion2, acc2, f1_2 = pipeline._binary_scores(is_subject[cough], pred[cough])

    return MetricsReport(
        confusion=confusion,
        acc1=acc1,
        f1_1=f1_1,
        confusion_cough_only=confusion2,
        acc2=acc2,
        f1_2=f1_2,
        resource=resource,
    )


def evaluate(
    spec: net.ModelSpec,
    params: list[np.ndarray],
    test_set: list[pipeline.LabeledWindow],
    threshold: float = 0.5,
) -> MetricsReport:
    """Single deterministic pass over the test windows."""
    if not test_set:
        raise EmptyTestSet("evaluation needs at least one labeled window")
    x = pipeline._stack_normalized([lw.window for lw in test_set])
    probs = net.predict_probs(spec, params, x)
    pred_subject = probs[:, net.CLASS_SUBJECT] >= threshold
    return report_from_predictions([lw.label for lw in test_set], pred_subject, profile(spec))


ABLATION_VARIANTS = ("dual", "feed_forward_only", "feedback_only")


def duplicate_channel(window, channel: int):
    """A window with one mic channel copied into both input rows."""
    data = np.stack([window.data[channel], window.data[channel]])
    return dc_replace(window, data=data)


def _pick_channel(windows: list[pipeline.LabeledWindow], channel: int) -> list[pipeline.LabeledWindow]:
    return [dc_replace(lw, window=duplicate_channel(lw.window, channel)) for lw in windows]


def ablation(
    train_set: list[pipeline.LabeledWindow],
    val_set: list[pipeline.LabeledWindow],
    test_set: list[pipeline.LabeledWindow],
    spec: net.ModelSpec,
    cfg: pipeline.TrainConfig,
    plan=None,
    noise_pool=None,
) -> dict[str, MetricsReport]:
    """Train and evaluate dual-channel and both single-channel variants.

    Single-channel variants feed one microphone into both input rows, keeping
    the parameter count and architecture identical, so any score change comes
    from the missing inter-channel information alone.
    """
    reports = {}
    for variant in ABLATION_VARIANTS:
        if variant == "dual":
            tr, va, te, pool = train_set, val_set, test_set, noise_pool
        else:
            channel = 0 if variant == "feed_forward_only" else 1
            tr = _pick_channel(train_set, channel)
            va = _pick_channel(val_set, channel)
            te = _pick_channel(test_set, channel)
            pool = None
            if noise_pool is not None:
                pool = [duplicate_channel(c, channel) for c in noise_pool]
        params, _ = pipeline.train(tr, va, spec, cfg, plan=plan, noise_pool=pool)
        reports[variant] = evaluate(spec, params, te)
    return reports


def resource_table(rates=SUPPORTED_RATES) -> list[tuple[int, ResourceProfile]]:
    """One resource profile per default spec variant."""
    return [(rate, profile(net.default_spec(rate))) for rate in rates]


def resource_table_csv(rates=SUPPORTED_RATES) -> str:
    """CSV with one row per rate: rate_khz, flops_m, space_kb."""
    lines = ["rate_khz,flops_m,space_kb"]
    for rate, prof in resource_table(rates):
        lines.append(f"{rate // 1000},{prof.flops_m:.2f},{prof.space_kb:.1f}")
    return "\n".join(lines) + "\n"
