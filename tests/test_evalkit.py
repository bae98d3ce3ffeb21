"""Metric arithmetic, invariances of the two metric pairs, resource table."""

import hashlib

import numpy as np
import pytest

from anccough import net
from anccough.errors import EmptyTestSet
from anccough.evalkit import (
    duplicate_channel,
    evaluate,
    report_from_predictions,
    resource_table,
)
from anccough.pipeline import LabeledWindow
from anccough.dsp import slice_windows
from anccough.profile import profile
from anccough.stream import detect, events_to_ndjson
from conftest import make_recording, make_window

RESOURCE = profile(net.default_spec(8000))


def preds(labels, flags):
    return report_from_predictions(labels, np.array(flags, dtype=bool), RESOURCE)


def test_hand_built_confusion():
    labels = ["subject_cough"] * 100 + ["other"] * 900
    flags = [True] * 90 + [False] * 10 + [True] * 10 + [False] * 890
    rep = preds(labels, flags)
    assert rep.confusion == ((90, 10), (10, 890))
    assert rep.acc1 == pytest.approx(0.98)
    assert rep.f1_1 == pytest.approx(0.90)


def test_perfect_predictor_scores_one():
    labels = ["subject_cough", "env_cough", "other", "subject_cough", "env_cough"]
    flags = [lab == "subject_cough" for lab in labels]
    rep = preds(labels, flags)
    assert rep.acc1 == rep.f1_1 == rep.acc2 == rep.f1_2 == 1.0


def test_constant_other_predictor_zero_f1():
    labels = ["subject_cough", "other", "other"]
    rep = preds(labels, [False, False, False])
    assert rep.f1_1 == 0.0
    assert rep.acc1 == pytest.approx(2 / 3)


def test_f1_invariant_to_true_negatives_acc_not():
    labels = ["subject_cough"] * 10 + ["other"] * 10
    flags = [True] * 9 + [False] + [True] * 2 + [False] * 8
    base = preds(labels, flags)
    padded = preds(labels + ["other"] * 50, flags + [False] * 50)
    assert padded.f1_1 == base.f1_1
    assert padded.acc1 != base.acc1


def test_cough_metrics_ignore_other_windows():
    labels = ["subject_cough"] * 5 + ["env_cough"] * 5
    flags = [True, True, True, True, False, True, False, False, False, False]
    base = preds(labels, flags)
    padded = preds(labels + ["other"] * 30, flags + [True] * 30)
    assert padded.acc2 == base.acc2
    assert padded.f1_2 == base.f1_2
    assert padded.confusion_cough_only == base.confusion_cough_only


def test_acc2_counts_env_rejection_as_correct():
    labels = ["subject_cough", "env_cough"]
    rep = preds(labels, [True, False])
    assert rep.confusion_cough_only == ((1, 0), (0, 1))
    assert rep.acc2 == 1.0


def test_evaluate_is_pure_and_rejects_empty():
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=0)
    test_set = [
        LabeledWindow(window=make_window(128, seed=s), label="other")
        for s in range(6)
    ]
    test_set[0].label = "subject_cough"
    a = evaluate(spec, params, test_set)
    b = evaluate(spec, params, test_set)
    assert a == b
    with pytest.raises(EmptyTestSet):
        evaluate(spec, params, [])


def test_report_json_round_trip_fields():
    labels = ["subject_cough", "env_cough", "other"]
    rep = preds(labels, [True, False, False])
    import json

    doc = json.loads(rep.to_json())
    assert doc["acc1"] == 1.0
    assert doc["resource"]["space_bytes"] == RESOURCE.space_bytes
    text = rep.to_text()
    assert "acc2" in text and "confusion" in text


# SHA-256 of a metrics report's JSON followed by a detection NDJSON, both from
# a reduced 8 kHz model on one seeded recording, at a threshold that yields
# several events; moves only if a record's bytes move.
RECORDS_DIGEST = "60c9b03e38d6bc106f7825191a8ef52c900ce87efb72f05f6d91e93d478437d7"


def test_record_bytes_are_pinned():
    spec = net.reduced_spec(4000)
    params = net.init_params(spec, seed=18)
    rec = make_recording(10.0, 8000, seed=18, scale=0.4)
    labels = ("subject_cough", "env_cough", "other")
    test_set = [LabeledWindow(window=w, label=labels[i % 3])
                for i, w in enumerate(slice_windows(rec))]
    report = evaluate(spec, params, test_set, threshold=0.833)
    ndjson = events_to_ndjson(detect(spec, params, rec, threshold=0.833))
    assert ndjson.count("\n") >= 3
    h = hashlib.sha256(report.to_json().encode())
    h.update(ndjson.encode())
    assert h.hexdigest() == RECORDS_DIGEST


def test_duplicate_channel():
    win = make_window(8000, seed=1)
    dup0 = duplicate_channel(win, 0)
    assert np.array_equal(dup0.data[0], win.data[0])
    assert np.array_equal(dup0.data[1], win.data[0])
    dup1 = duplicate_channel(win, 1)
    assert np.array_equal(dup1.data[0], win.data[1])


def test_duplicated_identical_channels_match_dual_forward():
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=4)
    win = make_window(128, seed=2)
    win.data[1] = win.data[0]
    dup = duplicate_channel(win, 0)
    assert net.forward(spec, params, win.data) == net.forward(spec, params, dup.data)


def test_resource_table_rates():
    rows = resource_table((8000, 24000))
    assert rows[0][0] == 8000
    assert rows[1][1].flops > rows[0][1].flops
