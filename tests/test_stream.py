"""Event merging, batch/stream equivalence, state discipline."""

import dataclasses
import json

import numpy as np
import pytest

from anccough import net
from anccough.dsp import DualChannelWindow, normalize, slice_windows
from anccough.errors import OutOfOrderWindow, RateMismatch
from anccough.stream import (
    DetectorState,
    StreamingDetector,
    _merge_positive_runs,
    detect,
    events_to_ndjson,
)
from conftest import make_recording, spy_thread_starts

SPEC = net.reduced_spec(64)  # rate 128: fast real-model runs
PARAMS = net.init_params(SPEC, seed=21)


def run_stream(detector, rec):
    state = detector.new_state()
    events = []
    for win in slice_windows(rec):
        state, event = detector.step(state, win)
        if event:
            events.append(event)
    _, event = detector.flush(state)
    if event:
        events.append(event)
    return events


def toy_rec(seed, duration_s=6.0, rate=8000):
    return make_recording(duration_s, rate, seed=seed, scale=0.4)


# --- merge rule on explicit probability sequences ---

def test_merge_rule_example():
    events = _merge_positive_runs([0.9, 0.8, 0.1, 0.7], [0.0, 0.5, 1.0, 1.5],
                                  window_s=0.5, threshold=0.5, gap_tolerance=0)
    assert len(events) == 2
    assert (events[0].start_s, events[0].end_s) == (0.0, 1.0)
    assert events[0].window_count == 2
    assert events[0].mean_confidence == pytest.approx(0.85)
    assert (events[1].start_s, events[1].end_s) == (1.5, 2.0)


def test_merge_rule_never_positive():
    assert _merge_positive_runs([0.1, 0.2], [0.0, 0.5], 0.5, 0.5, 0) == []


def test_merge_rule_gap_tolerance():
    probs = [0.9, 0.1, 0.8, 0.1, 0.1, 0.9]
    starts = [0.5 * i for i in range(6)]
    strict = _merge_positive_runs(probs, starts, 0.5, 0.5, 0)
    assert [e.start_s for e in strict] == [0.0, 1.0, 2.5]
    bridged = _merge_positive_runs(probs, starts, 0.5, 0.5, 1)
    assert [(e.start_s, e.end_s) for e in bridged] == [(0.0, 1.5), (2.5, 3.0)]
    # bridged negatives do not contribute to confidence or count
    assert bridged[0].window_count == 2
    assert bridged[0].mean_confidence == pytest.approx(0.85)


def test_merge_rule_duration_is_multiple_of_window():
    rng = np.random.default_rng(0)
    for _ in range(50):
        probs = list(rng.uniform(0, 1, size=rng.integers(1, 30)))
        starts = [0.5 * i for i in range(len(probs))]
        for event in _merge_positive_runs(probs, starts, 0.5, 0.5, 0):
            k = (event.end_s - event.start_s) / 0.5
            assert abs(k - round(k)) < 1e-9 and round(k) >= 1


def test_threshold_monotonicity():
    rng = np.random.default_rng(1)
    probs = list(rng.uniform(0, 1, size=40))
    starts = [0.5 * i for i in range(40)]
    durations = []
    for thr in (0.3, 0.5, 0.7, 0.9):
        events = _merge_positive_runs(probs, starts, 0.5, thr, 0)
        durations.append(sum(e.end_s - e.start_s for e in events))
    assert all(a >= b for a, b in zip(durations, durations[1:]))


# --- real-model paths ---

def test_detect_rate_mismatch():
    rec = toy_rec(0, rate=8000)
    with pytest.raises(RateMismatch):
        detect(SPEC, PARAMS, rec)


def test_detect_empty_when_threshold_high():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=2)
    rec = toy_rec(1, duration_s=3.0)
    assert detect(spec, params, rec, threshold=1.01) == []


def test_batch_stream_equivalence_randomized():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=3)
    detector = StreamingDetector(spec, params, threshold=0.5)
    for seed in range(10):
        rec = toy_rec(seed, duration_s=4.0)
        assert run_stream(detector, rec) == detect(spec, params, rec)


def test_batch_stream_equivalence_with_gap_tolerance():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=4)
    detector = StreamingDetector(spec, params, threshold=0.5, gap_tolerance=1)
    for seed in range(5):
        rec = toy_rec(100 + seed, duration_s=4.0)
        assert run_stream(detector, rec) == detect(spec, params, rec, gap_tolerance=1)


@pytest.mark.parametrize("duration_s", [0.0, 0.4999])
def test_detect_shorter_than_one_window_is_empty(duration_s):
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=2)
    assert detect(spec, params, toy_rec(3, duration_s=duration_s), threshold=0.0) == []


@pytest.mark.parametrize("gap_tolerance", [0, 1])
def test_batched_detect_equals_the_stepper_across_chunks(gap_tolerance):
    """Scoring over several byte-sized top-level chunks at 48 kHz gives the
    stepper's events exactly, mean confidences included. A top-level chunk
    holds CHUNK_BYTES of the last block's largest activation (the layers
    after the last MaxPool); each earlier block runs in smaller chunks."""
    spec = net.default_spec(48000)
    params = net.init_params(spec, seed=14)
    last_pool = max(i for i, layer in enumerate(spec.layers) if isinstance(layer, net.MaxPool))
    largest = max(int(np.prod(s)) for s in net.activation_shapes(spec)[last_pool + 2:])
    chunk = max(1, net.CHUNK_BYTES // (largest * params[0].dtype.itemsize))
    assert chunk > 1  # block one's chunk is a single window at 48 kHz
    rec = toy_rec(14, duration_s=0.5 * (3 * chunk + 2) + 0.3, rate=48000)
    windows = slice_windows(rec)
    assert len(windows) > 3 * chunk
    probs = [net.forward(spec, params, normalize(w))[0] for w in windows]
    threshold = float(np.median(probs))
    detector = StreamingDetector(spec, params, threshold=threshold, gap_tolerance=gap_tolerance)
    events = detect(spec, params, rec, threshold=threshold, gap_tolerance=gap_tolerance)
    assert events and events == run_stream(detector, rec)


def test_detect_starts_no_thread_at_two_cpus(monkeypatch):
    """The wearer's path scores its chunks on the calling thread, where
    predict_probs over the same windows starts a helper."""
    starts = spy_thread_starts(monkeypatch, {0, 1})
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=15)
    rec = toy_rec(15, duration_s=6.0)  # 12 windows: two chunks at 8 kHz
    x = np.stack([normalize(w).data for w in slice_windows(rec)])
    events = detect(spec, params, rec, threshold=0.0)
    assert [e.window_count for e in events] == [12] and not starts
    net.predict_probs(spec, params, x)
    assert len(starts) == 1 and not starts[0].is_alive()


def test_step_order_check_tolerance():
    """The expected start matches within 1e-6 + 1e-5 * |expected|, as np.isclose."""
    spec = net.reduced_spec(64)
    detector = StreamingDetector(spec, PARAMS)
    state = DetectorState(next_start_s=100.0)
    data = np.zeros(spec.input_shape, np.float32)

    def window(start_s):
        return DualChannelWindow(data, spec.sample_rate_hz, start_s=start_s)

    detector.step(state, window(100.0 + 1.0e-3))  # inside 1e-6 + 1e-3
    for start_s in (100.0 + 1.1e-3, 99.0, float("nan")):
        with pytest.raises(OutOfOrderWindow):
            detector.step(state, window(start_s))


def test_step_advances_expected_start():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=5)
    detector = StreamingDetector(spec, params)
    rec = toy_rec(7, duration_s=2.0)
    wins = slice_windows(rec)
    state = detector.new_state()
    state, _ = detector.step(state, wins[0])
    assert state.next_start_s == pytest.approx(0.5)


def test_out_of_order_window_rejected():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=6)
    detector = StreamingDetector(spec, params)
    rec = toy_rec(8, duration_s=2.0)
    wins = slice_windows(rec)
    state = detector.new_state()
    state, _ = detector.step(state, wins[0])
    with pytest.raises(OutOfOrderWindow):
        detector.step(state, wins[0])


def test_flush_on_silence_returns_initial_state():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=9)
    detector = StreamingDetector(spec, params, threshold=1.01)  # never positive
    rec = toy_rec(9, duration_s=2.0)
    state = detector.new_state()
    for win in slice_windows(rec):
        state, event = detector.step(state, win)
        assert event is None
    flushed, event = detector.flush(state)
    assert event is None
    assert flushed == DetectorState()


def test_state_serialization_and_constant_size():
    """Every state field is a scalar, so the state's size does not grow with
    the stream's length."""
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=10)
    detector = StreamingDetector(spec, params)
    for duration_s in (2.0, 20.0):
        state = detector.new_state()
        for win in slice_windows(toy_rec(10, duration_s=duration_s)):
            state, _ = detector.step(state, win)
        for f in dataclasses.fields(state):
            value = getattr(state, f.name)
            assert value is None or type(value) in (int, float), (f.name, value)


def test_latency_event_emitted_at_first_negative():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=11)
    rec = toy_rec(11, duration_s=5.0)
    detector = StreamingDetector(spec, params, threshold=0.5)
    state = detector.new_state()
    open_run = False
    for win in slice_windows(rec):
        prob = net.forward(spec, params, normalize(win))[0]
        state, event = detector.step(state, win)
        if prob >= 0.5:
            assert event is None
            open_run = True
        elif open_run:
            assert event is not None
            open_run = False


def test_ndjson_format():
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=12)
    rec = toy_rec(12, duration_s=3.0)
    events = detect(spec, params, rec)
    text = events_to_ndjson(events)
    lines = [l for l in text.splitlines() if l]
    assert len(lines) == len(events)
    for line, event in zip(lines, events):
        doc = json.loads(line)
        assert set(doc) == {"start_s", "end_s", "mean_confidence", "window_count"}
        assert doc["start_s"] == event.start_s
