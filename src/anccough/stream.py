"""Continuous detection: one decision per 0.5 s window, merged into events.

Consecutive windows whose subject probability clears the threshold coalesce
into one detection event. A gap tolerance (default 0) lets a run survive that
many negative windows, since back-to-back coughs may straddle a boundary.
The rule is one transition over (state, window start, probability): the
incremental stepper applies it once per window and the batch path folds it
over a whole recording, so both emit the same events. The state has constant
size regardless of stream length.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import net
from .dsp import DualChannelRecording, DualChannelWindow, normalize, slice_windows
from .errors import OutOfOrderWindow, RateMismatch


@dataclass(frozen=True)
class DetectionEvent:
    """A merged run of positive windows."""

    start_s: float
    end_s: float
    mean_confidence: float
    window_count: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def events_to_ndjson(events: list[DetectionEvent]) -> str:
    return "".join(e.to_json() + "\n" for e in events)


@dataclass(frozen=True)
class DetectorState:
    """Constant-size progress record between streaming steps."""

    next_start_s: float | None = None  # expected start of the next window
    run_start_s: float | None = None
    run_end_s: float = 0.0
    run_prob_sum: float = 0.0
    run_count: int = 0
    gap_run: int = 0


def _advance(
    state: DetectorState,
    start_s: float,
    p: float,
    window_s: float,
    threshold: float,
    gap_tolerance: int,
) -> tuple[DetectorState, DetectionEvent | None]:
    """The merge rule: fold one scored window into the run; emits the event a
    negative window past the gap tolerance closes."""
    end_s = start_s + window_s
    if p >= threshold:
        return DetectorState(
            next_start_s=end_s,
            run_start_s=start_s if state.run_start_s is None else state.run_start_s,
            run_end_s=end_s,
            run_prob_sum=state.run_prob_sum + p,
            run_count=state.run_count + 1,
        ), None
    if state.run_start_s is None:
        return replace(state, next_start_s=end_s), None
    if state.gap_run + 1 > gap_tolerance:
        return DetectorState(next_start_s=end_s), _close(state)
    return replace(state, next_start_s=end_s, gap_run=state.gap_run + 1), None


def _close(state: DetectorState) -> DetectionEvent | None:
    """The event of the run open in state, if any."""
    if state.run_start_s is None:
        return None
    return DetectionEvent(state.run_start_s, state.run_end_s,
                          state.run_prob_sum / state.run_count, state.run_count)


def _merge_positive_runs(
    probs: list[float],
    starts: list[float],
    window_s: float,
    threshold: float,
    gap_tolerance: int,
) -> list[DetectionEvent]:
    """Fold the merge rule over a scored recording; the batch form of the stepper."""
    state = DetectorState()
    events: list[DetectionEvent] = []
    for p, start in zip(probs, starts):
        state, event = _advance(state, start, p, window_s, threshold, gap_tolerance)
        if event is not None:
            events.append(event)
    event = _close(state)
    if event is not None:
        events.append(event)
    return events


def detect(
    spec: net.ModelSpec,
    params: list[np.ndarray],
    rec: DualChannelRecording,
    threshold: float = 0.5,
    gap_tolerance: int = 0,
) -> list[DetectionEvent]:
    """Slice, normalize and score a whole recording, merging positive windows.

    The recording must already be at the model's rate; decimate first. All
    windows are scored by `net.forward_batch`, on the calling thread only
    (see net.py: a two-thread burst slows the batch-1 steps that follow it);
    scores do not depend on the batch, so the events are the ones the
    stepper emits window by window.
    """
    if rec.sample_rate_hz != spec.sample_rate_hz:
        raise RateMismatch(
            f"recording at {rec.sample_rate_hz} Hz, model wants {spec.sample_rate_hz}"
        )
    windows = slice_windows(rec)
    if not windows:
        return []
    x = np.stack([normalize(w).data for w in windows])
    probs = net.forward_batch(spec, params, x)[:, net.CLASS_SUBJECT].tolist()
    starts = [w.start_s for w in windows]
    window_s = spec.input_len / spec.sample_rate_hz
    return _merge_positive_runs(probs, starts, window_s, threshold, gap_tolerance)


class StreamingDetector:
    """Incremental form of detect(): feed raw windows in time order.

    Windows are normalized internally, exactly as detect() does, so feeding a
    recording's windows one by one reproduces detect()'s event list verbatim.
    """

    def __init__(
        self,
        spec: net.ModelSpec,
        params: list[np.ndarray],
        threshold: float = 0.5,
        gap_tolerance: int = 0,
    ):
        self.spec = spec
        self.params = params
        self.threshold = threshold
        self.gap_tolerance = gap_tolerance
        self.window_s = spec.input_len / spec.sample_rate_hz

    def new_state(self) -> DetectorState:
        return DetectorState()

    def step(
        self, state: DetectorState, window: DualChannelWindow
    ) -> tuple[DetectorState, DetectionEvent | None]:
        """Score one window; emits an event when a positive run just ended."""
        if window.sample_rate_hz != self.spec.sample_rate_hz:
            raise RateMismatch(
                f"window at {window.sample_rate_hz} Hz, model wants {self.spec.sample_rate_hz}"
            )
        expected = state.next_start_s
        # np.isclose's test (atol 1e-6, rtol 1e-5) in plain floats; NaN fails it
        if expected is not None and not (
            abs(window.start_s - expected) <= 1e-6 + 1e-5 * abs(expected)
        ):
            raise OutOfOrderWindow(
                f"window starts at {window.start_s}, expected {expected}"
            )
        p = net.forward(self.spec, self.params, normalize(window))[0]
        return _advance(state, window.start_s, p, self.window_s, self.threshold,
                        self.gap_tolerance)

    def flush(self, state: DetectorState) -> tuple[DetectorState, DetectionEvent | None]:
        """Close any open run at end of stream; state returns to fresh."""
        return DetectorState(), _close(state)
