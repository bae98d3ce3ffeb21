"""Span recorder for the traced run.

Spans are recorded from outside the library: `instrument` swaps each public
function listed in `_targets` for a wrapper at the place its callers look it up
(a module attribute or a class attribute), and `restore` puts the originals
back. Each span keeps its name, start, end, parent span and the id of the
benchmark operation it belongs to, plus a work count taken from the call's
arguments or result. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the recorder, -1 for a root
    run_id: str
    units: float = 0.0  # work count: windows, samples, bytes, recordings

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one process; single-threaded like the library."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run_id = ""

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int, units: float = 0.0) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.units = units
        if self._open.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn: Callable, name: str, units: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            self.end(idx, float(units(args, kwargs, result)) if units else 0.0)
            return result

        return traced

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the library is single-threaded), so
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _file_bytes(path_arg) -> float:
    return float(os.path.getsize(path_arg))


def _targets(ac) -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, work count) for every wrapped binding.

    A function imported by name is bound once per importing module, so each
    of those bindings is wrapped; all of them record under the one span name
    of the function's home module.
    """
    stereo_samples = lambda a, k, r: 2 * len(a[0])  # noqa: E731
    return [
        (ac.cli, "cmd_detect", "cli.detect", None),
        (ac.cli, "load_model", "model_io.load_model", None),
        (ac.cli, "load_recording", "dsp.load_recording", None),
        (ac.pipeline, "load_recording", "dsp.load_recording", None),
        (ac.cli, "decimate", "dsp.decimate", stereo_samples),
        (ac.pipeline, "decimate", "dsp.decimate", stereo_samples),
        (ac.augment, "decimate", "dsp.decimate", stereo_samples),
        (ac.stream, "normalize", "dsp.normalize", None),
        (ac.pipeline, "normalize", "dsp.normalize", None),
        (ac.augment, "normalize", "dsp.normalize", None),
        (ac.stream, "slice_windows", "dsp.slice_windows", lambda a, k, r: len(r)),
        (ac.pipeline, "slice_windows", "dsp.slice_windows", lambda a, k, r: len(r)),
        (ac.augment, "slice_windows", "dsp.slice_windows", lambda a, k, r: len(r)),
        (ac.wavio, "read_wav", "wavio.read_wav", lambda a, k, r: _file_bytes(a[0])),
        (ac.wavio, "write_wav", "wavio.write_wav", lambda a, k, r: _file_bytes(a[0])),
        (ac.net, "forward", "net.forward", lambda a, k, r: 1),
        (ac.net, "predict_probs", "net.predict_probs", lambda a, k, r: len(a[2])),
        (ac.net, "loss_and_grads", "net.loss_and_grads", lambda a, k, r: len(a[2])),
        (ac.synth, "generate_dataset", "synth.generate_dataset", lambda a, k, r: len(r.entries)),
        (ac.pipeline, "apply_plan", "augment.apply_plan",
         lambda a, k, r: len(a[0]) * a[1].copies_per_clip),
        (ac.pipeline, "label_windows", "pipeline.label_windows", lambda a, k, r: len(r)),
        (ac.pipeline, "train", "pipeline.train", None),
        (ac.evalkit, "evaluate", "evalkit.evaluate", lambda a, k, r: len(a[2])),
        (ac.stream, "detect", "stream.detect", lambda a, k, r: len(r)),
        (ac.stream.StreamingDetector, "step", "stream.step", None),
    ]


SPAN_NAMES = (
    "cli.detect", "model_io.load_model", "dsp.load_recording", "dsp.decimate",
    "dsp.normalize", "dsp.slice_windows", "wavio.read_wav", "wavio.write_wav",
    "net.forward", "net.predict_probs", "net.loss_and_grads", "synth.generate_dataset",
    "augment.apply_plan", "pipeline.label_windows", "pipeline.train", "evalkit.evaluate",
    "stream.detect", "stream.step",
)


def instrument(recorder: Recorder, ac) -> Callable[[], None]:
    """Wrap every target binding of the `anccough` package `ac`; returns the undo."""
    saved = []
    for owner, attr, name, units in _targets(ac):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, name, units))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit, better) in report order; BENCHMARK.json's per_layer list is this.
PER_LAYER = (
    ("net.loss_and_grads.p50_ms", "ms", "lower"),
    ("net.loss_and_grads.share", "ratio", "lower"),
    ("net.forward.p50_ms", "ms", "lower"),
    ("net.forward.gflops", "GFLOP/s", "higher"),
    ("net.predict_probs.ms_per_window", "ms", "lower"),
    ("net.predict_probs.gflops", "GFLOP/s", "higher"),
    ("dsp.decimate.msamples_per_s", "Msamples/s", "higher"),
    ("dsp.decimate.share", "ratio", "lower"),
    ("dsp.normalize.calls_per_window", "ratio", "lower"),
    ("dsp.normalize.busy_s", "s", "lower"),
    ("dsp.slice_windows.busy_s", "s", "lower"),
    ("wavio.read_wav.mb_per_s", "MB/s", "higher"),
    ("wavio.write_wav.mb_per_s", "MB/s", "higher"),
    ("synth.self_ms_per_recording", "ms", "lower"),
    ("augment.apply_plan.ms_per_copy", "ms", "lower"),
    ("pipeline.label_windows.busy_s", "s", "lower"),
    ("pipeline.train.self_s", "s", "lower"),
    ("evalkit.evaluate.self_s", "s", "lower"),
    ("stream.detect.self_s", "s", "lower"),
    ("stream.step.self_p50_ms", "ms", "lower"),
    ("stream.events", "count", "higher"),
    ("model_io.load_model.ms", "ms", "lower"),
    ("cli.detect.self_s", "s", "lower"),
    *((f"{name}.calls", "count", "lower") for name in SPAN_NAMES),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(
    spans: Sequence[Span],
    *,
    flops_per_window: int,
    normalized_windows: int,
    overhead_pct: float,
) -> dict[str, float]:
    """Every PER_LAYER value from the spans of one traced run.

    Totals (busy_s, calls, events) cover all traced work, which is a fixed
    number of operations. A share is the layer's busy time divided by the
    traced operations' wall time, 0 when the workload never calls the layer.
    `normalized_windows` is how many windows the run fed to the network, each
    needing exactly one normalization. GFLOP/s uses the FLOPs that
    anccough.profile models per window, a computed work count.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    for i, span in enumerate(spans):
        if span.name in by_name:
            by_name[span.name].append(i)

    def durations(name):
        return [spans[i].duration for i in by_name[name]]

    def busy(name):
        return sum(durations(name), 0.0)

    def units(name):
        return sum((spans[i].units for i in by_name[name]), 0.0)

    def self_of(name):
        return [selfs[i] for i in by_name[name]]

    op_wall = sum((s.duration for s in spans if s.name.startswith("op.")), 0.0)

    def share(name):
        return _ratio(busy(name), op_wall)

    recordings = units("synth.generate_dataset")
    values = {
        "net.loss_and_grads.p50_ms": 1e3 * _median(durations("net.loss_and_grads")),
        "net.loss_and_grads.share": share("net.loss_and_grads"),
        "net.forward.p50_ms": 1e3 * _median(durations("net.forward")),
        "net.forward.gflops": _ratio(flops_per_window * units("net.forward"), busy("net.forward")) / 1e9,
        "net.predict_probs.ms_per_window": 1e3 * _ratio(busy("net.predict_probs"), units("net.predict_probs")),
        "net.predict_probs.gflops":
            _ratio(flops_per_window * units("net.predict_probs"), busy("net.predict_probs")) / 1e9,
        "dsp.decimate.msamples_per_s": _ratio(units("dsp.decimate"), busy("dsp.decimate")) / 1e6,
        "dsp.decimate.share": share("dsp.decimate"),
        "dsp.normalize.calls_per_window": _ratio(len(by_name["dsp.normalize"]), normalized_windows),
        "dsp.normalize.busy_s": busy("dsp.normalize"),
        "dsp.slice_windows.busy_s": busy("dsp.slice_windows"),
        "wavio.read_wav.mb_per_s": _ratio(units("wavio.read_wav"), busy("wavio.read_wav")) / 1e6,
        "wavio.write_wav.mb_per_s": _ratio(units("wavio.write_wav"), busy("wavio.write_wav")) / 1e6,
        "synth.self_ms_per_recording": 1e3 * _ratio(sum(self_of("synth.generate_dataset")), recordings),
        "augment.apply_plan.ms_per_copy": 1e3 * _ratio(busy("augment.apply_plan"), units("augment.apply_plan")),
        "pipeline.label_windows.busy_s": busy("pipeline.label_windows"),
        "pipeline.train.self_s": _median(self_of("pipeline.train")),
        "evalkit.evaluate.self_s": _median(self_of("evalkit.evaluate")),
        "stream.detect.self_s": _median(self_of("stream.detect")),
        "stream.step.self_p50_ms": 1e3 * _median(self_of("stream.step")),
        "stream.events": units("stream.detect"),
        "model_io.load_model.ms": 1e3 * _median(durations("model_io.load_model")),
        "cli.detect.self_s": _median(self_of("cli.detect")),
        "trace.overhead_pct": overhead_pct,
        "trace.spans": float(len(spans)),
    }
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = float(len(by_name[name]))
    return values
