import pytest

import spans
from spans import Span


def _tree():
    # op(0..10) -> a(1..6) -> b(2..3), c(4..5.5); op -> d(7..9)
    return [
        Span("op", 0.0, 10.0, -1, "r1"),
        Span("a", 1.0, 6.0, 0, "r1"),
        Span("b", 2.0, 3.0, 1, "r1"),
        Span("c", 4.0, 5.5, 1, "r1"),
        Span("d", 7.0, 9.0, 0, "r1"),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_tree()) == pytest.approx([10 - 5 - 2, 5 - 1 - 1.5, 1.0, 1.5, 2.0])


def test_self_times_sum_to_root_duration():
    tree = _tree()
    assert sum(spans.self_times(tree)) == pytest.approx(tree[0].duration)


def test_recorder_links_parents_and_run_ids():
    rec = spans.Recorder()
    rec.run_id = "x-1"
    with rec.span("outer"):
        inner = rec.wrap(lambda n: list(range(n)), "inner", lambda a, k, r: len(r))
        inner(3)
        inner(4)
    assert [s.name for s in rec.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in rec.spans] == [-1, 0, 0]
    assert [s.units for s in rec.spans[1:]] == [3.0, 4.0]
    assert {s.run_id for s in rec.spans} == {"x-1"}
    assert all(s.end >= s.start for s in rec.spans)


def test_wrapped_exception_closes_span():
    rec = spans.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap(boom, "boom", None)()
    assert rec.spans[0].end >= rec.spans[0].start
    with rec.span("after"):
        pass
    assert rec.spans[1].parent == -1


def test_instrument_wraps_and_restores_library_bindings():
    import anccough as ac
    import anccough.cli  # noqa: F401

    before = (ac.net.forward, ac.pipeline.decimate, ac.stream.StreamingDetector.step)
    rec = spans.Recorder()
    restore = spans.instrument(rec, ac)
    assert ac.net.forward is not before[0]
    spec = ac.net.reduced_spec()
    params = ac.net.init_params(spec, seed=0)
    import numpy as np
    ac.net.forward(spec, params, np.zeros(spec.input_shape, dtype=np.float32))
    restore()
    assert (ac.net.forward, ac.pipeline.decimate, ac.stream.StreamingDetector.step) == before
    assert [s.name for s in rec.spans] == ["net.forward"]


def test_layer_metrics_shares_and_counts():
    tree = [
        Span("op.train", 0.0, 10.0, -1, "train-1"),
        Span("net.loss_and_grads", 1.0, 5.0, 0, "train-1", units=32),
        Span("dsp.normalize", 5.0, 6.0, 0, "train-1"),
        Span("op.train", 10.0, 20.0, -1, "train-2"),
        Span("net.loss_and_grads", 11.0, 13.0, 3, "train-2", units=32),
        Span("net.predict_probs", 13.0, 14.0, 3, "train-2", units=1000),
    ]
    m = spans.layer_metrics(tree, flops_per_window=2_000_000, normalized_windows=2,
                            overhead_pct=1.5)
    assert set(m) == {name for name, _, _ in spans.PER_LAYER}
    assert all(isinstance(v, float) for v in m.values())  # unused layers too
    assert m["net.loss_and_grads.share"] == pytest.approx(0.3)
    assert m["net.loss_and_grads.p50_ms"] == pytest.approx(3000.0)
    assert m["net.predict_probs.gflops"] == pytest.approx(2.0)
    assert m["net.predict_probs.ms_per_window"] == pytest.approx(1.0)
    assert m["dsp.decimate.share"] == 0.0 and m["net.forward.p50_ms"] == 0.0
    assert m["dsp.normalize.calls_per_window"] == pytest.approx(0.5)
    assert m["net.loss_and_grads.calls"] == 2.0
    assert m["trace.spans"] == 6.0
    assert m["trace.overhead_pct"] == 1.5


def test_every_wrapped_binding_has_a_listed_span_name():
    import anccough as ac
    import anccough.cli  # noqa: F401

    assert {name for _, _, name, _ in spans._targets(ac)} == set(spans.SPAN_NAMES)
