import numpy as np
import pytest

import anccough as ac
import reference
import workloads


def _model(seed=0):
    spec = ac.net.reduced_spec()
    params = ac.net.init_params(spec, seed=seed, dtype=np.float64)
    x = np.random.default_rng(seed).standard_normal((5, *spec.input_shape))
    return spec, params, x


def test_forward_matches_the_library():
    spec, params, x = _model()
    np.testing.assert_allclose(reference.forward_probs(spec, params, x),
                               ac.net.forward_batch(spec, params, x), atol=1e-12)


def test_forward_sees_a_wrong_kernel():
    spec, params, x = _model()
    wrong = [p.copy() for p in params]
    wrong[2][:, :, 0] = 0.0  # drop one tap of the second convolution
    assert np.max(np.abs(reference.forward_probs(spec, wrong, x)
                         - ac.net.forward_batch(spec, params, x))) > reference.PROB_TOL


def test_gradient_check_passes_the_library_and_fails_a_wrong_gradient(monkeypatch):
    spec, params, _ = _model(1)
    assert reference.gradient_error(spec, params, seed=0) <= reference.GRAD_TOL

    real = ac.net.loss_and_grads

    def halved(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        return loss, [g * 0.5 if i == 0 else g for i, g in enumerate(grads)]

    monkeypatch.setattr(ac.net, "loss_and_grads", halved)
    assert reference.gradient_error(spec, params, seed=0) > reference.GRAD_TOL


def test_gradient_check_survives_an_input_near_a_kink():
    # seed 58 of the benchmark's set-up draws an input within the difference
    # step of a kink; a single input read 2e-5 there
    spec = ac.net.default_spec(workloads.RATE_HZ)
    params = ac.net.init_params(spec, seed=58)
    assert reference.gradient_error(spec, params, seed=58) <= reference.GRAD_TOL


def test_merge_events_matches_the_detector_rule():
    probs = [0.1, 0.9, 0.8, 0.2, 0.95, 0.3, 0.7]
    starts = [0.5 * i for i in range(len(probs))]
    got = reference.merge_events(probs, starts, 0.5, 0.6)
    want = ac.stream._merge_positive_runs(probs, starts, 0.5, 0.6, 0)
    assert got == [(e.start_s, e.end_s, pytest.approx(e.mean_confidence), e.window_count)
                   for e in want]


def test_threshold_sits_in_the_widest_gap_within_the_quantiles():
    # the 0.3 -> 0.99 gap would leave one positive window, below the 95th percentile
    scores = [0.01 * i for i in range(10)] + [0.3, 0.99]
    threshold, gap = workloads.detect_threshold(scores)
    assert (threshold, gap) == pytest.approx((0.195, 0.21))
