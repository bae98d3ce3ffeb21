import statistics

import pytest

import stats


def test_percentile_matches_linear_interpolation():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 100) == 5.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)


def test_percentile_report_carries_sample_count_and_tail():
    xs = [float(i) for i in range(1, 201)]  # 1..200
    p50 = stats.percentile_report(xs, 50)
    assert p50["n"] == 200 and p50["ok"]
    assert p50["value"] == pytest.approx(100.5)
    p90 = stats.percentile_report(xs, 90)
    assert p90["beyond"] == 20 and p90["ok"]
    p99 = stats.percentile_report(xs, 99)
    assert p99["beyond"] == 2 and not p99["ok"]


def test_top_percentile_needs_ten_samples_beyond():
    assert stats.top_percentile([float(i) for i in range(1000)])["q"] == 99.0
    assert stats.top_percentile([float(i) for i in range(900)])["q"] == 95.0
    assert stats.top_percentile([float(i) for i in range(200)])["q"] == 95.0
    assert stats.top_percentile([float(i) for i in range(100)])["q"] == 90.0
    assert stats.top_percentile([float(i) for i in range(50)]) is None


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.relative_spread([3.0] * 10) == 0.0


def test_empty_samples_are_rejected():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.median([])
