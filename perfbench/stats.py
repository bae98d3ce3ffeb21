"""Order statistics the benchmark reports: percentiles with their sample
counts, the top-percentile rule, and run-to-run spread."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

# A percentile is reported only when at least this many samples lie beyond it;
# fewer and a single slow sample moves the figure from run to run.
MIN_BEYOND = 10

TOP_CANDIDATES = (99.9, 99.0, 95.0, 90.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated q-th percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q={q} outside [0, 100]")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile_report(samples: Sequence[float], q: float) -> dict:
    """The q-th percentile with the sample count and how many samples exceed it.

    `ok` says whether the figure meets the MIN_BEYOND rule; the median of two
    or more samples always does, since it is not a tail figure.
    """
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    ok = q <= 50.0 or beyond >= MIN_BEYOND
    return {"q": q, "value": value, "n": len(samples), "beyond": beyond, "ok": ok}


def top_percentile(samples: Sequence[float], candidates: Sequence[float] = TOP_CANDIDATES) -> dict | None:
    """The highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for q in sorted(candidates, reverse=True):
        report = percentile_report(samples, q)
        if report["ok"]:
            return report
    return None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
