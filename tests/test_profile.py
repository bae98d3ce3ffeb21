"""Resource accounting tests against the published per-rate budgets."""

from dataclasses import astuple

import numpy as np

from anccough import net
from anccough.evalkit import resource_table, resource_table_csv
from anccough.profile import conv_flops, dense_flops, profile

# published per-variant budgets: rate -> (flops_m, space_kb)
PUBLISHED = {
    8000: (12.20, 385),
    16000: (24.53, 641),
    24000: (36.88, 897),
    48000: (73.91, 1665),
}


def test_dense_layer_flops_rule():
    assert dense_flops(64, 32) == 4096
    assert conv_flops(10, 7) == 140


def test_space_within_published_budget():
    for rate, (_, space_kb) in PUBLISHED.items():
        prof = profile(net.default_spec(rate))
        assert prof.space_kb <= space_kb


def test_flops_within_fifteen_percent_of_published():
    for rate, (flops_m, _) in PUBLISHED.items():
        prof = profile(net.default_spec(rate))
        assert abs(prof.flops_m - flops_m) / flops_m <= 0.15


def test_flops_rate_ratios():
    p8 = profile(net.default_spec(8000))
    p24 = profile(net.default_spec(24000))
    p48 = profile(net.default_spec(48000))
    assert 5.5 <= p48.flops / p8.flops <= 6.5
    assert 2.7 <= p24.flops / p8.flops <= 3.3


def test_flops_scale_linearly_through_origin():
    rates = np.array(sorted(PUBLISHED), dtype=np.float64)
    flops = np.array([profile(net.default_spec(int(r))).flops for r in rates])
    slope = float(np.sum(rates * flops) / np.sum(rates * rates))
    residual = np.abs(flops - slope * rates) / flops
    assert residual.max() < 0.10


def test_space_affine_in_rate():
    rates_khz = np.array(sorted(PUBLISHED)) / 1000.0
    space_kb = np.array([profile(net.default_spec(int(r * 1000))).space_kb
                         for r in rates_khz])
    slope, intercept = np.polyfit(rates_khz, space_kb, 1)
    assert 25.0 <= slope <= 40.0
    assert 100.0 <= intercept <= 160.0


def test_monotonic_in_rate():
    profs = [profile(net.default_spec(r)) for r in sorted(PUBLISHED)]
    for a, b in zip(profs, profs[1:]):
        assert b.flops > a.flops
        assert b.space_bytes > a.space_bytes


def test_space_bytes_decomposition():
    prof = profile(net.default_spec(8000))
    assert prof.space_bytes == prof.param_bytes + prof.peak_activation_bytes
    assert prof.space_bytes >= prof.param_bytes
    assert prof.param_bytes == 4 * prof.param_count


def test_resource_table_csv_shape():
    rows = resource_table()
    assert [r for r, _ in rows] == [8000, 16000, 24000, 48000]
    text = resource_table_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "rate_khz,flops_m,space_kb"
    assert len(lines) == 5


# exact (flops, param_count, param_bytes, peak_activation_bytes, space_bytes)
PINNED = {
    8000: (13243072, 32098, 128392, 224000, 352392),
    16000: (26483008, 32098, 128392, 448000, 576392),
    24000: (39722944, 32098, 128392, 672000, 800392),
    48000: (79475008, 32098, 128392, 1344000, 1472392),
}
PINNED_REDUCED_64 = (26016, 1354, 5416, 1536, 6952)
PINNED_CSV = ("rate_khz,flops_m,space_kb\n8,13.24,352.4\n16,26.48,576.4\n"
              "24,39.72,800.4\n48,79.48,1472.4\n")


def test_profiles_and_resource_table_are_pinned():
    for rate, fields in PINNED.items():
        assert astuple(profile(net.default_spec(rate))) == fields
    assert astuple(profile(net.reduced_spec(64))) == PINNED_REDUCED_64
    assert resource_table_csv() == PINNED_CSV
