"""tools/bench_pairs.py on two small fake record sets."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = {"end_to_end": [
    {"name": "rtf", "unit": "x_realtime", "better": "higher", "bound": 0.25},
    {"name": "ms_per_window", "unit": "ms", "better": "lower", "bound": 0.25},
]}


def write_records(root, env, runs):
    """runs: (workload, seed, {metric: value}[, problems]); an empty dict is an
    aborted run, a problem a failed check."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True)
    for workload, seed, values, *problems in runs:
        record = {"workload": workload, "seed": seed, "trace": 0, "environment": env,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()},
                  "problems": problems}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    # a traced record is not a pairing candidate
    (out / f"{runs[0][0]}-seed{runs[0][1]}-trace1.json").write_text("not json")


@pytest.fixture
def summary(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, {"git_commit": "aaa"}, [
        ("ingest", 1, {"rtf": 100.0, "ms_per_window": 0.8}),
        ("ingest", 2, {"rtf": 110.0, "ms_per_window": 0.7}),
        ("ingest", 3, {"rtf": 120.0, "ms_per_window": 0.6}),
        ("ingest", 4, {"rtf": 130.0, "ms_per_window": 0.5}),
        ("ingest", 9, {"rtf": 1.0, "ms_per_window": 9.0}),  # no change run: unpaired
        ("detect", 1, {"rtf": 300.0, "ms_per_window": 1.0}),
        ("detect", 2, {}),  # an aborted run pairs for nothing
        ("detect", 3, {"rtf": 300.0, "ms_per_window": 1.0}),
    ])
    write_records(change, {"git_commit": "bbb"}, [
        ("ingest", 1, {"rtf": 105.0, "ms_per_window": 0.5}),
        ("ingest", 2, {"rtf": 100.0, "ms_per_window": 0.4}),
        ("ingest", 3, {"rtf": 125.0, "ms_per_window": 0.45}),
        ("ingest", 4, {"rtf": 140.0, "ms_per_window": 0.3}),
        ("detect", 1, {"rtf": 290.0, "ms_per_window": 1.2}),
        ("detect", 2, {"rtf": 280.0, "ms_per_window": 1.1}),
        # a failed check pairs for nothing, though the run wrote its metrics
        ("detect", 3, {"rtf": 900.0, "ms_per_window": 0.1}, "op 1: windows differ"),
    ])
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), "--benchmark", str(bench),
                             "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_pairs_medians_quartiles_and_wins(summary):
    ingest = summary["workloads"]["ingest"]
    assert ingest["seeds"] == [1, 2, 3, 4]
    ms = ingest["metrics"]["ms_per_window"]
    assert (ms["pairs"], ms["wins"]) == (4, 4)  # lower is better
    assert ms["parent"] == pytest.approx({"q1": 0.575, "median": 0.65, "q3": 0.725})
    assert ms["change"] == pytest.approx({"q1": 0.375, "median": 0.425, "q3": 0.4625})
    assert ms["change_pct"] == pytest.approx(100 * (0.425 / 0.65 - 1))
    assert ms["gain_beyond_parent_iqr"] is True  # 0.225 > 0.15
    rtf = ingest["metrics"]["rtf"]
    assert (rtf["pairs"], rtf["wins"]) == (4, 3)  # higher is better; seed 2 lost
    assert rtf["parent"]["median"] == pytest.approx(115.0)
    assert rtf["change"]["median"] == pytest.approx(115.0)
    assert rtf["gain_beyond_parent_iqr"] is False
    assert (rtf["unit"], rtf["better"]) == ("x_realtime", "higher")


def test_a_failed_run_pairs_for_nothing(summary):
    detect = summary["workloads"]["detect"]
    assert detect["seeds"] == [1, 2, 3]
    assert detect["failed"] == {"parent": 1, "change": 1}
    assert summary["workloads"]["ingest"]["failed"] == {"parent": 0, "change": 0}
    for name in ("rtf", "ms_per_window"):
        assert (detect["metrics"][name]["pairs"], detect["metrics"][name]["wins"]) == (1, 0)


def test_each_side_keeps_its_environment(summary):
    assert summary["environment"] == {"parent": [{"git_commit": "aaa"}],
                                      "change": [{"git_commit": "bbb"}]}


def test_no_common_record_is_an_error(tmp_path, capsys):
    write_records(tmp_path / "a", {}, [("ingest", 1, {"rtf": 1.0})])
    write_records(tmp_path / "b", {}, [("ingest", 2, {"rtf": 1.0})])
    assert bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "no (workload, seed)" in capsys.readouterr().err
