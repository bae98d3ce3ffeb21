"""Minimum-size runs of every workload through run.main, checking the output."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _last_json(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def _check_schema(result: dict, names: set[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plain_run_schema(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0"])
    result = _last_json(capsys)
    assert code == 0
    _check_schema(result, {name for name, *_ in workloads.END_TO_END})
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_schema(capsys):
    code = run.main(["--workload", "detect", "--seed", "0", "--seconds", "0", "--trace", "1"])
    result = _last_json(capsys)
    assert code == 0
    _check_schema(result, {name for name, *_ in spans.PER_LAYER})
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["net.forward.calls"] > 0 and metrics["stream.step.calls"] > 0
    assert metrics["dsp.decimate.share"] > 0  # detect operations decimate
    assert metrics["net.loss_and_grads.calls"] == 0.0  # and never train
    assert metrics["synth.generate_dataset.calls"] == 0.0  # or synthesise
    assert metrics["dsp.normalize.calls_per_window"] >= 1.0


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
