"""Demos run end to end and clean up after themselves."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_synthesize_demo_removes_its_dataset(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "01_synthesize_dataset.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert f"recordings under {tmp_path}" in done.stdout
    assert list(tmp_path.iterdir()) == []
