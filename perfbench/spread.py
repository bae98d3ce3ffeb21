"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload detect --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, with the settings in
BENCHMARK.json. For every end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles, n=4), next to the metric's bound. A spread above a
third of the bound is flagged. The per-run results are saved to
perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(runs, indent=1) + "\n")

    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = stats.median(values)
        spread = stats.relative_spread(values) if len(values) > 1 and med else 0.0
        bound = m.get("bound")
        flag = " !" if bound is not None and spread > bound / 3 else ""
        print(f"{m['name']:34s} {med:12.4f} {spread:8.3f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
