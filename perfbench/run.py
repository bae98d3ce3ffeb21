"""Run one anccough benchmark workload and print its metrics.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 25 --trace 0

Run from the repository root: the library is imported from ./src. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics from the traced run with --trace 1. A fuller record
(environment, sample counts, percentile reports, failures) goes to
perfbench/out/, and with --trace 1 the spans too. The exit code is 0 when
every operation passed its checks, 1 when one failed, 2 on a usage error or
when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    """Import anccough from this checkout's src/, and from nowhere else."""
    if not (SRC / "anccough" / "__init__.py").is_file():
        print(f"error: no anccough source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import anccough

    if Path(anccough.__file__).resolve().parent != (SRC / "anccough").resolve():
        print(f"error: imported anccough from {anccough.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("detect", "train", "ingest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the closed loop that follows set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_library()
    import envinfo
    import spans
    import workloads

    out_dir = ROOT / "perfbench" / "out"
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        work=out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}",
    )
    env = envinfo.environment(ROOT)
    print(json.dumps({"environment": env}, sort_keys=True), flush=True)
    try:
        workloads.execute(run)
        aborted = False
    except workloads.OperationFailed:
        aborted = True
    finally:
        run.tracing(False)
        shutil.rmtree(run.work, ignore_errors=True)

    metrics: dict = {}
    if not aborted:
        if run.traced:
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            values = workloads.per_layer(run)
        else:
            units = {name: unit for name, unit, _, _ in workloads.END_TO_END}
            values = workloads.end_to_end(run)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = workloads.detail(run)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "detail": detail, "problems": run.problems,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if run.traced:
        run.recorder.write_jsonl(out_dir / f"{stem}.spans.jsonl")
        print("note: GFLOP/s figures divide the FLOPs anccough.profile models per window "
              "by measured time; the FLOPs are computed, not counted", flush=True)
    print(json.dumps(detail, sort_keys=True), flush=True)

    correct = run.failed == 0 and not aborted
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
