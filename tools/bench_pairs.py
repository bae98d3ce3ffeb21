"""Pair the benchmark records of a parent and a change checkout into one summary.

Reads every `perfbench/out/<workload>-seed<n>-trace0.json` record under each
of the two checkout roots, pairs the records by (workload, seed), and writes,
for every workload and every end-to-end metric in BENCHMARK.json: the parent's
and the change's median and quartiles, the number of pairs, and how many pairs
the change won by the metric's `better` direction, and whether the change's
median is better by more than the parent's interquartile range. Each metric is
also judged against its BENCHMARK.json `bound`: `parent_spread` is the
parent's (q3 - q1) / median; `unresolved` is true when that spread exceeds the
bound, unless every change run beats every parent run; `worse_than_bound` is
true when the change's median is worse than the parent's by more than bound x
the parent's median. Each side's environment records (one per distinct
environment) go with it, and so does a SHA-256 of each side's `src/**/*.py`
(their relative paths and bytes, in path order), which names the code each
side timed where the records' `git_commit` cannot, as in a `git archive`
copy. A failed run, one that aborted (no metrics) or failed
a check (its `problems` list is not empty), pairs for nothing; each workload
counts its failed runs per side.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --out BENCH_<n>.json

Run each workload on both checkouts with the same seeds first, alternating
the two sides, e.g. `python3 perfbench/run.py --workload ingest --seed 101
--seconds 25` in one, then the other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile, 0 <= q <= 1 (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values: list[float]) -> dict:
    return {"q1": quantile(values, 0.25), "median": quantile(values, 0.5),
            "q3": quantile(values, 0.75)}


def read_records(root: Path) -> dict[tuple[str, int], dict]:
    """The trace-0 records under a checkout root, by (workload, seed)."""
    records = {}
    for path in sorted((root / "perfbench" / "out").glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        records[record["workload"], record["seed"]] = record
    return records


def failed(record: dict) -> bool:
    return bool(record["problems"]) or not record["metrics"]


def environments(records) -> list[dict]:
    distinct = []
    for record in records:
        if record["environment"] not in distinct:
            distinct.append(record["environment"])
    return distinct


def src_digest(root: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of root's src/**/*.py."""
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in (root / "src").rglob("*.py")):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def pair_summary(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """Per workload and metric: both sides' summaries, pairs and wins."""
    out = {}
    for workload, seed in sorted(set(parent) & set(change)):
        doc = out.setdefault(workload, {"seeds": [], "failed": {"parent": 0, "change": 0},
                                        "metrics": {}})
        doc["seeds"].append(seed)
        doc["failed"]["parent"] += failed(parent[workload, seed])
        doc["failed"]["change"] += failed(change[workload, seed])
    for workload, doc in out.items():
        ok = [s for s in doc["seeds"]
              if not failed(parent[workload, s]) and not failed(change[workload, s])]
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            pairs = [(parent[workload, s]["metrics"][name]["value"],
                      change[workload, s]["metrics"][name]["value"])
                     for s in ok
                     if name in parent[workload, s]["metrics"]
                     and name in change[workload, s]["metrics"]]
            if not pairs:
                continue
            before, after = zip(*pairs)
            p, c = summary(list(before)), summary(list(after))
            gain = p["median"] - c["median"] if lower else c["median"] - p["median"]
            spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else None
            separated = (max(after) < min(before)) if lower else (min(after) > max(before))
            doc["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "pairs": len(pairs),
                "wins": sum((a < b) if lower else (a > b) for b, a in pairs),
                "parent": p,
                "change": c,
                "change_pct": 100.0 * (c["median"] / p["median"] - 1.0) if p["median"] else None,
                # the median moved the better way by more than the parent's spread
                "gain_beyond_parent_iqr": gain > p["q3"] - p["q1"],
                "parent_spread": spread,
                # the parent's runs spread wider than the bound, and the change's
                # runs do not all beat the parent's
                "unresolved": (spread is None or spread > metric["bound"]) and not separated,
                "worse_than_bound": -gain > metric["bound"] * abs(p["median"]),
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the change checkout")
    p.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    p.add_argument("--out", type=Path, default=None, help="JSON path (default: stdout)")
    args = p.parse_args(argv)

    end_to_end = json.loads(args.benchmark.read_text(encoding="utf-8"))["end_to_end"]
    parent, change = read_records(args.parent), read_records(args.change)
    paired = sorted(set(parent) & set(change))
    if not paired:
        print("error: no (workload, seed) has a record on both sides", file=sys.stderr)
        return 1
    doc = {
        "workloads": pair_summary(parent, change, end_to_end),
        "environment": {"parent": environments(parent[k] for k in paired),
                        "change": environments(change[k] for k in paired)},
        "src_sha256": {"parent": src_digest(args.parent), "change": src_digest(args.change)},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
