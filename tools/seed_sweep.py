"""Acceptance criteria 4 and 5 at several training seeds.

Builds the ten-user study dataset once (STUDY_SEED, default 6/2/2 user
split), then, for each training seed, runs criterion 4's training and test
evaluation and criterion 5's three-arm ablation, in a 2-process pool. Prints
one row per seed: acc1, f1_1, acc2, epochs, and the dual-ff and dual-fb acc2
gaps. The seeds, configs and training come from tests/test_acceptance.py, so
the sweep and the criteria cannot drift apart.

    PYTHONPATH=src python tools/seed_sweep.py

Takes about 10 minutes on two cores; the pool forks, so POSIX only.
"""

import multiprocessing
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from anccough import evalkit, net, pipeline, synth  # noqa: E402
from test_acceptance import (  # noqa: E402
    ABLATION_CONFIG,
    STUDY_CONFIG,
    STUDY_SEED,
    TRAIN_SEED,
    train_study,
)

SEEDS = [TRAIN_SEED + i for i in range(5)]
RATE_HZ = 8000

_SETS = None  # (train, val, test), built before the pool forks


def _run(task):
    kind, seed = task
    train_set, val_set, test_set = _SETS
    spec = net.default_spec(RATE_HZ)
    if kind == "study":
        params, history = train_study(train_set, val_set, spec, replace(STUDY_CONFIG, seed=seed))
        rep = evalkit.evaluate(spec, params, test_set)
        return task, {"acc1": rep.acc1, "f1_1": rep.f1_1, "acc2": rep.acc2,
                      "epochs": len(history)}
    reports = evalkit.ablation(train_set, val_set, test_set, spec,
                               replace(ABLATION_CONFIG, seed=seed))
    dual = reports["dual"].acc2
    return task, {"dual_ff": dual - reports["feed_forward_only"].acc2,
                  "dual_fb": dual - reports["feedback_only"].acc2}


def main() -> int:
    global _SETS
    t0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = synth.generate_dataset(root, n_users=10, seed=STUDY_SEED)
        split = pipeline.default_split(manifest.user_ids())
        _SETS = pipeline.split_by_user(manifest, split, root, RATE_HZ)
    print(f"dataset built in {time.time() - t0:.0f}s", flush=True)

    tasks = [(kind, seed) for seed in SEEDS for kind in ("study", "ablation")]
    rows = {seed: {} for seed in SEEDS}
    with multiprocessing.get_context("fork").Pool(2) as pool:
        for (kind, seed), values in pool.imap_unordered(_run, tasks):
            rows[seed].update(values)
            print(f"seed {seed} {kind} done at {time.time() - t0:.0f}s", flush=True)

    print("bounds: acc1 >= 0.90, f1_1 >= 0.85, acc2 >= 0.90, epochs <= 50; "
          "dual-ff and dual-fb >= 0.05")
    print(f"{'seed':>4} {'acc1':>7} {'f1_1':>7} {'acc2':>7} {'epochs':>6} "
          f"{'dual-ff':>8} {'dual-fb':>8}")
    for seed in SEEDS:
        r = rows[seed]
        print(f"{seed:>4} {r['acc1']:7.4f} {r['f1_1']:7.4f} {r['acc2']:7.4f} {r['epochs']:>6} "
              f"{r['dual_ff']:8.4f} {r['dual_fb']:8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
