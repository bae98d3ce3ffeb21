"""Command-line entry point: synth, train, eval, ablate, profile, detect.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every subcommand that
draws randomness takes --seed (default 0) and writes a run_config record of the
resolved settings next to its outputs, so any artifact can be regenerated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import evalkit, net, pipeline, stream, synth
from .augment import AugmentPlan, load_noise_pool
from .dsp import SUPPORTED_RATES, decimate, load_recording
from .errors import AnccoughError
from .model_io import load_model, save_model

_RATE_CHOICES = list(SUPPORTED_RATES)

NOISE_POOL_CLIPS = 32  # clips in the built-in background-noise pool


def _write_run_config(path: Path, command: str, values: dict) -> None:
    # location-independent reproducibility record: settings only, no paths
    doc = {"command": command, **values}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _split_from_args(args, manifest) -> pipeline.SplitConfig:
    if args.train_users:  # main made sure all three or none are given
        return pipeline.SplitConfig(args.train_users, args.val_users, args.test_users)
    return pipeline.default_split(manifest.user_ids())


def _int_at_least(low: int):
    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return check


_non_negative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _user_ids(text: str) -> tuple[int, ...]:
    """Comma-separated user ids; the empty string (the default) is none."""
    if not text:
        return ()
    try:
        return tuple(int(u) for u in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid user ids {text!r}: want comma-separated integers") from None


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-users", type=_user_ids, default="", help="comma-separated user ids")
    p.add_argument("--val-users", type=_user_ids, default="", help="comma-separated user ids")
    p.add_argument("--test-users", type=_user_ids, default="", help="comma-separated user ids")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=_positive_int, default=20)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    p.add_argument("--optimizer", choices=pipeline.OPTIMIZERS, default="adam")
    p.add_argument("--patience", type=_positive_int, default=4)
    p.add_argument("--copies", type=_non_negative_int, default=1,
                   help="augmented copies per training clip (0 disables augmentation)")
    p.add_argument("--class-weighting", action="store_true",
                   help="inverse-frequency loss weighting (recommended on synthetic data)")
    p.add_argument("--seed", type=_non_negative_int, default=0)


def _training_setup(args, noise_dir: str | None = None):
    """The TrainConfig, AugmentPlan and noise pool (None and None at --copies
    0) and run-record settings that `train` and `ablate` build from flags."""
    cfg = pipeline.TrainConfig(
        epochs_max=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        early_stop_patience=args.patience,
        seed=args.seed,
        class_weighting=args.class_weighting,
    )
    plan = pool = None
    if args.copies > 0:
        plan = AugmentPlan(copies_per_clip=args.copies, seed=args.seed)
        if noise_dir:
            pool = load_noise_pool(noise_dir, args.rate)
        else:
            pool = synth.generate_noise_pool(NOISE_POOL_CLIPS, args.rate, args.seed)
    record = {
        "rate": args.rate, "epochs": args.epochs, "batch_size": args.batch_size,
        "lr": args.lr, "optimizer": args.optimizer, "patience": args.patience,
        "copies": args.copies, "class_weighting": args.class_weighting,
        "seed": args.seed,
    }
    return cfg, plan, pool, record


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    manifest = synth.generate_dataset(out_dir, n_users=args.users, seed=args.seed)
    _write_run_config(out_dir / "run_config.json", "synth",
                      {"users": args.users, "seed": args.seed})
    print(f"wrote {len(manifest.entries)} recordings under {out_dir}")
    print(out_dir / synth.MANIFEST_FILENAME)
    return 0


def cmd_train(args) -> int:
    manifest = synth.read_manifest(args.manifest)
    data_dir = Path(args.manifest).parent
    split = _split_from_args(args, manifest)
    pipeline.check_split_users(manifest, split)
    # the test users are named for the run record only: none of their audio loads
    train_set, val_set, _ = pipeline.split_by_user(
        manifest, replace(split, test_users=()), data_dir, args.rate)

    spec = net.default_spec(args.rate)
    cfg, plan, pool, record = _training_setup(args, args.noise_dir)
    params, history = pipeline.train(
        train_set, val_set, spec, cfg, plan=plan, noise_pool=pool,
        checkpoint_dir=args.checkpoint_dir,
    )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(spec, params, out)
    Path(str(out) + ".history.csv").write_text(pipeline.history_to_csv(history),
                                               encoding="utf-8")
    _write_run_config(Path(str(out) + ".run.json"), "train", {
        **record,
        "train_users": list(split.train_users), "val_users": list(split.val_users),
        "test_users": list(split.test_users),
    })
    best = max(history, key=lambda r: r["val_f1_1"])
    print(f"trained {len(history)} epochs; best val F1-1 {best['val_f1_1']:.4f} "
          f"at epoch {best['epoch']}")
    print(out)
    return 0


def cmd_eval(args) -> int:
    manifest = synth.read_manifest(args.manifest)
    data_dir = Path(args.manifest).parent
    split = _split_from_args(args, manifest)
    pipeline.check_split_users(manifest, split)
    spec, params = load_model(args.model)
    test_set = pipeline.load_labeled_windows(manifest, data_dir, spec.sample_rate_hz,
                                             users=set(split.test_users))

    report = evalkit.evaluate(spec, params, test_set, threshold=args.threshold)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(report.to_json(), encoding="utf-8")
    (out_dir / "metrics.txt").write_text(report.to_text(), encoding="utf-8")
    _write_run_config(out_dir / "run_config.json", "eval", {
        "threshold": args.threshold,
        "test_users": list(split.test_users),
    })
    print(f"acc1 {report.acc1:.4f}  f1_1 {report.f1_1:.4f}  "
          f"acc2 {report.acc2:.4f}  f1_2 {report.f1_2:.4f}")
    print(out_dir / "metrics.json")
    return 0


def cmd_ablate(args) -> int:
    manifest = synth.read_manifest(args.manifest)
    data_dir = Path(args.manifest).parent
    split = _split_from_args(args, manifest)
    sets = pipeline.split_by_user(manifest, split, data_dir, args.rate)

    spec = net.default_spec(args.rate)
    cfg, plan, pool, record = _training_setup(args)
    reports = evalkit.ablation(*sets, spec, cfg, plan=plan, noise_pool=pool)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for variant, report in reports.items():
        (out_dir / f"{variant}.json").write_text(report.to_json(), encoding="utf-8")
        lines.append(f"{variant:18s} acc2 {report.acc2:.4f}  f1_2 {report.f1_2:.4f}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_run_config(out_dir / "run_config.json", "ablate", record)
    print("\n".join(lines))
    return 0


def cmd_profile(args) -> int:
    csv_text = evalkit.resource_table_csv()
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(args.out)
    else:
        print(csv_text, end="")
    return 0


def cmd_detect(args) -> int:
    spec, params = load_model(args.model)
    rec = load_recording(args.wav)
    if rec.sample_rate_hz != spec.sample_rate_hz:
        rec = decimate(rec, spec.sample_rate_hz)
    events = stream.detect(spec, params, rec, threshold=args.threshold)
    ndjson = stream.events_to_ndjson(events)
    if args.out:
        Path(args.out).write_text(ndjson, encoding="utf-8")
        _write_run_config(Path(str(args.out) + ".run.json"), "detect",
                          {"threshold": args.threshold})
        print(f"{len(events)} events -> {args.out}")
    else:
        print(ndjson, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anccough",
        description="Subject-aware cough event detection on dual-channel earbud audio.",
    )
    parser.add_argument("--config", default=None,
                        help="key=value file whose entries become flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic dual-channel dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=_positive_int, default=10)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one sampling-rate variant")
    p.add_argument("--manifest", required=True)
    p.add_argument("--rate", type=int, choices=_RATE_CHOICES, default=8000)
    p.add_argument("--out", required=True, help="output model file (ECN1)")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--noise-dir", default=None,
                   help="directory of 2-channel noise WAVs for background mixing "
                        "(default: built-in synthetic pool)")
    _add_train_flags(p)
    _add_split_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on the test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threshold", type=_finite_float, default=0.5)
    _add_split_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="dual- vs single-channel input study")
    p.add_argument("--manifest", required=True)
    p.add_argument("--rate", type=int, choices=_RATE_CHOICES, default=8000)
    p.add_argument("--out-dir", required=True)
    _add_train_flags(p)
    _add_split_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("profile", help="FLOPs/space table for all rate variants")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("detect", help="continuous detection over one WAV file")
    p.add_argument("--wav", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="NDJSON path (default: stdout)")
    p.add_argument("--threshold", type=_finite_float, default=0.5)
    p.set_defaults(func=cmd_detect)

    return parser


_BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_value(parser: argparse.ArgumentParser, a: argparse.Action, text: str):
    """A config file entry converted and checked as its flag would be."""
    if isinstance(a.const, bool):  # a store_true switch
        if text.lower() not in _BOOLEAN_WORDS:
            parser.error(f"--config: {a.dest} wants true or false, not {text!r}")
        return _BOOLEAN_WORDS[text.lower()]
    try:
        value = a.type(text) if a.type is not None else text
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"--config: invalid {a.dest} value {text!r}: {exc}")
    if a.choices is not None and value not in a.choices:
        choices = ", ".join(map(str, a.choices))
        parser.error(f"--config: {a.dest} value {text!r} is not one of {choices}")
    return value


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    # --config as the top-level parser reads it, in every spelling argparse
    # accepts (--config PATH, --config=PATH, --conf PATH); from the command on,
    # every argument is the command's
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    pre.add_argument("command", nargs=argparse.REMAINDER)
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"--config: cannot read {path}: {exc}")
    overrides = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        overrides[key.strip().replace("-", "_")] = value.strip()
    subparsers = parser._subparsers._group_actions[0].choices.values()  # noqa: SLF001
    known = {a.dest for p in subparsers for a in p._actions}  # noqa: SLF001
    unknown = sorted(set(overrides) - known)
    if unknown:
        parser.error(f"--config: {path}: no flag takes {', '.join(unknown)}")
    for action in subparsers:
        typed = {}
        for a in action._actions:  # noqa: SLF001
            if a.dest in overrides:
                typed[a.dest] = _config_value(parser, a, overrides[a.dest])
        action.set_defaults(**typed)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    split = [getattr(args, f"{name}_users", ()) for name in ("train", "val", "test")]
    if any(split) and not all(split):
        parser.error("provide all three of --train-users/--val-users/--test-users")
    try:
        return args.func(args)
    except (AnccoughError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
