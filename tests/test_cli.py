"""Command-line surface tests, run in-process through main()."""

import json
import threading

import numpy as np
import pytest

from anccough import net
from anccough.cli import main
from anccough.model_io import load_model, save_model
from anccough.synth import read_manifest
from conftest import spy_thread_starts, write_pcm16_wav


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_synth_writes_manifest_and_run_config(tmp_path):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--users", "1", "--seed", "3"]) == 0
    manifest = read_manifest(out / "manifest.json")
    assert len(manifest.entries) == 30
    run_cfg = json.loads((out / "run_config.json").read_text())
    assert run_cfg == {"command": "synth", "users": 1, "seed": 3}


def test_synth_deterministic_trees(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), "--users", "1", "--seed", "7"]) == 0
    assert main(["synth", "--out", str(b), "--users", "1", "--seed", "7"]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_synth_zero_users_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "x"), "--users", "0"])
    assert exc.value.code == 2


def test_train_invalid_rate_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", "whatever", "--rate", "11025",
              "--out", str(tmp_path / "m.ecn1")])
    assert exc.value.code == 2


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_profile_stdout_and_file(tmp_path, capsys):
    assert main(["profile"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "rate_khz,flops_m,space_kb"
    assert len(lines) == 5
    path = tmp_path / "table.csv"
    assert main(["profile", "--out", str(path)]) == 0
    assert path.read_text().strip().splitlines() == lines


def test_detect_on_silence_emits_nothing(tmp_path, capsys):
    from anccough import wavio

    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=0)
    model_path = tmp_path / "m.ecn1"
    save_model(spec, params, model_path)
    wav_path = tmp_path / "quiet.wav"
    rng = np.random.default_rng(0)
    wavio.write_wav(wav_path, (1e-4 * rng.standard_normal((16000, 2))).astype(np.float32),
                    8000, encoding="float32")
    out_path = tmp_path / "events.ndjson"
    code = main(["detect", "--wav", str(wav_path), "--model", str(model_path),
                 "--out", str(out_path), "--threshold", "1.01"])
    assert code == 0
    assert out_path.read_text() == ""


def test_detect_decimates_input(tmp_path):
    from anccough import wavio

    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=1)
    model_path = tmp_path / "m.ecn1"
    save_model(spec, params, model_path)
    wav_path = tmp_path / "x48.wav"
    rng = np.random.default_rng(1)
    wavio.write_wav(wav_path, (0.2 * rng.standard_normal((96000, 2))).astype(np.float32),
                    48000)
    out_path = tmp_path / "events.ndjson"
    assert main(["detect", "--wav", str(wav_path), "--model", str(model_path),
                 "--out", str(out_path)]) == 0
    for line in out_path.read_text().splitlines():
        json.loads(line)


def test_detect_starts_no_thread_at_two_cpus(tmp_path, monkeypatch):
    from anccough import wavio

    wav_path = tmp_path / "x.wav"
    rng = np.random.default_rng(2)  # 12 windows: two scoring chunks at 8 kHz
    wavio.write_wav(wav_path, (0.2 * rng.standard_normal((48000, 2))).astype(np.float32), 8000)
    model_path = _detect_model(tmp_path)
    out_path = tmp_path / "events.ndjson"
    starts = spy_thread_starts(monkeypatch, {0, 1})
    assert main(["detect", "--wav", str(wav_path), "--model", str(model_path),
                 "--out", str(out_path), "--threshold", "0"]) == 0
    assert not starts
    assert [json.loads(line)["window_count"] for line in out_path.read_text().splitlines()] == [12]


def test_detect_at_48k_decimates_on_one_helper_and_scores_on_the_caller(tmp_path, monkeypatch):
    """At two CPUs, `detect` on a 48 kHz WAV starts one thread, for the
    decimation's block groups, and leaves none running; scoring runs on the
    calling thread alone."""
    from anccough import wavio

    wav_path = tmp_path / "x.wav"
    rng = np.random.default_rng(3)  # 3 s: four decimation block groups, six windows
    wavio.write_wav(wav_path, (0.2 * rng.standard_normal((144000, 2))).astype(np.float32),
                    48000)
    model_path = _detect_model(tmp_path)
    out_path = tmp_path / "events.ndjson"
    entered = []
    run_forward = net._run_forward

    def spy(*args):
        entered.append(threading.current_thread())
        return run_forward(*args)

    monkeypatch.setattr(net, "_run_forward", spy)
    starts = spy_thread_starts(monkeypatch, {0, 1})
    assert main(["detect", "--wav", str(wav_path), "--model", str(model_path),
                 "--out", str(out_path), "--threshold", "0"]) == 0
    assert len(starts) == 1 and not starts[0].is_alive()
    assert entered and set(entered) == {threading.current_thread()}
    assert [json.loads(line)["window_count"] for line in out_path.read_text().splitlines()] == [6]


def _detect_model(tmp_path):
    spec = net.default_spec(8000)
    model_path = tmp_path / "m.ecn1"
    save_model(spec, net.init_params(spec, seed=0), model_path)
    return model_path


def test_detect_on_a_wav_shorter_than_one_window(tmp_path):
    from anccough import wavio

    wav_path = tmp_path / "short.wav"
    wavio.write_wav(wav_path, np.full((3999, 2), 0.1, np.float32), 8000)
    out_path = tmp_path / "events.ndjson"
    assert main(["detect", "--wav", str(wav_path), "--model", str(_detect_model(tmp_path)),
                 "--out", str(out_path), "--threshold", "0"]) == 0
    assert out_path.read_text() == ""


@pytest.mark.parametrize("fault", ["odd-data-chunk", "nan-sample"])
def test_detect_on_a_bad_wav_is_exit_one(tmp_path, capsys, fault):
    from anccough import wavio

    wav_path = tmp_path / f"{fault}.wav"
    if fault == "odd-data-chunk":
        write_pcm16_wav(wav_path, bytes(4001))
    else:
        frames = np.zeros((8000, 2), np.float32)
        frames[100, 0] = np.nan
        wavio.write_wav(wav_path, frames, 8000, encoding="float32")
    code = main(["detect", "--wav", str(wav_path), "--model", str(_detect_model(tmp_path))])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {wav_path}: ") and "Traceback" not in err


def test_runtime_error_is_exit_one(tmp_path, capsys):
    code = main(["eval", "--manifest", str(tmp_path / "missing.json"),
                 "--model", str(tmp_path / "m.ecn1"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_zero_epochs_is_usage_error_and_writes_nothing(small_dataset, tmp_path, capsys):
    root, _ = small_dataset
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", str(root / "manifest.json"), "--rate", "8000",
              "--out", str(out_dir / "model.ecn1"), "--epochs", "0", "--copies", "0"])
    assert exc.value.code == 2
    assert "--epochs" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--epochs", "0"),
    ("train", "--batch-size", "0"),
    ("train", "--patience", "0"),
    ("train", "--lr", "-1"),
    ("train", "--lr", "0"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("ablate", "--batch-size", "-3"),
    ("eval", "--threshold", "inf"),
    ("detect", "--threshold", "nan"),
    ("synth", "--seed", "-1"),
    ("train", "--seed", "-1"),
    ("ablate", "--seed", "-2"),
    ("train", "--train-users", "0,x"),
    ("eval", "--test-users", "2,"),
    ("ablate", "--val-users", "1;2"),
])
def test_out_of_domain_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    """Rejected by argparse before any input is read: the named files do not exist."""
    inputs = {
        "synth": ["--out", "ds"],
        "train": ["--manifest", "m.json", "--out", "m.ecn1"],
        "ablate": ["--manifest", "m.json", "--out-dir", "out"],
        "eval": ["--manifest", "m.json", "--model", "m.ecn1", "--out-dir", "out"],
        "detect": ["--wav", "x.wav", "--model", "m.ecn1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *(str(tmp_path / a) if a[0] != "-" else a for a in inputs), flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and flag in err and "Traceback" not in err


def test_user_absent_from_the_manifest_is_exit_one(small_dataset, tmp_path, capsys):
    root, _ = small_dataset
    code = main(["train", "--manifest", str(root / "manifest.json"),
                 "--out", str(tmp_path / "m.ecn1"),
                 "--train-users", "0", "--val-users", "1", "--test-users", "9"])
    assert code == 1
    assert "absent from the manifest: [9]" in capsys.readouterr().err


def _split_command(command, root, tmp_path, train, val, test):
    out = {"train": ["--out", str(tmp_path / "m.ecn1"), "--epochs", "1", "--copies", "0"],
           "eval": ["--model", str(_detect_model(tmp_path)), "--out-dir", str(tmp_path / "out")]}
    return [command, "--manifest", str(root / "manifest.json"), *out[command],
            "--train-users", train, "--val-users", val, "--test-users", test]


@pytest.mark.parametrize("command,used", [("train", {0, 1}), ("eval", {2})])
def test_a_command_loads_only_the_users_it_uses(small_dataset, tmp_path, monkeypatch,
                                                command, used):
    from anccough import pipeline

    root, manifest = small_dataset
    loaded = []
    load_recording = pipeline.load_recording

    def spy_load(path):
        loaded.append(path)
        return load_recording(path)

    # helper threads never enter the module binding, so load on the caller alone
    monkeypatch.setattr("anccough.threads.thread_count", lambda: 1)
    monkeypatch.setattr(pipeline, "load_recording", spy_load)
    assert main(_split_command(command, root, tmp_path, "0", "1", "2")) == 0
    assert sorted(loaded) == sorted(root / e.wav_path for e in manifest.entries
                                    if e.user_id in used)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("flags", [("9", "1", "2"), ("0", "9", "2"), ("0", "1", "9")])
def test_a_split_user_absent_from_the_manifest_is_exit_one(small_dataset, tmp_path, capsys,
                                                           command, flags):
    root, _ = small_dataset
    assert main(_split_command(command, root, tmp_path, *flags)) == 1
    assert "absent from the manifest: [9]" in capsys.readouterr().err


def test_train_eval_round_trip(small_dataset, tmp_path, capsys):
    root, _ = small_dataset
    model_path = tmp_path / "model.ecn1"
    code = main([
        "train", "--manifest", str(root / "manifest.json"), "--rate", "8000",
        "--out", str(model_path), "--epochs", "1", "--patience", "1",
        "--copies", "0", "--seed", "1", "--class-weighting",
        "--train-users", "0", "--val-users", "1", "--test-users", "1",
    ])
    assert code == 1  # user 1 in two splits: overlapping sets fail cleanly
    code = main([
        "train", "--manifest", str(root / "manifest.json"), "--rate", "8000",
        "--out", str(model_path), "--epochs", "1", "--patience", "1",
        "--copies", "0", "--seed", "1", "--class-weighting",
    ])
    assert code == 0
    spec, _ = load_model(model_path)
    assert spec.sample_rate_hz == 8000
    history = (tmp_path / "model.ecn1.history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_acc1,val_f1_1"
    assert len(history) == 2  # one epoch ran

    out_dir = tmp_path / "metrics"
    code = main(["eval", "--manifest", str(root / "manifest.json"),
                 "--model", str(model_path), "--out-dir", str(out_dir)])
    assert code == 0
    doc = json.loads((out_dir / "metrics.json").read_text())
    assert set(doc) >= {"acc1", "f1_1", "acc2", "f1_2", "confusion"}
    assert (out_dir / "metrics.txt").exists()


def test_config_file_overrides_defaults(small_dataset, tmp_path):
    root, _ = small_dataset
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("epochs=1\npatience=1\ncopies=0\nseed=9\n")
    model_path = tmp_path / "m.ecn1"
    code = main(["--config", str(cfg_path), "train",
                 "--manifest", str(root / "manifest.json"),
                 "--rate", "8000", "--out", str(model_path)])
    assert code == 0
    run_cfg = json.loads((tmp_path / "m.ecn1.run.json").read_text())
    assert run_cfg["epochs"] == 1
    assert run_cfg["seed"] == 9


_MISSING = object()  # --config names a file that does not exist


@pytest.mark.parametrize("config_text", [None, "seed=abc\n", _MISSING, "seed=1\nbogus-key=3\n"],
                         ids=["no-path", "untyped-value", "missing-file", "unknown-key"])
def test_bad_config_is_usage_error(tmp_path, capsys, config_text):
    synth = ["synth", "--out", str(tmp_path / "ds")]
    if config_text is None:
        argv = synth + ["--config"]  # flag given last, without its path
    else:
        cfg_path = tmp_path / "run.cfg"
        if config_text is not _MISSING:
            cfg_path.write_text(config_text)
        argv = ["--config", str(cfg_path)] + synth
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "ds").exists()
    if config_text == "seed=1\nbogus-key=3\n":
        assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
                         ids=["separate", "equals", "abbreviated"])
def test_every_config_spelling_is_applied(tmp_path, spelling):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed=-1\n")
    argv = [a.format(cfg_path) for a in spelling] + ["synth", "--out", str(tmp_path / "ds"),
                                                     "--users", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("config_text,named", [
    ("optimizer=bogus\n", "optimizer"),
    ("rate=12345\n", "rate"),
    ("class_weighting=ture\n", "class_weighting"),
    ("copies=-1\n", "copies"),
    ("epochs=0\n", "epochs"),
    ("lr=nan\n", "lr"),
    ("lr=-0.1\n", "lr"),
    ("seed=-1\n", "seed"),
    ("train_users=0,x\n", "train_users"),
], ids=["unknown-choice", "rate-not-a-choice", "misspelt-boolean", "negative-copies",
        "zero-epochs", "nan-lr", "negative-lr", "negative-seed", "non-integer-user"])
def test_config_values_get_their_flags_checks(tmp_path, capsys, config_text, named):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg_path), "train", "--manifest", str(tmp_path / "manifest.json"),
              "--out", str(tmp_path / "m.ecn1")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and named in err and "Traceback" not in err


@pytest.mark.parametrize("flags,config_text", [
    (["--train-users", "0"], None),
    (["--train-users", "0", "--val-users", "1", "--test-users", ""], None),
    ([], "val_users=1\n"),
    (["--test-users", "2"], "train-users=0\n"),
], ids=["train-only", "empty-test", "config-val-only", "config-and-flag"])
def test_a_partial_split_is_a_usage_error(tmp_path, capsys, flags, config_text):
    argv = ["train", "--manifest", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "m.ecn1"), *flags]
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
        argv = ["--config", str(tmp_path / "run.cfg"), *argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert [line for line in err.splitlines() if "error:" in line] == [
        "anccough: error: provide all three of --train-users/--val-users/--test-users"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["run.cfg"] if config_text is not None else [])


def test_negative_copies_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", str(tmp_path / "manifest.json"),
              "--out", str(tmp_path / "m.ecn1"), "--copies", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "--copies" in err and "Traceback" not in err
    assert not (tmp_path / "m.ecn1.run.json").exists()


@pytest.mark.parametrize("doc,field", [
    ({}, "'format_version'"),
    ([], "list"),
    ({"entries": [{}], "seed": 0, "format_version": 1}, "entries[0]: missing field 'wav_path'"),
    ({"entries": "abc", "seed": 0, "format_version": 1}, "'entries' is str"),
    ({"entries": [], "seed": 0, "format_version": 2}, "format_version 2"),
], ids=["empty-object", "array", "empty-entry", "string-entries", "unknown-version"])
def test_malformed_manifest_is_exit_one(tmp_path, capsys, doc, field):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    code = main(["train", "--manifest", str(path), "--out", str(tmp_path / "m.ecn1"),
                 "--copies", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ") and field in err and "Traceback" not in err


def test_malformed_annotation_line_is_exit_one(tmp_path, capsys):
    from anccough import wavio
    from anccough.synth import DatasetManifest, ManifestEntry, write_manifest

    entries = []
    for user in range(3):
        wavio.write_wav(tmp_path / f"u{user}.wav", np.zeros((8000, 2), np.float32), 8000)
        (tmp_path / f"u{user}.tsv").write_text("0.100000\t0.400000\tsip_water\n")
        entries.append(ManifestEntry(f"u{user}.wav", f"u{user}.tsv", user, "quiet", "sitting"))
    bad = tmp_path / "u0.tsv"
    bad.write_text("0.100000\t0.400000\tsip_water\n0.500000\t0.900000\n")
    write_manifest(DatasetManifest(tuple(entries), seed=0), tmp_path / "manifest.json")
    code = main(["train", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path / "m.ecn1"), "--copies", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {bad}: line 2: ") and "Traceback" not in err


@pytest.mark.parametrize("flags,message", [
    ([], "need at least 3 users for a train/val/test split"),
    (["--train-users", "0", "--val-users", "1", "--test-users", "5"],
     "split names users absent from the manifest: [5]"),
], ids=["two-users", "absent-user"])
def test_a_split_the_manifest_cannot_fill_is_exit_one(tmp_path, capsys, flags, message):
    from anccough.synth import DatasetManifest, ManifestEntry, write_manifest

    entries = tuple(ManifestEntry(f"u{u}.wav", f"u{u}.tsv", u, "quiet", "sitting")
                    for u in (0, 1))
    write_manifest(DatasetManifest(entries, seed=0), tmp_path / "manifest.json")
    code = main(["train", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path / "m.ecn1"), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {message}\n"
