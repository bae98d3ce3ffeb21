"""Hostile-input properties: each file reader returns a valid result or raises
an AnccoughError, whatever bytes it is given, and any --config file either
runs or is a usage error.

Inputs are arbitrary bytes, arbitrary text, and byte mutations and truncations
of a valid file. Example counts come from the profile in conftest.py.
"""

import contextlib
import io
import json
import math
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from anccough import net, wavio
from anccough.cli import main
from anccough.dsp import SUPPORTED_RATES, DualChannelRecording, load_recording
from anccough.errors import AnccoughError, InvalidSpec
from anccough.model_io import load_model, save_model
from anccough.synth import (
    EVENT_LABELS,
    AnnotatedSegment,
    DatasetManifest,
    ManifestEntry,
    read_annotations,
    read_manifest,
)


def _mutate(valid: bytes, edits: list[tuple[int, int]], keep: int) -> bytes:
    out = bytearray(valid)
    for at, value in edits:
        out[at % len(out)] = value
    return bytes(out[:keep])


def hostile(valid: bytes) -> st.SearchStrategy[bytes]:
    """Arbitrary bytes, UTF-8 text, or `valid` with a few bytes replaced and
    its tail possibly cut."""
    mutants = st.builds(
        _mutate, st.just(valid),
        st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), max_size=4),
        st.integers(0, len(valid)),
    )
    return st.one_of(st.binary(max_size=256), st.text(max_size=256).map(str.encode), mutants)


def _reads(path, data: bytes, reader):
    path.write_bytes(data)
    try:
        return reader(path)
    except AnccoughError:
        return None


# --- manifest ---

VALID_MANIFEST = {
    "format_version": 1,
    "seed": 3,
    "entries": [
        {"wav_path": f"user0{u}/quiet/00_walking.wav",
         "annotation_path": f"user0{u}/quiet/00_walking.tsv",
         "user_id": u, "environment": "quiet", "posture": "walking"}
        for u in range(2)
    ],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def retyped_manifests(draw) -> bytes:
    """The valid manifest with one field, top-level or in an entry, set to an
    arbitrary JSON value or deleted."""
    doc = json.loads(json.dumps(VALID_MANIFEST))
    target = draw(st.sampled_from([doc, *doc["entries"]]))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(json_values)
    return json.dumps(doc).encode()


@given(data=hostile(json.dumps(VALID_MANIFEST).encode()) | retyped_manifests())
def test_read_manifest_parses_or_raises(tmp_path_factory, data):
    manifest = _reads(tmp_path_factory.getbasetemp() / "manifest.json", data, read_manifest)
    if manifest is not None:
        assert isinstance(manifest, DatasetManifest)
        assert manifest.format_version == 1 and type(manifest.seed) is int
        for e in manifest.entries:
            assert isinstance(e, ManifestEntry) and type(e.user_id) is int
            assert all(isinstance(v, str)
                       for v in (e.wav_path, e.annotation_path, e.environment, e.posture))


# --- annotations ---

VALID_TSV = ("0.500000\t0.884000\tsingle_cough_sitting\n"
             "1.250000\t2.416000\tenvironmental_cough\n").encode()


@given(data=hostile(VALID_TSV))
def test_read_annotations_parses_or_raises(tmp_path_factory, data):
    segments = _reads(tmp_path_factory.getbasetemp() / "a.tsv", data, read_annotations)
    for s in segments or []:
        assert isinstance(s, AnnotatedSegment) and s.label in EVENT_LABELS
        assert 0 <= s.start_s < s.end_s and math.isfinite(s.end_s)


# --- WAV ---

def _wav_bytes(encoding: str) -> bytes:
    frames = (0.3 * np.random.default_rng(1).standard_normal((24, 2))).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.wav"
        wavio.write_wav(path, frames, 8000, encoding=encoding)
        return path.read_bytes()


@given(data=hostile(_wav_bytes("int16")) | hostile(_wav_bytes("float32")))
def test_read_wav_and_load_recording_parse_or_raise(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "x.wav"
    decoded = _reads(path, data, wavio.read_wav)
    if decoded is not None:
        frames, rate = decoded
        assert frames.dtype == np.float32 and frames.ndim == 2 and frames.shape[1] >= 1
        assert isinstance(rate, int)
    rec = _reads(path, data, load_recording)
    if rec is not None:
        assert isinstance(rec, DualChannelRecording) and rec.sample_rate_hz in SUPPORTED_RATES
        assert np.isfinite(rec.data).all()


# --- model files ---

def _model_bytes() -> bytes:
    spec = net.reduced_spec(64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.ecn1"
        save_model(spec, net.init_params(spec, seed=5), path)
        return path.read_bytes()


def _with_crc(data: bytes) -> bytes:
    """The body of `data` (all but its last four bytes) with a matching CRC."""
    body = data[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def _with_float(valid: bytes, word: int, value: float) -> bytes:
    """`valid` with the word-th four bytes before its CRC set to `value`; the
    words line up with the weights, which end where the CRC starts."""
    out = bytearray(valid)
    struct.pack_into("<f", out, len(out) - 8 - 4 * word, value)
    return _with_crc(bytes(out))


VALID_MODEL = _model_bytes()


def _check_load_model(path, data):
    loaded = _reads(path, data, load_model)
    if loaded is not None:
        spec, params = loaded
        assert isinstance(spec, net.ModelSpec)
        net.validate_params(spec, params)
        assert all(p.dtype == np.float32 for p in params)


@given(data=hostile(VALID_MODEL) | hostile(VALID_MODEL).map(_with_crc))
def test_load_model_parses_or_raises(tmp_path_factory, data):
    _check_load_model(tmp_path_factory.getbasetemp() / "m.ecn1", data)


@given(word=st.integers(0, (len(VALID_MODEL) - 8) // 4),
       value=st.floats(width=32) | st.sampled_from([math.nan, math.inf, -math.inf]))
def test_load_model_with_any_weight_value_parses_or_raises(tmp_path_factory, word, value):
    """One word, most often a weight, set to any float32 under a matching CRC."""
    _check_load_model(tmp_path_factory.getbasetemp() / "m.ecn1",
                      _with_float(VALID_MODEL, word, value))


# --- layer tables ---

# sizes start at 1 and Conv1d is drawn twice as often as each other kind, so
# more edited tables validate (test_net covers sizes below 1)
sizes = st.integers(1, 6)
conv1d = st.builds(net.Conv1d, sizes, sizes, sizes)
layers = st.one_of(
    conv1d, conv1d, st.builds(net.Conv2d, sizes, sizes, sizes), st.builds(net.MaxPool, sizes),
    st.just(net.GlobalAvgPool()), st.builds(net.Dense, sizes))
edits = st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 15), layers)


@given(edits=st.lists(edits, max_size=3))
def test_a_spec_that_validates_can_score(edits):
    """Up to three layer edits to the reduced spec's table: the spec is either
    rejected when built or scores a batch to finite probabilities."""
    table = list(net.reduced_spec(64).layers)
    for op, at, layer in edits:
        at %= len(table) + (op == "insert")
        if op == "insert":
            table.insert(at, layer)
        elif op == "replace":
            table[at] = layer
        elif len(table) > 1:
            del table[at]
    try:
        spec = net.ModelSpec(128, tuple(table))
    except InvalidSpec:
        return
    probs = net.forward_batch(spec, net.init_params(spec, seed=0), np.zeros((3, *spec.input_shape)))
    assert probs.shape == (3, 2) and np.isfinite(probs).all()


# --- --config files ---

# Every flag of every subcommand, some spelt with dashes, but not --out: the
# command line below sets it, so profile's CSV goes to a temporary file.
CONFIG_KEYS = (
    "users", "seed", "manifest", "rate", "checkpoint-dir", "noise_dir", "epochs",
    "batch-size", "lr", "optimizer", "patience", "copies", "class_weighting",
    "train-users", "val_users", "test-users", "model", "out-dir", "threshold", "wav", "help",
)

config_lines = st.text(max_size=40) | st.builds(
    "{}={}".format, st.sampled_from(CONFIG_KEYS), st.text(max_size=12))


@given(text=st.lists(config_lines, max_size=6).map("\n".join))
def test_any_config_file_runs_or_is_a_usage_error(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    config = base / "run.cfg"
    config.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["--config", str(config), "profile", "--out", str(base / "p.csv")])
        except SystemExit as exc:
            code = exc.code
    assert code == 0 or (code == 2 and "error:" in err.getvalue())
