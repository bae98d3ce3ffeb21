"""Model file format tests: bit-exact round trip and corruption rejection."""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from anccough import net
from anccough.errors import (
    AnccoughError,
    BadMagic,
    CrcMismatch,
    InvalidSpec,
    NonFiniteWeights,
    TruncatedFile,
    UnsupportedVersion,
)
from anccough.model_io import (
    _HEADER_STRUCT,
    _LAYER_STRUCT,
    _layer_record,
    load_model,
    save_model,
)
from conftest import GAP_IN_BLOCK_ONE


@pytest.fixture()
def saved(tmp_path):
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=42)
    path = tmp_path / "model.ecn1"
    save_model(spec, params, path)
    return spec, params, path


def test_round_trip_bit_exact(saved):
    spec, params, path = saved
    spec2, params2 = load_model(path)
    assert spec2 == spec
    for a, b in zip(params, params2):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


def test_default_spec_round_trip(tmp_path):
    spec = net.default_spec(16000)
    params = net.init_params(spec, seed=1)
    path = tmp_path / "m.ecn1"
    save_model(spec, params, path)
    spec2, params2 = load_model(path)
    assert spec2 == spec
    assert all(np.array_equal(a, b) for a, b in zip(params, params2))


def test_bad_magic(saved):
    _, _, path = saved
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_model(path)


def test_flipped_weight_byte_fails_crc(saved):
    _, _, path = saved
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # inside the weight region
    path.write_bytes(bytes(raw))
    with pytest.raises(CrcMismatch):
        load_model(path)


def test_truncated_header(saved):
    _, _, path = saved
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TruncatedFile):
        load_model(path)


def test_truncated_weights(saved):
    _, _, path = saved
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 200])
    with pytest.raises(TruncatedFile):
        load_model(path)


def test_trailing_garbage_rejected(saved):
    _, _, path = saved
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(TruncatedFile):
        load_model(path)


def _rewrite_with_crc(path, edit):
    """Apply edit(raw) to the body of a model file and store a matching CRC."""
    raw = bytearray(path.read_bytes()[:-4])
    edit(raw)
    path.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(raw)))


def _set_layer_field(layer, field, value):
    def edit(raw):
        at = _HEADER_STRUCT.size + layer * _LAYER_STRUCT.size
        record = list(_LAYER_STRUCT.unpack_from(raw, at))
        record[field] = value
        _LAYER_STRUCT.pack_into(raw, at, *record)
    return edit


@pytest.mark.parametrize("field,value", [(3, 0), (0, 9)], ids=["stride-0", "unknown-kind"])
def test_invalid_layer_with_valid_crc_rejected(saved, field, value):
    _, _, path = saved
    _rewrite_with_crc(path, _set_layer_field(0, field, value))  # the 2-D conv
    with pytest.raises(InvalidSpec) as exc:
        load_model(path)
    assert isinstance(exc.value, AnccoughError) and isinstance(exc.value, ValueError)
    assert str(path) in str(exc.value) and "layer 0" in str(exc.value)


@pytest.mark.parametrize("layer,field,value", [(3, 3, 0), (5, 0, 9), (2, 1, 5000)],
                         ids=["stride-0", "unknown-kind", "pool-empties-activation"])
def test_layer_table_error_names_file_and_layer(saved, layer, field, value):
    _, _, path = saved
    _rewrite_with_crc(path, _set_layer_field(layer, field, value))
    with pytest.raises(InvalidSpec) as exc:
        load_model(path)
    assert str(path) in str(exc.value)
    assert f"layer {layer}" in str(exc.value)


def test_a_global_pool_closing_block_one_is_rejected_on_load(tmp_path):
    """Every record and the CRC are valid; the topology check names the file."""
    body = bytearray(_HEADER_STRUCT.pack(b"ECN1", 1, 0, 128, len(GAP_IN_BLOCK_ONE)))
    for layer in GAP_IN_BLOCK_ONE:
        body += _LAYER_STRUCT.pack(*_layer_record(layer))
    body += bytes(4 * 426)  # the weights and biases the table's shapes call for, all zero
    path = tmp_path / "gap.ecn1"
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(InvalidSpec) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: layers [Conv2d GlobalAvgPool Conv1d ")


def test_unsupported_version_is_typed(saved):
    _, _, path = saved
    _rewrite_with_crc(path, lambda raw: struct.pack_into("<H", raw, 4, 2))
    with pytest.raises(UnsupportedVersion) as exc:
        load_model(path)
    assert isinstance(exc.value, AnccoughError) and isinstance(exc.value, ValueError)
    assert str(path) in str(exc.value) and "version 2" in str(exc.value)


@pytest.mark.parametrize("array,index,value", [(0, 0, float("nan")), (3, 1, float("-inf"))])
def test_non_finite_weight_is_typed_and_located(saved, array, index, value):
    spec, params, path = saved
    at = (_HEADER_STRUCT.size + len(spec.layers) * _LAYER_STRUCT.size
          + 4 * sum(p.size for p in params[:array]) + 4 * index)
    _rewrite_with_crc(path, lambda raw: struct.pack_into("<f", raw, at, value))
    with pytest.raises(NonFiniteWeights) as exc:
        load_model(path)
    assert isinstance(exc.value, AnccoughError) and isinstance(exc.value, ValueError)
    assert str(path) in str(exc.value)
    assert f"array {array} " in str(exc.value) and f"offset {at}" in str(exc.value)


@pytest.mark.parametrize("array,index,value", [(0, 0, float("nan")), (2, 17, float("inf"))])
def test_saving_a_non_finite_weight_is_typed_and_writes_nothing(tmp_path, array, index, value):
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=42)
    params[array].flat[index] = value
    path = tmp_path / "model.ecn1"
    with pytest.raises(NonFiniteWeights) as exc:
        save_model(spec, params, path)
    assert isinstance(exc.value, AnccoughError) and isinstance(exc.value, ValueError)
    assert f"array {array} " in str(exc.value) and f"flat index {index}" in str(exc.value)
    assert not path.exists()


def test_empty_file(saved):
    _, _, path = saved
    path.write_bytes(b"")
    with pytest.raises(TruncatedFile):
        load_model(path)


def test_param_count_equals_serialized_lengths(saved):
    spec, params, _ = saved
    from anccough.profile import profile

    assert profile(spec).param_count == sum(p.size for p in params)


# SHA-256 over the saved bytes of the default spec at each supported rate and
# of the reduced spec, each with init_params at seed i (its place in that
# list); moves only if the layer table, weight layout or CRC bytes move.
ECN1_DIGEST = "49850fe571c853da94d78363b1a0d9ea52d09219d8df2ac500ac5249f9218124"


def test_model_file_bytes_are_pinned(tmp_path):
    specs = [net.default_spec(rate) for rate in (8000, 16000, 24000, 48000)]
    h = hashlib.sha256()
    for seed, spec in enumerate(specs + [net.reduced_spec(64)]):
        path = tmp_path / f"{seed}.ecn1"
        save_model(spec, net.init_params(spec, seed=seed), path)
        h.update(path.read_bytes())
    assert h.hexdigest() == ECN1_DIGEST
