"""Network engine tests: architecture rules, forward contracts, gradients.

Finite differences are only a valid oracle where the loss is smooth, so every
probe verifies that the rectifier/pool activation pattern is unchanged at
theta +/- eps; when the pattern flips, the probe retries at a smaller step.
All gradient checks run the engine in float64.
"""

import hashlib
import threading

import numpy as np
import pytest

from anccough import net
from anccough.errors import InvalidSpec, ShapeMismatch, UnsupportedRate
from anccough.net import (
    Conv1d,
    Dense,
    GlobalAvgPool,
    MaxPool,
    ModelSpec,
    _conv_backward,
    _conv_forward,
    _conv_weight_grads,
    _layer_forward,
    _layer_plan,
    _maxpool_backward,
    _maxpool_forward,
    _run_forward,
    _softmax,
)
from conftest import GAP_IN_BLOCK_ONE, spy_thread_starts

EPS_LADDER = (1e-3, 1e-5, 1e-6)


def _conv_grads(dout, xp, w, stride, in_len, need_dx=True):
    """(dx, dw, db) of one conv layer over a whole batch, on one thread."""
    prods = np.empty((w.shape[2], len(dout)) + w.shape[:2], dtype=w.dtype)
    dx = _conv_backward(dout, xp, w, stride, in_len, prods, need_dx)
    return (dx, *_conv_weight_grads(dout, prods))


def _zero_params(spec, dtype=np.float32):
    return [np.zeros(shape, dtype=dtype) for shape in net.param_shapes(spec)]


def _rand_params(spec, seed):
    rng = np.random.default_rng(seed)
    params = net.init_params(spec, seed=seed, dtype=np.float64)
    for i in range(1, len(params), 2):
        params[i] = rng.normal(0.0, 0.05, params[i].shape)
    return params, rng


def _activation_signature(spec, params, x):
    _, cache = _run_forward(_layer_plan(spec, params), x[None], keep_cache=True)
    parts = []
    for entry in cache:
        if entry[0] == "conv":
            parts.append(entry[5].tobytes())
        elif entry[0] == "pool":
            parts.append(entry[1].tobytes())
        elif entry[0] == "dense" and entry[3] is not None:
            parts.append(entry[3].tobytes())
    return b"".join(parts)


def full_model_fd_check(spec, seed, probes_per_array=10):
    """Max relative FD error over sampled components; kink-guarded probes."""
    params, rng = _rand_params(spec, seed)
    x = rng.standard_normal(spec.input_shape)
    labels = np.array([rng.integers(0, 2)])
    _, grads = net.loss_and_grads(spec, params, x[None], labels)
    sig0 = _activation_signature(spec, params, x)
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        idx = rng.choice(len(flat_p), size=min(probes_per_array, len(flat_p)),
                         replace=False)
        for j in idx:
            orig = flat_p[j]
            for eps in EPS_LADDER:
                flat_p[j] = orig + eps
                sig_p = _activation_signature(spec, params, x)
                loss_p, _ = net.loss_and_grads(spec, params, x[None], labels)
                flat_p[j] = orig - eps
                sig_m = _activation_signature(spec, params, x)
                loss_m, _ = net.loss_and_grads(spec, params, x[None], labels)
                flat_p[j] = orig
                if sig_p == sig0 and sig_m == sig0:
                    break
            else:
                continue  # nondifferentiable at every step size; skip component
            fd = (loss_p - loss_m) / (2 * eps)
            an = flat_g[j]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    return worst


# --- architecture rules ---

def test_default_spec_structure_and_rates():
    spec = net.default_spec(8000)
    assert spec.input_shape == (2, 4000)
    with pytest.raises(UnsupportedRate):
        net.default_spec(44100)


def test_spec_validation_rejects_bad_topologies():
    good = net.default_spec(8000)
    with pytest.raises(ValueError):
        ModelSpec(8000, good.layers[1:])  # conv2d missing
    with pytest.raises(ValueError):
        ModelSpec(8000, good.layers[:-1])  # only two dense layers
    with pytest.raises(ValueError):
        ModelSpec(8000, good.layers[:-1] + (Dense(3),))  # final width not 2
    with pytest.raises(ValueError):
        # five convolution blocks
        extra = (Conv1d(8), MaxPool(2))
        ModelSpec(8000, good.layers[:-3] + extra + good.layers[-3:])
    # a global average pool closing block one, which would crash the next conv
    with pytest.raises(InvalidSpec, match=r"\[Conv2d GlobalAvgPool Conv1d .*\] break the fixed "
                                          r"topology: four conv blocks"):
        ModelSpec(128, GAP_IN_BLOCK_ONE)
    # a size below 1, or a layer that shrinks the time axis to nothing, is
    # rejected when the spec is built, not at its first forward
    layers = list(good.layers)
    layers[2] = MaxPool(5000)
    with pytest.raises(InvalidSpec, match="layer 2 .*length 0"):
        ModelSpec(8000, tuple(layers))
    for at, bad in ((1, Conv1d(12, stride=0)), (1, Conv1d(12, kernel=0)), (1, Conv1d(0)),
                    (2, MaxPool(0)), (-3, Dense(0))):
        layers = list(good.layers)
        layers[at] = bad
        with pytest.raises(InvalidSpec):
            ModelSpec(8000, tuple(layers))


def test_param_count_matches_closed_form():
    spec = net.default_spec(8000)
    # independent arithmetic: sum over layers of weights + biases
    expect = (
        (12 * 2 * 9 + 12)
        + (12 * 12 * 9 + 12)
        + (16 * 12 * 9 + 16)
        + (16 * 16 * 9 + 16)
        + (24 * 16 * 9 + 24)
        + (24 * 24 * 9 + 24)
        + (32 * 24 * 9 + 32)
        + (32 * 32 * 9 + 32)
        + (32 * 32 + 32)
        + (16 * 32 + 16)
        + (2 * 16 + 2)
    )
    got = sum(int(np.prod(s)) for s in net.param_shapes(spec))
    assert got == expect == 32098


# --- forward contracts ---

def test_forward_probabilities_sum_to_one():
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        p0, p1 = net.forward(spec, params, rng.standard_normal(spec.input_shape))
        assert abs(p0 + p1 - 1.0) < 1e-6
        assert p0 >= 0 and p1 >= 0


def test_forward_zero_params_is_uniform():
    spec = net.reduced_spec(64)
    params = _zero_params(spec)
    x = np.random.default_rng(1).standard_normal(spec.input_shape)
    assert net.forward(spec, params, x) == (0.5, 0.5)


def test_forward_deterministic():
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=5)
    x = np.random.default_rng(2).standard_normal(spec.input_shape).astype(np.float32)
    assert net.forward(spec, params, x) == net.forward(spec, params, x)


def test_forward_shape_mismatch():
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=0)
    with pytest.raises(ShapeMismatch):
        net.forward(spec, params, np.zeros((2, 65)))


# --- loss / gradient closed forms ---

def test_loss_at_zero_params_is_ln2():
    spec = net.reduced_spec(64)
    params = _zero_params(spec, np.float64)
    x = np.random.default_rng(4).standard_normal(spec.input_shape)
    loss, _ = net.loss_and_grads(spec, params, x[None], np.array([net.CLASS_SUBJECT]))
    assert abs(loss - np.log(2)) < 1e-9


def test_final_bias_gradient_at_zero_params():
    spec = net.reduced_spec(64)
    params = _zero_params(spec, np.float64)
    x = np.random.default_rng(5).standard_normal(spec.input_shape)
    _, grads = net.loss_and_grads(spec, params, x[None], np.array([net.CLASS_SUBJECT]))
    assert np.allclose(grads[-1], [-0.5, 0.5])
    _, grads = net.loss_and_grads(spec, params, x[None], np.array([net.CLASS_OTHER]))
    assert np.allclose(grads[-1], [0.5, -0.5])


def test_loss_and_grads_reject_a_batch_that_does_not_fit():
    """Windows at another rate, or labels or weights of another length than
    the batch, raise before any work."""
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=0)
    x = np.zeros((4,) + spec.input_shape, np.float32)
    labels = np.zeros(4, int)
    with pytest.raises(ShapeMismatch, match="batch shape"):
        net.loss_and_grads(spec, params, np.zeros((4, 2, 8000), np.float32), labels)
    for bad in (labels[:1], np.zeros(5, int)):
        with pytest.raises(ShapeMismatch, match="labels for a batch of 4"):
            net.loss_and_grads(spec, params, x, bad)
    with pytest.raises(ShapeMismatch, match="3 sample_weight for a batch of 4"):
        net.loss_and_grads(spec, params, x, labels, np.ones(3))


# --- per-layer finite differences ---

def _fd_on(x, loss_fn, grad, eps=1e-6, probes=50, seed=0):
    rng = np.random.default_rng(seed)
    flat_x, flat_g = x.ravel(), grad.ravel()
    worst = 0.0
    for j in rng.choice(len(flat_x), size=min(probes, len(flat_x)), replace=False):
        orig = flat_x[j]
        flat_x[j] = orig + eps
        lp = loss_fn()
        flat_x[j] = orig - eps
        lm = loss_fn()
        flat_x[j] = orig
        fd = (lp - lm) / (2 * eps)
        worst = max(worst, abs(fd - flat_g[j]) / max(abs(fd), abs(flat_g[j]), 1e-6))
    return worst


# (stride, input channels, kernel width, input length); the first two keep
# their historical ids
CONV_SHAPES = [
    pytest.param(1, 3, 5, 20, id="1-3"),
    pytest.param(2, 2, 5, 20, id="2-2"),
    pytest.param(1, 3, 4, 20, id="even-kernel"),
    pytest.param(3, 2, 5, 20, id="stride-3-ragged"),
    pytest.param(1, 1, 5, 20, id="one-channel"),
]


@pytest.mark.parametrize("stride,in_ch,k,length", CONV_SHAPES)
def test_conv_layer_gradients(stride, in_ch, k, length):
    rng = np.random.default_rng(10 + stride)
    x = rng.standard_normal((2, in_ch, length))
    w = rng.standard_normal((4, in_ch, k))
    b = rng.standard_normal(4)
    out, _ = _conv_forward(x, w, b, stride)
    dout = rng.standard_normal(out.shape)

    def loss():
        o, _ = _conv_forward(x, w, b, stride)
        return float((o * dout).sum())

    _, xp = _conv_forward(x, w, b, stride)
    dx, dw, db = _conv_grads(dout, xp, w, stride, x.shape[2])
    assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
    assert _fd_on(x, loss, dx) < 1e-4
    assert _fd_on(w, loss, dw) < 1e-4
    assert _fd_on(b, loss, db) < 1e-4


@pytest.mark.parametrize("stride,in_ch,k,length", CONV_SHAPES)
def test_conv_forward_matches_naive_loop(stride, in_ch, k, length):
    rng = np.random.default_rng(50 + k)
    x = rng.standard_normal((3, in_ch, length))
    w = rng.standard_normal((4, in_ch, k))
    b = rng.standard_normal(4)
    pad = (k - 1) // 2
    t = (length + 2 * pad - k) // stride + 1
    expect = np.empty((3, 4, t))
    for n in range(3):
        for o in range(4):
            for p in range(t):
                acc = b[o]
                for c in range(in_ch):
                    for tap in range(k):
                        i = p * stride + tap - pad
                        if 0 <= i < length:
                            acc += w[o, c, tap] * x[n, c, i]
                expect[n, o, p] = acc
    out, _ = _conv_forward(x, w, b, stride)
    assert out.shape == expect.shape
    assert np.abs(out - expect).max() < 1e-10


def test_maxpool_gradients():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 3, 17))
    out, _ = _maxpool_forward(x, 4)
    dout = rng.standard_normal(out.shape)

    def loss():
        o, _ = _maxpool_forward(x, 4)
        return float((o * dout).sum())

    _, am = _maxpool_forward(x, 4)
    dx = _maxpool_backward(dout, am, 4, x.shape[2])
    assert _fd_on(x, loss, dx) < 1e-4


def test_maxpool_matches_reduction_and_keeps_first_of_ties():
    rng = np.random.default_rng(21)
    x = np.maximum(rng.standard_normal((3, 4, 23)), 0)  # rectified: many tied zeros
    x[0, 0, 4:8] = 0.5  # a run of equal positive maxima
    for width in (1, 2, 4, 5):
        t = x.shape[2] // width
        xr = x[:, :, :t * width].reshape(3, 4, t, width)
        out, argmax = _maxpool_forward(x, width)
        assert np.array_equal(out, xr.max(axis=3))
        assert np.array_equal(argmax, xr.argmax(axis=3))
        out_only, none = _maxpool_forward(x, width, with_argmax=False)
        assert np.array_equal(out_only, out) and none is None


def test_gap_and_dense_gradients():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((3, 5, 8))
    dgap = rng.standard_normal((3, 5))

    def loss_gap():
        return float((x.mean(axis=2) * dgap).sum())

    dx = np.repeat(dgap[:, :, None], 8, axis=2) / 8
    assert _fd_on(x, loss_gap, dx) < 1e-4

    h = rng.standard_normal((3, 5))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(4)
    dd = rng.standard_normal((3, 4))

    def loss_dense():
        return float(((h @ w.T + b) * dd).sum())

    assert _fd_on(h, loss_dense, dd @ w) < 1e-4
    assert _fd_on(w, loss_dense, dd.T @ h) < 1e-4
    assert _fd_on(b, loss_dense, dd.sum(axis=0)) < 1e-4


def test_softmax_xent_gradient():
    rng = np.random.default_rng(40)
    z = rng.standard_normal((4, 2))
    y = np.array([0, 1, 1, 0])

    def loss():
        p = _softmax(z)
        return float(-np.log(p[np.arange(4), y]).sum())

    p = _softmax(z)
    d = p.copy()
    d[np.arange(4), y] -= 1
    assert _fd_on(z, loss, d) < 1e-4


def test_full_model_gradients_ten_seeds():
    spec = net.reduced_spec(64)
    for seed in range(10):
        assert full_model_fd_check(spec, seed, probes_per_array=6) < 1e-4


# --- structural properties ---

def _features_before_gap(spec, params, x):
    """Last time-resolved feature map: the layer steps up to global pooling."""
    h = x
    for layer, weights, is_last in _layer_plan(spec, params):
        if isinstance(layer, GlobalAvgPool):
            return h
        h, _ = _layer_forward(layer, h, weights, is_last)
    raise AssertionError("spec has no global average pooling")


def test_translation_consistency_of_conv_features():
    """Shifting the input by the total stride period shifts pre-dense features."""
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=11)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 2, 4000)).astype(np.float32)
    period = 2 * 4 * 4 * 4  # conv stride times the three pool widths
    shifted = np.roll(x, period, axis=2)
    f0 = _features_before_gap(spec, params, x)[0]
    f1 = _features_before_gap(spec, params, shifted)[0]
    margin = 12  # receptive-field spillover at the edges
    inner0 = f0[:, margin:-margin]
    inner1 = np.roll(f1, -1, axis=1)[:, margin:-margin]
    assert np.abs(inner0 - inner1).max() < 1e-4


def test_batched_forward_matches_single():
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=13)
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((5, 2, 64)).astype(np.float32)
    batch = net.forward_batch(spec, params, xs)
    for i in range(5):
        p0, p1 = net.forward(spec, params, xs[i])
        assert abs(batch[i, 0] - p0) < 1e-5
        assert abs(batch[i, 1] - p1) < 1e-5


@pytest.mark.parametrize("spec", [net.reduced_spec(64), net.default_spec(8000)],
                         ids=["reduced", "8k"])
def test_probabilities_are_batch_invariant(spec, monkeypatch):
    """A window scores bit-identically alone, in a batch, and at any chunking
    and thread count."""
    params = net.init_params(spec, seed=17)
    for i in range(1, len(params), 2):  # nonzero biases, so every term counts
        params[i] = np.random.default_rng(i).normal(0.0, 0.05, params[i].shape).astype(np.float32)
    xs = np.random.default_rng(8).standard_normal((300,) + spec.input_shape).astype(np.float32)
    batch = net.forward_batch(spec, params, xs[:16])
    chunked = {}
    for threads in (1, 2):
        monkeypatch.setattr("anccough.threads.thread_count", lambda: threads)
        for b in (1, 7, 256):  # windows per chunk
            _windows_per_chunk(monkeypatch, spec, np.float32, b)
            chunked[threads, b] = net.predict_probs(spec, params, xs)
    for i in (0, 1, 6, 7, 15, 255, 256, 299):
        single = np.array(net.forward(spec, params, xs[i]))
        if i < 16:
            assert np.array_equal(batch[i], single)
        for probs in chunked.values():
            assert np.array_equal(probs[i], single)


def _loss_and_grads_digest(spec, dtype) -> str:
    """SHA-256 over loss_and_grads on fixed inputs: the loss, unweighted and
    weighted, and every gradient's dtype, shape and bytes."""
    params = net.init_params(spec, seed=23, dtype=dtype)
    rng = np.random.default_rng(29)
    for i in range(1, len(params), 2):
        params[i] = rng.normal(0.0, 0.05, params[i].shape).astype(dtype)
    x = rng.standard_normal((32,) + spec.input_shape).astype(dtype)
    labels = rng.integers(0, 2, 32)
    weights = rng.uniform(0.5, 2.0, 32)
    h = hashlib.sha256()
    for sample_weight in (None, weights):
        loss, grads = net.loss_and_grads(spec, params, x, labels, sample_weight)
        h.update(np.float64(loss).tobytes())
        for g in grads:
            h.update(f"{g.dtype}{g.shape}".encode())
            h.update(np.ascontiguousarray(g).tobytes())
    return h.hexdigest()


# Recorded before the first conv layer stopped computing its unused input
# gradient. The arithmetic of every kept product must not change, so neither
# may these. They pin the rounding of the BLAS in the numpy wheel pinned in CI;
# another numpy build may round its products differently.
PINNED_NUMPY = "2.4.6"
LOSS_AND_GRADS_DIGESTS = {
    ("8k", "float32"):
        "df1c76671a171d6edd5cd2925d43024cb61f0d0993532e6ad07c634df91fec68",
    ("8k", "float64"):
        "1a1dfed7bf061f2033b07398670fa3edcdfed0119ad167e8581252cee733376c",
    ("reduced", "float32"):
        "5c56c3c8a7c9becb7b411ac2d595bf2971e59bb384a2ceb12707ec91543de8f9",
    ("reduced", "float64"):
        "d038b31400299aa43f339d061cadfee55a0b6b7e6e7448d302ad5fe6ec1a8e68",
}


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"digests recorded with numpy {PINNED_NUMPY}")
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", ["8k", "reduced"])
def test_loss_and_grads_are_bit_identical_to_recorded(name, dtype):
    spec = net.default_spec(8000) if name == "8k" else net.reduced_spec()
    assert _loss_and_grads_digest(spec, np.dtype(dtype)) == LOSS_AND_GRADS_DIGESTS[name, dtype]


def test_conv_backward_without_dx_gives_the_same_weight_gradients():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((3, 2, 40))
    w = rng.standard_normal((4, 2, 9))
    out, xp = _conv_forward(x, w, np.zeros(4), 2)
    dout = rng.standard_normal(out.shape)
    dx, dw, db = _conv_grads(dout, xp, w, 2, 40)
    none, dw2, db2 = _conv_grads(dout, xp, w, 2, 40, need_dx=False)
    assert dx.shape == x.shape and none is None
    assert np.array_equal(dw, dw2) and np.array_equal(db, db2)


def _block_largest(spec):
    """Per block (the layers up to and including each MaxPool, then the
    rest): its input shape and the values per window of its largest
    activation."""
    shapes = net.activation_shapes(spec)
    ends = [i + 1 for i, layer in enumerate(spec.layers) if isinstance(layer, MaxPool)]
    return [(shapes[first], max(int(np.prod(s)) for s in shapes[first + 1:end + 1]))
            for first, end in zip([0] + ends, ends + [len(spec.layers)])]


def _byte_sized(largest, dtype):
    return max(1, net.CHUNK_BYTES // (largest * np.dtype(dtype).itemsize))


def test_predict_probs_default_chunks_are_byte_sized(monkeypatch):
    """Each block's chunk holds CHUNK_BYTES of that block's largest
    activation, so more windows in a later block, at a lower rate or in a
    narrower dtype, and never fewer than one; the top-level chunk is the last
    block's, at most ceil(n / T) windows for T threads."""
    n = 20
    sizes, tops = {}, []  # block input shape -> chunk lengths; top-level chunk lengths
    run_forward, forward_blocks = net._run_forward, net._forward_blocks

    def spy_block(plan, h, keep_cache):
        sizes.setdefault(h.shape[1:], []).append(len(h))
        return run_forward(plan, h, keep_cache)

    def spy_top(blocks, x, keep_cache):
        tops.append(len(x))
        return forward_blocks(blocks, x, keep_cache)

    monkeypatch.setattr(net, "_run_forward", spy_block)
    monkeypatch.setattr(net, "_forward_blocks", spy_top)
    for threads in (1, 2):
        monkeypatch.setattr("anccough.threads.thread_count", lambda: threads)
        per_block = {}  # (rate, dtype) -> the largest chunk of each block
        for rate in (8000, 48000):
            spec = net.default_spec(rate)
            for dtype in ("float32", "float64"):
                sizes.clear()
                tops.clear()
                params = _zero_params(spec, dtype)
                out = net.predict_probs(spec, params, np.zeros((n,) + spec.input_shape, dtype))
                assert out.shape == (n, 2)
                blocks = _block_largest(spec)
                top = min(_byte_sized(blocks[-1][1], dtype), -(-n // threads))
                assert sum(tops) == n and max(tops) == top
                for shape, largest in blocks:
                    assert sum(sizes[shape]) == n
                    assert max(sizes[shape]) == min(_byte_sized(largest, dtype), top)
                # the dense head runs once, over the whole batch's pooled features
                assert sizes[net.activation_shapes(spec)[-4]] == [n]
                per_block[rate, dtype] = [max(sizes[shape]) for shape, _ in blocks]
        assert per_block[8000, "float32"][0] == 2 * per_block[8000, "float64"][0]
        assert per_block[48000, "float64"][0] == 1
        later = per_block[8000, "float32"]
        assert later == sorted(later) and later[0] < later[-1]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_predict_probs_on_an_empty_batch_is_empty(dtype):
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=3, dtype=dtype)
    out = net.predict_probs(spec, params, np.zeros((0,) + spec.input_shape, np.float32))
    assert out.shape == (0, 2) and out.dtype == np.dtype(dtype)


def test_loss_and_grads_on_an_empty_batch_is_a_shape_mismatch():
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=3)
    with pytest.raises(ShapeMismatch, match="empty batch"):
        net.loss_and_grads(spec, params, np.zeros((0,) + spec.input_shape, np.float32),
                           np.zeros(0, int))


@pytest.mark.parametrize("score", ["predict_probs", "forward_batch"])
def test_predict_probs_holds_no_whole_batch_activation(monkeypatch, score):
    """Scoring 4N windows peaks above scoring N by no more than the added
    input and output bytes plus one top-level chunk's input: no block's
    output is held for every window at once, on the pool or on the caller."""
    import tracemalloc

    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=5)
    monkeypatch.setattr("anccough.threads.thread_count", lambda: 1)
    _windows_per_chunk(monkeypatch, spec, np.float32, 4)
    n = 8
    peaks = {}
    for windows in (n, 4 * n):
        tracemalloc.start()
        try:
            getattr(net, score)(spec, params, np.ones((windows,) + spec.input_shape, np.float32))
            peaks[windows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    window_bytes = int(np.prod(spec.input_shape)) * 4
    allowed = 3 * n * (window_bytes + 2 * 4) + 4 * window_bytes
    assert peaks[4 * n] - peaks[n] <= allowed


# --- chunks on two threads ---

def _windows_per_chunk(monkeypatch, spec, dtype, windows):
    """Set CHUNK_BYTES so the top-level chunk, the last block's, holds
    `windows` windows; earlier blocks get fewer, and never fewer than one."""
    monkeypatch.setattr(net, "CHUNK_BYTES",
                        windows * _block_largest(spec)[-1][1] * np.dtype(dtype).itemsize)


def _grads_bytes(spec, params, x, labels, sample_weight):
    loss, grads = net.loss_and_grads(spec, params, x, labels, sample_weight)
    return [np.float64(loss).tobytes()] + [g.dtype.str.encode() + g.tobytes() for g in grads]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n", [1, 13, 32])
def test_loss_and_grads_do_not_depend_on_threads_or_chunking(monkeypatch, n, dtype):
    spec = net.reduced_spec(64)
    params, rng = _rand_params(spec, 41)
    params = [p.astype(dtype) for p in params]
    x = rng.standard_normal((n,) + spec.input_shape).astype(dtype)
    labels = rng.integers(0, 2, n)
    for sample_weight in (None, rng.uniform(0.5, 2.0, n)):
        monkeypatch.setattr("anccough.threads.thread_count", lambda: 1)
        _windows_per_chunk(monkeypatch, spec, dtype, n)
        want = _grads_bytes(spec, params, x, labels, sample_weight)
        for threads in (1, 2):
            monkeypatch.setattr("anccough.threads.thread_count", lambda: threads)
            for windows in (1, 3, n + 1):
                _windows_per_chunk(monkeypatch, spec, dtype, windows)
                before = threading.active_count()
                assert _grads_bytes(spec, params, x, labels, sample_weight) == want
                assert threading.active_count() == before


def test_loss_and_grads_at_8k_do_not_depend_on_threads(monkeypatch):
    """The default per-block chunking at 8 kHz in float32 on both threads
    against one top-level chunk of all 20 windows on the calling thread."""
    spec = net.default_spec(8000)
    params = net.init_params(spec, seed=43)
    rng = np.random.default_rng(47)
    x = rng.standard_normal((20,) + spec.input_shape).astype(np.float32)
    labels = rng.integers(0, 2, 20)
    monkeypatch.setattr("anccough.threads.thread_count", lambda: 2)
    split = _grads_bytes(spec, params, x, labels, None)
    monkeypatch.setattr("anccough.threads.thread_count", lambda: 1)
    _windows_per_chunk(monkeypatch, spec, np.float32, 20)
    assert _grads_bytes(spec, params, x, labels, None) == split


@pytest.mark.parametrize("cpus,started", [({0}, 0), ({0, 1}, 1), ({0, 1, 2, 3}, 1)])
def test_threads_started_per_call(monkeypatch, cpus, started):
    """One helper at most per scoring call and per training step, none at one CPU."""
    starts = spy_thread_starts(monkeypatch, cpus)
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=61)
    _windows_per_chunk(monkeypatch, spec, np.float32, 2)
    x = np.zeros((9,) + spec.input_shape, np.float32)
    net.predict_probs(spec, params, x)
    assert len(starts) == started
    net.loss_and_grads(spec, params, x, np.zeros(9, int))
    assert len(starts) == 2 * started
    assert not any(t.is_alive() for t in starts)


def test_a_failed_helper_chunk_propagates_and_leaves_no_thread(monkeypatch):
    """A block-one chunk fails in the backward pass of the second top-level
    chunk, a helper's; every block ran in its own byte-sized chunks."""
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=67)
    boom = RuntimeError("chunk failed")
    block_backward = net._block_backward
    ran = []

    def flaky(cache, first, dh, at, bufs):
        ran.append((first, at, len(dh), threading.current_thread()))
        if first == 0 and at == 4:  # block one's first chunk of the second top-level chunk
            raise boom
        return block_backward(cache, first, dh, at, bufs)

    monkeypatch.setattr("anccough.threads.thread_count", lambda: 2)
    monkeypatch.setattr(net, "_block_backward", flaky)
    _windows_per_chunk(monkeypatch, spec, np.float32, 4)  # block one: one window per chunk
    x = np.zeros((8,) + spec.input_shape, np.float32)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        net.loss_and_grads(spec, params, x, np.zeros(8, int))
    assert exc.value is boom
    failed = [r for r in ran if r[:2] == (0, 4)]
    assert len(failed) == 1 and failed[0][2] == 1
    assert failed[0][3] is not threading.current_thread()
    last_block = max(first for first, _, _, _ in ran)
    assert {r[2] for r in ran if r[0] == last_block} == {4}
    assert threading.active_count() == before


# --- scoring on two threads ---

@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("rate", [8000, 16000, 48000])
def test_predict_probs_bytes_do_not_depend_on_threads_or_chunking(monkeypatch, rate, dtype):
    """Every window's probabilities at 1 and 2 threads, in chunks of 1 and 3
    windows and of the default size, are the bytes of that window scored alone."""
    spec = net.default_spec(rate)
    params = net.init_params(spec, seed=71, dtype=dtype)
    rng = np.random.default_rng(73)
    for i in range(1, len(params), 2):
        params[i] = rng.normal(0.0, 0.05, params[i].shape).astype(dtype)
    n = 2 * _byte_sized(_block_largest(spec)[-1][1], dtype) + 1  # 3 default top-level chunks
    x = rng.standard_normal((n,) + spec.input_shape).astype(np.float32)
    want = np.concatenate([net.forward_batch(spec, params, x[i:i + 1]) for i in range(n)])
    default_bytes = net.CHUNK_BYTES
    for threads in (1, 2):
        monkeypatch.setattr("anccough.threads.thread_count", lambda: threads)
        for windows in (1, 3, None):
            if windows is None:
                monkeypatch.setattr(net, "CHUNK_BYTES", default_bytes)
            else:
                _windows_per_chunk(monkeypatch, spec, dtype, windows)
            before = threading.active_count()
            got = net.predict_probs(spec, params, x)
            assert got.dtype == np.dtype(dtype)
            assert got.tobytes() == want.tobytes()
            assert threading.active_count() == before


def test_a_failed_helper_scoring_chunk_raises_at_its_place_and_leaves_no_thread(monkeypatch):
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=79)
    boom = RuntimeError("chunk failed")
    forward_blocks = net._forward_blocks
    scored, failed_on = [], []

    def flaky(blocks, x, keep_cache):
        scored.append(len(x))
        # every block's chunks are byte-sized, and never fewer than one window
        assert [step for _, _, step in blocks] == [
            _byte_sized(largest, np.float32) for _, largest in _block_largest(spec)]
        if len(x) == 1:  # only the fourth chunk, a helper's
            failed_on.append(threading.current_thread())
            raise boom
        return forward_blocks(blocks, x, keep_cache)

    monkeypatch.setattr("anccough.threads.thread_count", lambda: 2)
    monkeypatch.setattr(net, "_forward_blocks", flaky)
    _windows_per_chunk(monkeypatch, spec, np.float32, 2)
    x = np.zeros((7,) + spec.input_shape, np.float32)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        net.predict_probs(spec, params, x)
    assert exc.value is boom
    # the caller scored the third chunk before it took the fourth's result
    assert sorted(scored) == [1, 2, 2, 2]
    assert len(failed_on) == 1 and failed_on[0] is not threading.current_thread()
    assert threading.active_count() == before


def test_only_the_calling_thread_enters_forward_and_forward_batch(monkeypatch):
    """Helpers run private functions only, never the public bindings a traced
    run swaps for span wrappers; `stream.detect` scores through the public
    `forward_batch`, on the caller."""
    from anccough import stream
    from anccough.dsp import DualChannelRecording

    entered = []
    for name in ("forward", "forward_batch"):
        original = getattr(net, name)

        def spy(*args, _original=original):
            entered.append(threading.current_thread())
            return _original(*args)

        monkeypatch.setattr(net, name, spy)
    monkeypatch.setattr("anccough.threads.thread_count", lambda: 2)
    spec = net.reduced_spec(64)
    params = net.init_params(spec, seed=83)
    _windows_per_chunk(monkeypatch, spec, np.float32, 2)
    x = np.random.default_rng(89).standard_normal((9,) + spec.input_shape).astype(np.float32)
    net.predict_probs(spec, params, x)
    net.loss_and_grads(spec, params, x, np.zeros(9, int))
    net.forward(spec, params, x[0])
    net.forward_batch(spec, params, x)
    spec8 = net.default_spec(8000)
    rec = DualChannelRecording(np.zeros((2, 3 * spec8.input_len), np.float32), 8000)
    stream.detect(spec8, net.init_params(spec8, seed=83), rec)
    # forward, forward_batch from it and alone, and once from stream.detect
    assert len(entered) == 4
    assert set(entered) == {threading.current_thread()}
