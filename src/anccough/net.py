"""From-scratch convolutional network engine: forward, backward, execution.

The reference detector is four convolution blocks followed by three fully
connected layers. Block one opens with the only 2-D convolution, whose kernel
spans both mic rows, so it runs as a 1-D one over the rows as input channels.
A rectifier follows every convolution and every hidden dense layer; the
two-way output is read through a softmax.

All math runs in the dtype of the supplied parameters: float32 in production,
float64 when tests need finite-difference-grade precision.

One forward runs the network for every caller. The trunk, the layers
before the first Dense, is cut after each MaxPool into blocks; the cut comes
from shapes alone, so it is worked out once per spec. Activations shrink from
block to block: at the default sizes block one's largest is 3, 8 and 24 times
those of blocks two to four. Each block runs its windows in chunks of as many
as fit CHUNK_BYTES of its own largest activation; a batch goes through the
trunk in top-level chunks sized for the last block, capped at ceil(n / T)
windows for T threads, and each block splits every top-level chunk into its
own chunks. So no whole-batch intermediate activation is ever held, and the
small late blocks pay numpy's call overhead per chunk, not per few windows.
The pooled features are then joined, and the dense head runs once, on the
calling thread, over the whole batch.

Only the map over the top-level chunks differs between callers.
`forward_batch` maps them with the builtin `map`, on the calling thread: it is
the wearer's path (`forward`, so batch-1 `StreamingDetector` steps, and
`stream.detect` in `cli detect`), and when `cli detect` scored on two threads
the steps after it ran about a quarter slower on a 2-vCPU host.
`predict_probs` and `loss_and_grads` map them over one `threads.helpers()`
pool per call (the calling thread plus, with two CPUs, one helper; see
threads.py for the schedule), and `loss_and_grads` runs the backward on the
same chunks. No bit depends on the chunking or the thread count: every kernel
computes each window on its own (one gemm per window per tap), the dense
layers are stacked products of one row each, global pooling and the softmax
work per row, and every sum over the batch (the loss, the dense layers' and
each conv layer's weight and bias gradients) runs on the calling thread over
the whole batch, in one order. Helpers call only private functions
(`_forward_blocks` and the backward kernels).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, fields

import numpy as np

from .dsp import SUPPORTED_RATES, DualChannelWindow
from .errors import InvalidSpec, NonFiniteWeights, ShapeMismatch, UnsupportedRate
from . import threads
from .threads import helpers

CLASS_SUBJECT = 0
CLASS_OTHER = 1

BYTES_PER_VALUE = 4  # all persisted weights and activations are 32-bit reals

# A block's chunk: bytes of the block's largest activation over the chunk's
# windows (at 8 kHz in float32: 4, 12, 32 and 99 windows for blocks one to
# four; block one gets 2 at 16 kHz and 1 at 24 and 48 kHz). Swept on a 2-core
# Xeon with 2 MiB of L2 per core, 124 windows at 8 kHz, best of 3 medians of
# 15 calls: one-thread scoring took 52-56 ms at 3 << 17, 53-57 ms at 1 << 18
# and 1 << 19, 56-58 ms at 3 << 16 and 58-60 ms at 3 << 18, against 56-61 ms
# for one whole-network chunk size (8 windows in every block). Two-thread
# scoring and the batch-32 training step moved less than their run-to-run
# noise between 1 << 18 and 3 << 18.
CHUNK_BYTES = 3 << 17


@dataclass(frozen=True)
class Conv1d:
    out_channels: int
    kernel: int = 9
    stride: int = 1


@dataclass(frozen=True)
class Conv2d(Conv1d):
    """The first convolution: its kernel spans both mic rows and `kernel`
    samples of time, which is a Conv1d over the two rows as input channels."""

    stride: int = 2


@dataclass(frozen=True)
class MaxPool:
    width: int = 4


@dataclass(frozen=True)
class GlobalAvgPool:
    pass


@dataclass(frozen=True)
class Dense:
    out_features: int


LayerSpec = Conv1d | MaxPool | GlobalAvgPool | Dense

# The fixed topology, over the layers' class names joined by spaces.
_TOPOLOGY = re.compile(
    r"Conv2d( Conv1d)* MaxPool(( Conv1d)+ MaxPool){2}( Conv1d)+ GlobalAvgPool Dense Dense Dense")


@dataclass(frozen=True)
class ModelSpec:
    """Layer graph of one detector variant; the unit of profiling and serialization."""

    sample_rate_hz: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        _validate_structure(self.layers)
        _validate_sizes(self.layers)
        if self.sample_rate_hz < 2 or self.sample_rate_hz % 2:
            raise InvalidSpec("sample rate must be a positive even integer")
        _validate_lengths(self)

    @property
    def input_len(self) -> int:
        return self.sample_rate_hz // 2

    @property
    def input_shape(self) -> tuple[int, int]:
        return (2, self.input_len)


def _validate_sizes(layers: tuple[LayerSpec, ...]) -> None:
    """Channels, kernel widths, strides, pool widths and features are all >= 1."""
    for i, layer in enumerate(layers):
        for field in fields(layer):
            value = getattr(layer, field.name)
            if value < 1:
                raise InvalidSpec(f"layer {i} ({type(layer).__name__}): "
                                  f"{field.name} {value} must be >= 1")


def _validate_lengths(spec: ModelSpec) -> None:
    """No layer may shrink the time axis to nothing."""
    for i, (layer, shape) in enumerate(zip(spec.layers, activation_shapes(spec)[1:])):
        if len(shape) == 2 and shape[1] < 1:
            raise InvalidSpec(f"layer {i} ({type(layer).__name__}): output length "
                              f"{shape[1]} must be >= 1")


def _validate_structure(layers: tuple[LayerSpec, ...]) -> None:
    """Enforce the fixed topology: 4 conv blocks, then 3 dense layers, 2 outputs."""
    got = " ".join(type(layer).__name__ for layer in layers)
    if not _TOPOLOGY.fullmatch(got):
        raise InvalidSpec(
            f"layers [{got}] break the fixed topology: four conv blocks, then exactly "
            "three Dense layers; block one is the Conv2d and any Conv1d layers, each "
            "later block one or more Conv1d layers; blocks one to three close with a "
            "MaxPool, and only block four with the GlobalAvgPool")
    if layers[-1].out_features != 2:
        raise InvalidSpec("final layer must have width 2")


def default_spec(sample_rate_hz: int) -> ModelSpec:
    """The repository's reference architecture for one sampling-rate variant."""
    if sample_rate_hz not in SUPPORTED_RATES:
        raise UnsupportedRate(f"rate {sample_rate_hz} not in {SUPPORTED_RATES}")
    return ModelSpec(
        sample_rate_hz=sample_rate_hz,
        layers=(
            Conv2d(out_channels=12, kernel=9),
            Conv1d(out_channels=12, kernel=9),
            MaxPool(4),
            Conv1d(out_channels=16, kernel=9),
            Conv1d(out_channels=16, kernel=9),
            MaxPool(4),
            Conv1d(out_channels=24, kernel=9),
            Conv1d(out_channels=24, kernel=9),
            MaxPool(4),
            Conv1d(out_channels=32, kernel=9),
            Conv1d(out_channels=32, kernel=9),
            GlobalAvgPool(),
            Dense(32),
            Dense(16),
            Dense(2),
        ),
    )


def reduced_spec(input_len: int = 64) -> ModelSpec:
    """A small same-topology spec for numerical tests (input 2 x input_len)."""
    return ModelSpec(
        sample_rate_hz=2 * input_len,
        layers=(
            Conv2d(out_channels=4, kernel=5),
            Conv1d(out_channels=4, kernel=5),
            MaxPool(2),
            Conv1d(out_channels=6, kernel=5),
            Conv1d(out_channels=6, kernel=5),
            MaxPool(2),
            Conv1d(out_channels=8, kernel=3),
            Conv1d(out_channels=8, kernel=3),
            MaxPool(2),
            Conv1d(out_channels=8, kernel=3),
            Conv1d(out_channels=8, kernel=3),
            GlobalAvgPool(),
            Dense(8),
            Dense(8),
            Dense(2),
        ),
    )


# ---------------------------------------------------------------------------
# shapes and parameters
# ---------------------------------------------------------------------------

def _conv_out_len(length: int, kernel: int, stride: int) -> int:
    pad = (kernel - 1) // 2
    return (length + 2 * pad - kernel) // stride + 1


def activation_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """Output shape of the input buffer and of every layer, in order."""
    shapes: list[tuple[int, ...]] = [spec.input_shape]
    channels, length = spec.input_shape
    for layer in spec.layers:
        if isinstance(layer, Conv1d):
            channels = layer.out_channels
            length = _conv_out_len(length, layer.kernel, layer.stride)
            shapes.append((channels, length))
        elif isinstance(layer, MaxPool):
            length = length // layer.width
            shapes.append((channels, length))
        elif isinstance(layer, GlobalAvgPool):
            shapes.append((channels,))
            length = 1
        elif isinstance(layer, Dense):
            channels = layer.out_features
            shapes.append((channels,))
    return shapes


def param_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """Weight and bias shapes in traversal order (W then b per layer)."""
    shapes: list[tuple[int, ...]] = []
    channels = 2  # the Conv2d takes both mic rows as input channels
    for layer in spec.layers:
        if isinstance(layer, Conv1d):
            shapes += [(layer.out_channels, channels, layer.kernel), (layer.out_channels,)]
            channels = layer.out_channels
        elif isinstance(layer, Dense):
            shapes += [(layer.out_features, channels), (layer.out_features,)]
            channels = layer.out_features
    return shapes


def init_params(spec: ModelSpec, seed: int = 0, dtype=np.float32) -> list[np.ndarray]:
    """Fan-in-scaled uniform weights (variance 2/fan_in, right for rectifiers),
    zero biases."""
    rng = np.random.default_rng(seed)
    params = []
    for shape in param_shapes(spec):
        if len(shape) == 1:
            params.append(np.zeros(shape, dtype=dtype))
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            params.append(rng.uniform(-bound, bound, size=shape).astype(dtype))
    return params


def validate_params(spec: ModelSpec, params: list[np.ndarray]) -> None:
    expected = param_shapes(spec)
    if len(params) != len(expected):
        raise ShapeMismatch(f"{len(params)} arrays, spec wants {len(expected)}")
    for i, (arr, shape) in enumerate(zip(params, expected)):
        if tuple(arr.shape) != shape:
            raise ShapeMismatch(f"array {i} has shape {arr.shape}, spec wants {shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            raise NonFiniteWeights(f"array {i} holds a non-finite value at flat index "
                                   f"{int(np.argmin(finite))}")


# ---------------------------------------------------------------------------
# layer kernels (batch-first)
# ---------------------------------------------------------------------------

# Both conv kernels loop over the kernel's taps with one gemm per window per
# tap, so a window's output does not depend on the batch it is computed in.

def _stride_phases(xp: np.ndarray, stride: int) -> list[np.ndarray]:
    """The padded input as `stride` contiguous phases, phase r = xp[..., r::stride].

    Tap j reads phase j % stride from offset j // stride with unit step, a
    slice numpy hands to BLAS (a strided operand would fall back to numpy's
    own, much slower loop). At stride 1 the one phase is xp itself.
    """
    return [np.ascontiguousarray(xp[:, :, r::stride]) for r in range(stride)]


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int):
    """out = b + sum over taps j of w[:, :, j] @ xp[:, :, j::stride]; returns (out, xp)."""
    n, c, length = x.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    # np.empty plus zeroed edges: np.pad costs more in call overhead than the
    # copy, and np.zeros would page-fault a fresh buffer that is then overwritten
    xp = np.empty((n, c, length + 2 * pad), dtype=x.dtype)
    xp[:, :, :pad] = 0
    xp[:, :, pad + length:] = 0
    xp[:, :, pad:pad + length] = x
    t = _conv_out_len(length, k, stride)
    phases = _stride_phases(xp, stride)
    w_taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # (k, out, in)
    out = np.empty((n, w.shape[0], t), dtype=np.result_type(x, w))
    prod = np.empty_like(out)
    for j in range(k):
        at = j // stride
        xs = phases[j % stride][:, :, at:at + t]
        np.matmul(w_taps[j], xs, out=prod if j else out)
        if j:
            out += prod
    out += b[None, :, None]
    return out, xp


def _conv_backward(dout: np.ndarray, xp: np.ndarray, w: np.ndarray, stride: int, in_len: int,
                   prods: np.ndarray, need_dx: bool = True):
    """The per-window half of the conv backward: prods[j] gets dout @ xs_j.T for
    each window (shape (k, n, out, in)), and w[:, :, j].T @ dout lands on the
    input positions tap j read. Returns the input gradient, or None without
    `need_dx`. The sums over the batch are `_conv_weight_grads`."""
    t = dout.shape[2]
    k = w.shape[2]
    pad = (k - 1) // 2
    phases = _stride_phases(xp, stride)
    for j in range(k):
        at = j // stride
        xs = phases[j % stride][:, :, at:at + t]
        np.matmul(dout, xs.transpose(0, 2, 1), out=prods[j])
    if not need_dx:
        return None
    dphases = [np.zeros_like(ph) for ph in phases]
    w_taps_t = np.ascontiguousarray(w.transpose(2, 1, 0))  # (k, in, out)
    for j in range(k):
        at = j // stride
        dphases[j % stride][:, :, at:at + t] += np.matmul(w_taps_t[j], dout)
    dxp = np.empty_like(xp)
    for r, dph in enumerate(dphases):
        dxp[:, :, r::stride] = dph
    return dxp[:, :, pad:pad + in_len]


def _conv_weight_grads(dout: np.ndarray, prods: np.ndarray):
    """(dw, db) from a whole batch's output gradient and per-window tap
    products: dw[:, :, j] sums prods[j] over the batch, db sums dout over the
    batch and time."""
    k, _, out_ch, in_ch = prods.shape
    dw = np.empty((out_ch, in_ch, k), dtype=prods.dtype)
    for j in range(k):
        dw[:, :, j] = prods[j].sum(axis=0)
    return dw, dout.sum(axis=(0, 2))


def _maxpool_forward(x: np.ndarray, width: int, with_argmax: bool = True):
    """Max over each run of `width` samples and the offset of its first maximum
    (None without `with_argmax`), as `width` elementwise passes (a reduction
    over a 4-long axis runs an inner loop per output element, several times
    slower)."""
    t = x.shape[2] // width
    out = x[:, :, 0:t * width:width].copy()
    argmax = np.zeros(out.shape, dtype=np.min_scalar_type(width - 1)) if with_argmax else None
    for j in range(1, width):
        v = x[:, :, j:t * width:width]
        if with_argmax:
            # offsets only grow, so a max keeps the first of equal maxima
            np.maximum(argmax, (v > out) * argmax.dtype.type(j), out=argmax)
        np.maximum(out, v, out=out)
    return out, argmax


def _maxpool_backward(dout: np.ndarray, argmax: np.ndarray, width: int, in_len: int):
    n, c, t = dout.shape
    dx = np.zeros((n, c, in_len), dtype=dout.dtype)
    for j in range(width):
        dx[:, :, j:t * width:width] = dout * (argmax == j)
    return dx


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# full network forward / backward
# ---------------------------------------------------------------------------

def _layer_plan(spec: ModelSpec, params: list[np.ndarray]):
    """(layer, its (W, b) or (), whether it is the output layer), in order."""
    pi = 0
    last = len(spec.layers) - 1
    for i, layer in enumerate(spec.layers):
        n = 2 if isinstance(layer, (Conv1d, Dense)) else 0
        yield layer, params[pi:pi + n], i == last
        pi += n


def _layer_forward(layer: LayerSpec, h: np.ndarray, weights, is_last: bool,
                   keep_cache: bool = True):
    """One layer on a batch; returns its output and what backward needs.

    Without `keep_cache` no backward follows, so max-pooling skips the offsets
    of its maxima (two thirds of its time).
    """
    if isinstance(layer, Conv1d):
        w, b = weights
        out, xp = _conv_forward(h, w, b, layer.stride)
        mask = out > 0
        out *= mask
        return out, ("conv", xp, w, layer.stride, h.shape[2], mask)
    if isinstance(layer, MaxPool):
        out, argmax = _maxpool_forward(h, layer.width, with_argmax=keep_cache)
        return out, ("pool", argmax, layer.width, h.shape[2])
    if isinstance(layer, GlobalAvgPool):
        return h.mean(axis=2), ("gap", h.shape[2])
    w, b = weights
    # a stacked product (one row at a time) rounds alike at every batch size
    out = np.matmul(h[:, None, :], w.T)[:, 0] + b
    mask = None
    if not is_last:  # the output layer's logits go to the softmax unrectified
        mask = out > 0
        out *= mask
    return out, ("dense", h, w, mask)


def _run_forward(plan, h: np.ndarray, keep_cache: bool):
    """Run the layers of `plan` (from `_layer_plan`, or a slice of it) on h;
    returns the output and, with `keep_cache`, what backward needs."""
    cache: list[tuple] = []
    for layer, weights, is_last in plan:
        h, entry = _layer_forward(layer, h, weights, is_last, keep_cache)
        if keep_cache:
            cache.append(entry)
    return h, cache


@functools.cache
def _block_cut(spec: ModelSpec) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The index of the first Dense layer, and the trunk (the layers before
    it) cut after each MaxPool into blocks: per block the index of its first
    layer, the index past its last and the values per window of its largest
    activation. Only shapes go in, so the cut is worked out once per spec."""
    sizes = [int(np.prod(s)) for s in activation_shapes(spec)[1:]]
    head_at = next(i for i, layer in enumerate(spec.layers) if isinstance(layer, Dense))
    ends = [i + 1 for i, layer in enumerate(spec.layers) if isinstance(layer, MaxPool)]
    bounds = zip([0] + ends, ends + [head_at])
    return head_at, tuple((first, end, max(sizes[first:end])) for first, end in bounds)


def _top_chunks(blocks: list[tuple[int, list, int]], n: int) -> list[slice]:
    """The top-level chunks of a batch of n: each the last block's chunk, but
    at most ceil(n / T) windows so a pooled map keeps its T threads busy."""
    step = max(1, min(blocks[-1][2], -(-n // threads.thread_count())))
    return [slice(i, i + step) for i in range(0, n, step)]


def _forward_blocks(blocks: list[tuple[int, list, int]], x: np.ndarray, keep_cache: bool):
    """x (a top-level chunk) through `blocks`, each block over its own chunks
    of x's windows; returns the output and, with `keep_cache`, per block the
    cache of each of its chunks."""
    caches = []
    for _, plan, step in blocks:
        runs = [_run_forward(plan, x[i:i + step], keep_cache) for i in range(0, len(x), step)]
        x = runs[0][0] if len(runs) == 1 else np.concatenate([h for h, _ in runs])
        caches.append([cache for _, cache in runs])
    return x, caches


def _conv_grad_buffers(spec: ModelSpec, params: list[np.ndarray],
                       n: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per conv layer i: empty whole-batch buffers for its masked output
    gradient (n, out, t) and its per-window tap products (k, n, out, in)."""
    shapes = activation_shapes(spec)
    bufs = {}
    for i, (layer, weights, _) in enumerate(_layer_plan(spec, params)):
        if isinstance(layer, Conv1d):
            w = weights[0]
            out_ch, in_ch, k = w.shape
            bufs[i] = (np.empty((n,) + shapes[i + 1], dtype=w.dtype),
                       np.empty((k, n, out_ch, in_ch), dtype=w.dtype))
    return bufs


def _block_backward(cache: list[tuple], first: int, dh: np.ndarray, at: int,
                    bufs: dict[int, tuple[np.ndarray, np.ndarray]]) -> np.ndarray | None:
    """Backward through one chunk of a block, the batch's windows from `at`,
    whose forward left `cache`; the block's layer i is the network's layer
    first + i. Each conv layer writes its masked output gradient and tap
    products into the chunk's rows of its buffers in `bufs`. Returns the
    gradient of the chunk's input, or None for the first block: the network
    input's gradient is never needed, so the first layer skips it."""
    rows = slice(at, at + len(dh))
    for i, entry in reversed(list(enumerate(cache, first))):
        kind = entry[0]
        if kind == "conv":
            _, xp, w, stride, in_len, mask = entry
            douts, prods = bufs[i]
            dout = douts[rows]
            np.multiply(dh, mask, out=dout)
            dh = _conv_backward(dout, xp, w, stride, in_len, prods[:, rows], need_dx=i > 0)
        elif kind == "pool":
            _, argmax, width, in_len = entry
            dh = _maxpool_backward(dh, argmax, width, in_len)
        else:  # "gap"
            _, in_len = entry
            dh = np.repeat(dh[:, :, None] / in_len, in_len, axis=2)
    return dh


def _trunk_backward(blocks: list[tuple[int, list, int]], caches: list[list],
                    dfeatures: np.ndarray, rows: slice,
                    bufs: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
    """Backward through the conv blocks for the top-level chunk `rows` of the
    batch, whose forward left `caches` (from `_forward_blocks`), from the
    whole batch's gradient of the pooled features; each block runs over its
    own chunks, last block first."""
    dh = dfeatures[rows]
    for (first, _, step), block_caches in zip(reversed(blocks), reversed(caches)):
        dhs = [_block_backward(cache, first, dh[i:i + step], rows.start + i, bufs)
               for i, cache in zip(range(0, len(dh), step), block_caches)]
        if first:
            dh = dhs[0] if len(dhs) == 1 else np.concatenate(dhs)


def _head_backward(cache: list[tuple], dh: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The dense layers' gradients, in parameter order, and the gradient of
    the head's input."""
    grads: list[np.ndarray] = []
    for _, h_in, w, mask in reversed(cache):
        if mask is not None:
            dh *= mask
        grads += [dh.sum(axis=0), dh.T @ h_in]
        dh = dh @ w
    grads.reverse()
    return grads, dh


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, sample_weight: np.ndarray | None):
    """Weighted-mean cross-entropy of the softmax of `logits`, and its gradient
    with respect to the logits."""
    probs = _softmax(logits)
    n = len(labels)
    if sample_weight is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = sample_weight / sample_weight.sum()
    eps = np.finfo(probs.dtype).tiny
    losses = -np.log(np.maximum(probs[np.arange(n), labels], eps))
    loss = float(losses @ weights)
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits *= weights[:, None]
    return loss, dlogits


def forward(spec: ModelSpec, params: list[np.ndarray], window) -> tuple[float, float]:
    """Probabilities (p_subject_cough, p_other) for one normalized window."""
    data = window.data if isinstance(window, DualChannelWindow) else np.asarray(window)
    probs = forward_batch(spec, params, data[None])[0]
    return float(probs[CLASS_SUBJECT]), float(probs[CLASS_OTHER])


def _forward(spec: ModelSpec, params: list[np.ndarray], x: np.ndarray, map_fn,
             keep_cache: bool):
    """The logits of a batch x shaped (n, 2, L), and what backward needs.

    The trunk's top-level chunks go through `map_fn` (the builtin `map` on
    the calling thread, or a pool's ordered map), each cast to the params'
    dtype on its own; the dense head then runs once on the calling thread
    over the whole batch's pooled features. Returns the logits and (blocks,
    chunks, per chunk its block caches, the head's cache); the caches are
    empty without `keep_cache`.
    """
    if tuple(x.shape[1:]) != spec.input_shape:
        raise ShapeMismatch(f"batch shape {x.shape[1:]} != {spec.input_shape}")
    dtype = params[0].dtype
    plan = list(_layer_plan(spec, params))
    head_at, cut = _block_cut(spec)
    blocks = [(first, plan[first:end], max(1, CHUNK_BYTES // (largest * dtype.itemsize)))
              for first, end, largest in cut]
    chunks = _top_chunks(blocks, len(x))
    trunk = list(map_fn(lambda rows: _forward_blocks(blocks, x[rows].astype(dtype), keep_cache),
                        chunks))
    in_features = plan[head_at][1][0].shape[1]  # an empty batch has no chunks to join
    features = np.concatenate([h for h, _ in trunk] or [np.empty((0, in_features), dtype)])
    logits, head_cache = _run_forward(plan[head_at:], features, keep_cache)
    return logits, (blocks, chunks, [caches for _, caches in trunk], head_cache)


def forward_batch(spec: ModelSpec, params: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Probabilities (n, 2) of a batch shaped (n, 2, L), on the calling thread.

    The entry of the wearer's path (`forward`, so `StreamingDetector.step`,
    and `stream.detect`): the same chunks as `predict_probs`, mapped in order
    by the builtin `map`, so it starts no thread and gives the same bytes.
    """
    return _softmax(_forward(spec, params, x, map, keep_cache=False)[0])


def predict_probs(spec: ModelSpec, params: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Probabilities (n, 2) of a batch, scored in chunks on up to two threads.

    Each block runs in chunks of CHUNK_BYTES of its largest activation, so
    its working set stays cache-sized (see the module docstring). Scores do
    not depend on the chunking or the thread count, so they are
    `forward_batch`'s bytes. An empty batch gives an empty (0, 2) array.
    """
    with helpers() as ordered_map:
        return _softmax(_forward(spec, params, x, ordered_map, keep_cache=False)[0])


def loss_and_grads(
    spec: ModelSpec,
    params: list[np.ndarray],
    x: np.ndarray,
    labels: np.ndarray,
    sample_weight: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Weighted-mean cross-entropy loss and gradients for a minibatch.

    The conv blocks run forward and backward in `predict_probs`' chunks, on up
    to two threads; the dense head, the loss and every sum over the batch run
    on the calling thread over the whole batch.
    """
    if not len(x):
        raise ShapeMismatch("empty batch: loss_and_grads needs at least one window")
    for name, values in (("labels", labels), ("sample_weight", sample_weight)):
        if values is not None and len(values) != len(x):
            raise ShapeMismatch(f"{len(values)} {name} for a batch of {len(x)}")
    with helpers() as ordered_map:
        logits, (blocks, chunks, trunk, head_cache) = _forward(spec, params, x, ordered_map,
                                                              keep_cache=True)
        loss, dlogits = _cross_entropy(logits, labels, sample_weight)
        head_grads, dfeatures = _head_backward(head_cache, dlogits)
        bufs = _conv_grad_buffers(spec, params, len(x))
        list(ordered_map(lambda i: _trunk_backward(blocks, trunk[i], dfeatures, chunks[i], bufs),
                         range(len(chunks))))
    grads: list[np.ndarray] = []
    for douts, prods in bufs.values():
        grads += _conv_weight_grads(douts, prods)
    return loss, grads + head_grads
