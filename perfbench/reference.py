"""Reference arithmetic the benchmark checks the library's outputs against.

`forward_probs` is a plain float64 forward pass of an `anccough` model, written
independently of `anccough.net`: each convolution is a sum over kernel taps of
one matrix product, not a sliding-window einsum. `gradient_error` checks
`net.loss_and_grads` against a central finite difference of this forward pass.
`merge_events` is the detector's merge rule (gap tolerance 0) over reference
probabilities. A kernel change that gives finite, deterministic but wrong
scores fails these checks.
"""

from __future__ import annotations

import numpy as np

import anccough as ac

# Largest |library - reference| allowed on a probability: float32 against float64.
PROB_TOL = 1e-4
# Largest relative error allowed on a directional derivative (float64 both sides):
# the median over POINTS was at most 1.4e-8 over seeds 0-199; a wrong backward
# pass costs order 1.
GRAD_TOL = 1e-5
POINTS = 5


def _conv(h: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    n, c, length = h.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    padded = np.zeros((n, c, length + 2 * pad))
    padded[:, :, pad:pad + length] = h
    t = (length + 2 * pad - k) // stride + 1
    out = np.repeat(b[None, :, None], t, axis=2) + np.zeros((n, 1, 1))
    for tap in range(k):
        out += w[:, :, tap] @ padded[:, :, tap:tap + stride * (t - 1) + 1:stride]
    return np.maximum(out, 0.0)


def logits(spec, params, x: np.ndarray) -> np.ndarray:
    """Pre-softmax outputs (n, 2) of the model for inputs (n, 2, L), in float64."""
    net = ac.net
    h = np.asarray(x, dtype=np.float64)
    weights = iter([np.asarray(p, dtype=np.float64) for p in params])
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, (net.Conv2d, net.Conv1d)):
            h = _conv(h, next(weights), next(weights), layer.stride)
        elif isinstance(layer, net.MaxPool):
            t = h.shape[2] // layer.width
            h = h[:, :, :t * layer.width].reshape(h.shape[0], h.shape[1], t, layer.width).max(axis=3)
        elif isinstance(layer, net.GlobalAvgPool):
            h = h.mean(axis=2)
        elif isinstance(layer, net.Dense):
            w, b = next(weights), next(weights)
            h = h @ w.T + b
            if i != len(spec.layers) - 1:
                h = np.maximum(h, 0.0)
    return h


def forward_probs(spec, params, x: np.ndarray) -> np.ndarray:
    z = logits(spec, params, x)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _loss(spec, params, x, labels) -> float:
    p = forward_probs(spec, params, x)
    return float(np.mean(-np.log(p[np.arange(len(labels)), labels])))


def gradient_error(spec, params, seed: int) -> float:
    """Relative error of `net.loss_and_grads` along random directions.

    Runs the library in float64 on batches of random inputs and compares its
    gradient's projection on a random direction with the central difference
    of the reference loss. Random inputs and biases moved off zero keep most
    rectifiers and max-pools clear of their kinks, which silent or constant
    stretches of real audio do not. A kink within the difference step spoils
    every direction at that input (about one input in seventy), so each of
    the POINTS comparisons draws a fresh input and the result is their median.
    """
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1, 0, 1])
    p64 = [np.asarray(p, dtype=np.float64) + (0.01 * rng.standard_normal(p.shape) if p.ndim == 1 else 0)
           for p in params]
    eps = 1e-8
    errors = []
    for _ in range(POINTS):
        x = rng.standard_normal((len(labels), *spec.input_shape))
        _, grads = ac.net.loss_and_grads(spec, p64, x, labels)
        direction = [rng.standard_normal(p.shape) for p in p64]
        plus = _loss(spec, [p + eps * d for p, d in zip(p64, direction)], x, labels)
        minus = _loss(spec, [p - eps * d for p, d in zip(p64, direction)], x, labels)
        numeric = (plus - minus) / (2 * eps)
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
        errors.append(abs(analytic - numeric) / max(abs(numeric), 1e-12))
    return float(np.median(errors))


def merge_events(probs, starts, window_s: float, threshold: float) -> list[tuple]:
    """(start_s, end_s, mean_confidence, window_count) per run of p >= threshold."""
    events, run = [], []
    for p, start in [*zip(probs, starts), (-np.inf, None)]:
        if p >= threshold:
            run.append((p, start))
        elif run:
            events.append((run[0][1], run[-1][1] + window_s,
                           sum(q for q, _ in run) / len(run), len(run)))
            run = []
    return events
