"""Per-inference FLOPs and on-chip space accounting.

Conventions, fixed so cross-variant comparisons are well defined:

- FLOPs count 2 per multiply-accumulate, over convolution and dense layers
  only (pooling, rectifier, and softmax are excluded).
- Space is 32-bit everywhere: the weights plus a double-buffer activation
  budget, i.e. the input buffer plus the largest sum of two consecutive layer
  outputs (each layer reads one region and writes the other). This models an
  on-device runtime; the numpy engine here allocates per layer instead.
  kB means 1000 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import (
    BYTES_PER_VALUE,
    Conv1d,
    Dense,
    ModelSpec,
    activation_shapes,
    param_shapes,
)


@dataclass(frozen=True)
class ResourceProfile:
    flops: int
    param_count: int
    param_bytes: int
    peak_activation_bytes: int
    space_bytes: int

    @property
    def flops_m(self) -> float:
        return self.flops / 1e6

    @property
    def space_kb(self) -> float:
        return self.space_bytes / 1000.0


def conv_flops(out_values: int, fan_in: int) -> int:
    """2 FLOPs per multiply-accumulate across all output values."""
    return 2 * out_values * fan_in


def dense_flops(in_features: int, out_features: int) -> int:
    return 2 * in_features * out_features


def profile(spec: ModelSpec) -> ResourceProfile:
    """Resource profile of one single-window inference."""
    shapes = activation_shapes(spec)
    flops = 0
    in_shape = shapes[0]
    for layer, out_shape in zip(spec.layers, shapes[1:]):
        if isinstance(layer, Conv1d):
            flops += conv_flops(int(np.prod(out_shape)), in_shape[0] * layer.kernel)
        elif isinstance(layer, Dense):
            flops += dense_flops(in_shape[0], layer.out_features)
        in_shape = out_shape

    param_count = sum(int(np.prod(s)) for s in param_shapes(spec))
    param_bytes = param_count * BYTES_PER_VALUE

    out_floats = [int(np.prod(s)) for s in shapes[1:]]
    if len(out_floats) > 1:
        peak_pair = max(a + b for a, b in zip(out_floats, out_floats[1:]))
    else:
        peak_pair = out_floats[0]
    input_floats = int(np.prod(shapes[0]))
    peak_activation_bytes = (input_floats + peak_pair) * BYTES_PER_VALUE

    return ResourceProfile(
        flops=flops,
        param_count=param_count,
        param_bytes=param_bytes,
        peak_activation_bytes=peak_activation_bytes,
        space_bytes=param_bytes + peak_activation_bytes,
    )
