"""Parameter container, layer protocol, and initializers.

Parameters are float64 unless cast (``models.build_network`` casts its
networks to float32), and every layer computes in its parameters' dtype,
or in its input's when it has none. Layers cache whatever their backward
pass needs during forward, so a forward/backward pair must not be
interleaved with another forward on the same layer instance.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import NumericError


def guard_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """Raise NumericError if the array holds NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")
    return arr


def as_float(x, dtype=None) -> np.ndarray:
    """x as an array of ``dtype``; by default float32 stays float32 and
    anything else becomes float64."""
    x = np.asarray(x)
    if dtype is None:
        dtype = np.float32 if x.dtype == np.float32 else np.float64
    return x.astype(dtype, copy=False)


def sigmoid(z, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) in float32 for float32 z, else in float64, into
    ``out`` when given (it may be z). Where exp(-z) overflows (z below
    -88.7 in float32, -709 in float64) the result is exactly 0, as in
    expit."""
    z = as_float(z)
    out = np.negative(z, out=np.empty_like(z) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


class Parameter:
    """Named weight tensor with a shape-matched gradient accumulator."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, name: str, value: np.ndarray, trainable: bool = True):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.trainable = trainable

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base layer: forward caches, backward consumes the cache."""

    def forward(self, x, train: bool = False):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def params(self) -> list[Parameter]:
        return []


class Sequential(Layer):
    """Plain layer chain; backward replays in reverse order."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    def forward(self, x, train: bool = False):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> list[Parameter]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


def glorot_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
) -> np.ndarray:
    """Uniform on ±sqrt(6 / (fan_in + fan_out))."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal n×n matrix: QR of a seeded Gaussian draw, with the
    sign of R's diagonal folded in so the result is unique."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))
