"""Feedforward layers: dense, activations, 1D convolution, max pooling,
embedding lookup, flatten, and inverted dropout.

Convolution and pooling operate on batches of time-major word matrices,
[B, n, k] (n positions, k channels), and reject any other shape.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError, ShapeError
from .core import Layer, Parameter, as_float, glorot_uniform, sigmoid


class Dense(Layer):
    """y = xW + b on [batch, in] -> [batch, out]."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str = "dense"):
        self.w = Parameter(f"{name}.W", glorot_uniform(rng, (n_in, n_out), n_in, n_out))
        self.b = Parameter(f"{name}.b", np.zeros(n_out))
        self._x = None

    def forward(self, x, train: bool = False):
        x = as_float(x, self.w.value.dtype)
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise ShapeError(
                f"dense expects [batch, {self.w.shape[0]}], got {x.shape}"
            )
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, grad):
        self.w.grad += self._x.T @ grad
        self.b.grad += grad.sum(axis=0)
        return grad @ self.w.value.T

    def params(self):
        return [self.w, self.b]


class ReLU(Layer):
    def forward(self, x, train: bool = False):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad):
        return grad * self._mask


class Sigmoid(Layer):
    def forward(self, x, train: bool = False):
        self._out = sigmoid(x)
        return self._out

    def backward(self, grad):
        return grad * self._out * (1.0 - self._out)


def _as_batch(x, dtype=None) -> np.ndarray:
    x = as_float(x, dtype)
    if x.ndim != 3:
        raise ShapeError(f"expected [batch, n, k], got shape {x.shape}")
    return x


class Conv1d(Layer):
    """Valid 1D convolution, stride 1: [B, n, k] -> [B, n-h+1, f].

    Each of the f filters spans the full channel width k over a window of
    h positions, so filters have shape [f, h, k].

    Both passes loop over the h filter taps with one batched matmul per
    tap, all on BLAS and without an im2col copy of the input. Backward
    takes the input gradient as grad @ W[:, t, :] and the weight gradient
    as the per-example [f, L] @ [L, k] product grad^T x[t : t+L], summed
    over the batch.
    """

    def __init__(
        self,
        in_channels: int,
        n_filters: int,
        width: int,
        rng: np.random.Generator,
        name: str = "conv",
    ):
        if width < 1:
            raise ConfigError("filter width must be >= 1")
        fan_in = width * in_channels
        self.w = Parameter(
            f"{name}.W",
            glorot_uniform(rng, (n_filters, width, in_channels), fan_in, n_filters),
        )
        self.b = Parameter(f"{name}.b", np.zeros(n_filters))
        self.width = width
        self._x = None

    def forward(self, x, train: bool = False):
        x = _as_batch(x, self.w.value.dtype)
        batch, n, k = x.shape
        h = self.width
        if k != self.w.shape[2]:
            raise ShapeError(f"conv1d expects {self.w.shape[2]} channels, got {k}")
        if n < h:
            raise ShapeError(f"input length {n} shorter than filter width {h}")
        self._x = x
        length = n - h + 1
        out = np.broadcast_to(self.b.value, (batch, length, self.w.shape[0])).copy()
        for dt in range(h):
            out += x[:, dt : dt + length, :] @ self.w.value[:, dt, :].T
        return out

    def backward(self, grad):
        x = self._x
        h = self.width
        length = grad.shape[1]
        grad_t = grad.transpose(0, 2, 1)
        dx = np.zeros_like(x)
        for dt in range(h):
            self.w.grad[:, dt, :] += (grad_t @ x[:, dt : dt + length, :]).sum(axis=0)
            dx[:, dt : dt + length, :] += grad @ self.w.value[:, dt, :]
        self.b.grad += grad.sum(axis=(0, 1))
        return dx

    def params(self):
        return [self.w, self.b]


class MaxPool1d(Layer):
    """Per-channel window max: [B, m, f] -> [B, ceil(m/pool), f].

    The tail window may be shorter. Forward takes only the max and keeps
    the windows; backward finds in them the first position attaining
    each window's max and routes the window's gradient there.
    """

    def __init__(self, pool: int):
        if pool < 1:
            raise ConfigError("pool size must be >= 1")
        self.pool = pool

    def forward(self, x, train: bool = False):
        x = _as_batch(x)
        batch, m, f = x.shape
        n_win = math.ceil(m / self.pool)
        # -inf padding never wins a window, so the tail keeps its own max
        padded = np.pad(x, ((0, 0), (0, n_win * self.pool - m), (0, 0)), constant_values=-np.inf)
        self._windows = padded.reshape(batch, n_win, self.pool, f)
        self._length = m
        return self._windows.max(axis=2)

    def backward(self, grad):
        windows = self._windows
        dx = np.zeros_like(windows)
        # windows are disjoint, so no input position receives two gradients
        np.put_along_axis(dx, windows.argmax(axis=2)[:, :, None], grad[:, :, None], axis=2)
        return dx.reshape(len(dx), -1, dx.shape[3])[:, : self._length]


class MaxOverTime(Layer):
    """Max across all time positions: [B, m, f] -> [B, f]. Backward routes
    the gradient to the first position attaining the max."""

    def forward(self, x, train: bool = False):
        self._x = _as_batch(x)
        return self._x.max(axis=1)

    def backward(self, grad):
        dx = np.zeros_like(self._x)
        np.put_along_axis(dx, self._x.argmax(axis=1)[:, None], grad[:, None], axis=1)
        return dx


class Flatten(Layer):
    def forward(self, x, train: bool = False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Embedding(Layer):
    """Index lookup [B, T] -> [B, T, d]; row 0 is the frozen pad row, and
    pad positions read zeros whatever it holds.

    Backward scatters the [B*T, d] output gradient into the rows it was
    read from as one sparse product: a [V+1, B*T] one-hot matrix in CSR
    form times the gradient. Each row sums its tokens in input order, as
    an ``np.add.at`` scatter would.
    """

    def __init__(self, matrix: np.ndarray, trainable: bool = True, name: str = "emb"):
        self.m = Parameter(f"{name}.M", np.array(matrix, dtype=np.float64), trainable)
        self._idx = None

    def forward(self, x, train: bool = False):
        idx = np.asarray(x)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ShapeError("embedding input must be integer indices")
        self._idx = idx
        out = self.m.value[idx]
        out[idx == 0] = 0.0
        return out

    def backward(self, grad):
        if self.m.trainable:
            flat = self._idx.ravel()
            n = flat.size
            onehot = sp.csr_matrix(
                (np.ones(n, self.m.value.dtype), (flat, np.arange(n))), shape=(self.m.shape[0], n)
            )
            self.m.grad += onehot @ grad.reshape(n, -1)
            self.m.grad[0] = 0.0  # pad row stays zero
        return None

    def params(self):
        return [self.m]


class Dropout(Layer):
    """Inverted dropout: train-time mask scaled by 1/(1-rate); identity
    in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask = None

    def forward(self, x, train: bool = False):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = self.rng.random(x.shape) >= self.rate
        self._mask = keep.astype(x.dtype) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask
