"""Recurrent layers (simple RNN, LSTM, GRU) with exact BPTT gradients,
plus a bidirectional wrapper.

All three share one convention: input [B, T, d], zero initial state, and
the same parameter tensors applied at every time step. A layer returns
the last hidden state [B, H], or the full state sequence [B, T, H] when
``return_sequences`` is set.

Step functions are exposed standalone so the cell equations can be
checked in isolation:

  simple RNN  h_t = tanh(x W_x + h W_h + b)
  LSTM        i,f,o = sigmoid(.), g = tanh(.), c_t = f*c + i*g,
              h_t = o * tanh(c_t)
  GRU (Cho)   z,r = sigmoid(.), h~ = tanh(x W_h + (r*h) U_h + b_h),
              h_t = (1-z)*h + z*h~
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ShapeError
from .core import Layer, Parameter, glorot_uniform, orthogonal


def rnn_step(x, h, wx, wh, b):
    """One simple-RNN step: tanh(x W_x + h W_h + b)."""
    return np.tanh(x @ wx + h @ wh + b)


def lstm_step(x, h, c, w, u, b):
    """One LSTM step; gate order along the 4H axis is (i, f, g, o).

    Returns (h_new, c_new, gates) where gates = (i, f, g, o).
    """
    z = x @ w + h @ u + b
    n = h.shape[-1]
    i = expit(z[..., :n])
    f = expit(z[..., n : 2 * n])
    g = np.tanh(z[..., 2 * n : 3 * n])
    o = expit(z[..., 3 * n :])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new, (i, f, g, o)


def gru_step(x, h, wz, uz, bz, wr, ur, br, wh, uh, bh):
    """One GRU step in the original Cho formulation.

    Returns (h_new, (z, r, h_tilde)).
    """
    z = expit(x @ wz + h @ uz + bz)
    r = expit(x @ wr + h @ ur + br)
    h_tilde = np.tanh(x @ wh + (r * h) @ uh + bh)
    h_new = (1.0 - z) * h + z * h_tilde
    return h_new, (z, r, h_tilde)


def _check_input(x, d):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != d:
        raise ShapeError(f"recurrent layer expects [batch, time, {d}], got {x.shape}")
    return x


class SimpleRNN(Layer):
    def __init__(
        self,
        n_in: int,
        n_hidden: int,
        rng: np.random.Generator,
        return_sequences: bool = False,
        name: str = "rnn",
    ):
        self.wx = Parameter(f"{name}.Wx", glorot_uniform(rng, (n_in, n_hidden), n_in, n_hidden))
        self.wh = Parameter(f"{name}.Wh", orthogonal(rng, n_hidden))
        self.b = Parameter(f"{name}.b", np.zeros(n_hidden))
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.return_sequences = return_sequences

    def step(self, x_t, h):
        return rnn_step(x_t, h, self.wx.value, self.wh.value, self.b.value)

    def forward(self, x, train: bool = False):
        x = _check_input(x, self.n_in)
        batch, T, _ = x.shape
        hs = np.zeros((batch, T + 1, self.n_hidden))
        for t in range(T):
            hs[:, t + 1] = self.step(x[:, t], hs[:, t])
        self._x, self._hs = x, hs
        return hs[:, 1:] if self.return_sequences else hs[:, -1]

    def backward(self, grad):
        x, hs = self._x, self._hs
        batch, T, _ = x.shape
        dx = np.zeros_like(x)
        carry = np.zeros((batch, self.n_hidden))
        for t in range(T - 1, -1, -1):
            if self.return_sequences:
                dh = carry + grad[:, t]
            else:
                dh = carry + (grad if t == T - 1 else 0.0)
            da = dh * (1.0 - hs[:, t + 1] ** 2)
            self.wx.grad += x[:, t].T @ da
            self.wh.grad += hs[:, t].T @ da
            self.b.grad += da.sum(axis=0)
            dx[:, t] = da @ self.wx.value.T
            carry = da @ self.wh.value.T
        return dx

    def params(self):
        return [self.wx, self.wh, self.b]


class LSTM(Layer):
    """Standard LSTM; the hidden-to-hidden matrix is built from four
    independently orthogonal blocks, one per gate."""

    def __init__(
        self,
        n_in: int,
        n_hidden: int,
        rng: np.random.Generator,
        return_sequences: bool = False,
        name: str = "lstm",
    ):
        self.w = Parameter(
            f"{name}.W", glorot_uniform(rng, (n_in, 4 * n_hidden), n_in, n_hidden)
        )
        self.u = Parameter(
            f"{name}.U",
            np.concatenate([orthogonal(rng, n_hidden) for _ in range(4)], axis=1),
        )
        self.b = Parameter(f"{name}.b", np.zeros(4 * n_hidden))
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.return_sequences = return_sequences

    def step(self, x_t, h, c):
        h_new, c_new, _ = lstm_step(x_t, h, c, self.w.value, self.u.value, self.b.value)
        return h_new, c_new

    def forward(self, x, train: bool = False):
        x = _check_input(x, self.n_in)
        batch, T, _ = x.shape
        n = self.n_hidden
        hs = np.zeros((batch, T + 1, n))
        cs = np.zeros((batch, T + 1, n))
        gates = []
        for t in range(T):
            h_new, c_new, g = lstm_step(
                x[:, t], hs[:, t], cs[:, t], self.w.value, self.u.value, self.b.value
            )
            hs[:, t + 1] = h_new
            cs[:, t + 1] = c_new
            gates.append(g)
        self._x, self._hs, self._cs, self._gates = x, hs, cs, gates
        return hs[:, 1:] if self.return_sequences else hs[:, -1]

    def backward(self, grad):
        x, hs, cs = self._x, self._hs, self._cs
        batch, T, _ = x.shape
        n = self.n_hidden
        dx = np.zeros_like(x)
        dh_carry = np.zeros((batch, n))
        dc_carry = np.zeros((batch, n))
        for t in range(T - 1, -1, -1):
            i, f, g, o = self._gates[t]
            if self.return_sequences:
                dh = dh_carry + grad[:, t]
            else:
                dh = dh_carry + (grad if t == T - 1 else 0.0)
            tc = np.tanh(cs[:, t + 1])
            do = dh * tc
            dc = dc_carry + dh * o * (1.0 - tc**2)
            di = dc * g
            dg = dc * i
            df = dc * cs[:, t]
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.w.grad += x[:, t].T @ dz
            self.u.grad += hs[:, t].T @ dz
            self.b.grad += dz.sum(axis=0)
            dx[:, t] = dz @ self.w.value.T
            dh_carry = dz @ self.u.value.T
            dc_carry = dc * f
        return dx

    def params(self):
        return [self.w, self.u, self.b]


class GRU(Layer):
    def __init__(
        self,
        n_in: int,
        n_hidden: int,
        rng: np.random.Generator,
        return_sequences: bool = False,
        name: str = "gru",
    ):
        def in_w():
            return glorot_uniform(rng, (n_in, n_hidden), n_in, n_hidden)

        self.wz = Parameter(f"{name}.Wz", in_w())
        self.uz = Parameter(f"{name}.Uz", orthogonal(rng, n_hidden))
        self.bz = Parameter(f"{name}.bz", np.zeros(n_hidden))
        self.wr = Parameter(f"{name}.Wr", in_w())
        self.ur = Parameter(f"{name}.Ur", orthogonal(rng, n_hidden))
        self.br = Parameter(f"{name}.br", np.zeros(n_hidden))
        self.wh = Parameter(f"{name}.Wh", in_w())
        self.uh = Parameter(f"{name}.Uh", orthogonal(rng, n_hidden))
        self.bh = Parameter(f"{name}.bh", np.zeros(n_hidden))
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.return_sequences = return_sequences

    def step(self, x_t, h):
        h_new, _ = gru_step(
            x_t, h,
            self.wz.value, self.uz.value, self.bz.value,
            self.wr.value, self.ur.value, self.br.value,
            self.wh.value, self.uh.value, self.bh.value,
        )
        return h_new

    def forward(self, x, train: bool = False):
        x = _check_input(x, self.n_in)
        batch, T, _ = x.shape
        n = self.n_hidden
        hs = np.zeros((batch, T + 1, n))
        gates = []
        for t in range(T):
            h_new, g = gru_step(
                x[:, t], hs[:, t],
                self.wz.value, self.uz.value, self.bz.value,
                self.wr.value, self.ur.value, self.br.value,
                self.wh.value, self.uh.value, self.bh.value,
            )
            hs[:, t + 1] = h_new
            gates.append(g)
        self._x, self._hs, self._gates = x, hs, gates
        return hs[:, 1:] if self.return_sequences else hs[:, -1]

    def backward(self, grad):
        x, hs = self._x, self._hs
        batch, T, _ = x.shape
        n = self.n_hidden
        dx = np.zeros_like(x)
        carry = np.zeros((batch, n))
        for t in range(T - 1, -1, -1):
            z, r, ht = self._gates[t]
            h_prev = hs[:, t]
            if self.return_sequences:
                dh = carry + grad[:, t]
            else:
                dh = carry + (grad if t == T - 1 else 0.0)
            dht = dh * z
            dz = dh * (ht - h_prev)
            dh_prev = dh * (1.0 - z)

            da_h = dht * (1.0 - ht**2)
            self.wh.grad += x[:, t].T @ da_h
            self.uh.grad += (r * h_prev).T @ da_h
            self.bh.grad += da_h.sum(axis=0)
            d_rh = da_h @ self.uh.value.T
            dr = d_rh * h_prev
            dh_prev += d_rh * r

            da_z = dz * z * (1.0 - z)
            self.wz.grad += x[:, t].T @ da_z
            self.uz.grad += h_prev.T @ da_z
            self.bz.grad += da_z.sum(axis=0)
            dh_prev += da_z @ self.uz.value.T

            da_r = dr * r * (1.0 - r)
            self.wr.grad += x[:, t].T @ da_r
            self.ur.grad += h_prev.T @ da_r
            self.br.grad += da_r.sum(axis=0)
            dh_prev += da_r @ self.ur.value.T

            dx[:, t] = (
                da_z @ self.wz.value.T
                + da_r @ self.wr.value.T
                + da_h @ self.wh.value.T
            )
            carry = dh_prev
        return dx

    def params(self):
        return [
            self.wz, self.uz, self.bz,
            self.wr, self.ur, self.br,
            self.wh, self.uh, self.bh,
        ]


class Bidirectional(Layer):
    """Runs one copy of a recurrent layer over the sequence and another
    over its reversal, concatenating their outputs on the feature axis.
    Parameter count is exactly double the wrapped layer's."""

    def __init__(self, forward_layer: Layer, backward_layer: Layer):
        if forward_layer.return_sequences != backward_layer.return_sequences:
            raise ShapeError("bidirectional halves disagree on return_sequences")
        self.fwd = forward_layer
        self.bwd = backward_layer
        self.return_sequences = forward_layer.return_sequences

    def forward(self, x, train: bool = False):
        out_f = self.fwd.forward(x, train=train)
        out_b = self.bwd.forward(np.ascontiguousarray(x[:, ::-1]), train=train)
        if self.return_sequences:
            out_b = out_b[:, ::-1]
        return np.concatenate([out_f, out_b], axis=-1)

    def backward(self, grad):
        n = grad.shape[-1] // 2
        g_f = grad[..., :n]
        g_b = grad[..., n:]
        if self.return_sequences:
            g_b = np.ascontiguousarray(g_b[:, ::-1])
        dx_f = self.fwd.backward(np.ascontiguousarray(g_f))
        dx_b = self.bwd.backward(np.ascontiguousarray(g_b))
        return dx_f + dx_b[:, ::-1]

    def params(self):
        return self.fwd.params() + self.bwd.params()
