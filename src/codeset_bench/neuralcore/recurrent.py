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

The layers run these equations time-major, with a step's gate values in
one contiguous [G, B, H] block, ordered (o, i, f, g) for the LSTM and
(r, z, h~) for the GRU so that one sigmoid call covers a step's sigmoid
gates. As in Appleyard et al. 2016 (arXiv 1604.01946), forward computes
x W + b for all steps before the time loop, which keeps one stacked
h @ U product and the elementwise work. Backward forms the derivative
factors of a block of steps at once, its loop keeps only the products
with U^T, and the block's W, U and b gradients and dx are one GEMM each.
Backward reads, and leaves intact, what forward (train or not) cached.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .core import Layer, Parameter, as_float, glorot_uniform, orthogonal, sigmoid


def rnn_step(x, h, wx, wh, b):
    """One simple-RNN step: tanh(x W_x + h W_h + b)."""
    return np.tanh(x @ wx + h @ wh + b)


def lstm_step(x, h, c, w, u, b):
    """One LSTM step; gate order along the 4H axis is (i, f, g, o).

    Returns (h_new, c_new, gates) where gates = (i, f, g, o).
    """
    z = x @ w + h @ u + b
    n = h.shape[-1]
    i = sigmoid(z[..., :n])
    f = sigmoid(z[..., n : 2 * n])
    g = np.tanh(z[..., 2 * n : 3 * n])
    o = sigmoid(z[..., 3 * n :])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new, (i, f, g, o)


def gru_step(x, h, wz, uz, bz, wr, ur, br, wh, uh, bh):
    """One GRU step in the original Cho formulation.

    Returns (h_new, (z, r, h_tilde)).
    """
    z = sigmoid(x @ wz + h @ uz + bz)
    r = sigmoid(x @ wr + h @ ur + br)
    h_tilde = np.tanh(x @ wh + (r * h) @ uh + bh)
    h_new = (1.0 - z) * h + z * h_tilde
    return h_new, (z, r, h_tilde)


def _with_ones(x, d, dtype):
    """[B, T, d] input as time-major rows [T, B, d+1] of ``dtype`` whose
    last column is 1, so that one product with the stacked [W; b] adds the
    bias too."""
    x = as_float(x, dtype)
    if x.ndim != 3 or x.shape[2] != d:
        raise ShapeError(f"recurrent layer expects [batch, time, {d}], got {x.shape}")
    ones = np.ones((x.shape[1], x.shape[0], 1), x.dtype)
    return np.concatenate([x.transpose(1, 0, 2), ones], axis=2)


def _project(x1, gates, out=None):
    """Input projection x W + b of every step and gate, [T, G, B, H]."""
    wb = np.stack([np.vstack((w.value[:, cols], b.value[cols])) for w, _, b, cols in gates])
    return np.matmul(x1[:, None], wb, out=out)


def _stack_u(gates):
    return np.stack([u.value[:, cols] for _, u, _, cols in gates])


def _bptt(grad, return_sequences, x1, h_prev, gates, factors, step, extra=0, h_cand=None):
    """Backpropagate through time in blocks of steps, the last block first,
    and return dx [B, T, d]. ``factors(lo, hi, d)`` fills d [hi-lo, G+extra,
    B, H] with the derivative factors of steps lo..hi-1: one slot per gate,
    then ``extra`` slots for the cell's own use. ``step(t, d[t-lo], dh)``
    scales the gate slots into pre-activation gradients and turns dh into
    the gradient entering step t-1. Each gate's U multiplies h_prev, or
    h_cand for the last gate when given (the GRU's r*h).

    After each block, entries of dh below the smallest normal float are
    set to 0: over long sequences dh decays into subnormals, on which
    every later step's arithmetic runs many times slower.
    """
    T, batch, n = h_prev.shape
    n_gates = len(gates)
    dtype = x1.dtype
    g_out = grad.transpose(1, 0, 2) if return_sequences else None
    dh = np.array(grad[:, -1] if return_sequences else grad, dtype)
    tiny = np.finfo(dtype).tiny
    size = max(1, _BLOCK_ROWS // batch)
    buf = np.empty((min(size, T), n_gates + extra, batch, n), dtype)
    w_cat = np.hstack([w.value[:, cols] for w, _, _, cols in gates])
    gwb = np.zeros((w_cat.shape[0] + 1, n_gates * n), dtype)
    gu = np.zeros((n, n_gates * n), dtype)
    split = n_gates * n - (0 if h_cand is None else n)
    dx = np.empty((T, batch, w_cat.shape[0]), dtype)
    for hi in range(T, 0, -size):
        lo = max(hi - size, 0)
        d = buf[: hi - lo]
        factors(lo, hi, d)
        for t in range(hi - 1, lo - 1, -1):
            step(t, d[t - lo], dh)
            if g_out is not None and t:
                dh += g_out[t - 1]
        dh[np.abs(dh) < tiny] = 0.0
        rows = d[:, :n_gates].transpose(0, 2, 1, 3).reshape(-1, n_gates * n)
        gwb += x1[lo:hi].reshape(len(rows), -1).T @ rows
        gu[:, :split] += h_prev[lo:hi].reshape(len(rows), n).T @ rows[:, :split]
        if h_cand is not None:
            gu[:, split:] += h_cand[lo:hi].reshape(len(rows), n).T @ rows[:, split:]
        np.matmul(rows, w_cat.T, out=dx[lo:hi].reshape(len(rows), -1))
    for k, (w, u, b, cols) in enumerate(gates):
        blk = slice(k * n, (k + 1) * n)
        w.grad[:, cols] += gwb[:-1, blk]
        b.grad[cols] += gwb[-1, blk]
        u.grad[:, cols] += gu[:, blk]
    return dx.transpose(1, 0, 2)


_BLOCK_ROWS = 512  # rows (steps x batch) per backward block


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

    def _gates(self):
        return [(self.wx, self.wh, self.b, slice(None))]

    def forward(self, x, train: bool = False):
        x1 = _with_ones(x, self.n_in, self.wx.value.dtype)
        T, batch = x1.shape[:2]
        hs = np.zeros((T + 1, batch, self.n_hidden), x1.dtype)
        _project(x1, self._gates(), out=hs[1:, None])
        wh = self.wh.value
        rec = np.empty((batch, self.n_hidden), x1.dtype)
        for t in range(T):
            np.matmul(hs[t], wh, out=rec)
            h = hs[t + 1]
            np.tanh(np.add(h, rec, out=h), out=h)
        self._x1, self._hs = x1, hs
        return hs[1:].transpose(1, 0, 2) if self.return_sequences else hs[-1]

    def backward(self, grad):
        hs = self._hs
        wh_t = self.wh.value.T

        def factors(lo, hi, d):
            np.subtract(1.0, np.square(hs[lo + 1 : hi + 1], out=d[:, 0]), out=d[:, 0])

        def step(t, dt, dh):
            dt[0] *= dh
            np.matmul(dt[0], wh_t, out=dh)

        return _bptt(grad, self.return_sequences, self._x1, hs[:-1], self._gates(),
                     factors, step)

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

    def _gates(self):
        # internal order (o, i, f, g) of the parameters' (i, f, g, o) column blocks
        n = self.n_hidden
        return [(self.w, self.u, self.b, slice(k * n, (k + 1) * n)) for k in (3, 0, 1, 2)]

    def forward(self, x, train: bool = False):
        x1 = _with_ones(x, self.n_in, self.w.value.dtype)
        T, batch = x1.shape[:2]
        n = self.n_hidden
        gates = self._gates()
        a = _project(x1, gates)
        u = _stack_u(gates)
        hs = np.zeros((T + 1, batch, n), a.dtype)
        cs = np.zeros((T + 1, batch, n), a.dtype)
        rec = np.empty((4, batch, n), a.dtype)
        tmp = np.empty((batch, n), a.dtype)
        for t in range(T):
            o, i, f, g = at = a[t]
            np.matmul(hs[t], u, out=rec)
            at += rec
            sigmoid(at[:3], out=at[:3])
            np.tanh(g, out=g)
            c = cs[t + 1]
            np.multiply(f, cs[t], out=c)
            np.multiply(i, g, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(o, tmp, out=hs[t + 1])
        self._x1, self._hs, self._cs, self._a = x1, hs, cs, a
        return hs[1:].transpose(1, 0, 2) if self.return_sequences else hs[-1]

    def backward(self, grad):
        cs, a = self._cs, self._a
        gates = self._gates()
        u_t = _stack_u(gates).transpose(0, 2, 1)
        dc, tmp = np.zeros(a.shape[2:], a.dtype), np.empty(a.shape[2:], a.dtype)
        rec = np.empty(a.shape[1:], a.dtype)

        def factors(lo, hi, d):
            o, i, f, g = a[lo:hi].transpose(1, 0, 2, 3)
            p = d[:, 4]
            np.tanh(cs[lo + 1 : hi + 1], out=p)
            np.subtract(1.0, a[lo:hi, :3], out=d[:, :3])
            d[:, :3] *= a[lo:hi, :3]  # sigmoid' of o, i, f
            d[:, 0] *= p  # do_pre / dh = tanh(c) o'
            d[:, 1] *= g  # di_pre / dc = g i'
            d[:, 2] *= cs[lo:hi]  # df_pre / dc = c_prev f'
            np.subtract(1.0, np.square(g, out=d[:, 3]), out=d[:, 3])
            d[:, 3] *= i  # dg_pre / dc = i tanh'(g)
            np.subtract(1.0, np.square(p, out=p), out=p)
            p *= o  # dc / dh = o tanh'(c)

        def step(t, dt, dh):
            np.multiply(dh, dt[4], out=tmp)
            np.add(dc, tmp, out=dc)
            dt[0] *= dh
            dt[1:4] *= dc
            np.multiply(dc, a[t, 2], out=dc)
            np.matmul(dt[:4], u_t, out=rec)
            rec.sum(axis=0, out=dh)

        return _bptt(grad, self.return_sequences, self._x1, self._hs[:-1], gates,
                     factors, step, extra=1)

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

    def _gates(self):  # internal order (r, z, h~)
        trios = (self.wr, self.ur, self.br), (self.wz, self.uz, self.bz), (self.wh, self.uh, self.bh)
        return [(w, u, b, slice(None)) for w, u, b in trios]

    def forward(self, x, train: bool = False):
        x1 = _with_ones(x, self.n_in, self.wz.value.dtype)
        T, batch = x1.shape[:2]
        n = self.n_hidden
        gates = self._gates()
        a = _project(x1, gates)
        u = _stack_u(gates[:2])
        uh = self.uh.value
        hs = np.zeros((T + 1, batch, n), a.dtype)
        rh = np.empty((T, batch, n), a.dtype)
        rec = np.empty((2, batch, n), a.dtype)
        tmp = np.empty((batch, n), a.dtype)
        for t in range(T):
            h, rz = hs[t], a[t, :2]
            r, z, c = a[t]
            np.matmul(h, u, out=rec)
            rz += rec
            sigmoid(rz, out=rz)
            np.multiply(r, h, out=rh[t])
            np.matmul(rh[t], uh, out=tmp)
            c += tmp
            np.tanh(c, out=c)
            h_new = hs[t + 1]
            np.subtract(c, h, out=h_new)
            h_new *= z
            h_new += h
        self._x1, self._hs, self._rh, self._a = x1, hs, rh, a
        return hs[1:].transpose(1, 0, 2) if self.return_sequences else hs[-1]

    def backward(self, grad):
        hs, a = self._hs, self._a
        gates = self._gates()
        u_t = _stack_u(gates[:2]).transpose(0, 2, 1)
        uh_t = self.uh.value.T
        d_rh = np.empty(a.shape[2:], a.dtype)
        rec = np.empty((2,) + d_rh.shape, a.dtype)

        def factors(lo, hi, d):
            r, z, c = a[lo:hi].transpose(1, 0, 2, 3)
            h_prev = hs[lo:hi]
            np.subtract(1.0, z, out=d[:, 3])  # dh_prev / dh along the direct path
            np.subtract(1.0, r, out=d[:, 0])
            d[:, 0] *= r
            d[:, 0] *= h_prev  # dr_pre / d(r*h) = h r'
            np.subtract(c, h_prev, out=d[:, 1])
            d[:, 1] *= z
            d[:, 1] *= d[:, 3]  # dz_pre / dh = (h~ - h) z'
            np.subtract(1.0, np.square(c, out=d[:, 2]), out=d[:, 2])
            d[:, 2] *= z  # dh~_pre / dh = z tanh'(h~)

        def step(t, dt, dh):
            dt[1:3] *= dh
            np.matmul(dt[2], uh_t, out=d_rh)
            dt[0] *= d_rh
            dh *= dt[3]
            np.multiply(d_rh, a[t, 0], out=d_rh)
            dh += d_rh
            np.matmul(dt[:2], u_t, out=rec)
            dh += rec[0]
            dh += rec[1]

        return _bptt(grad, self.return_sequences, self._x1, hs[:-1], gates,
                     factors, step, extra=1, h_cand=self._rh)

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
        out_b = self.bwd.forward(x[:, ::-1], train=train)
        if self.return_sequences:
            out_b = out_b[:, ::-1]
        return np.concatenate([out_f, out_b], axis=-1)

    def backward(self, grad):
        n = grad.shape[-1] // 2
        g_b = grad[:, ::-1, n:] if self.return_sequences else grad[..., n:]
        return self.fwd.backward(grad[..., :n]) + self.bwd.backward(g_b)[:, ::-1]

    def params(self):
        return self.fwd.params() + self.bwd.params()
