"""Recurrent layers (simple RNN, LSTM, GRU) with exact BPTT gradients,
plus a bidirectional wrapper.

All three share one convention: input [B, T, d], zero initial state, and
the same parameter tensors applied at every time step. A layer returns
the last hidden state [B, H], or the full state sequence [B, T, H] when
``return_sequences`` is set.

Each cell holds three parameters, ``{name}.W`` [d, G·H], ``{name}.U``
[H, G·H] and ``{name}.b`` [G·H], with one H-column block per gate: G is
1 for the simple RNN, 4 for the LSTM, stored (i, f, g, o), and 3 for the
GRU, stored (r, z, h~). The cells compute these equations, which the
tests restate one step at a time as the layers' reference:

  simple RNN  h_t = tanh(x W + h U + b)
  LSTM        i,f,o = sigmoid(.), g = tanh(.), c_t = f*c + i*g,
              h_t = o * tanh(c_t)
  GRU (Cho)   r,z = sigmoid(.), h~ = tanh(x W_h + (r*h) U_h + b_h),
              h_t = (1-z)*h + z*h~

The layers run these equations time-major, with a step's gate values in
one contiguous [G, B, H] block, in each cell's ``gates`` order: (o, i, f,
g) for the LSTM and (r, z, h~) for the GRU, so that one sigmoid call
covers a step's sigmoid gates. As in Appleyard et al. 2016 (arXiv
1604.01946), forward computes x W + b for all steps before the time loop,
which keeps one stacked h @ U product and the elementwise work. Backward
forms the derivative factors of a block of steps at once, its loop keeps
only the products with U^T, and the block's W, U and b gradients and dx
are one GEMM each. Backward reads, and leaves intact, what forward (train
or not) cached.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .core import Layer, Parameter, as_float, glorot_uniform, orthogonal, sigmoid


_BLOCK_ROWS = 512  # rows (steps x batch) per backward block


class _Recurrent(Layer):
    """One W [d, G·H], U [H, G·H], b [G·H] triple, one H-column block per
    gate. ``gates`` lists the blocks in the order the kernels run them;
    each cell's forward runs its time loop between ``_rows`` and
    ``_output``, and its backward runs through ``_bptt``."""

    gates: tuple[int, ...]

    def __init__(self, name: str, w: np.ndarray, u: np.ndarray, return_sequences: bool):
        self.w = Parameter(f"{name}.W", w)
        self.u = Parameter(f"{name}.U", u)
        self.b = Parameter(f"{name}.b", np.zeros(u.shape[1]))
        self.n_in, self.n_hidden = w.shape[0], u.shape[0]
        self.return_sequences = return_sequences

    def params(self):
        return [self.w, self.u, self.b]

    def _blocks(self, value):
        """value's column blocks in ``gates`` order, stacked [G, rows, H]."""
        n = self.n_hidden
        return np.stack([value[:, k * n : (k + 1) * n] for k in self.gates])

    def _project(self, x1, out=None):
        """Input projection x W + b of every step and gate, [T, G, B, H]."""
        wb = self._blocks(np.vstack((self.w.value, self.b.value)))
        return np.matmul(x1[:, None], wb, out=out)

    def _rows(self, x):
        """[B, T, d] input as time-major rows [T, B, d+1] in the parameters'
        dtype whose last column is 1, so that one product with the stacked
        [W; b] adds the bias too; kept for backward."""
        x = as_float(x, self.w.value.dtype)
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(f"recurrent layer expects [batch, time, {self.n_in}], got {x.shape}")
        ones = np.ones((x.shape[1], x.shape[0], 1), x.dtype)
        self._x1 = np.concatenate([x.transpose(1, 0, 2), ones], axis=2)
        return self._x1

    def _output(self, hs):
        """Keep the states hs [T+1, B, H] for backward and return the last,
        or every step's as [B, T, H] with ``return_sequences``."""
        self._hs = hs
        return hs[1:].transpose(1, 0, 2) if self.return_sequences else hs[-1]

    def _bptt(self, grad, factors, step, extra=0, h_cand=None):
        """Backpropagate through time in blocks of steps, the last block
        first, add the W, U and b gradients and return dx [B, T, d].
        ``factors(lo, hi, d)`` fills d [hi-lo, G+extra, B, H] with the
        derivative factors of steps lo..hi-1: one slot per gate, then
        ``extra`` slots for the cell's own use. ``step(t, d[t-lo], dh)``
        scales the gate slots into pre-activation gradients and turns dh
        into the gradient entering step t-1. Each gate's U block multiplies
        h_prev, or h_cand for the last gate when given (the GRU's r*h).

        After each block, entries of dh below the smallest normal float are
        set to 0: over long sequences dh decays into subnormals, on which
        every later step's arithmetic runs many times slower.
        """
        x1, h_prev = self._x1, self._hs[:-1]
        T, batch, n = h_prev.shape
        width = len(self.gates) * n
        dtype = x1.dtype
        g_out = grad.transpose(1, 0, 2) if self.return_sequences else None
        dh = np.array(grad[:, -1] if self.return_sequences else grad, dtype)
        tiny = np.finfo(dtype).tiny
        size = max(1, _BLOCK_ROWS // batch)
        buf = np.empty((min(size, T), len(self.gates) + extra, batch, n), dtype)
        cols = np.concatenate([np.arange(k * n, (k + 1) * n) for k in self.gates])
        w_cat = self.w.value[:, cols]
        gwb = np.zeros((w_cat.shape[0] + 1, width), dtype)
        gu = np.zeros((n, width), dtype)
        split = width - (0 if h_cand is None else n)
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
            rows = d[:, : len(self.gates)].transpose(0, 2, 1, 3).reshape(-1, width)
            gwb += x1[lo:hi].reshape(len(rows), -1).T @ rows
            gu[:, :split] += h_prev[lo:hi].reshape(len(rows), n).T @ rows[:, :split]
            if h_cand is not None:
                gu[:, split:] += h_cand[lo:hi].reshape(len(rows), n).T @ rows[:, split:]
            np.matmul(rows, w_cat.T, out=dx[lo:hi].reshape(len(rows), -1))
        self.w.grad[:, cols] += gwb[:-1]
        self.b.grad[cols] += gwb[-1]
        self.u.grad[:, cols] += gu
        return dx.transpose(1, 0, 2)


class SimpleRNN(_Recurrent):
    gates = (0,)

    def __init__(
        self,
        n_in: int,
        n_hidden: int,
        rng: np.random.Generator,
        return_sequences: bool = False,
        name: str = "rnn",
    ):
        w = glorot_uniform(rng, (n_in, n_hidden), n_in, n_hidden)
        super().__init__(name, w, orthogonal(rng, n_hidden), return_sequences)

    def forward(self, x, train: bool = False):
        x1 = self._rows(x)
        T, batch = x1.shape[:2]
        hs = np.zeros((T + 1, batch, self.n_hidden), x1.dtype)
        self._project(x1, out=hs[1:, None])
        u = self.u.value
        rec = np.empty((batch, self.n_hidden), x1.dtype)
        for t in range(T):
            np.matmul(hs[t], u, out=rec)
            h = hs[t + 1]
            np.tanh(np.add(h, rec, out=h), out=h)
        return self._output(hs)

    def backward(self, grad):
        hs = self._hs
        u_t = self.u.value.T

        def factors(lo, hi, d):
            np.subtract(1.0, np.square(hs[lo + 1 : hi + 1], out=d[:, 0]), out=d[:, 0])

        def step(t, dt, dh):
            dt[0] *= dh
            np.matmul(dt[0], u_t, out=dh)

        return self._bptt(grad, factors, step)


class LSTM(_Recurrent):
    """Standard LSTM; the hidden-to-hidden matrix is built from four
    independently orthogonal blocks, one per gate."""

    gates = (3, 0, 1, 2)  # run (o, i, f, g) of the stored (i, f, g, o) blocks

    def __init__(
        self,
        n_in: int,
        n_hidden: int,
        rng: np.random.Generator,
        return_sequences: bool = False,
        name: str = "lstm",
    ):
        w = glorot_uniform(rng, (n_in, 4 * n_hidden), n_in, n_hidden)
        u = np.concatenate([orthogonal(rng, n_hidden) for _ in range(4)], axis=1)
        super().__init__(name, w, u, return_sequences)

    def forward(self, x, train: bool = False):
        x1 = self._rows(x)
        T, batch = x1.shape[:2]
        n = self.n_hidden
        a = self._project(x1)
        u = self._blocks(self.u.value)
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
        self._cs, self._a = cs, a
        return self._output(hs)

    def backward(self, grad):
        cs, a = self._cs, self._a
        u_t = self._blocks(self.u.value).transpose(0, 2, 1)
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

        return self._bptt(grad, factors, step, extra=1)


class GRU(_Recurrent):
    gates = (0, 1, 2)  # stored and run as (r, z, h~)

    def __init__(
        self,
        n_in: int,
        n_hidden: int,
        rng: np.random.Generator,
        return_sequences: bool = False,
        name: str = "gru",
    ):
        # drawn gate by gate in (z, r, h~) order, which fixes each seed's
        # initial values, and stored as (r, z, h~) blocks
        z, r, h = [
            (glorot_uniform(rng, (n_in, n_hidden), n_in, n_hidden), orthogonal(rng, n_hidden))
            for _ in range(3)
        ]
        w, u = (np.hstack(blocks) for blocks in zip(r, z, h))
        super().__init__(name, w, u, return_sequences)

    def forward(self, x, train: bool = False):
        x1 = self._rows(x)
        T, batch = x1.shape[:2]
        n = self.n_hidden
        a = self._project(x1)
        u = self._blocks(self.u.value)
        u_rz, uh = u[:2], u[2]
        hs = np.zeros((T + 1, batch, n), a.dtype)
        rh = np.empty((T, batch, n), a.dtype)
        rec = np.empty((2, batch, n), a.dtype)
        tmp = np.empty((batch, n), a.dtype)
        for t in range(T):
            h, rz = hs[t], a[t, :2]
            r, z, c = a[t]
            np.matmul(h, u_rz, out=rec)
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
        self._rh, self._a = rh, a
        return self._output(hs)

    def backward(self, grad):
        hs, a = self._hs, self._a
        u_t = self._blocks(self.u.value).transpose(0, 2, 1)
        u_rz_t, uh_t = u_t[:2], u_t[2]
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
            np.matmul(dt[:2], u_rz_t, out=rec)
            dh += rec[0]
            dh += rec[1]

        return self._bptt(grad, factors, step, extra=1, h_cand=self._rh)


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
