"""Layer forward values, manual gradients, optimizers, checkpoints.

Forward checks pin hand-derivable values; gradient correctness is
established against central finite differences.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeset_bench.neuralcore as nc
from codeset_bench.errors import ConfigError, FormatError, NumericError, ShapeError
from codeset_bench.neuralcore import recurrent


def rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------------ dense

def test_dense_identity_weights_pass_input_through():
    layer = nc.Dense(3, 3, rng())
    layer.w.value = np.eye(3)
    layer.b.value = np.zeros(3)
    x = np.array([[0.5, -1.0, 2.0]])
    assert np.array_equal(layer.forward(x), x)


def test_dense_hand_value():
    layer = nc.Dense(2, 2, rng())
    layer.w.value = np.eye(2)
    layer.b.value = np.array([1.0, 1.0])
    out = layer.forward(np.array([[1.0, 2.0]]))
    assert out.tolist() == [[2.0, 3.0]]


def test_dense_gradients_match_finite_differences():
    model = nc.Sequential([nc.Dense(4, 3, rng(1))])
    err = nc.gradient_check(model, rng(2).standard_normal((5, 4)))
    assert err < 1e-6


# ----------------------------------------------------------------- conv1d

def test_conv_all_ones_fixture():
    # all-ones 4x2 input, all-ones width-2 filter, zero bias:
    # each window sums 2*2=4 over 3 positions
    layer = nc.Conv1d(in_channels=2, n_filters=1, width=2, rng=rng())
    layer.w.value = np.ones_like(layer.w.value)
    layer.b.value = np.zeros_like(layer.b.value)
    out = layer.forward(np.ones((1, 4, 2)))
    assert out.shape == (1, 3, 1)
    assert out.ravel().tolist() == [4.0, 4.0, 4.0]


def test_conv_filter_spanning_whole_input_leaves_one_position():
    layer = nc.Conv1d(in_channels=3, n_filters=2, width=6, rng=rng())
    out = layer.forward(rng(1).standard_normal((2, 6, 3)))
    assert out.shape == (2, 1, 2)


def test_conv_output_length_is_n_minus_width_plus_one():
    layer = nc.Conv1d(in_channels=2, n_filters=4, width=3, rng=rng())
    out = layer.forward(rng(1).standard_normal((8, 10, 2)), train=True)
    assert out.shape == (8, 8, 4)


def test_conv_rejects_inputs_shorter_than_filter():
    layer = nc.Conv1d(in_channels=2, n_filters=1, width=5, rng=rng())
    with pytest.raises(ShapeError, match="shorter than filter"):
        layer.forward(np.ones((1, 4, 2)))


def test_conv_rejects_channel_mismatch():
    layer = nc.Conv1d(in_channels=3, n_filters=1, width=2, rng=rng())
    with pytest.raises(ShapeError, match="channels"):
        layer.forward(np.ones((1, 6, 2)))


def test_conv_gradients_match_finite_differences():
    model = nc.Sequential([nc.Conv1d(in_channels=3, n_filters=4, width=3, rng=rng(1))])
    err = nc.gradient_check(model, rng(2).standard_normal((2, 9, 3)))
    assert err < 1e-6


def test_conv_backward_accumulates_gradients():
    layer = nc.Conv1d(in_channels=3, n_filters=4, width=5, rng=rng(1))
    x = rng(2).standard_normal((3, 11, 3))
    grad = rng(3).standard_normal(layer.forward(x, train=True).shape)
    layer.backward(grad)
    w_once, b_once = layer.w.grad.copy(), layer.b.grad.copy()
    layer.backward(grad)
    np.testing.assert_allclose(layer.w.grad, 2 * w_once, rtol=1e-12, atol=0)
    np.testing.assert_allclose(layer.b.grad, 2 * b_once, rtol=1e-12, atol=0)


def test_conv_backward_rejects_a_gradient_of_the_wrong_shape():
    layer = nc.Conv1d(in_channels=3, n_filters=4, width=3, rng=rng(1))
    assert layer.forward(np.ones((2, 9, 3)), train=True).shape == (2, 7, 4)
    for shape in ((2, 6, 4), (2, 8, 4), (1, 7, 4), (2, 7, 3), (2, 7), (2, 7, 4, 1)):
        with pytest.raises(ShapeError, match=r"conv1d backward expects grad \(2, 7, 4\)"):
            layer.backward(np.ones(shape))
    assert not layer.w.grad.any() and not layer.b.grad.any()


# Both passes with one batched [B, L, .] product per filter tap: the
# reference the layer's one-example-at-a-time loops must match bit for bit.

def conv_reference(layer, x, grad):
    """(out, dx, dW, db) of a valid stride-1 convolution of x, and its
    gradients for the incoming grad, one [B, L, .] product per tap."""
    w, b = layer.w.value, layer.b.value
    h = w.shape[1]
    length = x.shape[1] - h + 1
    out = np.broadcast_to(b, (x.shape[0], length, w.shape[0])).copy()
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    grad_t = grad.transpose(0, 2, 1)
    for dt in range(h):
        out += x[:, dt : dt + length, :] @ w[:, dt, :].T
        dw[:, dt, :] += (grad_t @ x[:, dt : dt + length, :]).sum(axis=0)
        dx[:, dt : dt + length, :] += grad @ w[:, dt, :]
    return out, dx, dw, grad.sum(axis=(0, 1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3, 20])
@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("extra", [0, 24], ids=["n=h", "n=h+24"])
def test_conv_matches_batched_reference_bit_for_bit(dtype, batch, width, extra):
    gen = rng(batch * 10 + width)
    layer = nc.Conv1d(in_channels=6, n_filters=5, width=width, rng=gen)
    layer.w.value = layer.w.value.astype(dtype)
    layer.b.value = gen.standard_normal(5).astype(dtype)
    layer.w.grad = np.zeros_like(layer.w.value)
    layer.b.grad = np.zeros_like(layer.b.value)
    x = gen.standard_normal((batch, width + extra, 6)).astype(dtype)
    out = layer.forward(x, train=True)
    grad = gen.standard_normal(out.shape).astype(dtype)
    dx = layer.backward(grad)
    expected = conv_reference(layer, x, grad)
    for name, actual, want in zip(("out", "dx", "W.grad", "b.grad"),
                                  (out, dx, layer.w.grad, layer.b.grad), expected):
        assert actual.dtype == want.dtype == dtype, name
        assert actual.shape == want.shape, name
        assert actual.tobytes() == want.tobytes(), name


def _traced_peak(fn):
    """(result, peak bytes allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conv_passes_make_no_batch_sized_temporaries():
    batch, n, k, f, h = 16, 400, 64, 16, 5
    length = n - h + 1
    layer = nc.Conv1d(in_channels=k, n_filters=f, width=h, rng=rng(1))
    x = rng(2).standard_normal((batch, n, k))
    out, fwd_peak = _traced_peak(lambda: layer.forward(x, train=True))
    # out plus a few [L, f] rows, where one [B, L, f] product would double it
    assert fwd_peak < out.nbytes + 4 * length * f * 8 < 2 * out.nbytes
    grad = rng(3).standard_normal(out.shape)
    dx, bwd_peak = _traced_peak(lambda: layer.backward(grad))
    assert dx.shape == x.shape
    # dx plus a few [L, k] rows, where one [B, L, k] product would double it
    assert bwd_peak < dx.nbytes + 4 * length * k * 8 < 2 * dx.nbytes


@pytest.mark.parametrize("layer", [
    nc.Conv1d(in_channels=2, n_filters=1, width=2, rng=rng()), nc.MaxPool1d(2),
], ids=["conv", "max-pool"])
def test_conv_and_pooling_reject_unbatched_input(layer):
    for shape in ((4, 2), (1, 1, 4, 2)):
        with pytest.raises(ShapeError, match=r"\[batch, n, k\]"):
            layer.forward(np.ones(shape))


# ---------------------------------------------------------------- pooling

def test_max_pool_hand_value():
    layer = nc.MaxPool1d(pool=2)
    out = layer.forward(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
    assert out.ravel().tolist() == [2.0, 4.0]


def test_max_pool_last_window_may_be_partial():
    layer = nc.MaxPool1d(pool=2)
    out = layer.forward(np.array([[[1.0], [5.0], [3.0]]]))
    assert out.ravel().tolist() == [5.0, 3.0]


def test_max_pool_tie_routes_gradient_to_first_position():
    layer = nc.MaxPool1d(pool=2)
    x = np.array([[[2.0], [2.0]]])
    out = layer.forward(x, train=True)
    grad = layer.backward(np.ones_like(out))
    assert grad.ravel().tolist() == [1.0, 0.0]


@pytest.mark.parametrize("pool", [3, 10])  # 10: one window over the whole length
def test_pool_backward_after_eval_forward_routes_to_first_max(pool):
    # small integers make ties common; length 10 leaves MaxPool1d(3) a short tail
    x = rng(4).integers(0, 3, size=(3, 10, 4)).astype(np.float64)
    layer = nc.MaxPool1d(pool)
    grads = []
    for train in (False, True):
        grad = rng(5).standard_normal(layer.forward(x, train=train).shape)
        grads.append(layer.backward(grad))
    np.testing.assert_array_equal(grads[0], grads[1])

    expected = np.zeros_like(x)
    g = grad.reshape(x.shape[0], -1, x.shape[2])
    for b, w, c in np.ndindex(g.shape):
        lo = w * pool
        expected[b, lo + int(np.argmax(x[b, lo : lo + pool, c])), c] = g[b, w, c]
    np.testing.assert_array_equal(grads[1], expected)


def test_pool_gradients_match_finite_differences():
    model = nc.Sequential([nc.MaxPool1d(pool=3)])
    err = nc.gradient_check(model, rng(3).standard_normal((2, 7, 4)))
    assert err < 1e-6


# ---------------------------------------------------------------- sigmoid

def test_sigmoid_within_four_ulp_of_scipy_expit():
    from scipy.special import expit

    z = np.linspace(-750.0, 750.0, 300_001)
    expected = expit(z)
    ulps = np.abs(nc.sigmoid(z) - expected) / np.spacing(expected)
    assert ulps.max() <= 4.0


def test_sigmoid_exact_at_zero_and_saturation_without_warnings():
    z = np.array([0.0, 800.0, -800.0, np.inf, -np.inf, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nc.sigmoid(z)
        np.testing.assert_array_equal(out, [0.5, 1.0, 0.0, 1.0, 0.0, 0.0])
        assert nc.sigmoid(z, out=z) is z  # the out= form may overwrite its input
    np.testing.assert_array_equal(z, out)


def test_sigmoid_float32_within_four_ulp_of_scipy_expit():
    from scipy.special import expit

    z = np.linspace(-100.0, 100.0, 300_001, dtype=np.float32)
    expected = expit(z)
    out = nc.sigmoid(z)
    assert out.dtype == np.float32
    ulps = np.abs(out.astype(np.float64) - expected) / np.spacing(expected)
    assert ulps.max() <= 4.0


def test_sigmoid_float32_exact_at_zero_and_saturation_without_warnings():
    # float32 exp overflows near -88.7, so -100 already takes the overflow path
    z = np.array([0.0, 100.0, -100.0, np.inf, -np.inf, -1e38], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nc.sigmoid(z)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [0.5, 1.0, 0.0, 1.0, 0.0, 0.0])
        assert nc.sigmoid(z, out=z) is z
    np.testing.assert_array_equal(z, out)


def _loaded_by_package_import(module: str) -> bool:
    """Whether a fresh interpreter that imports the harness and the CLI
    has ``module`` loaded."""
    code = (
        "import sys, codeset_bench.harness, codeset_bench.cli; "
        f"print({module!r} in sys.modules)"
    )
    src = str(Path(nc.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip() == "True"


def test_package_import_leaves_scipy_special_unloaded():
    assert not _loaded_by_package_import("scipy.special")


def test_package_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse loads only where a sparse matrix is built or read
    assert not _loaded_by_package_import("scipy.sparse")


# -------------------------------------------------------- recurrent steps

# One step of each cell, straight from its equations, as the reference the
# layers' time-major kernels are checked against.

def rnn_step(x, h, w, u, b):
    """One simple-RNN step: tanh(x W + h U + b)."""
    return np.tanh(x @ w + h @ u + b)


def lstm_step(x, h, c, w, u, b):
    """One LSTM step; gate order along the 4H axis is (i, f, g, o).

    Returns (h_new, c_new, gates) where gates = (i, f, g, o).
    """
    z = x @ w + h @ u + b
    n = h.shape[-1]
    i = nc.sigmoid(z[..., :n])
    f = nc.sigmoid(z[..., n : 2 * n])
    g = np.tanh(z[..., 2 * n : 3 * n])
    o = nc.sigmoid(z[..., 3 * n :])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new, (i, f, g, o)


def gru_step(x, h, w, u, b):
    """One GRU step in the original Cho formulation; gate order along the
    3H axis is (r, z, h~), and U's h~ block multiplies r*h.

    Returns (h_new, gates) where gates = (r, z, h_tilde).
    """
    n = h.shape[-1]
    a = x @ w + b
    r = nc.sigmoid(a[..., :n] + h @ u[:, :n])
    z = nc.sigmoid(a[..., n : 2 * n] + h @ u[:, n : 2 * n])
    h_tilde = np.tanh(a[..., 2 * n :] + (r * h) @ u[:, 2 * n :])
    h_new = (1.0 - z) * h + z * h_tilde
    return h_new, (r, z, h_tilde)


def test_rnn_step_zero_weights_give_zero_state():
    h = rnn_step(np.ones((1, 3)), np.ones((1, 2)),
                 np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2))
    assert np.array_equal(h, np.zeros((1, 2)))


def test_lstm_step_zero_weights_halve_the_cell():
    # all-zero weights: every gate sigmoid(0)=0.5, candidate tanh(0)=0;
    # c' = 0.5*c, h' = 0.5*tanh(0.5*c)
    c = np.array([[0.8, -0.4]])
    w = np.zeros((3, 8))
    u = np.zeros((2, 8))
    b = np.zeros(8)
    h2, c2, _ = lstm_step(np.ones((1, 3)), np.zeros((1, 2)), c, w, u, b)
    assert np.allclose(c2, 0.5 * c, atol=1e-15)
    assert np.allclose(h2, 0.5 * np.tanh(0.5 * c), atol=1e-15)


def test_gru_step_zero_weights_halve_the_state():
    # r = z = sigmoid(0) = 0.5 and candidate tanh(0)=0: h' = 0.5*h
    h = np.array([[0.6, -1.0]])
    h2, _ = gru_step(np.ones((1, 3)), h, np.zeros((3, 6)), np.zeros((2, 6)), np.zeros(6))
    assert np.allclose(h2, 0.5 * h, atol=1e-15)


def test_recurrent_layers_share_weights_across_time():
    for cls, n_gates in ((nc.SimpleRNN, 1), (nc.LSTM, 4), (nc.GRU, 3)):
        layer = cls(4, 3, rng(0), name="cell")
        # one W, U, b triple with one 3-column block per gate
        assert {p.name: p.shape for p in layer.params()} == {
            "cell.W": (4, 3 * n_gates), "cell.U": (3, 3 * n_gates), "cell.b": (3 * n_gates,),
        }
        n_params = sum(p.value.size for p in layer.params())
        layer.forward(rng(1).standard_normal((2, 3, 4)))
        short = sum(p.value.size for p in layer.params())
        layer.forward(rng(1).standard_normal((2, 11, 4)))
        long = sum(p.value.size for p in layer.params())
        assert short == long == n_params


def test_recurrent_bptt_gradients_match_finite_differences():
    for cls, tol in ((nc.SimpleRNN, 1e-4), (nc.LSTM, 1e-4), (nc.GRU, 1e-4)):
        model = nc.Sequential([cls(3, 4, rng(1))])
        err = nc.gradient_check(model, rng(2).standard_normal((2, 6, 3)))
        assert err < tol, cls.__name__


def test_return_sequences_gradients():
    model = nc.Sequential([nc.GRU(3, 4, rng(1), return_sequences=True)])
    err = nc.gradient_check(model, rng(2).standard_normal((2, 5, 3)))
    assert err < 1e-4


def test_bidirectional_doubles_parameters_and_width():
    fwd = nc.LSTM(3, 4, rng(0))
    bwd = nc.LSTM(3, 4, rng(1))
    bidi = nc.Bidirectional(fwd, bwd)
    single = sum(p.value.size for p in nc.LSTM(3, 4, rng(2)).params())
    assert sum(p.value.size for p in bidi.params()) == 2 * single
    out = bidi.forward(rng(3).standard_normal((2, 5, 3)))
    assert out.shape == (2, 8)


def test_bidirectional_gradients_match_finite_differences():
    model = nc.Sequential([nc.Bidirectional(nc.GRU(3, 3, rng(1)), nc.GRU(3, 3, rng(2)))])
    err = nc.gradient_check(model, rng(3).standard_normal((2, 5, 3)))
    assert err < 1e-4


def test_reversing_input_swaps_bidirectional_halves():
    fwd = nc.SimpleRNN(2, 3, rng(0))
    bwd = nc.SimpleRNN(2, 3, rng(1))
    bidi = nc.Bidirectional(fwd, bwd)
    x = rng(2).standard_normal((1, 4, 2))
    out = bidi.forward(x)
    swapped = nc.Bidirectional(bwd, fwd).forward(x[:, ::-1])
    assert np.allclose(out[:, :3], swapped[:, 3:], atol=1e-12)
    assert np.allclose(out[:, 3:], swapped[:, :3], atol=1e-12)


# Loop-form references: forward through the step functions above one
# step at a time, backward as a per-step BPTT loop on batch-major arrays.
# Each returns (output, dx, {parameter name: gradient}).

def _incoming(grad, t, steps, return_sequences):
    if return_sequences:
        return grad[:, t]
    return grad if t == steps - 1 else 0.0


def _rnn_reference(layer, x, grad):
    wx, wh, b = (p.value for p in layer.params())
    batch, steps, _ = x.shape
    hs = np.zeros((batch, steps + 1, layer.n_hidden))
    for t in range(steps):
        hs[:, t + 1] = rnn_step(x[:, t], hs[:, t], wx, wh, b)
    gwx, gwh, gb = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
    dx = np.zeros_like(x)
    carry = np.zeros((batch, layer.n_hidden))
    for t in range(steps - 1, -1, -1):
        dh = carry + _incoming(grad, t, steps, layer.return_sequences)
        da = dh * (1.0 - hs[:, t + 1] ** 2)
        gwx += x[:, t].T @ da
        gwh += hs[:, t].T @ da
        gb += da.sum(axis=0)
        dx[:, t] = da @ wx.T
        carry = da @ wh.T
    out = hs[:, 1:] if layer.return_sequences else hs[:, -1]
    return out, dx, {layer.w.name: gwx, layer.u.name: gwh, layer.b.name: gb}


def _lstm_reference(layer, x, grad):
    w, u, b = (p.value for p in layer.params())
    batch, steps, _ = x.shape
    n = layer.n_hidden
    hs = np.zeros((batch, steps + 1, n))
    cs = np.zeros((batch, steps + 1, n))
    gates = []
    for t in range(steps):
        hs[:, t + 1], cs[:, t + 1], g = lstm_step(x[:, t], hs[:, t], cs[:, t], w, u, b)
        gates.append(g)
    gw, gu, gb = np.zeros_like(w), np.zeros_like(u), np.zeros_like(b)
    dx = np.zeros_like(x)
    dh_carry = np.zeros((batch, n))
    dc_carry = np.zeros((batch, n))
    for t in range(steps - 1, -1, -1):
        i, f, g, o = gates[t]
        dh = dh_carry + _incoming(grad, t, steps, layer.return_sequences)
        tc = np.tanh(cs[:, t + 1])
        dc = dc_carry + dh * o * (1.0 - tc**2)
        dz = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * cs[:, t] * f * (1.0 - f),
            dc * i * (1.0 - g**2),
            dh * tc * o * (1.0 - o),
        ], axis=1)
        gw += x[:, t].T @ dz
        gu += hs[:, t].T @ dz
        gb += dz.sum(axis=0)
        dx[:, t] = dz @ w.T
        dh_carry = dz @ u.T
        dc_carry = dc * f
    out = hs[:, 1:] if layer.return_sequences else hs[:, -1]
    return out, dx, {layer.w.name: gw, layer.u.name: gu, layer.b.name: gb}


def _gru_reference(layer, x, grad):
    w, u, b = (p.value for p in layer.params())
    n = layer.n_hidden
    ur, uz, uh = u[:, :n], u[:, n : 2 * n], u[:, 2 * n :]
    batch, steps, _ = x.shape
    hs = np.zeros((batch, steps + 1, n))
    gates = []
    for t in range(steps):
        hs[:, t + 1], g = gru_step(x[:, t], hs[:, t], w, u, b)
        gates.append(g)
    gw, gu, gb = np.zeros_like(w), np.zeros_like(u), np.zeros_like(b)
    dx = np.zeros_like(x)
    carry = np.zeros((batch, n))
    for t in range(steps - 1, -1, -1):
        r, z, ht = gates[t]
        h_prev = hs[:, t]
        dh = carry + _incoming(grad, t, steps, layer.return_sequences)
        da_h = dh * z * (1.0 - ht**2)
        d_rh = da_h @ uh.T
        da_z = dh * (ht - h_prev) * z * (1.0 - z)
        da_r = d_rh * h_prev * r * (1.0 - r)
        da = np.concatenate([da_r, da_z, da_h], axis=1)  # (r, z, h~) blocks
        gw += x[:, t].T @ da
        gu += np.concatenate([h_prev.T @ da_r, h_prev.T @ da_z, (r * h_prev).T @ da_h], axis=1)
        gb += da.sum(axis=0)
        dx[:, t] = da @ w.T
        carry = dh * (1.0 - z) + d_rh * r + da_z @ uz.T + da_r @ ur.T
    out = hs[:, 1:] if layer.return_sequences else hs[:, -1]
    return out, dx, {layer.w.name: gw, layer.u.name: gu, layer.b.name: gb}


_RECURRENT_REFERENCES = [
    pytest.param(nc.SimpleRNN, _rnn_reference, id="rnn"),
    pytest.param(nc.LSTM, _lstm_reference, id="lstm"),
    pytest.param(nc.GRU, _gru_reference, id="gru"),
]


def _randomized(cls, n_in, n_hidden, seed, return_sequences):
    """A layer whose every parameter, biases included, is random."""
    layer = cls(n_in, n_hidden, rng(seed), return_sequences=return_sequences)
    values = rng(seed + 100)
    for p in layer.params():
        p.value[...] = values.normal(scale=0.6, size=p.shape)
    return layer


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cls, reference", _RECURRENT_REFERENCES)
@pytest.mark.parametrize("return_sequences", [False, True], ids=["last", "seq"])
@pytest.mark.parametrize("batch, steps", [(3, 6), (1, 5), (2, 1), (1, 1)], ids=str)
@pytest.mark.parametrize("block_rows", [512, 4], ids=["one-block", "4-row-blocks"])
def test_recurrent_layer_matches_step_loop_reference(
    cls, reference, return_sequences, batch, steps, block_rows, monkeypatch
):
    # 4-row blocks split the backward pass into blocks of 1 to 4 steps,
    # the earliest one partial when the steps do not divide evenly
    monkeypatch.setattr(recurrent, "_BLOCK_ROWS", block_rows)
    layer = _randomized(cls, 3, 4, 1, return_sequences)
    x = rng(2).standard_normal((batch, steps, 3))
    out = layer.forward(x, train=False)
    grad = rng(3).standard_normal(out.shape)
    ref_out, ref_dx, ref_grads = reference(layer, x, grad)
    _assert_close(out, ref_out)
    for calls in (1, 2):  # a second backward adds the same gradients again
        _assert_close(layer.backward(grad), ref_dx)
        for p in layer.params():
            _assert_close(p.grad, calls * ref_grads[p.name])


def test_bptt_flushes_subnormal_dh_between_blocks(monkeypatch):
    # 4-row blocks at batch 1: steps 4-7 are one block, steps 0-3 the next.
    # An output gradient below float32's smallest normal keeps dh subnormal
    # (orthogonal Wh times tanh' never grows it), so the first block's dx is
    # subnormal and the flush after it leaves the next block nothing to carry.
    monkeypatch.setattr(recurrent, "_BLOCK_ROWS", 4)
    layer = nc.SimpleRNN(3, 4, rng(1))
    for p in layer.params():
        p.value = p.value.astype(np.float32)
        p.grad = np.zeros_like(p.value)
    layer.forward(rng(2).standard_normal((1, 8, 3)).astype(np.float32))
    grad = np.full((1, 4), 1e-39, np.float32)
    assert 0 < np.abs(grad).max() < np.finfo(np.float32).tiny
    dx = layer.backward(grad)
    assert dx.dtype == np.float32
    assert np.all(dx[:, 4:] != 0)
    np.testing.assert_array_equal(dx[:, :4], 0.0)


@pytest.mark.parametrize("cls, reference", _RECURRENT_REFERENCES)
@pytest.mark.parametrize("return_sequences", [False, True], ids=["last", "seq"])
def test_bidirectional_matches_step_loop_reference(cls, reference, return_sequences):
    fwd = _randomized(cls, 3, 4, 1, return_sequences)
    bwd = _randomized(cls, 3, 4, 7, return_sequences)
    x = rng(2).standard_normal((2, 5, 3))
    out = nc.Bidirectional(fwd, bwd)
    y = out.forward(x)
    grad = rng(3).standard_normal(y.shape)
    dx = out.backward(grad)
    f_out, f_dx, f_grads = reference(fwd, x, grad[..., :4])
    g_b = grad[:, ::-1, 4:] if return_sequences else grad[..., 4:]
    b_out, b_dx, b_grads = reference(bwd, x[:, ::-1], g_b)
    if return_sequences:
        b_out = b_out[:, ::-1]
    _assert_close(y, np.concatenate([f_out, b_out], axis=-1))
    _assert_close(dx, f_dx + b_dx[:, ::-1])
    for layer, grads in ((fwd, f_grads), (bwd, b_grads)):
        for p in layer.params():
            _assert_close(p.grad, grads[p.name])


# -------------------------------------------------------------- embedding

def test_embedding_lookup_and_frozen_pad_row():
    matrix = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    layer = nc.Embedding(matrix.copy(), trainable=True)
    out = layer.forward(np.array([[0, 2, 1]]), train=True)
    assert out.tolist() == [[[0.0, 0.0], [3.0, 4.0], [1.0, 2.0]]]
    layer.backward(np.ones((1, 3, 2)))
    grad = layer.params()[0].grad
    assert not grad[0].any()  # pad row never learns
    assert grad[1].tolist() == [1.0, 1.0]
    assert grad[2].tolist() == [1.0, 1.0]


def test_embedding_repeated_indices_accumulate_gradient():
    layer = nc.Embedding(np.zeros((3, 2)), trainable=True)
    layer.forward(np.array([[1, 1, 1]]), train=True)
    layer.backward(np.ones((1, 3, 2)))
    assert layer.params()[0].grad[1].tolist() == [3.0, 3.0]

    # a batch with repeats and pad tokens matches an np.add.at scatter bit for bit
    layer = nc.Embedding(rng(0).standard_normal((6, 4)), trainable=True)
    idx = np.array([[1, 3, 3, 0, 5], [3, 0, 1, 1, 3]])
    grad = rng(1).standard_normal((2, 5, 4))
    layer.forward(idx, train=True)
    layer.backward(grad)
    expected = np.zeros((6, 4))
    np.add.at(expected, idx, grad)
    expected[0] = 0.0  # pad row stays zero
    assert np.array_equal(layer.m.grad, expected)


def test_embedding_pad_positions_read_zeros_and_pass_gradient_check():
    # row 0 is nonzero here, as a gradient check's perturbation leaves it
    matrix = rng(0).standard_normal((5, 3))
    layer = nc.Embedding(matrix, trainable=True)
    assert not layer.forward(np.array([[0, 2, 0]]))[0, [0, 2]].any()
    model = nc.Sequential([layer, nc.Flatten(), nc.Dense(12, 2, rng(1))])
    idx = np.array([[0, 1, 4, 0], [3, 0, 2, 2]])  # pads among the tokens
    assert nc.gradient_check(model, idx, max_coords=10**6) < 1e-6


def test_embedding_rejects_float_indices():
    layer = nc.Embedding(np.zeros((3, 2)))
    with pytest.raises((TypeError, ShapeError)):
        layer.forward(np.array([[0.5, 1.0]]))


# ---------------------------------------------------------------- dropout

def test_dropout_is_identity_in_eval_mode():
    layer = nc.Dropout(0.5, rng(0))
    x = rng(1).standard_normal((4, 6))
    assert np.array_equal(layer.forward(x, train=False), x)


def test_dropout_rate_zero_is_identity_in_train_mode():
    layer = nc.Dropout(0.0, rng(0))
    x = rng(1).standard_normal((4, 6))
    assert np.array_equal(layer.forward(x, train=True), x)


def test_dropout_preserves_expectation():
    layer = nc.Dropout(0.5, rng(0))
    x = np.ones((200, 500))
    out = layer.forward(x, train=True)
    kept = out[out != 0]
    assert np.all(kept == 2.0)  # inverted scaling at rate .5
    assert abs(out.mean() - 1.0) < 0.02


# ------------------------------------------------------------------- loss

def test_bce_uninformative_prediction_is_ln2():
    loss, _ = nc.bce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_is_at_clip_floor():
    loss, _ = nc.bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert 0.0 <= loss <= 2e-7  # bounded by the clip epsilon


def test_bce_gradient_matches_finite_differences():
    p = np.array([0.3, 0.7, 0.9])
    y = np.array([1.0, 0.0, 1.0])
    _, grad = nc.bce_loss(p, y)
    eps = 1e-7
    for i in range(3):
        plus, minus = p.copy(), p.copy()
        plus[i] += eps
        minus[i] -= eps
        num = (nc.bce_loss(plus, y)[0] - nc.bce_loss(minus, y)[0]) / (2 * eps)
        assert grad[i] == pytest.approx(num, rel=1e-5)


def test_bce_gradient_is_zero_in_clipped_region():
    _, grad = nc.bce_loss(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert np.array_equal(grad, np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
       st.data())
def test_bce_is_nonnegative(probs, data):
    targets = data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                 min_size=len(probs), max_size=len(probs)))
    loss, _ = nc.bce_loss(np.array(probs), np.array(targets))
    assert loss >= 0.0


# ------------------------------------------------------------- optimizers

def test_sgd_hand_step():
    p = nc.Parameter("w", np.array([1.0]))
    p.grad[:] = 2.0
    nc.SGD([p], lr=0.1).step()
    assert p.value.tolist() == [0.8]


def test_rmsprop_first_step_magnitude():
    # s = 0.1*g^2; step = lr*g/sqrt(s+eps) = 0.001*2/sqrt(0.4+1e-8)
    p = nc.Parameter("w", np.array([1.0]))
    p.grad[:] = 2.0
    nc.RMSprop([p]).step()
    expected = 1.0 - 0.001 * 2.0 / math.sqrt(0.1 * 4.0 + 1e-8)
    assert p.value[0] == pytest.approx(expected, abs=1e-12)


def test_zero_gradient_leaves_parameters_unchanged():
    for make in (lambda ps: nc.SGD(ps, lr=0.5), lambda ps: nc.RMSprop(ps)):
        p = nc.Parameter("w", np.array([3.0, -2.0]))
        opt = make([p])
        opt.step()
        assert p.value.tolist() == [3.0, -2.0]


@pytest.mark.parametrize("lr", [0.0, -1.0, float("inf"), float("nan")])
@pytest.mark.parametrize("make", [nc.SGD, nc.RMSprop])
def test_optimizers_refuse_a_learning_rate_that_is_not_finite_and_positive(make, lr):
    with pytest.raises(ConfigError, match="learning rate"):
        make([nc.Parameter("w", np.array([1.0]))], lr=lr)


def test_optimizers_skip_frozen_parameters():
    p = nc.Parameter("w", np.array([1.0]), trainable=False)
    p.grad[:] = 5.0
    nc.SGD([p], lr=1.0).step()
    assert p.value.tolist() == [1.0]


# --------------------------------------------------------- gradient check

def test_gradient_check_passes_linear_model_tightly():
    model = nc.Sequential([nc.Dense(3, 2, rng(0))])
    err = nc.gradient_check(model, rng(1).standard_normal((4, 3)))
    assert err < 1e-8


def test_gradient_check_detects_corrupted_backward():
    class Corrupted(nc.Dense):
        def backward(self, grad):
            out = super().backward(grad)
            self.w.grad *= 1.1  # 10% analytic error must be flagged
            return out

    model = nc.Sequential([Corrupted(3, 2, rng(0))])
    err = nc.gradient_check(model, rng(1).standard_normal((4, 3)))
    assert err > 1e-2


def test_gradient_check_with_bce_targets():
    model = nc.Sequential([nc.Dense(3, 2, rng(0)), nc.Sigmoid()])
    x = rng(1).standard_normal((4, 3))
    targets = (rng(2).random((4, 2)) < 0.5).astype(float)
    err = nc.gradient_check(model, x, targets=targets)
    assert err < 1e-6


# ----------------------------------------------------------------- guards

def test_nan_activations_raise():
    with pytest.raises(NumericError):
        nc.guard_finite("act", np.array([1.0, np.nan]))
    with pytest.raises(NumericError):
        nc.guard_finite("act", np.array([np.inf]))


# ------------------------------------------------------------------ inits

def test_orthogonal_init_is_orthogonal():
    q = nc.orthogonal(rng(0), 16)
    assert np.allclose(q @ q.T, np.eye(16), atol=1e-10)


def test_glorot_bounds():
    w = nc.glorot_uniform(rng(0), (200, 300), fan_in=200, fan_out=300)
    limit = math.sqrt(6.0 / 500.0)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.5 * limit / math.sqrt(3.0)  # actually spread out


# ------------------------------------------------------------ checkpoints

def test_checkpoint_round_trip_is_exact(tmp_path):
    tensors = {
        "layer0.w": rng(0).standard_normal((4, 3)),
        "layer0.b": rng(1).standard_normal(3),
    }
    nc.save_checkpoint(tmp_path, tensors, {"arch": "dense", "epoch": 7})
    loaded_tensors, manifest = nc.load_checkpoint(tmp_path)
    assert manifest["arch"] == "dense"
    assert manifest["epoch"] == "7"
    for name, value in tensors.items():
        assert np.array_equal(loaded_tensors[name], value)


def test_restore_model_round_trip(tmp_path):
    def build(seed):
        return nc.Sequential([nc.Dense(3, 4, rng(seed), name="fc1"), nc.ReLU(),
                              nc.Dense(4, 2, rng(seed + 1), name="fc2")])

    model = build(0)
    x = rng(2).standard_normal((5, 3))
    before = model.forward(x)
    nc.save_checkpoint(tmp_path, nc.model_tensors(model), {})
    fresh = build(7)
    assert not np.allclose(fresh.forward(x), before)
    tensors, _ = nc.load_checkpoint(tmp_path)
    nc.restore_model(fresh, tensors)
    assert np.array_equal(fresh.forward(x), before)


def _checkpoint_without_archive(d):
    (d / "manifest.txt").write_text("arch = dense\n")


def _checkpoint_in_blob_layout(d):
    # the earlier layout: an index of one binary blob per tensor
    (d / "tensors.idx").write_text("t0000.bin\tlayer0.w\n")
    (d / "t0000.bin").write_bytes(b"float64 2\n" + np.ones(2).tobytes())


def _checkpoint_truncated(d):
    nc.save_checkpoint(d, {"w": np.ones((30, 30))}, {})
    data = (d / "tensors.npz").read_bytes()
    (d / "tensors.npz").write_bytes(data[: len(data) // 2])


def _checkpoint_not_a_zip(d):
    (d / "tensors.npz").write_text("w 1.0 2.0\n")


@pytest.mark.parametrize("write", [_checkpoint_without_archive, _checkpoint_in_blob_layout,
                                   _checkpoint_truncated, _checkpoint_not_a_zip])
def test_load_checkpoint_rejects_malformed_directories(tmp_path, write):
    d = tmp_path / "ckpt"
    d.mkdir()
    write(d)
    with pytest.raises(FormatError, match="ckpt"):
        nc.load_checkpoint(d)


def test_model_tensors_rejects_duplicate_names():
    model = nc.Sequential([nc.Dense(2, 2, rng(0)), nc.Dense(2, 2, rng(1))])
    with pytest.raises(Exception):
        nc.model_tensors(model)  # both layers default to the same name


def test_restore_model_rejects_shape_mismatch(tmp_path):
    model = nc.Sequential([nc.Dense(3, 4, rng(0))])
    nc.save_checkpoint(tmp_path, nc.model_tensors(model), {})
    tensors, _ = nc.load_checkpoint(tmp_path)
    wrong = nc.Sequential([nc.Dense(3, 5, rng(0))])
    with pytest.raises(Exception):
        nc.restore_model(wrong, tensors)


@pytest.mark.parametrize("saved, model", [(np.float64, np.float32), (np.float32, np.float64)])
def test_restore_model_rejects_dtype_mismatch(tmp_path, saved, model):
    def build(dtype):
        net = nc.Sequential([nc.Dense(3, 4, rng(0), name="fc")])
        for p in net.params():
            p.value = p.value.astype(dtype)
        return net

    nc.save_checkpoint(tmp_path, nc.model_tensors(build(saved)), {})
    tensors, _ = nc.load_checkpoint(tmp_path)
    with pytest.raises(FormatError, match="fc.W"):
        nc.restore_model(build(model), tensors)


# ------------------------------------------------------------- composites

def test_stacked_network_end_to_end_gradients():
    model = nc.Sequential([
        nc.Conv1d(in_channels=3, n_filters=4, width=3, rng=rng(0)),
        nc.ReLU(),
        nc.MaxPool1d(pool=2),
        nc.Flatten(),
        nc.Dense(12, 2, rng(1)),
        nc.Sigmoid(),
    ])
    x = rng(2).standard_normal((2, 8, 3))
    targets = (rng(3).random((2, 2)) < 0.5).astype(float)
    err = nc.gradient_check(model, x, targets=targets)
    assert err < 1e-5


def test_eval_forward_is_repeatable():
    model = nc.Sequential([nc.Dense(3, 4, rng(0)), nc.Dropout(0.5, rng(1)), nc.Dense(4, 2, rng(2))])
    x = rng(3).standard_normal((4, 3))
    assert np.array_equal(model.forward(x, train=False), model.forward(x, train=False))
