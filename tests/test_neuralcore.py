"""Layer forward values, manual gradients, optimizers, checkpoints.

Forward checks pin hand-derivable values; gradient correctness is
established against central finite differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeset_bench.neuralcore as nc
from codeset_bench.errors import NumericError, ShapeError


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
    out = layer.forward(np.ones((4, 2)))
    assert out.shape == (3, 1)
    assert out.ravel().tolist() == [4.0, 4.0, 4.0]


def test_conv_filter_spanning_whole_input_leaves_one_position():
    layer = nc.Conv1d(in_channels=3, n_filters=2, width=6, rng=rng())
    out = layer.forward(rng(1).standard_normal((6, 3)))
    assert out.shape == (1, 2)


def test_conv_output_length_is_n_minus_width_plus_one():
    layer = nc.Conv1d(in_channels=2, n_filters=4, width=3, rng=rng())
    out = layer.forward(rng(1).standard_normal((8, 10, 2)), train=True)
    assert out.shape == (8, 8, 4)


def test_conv_rejects_inputs_shorter_than_filter():
    layer = nc.Conv1d(in_channels=2, n_filters=1, width=5, rng=rng())
    with pytest.raises(ShapeError):
        layer.forward(np.ones((4, 2)))


def test_conv_rejects_channel_mismatch():
    layer = nc.Conv1d(in_channels=3, n_filters=1, width=2, rng=rng())
    with pytest.raises(ShapeError):
        layer.forward(np.ones((6, 2)))


def test_conv_gradients_match_finite_differences():
    model = nc.Sequential([nc.Conv1d(in_channels=3, n_filters=4, width=3, rng=rng(1))])
    err = nc.gradient_check(model, rng(2).standard_normal((2, 9, 3)))
    assert err < 1e-6


def test_conv_backward_accumulates_and_keeps_unbatched_shape():
    layer = nc.Conv1d(in_channels=3, n_filters=4, width=5, rng=rng(1))
    x = rng(2).standard_normal((3, 11, 3))
    grad = rng(3).standard_normal(layer.forward(x, train=True).shape)
    layer.backward(grad)
    w_once, b_once = layer.w.grad.copy(), layer.b.grad.copy()
    layer.backward(grad)
    np.testing.assert_allclose(layer.w.grad, 2 * w_once, rtol=1e-12, atol=0)
    np.testing.assert_allclose(layer.b.grad, 2 * b_once, rtol=1e-12, atol=0)

    out = layer.forward(x[0], train=True)
    dx = layer.backward(np.ones_like(out))
    assert out.shape == (7, 4) and dx.shape == (11, 3)


# ---------------------------------------------------------------- pooling

def test_max_pool_hand_value():
    layer = nc.MaxPool1d(pool=2)
    out = layer.forward(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert out.ravel().tolist() == [2.0, 4.0]


def test_max_pool_last_window_may_be_partial():
    layer = nc.MaxPool1d(pool=2)
    out = layer.forward(np.array([[1.0], [5.0], [3.0]]))
    assert out.ravel().tolist() == [5.0, 3.0]


def test_max_pool_tie_routes_gradient_to_first_position():
    layer = nc.MaxPool1d(pool=2)
    x = np.array([[[2.0], [2.0]]])
    out = layer.forward(x, train=True)
    grad = layer.backward(np.ones_like(out))
    assert grad.ravel().tolist() == [1.0, 0.0]


def test_max_over_time_reduces_full_length():
    layer = nc.MaxOverTime()
    out = layer.forward(np.array([[[1.0, 9.0], [3.0, 2.0], [2.0, 5.0]]]))
    assert out.tolist() == [[3.0, 9.0]]


def test_pool_gradients_match_finite_differences():
    model = nc.Sequential([nc.MaxPool1d(pool=3)])
    err = nc.gradient_check(model, rng(3).standard_normal((2, 7, 4)))
    assert err < 1e-6


# -------------------------------------------------------- recurrent steps

def test_rnn_step_zero_weights_give_zero_state():
    h = nc.rnn_step(np.ones((1, 3)), np.ones((1, 2)),
                    np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2))
    assert np.array_equal(h, np.zeros((1, 2)))


def test_lstm_step_zero_weights_halve_the_cell():
    # all-zero weights: every gate sigmoid(0)=0.5, candidate tanh(0)=0;
    # c' = 0.5*c, h' = 0.5*tanh(0.5*c)
    c = np.array([[0.8, -0.4]])
    w = np.zeros((3, 8))
    u = np.zeros((2, 8))
    b = np.zeros(8)
    h2, c2, _ = nc.lstm_step(np.ones((1, 3)), np.zeros((1, 2)), c, w, u, b)
    assert np.allclose(c2, 0.5 * c, atol=1e-15)
    assert np.allclose(h2, 0.5 * np.tanh(0.5 * c), atol=1e-15)


def test_gru_step_zero_weights_halve_the_state():
    # z = r = sigmoid(0) = 0.5 and candidate tanh(0)=0: h' = 0.5*h
    h = np.array([[0.6, -1.0]])
    zeros32 = np.zeros((3, 2))
    zeros22 = np.zeros((2, 2))
    z2 = np.zeros(2)
    h2, _ = nc.gru_step(np.ones((1, 3)), h, zeros32, zeros22, z2,
                        zeros32, zeros22, z2, zeros32, zeros22, z2)
    assert np.allclose(h2, 0.5 * h, atol=1e-15)


def test_recurrent_layers_share_weights_across_time():
    for cls in (nc.SimpleRNN, nc.LSTM, nc.GRU):
        layer = cls(4, 3, rng(0))
        n_params = layer.param_count() if hasattr(layer, "param_count") else sum(
            p.value.size for p in layer.params())
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
