"""Presets, one-vs-rest trainers, the training loop, prediction."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from codeset_bench import models
from codeset_bench import neuralcore as nc
from codeset_bench.errors import ConfigError, DatasetError, NumericError, ShapeError
from codeset_bench.models import (
    CNN_REGIME,
    RNN_REGIME,
    ModelSpec,
    TrainConfig,
    build_network,
    fit,
    predict_proba,
    preset,
    run_training_loop,
    train_logreg_ovr,
    train_random_forest_ovr,
)


# ---------------------------------------------------------------- presets

def test_reference_presets_pin_published_architectures():
    fnn = preset("fnn-best")
    assert fnn.hidden == (5000, 500, 100)
    cnn = preset("cnn-best")
    assert cnn.conv_blocks == ((128, 5, 5), (128, 5, 5), (128, 5, 35))
    assert cnn.fc == 128
    for name in ("lstm-best", "gru-best", "rnn-best"):
        spec = preset(name)
        assert spec.hidden == (256, 64)
        assert spec.dropout == 0.5


def test_desk_presets_are_small():
    assert preset("fnn-desk").hidden == (512, 128, 64)
    assert preset("gru-desk").hidden == (32, 16)
    assert preset("gru-desk").dropout == 0.0


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("fnn-huge")


def test_regimes_pin_epoch_budgets():
    assert (CNN_REGIME.max_epochs, CNN_REGIME.patience) == (500, 10)
    assert (RNN_REGIME.max_epochs, RNN_REGIME.patience) == (200, 5)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="adamw")


# ------------------------------------------------------ logistic regression

def separable_problem(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    y = (x[:, 0] > 0).astype(np.uint8).reshape(-1, 1)
    return x, y


def test_logreg_solves_a_separable_problem():
    x, y = separable_problem()
    model = train_logreg_ovr(x, y, iters=500)
    assert np.array_equal((predict_proba(model, x) >= 0.5).astype(np.uint8), y)


def test_logreg_zero_iterations_outputs_half_everywhere():
    x, y = separable_problem(20)
    model = train_logreg_ovr(x, y, iters=0)
    assert np.all(predict_proba(model, x) == 0.5)


def test_logreg_trains_one_submodel_per_label():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 5))
    y = (rng.random((30, 3)) < 0.5).astype(np.uint8)
    model = train_logreg_ovr(x, y, iters=5)
    assert model.submodels["W"].shape == (5, 3)
    assert model.submodels["b"].shape == (3,)


@pytest.mark.parametrize("trainer, labels", [
    (train_random_forest_ovr, np.zeros((30, 2), dtype=np.uint8)),  # more label rows than features
    (train_random_forest_ovr, np.zeros(20, dtype=np.uint8)),  # one label, not [n, 1]
    (train_logreg_ovr, np.zeros((1, 2), dtype=np.uint8)),  # would broadcast over 20 rows
], ids=["forest-extra-rows", "forest-1d", "logreg-one-row"])
def test_classical_trainers_refuse_misaligned_labels(trainer, labels):
    x = np.random.default_rng(0).standard_normal((20, 3))
    with pytest.raises(ShapeError, match=re.escape(f"labels {labels.shape} vs features (20, 3)")):
        trainer(x, labels)


def test_logreg_accepts_sparse_features():
    x, y = separable_problem(40, seed=3)
    dense = train_logreg_ovr(x, y, iters=50)
    sparse = train_logreg_ovr(sp.csr_matrix(x), y, iters=50)
    assert np.allclose(predict_proba(dense, x), predict_proba(sparse, sp.csr_matrix(x)),
                       atol=1e-12)


def test_logreg_is_deterministic():
    x, y = separable_problem(40, seed=4)
    a = train_logreg_ovr(x, y, iters=30)
    b = train_logreg_ovr(x, y, iters=30)
    assert np.array_equal(a.submodels["W"], b.submodels["W"])
    assert np.array_equal(a.submodels["b"], b.submodels["b"])


def test_logreg_columns_train_independently():
    # label columns are independent problems: swapping them swaps outputs
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 4))
    y = np.column_stack([(x[:, 0] > 0), (x[:, 1] > 0)]).astype(np.uint8)
    base = predict_proba(train_logreg_ovr(x, y, iters=40), x)
    swapped = predict_proba(train_logreg_ovr(x, y[:, ::-1], iters=40), x)
    assert np.array_equal(base, swapped[:, ::-1])


def mean_logistic_loss(x, y, w, b):
    """The unclipped loss the trainer descends: each label column's mean
    logistic loss, summed over the columns."""
    z = np.asarray(x @ w + b)
    return float(np.mean(np.logaddexp(0.0, z) - y * z, axis=0).sum())


def noisy_problem(n=200, k=3, seed=8):
    """Labels drawn from a logistic model, so no column is separable and
    the loss has a finite minimum. The six feature columns are about 40%
    zeros and scaled from 1 down to 0.1, which conditions the problem
    badly enough (condition number about 150 at the defaults) that 50
    plain descent passes stop short where 50 accelerated ones do not."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6)) * (rng.random((n, 6)) < 0.6) * [1, 0.5, 0.3, 0.2, 0.15, 0.1]
    y = (rng.random((n, k)) < expit(x @ (2 * rng.standard_normal((6, k))))).astype(np.uint8)
    return x, y


@pytest.mark.parametrize("to_sparse", [False, True])
def test_logistic_gradient_matches_central_differences(to_sparse):
    x, y = noisy_problem(n=40)
    y[:, 2] = 0  # a degenerate column too
    y = y.astype(np.float64)
    rng = np.random.default_rng(9)
    w, b = rng.standard_normal((6, 3)), rng.standard_normal(3)
    gw, gb = models._logistic_gradient(sp.csr_matrix(x) if to_sparse else x, y, w, b)
    h = 1e-6
    for params, grad in ((w, gw), (b, gb)):
        for i in np.ndindex(params.shape):
            keep = params[i]
            params[i] = keep + h
            up = mean_logistic_loss(x, y, w, b)
            params[i] = keep - h
            down = mean_logistic_loss(x, y, w, b)
            params[i] = keep
            assert abs((up - down) / (2 * h) - grad[i]) < 1e-8


@pytest.mark.parametrize("to_sparse", [False, True])
def test_logreg_loss_comes_within_gap_of_long_run_reference(to_sparse):
    # the reference: 5000 plain full-batch descent passes at step 1/L,
    # with L from the exact eigenvalue, one column at a time; 20000 passes
    # move its loss by less than 1e-15. The default 50 accelerated passes
    # end 3.1e-4 above it, and 50 plain passes 2.8e-2
    x, y = noisy_problem()
    y = y.astype(np.float64)
    n = len(x)
    a = np.column_stack([x, np.ones(n)])
    step = 4 * n / np.linalg.eigvalsh(a.T @ a)[-1]
    w_ref, b_ref = np.zeros((x.shape[1], y.shape[1])), np.zeros(y.shape[1])
    for j in range(y.shape[1]):
        for _ in range(5000):
            g = (expit(x @ w_ref[:, j] + b_ref[j]) - y[:, j]) / n
            w_ref[:, j] -= step * (x.T @ g)
            b_ref[j] -= step * g.sum()
    reference = mean_logistic_loss(x, y, w_ref, b_ref)
    model = train_logreg_ovr(sp.csr_matrix(x) if to_sparse else x, y)  # the default 50 passes
    gap = mean_logistic_loss(x, y, model.submodels["W"], model.submodels["b"]) - reference
    assert -1e-9 < gap < 1e-3


def test_logreg_learns_features_past_the_clipped_loss_freeze():
    # at features this large a fixed step saturates every probability at
    # once, and a clipped loss then has zero gradient and freezes below
    # accuracy 1.0; the step 1/L shrinks with the features' scale
    x, y = separable_problem()
    model = train_logreg_ovr(x * 1e3, y, iters=500)
    assert np.array_equal((predict_proba(model, x * 1e3) >= 0.5).astype(np.uint8), y)


def test_logreg_refuses_zero_rows():
    # the step 1/L divides by the row count
    with pytest.raises(DatasetError, match="at least one row"):
        train_logreg_ovr(np.zeros((0, 3)), np.zeros((0, 2), dtype=np.uint8))


@pytest.mark.parametrize("to_sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_logreg_refuses_non_finite_features(bad, to_sparse):
    x, y = separable_problem(20)
    x[3, 1] = bad
    with pytest.raises(NumericError, match="features hold NaN or inf"):
        train_logreg_ovr(sp.csr_matrix(x) if to_sparse else x, y)


# ------------------------------------------------------------ random forest

def test_forest_splits_a_single_informative_feature():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((80, 1))
    y = (x[:, 0] > 0.2).astype(np.uint8).reshape(-1, 1)
    model = train_random_forest_ovr(x, y, n_trees=15, max_depth=3, seed=0)
    assert ((predict_proba(model, x) >= 0.5).astype(np.uint8) == y).mean() > 0.97


def test_forest_votes_are_fractions_of_trees():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 2))
    y = (x[:, 0] > 0).astype(np.uint8).reshape(-1, 1)
    model = train_random_forest_ovr(x, y, n_trees=8, max_depth=2, seed=1)
    probs = predict_proba(model, x)
    assert np.all((probs * 8) % 1 < 1e-9)  # multiples of 1/8


def tree_depths(arrays):
    """Depth of every tree in the forest's roots table, from left/right."""
    left, right = arrays["left"], arrays["right"]

    def depth(node):
        if left[node] < 0:
            return 0
        return 1 + max(depth(left[node]), depth(right[node]))

    return [depth(r) for r in arrays["roots"].ravel()]


def test_forest_depth_limit_is_respected():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((100, 3))
    y = (rng.random((100, 1)) < 0.5).astype(np.uint8)
    model = train_random_forest_ovr(x, y, n_trees=5, max_depth=2, seed=2)
    assert max(tree_depths(model.submodels)) <= 2


def test_forest_pure_label_yields_constant_trees():
    x = np.random.default_rng(3).standard_normal((30, 2))
    y = np.ones((30, 1), dtype=np.uint8)
    model = train_random_forest_ovr(x, y, n_trees=4, max_depth=5, seed=3)
    assert np.all(predict_proba(model, x) == 1.0)
    assert tree_depths(model.submodels) == [0] * 4


def test_forest_label_columns_use_the_same_randomness():
    # per-label seeding restarts the stream, so a duplicated label column
    # trains an identical submodel
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 3))
    col = (x[:, 0] + 0.3 * rng.standard_normal(60) > 0).astype(np.uint8)
    y = np.column_stack([col, col])
    model = train_random_forest_ovr(x, y, n_trees=6, max_depth=3, seed=5)
    probs = predict_proba(model, x)
    assert np.array_equal(probs[:, 0], probs[:, 1])


def test_forest_refuses_silent_dense_blowup():
    # the guard counts bytes of the dense float64 copy, not columns: a wide
    # but short matrix trains, and 30000x5000 (1.2 GB dense) is refused
    # before anything is allocated
    y = np.zeros((10, 1), dtype=np.uint8)
    model = train_random_forest_ovr(sp.csr_matrix((10, 5000)), y, n_trees=1, max_depth=1, seed=0)
    assert predict_proba(model, sp.csr_matrix((10, 5000))).shape == (10, 1)
    big, y_big = sp.csr_matrix((30000, 5000)), np.zeros((30000, 1), dtype=np.uint8)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="GiB"):
            train_random_forest_ovr(big, y_big, n_trees=1, seed=0)
        with pytest.raises(ConfigError, match="GiB"):
            predict_proba(model, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_forest_fit_holds_one_dense_copy_of_sparse_features():
    # the trees read one dense [d, n] float64 matrix; densifying the
    # transpose and then making it contiguous would hold two
    n, d = 200, 6000
    x = sp.random(n, d, density=0.05, format="csr", random_state=4)
    y = (np.random.default_rng(4).random((n, 2)) < 0.3).astype(np.uint8)
    tracemalloc.start()
    try:
        train_random_forest_ovr(x, y, n_trees=2, max_depth=4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * d * 8


def test_forest_without_trees_is_config_error():
    # no tree would vote, and every probability would be 0/0
    x = np.zeros((4, 2))
    with pytest.raises(ConfigError, match="n_trees = 0"):
        train_random_forest_ovr(x, np.ones((4, 1), dtype=np.uint8), n_trees=0, seed=0)


def test_forest_is_seed_deterministic():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 4))
    y = (x[:, 1] > 0).astype(np.uint8).reshape(-1, 1)
    a = train_random_forest_ovr(x, y, n_trees=5, max_depth=3, seed=9)
    b = train_random_forest_ovr(x, y, n_trees=5, max_depth=3, seed=9)
    assert np.array_equal(predict_proba(a, x), predict_proba(b, x))


def test_forest_vectorized_descent_matches_per_row_walk():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((70, 5))
    y = np.column_stack([x[:, 0] > 0, x[:, 1] + x[:, 2] > 0.5, x[:, 3] > 1]).astype(np.uint8)
    model = train_random_forest_ovr(x, y, n_trees=7, max_depth=4, seed=2)
    a = model.submodels
    votes = np.zeros((70, 3))
    for j, roots in enumerate(a["roots"]):
        for root in roots:
            for i, row in enumerate(x):
                node = root
                while a["feature"][node] >= 0:
                    go_left = row[a["feature"][node]] <= a["threshold"][node]
                    node = a["left"][node] if go_left else a["right"][node]
                votes[i, j] += 1.0 if a["value"][node] >= 0.5 else 0.0
    assert np.array_equal(predict_proba(model, x), votes / 7)


def best_split_reference(x, y, feats):
    """One candidate feature at a time: sort, count, keep the first best."""
    m = len(y)
    total_pos = float(y.sum())
    best = None
    for f in feats:
        vals = x[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[order].astype(np.float64)
        cut = np.nonzero(sv[:-1] < sv[1:])[0]
        if cut.size == 0:
            continue
        n_l = (cut + 1).astype(np.float64)
        n_r = m - n_l
        pos_l = np.cumsum(sy)[cut]
        pos_r = total_pos - pos_l
        p_l = pos_l / n_l
        p_r = pos_r / n_r
        gini = (n_l * 2.0 * p_l * (1.0 - p_l) + n_r * 2.0 * p_r * (1.0 - p_r)) / m
        i = int(np.argmin(gini))
        if best is None or gini[i] < best[0] - 1e-15:
            thr = float((sv[cut[i]] + sv[cut[i] + 1]) / 2.0)
            best = (float(gini[i]), int(f), thr)
    return best


def grow_tree_reference(x, y, rng, max_depth, n_try, nodes, depth=0):
    """Preorder growth on copied row subsets of the node's matrix."""
    node = len(nodes)
    nodes.append([-1, 0.0, -1, -1, float(y.mean())])
    if depth >= max_depth or len(y) < 2 or y.min() == y.max():
        return node
    feats = rng.choice(x.shape[1], size=n_try, replace=False)
    best = best_split_reference(x, y, feats)
    if best is None:
        return node
    _, f, thr = best
    mask = x[:, f] <= thr
    left = grow_tree_reference(x[mask], y[mask], rng, max_depth, n_try, nodes, depth + 1)
    right = grow_tree_reference(x[~mask], y[~mask], rng, max_depth, n_try, nodes, depth + 1)
    nodes[node] = [f, thr, left, right, -1.0]
    return node


def forest_reference(features, labels, n_trees, max_depth, seed):
    x = features.toarray() if sp.issparse(features) else np.asarray(features, dtype=np.float64)
    n, d = x.shape
    n_try = max(1, int(round(np.sqrt(d))))
    nodes = []
    roots = np.empty((labels.shape[1], n_trees), dtype=np.int64)
    for j in range(labels.shape[1]):
        y = labels[:, j].astype(np.int64)
        rng = np.random.default_rng(seed)
        for t in range(n_trees):
            boot = rng.integers(0, n, size=n)
            roots[j, t] = grow_tree_reference(x[boot], y[boot], rng, max_depth, n_try, nodes)
    feature, threshold, left, right, value = zip(*nodes)
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "value": np.array(value, dtype=np.float64),
        "roots": roots,
    }


def forest_case(name):
    rng = np.random.default_rng(11)
    if name == "rounded":  # many ties within a column
        x = np.round(rng.standard_normal((80, 16)), 1)
    elif name == "constant-columns":
        x = rng.standard_normal((60, 9))
        x[:, [2, 5, 6, 7]] = 0.25
    elif name == "all-candidates-constant":
        x = np.tile([1.0, -2.0, 0.5, 3.0], (40, 1))
    elif name == "two-row":
        x = rng.standard_normal((2, 4))
    elif name == "small-deep":  # many two-row nodes
        x = rng.standard_normal((9, 4))
    elif name == "duplicated-columns":  # exactly equal Ginis: first candidate wins
        x = np.tile(rng.standard_normal((50, 4)), (1, 4))
    elif name == "near-tied-binary":  # Ginis a few ulps apart at one node
        x = (rng.random((20, 9)) < 0.5).astype(np.float64)
    elif name == "csr":
        x = sp.random(70, 25, density=0.3, format="csr", random_state=3)
    elif name == "wide-csr":  # the bench's shape: 30 candidates, most of them all-zero
        x = sp.random(120, 900, density=0.05, format="csr", random_state=4)
    elif name == "signed-zeros":  # -0.0 and 0.0 tie, a few positive values between them
        x = np.where(rng.random((70, 12)) < 0.2, np.round(rng.random((70, 12)), 2), 0.0)
        x[(x == 0.0) & (rng.random(x.shape) < 0.5)] = -0.0
    elif name == "dense-negative":  # like w2v-avg features, but with long tie runs
        x = np.round(rng.standard_normal((90, 10)))
    else:
        raise KeyError(name)
    dense = x.toarray() if sp.issparse(x) else x
    y = np.column_stack([
        dense[:, 0] + 0.5 * rng.standard_normal(len(dense)) > 0,
        rng.random(len(dense)) < 0.5,
        dense[:, 1] > np.median(dense[:, 1]),
    ]).astype(np.uint8)
    if name == "two-row":
        y = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    return x, y


@pytest.mark.parametrize("name", [
    "rounded", "constant-columns", "all-candidates-constant", "two-row", "small-deep",
    "duplicated-columns", "near-tied-binary", "csr", "wide-csr", "signed-zeros", "dense-negative",
])
def test_forest_matches_copying_reference_bit_for_bit(name):
    x, y = forest_case(name)
    depth = 10 if name in ("two-row", "small-deep") else 6
    model = train_random_forest_ovr(x, y, n_trees=4, max_depth=depth, seed=5)
    expected = forest_reference(x, y, n_trees=4, max_depth=depth, seed=5)
    assert model.submodels.keys() == expected.keys()
    for key, want in expected.items():
        got = model.submodels[key]
        assert got.dtype == want.dtype, key
        assert np.array_equal(got, want), key
    if name == "all-candidates-constant":
        assert np.all(expected["feature"] == -1)  # every root is a leaf despite mixed labels


def test_best_split_keeps_first_candidate_within_tolerance():
    # six rows, three positive: isolating the negative row 0 (column 0) and
    # isolating the positive row 5 (column 1) have the same Gini, 0.4, but
    # round to 0.4000000000000001 and 0.39999999999999997
    y = np.array([0, 0, 0, 1, 1, 1])
    x = np.array([[0, 0], [1, 0], [1, 0], [1, 0], [1, 0], [1, 1]], dtype=np.float64)
    feats = np.array([7, 3])
    assert best_split_reference(x, y, [0, 1]) == (0.4000000000000001, 0, 0.5)
    assert models._best_split(np.ascontiguousarray(x.T), y, 3, feats) == (0.4000000000000001, 7, 0.5)


SPLIT_VALUES = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.0, 0.25, 1.0, 1.0 + 2**-52, 3.0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_best_split_matches_per_candidate_reference(data):
    # a bootstrap-like draw of a few distinct rows (so rows repeat), values
    # from a small set (so columns tie), some columns forced constant, and
    # a random subset of the candidates in random order
    d = data.draw(st.integers(1, 4), label="d")
    base = data.draw(st.lists(st.lists(SPLIT_VALUES, min_size=d, max_size=d),
                              min_size=1, max_size=6), label="base")
    m = data.draw(st.integers(1, 16), label="m")
    x = np.array(base)[data.draw(st.lists(st.integers(0, len(base) - 1), min_size=m, max_size=m))]
    constant = data.draw(st.lists(st.integers(0, d - 1), max_size=d), label="constant")
    x[:, constant] = x[0, constant]
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m), label="y"))
    if m >= 2 and data.draw(st.booleans(), label="mirrored"):
        # the second half's labels flip the first half's, and every column
        # comes again with its halves swapped: the copy's cuts hold the
        # class-flipped counts, so its Ginis are equal but may round apart
        h = m // 2
        x, y = x[:2 * h], np.concatenate([y[:h], 1 - y[:h]])
        x = np.hstack([x, np.roll(x, h, axis=0)])
    order = data.draw(st.permutations(range(x.shape[1])), label="order")
    feats = np.array(order[:data.draw(st.integers(1, len(order)), label="n_try")])
    got = models._best_split(np.ascontiguousarray(x[:, feats].T), y, int(y.sum()), feats)
    assert got == best_split_reference(x, y, feats)


# ------------------------------------------------------------ training loop

def scripted_loop(losses, max_epochs, patience):
    """Drive the generic loop with a scripted validation-loss sequence."""
    calls = {"snapshots": [], "restored_to": None}

    def train_epoch(epoch):
        return 0.1

    def val_epoch(epoch):
        return losses[epoch - 1]

    def snapshot():
        calls["snapshots"].append(len(calls["snapshots"]) + 1)

    def restore():
        calls["restored_to"] = calls["snapshots"][-1] if calls["snapshots"] else None

    history, stopped, best = run_training_loop(
        train_epoch, val_epoch, snapshot, restore, max_epochs=max_epochs, patience=patience)
    return history, stopped, best, calls


def test_early_stop_fires_after_patience_failures():
    # best at epoch 2; epochs 3..7 fail to improve; patience 5 stops at 7
    losses = [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.5, 0.4]
    history, stopped, best, calls = scripted_loop(losses, max_epochs=50, patience=5)
    assert stopped == 7
    assert best == 2
    assert len(history) == 7
    assert len(calls["snapshots"]) == 2  # epochs 1 and 2 improved
    assert calls["restored_to"] == 2  # final weights come from the best epoch


def test_improvement_must_be_strict():
    history, stopped, best, _ = scripted_loop([1.0, 1.0, 1.0], max_epochs=3, patience=2)
    assert best == 1
    assert stopped == 3


def test_patience_at_least_max_epochs_runs_to_the_end():
    losses = [1.0] + [2.0] * 19
    history, stopped, best, _ = scripted_loop(losses, max_epochs=20, patience=20)
    assert stopped == 20
    assert len(history) == 20
    assert best == 1


def test_monotone_improvement_never_stops_early():
    losses = [1.0 / (e + 1) for e in range(10)]
    history, stopped, best, calls = scripted_loop(losses, max_epochs=10, patience=3)
    assert stopped == 10
    assert best == 10
    assert len(calls["snapshots"]) == 10


# ------------------------------------------------------------------ fitting

def tiny_dense_problem(seed=0, n=160, d=6, k=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = np.column_stack([(x[:, 0] > 0), (x[:, 1] > 0)]).astype(np.uint8)[:, :k]
    return (x[: n // 2], y[: n // 2]), (x[n // 2:], y[n // 2:])


def test_fit_feedforward_learns_and_is_deterministic():
    spec = ModelSpec(family="fnn", hidden=(16,), name="t")
    train, val = tiny_dense_problem()
    cfg = TrainConfig(max_epochs=60, patience=60, batch_size=16, seed=1,
                      optimizer="sgd", learning_rate=0.5)
    m1 = fit(spec, train, val, cfg)
    m2 = fit(spec, train, val, cfg)
    assert m1.history == m2.history
    assert np.array_equal(predict_proba(m1, val[0]), predict_proba(m2, val[0]))
    acc = ((predict_proba(m1, val[0]) >= 0.5).astype(np.uint8) == val[1]).mean()
    assert acc > 0.85


def test_fit_restores_best_epoch_weights():
    spec = ModelSpec(family="fnn", hidden=(8,), name="t")
    train, val = tiny_dense_problem(seed=3)
    cfg = TrainConfig(max_epochs=40, patience=40, batch_size=16, seed=2,
                      optimizer="sgd", learning_rate=0.3)
    model = fit(spec, train, val, cfg)
    val_losses = [v for _, v in model.history]
    assert model.best_epoch == int(np.argmin(val_losses)) + 1
    # recomputing the validation loss on the restored weights must give
    # the best recorded value, not the last one
    from codeset_bench.models import _forward_loss
    recomputed = _forward_loss(model.network, val[0], val[1].astype(np.float64))
    assert recomputed == pytest.approx(min(val_losses), abs=1e-9)


def test_fit_neural_batch_of_one_matches_batch_rows():
    spec = ModelSpec(family="fnn", hidden=(8,), name="t")
    train, val = tiny_dense_problem(seed=5)
    model = fit(spec, train, val, TrainConfig(max_epochs=3, patience=3, seed=0))
    full = predict_proba(model, val[0])
    single = np.vstack([predict_proba(model, val[0][i:i + 1]) for i in range(len(val[0]))])
    assert np.allclose(full, single, atol=1e-12)


def test_fit_sequence_model_with_trained_embedding():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 12, size=(40, 9))
    y = (x[:, -1] % 2 == 0).astype(np.uint8).reshape(-1, 1)
    spec = ModelSpec(family="gru", hidden=(8,), name="t")
    cfg = TrainConfig(max_epochs=3, patience=3, batch_size=16, seed=0)
    model = fit(spec, (x[:30], y[:30]), (x[30:], y[30:]), cfg, vocab_size=12, embed_dim=6)
    probs = predict_proba(model, x[30:])
    assert probs.shape == (10, 1)
    assert np.all((probs > 0) & (probs < 1))


def test_cnn_rejects_sequences_shorter_than_its_stack():
    spec = preset("cnn-best")  # needs >= 43 positions before the last block
    with pytest.raises(ConfigError):
        build_network(spec, k=3, width=10, vocab_size=20, seed=0)


def test_bidirectional_spec_doubles_recurrent_parameters():
    base = ModelSpec(family="lstm", hidden=(8,), name="t")
    bidi = ModelSpec(family="lstm", hidden=(8,), bidirectional=True,
                     name="t-bidi")
    net = build_network(base, k=2, width=6, vocab_size=10, seed=0, embed_dim=4)
    net2 = build_network(bidi, k=2, width=6, vocab_size=10, seed=0, embed_dim=4)

    def recurrent_size(net):
        return sum(p.value.size for layer in net.layers for p in layer.params()
                   if type(layer).__name__ in ("LSTM", "Bidirectional"))

    assert recurrent_size(net2) == 2 * recurrent_size(net)


@pytest.mark.parametrize("tokens", ["random", "tie-heavy"])
def test_cnn_blocks_pool_before_relu_with_the_bytes_of_relu_before_pool(tokens):
    spec = preset("cnn-desk")
    r = np.random.default_rng(3)
    # 103 positions leave both pools a short tail window
    if tokens == "random":
        x = r.integers(0, 31, size=(12, 103))
    else:  # two token ids and long pad runs: equal windows and maxes <= 0
        x = r.integers(0, 2, size=(12, 103)) * (r.random((12, 103)) < 0.3)
    y = (r.random((12, 4)) < 0.5).astype(np.uint8)
    nets = [build_network(spec, k=4, width=103, vocab_size=30, embed_dim=8, seed=0)
            for _ in range(2)]
    assert [type(layer).__name__ for layer in nets[0].layers] == [
        "Embedding", "Conv1d", "MaxPool1d", "ReLU", "Conv1d", "MaxPool1d", "ReLU",
        "Flatten", "Dense", "ReLU", "Dense", "Sigmoid",
    ]
    twin = nets[1].layers
    for i in (2, 5):  # each conv block as Conv1d -> ReLU -> MaxPool1d
        twin[i], twin[i + 1] = twin[i + 1], twin[i]
    for net in nets:
        opt = nc.make_optimizer("rmsprop", net.params())
        for step in range(3):
            rows = slice(4 * step, 4 * step + 4)
            out = net.forward(x[rows], train=True)
            assert out.dtype == np.float32
            _, grad = nc.bce_loss(out, y[rows])
            opt.zero_grad()
            net.backward(grad)
            opt.step()
    for mine, theirs in zip(nets[0].params(), nets[1].params()):
        assert mine.value.tobytes() == theirs.value.tobytes(), mine.name
    probs = [predict_proba(models.TrainedModel(spec=spec, network=net), x) for net in nets]
    assert probs[0].tobytes() == probs[1].tobytes()


def test_count_parameters_matches_manual_sum():
    spec = ModelSpec(family="fnn", hidden=(8,), name="t")
    net = build_network(spec, k=3, width=5, seed=0)
    manual = 5 * 8 + 8 + 8 * 3 + 3
    assert sum(p.value.size for p in net.params()) == manual


# ----------------------------------------------------------- dtype contract

DTYPE_SPECS = [preset(n) for n in ("fnn-desk", "cnn-desk", "lstm-desk", "gru-desk", "rnn-desk")]
DTYPE_SPECS.append(ModelSpec(family="gru", hidden=(6, 5),
                             bidirectional=True, dropout=0.5, name="gru-bidi-drop"))


def _tiny_problem(spec, n=6, k=3):
    r = np.random.default_rng(0)
    y = (r.random((n, k)) < 0.5).astype(np.uint8)
    if spec.family == "fnn":
        return sp.csr_matrix(r.random((n, 20)) * (r.random((n, 20)) < 0.5)), y, {}
    # 25 positions leave cnn-desk's second conv block one position
    return r.integers(0, 30, size=(n, 25)), y, {"vocab_size": 29, "embed_dim": 8}


@pytest.mark.parametrize("spec", DTYPE_SPECS, ids=lambda s: s.name)
def test_built_networks_train_in_float32_and_predict_float64(spec, monkeypatch, tmp_path):
    x, y, kw = _tiny_problem(spec)
    made = []
    make = nc.make_optimizer
    monkeypatch.setattr(nc, "make_optimizer", lambda *a, **k: made.append(make(*a, **k)) or made[-1])
    cfg = TrainConfig(max_epochs=1, patience=1, batch_size=len(y), seed=0)  # one step
    model = fit(spec, (x, y), (x, y), cfg, **kw)
    net = model.network
    assert {p.value.dtype for p in net.params()} == {np.dtype(np.float32)}
    assert {p.grad.dtype for p in net.params()} == {np.dtype(np.float32)}
    assert {s.dtype for s in made[0].sq} == {np.dtype(np.float32)}

    h = x.toarray() if sp.issparse(x) else x
    for layer in net.layers:
        h = layer.forward(h, train=True)
        assert h.dtype == np.float32, type(layer).__name__
    _, grad = nc.bce_loss(h, y)
    for layer in reversed(net.layers):
        assert grad.dtype == np.float32, type(layer).__name__
        grad = layer.backward(grad)

    probs = predict_proba(model, x)
    assert probs.dtype == np.float64
    nc.save_checkpoint(tmp_path, nc.model_tensors(net), {})
    tensors, _ = nc.load_checkpoint(tmp_path)
    assert {t.dtype for t in tensors.values()} == {np.dtype(np.float32)}
    fresh = build_network(spec, k=y.shape[1], width=x.shape[1], vocab_size=kw.get("vocab_size"),
                          embed_dim=kw.get("embed_dim", 32), seed=1)
    nc.restore_model(fresh, tensors)
    restored = models.TrainedModel(spec=spec, network=fresh)
    assert predict_proba(restored, x).tobytes() == probs.tobytes()


@pytest.mark.parametrize("spec", DTYPE_SPECS, ids=lambda s: s.name)
def test_float64_built_networks_pass_gradient_checks(spec):
    from codeset_bench.cli import RECURRENT_TOL

    x, y, kw = _tiny_problem(spec)
    net = build_network(spec, k=y.shape[1], width=x.shape[1], seed=0, **kw)
    for p in net.params():
        p.value = p.value.astype(np.float64)
        p.grad = np.zeros_like(p.value)
    x = x.toarray() if sp.issparse(x) else x
    # whole feedforward stacks are held to the 1e-5 of the suite's cnn-stack
    tol = RECURRENT_TOL if spec.family in ("lstm", "gru", "rnn_simple") else 1e-5
    assert nc.gradient_check(net, x, targets=y.astype(float), max_coords=20) < tol


# --------------------------------------------------------------- prediction

def test_predict_exact_threshold_is_positive():
    x, y = separable_problem(20)
    model = train_logreg_ovr(x, y, iters=0)  # all probabilities exactly 0.5
    assert np.all((predict_proba(model, x) >= 0.5).astype(np.uint8) == 1)


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(family="transformer")
    with pytest.raises(ConfigError):
        # conv stack requirement is enforced when the network is realized
        build_network(ModelSpec(family="cnn", name="t"),
                      k=2, width=8, vocab_size=10, seed=0)
