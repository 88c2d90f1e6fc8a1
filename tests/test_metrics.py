"""Multi-label evaluation: hand values, invariants, oracle agreement."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeset_bench import metrics, oracles
from codeset_bench.errors import ConfigError, FormatError
from codeset_bench.metrics import (
    PredictionRun,
    average_precision,
    example_based_metrics,
    hamming_loss,
    label_auc,
    load_pr_curves,
    macro_auc,
    precision_at_k,
    report,
    write_pr_curves,
)

# a 0/0 or an overflow inside a metric fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def U8(rows):
    return np.asarray(rows, dtype=np.uint8)


# ------------------------------------------------------- example metrics

def test_perfect_prediction_scores_one():
    truth = U8([[1, 0, 1], [0, 1, 0]])
    m = example_based_metrics(truth, truth)
    assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)
    assert m.nan_replacements == 0


def test_half_overlap_hand_value():
    # P={a,b}, T={b,c}: |P∩T|=1, precision=recall=1/2, f1=1/2, jaccard=1/3
    predicted = U8([[1, 1, 0]])
    truth = U8([[0, 1, 1]])
    m = example_based_metrics(predicted, truth)
    assert m.precision == 0.5
    assert m.recall == 0.5
    assert m.f1 == 0.5
    assert m.accuracy == pytest.approx(1 / 3)


def test_empty_prediction_rows_count_as_zero():
    predicted = U8([[0, 0], [1, 0]])
    truth = U8([[1, 0], [1, 0]])
    m = example_based_metrics(predicted, truth)
    # row 0 has an empty predicted set: precision 0/0 -> 0, counted
    assert m.precision == 0.5
    assert m.nan_replacements == 1


def test_scores_average_over_examples():
    predicted = U8([[1, 0], [0, 1]])
    truth = U8([[1, 0], [1, 0]])
    m = example_based_metrics(predicted, truth)
    assert m.f1 == 0.5  # rows score 1.0 and 0.0


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_accuracy_never_exceeds_f1(n, q, seed):
    rng = np.random.default_rng(seed)
    predicted = (rng.random((n, q)) < 0.4).astype(np.uint8)
    truth = (rng.random((n, q)) < 0.4).astype(np.uint8)
    m = example_based_metrics(predicted, truth)
    assert m.accuracy <= m.f1 + 1e-12  # |a∩b|/|a∪b| <= 2|a∩b|/(|a|+|b|)


# ---------------------------------------------------------------- hamming

def test_hamming_hand_values():
    assert hamming_loss(U8([[1, 0, 0]]), U8([[1, 1, 0]])) == pytest.approx(1 / 3)
    assert hamming_loss(U8([[1, 0]]), U8([[1, 0]])) == 0.0


def test_hamming_of_zero_predictor_equals_truth_density():
    rng = np.random.default_rng(3)
    truth = (rng.random((20, 7)) < 0.3).astype(np.uint8)
    zeros = np.zeros_like(truth)
    assert hamming_loss(zeros, truth) == truth.mean()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_hamming_is_symmetric(n, q, seed):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, q)) < 0.5).astype(np.uint8)
    b = (rng.random((n, q)) < 0.5).astype(np.uint8)
    assert hamming_loss(a, b) == hamming_loss(b, a)


# -------------------------------------------------------------------- auc

def test_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    truth = np.array([1, 1, 0, 0], dtype=np.uint8)
    assert label_auc(scores, truth) == 1.0


def test_auc_reversed_separation_is_zero():
    scores = np.array([0.1, 0.9])
    truth = np.array([1, 0], dtype=np.uint8)
    assert label_auc(scores, truth) == 0.0


def test_auc_all_tied_scores_is_half():
    scores = np.full(6, 0.5)
    truth = np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)
    assert label_auc(scores, truth) == 0.5


def test_auc_hand_value_with_one_violation():
    # pairs: (0.9 vs 0.8-neg) correct, (0.3 vs 0.8-neg) wrong: 1 of 2
    scores = np.array([0.9, 0.8, 0.3])
    truth = np.array([1, 0, 1], dtype=np.uint8)
    assert label_auc(scores, truth) == 0.5


def test_auc_single_class_label_is_excluded():
    scores = np.array([0.9, 0.8])
    assert label_auc(scores, np.array([1, 1], dtype=np.uint8)) is None
    probs = np.array([[0.9, 0.9], [0.8, 0.1]])
    truth = U8([[1, 1], [1, 0]])
    mean, excluded = macro_auc(probs, truth)
    assert excluded == 1  # first label has no negatives
    assert mean == 1.0  # remaining label separates perfectly


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10 ** 6))
def test_auc_is_invariant_to_monotone_transforms(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    truth = (rng.random(n) < 0.5).astype(np.uint8)
    if truth.min() == truth.max():
        truth[0] ^= 1
    base = label_auc(scores, truth)
    assert label_auc(3.0 * scores + 2.0, truth) == pytest.approx(base, abs=1e-12)
    assert label_auc(np.exp(scores), truth) == pytest.approx(base, abs=1e-12)


# --------------------------------------------------------------------- ap

def test_ap_hand_value_five_sixths():
    ap, curve = average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1], dtype=np.uint8))
    assert ap == pytest.approx(5 / 6, abs=1e-12)
    assert curve is not None
    assert curve.recall.tolist() == [0.5, 1.0]
    assert curve.precision.tolist() == [1.0, 2 / 3]


def test_ap_perfect_ranking_is_one():
    ap, _ = average_precision(np.array([0.9, 0.8, 0.2]), np.array([1, 1, 0], dtype=np.uint8))
    assert ap == 1.0


def test_ap_no_positives_is_excluded():
    ap, curve = average_precision(np.array([0.9, 0.1]), np.array([0, 0], dtype=np.uint8))
    assert ap is None
    assert curve is None


def test_ap_tie_break_is_by_ascending_index():
    # equal scores: earlier row ranks first, so a leading negative at the
    # same score depresses AP below 1
    ap, _ = average_precision(np.array([0.5, 0.5]), np.array([0, 1], dtype=np.uint8))
    assert ap == pytest.approx(0.5)
    ap2, _ = average_precision(np.array([0.5, 0.5]), np.array([1, 0], dtype=np.uint8))
    assert ap2 == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10 ** 6))
def test_ap_is_invariant_to_monotone_transforms(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    truth = (rng.random(n) < 0.5).astype(np.uint8)
    truth[rng.integers(n)] = 1
    base, _ = average_precision(scores, truth)
    shifted, _ = average_precision(5.0 * scores + 1.0, truth)
    assert shifted == pytest.approx(base, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10 ** 6))
def test_pr_curve_recall_is_nondecreasing_and_ends_at_one(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    truth = (rng.random(n) < 0.5).astype(np.uint8)
    truth[rng.integers(n)] = 1
    _, curve = average_precision(scores, truth)
    assert np.all(np.diff(curve.recall) >= 0)
    assert curve.recall[-1] == 1.0
    assert np.all((curve.precision > 0) & (curve.precision <= 1))


# ------------------------------------------------------------------- p@k

def test_precision_at_k_hand_value():
    probs = np.array([[0.9, 0.8, 0.7, 0.2, 0.1, 0.05]])
    truth = U8([[1, 0, 1, 0, 0, 0]])
    # top-5 contains both positives: 2/5
    assert precision_at_k(probs, truth, k=5) == pytest.approx(0.4)


def test_precision_at_k_averages_rows_and_skips_empty_truth():
    probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.9]])
    truth = U8([[1, 0], [0, 0], [0, 1]])
    # middle row has no true labels: dropped from the average
    assert precision_at_k(probs, truth, k=1) == 1.0


def test_precision_at_k_breaks_ties_by_index():
    probs = np.array([[0.5, 0.5]])
    assert precision_at_k(probs, U8([[0, 1]]), k=1) == 0.0
    assert precision_at_k(probs, U8([[1, 0]]), k=1) == 1.0


def test_precision_at_k_rejects_k_beyond_labels():
    with pytest.raises(ConfigError):
        precision_at_k(np.array([[0.5]]), U8([[1]]), k=5)


@pytest.mark.parametrize("k", [0, -1])
def test_precision_at_k_rejects_k_below_one(k):
    probs = np.array([[0.9, 0.5, 0.1]] * 4)
    truth = U8([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
    with pytest.raises(ConfigError):
        precision_at_k(probs, truth, k=k)


# ------------------------------------------- array forms vs loop references

def average_ranks_reference(scores):
    """Walk the sorted scores one tie group at a time."""
    n = scores.size
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    s = scores[order]
    while i < n:
        j = i
        while j + 1 < n and s[j + 1] == s[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def average_precision_reference(s, t):
    """Running sum over descending-score ranks; (ap, recall, precision,
    thresholds), or None without positives."""
    t = t.astype(bool)
    n_pos = int(t.sum())
    if n_pos == 0:
        return None
    tp = 0
    recalls, precisions, thresholds = [], [], []
    ap = 0.0
    prev_recall = 0.0
    for rank, idx in enumerate(np.argsort(-s, kind="stable"), start=1):
        if t[idx]:
            tp += 1
            r = tp / n_pos
            p = tp / rank
            ap += (r - prev_recall) * p
            prev_recall = r
            recalls.append(r)
            precisions.append(p)
            thresholds.append(s[idx])
    return ap, np.array(recalls), np.array(precisions), np.array(thresholds)


def precision_at_k_reference(probs, truth, k):
    """One row at a time, skipping rows with no true label."""
    t = truth.astype(bool)
    vals = []
    for i in range(probs.shape[0]):
        if not t[i].any():
            continue
        top = np.argsort(-probs[i], kind="stable")[:k]
        vals.append(t[i, top].sum() / k)
    return float(np.mean(vals)) if vals else 0.0


def reference_columns():
    """(scores, truth) columns: all tied, tie groups at both ends, a single
    positive, no positives, and random columns with many ties."""
    cols = [
        (np.full(7, 0.3), U8([0, 1, 0, 1, 1, 0, 0])),
        (np.array([0.1, 0.9, 0.1, 0.5, 0.9, 0.1, 0.4, 0.9]), U8([1, 0, 0, 1, 1, 0, 1, 0])),
        (np.array([0.2, 0.7, 0.7, 0.1, 0.4]), U8([0, 0, 1, 0, 0])),
        (np.array([0.2, 0.7, 0.7, 0.1]), U8([0, 0, 0, 0])),
        (np.array([0.6]), U8([1])),
    ]
    rng = np.random.default_rng(12)
    for n in (2, 3, 10, 57, 400):
        cols.append((np.round(rng.random(n), 1), (rng.random(n) < 0.3).astype(np.uint8)))
        cols.append((rng.random(n), (rng.random(n) < 0.1).astype(np.uint8)))
    return cols


def test_average_ranks_match_loop_reference():
    # the AUC's ranks, read off the descending order that AP also uses
    for scores, _ in reference_columns():
        key = -scores
        order = np.argsort(key, kind="stable")
        ranks = np.empty(scores.size)
        ranks[order] = metrics._doubled_ranks(key[order], np.arange(scores.size)) / 2.0
        assert np.array_equal(ranks, average_ranks_reference(scores))


def test_average_precision_matches_loop_reference():
    for scores, truth in reference_columns():
        ap, curve = average_precision(scores, truth, label="x")
        want = average_precision_reference(scores, truth)
        if want is None:
            assert (ap, curve) == (None, None)
            continue
        assert ap == want[0]
        for got, expected in zip((curve.recall, curve.precision, curve.thresholds), want[1:]):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def test_precision_at_k_matches_loop_reference():
    rng = np.random.default_rng(13)
    probs = np.round(rng.random((60, 8)), 1)
    truth = (rng.random((60, 8)) < 0.2).astype(np.uint8)
    truth[::7] = 0  # rows with empty truth are skipped
    for k in (1, 3, 8):
        assert precision_at_k(probs, truth, k=k) == precision_at_k_reference(probs, truth, k)
    empty = np.zeros_like(truth)
    assert precision_at_k(probs, empty, k=2) == precision_at_k_reference(probs, empty, 2) == 0.0


# ----------------------------------------------------------------- report

def make_run(seed=0, n=12, q=6):
    rng = np.random.default_rng(seed)
    probs = rng.random((n, q))
    truth = (rng.random((n, q)) < 0.35).astype(np.uint8)
    truth[rng.integers(n)] = 1
    predicted = (probs >= 0.5).astype(np.uint8)
    return PredictionRun(probs=probs, predicted=predicted, truth=truth)


def test_report_on_perfect_run():
    truth = U8([[1, 0, 1, 0, 0], [0, 1, 0, 0, 1]])
    probs = truth.astype(float) * 0.5 + 0.25  # positives .75, negatives .25
    run = PredictionRun(probs=probs, predicted=truth.copy(), truth=truth)
    rep, curves = report(run)
    assert rep.f1 == 1.0
    assert rep.hamming_loss == 0.0
    assert rep.macro_auc == 1.0
    assert rep.mean_ap == 1.0
    # label 3 has no positives: excluded from mean but kept as a placeholder
    assert rep.ap_per_label == [1.0, 1.0, 1.0, None, 1.0]
    assert len(curves) == 4  # curves only for evaluable labels


def test_report_json_is_stable_and_sorted():
    rep, _ = report(make_run(2))
    text = rep.to_json()
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)
    assert rep.to_json() == text


def test_report_at_k_clamps_to_label_count():
    run = make_run(1, n=8, q=3)
    rep, _ = report(run)  # q=3 < 5 must not raise
    assert 0.0 <= rep.precision_at_5 <= 1.0


def test_run_shape_mismatch_rejected():
    with pytest.raises(Exception):
        PredictionRun(probs=np.zeros((2, 3)), predicted=np.zeros((2, 3), dtype=np.uint8),
                      truth=np.zeros((3, 3), dtype=np.uint8))


def report_link_runs():
    """Seeded runs with tied scores, single-class and all-negative columns."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        probs, predicted, truth = oracles.random_run(rng, int(rng.integers(2, 40)),
                                                     int(rng.integers(2, 9)))
        probs[:, 0] = np.round(probs[:, 0], 1)  # ties
        truth[:, 1] = seed % 2  # all negative, or all positive
        yield PredictionRun(probs=probs, predicted=predicted, truth=truth)


def test_report_agrees_with_public_metric_functions():
    for run in report_link_runs():
        rep, curves = report(run)
        auc, auc_excluded = macro_auc(run.probs, run.truth)
        assert rep.macro_auc == auc
        public = [average_precision(run.probs[:, j], run.truth[:, j], run.label_names[j])
                  for j in range(run.q)]
        assert rep.ap_per_label == [ap for ap, _ in public]
        want_curves = [c for _, c in public if c is not None]
        assert [c.label for c in curves] == [c.label for c in want_curves]
        for got, want in zip(curves, want_curves):
            for name in ("recall", "precision", "thresholds"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        ap_excluded = sum(ap is None for ap, _ in public)
        ex_nans = example_based_metrics(run.predicted, run.truth).nan_replacements
        assert rep.nan_replacements == ex_nans + auc_excluded + ap_excluded


# ------------------------------------------------------------ PR-curve codec

def test_pr_curves_round_trip(tmp_path):
    _, curves = report(make_run(3, n=40, q=6))
    path = tmp_path / "pr.npz"
    write_pr_curves(curves, path)
    loaded = load_pr_curves(path)
    assert [c.label for c in loaded] == [c.label for c in curves]
    for got, want in zip(loaded, curves):
        for name in ("recall", "precision", "thresholds"):
            assert getattr(got, name).dtype == np.float64
            assert np.array_equal(getattr(got, name), getattr(want, name))
    with np.load(path, allow_pickle=False) as archive:
        assert sorted(archive.files) == sorted(metrics.PR_KEYS)
        assert archive["count"].tolist() == [len(c.recall) for c in curves]


def test_run_without_positives_writes_zero_curves(tmp_path):
    run = PredictionRun(probs=np.full((3, 2), 0.5), predicted=np.zeros((3, 2), dtype=np.uint8),
                        truth=np.zeros((3, 2), dtype=np.uint8))
    _, curves = report(run)
    assert curves == []
    write_pr_curves(curves, tmp_path / "pr.npz")
    assert load_pr_curves(tmp_path / "pr.npz") == []


def _rewrite_npz(path, **changes):
    """Write the .npz again with some arrays replaced; None drops a key."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **{key: a for key, a in arrays.items() if a is not None})


@pytest.mark.parametrize("damage", ["truncated", "missing_key", "bad_count", "negative_count",
                                    "float32_recall", "bytes_label"])
def test_damaged_pr_curves_are_format_errors(tmp_path, damage):
    _, curves = report(make_run(4, n=20, q=4))
    path = tmp_path / "pr.npz"
    write_pr_curves(curves, path)
    with np.load(path, allow_pickle=False) as archive:
        count, recall, label = archive["count"], archive["recall"], archive["label"]
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:-40])
    elif damage == "missing_key":
        _rewrite_npz(path, precision=None)
    elif damage == "bad_count":
        _rewrite_npz(path, count=np.concatenate(([count[0] + 1], count[1:])))
    elif damage == "negative_count":  # still sums to the column length
        _rewrite_npz(path, count=np.concatenate(([-1, count[0] + count[1] + 1], count[2:])))
    elif damage == "float32_recall":
        _rewrite_npz(path, recall=recall.astype(np.float32))
    else:
        _rewrite_npz(path, label=label.astype(bytes))
    with pytest.raises(FormatError, match="pr.npz"):
        load_pr_curves(path)


# ------------------------------------------------------- oracle agreement

def test_quick_oracle_agreement():
    worst = oracles.run_oracle_suite(n_pairs=60, n=32, q=8, seed=1, tol=1e-12)
    assert max(worst.values()) < 1e-12


def test_oracle_catches_a_wrong_auc():
    # sanity that the oracle itself is discriminating
    scores = np.array([0.9, 0.1])
    truth = np.array([1, 0], dtype=np.uint8)
    assert oracles.oracle_label_auc(scores, truth) == 1.0
    assert oracles.oracle_label_auc(scores, 1 - truth) == 0.0


def test_oracle_ap_hand_value_with_index_tie_break():
    # ranks by (-score, index): 0.9+, 0.8-, 0.8+, 0.1- -> positives at ranks 1 and 3
    scores = np.array([0.9, 0.8, 0.8, 0.1])
    truth = U8([1, 0, 1, 0])
    assert oracles.oracle_average_precision(scores, truth) == (1 / 1 + 2 / 3) / 2


def test_oracle_precision_at_k_ties_prefer_smaller_index_and_skip_empty_rows():
    probs = np.array([[0.5, 0.5, 0.1], [0.9, 0.1, 0.2]])
    # the 0.5 tie puts label 0 first; row 1 has no truth and is left out
    assert oracles.oracle_precision_at_k(probs, U8([[1, 0, 0], [0, 0, 0]]), k=1) == 1.0
    assert oracles.oracle_precision_at_k(probs, U8([[0, 1, 0], [0, 0, 0]]), k=1) == 0.0
    assert oracles.oracle_precision_at_k(probs, U8([[0, 1, 0], [0, 0, 0]]), k=2) == 0.5


def test_oracle_hamming_hand_value():
    predicted = U8([[1, 0, 1], [0, 0, 0]])
    truth = U8([[1, 1, 0], [0, 0, 1]])
    assert oracles.oracle_hamming(predicted, truth) == 3 / 6


def test_oracle_example_metrics_counts_nans_for_empty_sets():
    # row 0 predicts nothing (precision 0/0), row 1 has no truth (recall 0/0)
    predicted = U8([[0, 0], [1, 0]])
    truth = U8([[1, 0], [0, 0]])
    assert oracles.oracle_example_metrics(predicted, truth) == (0.0, 0.0, 0.0, 0.0, 2)
    assert example_based_metrics(predicted, truth).nan_replacements == 2


def test_oracle_suite_clamps_p_at_5_to_label_count():
    worst = oracles.run_oracle_suite(n_pairs=3, n=16, q=3)
    assert "p_at_5" in worst
    assert max(worst.values()) < 1e-12


def _nudge(value):
    return None if value is None else value + 1e-9


def test_oracle_suite_catches_ap_off_by_1e9(monkeypatch):
    real = metrics.average_precision

    def nudged(*args, **kwargs):
        ap, curve = real(*args, **kwargs)
        return _nudge(ap), curve

    monkeypatch.setattr(metrics, "average_precision", nudged)
    with pytest.raises(AssertionError, match="^ap deviates"):
        oracles.run_oracle_suite(n_pairs=5)


def test_oracle_suite_catches_auc_off_by_1e9(monkeypatch):
    real = metrics.label_auc
    monkeypatch.setattr(metrics, "label_auc", lambda *args: _nudge(real(*args)))
    with pytest.raises(AssertionError, match="^auc deviates"):
        oracles.run_oracle_suite(n_pairs=5)


# Digests pinned on the list-free oracles of commit 23e49f0 (before the
# oracles converted their inputs with `.tolist()`): every oracle must keep
# returning exactly the same values, of the same Python types, and
# `random_run` the same arrays and generator state.
ORACLE_DIGEST = "67bac4bb5c88b559d69359276998168ed4a75afa91883092c9d56d87dd3a1fd4"
RANDOM_RUN_DIGEST = "2c415690b2497b53847ab6f2b2d5a675f56fe41f12230da1d077528948beaf49"
DIGEST_SHAPES = ((64, 10), (5, 3), (1, 4), (30, 7), (12, 1))


def _digest_runs():
    rng = np.random.default_rng(2024)
    for i in range(200):
        probs, predicted, truth = oracles.random_run(rng, *DIGEST_SHAPES[i % len(DIGEST_SHAPES)])
        if i % 4 == 1:  # an empty truth row and an empty prediction row
            truth[0, :] = 0
            predicted[-1, :] = 0
        elif i % 4 == 3:  # a fully tied score column and a single-class truth column
            probs[:, 0] = 0.5
            truth[:, -1] = 1
        yield probs, predicted, truth


def _oracle_values(probs, predicted, truth):
    q = probs.shape[1]
    yield oracles.oracle_example_metrics(predicted, truth)
    yield oracles.oracle_hamming(predicted, truth)
    yield oracles.oracle_macro_auc(probs, truth)
    for j in range(q):
        yield oracles.oracle_label_auc(probs[:, j], truth[:, j])
        yield oracles.oracle_average_precision(probs[:, j], truth[:, j])
    for k in sorted({1, min(3, q), min(5, q)}):
        yield oracles.oracle_precision_at_k(probs, truth, k=k)


def oracle_digest() -> str:
    h = hashlib.sha256()
    for run in _digest_runs():
        for value in _oracle_values(*run):
            h.update(repr(value).encode() + b"\n")
    return h.hexdigest()


def random_run_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(7)
    for i in range(400):
        for a in oracles.random_run(rng, *DIGEST_SHAPES[i % len(DIGEST_SHAPES)]):
            h.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


def test_oracle_values_match_pinned_digest():
    assert oracle_digest() == ORACLE_DIGEST


def test_random_run_matches_pinned_digest():
    assert random_run_digest() == RANDOM_RUN_DIGEST
