"""Multi-label evaluation: hand values, invariants, oracle agreement."""

import ast
import hashlib
import inspect
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeset_bench import metrics, oracles
from codeset_bench.errors import ConfigError, FormatError, NumericError
from codeset_bench.metrics import (
    PredictionRun,
    average_precision,
    example_based_metrics,
    hamming_loss,
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


def score_column(scores, truth):
    """AUC, AP and PR-curve arrays of one label column, from the batched
    scorer."""
    (auc,), (ap,), curves = metrics._score_columns(np.asarray(scores)[:, None],
                                                   np.asarray(truth)[:, None])
    return auc, ap, curves


def column_auc(scores, truth):
    return score_column(scores, truth)[0]


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


def example_metrics_row_reference(predicted, truth):
    """One row at a time: each example's four values, 0 where undefined,
    averaged by ``np.mean`` of each value's column of examples."""
    columns = ([], [], [], [])
    nans = 0
    for p_row, t_row in zip(predicted.astype(bool).tolist(), truth.astype(bool).tolist()):
        inter = sum(a and b for a, b in zip(p_row, t_row))
        union = sum(a or b for a, b in zip(p_row, t_row))
        n_p, n_t = sum(p_row), sum(t_row)
        for values, num, den in zip(columns, (inter, inter, 2 * inter, inter),
                                    (n_p, n_t, n_p + n_t, union)):
            nans += den == 0
            values.append(num / den if den else 0.0)
    return (*(float(np.mean(values)) for values in columns), nans)


def example_metric_runs():
    """Seeded (predicted, truth) pairs of random shapes with empty rows in
    both, and the 12000 x 50 run of the bench's report."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        n, q = int(rng.integers(1, 300)), int(rng.integers(1, 12))
        predicted = (rng.random((n, q)) < rng.random()).astype(np.uint8)
        truth = (rng.random((n, q)) < rng.random()).astype(np.uint8)
        predicted[rng.random(n) < 0.2] = 0
        truth[rng.random(n) < 0.2] = 0
        yield predicted, truth
    run = _large_run()
    yield run.predicted, run.truth


def test_example_based_metrics_matches_loop_reference():
    for predicted, truth in example_metric_runs():
        m = example_based_metrics(predicted, truth)
        got = (m.precision, m.recall, m.f1, m.accuracy, m.nan_replacements)
        assert got == example_metrics_row_reference(predicted, truth)
        assert [type(v) for v in got] == [float] * 4 + [int]


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
    assert column_auc(scores, truth) == 1.0


def test_auc_reversed_separation_is_zero():
    scores = np.array([0.1, 0.9])
    truth = np.array([1, 0], dtype=np.uint8)
    assert column_auc(scores, truth) == 0.0


def test_auc_all_tied_scores_is_half():
    scores = np.full(6, 0.5)
    truth = np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)
    assert column_auc(scores, truth) == 0.5


def test_auc_hand_value_with_one_violation():
    # pairs: (0.9 vs 0.8-neg) correct, (0.3 vs 0.8-neg) wrong: 1 of 2
    scores = np.array([0.9, 0.8, 0.3])
    truth = np.array([1, 0, 1], dtype=np.uint8)
    assert column_auc(scores, truth) == 0.5


def test_auc_single_class_label_is_excluded():
    scores = np.array([0.9, 0.8])
    assert column_auc(scores, np.array([1, 1], dtype=np.uint8)) is None
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
    base = column_auc(scores, truth)
    assert column_auc(3.0 * scores + 2.0, truth) == pytest.approx(base, abs=1e-12)
    assert column_auc(np.exp(scores), truth) == pytest.approx(base, abs=1e-12)


# --------------------------------------------------------------------- ap

def test_ap_hand_value_five_sixths():
    _, ap, curves = score_column(np.array([0.9, 0.8, 0.7]), U8([1, 0, 1]))
    assert ap == pytest.approx(5 / 6, abs=1e-12)
    assert curves["count"].tolist() == [2]
    assert curves["recall"].tolist() == [0.5, 1.0]
    assert curves["precision"].tolist() == [1.0, 2 / 3]
    assert curves["threshold"].tolist() == [0.9, 0.7]


def test_ap_perfect_ranking_is_one():
    assert average_precision(np.array([[0.9], [0.8], [0.2]]), U8([[1], [1], [0]])) == [1.0]


def test_ap_no_positives_is_excluded():
    _, ap, curves = score_column(np.array([0.9, 0.1]), U8([0, 0]))
    assert ap is None
    assert all(curves[key].size == 0 for key in metrics.PR_KEYS[1:])


def test_ap_tie_break_is_by_ascending_index():
    # equal scores: earlier row ranks first, so a leading negative at the
    # same score depresses AP below 1
    probs = np.full((2, 2), 0.5)
    assert average_precision(probs, U8([[0, 1], [1, 0]])) == [0.5, 1.0]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10 ** 6))
def test_ap_is_invariant_to_monotone_transforms(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    truth = (rng.random(n) < 0.5).astype(np.uint8)
    truth[rng.integers(n)] = 1
    (base,) = average_precision(scores[:, None], truth[:, None])
    (shifted,) = average_precision(5.0 * scores[:, None] + 1.0, truth[:, None])
    assert shifted == pytest.approx(base, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10 ** 6))
def test_pr_curve_recall_is_nondecreasing_and_ends_at_one(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    truth = (rng.random(n) < 0.5).astype(np.uint8)
    truth[rng.integers(n)] = 1
    _, _, curves = score_column(scores, truth)
    assert np.all(np.diff(curves["recall"]) >= 0)
    assert curves["recall"][-1] == 1.0
    assert np.all((curves["precision"] > 0) & (curves["precision"] <= 1))


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
    positive, no positives, 0.0 and -0.0 tied with positives among them,
    random columns with many ties, and a tied column longer than
    ``SCORE_BLOCK``, which the scorer sorts as a block of its own."""
    cols = [
        (np.full(7, 0.3), U8([0, 1, 0, 1, 1, 0, 0])),
        (np.array([0.1, 0.9, 0.1, 0.5, 0.9, 0.1, 0.4, 0.9]), U8([1, 0, 0, 1, 1, 0, 1, 0])),
        (np.array([0.2, 0.7, 0.7, 0.1, 0.4]), U8([0, 0, 1, 0, 0])),
        (np.array([0.2, 0.7, 0.7, 0.1]), U8([0, 0, 0, 0])),
        (np.array([0.6]), U8([1])),
        (np.tile([0.0, -0.0, -0.0, 0.4, 0.0, -0.0, -0.3, 0.0], 5),
         U8(np.tile([1, 0, 1, 0, 0, 1, 1, 1], 5))),
    ]
    rng = np.random.default_rng(12)
    for n in (2, 3, 10, 57, 400):
        cols.append((np.round(rng.random(n), 1), (rng.random(n) < 0.3).astype(np.uint8)))
        cols.append((rng.random(n), (rng.random(n) < 0.1).astype(np.uint8)))
    n = 20000
    assert n > metrics.SCORE_BLOCK
    cols.append((np.round(rng.random(n), 2), (rng.random(n) < 0.05).astype(np.uint8)))
    return cols


def test_average_ranks_match_loop_reference():
    # column j of the truth has its one positive at row rows[j], so its AUC
    # is (average rank of that row - 1) / (n - 1); n = 400 spans blocks, and
    # past 400 rows every 200th row bounds the n x len(rows) matrices
    for scores, _ in reference_columns():
        n = scores.size
        if n < 2:
            continue
        rows = np.arange(0, n, 1 if n <= 400 else 200)
        truth = (np.arange(n)[:, None] == rows).astype(np.uint8)
        aucs, _, _ = metrics._score_columns(np.repeat(scores[:, None], rows.size, axis=1), truth)
        assert aucs == ((average_ranks_reference(scores)[rows] - 1) / (n - 1)).tolist()


def test_average_precision_matches_loop_reference():
    # bytes, not ==, so that a threshold of -0.0 in place of 0.0 shows
    for scores, truth in reference_columns():
        _, ap, curves = score_column(scores, truth)
        want = average_precision_reference(scores, truth)
        if want is None:
            assert ap is None and curves["count"].size == 0
            continue
        assert ap == want[0]
        assert curves["count"].tolist() == [want[1].size]
        for key, expected in zip(("recall", "precision", "threshold"), want[1:]):
            assert curves[key].dtype == expected.dtype
            assert curves[key].tobytes() == expected.tobytes(), key


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
    # curves only for evaluable labels
    assert curves["label"].tolist() == ["label0", "label1", "label2", "label4"]
    assert curves["count"].tolist() == [1, 1, 1, 1]


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


# a column on which the rank form gave AUC 0.5 and the pair-counting
# oracle 0.611: NaN has no place in a ranking
NAN_COLUMN = [0.3, np.nan, 0.5, 0.2, np.nan, 0.1]
NAN_TRUTH = [1, 0, 0, 1, 1, 0]
SCORE_ENTRY_POINTS = {
    "score_columns": lambda s, t: metrics._score_columns(s[:, 1:], t[:, 1:]),
    "average_precision": average_precision,
    "macro_auc": macro_auc,
    "precision_at_k": lambda s, t: precision_at_k(s, t, k=1),
    "report": lambda s, t: report(PredictionRun(s, np.zeros_like(t), t)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(SCORE_ENTRY_POINTS))
def test_non_finite_scores_are_numeric_errors(entry, bad):
    column = np.where(np.isnan(NAN_COLUMN), bad, NAN_COLUMN)
    probs = np.column_stack([np.linspace(0.1, 0.6, 6), column])
    truth = U8([[1 - t, t] for t in NAN_TRUTH])
    with pytest.raises(NumericError, match="2 of .* scores are NaN or infinite"):
        SCORE_ENTRY_POINTS[entry](probs, truth)


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
        aps = average_precision(run.probs, run.truth)
        assert rep.ap_per_label == aps
        assert curves["label"].tolist() == [
            name for name, ap in zip(run.label_names, aps) if ap is not None]
        # the columns scored one at a time give the same values and curves
        columns = [score_column(run.probs[:, j], run.truth[:, j]) for j in range(run.q)]
        assert metrics._score_columns(run.probs, run.truth)[0] == [a for a, _, _ in columns]
        assert aps == [ap for _, ap, _ in columns]
        for key in metrics.PR_KEYS[1:]:
            want = np.concatenate([c[key] for _, _, c in columns])
            assert curves[key].dtype == want.dtype
            assert np.array_equal(curves[key], want)
        ap_excluded = sum(ap is None for ap in aps)
        ex_nans = example_based_metrics(run.predicted, run.truth).nan_replacements
        assert rep.nan_replacements == ex_nans + auc_excluded + ap_excluded


def _large_run():
    """12000 x 50 scores, 4.6 MiB, with label frequencies falling off."""
    rng = np.random.default_rng(0)
    truth = (rng.random((12000, 50)) < 0.3 * 0.93 ** np.arange(50)).astype(np.uint8)
    probs = 1.0 / (1.0 + np.exp(-rng.normal(-1.5 + 2.5 * truth, 1.2)))
    return PredictionRun(probs, (probs >= 0.5).astype(np.uint8), truth)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_on_a_large_run_holds_bounded_memory():
    # precision_at_k's one copy of the scores sets the report's peak; the
    # label columns, scored a block at a time, stay below it
    assert _traced_peak(report, _large_run()) < 12 * 2 ** 20


def test_precision_at_k_copies_the_scores_once():
    # one float64 copy of the kept rows is 4.6 MiB; the bound leaves room
    # for the truth and per-row arrays, not for a second [n, q] array
    run = _large_run()
    assert _traced_peak(precision_at_k, run.probs, run.truth, 5) < 6.5 * 2 ** 20


# ------------------------------------------------------------ PR-curve codec

def test_pr_curves_round_trip(tmp_path):
    _, curves = report(make_run(3, n=40, q=6))
    path = tmp_path / "pr.npz"
    write_pr_curves(curves, path)
    loaded = load_pr_curves(path)
    assert list(loaded) == list(metrics.PR_KEYS)
    for key in metrics.PR_KEYS:
        assert loaded[key].dtype == curves[key].dtype
        assert np.array_equal(loaded[key], curves[key])
    assert loaded["count"].sum() == loaded["recall"].size
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files == list(metrics.PR_KEYS)


def test_run_without_positives_writes_zero_curves(tmp_path):
    run = PredictionRun(probs=np.full((3, 2), 0.5), predicted=np.zeros((3, 2), dtype=np.uint8),
                        truth=np.zeros((3, 2), dtype=np.uint8))
    _, curves = report(run)
    write_pr_curves(curves, tmp_path / "pr.npz")
    for arrays in (curves, load_pr_curves(tmp_path / "pr.npz")):
        assert [arrays[key].size for key in metrics.PR_KEYS] == [0] * len(metrics.PR_KEYS)


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


# Digest of the metrics_*.json and pr_*.npz bytes `harness._write_reports`
# wrote at commit 6a0e44e, before the label columns were scored in blocks.
RUN_FILES_DIGEST = "4b8244b227b1a4ccd41cf7b2001be7481fac5ba9301b854e70391da05f74820b"


def _run_file_cases():
    """Seeded (train, test) outputs with their label names: tied scores, an
    all-negative and an all-positive column, a run wider than one scoring
    block, a run without positives and a one-row run."""
    rng = np.random.default_rng(21)

    def outputs(n, q):
        probs, _, truth = oracles.random_run(rng, n, q)
        probs[:, ::2] = np.round(probs[:, ::2], 1)  # ties
        return probs, truth

    single_class = outputs(37, 9)
    single_class[1][:, 1] = 0
    single_class[1][:, 2] = 1
    yield {"train": single_class, "test": outputs(20, 9)}, [f"V{j}" for j in range(9)]
    # 300 x 250 = 75000 scores, more than one block of metrics.SCORE_BLOCK
    names = [f"{400 + j}.{j % 10}" for j in range(250)]
    yield {"train": outputs(300, 250), "test": outputs(40, 250)}, names
    no_positives = (rng.random((5, 3)), np.zeros((5, 3), dtype=np.uint8))
    one_row = (np.round(rng.random((1, 3)), 1), np.array([[1, 0, 1]], dtype=np.uint8))
    yield {"train": no_positives, "test": one_row}, ["a", "bb", "ccc"]


def _store_run(run_dir, cfg, outputs, names):
    """Write the stored inputs `harness._write_reports` scores, as
    `harness.run_pipeline` writes them."""
    from codeset_bench import corpus, features

    run_dir.mkdir()
    (run_dir / "config.txt").write_text(cfg.canonical_text(), encoding="utf-8")
    corpus.save_catalog(corpus.LabelCatalog("code", tuple((name, 1) for name in names)),
                        run_dir / "catalog.tsv")
    for tag, (probs, truth) in outputs.items():
        features.save_dense(probs, run_dir / f"probs_{tag}.dense")
        features.save_dense(truth, run_dir / f"truth_{tag}.dense")


def test_written_run_files_match_pinned_digest(tmp_path):
    from codeset_bench import harness

    cfg = harness.ExperimentConfig({"model.preset": "logreg"})
    h = hashlib.sha256()
    for i, (outputs, names) in enumerate(_run_file_cases()):
        run_dir = tmp_path / str(i)
        _store_run(run_dir, cfg, outputs, names)
        harness._write_reports(run_dir)
        for name in sorted(p.name for p in run_dir.iterdir()):
            if name.startswith(("metrics_", "pr_")):
                h.update(name.encode() + b"\n" + (run_dir / name).read_bytes())
    assert h.hexdigest() == RUN_FILES_DIGEST


# Digest of `summary.txt` and `harness.compare_runs`' CSV and aligned text
# over the `_run_file_cases` runs, taken at commit edc4126, before the two
# tables shared one formatter.
RESULTS_TABLES_DIGEST = "f3e5dfacac0be349054a96dde313a268e89840a25723bbabae899c6494c03df8"


def test_results_tables_match_pinned_digest(tmp_path):
    from codeset_bench import harness

    h = hashlib.sha256()
    run_dirs = []
    presets = ({"model.preset": "logreg"}, {"model.preset": "rforest"}, {"model.family": "logreg"})
    for i, ((outputs, names), preset) in enumerate(zip(_run_file_cases(), presets)):
        run_dir = tmp_path / f"run-{i}"
        _store_run(run_dir, harness.ExperimentConfig(preset), outputs, names)
        harness._write_reports(run_dir)
        (run_dir / "record.json").write_text(json.dumps({"dataset_hash": "d"}), encoding="utf-8")
        h.update((run_dir / "summary.txt").read_bytes())
        run_dirs.append(run_dir)
    for text in harness.compare_runs(run_dirs):
        h.update(text.encode())
    assert h.hexdigest() == RESULTS_TABLES_DIGEST


# ------------------------------------------------------- oracle agreement

def test_quick_oracle_agreement():
    worst = oracles.run_oracle_suite(n_pairs=60, n=32, q=8, seed=1, tol=1e-12)
    assert max(worst.values()) < 1e-12


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_oracle_suite_refuses_to_check_nothing(n_pairs):
    with pytest.raises(ConfigError, match="at least one run"):
        oracles.run_oracle_suite(n_pairs=n_pairs)


def test_oracle_catches_a_wrong_auc():
    # sanity that the oracle itself is discriminating
    scores = np.array([0.9, 0.1])
    truth = np.array([1, 0], dtype=np.uint8)
    assert oracles.oracle_label_auc(scores, truth) == 1.0
    assert oracles.oracle_label_auc(scores, 1 - truth) == 0.0


def test_oracle_auc_hand_value_with_ties_across_classes():
    # each positive 0.5 beats the 0.1 negative (1) and ties the 0.5 one (0.5)
    scores = np.array([0.5, 0.5, 0.5, 0.1])
    truth = U8([1, 0, 1, 0])
    assert oracles.oracle_label_auc(scores, truth) == (1 + 0.5) * 2 / 4 == 0.75
    assert oracles.oracle_macro_auc(scores[:, None], truth[:, None]) == (0.75, 0)


def pairwise_auc_reference(scores, truth):
    """Every (positive, negative) pair compared in a double loop."""
    pairs = list(zip(scores.tolist(), truth.tolist()))
    pos = [v for v, y in pairs if y]
    neg = [v for v, y in pairs if not y]
    if not pos or not neg:
        return None
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def prefix_rescan_ap_reference(scores, truth):
    """Rank by (-score, index), then re-count the hits of every prefix."""
    s = scores.tolist()
    t = [bool(y) for y in truth.tolist()]
    n_pos = sum(t)
    if n_pos == 0:
        return None
    hits = [t[i] for i in sorted(range(len(s)), key=lambda i: (-s[i], i))]
    ap = 0.0
    prev_r = 0.0
    for rank in range(1, len(hits) + 1):
        tp = sum(hits[:rank])
        r = tp / n_pos
        p = tp / rank
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def tie_heavy_columns():
    """Seeded (scores, truth) columns cycling through scores rounded to one
    decimal, fully tied scores, all-positive truth, all-negative truth and
    unrounded scores."""
    rng = np.random.default_rng(31)
    for i in range(2400):
        n = int(rng.integers(1, 60))
        scores = np.round(rng.random(n), 1)
        truth = (rng.random(n) < rng.random()).astype(np.uint8)
        kind = i % 5
        if kind == 1:
            scores = np.full(n, scores[0])
        elif kind == 2:
            truth[:] = 1
        elif kind == 3:
            truth[:] = 0
        elif kind == 4:
            scores = rng.random(n)
        yield scores, truth


def test_oracles_equal_the_literal_pair_and_prefix_loops():
    defined = 0
    for scores, truth in tie_heavy_columns():
        auc = oracles.oracle_label_auc(scores, truth)
        assert auc == pairwise_auc_reference(scores, truth)
        assert oracles.oracle_average_precision(scores, truth) == prefix_rescan_ap_reference(
            scores, truth
        )
        defined += auc is not None
    assert defined > 1000  # most columns hold both classes


def example_metrics_cell_reference(predicted, truth):
    """|P∩T|, |P|, |T| and |P∪T| counted cell by cell for each example,
    with 0 and a counted nan for every undefined value."""
    n, q = predicted.shape
    sums = [0.0, 0.0, 0.0, 0.0]
    nans = 0
    for i in range(n):
        inter = n_p = n_t = union = 0
        for j in range(q):
            a, b = bool(predicted[i, j]), bool(truth[i, j])
            inter += a and b
            n_p += a
            n_t += b
            union += a or b
        for slot, (num, den) in enumerate(
                ((inter, n_p), (inter, n_t), (2 * inter, n_p + n_t), (inter, union))):
            if den == 0:
                nans += 1
            else:
                sums[slot] += num / den
    return (*(total / n for total in sums), nans)


def hamming_cell_reference(predicted, truth):
    """Every cell compared in a double loop."""
    n, q = predicted.shape
    wrong = 0
    for i in range(n):
        for j in range(q):
            wrong += bool(predicted[i, j]) != bool(truth[i, j])
    return wrong / (n * q)


def precision_at_k_sort_reference(probs, truth, k):
    """Each row with a true label fully sorted by (-score, index)."""
    vals = []
    for s, t in zip(probs.tolist(), truth.tolist()):
        if not any(t):
            continue
        ranked = sorted(range(len(s)), key=lambda j: (-s[j], j))
        vals.append(sum(1 for j in ranked[:k] if t[j]) / k)
    return sum(vals) / len(vals) if vals else 0.0


def test_oracles_equal_the_literal_cell_and_sort_loops():
    # the digest runs hold empty truth and prediction rows, tied and
    # single-class columns, and 1 x 4 and 12 x 1 shapes
    for probs, predicted, truth in _digest_runs():
        assert oracles.oracle_example_metrics(predicted, truth) == \
            example_metrics_cell_reference(predicted, truth)
        assert oracles.oracle_hamming(predicted, truth) == hamming_cell_reference(predicted, truth)
        for k in (1, 3, 5):
            assert oracles.oracle_precision_at_k(probs, truth, k=k) == \
                precision_at_k_sort_reference(probs, truth, k)


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


def _nudged_scorer(which):
    """``metrics._score_columns`` with its AUCs (0) or APs (1) off by 1e-9."""
    real = metrics._score_columns

    def nudged(*args):
        scores = list(real(*args))
        scores[which] = [None if v is None else v + 1e-9 for v in scores[which]]
        return tuple(scores)

    return nudged


def test_oracle_suite_catches_ap_off_by_1e9(monkeypatch):
    monkeypatch.setattr(metrics, "_score_columns", _nudged_scorer(1))
    with pytest.raises(AssertionError, match="^ap deviates"):
        oracles.run_oracle_suite(n_pairs=5)


def test_oracle_suite_catches_auc_off_by_1e9(monkeypatch):
    monkeypatch.setattr(metrics, "_score_columns", _nudged_scorer(0))
    with pytest.raises(AssertionError, match="^auc deviates"):
        oracles.run_oracle_suite(n_pairs=5)


def test_oracle_suite_catches_nan_replacements_off_by_one(monkeypatch):
    real = metrics.report

    def miscounted(run):
        rep, curves = real(run)
        return replace(rep, nan_replacements=rep.nan_replacements + 1), curves

    monkeypatch.setattr(metrics, "report", miscounted)
    with pytest.raises(AssertionError, match="^nan audit mismatch"):
        oracles.run_oracle_suite(n_pairs=5)


def test_oracle_suite_catches_an_undefined_ap_reported_as_defined(monkeypatch):
    real = metrics._score_columns

    def defined_everywhere(*args):
        aucs, aps, curves = real(*args)
        return aucs, [0.0 if ap is None else ap for ap in aps], curves

    monkeypatch.setattr(metrics, "_score_columns", defined_everywhere)
    with pytest.raises(AssertionError, match="^ap definedness mismatch"):
        oracles.run_oracle_suite(n_pairs=200, n=4, q=3)


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


# Digests of what `run_oracle_suite` returns, `repr(sorted(worst.items()))`,
# taken at commit d0f445a before the oracles' loops and `report`'s small-run
# path were trimmed: at the bench's arguments and at a small tie-heavy shape.
SUITE_DIGESTS = {
    (1000, 64, 10, 0): "4379659a8051d237e945311a11476e357f96461b5f418cb976dcf3ba61967a80",
    (300, 9, 4, 4): "987f38b9fefccc06da08dc2368d446c09e6d3dcbd4e8d73bd43713f5d63b3988",
}


@pytest.mark.parametrize("args", sorted(SUITE_DIGESTS), ids=str)
def test_oracle_suite_deviations_match_pinned_digest(args):
    n_pairs, n, q, seed = args
    worst = oracles.run_oracle_suite(n_pairs=n_pairs, n=n, q=q, seed=seed)
    assert hashlib.sha256(repr(sorted(worst.items())).encode()).hexdigest() == SUITE_DIGESTS[args]


def _names_used(code) -> set[str]:
    """Global and attribute names a code object and its nested code use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= _names_used(const)
    return names


def test_oracles_share_no_code_with_metrics():
    functions = {name: f for name, f in vars(oracles).items()
                 if inspect.isfunction(f) and f.__module__ == oracles.__name__}
    assert {"oracle_example_metrics", "oracle_hamming", "oracle_label_auc", "oracle_macro_auc",
            "oracle_average_precision", "oracle_precision_at_k", "_row_sets",
            "_count_auc"} <= set(functions)
    assert "metrics" in _names_used(functions.pop("run_oracle_suite").__code__)
    for name, f in functions.items():
        assert "metrics" not in _names_used(f.__code__), name
    for node in ast.parse(inspect.getsource(oracles)).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            assert not any("metrics" in name for name in imported), ast.unparse(node)
    assert not any(value is metrics or getattr(value, "__module__", "") == metrics.__name__
                   for value in vars(oracles).values())
