"""Brute-force reference implementations of every evaluation metric.

Deliberately plain: explicit Python sets, whose union has |P| + |T| -
|P&T| members; hamming as a count of disagreeing cells; AUC as a count of
ordered (positive, negative) pairs; AP as a running count of true
positives down the ranking, summed over the ranks where a positive
enters. The counts are exact integers (or halves), so they give the
values a loop over every cell or pair or a re-count of every prefix
would. These share no code with the metrics module so that agreement
between the two is evidence, not tautology. Used by the test suite and
the `oracle` CLI subcommand.

Each oracle converts its inputs to Python lists once, with `.tolist()`,
and then loops over plain floats and ints. The conversion is exact
(float64 becomes a Python float bit for bit, label bits become ints or
bools), so the values are the ones a loop over numpy scalars would give;
it only avoids boxing a numpy scalar at every element access. The one
exception is `oracle_label_auc`, which loops over whatever column it is
given: `oracle_macro_auc` passes it the per-column lists it converts once
per matrix. The loops run as builtins (`compress`, `map`, `sum`) where
those do the same arithmetic in the same order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count, repeat
from operator import ne, not_

import numpy as np

from .errors import ConfigError


def _row_sets(matrix) -> list[set[int]]:
    """Each row's set of label indices with a true bit."""
    matrix = np.asarray(matrix)
    labels = range(matrix.shape[1])
    return [set(compress(labels, row)) for row in matrix.tolist()]


def oracle_example_metrics(predicted, truth) -> tuple[float, float, float, float, int]:
    """(precision, recall, f1, accuracy, nan_replacements) by direct set
    arithmetic per example; the union size is |P| + |T| - |P&T|."""
    ps, ts = _row_sets(predicted), _row_sets(truth)
    n = len(ps)
    prec = rec = f1 = acc = 0.0
    nans = 0
    for p, t in zip(ps, ts):
        inter, n_p, n_t = len(p & t), len(p), len(t)
        if n_p:
            prec += inter / n_p
        else:
            nans += 1
        if n_t:
            rec += inter / n_t
        else:
            nans += 1
        if n_p + n_t:
            f1 += 2 * inter / (n_p + n_t)
            acc += inter / (n_p + n_t - inter)
        else:
            nans += 2  # f1 and accuracy: both sets, and so their union, are empty
    return prec / n, rec / n, f1 / n, acc / n, nans


def oracle_hamming(predicted, truth) -> float:
    """The cells whose bits disagree, counted over both matrices flattened
    to Python bools, over the cell count."""
    p = np.asarray(predicted).astype(bool)
    wrong = sum(map(ne, p.ravel().tolist(), np.asarray(truth).astype(bool).ravel().tolist()))
    return wrong / p.size


def oracle_label_auc(scores, truth) -> float | None:
    """One label column's AUC by pairwise comparison count, or None when
    the column holds one class: each (positive, negative) pair scores 1
    when the positive outranks the negative, 0.5 on a tie. Each positive
    bisects the sorted negatives for the lower and the tied ones. The
    bisection points are integers, summed exactly and halved once, so for
    scores without NaN the total is exactly the one a double loop over all
    pairs adds up. ``scores`` and ``truth`` are any sequences of numbers
    and of bits; a numpy column yields scalars that compare as the Python
    numbers ``.tolist()`` would give."""
    pos = list(compress(scores, truth))
    neg = sorted(compress(scores, map(not_, truth)))
    if not pos or not neg:
        return None
    # each positive wins over the negatives below it and half of the tied
    # ones: (left + right) / 2 with the two bisection points
    wins = (sum(map(bisect_left, repeat(neg), pos))
            + sum(map(bisect_right, repeat(neg), pos))) / 2
    return wins / (len(pos) * len(neg))


def oracle_macro_auc(probs, truth) -> tuple[float, int]:
    cols = np.asarray(probs, dtype=float).T.tolist()
    t_cols = np.asarray(truth).astype(bool).T.tolist()
    aucs = []
    excluded = 0
    for s, t in zip(cols, t_cols):
        a = oracle_label_auc(s, t)
        if a is None:
            excluded += 1
        else:
            aucs.append(a)
    return (sum(aucs) / len(aucs) if aucs else 0.0), excluded


def oracle_average_precision(scores, truth) -> float | None:
    """AP by walking the descending-score ranking (ties in ascending index
    order) and adding (R_n - R_{n-1}) * P_n at each rank n where a
    positive enters. At every other rank R_n = R_{n-1}, so the term there
    is an exact 0.0 and adding it would leave the sum as it is. Each
    prefix's true positives are a running integer count, so R_n and P_n are
    the quotients a re-count would give."""
    s = np.asarray(scores, dtype=float).tolist()
    t = np.asarray(truth).astype(bool).tolist()
    n_pos = sum(t)
    if n_pos == 0:
        return None
    # a stable sort keeps tied scores in ascending index order under reverse
    order = sorted(range(len(s)), key=s.__getitem__, reverse=True)
    ap = 0.0
    prev_r = 0.0
    for tp, rank in enumerate(compress(count(1), map(t.__getitem__, order)), start=1):
        r = tp / n_pos
        ap += (r - prev_r) * (tp / rank)
        prev_r = r
    return ap


def oracle_precision_at_k(probs, truth, k: int = 5) -> float:
    """Mean over the rows with a true label of the true labels among the
    row's k highest scores (ties in ascending index order), over k."""
    t = np.asarray(truth).astype(bool).tolist()
    vals = []
    for row, t_row in zip(np.asarray(probs, dtype=float).tolist(), t):
        if not any(t_row):
            continue
        ranked = sorted(range(len(row)), key=row.__getitem__, reverse=True)
        vals.append(sum(map(t_row.__getitem__, ranked[:k])) / k)
    return sum(vals) / len(vals) if vals else 0.0


def random_run(rng: np.random.Generator, n: int, q: int):
    """One random (probs, predicted, truth) triple; some probability
    mass is quantized so tie handling gets exercised."""
    probs = rng.random((n, q))
    if rng.random() < 0.5:
        probs = np.round(probs, 1)  # force ties
    predicted = (rng.random((n, q)) < 0.4).astype(np.uint8)
    truth = (rng.random((n, q)) < 0.35).astype(np.uint8)
    # dataset invariant: at least one truth bit per row
    for i in np.flatnonzero(~truth.any(axis=1)):
        truth[i, int(rng.integers(q))] = 1
    return probs, predicted, truth


def run_oracle_suite(n_pairs: int = 1000, n: int = 64, q: int = 10, seed: int = 0,
                     tol: float = 1e-12) -> dict[str, float]:
    """Check ``metrics.report``, the function whose output a run stores,
    against every oracle on seeded random runs; returns max absolute
    deviations per metric, raising AssertionError past tolerance or on a
    mismatched count of undefined values, and ConfigError for
    ``n_pairs < 1``, which would check nothing."""
    from . import metrics

    if n_pairs < 1:
        raise ConfigError(f"n_pairs={n_pairs}: the suite needs at least one run")
    rng = np.random.default_rng(seed)
    k = min(5, q)  # p@5 clamped to the label count, as metrics.report does
    worst: dict[str, float] = {
        "precision": 0.0, "recall": 0.0, "f1": 0.0, "accuracy": 0.0,
        "hamming": 0.0, "auc": 0.0, "ap": 0.0, "p_at_5": 0.0,
    }
    for _ in range(n_pairs):
        probs, predicted, truth = random_run(rng, n, q)
        rep, _ = metrics.report(metrics.PredictionRun(probs, predicted, truth))
        op, orc, of1, oac, onan = oracle_example_metrics(predicted, truth)
        oauc, oexc = oracle_macro_auc(probs, truth)
        oaps = [oracle_average_precision(probs[:, j], truth[:, j]) for j in range(q)]
        defined = [ap for ap in oaps if ap is not None]
        if [ap is None for ap in rep.ap_per_label] != [ap is None for ap in oaps]:
            raise AssertionError("ap definedness mismatch")
        if rep.nan_replacements != onan + oexc + q - len(defined):
            raise AssertionError("nan audit mismatch")
        oracle_mean_ap = sum(defined) / len(defined) if defined else 0.0
        deviations = {
            "precision": abs(rep.precision - op),
            "recall": abs(rep.recall - orc),
            "f1": abs(rep.f1 - of1),
            "accuracy": abs(rep.accuracy - oac),
            "hamming": abs(rep.hamming_loss - oracle_hamming(predicted, truth)),
            "auc": abs(rep.macro_auc - oauc),
            "ap": max([abs(rep.mean_ap - oracle_mean_ap)] + [
                abs(ap - oap) for ap, oap in zip(rep.ap_per_label, oaps) if ap is not None]),
            "p_at_5": abs(rep.precision_at_5 - oracle_precision_at_k(probs, truth, k=k)),
        }
        for name, dev in deviations.items():
            worst[name] = max(worst[name], dev)
    for name, dev in worst.items():
        if dev > tol:
            raise AssertionError(f"{name} deviates from oracle by {dev} > {tol}")
    return worst
