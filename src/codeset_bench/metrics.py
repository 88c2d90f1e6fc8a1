"""Multi-label evaluation: example-based precision/recall/F1/accuracy,
hamming loss, macro ROC AUC, average precision with PR curves, and
precision@k.

Set-based metrics follow the per-example definitions (precision over the
predicted set, recall over the truth set) and average over examples.
Per-example values that are undefined (empty predicted set, empty truth,
single-class score column) are replaced by 0 or excluded, and every such
replacement is counted in an audit field rather than silently dropped.

Every label column's AUC, AP and PR curve come from one scorer that sorts
a block of columns at once, each by descending score with tied scores in
ascending index order; ``report``, ``macro_auc`` and ``average_precision``
all call it. A split's PR curves are flat arrays, stored as they are in
one ``.npz`` by ``write_pr_curves``; ``np.load`` reads them back.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


@dataclass
class PredictionRun:
    """Aligned score/decision/truth matrices for one evaluation."""

    probs: np.ndarray  # [n, q] reals
    predicted: np.ndarray  # [n, q] bits
    truth: np.ndarray  # [n, q] bits
    label_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.predicted = np.asarray(self.predicted)
        self.truth = np.asarray(self.truth)
        if not (self.probs.shape == self.predicted.shape == self.truth.shape):
            raise ShapeError(
                f"inconsistent run shapes {self.probs.shape}, "
                f"{self.predicted.shape}, {self.truth.shape}"
            )
        if self.probs.ndim != 2:
            raise ShapeError("run matrices must be 2-dimensional")
        if not self.label_names:
            self.label_names = [f"label{j}" for j in range(self.probs.shape[1])]
        elif len(self.label_names) != self.q:
            raise ShapeError(f"{len(self.label_names)} label names for {self.q} label columns")

    @property
    def q(self) -> int:
        return self.probs.shape[1]


@dataclass
class ExampleMetrics:
    precision: float
    recall: float
    f1: float
    accuracy: float
    nan_replacements: int


def example_based_metrics(predicted: np.ndarray, truth: np.ndarray) -> ExampleMetrics:
    """Per-example set metrics averaged over examples.

    precision = |P&T|/|P|, recall = |P&T|/|T|, f1 = 2|P&T|/(|P|+|T|),
    accuracy = |P&T|/|P|T|union, with |P|T|union = |P|+|T|-|P&T|. The four
    numerators and denominators stack into two ``[4, n]`` arrays, divided
    once; each row's sum over n is its mean, as ``np.mean`` of the row
    would give. Undefined per-example values become 0 and bump
    nan_replacements.
    """
    p = np.asarray(predicted).astype(bool)
    t = np.asarray(truth).astype(bool)
    if p.shape != t.shape:
        raise ShapeError(f"predicted {p.shape} vs truth {t.shape}")
    inter = np.count_nonzero(p & t, axis=1)
    n_p = np.count_nonzero(p, axis=1)
    n_t = np.count_nonzero(t, axis=1)
    num = np.array([inter, inter, 2 * inter, inter], dtype=np.float64)
    den = np.array([n_p, n_t, n_p + n_t, n_p + n_t - inter], dtype=np.float64)
    bad = den == 0
    per_example = np.divide(num, den, out=np.zeros_like(num), where=~bad)
    precision, recall, f1, accuracy = (per_example.sum(axis=1) / p.shape[0]).tolist()
    return ExampleMetrics(precision, recall, f1, accuracy, int(np.count_nonzero(bad)))


def hamming_loss(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of label bits that disagree."""
    p = np.asarray(predicted).astype(bool)
    t = np.asarray(truth).astype(bool)
    if p.shape != t.shape:
        raise ShapeError(f"predicted {p.shape} vs truth {t.shape}")
    return float((p ^ t).mean())


def _check_finite(scores: np.ndarray) -> None:
    """NumericError if any score is NaN or infinite: those have no place
    in a ranking."""
    bad = int((~np.isfinite(scores)).sum())
    if bad:
        raise NumericError(f"{bad} of {scores.size} scores are NaN or infinite")


# scores sorted at once (rows x label columns), which bounds the scorer's
# temporaries whatever the run's size; a second 12000 x 50 report in one
# process peaked 0.7 MiB higher in RSS at 2**16, and no higher at 2**14
SCORE_BLOCK = 1 << 14


def _score_block(probs: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_score_columns`` of an ``[n, b]`` block of finite scores, with NaN
    for undefined values and the positives per column as counts."""
    n, b = probs.shape
    keys = np.negative(probs.T, order="C")  # a row per label; ascending key, descending score
    flat = (keys.argsort(axis=1) + np.arange(b)[:, None] * n).ravel()
    keys = keys.ravel()
    key = keys[flat]  # each column's keys ascending
    # a tie group starts at each column start and at each new key; the
    # sentinel start at the end closes the last one
    new = np.empty(key.size + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:-1])
    new[np.arange(b + 1) * n] = True
    if not new.all():
        # the sort left ties in any order; group ids rise down the block, so
        # one sort of id * size + index puts each group in ascending index
        # order, as a stable sort would, and the gather keeps each signed zero
        ids = new[:-1].cumsum() * key.size
        flat = np.sort(ids + flat) - ids
        key = keys[flat]
    hits = np.flatnonzero(truth.T.ravel()[flat])  # the positives, column by column
    first = hits.searchsorted(np.arange(b + 1) * n)  # each column's first hit
    n_pos = np.diff(first)
    rows = np.repeat(np.arange(b), n_pos)
    tp = np.arange(1, hits.size + 1) - first[rows]  # true positives down to each hit
    base = rows * n
    # each hit's tie group spans flat positions lo..hi-1: the hit alone
    # unless a tie joins it to its neighbours
    lo, hi = hits, hits + 1
    if not (new[hits] & new[hits + 1]).all():
        starts = np.flatnonzero(new)
        after = starts.searchsorted(hits, "right")
        lo, hi = starts[after - 1], starts[after]
    # a tie group at descending positions i..j of its column holds ascending
    # ranks n-j..n-i, twice their mean 2n - i - j; summed over the hits, less
    # n_pos * (n_pos + 1), that is twice Mann-Whitney U, exact in integers
    doubled = 2 * (n + base) + 1 - lo - hi
    sums = np.concatenate(([0], doubled.cumsum()))
    u2 = sums[first[1:]] - sums[first[:-1]] - n_pos * (n_pos + 1)
    pairs = n_pos * (n - n_pos)
    auc = np.divide(u2 / 2, pairs, out=np.full(b, np.nan), where=pairs > 0)
    per_hit = n_pos[rows]
    recall = tp / per_hit
    precision = tp / (hits - base + 1)
    # each column's terms left to right after a 0.0 and before zero
    # padding, so the cumsum adds them as a running total would
    grid = np.zeros((b, n_pos.max(initial=0) + 1))
    grid[rows, tp] = (recall - (tp - 1) / per_hit) * precision
    ap = grid.cumsum(axis=1)[:, -1]
    ap[n_pos == 0] = np.nan
    return auc, ap, n_pos, -key[hits], recall, precision


def _score_columns(
    probs: np.ndarray, truth: np.ndarray
) -> tuple[list[float | None], list[float | None], dict[str, np.ndarray]]:
    """Per-label AUC (None if single-class) and AP (None without
    positives), and the flat ``count``, ``threshold``, ``recall`` and
    ``precision`` curve arrays of the labels with positives, in label order.

    A descending sort ranks each column. When a block holds tied scores,
    one integer sort of (tie group, index) puts each group's members in
    ascending index order, as a stable sort would, whichever order the
    first sort left them in. AUC is the rank form of Mann-Whitney U (ties
    score half); AP sums (R_n - R_{n-1}) * P_n over the ranks where a
    positive enters, each such rank giving a curve point with its score as
    threshold."""
    probs = np.asarray(probs, dtype=np.float64)
    truth = np.asarray(truth)
    if probs.shape != truth.shape or probs.ndim != 2:
        raise ShapeError(f"probs {probs.shape} vs truth {truth.shape}")
    _check_finite(probs)
    n, q = probs.shape
    width = max(1, SCORE_BLOCK // max(n, 1))
    auc, ap, n_pos, *points = map(np.concatenate, zip(*(
        _score_block(probs[:, j:j + width], truth[:, j:j + width]) for j in range(0, q, width))))
    curves = dict(zip(PR_KEYS[1:], [n_pos[n_pos > 0], *points]))
    return _defined(auc), _defined(ap), curves


def _defined(values: np.ndarray) -> list[float | None]:
    """The values as floats, None where NaN marks them undefined."""
    return [None if math.isnan(v) else v for v in values.tolist()]


def _mean_defined(values: list[float | None]) -> tuple[float, int]:
    """Mean of the defined values (0.0 when there are none) and how many
    were None."""
    defined = [v for v in values if v is not None]
    mean = float(np.add.reduce(defined) / len(defined)) if defined else 0.0
    return mean, len(values) - len(defined)


def macro_auc(probs: np.ndarray, truth: np.ndarray) -> tuple[float, int]:
    """Unweighted mean of per-label ROC AUC; single-class columns are
    excluded from the mean and counted in the second return value."""
    return _mean_defined(_score_columns(probs, truth)[0])


def average_precision(probs: np.ndarray, truth: np.ndarray) -> list[float | None]:
    """Uninterpolated average precision of each label column, the mean of
    the precisions at the ranks where its positives enter; None for a
    column without positives."""
    return _score_columns(probs, truth)[1]


def precision_at_k(probs: np.ndarray, truth: np.ndarray, k: int = 5) -> float:
    """Mean over examples of the fraction of the k highest-scored labels
    that are true; score ties prefer the smaller label index. Examples
    with an empty truth row are excluded from the mean."""
    probs = np.asarray(probs, dtype=np.float64)
    _check_finite(probs)
    t = np.asarray(truth).astype(bool)
    if probs.shape != t.shape:
        raise ShapeError(f"probs {probs.shape} vs truth {t.shape}")
    if not 1 <= k <= probs.shape[1]:
        raise ConfigError(f"k={k} outside 1..{probs.shape[1]} (the label count)")
    kept = np.flatnonzero(t.any(axis=1))
    if not kept.size:
        return 0.0
    # k passes of argmax, which returns the first maximum, over one copy of
    # the kept rows, each pass setting its picks to -inf; a pick is a flat
    # index into that copy and into the row-major truth
    q = probs.shape[1]
    flat = probs[kept].ravel()
    scores = flat.reshape(kept.size, q)  # a view: flat is contiguous
    row_starts = np.arange(0, flat.size, q)
    truth_starts = kept * q
    t = t.ravel()
    hits = np.zeros(kept.size, dtype=np.int64)
    for _ in range(k):
        top = scores.argmax(axis=1)
        hits += t[truth_starts + top]
        flat[row_starts + top] = -np.inf
    return float(np.add.reduce(hits / k) / kept.size)


@dataclass
class MetricsReport:
    precision: float
    recall: float
    f1: float
    accuracy: float
    hamming_loss: float
    macro_auc: float
    precision_at_5: float
    ap_per_label: list[float | None]
    mean_ap: float
    nan_replacements: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def report(run: PredictionRun) -> tuple[MetricsReport, dict[str, np.ndarray]]:
    """Every metric over one run, plus its PR curves as the flat arrays
    ``write_pr_curves`` stores, one curve per label with positives.

    Precision@5 is taken at min(5, q) so that runs with fewer than five
    labels still report a value. A NaN or infinite score raises
    NumericError.
    """
    ex = example_based_metrics(run.predicted, run.truth)
    ham = hamming_loss(run.predicted, run.truth)
    p_at = precision_at_k(run.probs, run.truth, k=min(5, run.q))
    aucs, aps, points = _score_columns(run.probs, run.truth)
    auc, auc_excluded = _mean_defined(aucs)
    mean_ap, ap_excluded = _mean_defined(aps)
    labels = [name for name, ap in zip(run.label_names, aps) if ap is not None]
    rep = MetricsReport(
        precision=ex.precision,
        recall=ex.recall,
        f1=ex.f1,
        accuracy=ex.accuracy,
        hamming_loss=ham,
        macro_auc=auc,
        precision_at_5=p_at,
        ap_per_label=aps,
        mean_ap=mean_ap,
        nan_replacements=ex.nan_replacements + auc_excluded + ap_excluded,
    )
    return rep, {"label": np.array(labels, dtype=str), **points}


PR_KEYS = ("label", "count", "threshold", "recall", "precision")


def write_pr_curves(curves: dict[str, np.ndarray], path: str | Path) -> None:
    """One uncompressed .npz of the ``PR_KEYS`` arrays: ``label`` (unicode,
    one per curve), ``count`` (int64, points per curve) and ``threshold``,
    ``recall``, ``precision`` (float64, every curve's points concatenated
    in label order)."""
    with open(path, "wb") as fh:
        np.savez(fh, **{key: curves[key] for key in PR_KEYS})

