"""Multi-label evaluation: example-based precision/recall/F1/accuracy,
hamming loss, macro ROC AUC, average precision with PR curves, and
precision@k.

Set-based metrics follow the per-example definitions (precision over the
predicted set, recall over the truth set) and average over examples.
Per-example values that are undefined (empty predicted set, empty truth,
single-class score column) are replaced by 0 or excluded, and every such
replacement is counted in an audit field rather than silently dropped.

A label column's AUC, AP and PR curve come from one stable descending
sort, the same code in ``report`` and the public per-column functions. A
split's PR curves are stored as one ``.npz`` of flat arrays.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError


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
    accuracy = |P&T|/|P|T|union. Undefined per-example values become 0
    and bump nan_replacements.
    """
    p = np.asarray(predicted).astype(bool)
    t = np.asarray(truth).astype(bool)
    if p.shape != t.shape:
        raise ShapeError(f"predicted {p.shape} vs truth {t.shape}")
    inter = (p & t).sum(axis=1).astype(np.float64)
    union = (p | t).sum(axis=1).astype(np.float64)
    n_p = p.sum(axis=1).astype(np.float64)
    n_t = t.sum(axis=1).astype(np.float64)

    nan_count = 0

    def _safe(num, den):
        nonlocal nan_count
        bad = den == 0
        nan_count += int(bad.sum())
        out = np.zeros_like(num)
        np.divide(num, den, out=out, where=~bad)
        return out

    precision = _safe(inter, n_p)
    recall = _safe(inter, n_t)
    f1 = _safe(2.0 * inter, n_p + n_t)
    accuracy = _safe(inter, union)
    return ExampleMetrics(
        precision=float(precision.mean()),
        recall=float(recall.mean()),
        f1=float(f1.mean()),
        accuracy=float(accuracy.mean()),
        nan_replacements=nan_count,
    )


def hamming_loss(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of label bits that disagree."""
    p = np.asarray(predicted).astype(bool)
    t = np.asarray(truth).astype(bool)
    if p.shape != t.shape:
        raise ShapeError(f"predicted {p.shape} vs truth {t.shape}")
    return float((p ^ t).mean())


def _doubled_ranks(key: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Twice the ascending 1-based average rank of positions ``at`` of the
    descending-sorted scores' negation ``key``: a tie group at descending
    positions a..b holds ranks n-b..n-a, doubled average 2n - a - b."""
    v = key[at]
    return 2 * key.size + 1 - key.searchsorted(v, "left") - key.searchsorted(v, "right")


@dataclass
class PRCurve:
    """Precision/recall pairs at each positive-introducing rank of one
    label's score ordering, with the score thresholds that produce them."""

    label: str
    recall: np.ndarray
    precision: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        if not (len(self.recall) == len(self.precision) == len(self.thresholds)):
            raise ShapeError("PR curve arrays must be parallel")


def _score_column(
    scores: np.ndarray, truth: np.ndarray, label: str = "label"
) -> tuple[float | None, float | None, PRCurve | None]:
    """``label_auc``, then ``average_precision``'s AP and curve, of one
    label column from one stable descending sort of its scores."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    if s.shape != t.shape or s.ndim != 1:
        raise ShapeError("label columns must be parallel 1-D arrays")
    key = -s
    order = key.argsort(kind="stable")
    key = key[order]
    hits = t[order].nonzero()[0]  # descending positions of the positives
    n_pos = hits.size
    if n_pos == 0:
        return None, None, None
    n_neg = s.size - n_pos
    auc = None
    if n_neg:
        # twice the Mann-Whitney U, exact in integers
        u2 = int(_doubled_ranks(key, hits).sum()) - n_pos * (n_pos + 1)
        auc = u2 / 2 / (n_pos * n_neg)
    tp = np.arange(1.0, n_pos + 1)
    recalls = tp / n_pos
    precisions = tp / (hits + 1)
    # cumsum adds the terms left to right, as a running total would
    ap = ((recalls - (tp - 1) / n_pos) * precisions).cumsum()[-1]
    return auc, float(ap), PRCurve(label, recalls, precisions, s[order[hits]])


def _mean_defined(values: list[float | None]) -> tuple[float, int]:
    """Mean of the defined values (0.0 when there are none) and how many
    were None."""
    defined = [v for v in values if v is not None]
    return (float(np.mean(defined)) if defined else 0.0), len(values) - len(defined)


def label_auc(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """ROC AUC for one label column via the rank (Mann-Whitney U)
    formulation; tied scores contribute half credit. None when the
    column is single-class."""
    return _score_column(scores, truth)[0]


def macro_auc(probs: np.ndarray, truth: np.ndarray) -> tuple[float, int]:
    """Unweighted mean of per-label AUC; single-class columns are
    excluded from the mean and counted in the second return value."""
    probs = np.asarray(probs, dtype=np.float64)
    t = np.asarray(truth)
    if probs.shape != t.shape:
        raise ShapeError(f"probs {probs.shape} vs truth {t.shape}")
    return _mean_defined([label_auc(probs[:, j], t[:, j]) for j in range(probs.shape[1])])


def average_precision(
    scores: np.ndarray, truth: np.ndarray, label: str = "label"
) -> tuple[float | None, PRCurve | None]:
    """Uninterpolated average precision: sum of (R_n - R_{n-1}) * P_n over
    descending-score ranks, which is the mean of the precisions at the
    ranks where each positive enters. Tied scores keep ascending index
    order. Returns (None, None) when the column has no positives."""
    _, ap, curve = _score_column(scores, truth, label)
    return ap, curve


def precision_at_k(probs: np.ndarray, truth: np.ndarray, k: int = 5) -> float:
    """Mean over examples of the fraction of the k highest-scored labels
    that are true; score ties prefer the smaller label index. Examples
    with an empty truth row are excluded from the mean."""
    probs = np.asarray(probs, dtype=np.float64)
    t = np.asarray(truth).astype(bool)
    if probs.shape != t.shape:
        raise ShapeError(f"probs {probs.shape} vs truth {t.shape}")
    if not 1 <= k <= probs.shape[1]:
        raise ConfigError(f"k={k} outside 1..{probs.shape[1]} (the label count)")
    keep = t.any(axis=1)
    if not keep.any():
        return 0.0
    top = np.argsort(-probs[keep], axis=1, kind="stable")[:, :k]
    vals = np.take_along_axis(t[keep], top, axis=1).sum(axis=1) / k
    return float(np.mean(vals))


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


def report(run: PredictionRun) -> tuple[MetricsReport, list[PRCurve]]:
    """Every metric over one run, plus per-label PR curves.

    Precision@5 is taken at min(5, q) so that runs with fewer than five
    labels still report a value.
    """
    ex = example_based_metrics(run.predicted, run.truth)
    ham = hamming_loss(run.predicted, run.truth)
    p_at = precision_at_k(run.probs, run.truth, k=min(5, run.q))
    columns = [
        _score_column(run.probs[:, j], run.truth[:, j], run.label_names[j])
        for j in range(run.q)
    ]
    auc, auc_excluded = _mean_defined([auc for auc, _, _ in columns])
    aps = [ap for _, ap, _ in columns]
    mean_ap, ap_excluded = _mean_defined(aps)
    curves = [curve for _, _, curve in columns if curve is not None]
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
    return rep, curves


PR_KEYS = ("label", "count", "threshold", "recall", "precision")


def write_pr_curves(curves: list[PRCurve], path: str | Path) -> None:
    """One uncompressed .npz: ``label`` (unicode, one per curve), ``count``
    (int64, points per curve) and ``threshold``, ``recall``, ``precision``
    (float64, every curve's points concatenated in label order)."""
    arrays = {"label": np.array([c.label for c in curves], dtype=str),
              "count": np.array([len(c.recall) for c in curves], dtype=np.int64)}
    for key, attr in zip(PR_KEYS[2:], ("thresholds", "recall", "precision")):
        arrays[key] = np.concatenate([np.empty(0)] + [getattr(c, attr) for c in curves])
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_pr_curves(path: str | Path) -> list[PRCurve]:
    """The curves ``write_pr_curves`` wrote; FormatError, naming the path,
    for a malformed file, a missing key, a wrong dtype or counts that do
    not add up to the point columns."""
    with open(path, "rb") as fh:
        try:
            with np.lib.npyio.NpzFile(fh, allow_pickle=False) as archive:
                arrays = {key: archive[key] for key in PR_KEYS}
        except (ValueError, EOFError, KeyError, zipfile.BadZipFile) as exc:
            raise FormatError(f"{path}: {exc}") from None
    label, count = arrays["label"], arrays["count"]
    points = [arrays[key] for key in PR_KEYS[2:]]
    n = points[0].size
    if (label.dtype.kind != "U" or label.ndim != 1 or count.dtype != np.int64
            or count.shape != label.shape or (count < 0).any() or count.sum() != n
            or any(a.dtype != np.float64 or a.shape != (n,) for a in points)):
        raise FormatError(f"{path}: want a 1-D unicode label, a non-negative int64 count per "
                          "label summing to the length of 1-D float64 point columns")
    thresholds, recalls, precisions = (np.split(a, np.cumsum(count)[:-1]) for a in points)
    return [PRCurve(str(name), r, p, thr)
            for name, thr, r, p in zip(label, thresholds, recalls, precisions)]
