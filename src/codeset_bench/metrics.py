"""Multi-label evaluation: example-based precision/recall/F1/accuracy,
hamming loss, macro ROC AUC, average precision with PR curves, and
precision@k.

Set-based metrics follow the per-example definitions (precision over the
predicted set, recall over the truth set) and average over examples.
Per-example values that are undefined (empty predicted set, empty truth,
single-class score column) are replaced by 0 or excluded, and every such
replacement is counted in an audit field rather than silently dropped.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError


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
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def q(self) -> int:
        return self.probs.shape[1]


def restrict_run(run: PredictionRun, m: int) -> PredictionRun:
    """The run truncated to its first m label columns (catalog order puts
    the most frequent labels first, so this is the usual "first m" view)."""
    if not 1 <= m <= run.q:
        raise ConfigError(f"cannot restrict {run.q} labels to first {m}")
    return PredictionRun(
        probs=run.probs[:, :m],
        predicted=run.predicted[:, :m],
        truth=run.truth[:, :m],
        label_names=run.label_names[:m],
    )


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


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    n = scores.size
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    bounds = np.flatnonzero(s[1:] != s[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [n])) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def label_auc(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """ROC AUC for one label column via the rank (Mann-Whitney U)
    formulation; tied scores contribute half credit. None when the
    column is single-class."""
    t = np.asarray(truth).astype(bool)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(t.sum())
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(s)
    u = ranks[t].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def macro_auc(probs: np.ndarray, truth: np.ndarray) -> tuple[float, int]:
    """Unweighted mean of per-label AUC; single-class columns are
    excluded from the mean and counted in the second return value."""
    probs = np.asarray(probs, dtype=np.float64)
    t = np.asarray(truth)
    if probs.shape != t.shape:
        raise ShapeError(f"probs {probs.shape} vs truth {t.shape}")
    aucs = []
    excluded = 0
    for j in range(probs.shape[1]):
        a = label_auc(probs[:, j], t[:, j])
        if a is None:
            excluded += 1
        else:
            aucs.append(a)
    return (float(np.mean(aucs)) if aucs else 0.0), excluded


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


def average_precision(
    scores: np.ndarray, truth: np.ndarray, label: str = "label"
) -> tuple[float | None, PRCurve | None]:
    """Uninterpolated average precision: sum of (R_n - R_{n-1}) * P_n over
    descending-score ranks, which is the mean of the precisions at the
    ranks where each positive enters. Tied scores keep ascending index
    order. Returns (None, None) when the column has no positives."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth).astype(bool)
    if s.shape != t.shape or s.ndim != 1:
        raise ShapeError("average_precision expects parallel 1-D columns")
    n_pos = int(t.sum())
    if n_pos == 0:
        return None, None
    order = np.argsort(-s, kind="stable")
    ranks = np.flatnonzero(t[order]) + 1
    tp = np.arange(1, n_pos + 1)
    recalls = tp / n_pos
    precisions = tp / ranks
    prev_recalls = np.concatenate(([0.0], recalls[:-1]))
    # cumsum adds the terms left to right, as a running total would
    ap = np.cumsum((recalls - prev_recalls) * precisions)[-1]
    curve = PRCurve(
        label=label,
        recall=recalls,
        precision=precisions,
        thresholds=s[order[ranks - 1]],
    )
    return float(ap), curve


def precision_at_k(probs: np.ndarray, truth: np.ndarray, k: int = 5) -> float:
    """Mean over examples of the fraction of the k highest-scored labels
    that are true; score ties prefer the smaller label index. Examples
    with an empty truth row are excluded from the mean."""
    probs = np.asarray(probs, dtype=np.float64)
    t = np.asarray(truth).astype(bool)
    if probs.shape != t.shape:
        raise ShapeError(f"probs {probs.shape} vs truth {t.shape}")
    if k > probs.shape[1]:
        raise ConfigError(f"k={k} exceeds label count {probs.shape[1]}")
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


def report(run: PredictionRun, at_k: int = 5) -> tuple[MetricsReport, list[PRCurve]]:
    """Every metric over one run, plus per-label PR curves.

    ``at_k`` is clamped to the label count so small desk runs still
    report a value.
    """
    ex = example_based_metrics(run.predicted, run.truth)
    ham = hamming_loss(run.predicted, run.truth)
    auc, auc_excluded = macro_auc(run.probs, run.truth)
    k = min(at_k, run.q)
    p_at = precision_at_k(run.probs, run.truth, k=k)

    aps: list[float | None] = []
    curves: list[PRCurve] = []
    ap_excluded = 0
    for j in range(run.q):
        ap, curve = average_precision(
            run.probs[:, j], run.truth[:, j], label=run.label_names[j]
        )
        aps.append(ap)
        if ap is None:
            ap_excluded += 1
        else:
            curves.append(curve)
    defined = [a for a in aps if a is not None]
    rep = MetricsReport(
        precision=ex.precision,
        recall=ex.recall,
        f1=ex.f1,
        accuracy=ex.accuracy,
        hamming_loss=ham,
        macro_auc=auc,
        precision_at_5=p_at,
        ap_per_label=aps,
        mean_ap=float(np.mean(defined)) if defined else 0.0,
        nan_replacements=ex.nan_replacements + auc_excluded + ap_excluded,
    )
    return rep, curves


def write_pr_curves(curves: list[PRCurve], path: str | Path) -> None:
    """CSV with one row per curve point: label, threshold, recall,
    precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,threshold,recall,precision\n")
        for curve in curves:
            for thr, r, p in zip(curve.thresholds.tolist(), curve.recall.tolist(),
                                  curve.precision.tolist()):
                fh.write(f"{curve.label},{thr!r},{r!r},{p!r}\n")
