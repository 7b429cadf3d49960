"""Ranking and classification metrics for single-label multiclass output.

AUROC is the Mann-Whitney statistic (Hanley & McNeil 1982) counted from the
sorted negatives (ties count one half), which equals exhaustive
positive-negative pair counting exactly. AUPR is step-wise average precision
with each score a threshold: tied scores share one precision, as they share
one half in AUROC, so neither metric depends on the order of the rows.
Macro averages skip zero-support classes instead of imputing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AllEmptyError,
    DegenerateLabelsError,
    EmptyDatasetError,
    EmptyInputError,
    NonFiniteError,
    NoPositivesError,
    ShapeMismatchError,
)

def _as_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeMismatchError("scores and labels must be equal-length 1-d arrays")
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("scores must be finite")
    return s, y


def midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank.

    Over the sorted scores, searchsorted counts the values below each score
    (left) and at or below it (right), the start and stop of its run of
    equal values; the run's rank is (start + 1 + stop) / 2, a half-integer
    exact in float64, as roc_auc counts U from the same two searches. Every
    member of a run gets the same rank. The package itself does not call
    it; the benchmark's trace wraps it by name, so it stays.
    """
    s = np.sort(scores)
    return (np.searchsorted(s, scores, "left") + np.searchsorted(s, scores, "right") + 1) / 2.0


def _sorted_negatives(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    neg = s[~y]
    neg.sort()
    return neg


def roc_auc(scores, labels, sorted_negatives: Optional[np.ndarray] = None) -> float:
    """Fraction of (positive, negative) pairs ranked concordantly, ties 0.5.

    For each positive, searchsorted over the sorted negatives counts the
    negatives below it (left) and at or below it (right); their sum over all
    positives is 2U, an exact integer. U = 2U / 2 is the same exact float as
    the midrank sum minus n_pos (n_pos + 1) / 2, so the result keeps the
    midrank formula's bits while every partial sum stays below 2**53.
    sorted_negatives, when given, must be the negatives' scores in ascending
    order; it saves sorting them again.
    """
    s, y = _as_scores_labels(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("need at least one positive and one negative")
    neg = _sorted_negatives(s, y) if sorted_negatives is None else sorted_negatives
    pos = np.sort(s[y])
    twice_u = int(np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum())
    return float((twice_u / 2.0) / (n_pos * n_neg))


def average_precision(scores, labels, sorted_negatives: Optional[np.ndarray] = None) -> float:
    """Mean over the positives of the precision at each one's score, as a threshold.

    Each positive counts the positives and the negatives scored at or above
    it, one searchsorted each, so tied scores share one threshold, as
    roc_auc's one-half rule treats them, and no row order can move the
    result, which is scikit-learn's average_precision_score up to float
    rounding. The precisions are summed from the highest positive down;
    where no positive's score ties another score, positive or negative, the
    r-th is r / (r + negatives above), the array of a stable ranking of the
    whole list, so the same bits. sorted_negatives is as in roc_auc.
    """
    s, y = _as_scores_labels(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise NoPositivesError("need at least one positive")
    neg = _sorted_negatives(s, y) if sorted_negatives is None else sorted_negatives
    pos = np.sort(s[y])
    # highest positive first: the positives, then all scores, at or above each one's score
    hits = n_pos - np.searchsorted(pos, pos[::-1], "left")
    ranked = hits + neg.size - np.searchsorted(neg, pos[::-1], "left")
    return float((hits / ranked).sum() / n_pos)


def class_weights(counts) -> np.ndarray:
    """Balanced weights total/(K_effective * count_k); empty classes get 0."""
    c = np.asarray(counts, dtype=np.int64)
    total = int(c.sum())
    if total <= 0:
        raise AllEmptyError("all class counts are zero")
    nonzero = c > 0
    k_eff = int(nonzero.sum())
    w = np.zeros(c.size, dtype=np.float64)
    w[nonzero] = total / (k_eff * c[nonzero])
    return w


@dataclass
class PerClassMetrics:
    class_id: int
    support: int
    auroc: Optional[float]
    aupr: Optional[float]


def _by_support(row: PerClassMetrics) -> tuple[int, int]:
    """Sort key of a per-class table: support descending, then class id."""
    return -row.support, row.class_id


@dataclass
class MultiClassReport:
    """Accuracy plus micro/macro aggregates and per-class ranking curves.

    For single-label multiclass over pooled one-vs-rest confusion counts,
    micro precision, recall, and F1 all equal accuracy; the fields are kept
    separate because the text report mirrors published table layouts. Every
    field but per_class is a scalar of the report, in report order.
    """

    accuracy: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    micro_auroc: float
    micro_aupr: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_auroc: float
    macro_aupr: float
    per_class: list[PerClassMetrics] = field(default_factory=list)

    def scalar_items(self) -> list[tuple[str, float]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "per_class"]


def mean_report(reports: Sequence[MultiClassReport],
                per_class: Optional[list[PerClassMetrics]] = None) -> MultiClassReport:
    """Field-wise mean of each scalar over every report; per-class rows are passed through."""
    if not reports:
        raise EmptyDatasetError("no reports to average")
    means = {name: float(np.mean([getattr(r, name) for r in reports]))
             for name, _ in reports[0].scalar_items()}
    return MultiClassReport(per_class=list(per_class or []), **means)


def _check_prob_matrix(prob_matrix, truths) -> tuple[np.ndarray, np.ndarray]:
    P = np.asarray(prob_matrix, dtype=np.float64)
    t = np.asarray(truths, dtype=np.int64)
    if P.ndim != 2:
        raise ShapeMismatchError("prob_matrix must be 2-d")
    if P.shape[0] == 0:
        raise EmptyInputError("no rows to score")
    if t.shape != (P.shape[0],):
        raise ShapeMismatchError("truths must align with prob_matrix rows")
    if t.min() < 0 or t.max() >= P.shape[1]:
        raise ShapeMismatchError("truth classes outside 0..K-1")
    if not np.all(np.isfinite(P)):
        raise NonFiniteError("prob_matrix has non-finite entries (did training diverge?)")
    return P, t


def _ranked(s: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """AUROC and average precision, ranked against negatives sorted once."""
    neg = _sorted_negatives(s, y)
    return roc_auc(s, y, sorted_negatives=neg), average_precision(s, y, sorted_negatives=neg)


def multiclass_report(prob_matrix, truths) -> MultiClassReport:
    """Score a probability matrix against integer truths.

    Predictions are per-row argmax (ties to the lowest index). Macro metrics
    average one-vs-rest values over classes with nonzero support; micro AUROC
    and AUPR pool all row-class (score, label) pairs; micro P/R/F1 pool
    confusion counts. Truths of one class (so every K < 2) are refused
    before any ranking; after that every supported class has negatives.
    """
    P, t = _check_prob_matrix(prob_matrix, truths)
    if t.min() == t.max():
        raise DegenerateLabelsError("no class has both positives and negatives")
    n_rows, n_classes = P.shape
    preds = np.argmax(P, axis=1)
    accuracy = float(np.mean(preds == t))
    # pooled one-vs-rest confusion counts collapse to the accuracy identity
    scalars = dict(accuracy=accuracy, micro_precision=accuracy, micro_recall=accuracy,
                   micro_f1=accuracy)

    # each row holds one positive and two classes are present, so the pooled labels have a negative
    onehot = np.zeros((n_rows, n_classes), dtype=bool)
    onehot[np.arange(n_rows), t] = True
    scalars["micro_auroc"], scalars["micro_aupr"] = _ranked(P.reshape(-1), onehot.reshape(-1))

    support = np.bincount(t, minlength=n_classes)
    predicted = np.bincount(preds, minlength=n_classes)
    hits = np.bincount(t[preds == t], minlength=n_classes)
    # a class never predicted has precision 0, and one with neither precision nor recall F1 0
    precision = np.divide(hits, predicted, out=np.zeros(n_classes), where=predicted > 0)
    recall = np.divide(hits, support, out=np.zeros(n_classes), where=support > 0)
    f1 = np.divide(2 * precision * recall, precision + recall, out=np.zeros(n_classes),
                   where=precision + recall > 0)
    per_class: list[PerClassMetrics] = []
    for k, n_k in enumerate(support.tolist()):
        # one contiguous copy of the column serves both rankings
        ranked = _ranked(np.ascontiguousarray(P[:, k]), t == k) if n_k else (None, None)
        per_class.append(PerClassMetrics(k, n_k, *ranked))
    supported = support > 0
    scalars.update(
        macro_precision=float(np.mean(precision[supported])),
        macro_recall=float(np.mean(recall[supported])),
        macro_f1=float(np.mean(f1[supported])),
        macro_auroc=float(np.mean([row.auroc for row in per_class if row.support])),
        macro_aupr=float(np.mean([row.aupr for row in per_class if row.support])),
    )

    return MultiClassReport(**scalars, per_class=per_class)
