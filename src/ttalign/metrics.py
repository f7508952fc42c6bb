"""Evaluation metrics, implemented from first principles.

Threshold metrics (balanced accuracy, Cohen's kappa, weighted F1) are defined on the
confusion matrix; ranking metrics (AUROC, average precision) on binary labels plus
real-valued scores. Ties in AUROC earn half credit; average precision steps through
distinct score thresholds in descending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

MULTICLASS_METRICS = ("balanced_accuracy", "cohens_kappa", "weighted_f1")
BINARY_METRICS = ("balanced_accuracy", "cohens_kappa", "weighted_f1", "auroc", "auc_pr")


def _as_labels(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.size == 0:
        raise ContractError("empty label vector")
    if yt.shape != yp.shape or yt.ndim != 1:
        raise ContractError(f"label vectors must be equal-length 1-D, got {yt.shape} vs {yp.shape}")
    return yt, yp


def confusion_matrix(y_true, y_pred, n_classes: int | None = None) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class."""
    yt, yp = _as_labels(y_true, y_pred)
    if n_classes is None:
        n_classes = int(max(yt.max(), yp.max())) + 1
    if yt.min() < 0 or yp.min() < 0 or yt.max() >= n_classes or yp.max() >= n_classes:
        raise ContractError("label outside [0, n_classes)")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (yt, yp), 1)
    return cm


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean per-class recall over the classes present in y_true."""
    cm = confusion_matrix(y_true, y_pred)
    support = cm.sum(axis=1)
    present = support > 0
    recall = cm.diagonal()[present] / support[present]
    return float(recall.mean())


def cohens_kappa(y_true, y_pred) -> float:
    """(p_o - p_e) / (1 - p_e); defined as 0 when chance agreement p_e is 1."""
    cm = confusion_matrix(y_true, y_pred).astype(np.float64)
    n = cm.sum()
    p_o = cm.trace() / n
    p_e = float((cm.sum(axis=1) * cm.sum(axis=0)).sum()) / (n * n)
    if p_e == 1.0:
        return 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def weighted_f1(y_true, y_pred) -> float:
    """Support-weighted mean of per-class F1; zero-denominator classes score 0."""
    cm = confusion_matrix(y_true, y_pred).astype(np.float64)
    tp = cm.diagonal()
    support = cm.sum(axis=1)
    predicted = cm.sum(axis=0)
    out = 0.0
    n = cm.sum()
    for c in range(cm.shape[0]):
        if support[c] == 0:
            continue
        prec = tp[c] / predicted[c] if predicted[c] > 0 else 0.0
        rec = tp[c] / support[c]
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        out += (support[c] / n) * f1
    return float(out)


def _check_binary(y_true, scores) -> tuple[np.ndarray, np.ndarray]:
    yt = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if yt.size == 0:
        raise ContractError("empty label vector")
    if yt.shape != s.shape or yt.ndim != 1:
        raise ContractError("labels and scores must be equal-length 1-D vectors")
    if set(np.unique(yt)) - {0, 1}:
        raise ContractError("ranking metrics need binary labels in {0, 1}")
    if yt.min() == yt.max():
        raise ContractError("ranking metrics need both classes present")
    return yt, s


def _tie_groups(sorted_scores: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) index of each run of equal values in a sorted score vector, in
    order; a NaN equals nothing, so each NaN is a run of its own."""
    firsts = [0, *(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1).tolist()]
    return list(zip(firsts, [f - 1 for f in firsts[1:]] + [sorted_scores.size - 1]))


def auroc(y_true, scores) -> float:
    """Mann-Whitney AUROC via one sorted sweep; tied scores earn half credit."""
    yt, s = _check_binary(y_true, scores)
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    for i, j in _tie_groups(s[order]):
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank of the tie group
    n_pos = int(yt.sum())
    n_neg = yt.size - n_pos
    u = ranks[yt == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_pr(y_true, scores) -> float:
    """Average precision: sum of (recall step) x (precision) over descending thresholds."""
    yt, s = _check_binary(y_true, scores)
    order = np.argsort(-s, kind="stable")
    y_sorted = yt[order]
    n_pos = int(yt.sum())
    ap = 0.0
    tp = fp = 0
    prev_recall = 0.0
    for i, j in _tie_groups(s[order]):
        pos = int(y_sorted[i: j + 1].sum())
        tp += pos
        fp += (j - i + 1) - pos
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return float(ap)


@dataclass
class EvalResult:
    """Metric values plus the confusion matrix and per-class support they came from."""

    n: int
    values: dict[str, float]
    confusion: np.ndarray
    support: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "values": {k: float(v) for k, v in self.values.items()},
            "confusion": self.confusion.tolist(),
            "support": list(self.support),
        }


def monitoring_metric(n_classes: int) -> str:
    """What fine-tuning tracks on validation: kappa for multiclass, AUROC for binary."""
    return "auroc" if n_classes == 2 else "cohens_kappa"


def evaluate_predictions(y_true, y_pred, n_classes: int, scores=None) -> EvalResult:
    """Compute the task-appropriate metric set.

    ``scores`` (probability of class 1) unlocks the ranking metrics and is required
    for binary tasks.
    """
    yt, yp = _as_labels(y_true, y_pred)
    cm = confusion_matrix(yt, yp, n_classes)
    values = {
        "balanced_accuracy": balanced_accuracy(yt, yp),
        "cohens_kappa": cohens_kappa(yt, yp),
        "weighted_f1": weighted_f1(yt, yp),
    }
    if n_classes == 2:
        if scores is None:
            raise ContractError("binary evaluation needs class-1 scores for the ranking metrics")
        values["auroc"] = auroc(yt, scores)
        values["auc_pr"] = auc_pr(yt, scores)
    return EvalResult(n=int(yt.size), values=values, confusion=cm, support=cm.sum(axis=1).tolist())
