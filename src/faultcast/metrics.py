"""Multi-label evaluation: per-label confusion counts and micro/macro
precision, recall, F1.

Micro metrics pool true/false positives and false negatives over all labels
before computing ratios; macro metrics average the per-label ratios. Any
ratio with a zero denominator is defined as 0 so every score is total, even
for empty prediction sets.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class CountTable:
    tp: np.ndarray  # (n_labels,) ints
    fp: np.ndarray
    fn: np.ndarray


@dataclass
class PrfReport:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def as_dict(self) -> dict:
        return asdict(self)


def _as_binary(name: str, x) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype != bool and not np.isin(x, (0, 1)).all():  # a bool array is binary by its type
        raise ValueError(f"{name} must be binary (0/1 entries)")
    return x.astype(bool, copy=False)


def confusion_counts(pred, truth) -> CountTable:
    """Per-label tp/fp/fn from (samples, labels) binary matrices, or from
    (..., samples, labels) stacks of them: counted over the sample axis,
    each count is (..., labels)."""
    pred = _as_binary("pred", pred)
    truth = _as_binary("truth", truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.ndim < 2:
        raise ValueError(f"need (..., samples, labels) arrays, got {pred.shape}")
    tp = np.logical_and(pred, truth).sum(axis=-2)
    fp = np.logical_and(pred, ~truth).sum(axis=-2)
    fn = np.logical_and(~pred, truth).sum(axis=-2)
    return CountTable(tp.astype(int), fp.astype(int), fn.astype(int))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _prf_triple(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    p = _ratio(tp, tp + fp)
    r = _ratio(tp, tp + fn)
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def prf(counts: CountTable) -> PrfReport:
    """Micro and macro precision/recall/F1 from one (labels,) count table;
    a stacked table's members are reported one at a time."""
    if np.ndim(counts.tp) != 1:
        raise ValueError(f"need (labels,) counts, got {np.shape(counts.tp)}")
    n_labels = len(counts.tp)
    per_label = [
        _prf_triple(int(counts.tp[l]), int(counts.fp[l]), int(counts.fn[l]))
        for l in range(n_labels)
    ]
    macro_p = sum(t[0] for t in per_label) / n_labels
    macro_r = sum(t[1] for t in per_label) / n_labels
    macro_f = sum(t[2] for t in per_label) / n_labels
    micro_p, micro_r, micro_f = _prf_triple(
        int(counts.tp.sum()), int(counts.fp.sum()), int(counts.fn.sum())
    )
    return PrfReport(micro_p, micro_r, micro_f, macro_p, macro_r, macro_f)


def segment_report(pred, truth) -> PrfReport:
    return prf(confusion_counts(pred, truth))


def stepwise_report(pred_steps, truth_steps) -> PrfReport:
    """Same metrics with each (sample, step) pair treated as one row.

    Accepts (horizon, labels) for one sample or (samples, horizon, labels).
    """
    pred_steps = np.asarray(pred_steps)
    truth_steps = np.asarray(truth_steps)
    if pred_steps.shape != truth_steps.shape:
        raise ValueError(
            f"shape mismatch: pred {pred_steps.shape} vs truth {truth_steps.shape}"
        )
    flat_pred = pred_steps.reshape(-1, pred_steps.shape[-1])
    flat_truth = truth_steps.reshape(-1, truth_steps.shape[-1])
    return prf(confusion_counts(flat_pred, flat_truth))

