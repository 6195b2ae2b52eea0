"""Turning embeddings and stepwise scores into binary label decisions.

Classification is per label and independent: label l is decided from the
scalar in dimension l alone. Three rules are provided:

  threshold_zero  decide 1 where the score is > 0 (the embedding is trained
                  so zero separates presence from absence)
  svm             per-label 1-D soft-margin SVM fit by seeded stochastic
                  subgradient descent on the hinge loss
  nearest_mean    per-label nearest of the two class means

Ties and exact boundary hits decide negative, the conservative choice for
alarm-style labels. Labels whose training data has only one class fall back
to the threshold rule and are flagged in the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import JsonField
from .num import make_rng

KINDS = ("svm", "threshold_zero", "nearest_mean")
# the arrays each kind's decision rule reads, besides the optional fallback
_KIND_ARRAYS = {"svm": ("weight", "bias"), "threshold_zero": (),
                "nearest_mean": ("pos_mean", "neg_mean")}

SVM_ITERATIONS = 10_000
SVM_REG = 1e-2
# iterations whose samples fit_svm_blocks gathers at a time: all 10,000 at
# once would hold three (10,000, total labels) arrays, 17 MB at 72 labels
SVM_CHUNK = 1_000


@dataclass
class LabelClassifier:
    kind: str
    weight: np.ndarray | None = None     # (n_labels,) svm slope
    bias: np.ndarray | None = None       # (n_labels,) svm intercept
    pos_mean: np.ndarray | None = None   # (n_labels,) nearest_mean
    neg_mean: np.ndarray | None = None
    fallback: np.ndarray = field(default=None)  # bool (n_labels,)


def _score_matrices(scores, labels):
    """Float (samples, labels) score and target matrices of one shape, the
    positive count of each label and the labels that fall back."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValueError(f"need a non-empty (samples, labels) matrix, got {scores.shape}")
    if scores.shape != labels.shape:
        raise ValueError(f"shape mismatch: scores {scores.shape} vs labels {labels.shape}")
    pos_count = (labels > 0).sum(axis=0)
    fallback = (pos_count == 0) | (pos_count == scores.shape[0])
    return scores, labels, pos_count, fallback


def fit_classifier(
    kind: str,
    scores: np.ndarray,
    labels: np.ndarray,
    seed: int = 0,
    iterations: int = SVM_ITERATIONS,
    reg: float = SVM_REG,
) -> LabelClassifier:
    """Fit per-label decision rules on (samples, labels) score/target matrices.

    For svm and nearest_mean, a label needs at least one positive and one
    negative training example; otherwise that label falls back to
    threshold_zero and is recorded in `fallback`.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    if kind == "svm":
        return fit_svm_blocks([(scores, labels)], seed, iterations, reg)[0]
    scores, labels, _, fallback = _score_matrices(scores, labels)
    n_labels = scores.shape[1]
    if kind == "threshold_zero":
        return LabelClassifier("threshold_zero", fallback=np.zeros(n_labels, dtype=bool))

    pos_mean = np.zeros(n_labels)
    neg_mean = np.zeros(n_labels)
    for l in range(n_labels):
        if fallback[l]:
            continue
        mask = labels[:, l] > 0
        pos_mean[l] = scores[mask, l].mean()
        neg_mean[l] = scores[~mask, l].mean()
    return LabelClassifier("nearest_mean", pos_mean=pos_mean, neg_mean=neg_mean, fallback=fallback)


def fit_svm_blocks(
    blocks,
    seed: int = 0,
    iterations: int = SVM_ITERATIONS,
    reg: float = SVM_REG,
) -> list[LabelClassifier]:
    """Fit one svm per (scores, labels) block in a single Pegasos loop.

    Block k draws its own index stream, make_rng(seed).integers(0, n_k,
    iterations), exactly as a lone fit does. Every label's update depends
    on that label alone, so the blocks' gathered rows sit side by side,
    SVM_CHUNK iterations at a time, one update runs over all their labels,
    and each result equals fit_classifier("svm", scores_k, labels_k, seed)
    bit for bit.
    """
    # Pegasos-style updates (Shalev-Shwartz et al. 2007), one seeded sample
    # index per iteration, shared across a block's labels. Positive hinge
    # terms carry weight sqrt(n_neg / n_pos): enough lift that a rare
    # label's boundary is not dragged toward all-negative, without the
    # precision collapse a fully balanced weighting causes at strong
    # imbalance.
    if not blocks:
        return []
    fits = [_score_matrices(scores, labels) for scores, labels in blocks]
    streams, lifts = [], []
    for scores, labels, pos_count, fallback in fits:
        n = scores.shape[0]
        # a fallback label's lift is never used, and it may divide 0 by 0
        with np.errstate(divide="ignore", invalid="ignore"):
            lifts.append(np.where(fallback, 1.0, np.sqrt((n - pos_count) / pos_count)))
        streams.append((scores, labels > 0, make_rng(seed).integers(0, n, size=iterations)))
    lift = np.concatenate(lifts)
    eta = 1.0 / (reg * np.arange(1, iterations + 1, dtype=np.float64))
    decay = 1.0 - eta * reg
    w = np.zeros(len(lift))
    b = np.zeros(len(lift))
    for first in range(0, iterations, SVM_CHUNK):
        rows = slice(first, first + SVM_CHUNK)
        # row t: the sample x_t, its target sign y_t and its hinge step
        # eta_t * balance * y_t, which rounds as the lone fit's does because
        # y_t is +-1
        x = np.concatenate([scores[idx[rows]] for scores, _, idx in streams], axis=1)
        positive = np.concatenate([pos[idx[rows]] for _, pos, idx in streams], axis=1)
        sign = np.where(positive, 1.0, -1.0)
        step = np.where(positive, lift, 1.0)
        step *= eta[rows, None]
        step *= sign
        for t, x_t in enumerate(x):
            push = np.where(sign[t] * (w * x_t + b) < 1.0, step[t], 0.0)
            w *= decay[first + t]
            w += push * x_t
            b += push
    splits = np.cumsum([scores.shape[1] for scores, *_ in fits])[:-1]
    return [
        LabelClassifier("svm", weight=w_k, bias=b_k, fallback=fallback)
        for w_k, b_k, (*_, fallback) in zip(np.split(w, splits), np.split(b, splits), fits)
    ]


def classify(clf: LabelClassifier, scores: np.ndarray) -> np.ndarray:
    """Binary decisions for (n_labels,) or (..., n_labels) score arrays."""
    scores = np.asarray(scores, dtype=np.float64)
    threshold = scores > 0.0
    if clf.kind == "threshold_zero":
        decided = threshold
    elif clf.kind == "svm":
        decided = clf.weight * scores + clf.bias > 0.0
    elif clf.kind == "nearest_mean":
        decided = np.abs(scores - clf.pos_mean) < np.abs(scores - clf.neg_mean)
    else:
        raise ValueError(f"unknown classifier kind {clf.kind!r}")
    if clf.fallback is not None and clf.fallback.any():
        decided = np.where(clf.fallback, threshold, decided)
    return decided.astype(np.int8)


def broadcast_baseline(segment_decision: np.ndarray, horizon: int) -> np.ndarray:
    """Replicate a segment decision across every forecast step."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    segment_decision = np.asarray(segment_decision)
    return np.repeat(segment_decision[..., None, :], horizon, axis=-2)


def classifier_to_dict(clf: LabelClassifier) -> dict:
    out = {"kind": clf.kind}
    for name in ("weight", "bias", "pos_mean", "neg_mean"):
        arr = getattr(clf, name)
        out[name] = None if arr is None else np.asarray(arr).tolist()
    out["fallback"] = None if clf.fallback is None else clf.fallback.astype(int).tolist()
    return out


def classifier_from_dict(record: JsonField, n_labels: int) -> LabelClassifier:
    """Rebuild a classifier_to_dict record read from a JSON file. A
    DatasetError names the key if the kind is not in KINDS, or an array the
    kind reads is missing, or an array given is not n_labels numbers."""
    kind = record.field("kind")
    if kind.value not in KINDS:
        raise kind.error(f"must be one of {', '.join(KINDS)}, got {kind.value!r}")
    arrays = {}
    for name in ("weight", "bias", "pos_mean", "neg_mean", "fallback"):
        given = record.value.get(name) is not None  # null stands for no array
        needed = given or name in _KIND_ARRAYS[kind.value]
        arrays[name] = record.get(name, np.ndarray, shape=(n_labels,)) if needed else None
    if arrays["fallback"] is not None:
        arrays["fallback"] = arrays["fallback"].astype(bool)
    return LabelClassifier(kind.value, **arrays)
