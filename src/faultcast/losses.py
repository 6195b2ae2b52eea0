"""Training objectives: class-weighted segment loss, squared stepwise loss,
pairwise embedding-similarity loss, and the three batch compositions.

Rare labels get amplified through w = -log(p), where p is the label's
frequency in the training split. A label that never occurs gets weight 1
(no preference either way); a label that always occurs gets weight 0, which
silences its positive term, so that case is flagged with a warning.

Each per-sample function accepts an optional leading batch axis and then
returns one loss per sample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

EPS = 1e-12  # probability clamp before logs; sigmoid can saturate in float64

LOSS_KINDS = ("base", "localize", "siamese")


@dataclass
class ClassWeights:
    frequency: np.ndarray  # empirical p per label, in [0, 1]
    weight: np.ndarray     # loss weight per label


@dataclass
class LossBreakdown:
    """Additive pieces of one batch loss; total is their exact sum."""

    total: float
    segment: float
    stepwise: float
    pairwise: float
    reg: float


def class_weights(labels: np.ndarray) -> ClassWeights:
    """Per-label frequency and weight from a (samples, labels) binary matrix."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[0] == 0:
        raise ValueError(f"need a non-empty (samples, labels) matrix, got {labels.shape}")
    p = labels.mean(axis=0)
    w = np.ones_like(p)
    present = p > 0.0
    with np.errstate(divide="ignore"):
        w[present] = -np.log(p[present])
    if np.any(p == 1.0):
        warnings.warn(
            "label(s) present in every training sample get weight 0; "
            "their positive loss term is silenced",
            stacklevel=2,
        )
    return ClassWeights(p, w)


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, EPS, 1.0 - EPS)


def segment_loss(probs, labels, weights: ClassWeights):
    """Weighted cross entropy over labels; only the positive term is weighted.

    -sum_l [ w_l * y~_l * log(y_l) + (1 - y~_l) * log(1 - y_l) ]
    """
    y = _clamp(np.asarray(probs, dtype=np.float64))
    t = np.asarray(labels, dtype=np.float64)
    terms = weights.weight * t * np.log(y) + (1.0 - t) * np.log1p(-y)
    return -terms.sum(axis=-1)


def segment_loss_grad(probs, labels, weights: ClassWeights):
    """d(segment_loss)/d(probs), evaluated at the clamped probabilities."""
    y = _clamp(np.asarray(probs, dtype=np.float64))
    t = np.asarray(labels, dtype=np.float64)
    return -(weights.weight * t / y - (1.0 - t) / (1.0 - y))


def stepwise_loss(scores, step_labels):
    """Mean squared error against the binary stepwise targets.

    (1 / (labels * horizon)) * sum_t [ o~_t (1 - o_t)^2 + (1 - o~_t) o_t^2 ],
    which is the per-entry squared error since the targets are binary.
    """
    o = np.asarray(scores, dtype=np.float64)
    t = np.asarray(step_labels, dtype=np.float64)
    if o.shape != t.shape:
        raise ValueError(f"shape mismatch: scores {o.shape} vs targets {t.shape}")
    per_entry = t * (1.0 - o) ** 2 + (1.0 - t) * o**2
    return per_entry.mean(axis=(-2, -1))


def stepwise_loss_grad(scores, step_labels):
    o = np.asarray(scores, dtype=np.float64)
    t = np.asarray(step_labels, dtype=np.float64)
    scale = 2.0 / (o.shape[-1] * o.shape[-2])
    return scale * (o - t)


def pair_similarity(g_i, g_j):
    """Elementwise exp(-|g_i - g_j|); 1 where the embeddings agree."""
    g_i = np.asarray(g_i, dtype=np.float64)
    g_j = np.asarray(g_j, dtype=np.float64)
    return np.exp(-np.abs(g_i - g_j))


def pair_target(labels_i, labels_j):
    """1 where the two samples agree on a label, else 0."""
    return (np.asarray(labels_i) == np.asarray(labels_j)).astype(np.float64)


def pair_loss(sim, target):
    """(1/L) * sum_l [ s~ (1 - s)^2 + (1 - s~) s^2 ]."""
    s = np.asarray(sim, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if s.shape != t.shape:
        raise ValueError(f"shape mismatch: similarity {s.shape} vs target {t.shape}")
    per_label = t * (1.0 - s) ** 2 + (1.0 - t) * s**2
    return per_label.mean(axis=-1)


def l2_penalty(model, lam: float) -> float:
    """(lam / 2) * squared Frobenius norm over the LSTM weights: both cells'
    fused W, which hold the eight per-gate weight matrices.

    Biases and the output bias are excluded.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    total = sum(float(np.sum(cell.W * cell.W)) for cell in (model.encoder, model.decoder))
    return 0.5 * lam * total


def _pair_stats(embeddings: np.ndarray, labels: np.ndarray):
    """Similarity, target, and sign(g_i - g_j) for every ordered pair."""
    diff = embeddings[:, None, :] - embeddings[None, :, :]
    sim = np.exp(-np.abs(diff))
    target = (labels[:, None, :] == labels[None, :, :]).astype(np.float64)
    return sim, target, np.sign(diff)


def batch_loss(
    kind: str,
    pred,
    labels,
    step_labels,
    weights: ClassWeights,
    model=None,
    lam: float = 0.0,
    beta: float = 0.5,
) -> LossBreakdown:
    """Scalar batch objective for one of the three configurations.

    base:     mean segment loss
    localize: mean (segment + stepwise) loss
    siamese:  mean over unordered sample pairs of
              beta * (both samples' segment + stepwise losses)
              + (1 - beta) * pair loss
    plus the l2 penalty when a model and lam are given. Reduction order is
    fixed (ascending sample index) for bit reproducibility.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    y = np.atleast_2d(np.asarray(pred.label_probs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    n = y.shape[0]
    o = np.asarray(pred.step_scores, dtype=np.float64).reshape((n,) + pred.step_scores.shape[-2:])
    ot = np.asarray(step_labels, dtype=np.float64).reshape(o.shape)
    reg = l2_penalty(model, lam) if model is not None and lam != 0.0 else 0.0

    seg = segment_loss(y, t, weights)
    if kind == "base":
        l_seg, l_step, l_pair = float(seg.mean()), 0.0, 0.0
    elif kind == "localize":
        l_seg = float(seg.mean())
        l_step = float(stepwise_loss(o, ot).mean())
        l_pair = 0.0
    else:
        if n < 2:
            raise ValueError("siamese loss needs a batch of at least 2 samples")
        g = np.atleast_2d(np.asarray(pred.embedding, dtype=np.float64))
        n_pairs = n * (n - 1) // 2
        step = stepwise_loss(o, ot)
        # each sample sits in (n - 1) of the n_pairs unordered pairs
        coef = beta * (n - 1) / n_pairs
        l_seg = float(coef * seg.sum())
        l_step = float(coef * step.sum())
        sim, target, _ = _pair_stats(g, t)
        pl = pair_loss(sim, target)  # (n, n); diagonal is exactly zero
        l_pair = float((1.0 - beta) * pl.sum() / (2 * n_pairs))
    total = l_seg + l_step + l_pair + reg
    return LossBreakdown(total, l_seg, l_step, l_pair, reg)


def batch_adjoints(
    kind: str,
    pred,
    labels,
    step_labels,
    weights: ClassWeights,
    beta: float = 0.5,
):
    """Upstream adjoints (d_probs, d_scores, d_embedding) of batch_loss.

    The l2 term is handled separately by the optimizer path since it acts on
    parameters, not on predictions.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    single = np.asarray(pred.label_probs).ndim == 1
    y = np.atleast_2d(np.asarray(pred.label_probs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    n = y.shape[0]
    o = np.asarray(pred.step_scores, dtype=np.float64).reshape((n,) + pred.step_scores.shape[-2:])
    ot = np.asarray(step_labels, dtype=np.float64).reshape(o.shape)

    dg = np.zeros_like(y)
    if kind == "base":
        dy = segment_loss_grad(y, t, weights) / n
        do = np.zeros_like(o)
    elif kind == "localize":
        dy = segment_loss_grad(y, t, weights) / n
        do = stepwise_loss_grad(o, ot) / n
    else:
        if n < 2:
            raise ValueError("siamese loss needs a batch of at least 2 samples")
        g = np.atleast_2d(np.asarray(pred.embedding, dtype=np.float64))
        n_pairs = n * (n - 1) // 2
        coef = beta * (n - 1) / n_pairs
        dy = coef * segment_loss_grad(y, t, weights)
        do = coef * stepwise_loss_grad(o, ot)
        sim, target, sign = _pair_stats(g, t)
        # d(pair_loss)/d(sim) = (2/L)(sim - target); d(sim)/d(g_i) = -sim * sign
        dsim = (2.0 / y.shape[1]) * (sim - target)
        contrib = (1.0 - beta) / (2 * n_pairs) * dsim * sim * sign
        dg = -contrib.sum(axis=1) + contrib.sum(axis=0)
    if single:
        return dy[0], do[0], dg[0]
    return dy, do, dg
