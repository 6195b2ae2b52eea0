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

from .num import per_member

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


def l2_penalty(model, lam):
    """(lam / 2) * squared Frobenius norm over the LSTM weights: both cells'
    fused W, which hold the eight per-gate weight matrices.

    Biases and the output bias are excluded. For a population, lam may be a
    (G,) vector and the result is one penalty per member.
    """
    if np.any(np.asarray(lam) < 0):
        raise ValueError(f"lam must be >= 0, got {lam}")
    total = sum(
        np.sum(cell.W * cell.W, axis=(-2, -1)) for cell in (model.encoder, model.decoder)
    )
    return 0.5 * lam * total


def _batch_arrays(pred, labels, step_labels):
    """Probabilities, labels, step scores and step labels as float arrays
    with a batch axis: (..., B, L) and (..., B, horizon, L)."""
    y = np.asarray(pred.label_probs, dtype=np.float64)
    if y.ndim == 1:
        y = y[None]
    t = np.asarray(labels, dtype=np.float64).reshape(y.shape)
    o = np.asarray(pred.step_scores, dtype=np.float64)
    o = o.reshape(y.shape[:-1] + o.shape[-2:])
    ot = np.asarray(step_labels, dtype=np.float64).reshape(o.shape)
    return y, t, o, ot


def _pair_stats(embeddings: np.ndarray, labels: np.ndarray):
    """Similarity, target, and sign(g_i - g_j) for every ordered pair."""
    diff = embeddings[..., :, None, :] - embeddings[..., None, :, :]
    sim = np.exp(-np.abs(diff))
    target = (labels[..., :, None, :] == labels[..., None, :, :]).astype(np.float64)
    return sim, target, np.sign(diff)


def batch_loss(
    kind: str,
    pred,
    labels,
    step_labels,
    weights: ClassWeights,
    model=None,
    lam=0.0,
    beta=0.5,
) -> LossBreakdown:
    """Scalar batch objective for one of the three configurations.

    base:     mean segment loss
    localize: mean (segment + stepwise) loss
    siamese:  mean over unordered sample pairs of
              beta * (both samples' segment + stepwise losses)
              + (1 - beta) * pair loss
    plus the l2 penalty when a model and lam are given. Reduction order is
    fixed (ascending sample index) for bit reproducibility.

    For a population's (G, B, ...) predictions, lam and beta may be (G,)
    vectors, pairs stay within a member, and every field of the breakdown
    is a (G,) vector.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    y, t, o, ot = _batch_arrays(pred, labels, step_labels)
    n = y.shape[-2]
    zero = np.zeros(y.shape[:-2])  # one per member of a population
    if model is None or not (lam.any() if isinstance(lam, np.ndarray) else lam):
        reg = zero
    else:  # a member with lam 0 gets exactly 0, even from non-finite weights
        reg = np.where(np.asarray(lam) != 0.0, l2_penalty(model, lam), 0.0)

    seg = segment_loss(y, t, weights)
    if kind == "base":
        l_seg, l_step, l_pair = seg.mean(axis=-1), zero, zero
    elif kind == "localize":
        l_seg = seg.mean(axis=-1)
        l_step = stepwise_loss(o, ot).mean(axis=-1)
        l_pair = zero
    else:
        if n < 2:
            raise ValueError("siamese loss needs a batch of at least 2 samples")
        g = np.asarray(pred.embedding, dtype=np.float64).reshape(y.shape)
        n_pairs = n * (n - 1) // 2
        step = stepwise_loss(o, ot)
        # each sample sits in (n - 1) of the n_pairs unordered pairs
        coef = beta * (n - 1) / n_pairs
        l_seg = coef * seg.sum(axis=-1)
        l_step = coef * step.sum(axis=-1)
        sim, target, _ = _pair_stats(g, t)
        pl = pair_loss(sim, target)  # (..., n, n); diagonal is exactly zero
        l_pair = (1.0 - beta) * pl.sum(axis=(-2, -1)) / (2 * n_pairs)
    total = l_seg + l_step + l_pair + reg
    parts = (total, l_seg, l_step, l_pair, reg)
    if y.ndim == 2:
        return LossBreakdown(*(float(v) for v in parts))
    return LossBreakdown(*parts)


def batch_adjoints(
    kind: str,
    pred,
    labels,
    step_labels,
    weights: ClassWeights,
    beta=0.5,
):
    """Upstream adjoints (d_probs, d_scores, d_embedding) of batch_loss.

    The l2 term is handled separately by the optimizer path since it acts on
    parameters, not on predictions. beta may be a (G,) vector for a
    population, as in batch_loss.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    single = np.asarray(pred.label_probs).ndim == 1
    y, t, o, ot = _batch_arrays(pred, labels, step_labels)
    n = y.shape[-2]

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
        g = np.asarray(pred.embedding, dtype=np.float64).reshape(y.shape)
        n_pairs = n * (n - 1) // 2
        coef = beta * (n - 1) / n_pairs
        dy = per_member(coef, 2) * segment_loss_grad(y, t, weights)
        do = per_member(coef, 3) * stepwise_loss_grad(o, ot)
        sim, target, sign = _pair_stats(g, t)
        # d(pair_loss)/d(sim) = (2/L)(sim - target); d(sim)/d(g_i) = -sim * sign
        dsim = (2.0 / y.shape[-1]) * (sim - target)
        contrib = per_member((1.0 - beta) / (2 * n_pairs), 3) * dsim * sim * sign
        dg = -contrib.sum(axis=-2) + contrib.sum(axis=-3)
    if single:
        return dy[0], do[0], dg[0]
    return dy, do, dg
