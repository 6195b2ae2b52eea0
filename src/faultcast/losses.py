"""Training objectives: class-weighted segment loss, squared stepwise loss,
pairwise embedding-similarity loss, and the three batch compositions.

Rare labels get amplified through w = -log(p), where p is the label's
frequency in the training split. A label that never occurs gets weight 1
(no preference either way); a label that always occurs gets weight 0, which
silences its positive term, so that case is flagged with a warning.

Each per-sample function accepts an optional leading batch axis and then
returns one loss per sample. batch_adjoints is the one batch objective: a
single pass gives the loss breakdown together with the adjoints that
model.backward and the optimizer need; batch_loss is its breakdown alone.
Their inputs carry a batch axis; one sample is a batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import zeros_grads
from .num import per_member, sigmoid

# probability clamp before logs, as sigmoid can saturate in float64; past it
# the batch objective takes the segment term on the logit instead
EPS = 1e-12

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
    return np.minimum(np.maximum(p, EPS), 1.0 - EPS)  # np.clip's values, without its overhead


def segment_loss(probs, labels, weights: ClassWeights):
    """Weighted cross entropy over labels; only the positive term is weighted.

    -sum_l [ w_l * y~_l * log(y_l) + (1 - y~_l) * log(1 - y_l) ]
    """
    y = _clamp(np.asarray(probs, dtype=np.float64))
    t = np.asarray(labels, dtype=np.float64)
    terms = weights.weight * t * np.log(y) + (1.0 - t) * np.log1p(-y)
    return -terms.sum(axis=-1)


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


def pair_similarity(g_i, g_j):
    """Elementwise exp(-|g_i - g_j|); 1 where the embeddings agree."""
    g_i = np.asarray(g_i, dtype=np.float64)
    g_j = np.asarray(g_j, dtype=np.float64)
    return np.exp(-np.abs(g_i - g_j))


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


def _l2_terms(model, lam, zero):
    """l2_penalty per member and its gradient in the model's parameter
    layout: lam * W in both cells' W blocks, 0 elsewhere, or None if every
    lam is 0. A member with lam 0 gets exactly 0, even from non-finite W."""
    if not (lam.any() if isinstance(lam, np.ndarray) else lam):
        return zero, None
    reg = np.where(np.asarray(lam) != 0.0, l2_penalty(model, lam), 0.0)
    grad = zeros_grads(model.dims, model.population)
    lam_w = per_member(lam, 2)
    for g, p in ((grad.encoder, model.encoder), (grad.decoder, model.decoder)):
        np.multiply(lam_w, p.W, out=g.W, where=lam_w != 0.0)
    return reg, grad.theta


def _checked(name: str, a, shape: tuple) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"shape mismatch: {name} must be {shape}, got {a.shape}")
    return a


def _pair_stats(embeddings: np.ndarray, labels: np.ndarray):
    """Similarity, target, and sign(g_i - g_j) for every ordered pair."""
    diff = embeddings[..., :, None, :] - embeddings[..., None, :, :]
    sim = np.exp(-np.abs(diff))
    target = (labels[..., :, None, :] == labels[..., None, :, :]).astype(np.float64)
    return sim, target, np.sign(diff)


def batch_loss(
    kind: str, pred, labels, step_labels, weights: ClassWeights, model=None, lam=0.0, beta=0.5
) -> LossBreakdown:
    """The loss breakdown of batch_adjoints, without its adjoints."""
    return batch_adjoints(kind, pred, labels, step_labels, weights, model, lam, beta)[0]


def batch_adjoints(
    kind: str, pred, labels, step_labels, weights: ClassWeights, model=None, lam=0.0, beta=0.5
):
    """The batch objective of one of the three configurations, and its
    adjoints, from one pass:

    base:     mean segment loss
    localize: mean (segment + stepwise) loss
    siamese:  mean over unordered sample pairs of
              beta * (both samples' segment + stepwise losses)
              + (1 - beta) * pair loss
    plus the l2 penalty when a model and lam are given. Reduction order is
    fixed (ascending sample index) for bit reproducibility.

    Returns (breakdown, d_step_scores, d_embedding, d_theta). d_embedding
    holds the pair term and the label-probability path through
    y = sigmoid(g); d_theta is the l2 term's gradient in the model's
    parameter layout (see _l2_terms), None without a model or a nonzero lam.
    Inputs and adjoints carry a batch axis: labels are shaped like
    label_probs, (B, L), and step_labels like step_scores, (B, horizon, L);
    any other shape raises ValueError naming the input. For a population's
    (G, B, ...) predictions, lam and beta may be (G,) vectors, pairs stay
    within a member, and every field of the breakdown is a (G,) vector.

    The segment term uses probabilities clamped to [EPS, 1 - EPS]. Where y
    lies outside that range the clamp would flatten it, so there the term is
    taken on g, w * t * softplus(-g) + (1 - t) * softplus(g), which is exact
    on the whole float64 range; every other entry keeps the clamped form.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    # float arrays with a batch axis: (..., B, L) and (..., B, horizon, L)
    y = np.asarray(pred.label_probs, dtype=np.float64)
    o = np.asarray(pred.step_scores, dtype=np.float64)
    if y.ndim < 2 or o.shape[:-2] + o.shape[-1:] != y.shape:
        raise ValueError(f"shape mismatch: label_probs {y.shape} and step_scores {o.shape} "
                         "must be (batch, labels) and (batch, horizon, labels)")
    t = _checked("labels", labels, y.shape)
    g = _checked("embedding", pred.embedding, y.shape)
    ot = _checked("step_labels", step_labels, o.shape)
    n = y.shape[-2]
    if kind == "siamese" and n < 2:
        raise ValueError("siamese loss needs a batch of at least 2 samples")
    zero = np.zeros(y.shape[:-2])  # one per member of a population
    reg, d_theta = (zero, None) if model is None else _l2_terms(model, lam, zero)

    # segment terms and their adjoint on y, at the clamped probabilities
    wt, nt = weights.weight * t, 1.0 - t
    yc = _clamp(y)
    terms = wt * np.log(yc) + nt * np.log1p(-yc)
    dy = nt / (1.0 - yc) - wt / yc  # +0.0, not -0.0, where t = 1 at weight 0
    saturated = yc != y
    exact_tail = saturated.any()
    if exact_tail:
        exact = wt * np.logaddexp(0.0, -g) + nt * np.logaddexp(0.0, g)
        terms = np.where(saturated, -exact, terms)
        dg_saturated = nt * y - wt * sigmoid(-g)
    seg = -terms.sum(axis=-1)

    if kind == "siamese":
        n_pairs = n * (n - 1) // 2
        # each sample sits in (n - 1) of the n_pairs unordered pairs
        coef = beta * (n - 1) / n_pairs
        l_seg = coef * seg.sum(axis=-1)
        l_step = coef * stepwise_loss(o, ot).sum(axis=-1)
        sim, target, sign = _pair_stats(g, t)
        pl = pair_loss(sim, target)  # (..., n, n); diagonal is exactly zero
        l_pair = (1.0 - beta) * pl.sum(axis=(-2, -1)) / (2 * n_pairs)
        # d(pair_loss)/d(sim) = (2/L)(sim - target); d(sim)/d(g_i) = -sim * sign
        dsim = (2.0 / y.shape[-1]) * (sim - target)
        contrib = per_member((1.0 - beta) / (2 * n_pairs), 3) * dsim * sim * sign
        dg_pair = -contrib.sum(axis=-2) + contrib.sum(axis=-3)

        def times_coef(a):  # a per-sample adjoint, weighted as its sample is
            return per_member(coef, a.ndim - 1) * a
    else:  # the sum over the count is what .mean computes, without its overhead
        l_seg = seg.sum(axis=-1) / n
        l_step = zero if kind == "base" else stepwise_loss(o, ot).sum(axis=-1) / n
        l_pair = zero

        def times_coef(a):
            return a / n

    scale = 2.0 / (o.shape[-1] * o.shape[-2])  # d(stepwise_loss)/d(o) = scale * (o - ot)
    do = np.zeros_like(o) if kind == "base" else times_coef(scale * (o - ot))
    dg = times_coef(dy) * (y * (1.0 - y))
    if exact_tail:
        dg = np.where(saturated, times_coef(dg_saturated), dg)
    if kind == "siamese":
        dg += dg_pair

    total = l_seg + l_step + l_pair + reg
    parts = (total, l_seg, l_step, l_pair, reg)
    breakdown = LossBreakdown(*(map(float, parts) if y.ndim == 2 else parts))
    return breakdown, do, dg, d_theta
