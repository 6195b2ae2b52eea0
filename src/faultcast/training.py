"""Mini-batch training, gradient verification, and hyperparameter search.

One training run is fully determined by (seed, config, data): shuffling,
initialization, and every reduction happen in a fixed order. Validation is
scored after each epoch with the fast threshold-at-zero proxy on the
embeddings, the quantity the embedding space is trained to expose; the best
validation snapshot (micro + macro F1) is what a run returns.

Sub-seed arithmetic used throughout the package, all derived from one user
seed: split shuffle = seed, model init = seed + 1, batch shuffle = seed + 2,
classifier fits = seed + 3, grid point k = seed + k.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .data import Sample, stack_samples
from .losses import ClassWeights, LossBreakdown, batch_adjoints, batch_loss, class_weights
from .metrics import segment_report
from .model import (
    ForecastModel,
    ModelDims,
    backward,
    forward,
    fused_items,
    init_model,
    param_items,
)
from .num import make_rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

GRID_ETAS = (0.001, 0.01, 0.1)
GRID_LAMBDAS = (0.01, 0.1, 1.0)
GRID_BETAS = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "base"  # base | localize | siamese
    eta: float = 0.01
    lam: float = 0.0
    beta: float = 0.5
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 25
    seed: int = 0
    clip_norm: float | None = None
    optimizer: str = "adam"  # adam | sgd

    def __post_init__(self):
        if self.loss not in losses.LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        min_batch = 2 if self.loss == "siamese" else 1
        if self.batch_size < min_batch:
            raise ValueError(
                f"batch_size must be >= {min_batch} for loss {self.loss!r}"
            )
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class EpochRecord:
    epoch: int
    loss: LossBreakdown
    val_micro_f1: float
    val_macro_f1: float
    seconds: float


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def make_adam_state(model: ForecastModel) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(arr) for name, arr in fused_items(model)},
        v={name: np.zeros_like(arr) for name, arr in fused_items(model)},
    )


def clip_gradients(grads, clip_norm: float) -> float:
    """Scale all gradients so their global norm is at most clip_norm."""
    arrays = [arr for _, arr in fused_items(grads)]
    norm = np.sqrt(sum(float(np.sum(arr * arr)) for arr in arrays))
    if norm > clip_norm and norm > 0.0:
        scale = clip_norm / norm
        for arr in arrays:
            arr *= scale
    return norm


def optimizer_step(
    model: ForecastModel,
    grads,
    eta: float,
    state: AdamState | None = None,
    clip_norm: float | None = None,
) -> ForecastModel:
    """Update parameters in place; Adam when a state is given, else plain SGD.

    Runs over the five whole parameter arrays (fused_items), so every gate
    of a cell moves in one update.
    """
    if clip_norm is not None:
        clip_gradients(grads, clip_norm)
    pairs = zip(fused_items(model), fused_items(grads))
    if state is None:
        for (_, p), (_, g) in pairs:
            p -= eta * g
        return model
    state.t += 1
    correct1 = 1.0 - ADAM_BETA1**state.t
    correct2 = 1.0 - ADAM_BETA2**state.t
    for (name, p), (_, g) in pairs:
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= eta * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
    return model


def batch_gradients(
    model: ForecastModel,
    obs: np.ndarray,
    ctx: np.ndarray,
    labels: np.ndarray,
    step_labels: np.ndarray,
    weights: ClassWeights,
    kind: str,
    lam: float,
    beta: float,
):
    """Loss breakdown and parameter gradients for one batch."""
    pred, tape = forward(model, obs, ctx)
    breakdown = batch_loss(kind, pred, labels, step_labels, weights, model, lam, beta)
    dy, do, dg = batch_adjoints(kind, pred, labels, step_labels, weights, beta)
    grads = backward(model, tape, dy, do, dg)
    if lam != 0.0:
        grads.encoder.W += lam * model.encoder.W
        grads.decoder.W += lam * model.decoder.W
    return breakdown, grads


def threshold_validation_f1(model: ForecastModel, samples: list[Sample]):
    """(micro_f1, macro_f1) of threshold-at-zero decisions on the embeddings."""
    obs, ctx, labels, _ = stack_samples(samples)
    pred = forward(model, obs, ctx, keep_tape=False)[0]
    decisions = (pred.embedding > 0.0).astype(np.int8)
    report = segment_report(decisions, labels.astype(int))
    return report.micro_f1, report.macro_f1


def train(
    model: ForecastModel,
    train_samples: list[Sample],
    val_samples: list[Sample],
    config: TrainConfig,
) -> tuple[ForecastModel, list[EpochRecord]]:
    """Train a copy of `model`, returning the best-validation snapshot.

    The input model is left untouched. Early stopping fires after
    config.patience epochs without improving micro + macro validation F1;
    a non-finite batch loss ends the run immediately (the best snapshot so
    far still wins). With an empty validation list the proxy is scored on
    the training split instead.
    """
    if not train_samples:
        raise ValueError("need at least one training sample")
    if config.loss == "siamese" and len(train_samples) < 2:
        raise ValueError("siamese loss needs at least 2 training samples")
    model = model.copy()
    if config.max_epochs == 0:
        return model, []

    obs, ctx, labels, step_labels = stack_samples(train_samples)
    _check_dims(model.dims, obs, ctx, labels)
    weights = class_weights(labels)
    scored_samples = val_samples if val_samples else train_samples
    rng = make_rng(config.seed + 2)
    state = make_adam_state(model) if config.optimizer == "adam" else None

    history: list[EpochRecord] = []
    best_model = model.copy()
    best_score = -np.inf
    since_best = 0
    n = len(train_samples)
    for epoch in range(config.max_epochs):
        start = time.perf_counter()
        order = rng.permutation(n)
        batch_sums = np.zeros(5)
        n_batches = 0
        diverged = False
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            if config.loss == "siamese" and len(idx) < 2:
                continue  # a trailing singleton batch has no pairs
            breakdown, grads = batch_gradients(
                model,
                obs[idx],
                ctx[idx],
                labels[idx],
                step_labels[idx],
                weights,
                config.loss,
                config.lam,
                config.beta,
            )
            batch_sums += (
                breakdown.total,
                breakdown.segment,
                breakdown.stepwise,
                breakdown.pairwise,
                breakdown.reg,
            )
            n_batches += 1
            if not np.isfinite(breakdown.total):
                diverged = True
                break
            optimizer_step(model, grads, config.eta, state, config.clip_norm)
        mean = batch_sums / max(n_batches, 1)
        micro, macro = threshold_validation_f1(model, scored_samples)
        history.append(
            EpochRecord(
                epoch,
                LossBreakdown(*(float(v) for v in mean)),
                micro,
                macro,
                time.perf_counter() - start,
            )
        )
        if diverged:
            break
        score = micro + macro
        if score > best_score:
            best_score = score
            best_model = model.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    return best_model, history


def _check_dims(dims: ModelDims, obs, ctx, labels):
    if obs.shape[1:] != (dims.tau, dims.d_obs):
        raise ValueError(
            f"dataset observations {obs.shape[1:]} do not match model "
            f"({dims.tau}, {dims.d_obs})"
        )
    if ctx.shape[1:] != (dims.total_steps, dims.d_ctx):
        raise ValueError(
            f"dataset context {ctx.shape[1:]} do not match model "
            f"({dims.total_steps}, {dims.d_ctx})"
        )
    if labels.shape[1] != dims.n_labels:
        raise ValueError(
            f"dataset has {labels.shape[1]} labels, model expects {dims.n_labels}"
        )


def write_history(history: list[EpochRecord], path) -> None:
    """Tab-separated history file; wall time stays out so bytes are stable."""
    cols = ("epoch", "segment", "stepwise", "pairwise", "reg", "total",
            "val_micro_f1", "val_macro_f1")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for rec in history:
            row = (
                rec.epoch,
                rec.loss.segment,
                rec.loss.stepwise,
                rec.loss.pairwise,
                rec.loss.reg,
                rec.loss.total,
                rec.val_micro_f1,
                rec.val_macro_f1,
            )
            fh.write("\t".join(repr(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def pack_params(model: ForecastModel) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in param_items(model)])


def unpack_params(model: ForecastModel, vector: np.ndarray) -> None:
    offset = 0
    for _, arr in param_items(model):
        arr[...] = vector[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size


def grad_check(
    model: ForecastModel,
    samples: list[Sample],
    config: TrainConfig,
    fd_step: float = 1e-5,
) -> tuple[float, str]:
    """Compare analytic batch-loss gradients with central finite differences.

    Returns (max relative error, worst parameter coordinate). Cost is
    O(#params * forward), so keep the model small.
    """
    obs, ctx, labels, step_labels = stack_samples(samples)
    weights = class_weights(labels)
    _, grads = batch_gradients(
        model, obs, ctx, labels, step_labels, weights,
        config.loss, config.lam, config.beta,
    )
    analytic = np.concatenate([arr.ravel() for _, arr in param_items(grads)])

    work = model.copy()
    theta = pack_params(work)

    def loss_at(vec):
        unpack_params(work, vec)
        pred = forward(work, obs, ctx, keep_tape=False)[0]
        return batch_loss(
            config.loss, pred, labels, step_labels, weights,
            work, config.lam, config.beta,
        ).total

    numeric = np.empty_like(theta)
    for k in range(theta.size):
        bumped = theta.copy()
        bumped[k] = theta[k] + fd_step
        up = loss_at(bumped)
        bumped[k] = theta[k] - fd_step
        down = loss_at(bumped)
        numeric[k] = (up - down) / (2.0 * fd_step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    offset = 0
    worst_name = "?"
    for name, arr in param_items(grads):
        if worst < offset + arr.size:
            worst_name = f"{name}[{worst - offset}]"
            break
        offset += arr.size
    return float(rel[worst]), worst_name


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


@dataclass
class GridResult:
    config: TrainConfig
    val_micro_f1: float
    val_macro_f1: float

    @property
    def score(self) -> float:
        return self.val_micro_f1 + self.val_macro_f1


def default_grid(kind: str, base: TrainConfig | None = None) -> list[TrainConfig]:
    """The stock search grid: eta x lambda, with beta added for siamese."""
    base = base if base is not None else TrainConfig(loss=kind)
    betas = GRID_BETAS if kind == "siamese" else (base.beta,)
    grid = []
    for eta in GRID_ETAS:
        for beta in betas:
            for lam in GRID_LAMBDAS:
                grid.append(replace(base, loss=kind, eta=eta, lam=lam, beta=beta))
    return grid


def grid_search(
    grid: list[TrainConfig],
    dims: ModelDims,
    train_samples: list[Sample],
    val_samples: list[Sample],
    base_seed: int = 0,
    threads: int = 1,
) -> tuple[TrainConfig, ForecastModel, list[GridResult]]:
    """Train one model per grid point and keep the best validation scorer.

    Grid point k runs with seed base_seed + k. The winner maximizes micro +
    macro validation F1; exact ties prefer the smaller eta, then the larger
    lambda.
    """
    if not grid:
        raise ValueError("grid must not be empty")

    def run(k_cfg):
        k, cfg = k_cfg
        cfg = replace(cfg, seed=base_seed + k)
        model = init_model(make_rng(cfg.seed + 1), dims)
        best, _ = train(model, train_samples, val_samples, cfg)
        micro, macro = threshold_validation_f1(
            best, val_samples if val_samples else train_samples
        )
        return k, cfg, best, GridResult(cfg, micro, macro)

    jobs = list(enumerate(grid))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run, jobs))
    else:
        outcomes = [run(job) for job in jobs]

    results = [None] * len(grid)
    models = [None] * len(grid)
    for k, cfg, mdl, res in outcomes:
        results[k] = res
        models[k] = mdl
    winner = select_best(results)
    return results[winner].config, models[winner], results


def select_best(results: list[GridResult]) -> int:
    """Index of the best grid point: highest micro + macro validation F1,
    exact ties broken by smaller eta, then larger lambda."""
    keys = [(-r.score, r.config.eta, -r.config.lam) for r in results]
    return min(range(len(results)), key=keys.__getitem__)


def write_grid_report(results: list[GridResult], best: TrainConfig, path) -> None:
    """Ranked tab-separated report of every grid point."""
    cols = ("rank", "loss", "eta", "lambda", "beta", "val_micro_f1",
            "val_macro_f1", "score", "selected")
    ordered = sorted(
        results, key=lambda r: (-r.score, r.config.eta, -r.config.lam)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for rank, res in enumerate(ordered, start=1):
            cfg = res.config
            selected = cfg.eta == best.eta and cfg.lam == best.lam and cfg.beta == best.beta
            row = (rank, cfg.loss, cfg.eta, cfg.lam, cfg.beta,
                   res.val_micro_f1, res.val_macro_f1, res.score, int(selected))
            fh.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
