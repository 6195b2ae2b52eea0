"""Mini-batch training, gradient verification, and hyperparameter search.

One training run is fully determined by (seed, config, data): shuffling,
initialization, and every reduction happen in a fixed order. Validation is
scored after each epoch with the fast threshold-at-zero proxy on the
embeddings, the quantity the embedding space is trained to expose; the best
validation snapshot (micro + macro F1) is what a run returns.

train_population trains G runs in lockstep as one stacked model (see
model.stack_models): each time step is one call for all members, forward
and backward, and member k computes bit for bit what its own run computes.
The runs may differ only in eta, lam, beta and seed. Each member draws its
own batch order, keeps its own best snapshot and patience count, and stops
on its own. A member leaves the stack only at the end of an epoch, for
patience or for divergence, which its last EpochRecord.stopped names: after
a non-finite batch loss its weights stay frozen until the epoch ends, and a
non-finite theta at the end of an epoch counts too. A diverged epoch is
never the best snapshot. train is the one-member case, and grid_search
trains every grid point as one population.

Parameters, gradients and Adam moments are theta-shaped arrays (see
model.param_layout), (P,) for one run and (G, P) for a population: an
optimizer step is one expression over theta, clipping takes one norm per
member, and a stopped member leaves by one row selection.

A run's workspace is one model.Tape per batch shape, refilled for each
batch of its shape, holding its gradients, dropped when the run returns.

Sub-seed arithmetic used throughout the package, all derived from one user
seed: split shuffle = seed, model init = seed + 1, batch shuffle = seed + 2,
classifier fits = seed + 3, grid point k = seed + k.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import losses
from .data import Sample, stack_samples
from .losses import LossBreakdown, batch_adjoints, batch_loss, class_weights
from .metrics import CountTable, confusion_counts, prf
from .model import (ForecastModel, ModelDims, Tape, backward, forward,
                    init_model, param_layout, predict, stack_models)
from .num import constant, make_rng, per_member

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_BETA1, _BETA2, _1_BETA1, _1_BETA2, _EPS = map(constant, (  # optimizer_step's operands
    ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2, ADAM_EPS))

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
        # written so that NaN fails too; inf is no usable step or penalty
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        min_batch = 2 if self.loss == "siamese" else 1
        if self.batch_size < min_batch:
            raise ValueError(
                f"batch_size must be >= {min_batch} for loss {self.loss!r}"
            )
        for name, low in (("max_epochs", 0), ("patience", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        # 0 would zero every update and a negative value reverse it
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")


@dataclass
class EpochRecord:
    epoch: int
    loss: LossBreakdown
    val_micro_f1: float
    val_macro_f1: float
    seconds: float  # wall time of the whole population's epoch
    stopped: str | None = None  # on a run's last record: "patience" or "diverged"


@dataclass
class AdamState:
    """First and second moment estimates, each shaped like the model's
    theta, and the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def make_adam_state(model: ForecastModel) -> AdamState:
    return AdamState(np.zeros_like(model.theta), np.zeros_like(model.theta))


def clip_gradients(grads: ForecastModel, clip_norm: float):
    """Scale all gradients so their global norm is at most clip_norm; a
    population gets one norm per member. Returns the norm(s) before clipping."""
    g = grads.theta
    norm = np.sqrt(np.sum(g * g, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where((norm > clip_norm) & (norm > 0.0), clip_norm / norm, 1.0)
    g *= per_member(scale, 1)
    return norm


def optimizer_step(
    model: ForecastModel,
    grads: ForecastModel,
    eta,
    state: AdamState | None = None,
    clip_norm: float | None = None,
) -> ForecastModel:
    """Update parameters in place; Adam when a state is given, else plain SGD.

    One update of the whole theta, so every parameter moves in one
    expression. For a population, eta may be a (G,) vector of per-member
    learning rates.
    """
    if clip_norm is not None:
        clip_gradients(grads, clip_norm)
    p, g, eta = model.theta, grads.theta, per_member(eta, 1)
    if state is None:
        p -= eta * g
        return model
    state.t += 1
    correct1 = 1 - ADAM_BETA1**state.t  # Python scalars: they change with the step count
    correct2 = 1 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    m *= _BETA1
    m += _1_BETA1 * g
    v *= _BETA2
    v += _1_BETA2 * g * g
    p -= eta * (m / correct1) / (np.sqrt(v / correct2) + _EPS)
    return model


def batch_gradients(
    model: ForecastModel,
    obs: np.ndarray,
    ctx: np.ndarray,
    labels: np.ndarray,
    step_labels: np.ndarray,
    weights: np.ndarray,
    kind: str,
    lam,
    beta,
    tape: Tape | None = None,
):
    """Loss breakdown, gradients and the tape holding them for one batch (one
    batch per member for a population, with per-member lam and beta); a
    `tape` of this batch's shape is refilled in place (see model.forward)."""
    pred, tape = forward(model, obs, ctx, tape=tape)
    breakdown, do, dg, d_theta = batch_adjoints(
        kind, pred, labels, step_labels, weights, model, lam, beta
    )
    grads = backward(model, tape, do, dg)
    if d_theta is not None:
        grads.theta += d_theta
    return breakdown, grads, tape


def threshold_validation_f1(model: ForecastModel, samples):
    """Micro and macro F1 of threshold-at-zero decisions on the embeddings
    of stacked samples (stack_samples' arrays), from one forward pass, as
    (micro list, macro list) with one entry per member of a population and
    one for a single model."""
    obs, ctx, labels, _ = samples
    decisions = (predict(model, obs, ctx).embedding > 0.0).reshape((-1,) + labels.shape)
    counts = confusion_counts(decisions, np.broadcast_to(labels.astype(bool), decisions.shape))
    reports = [prf(CountTable(*member)) for member in zip(counts.tp, counts.fp, counts.fn)]
    return [r.micro_f1 for r in reports], [r.macro_f1 for r in reports]


# Fields in which the runs of one population may differ.
POPULATION_FIELDS = ("eta", "lam", "beta", "seed")


def _check_population(configs: list[TrainConfig]) -> None:
    first = configs[0]
    for k, cfg in enumerate(configs[1:], start=1):
        for f in fields(TrainConfig):
            a, b = getattr(first, f.name), getattr(cfg, f.name)
            if f.name not in POPULATION_FIELDS and a != b:
                raise ValueError(
                    f"config {k} differs from config 0 in {f.name!r} ({b!r} vs {a!r}); "
                    f"runs trained together may differ only in {', '.join(POPULATION_FIELDS)}"
                )


@dataclass
class _Run:
    """One member's own state in a population: batch order, history, best
    snapshot and patience count."""

    rng: np.random.Generator
    best: ForecastModel
    history: list = field(default_factory=list)
    best_score: float = -np.inf
    since_best: int = 0


def train(
    model: ForecastModel,
    train_samples: list[Sample],
    val_samples: list[Sample],
    config: TrainConfig,
) -> tuple[ForecastModel, list[EpochRecord]]:
    """Train a copy of `model`, returning the best-validation snapshot.

    The input model is left untouched. Early stopping fires after
    config.patience epochs without improving micro + macro validation F1;
    a non-finite batch loss ends the run at the end of that epoch, with no
    update after the non-finite batch, and a non-finite theta does too (the
    best snapshot before that epoch wins). With an empty validation list the
    proxy is scored on the training split instead. This is train_population
    with one member.
    """
    return train_population([model], train_samples, val_samples, [config])[0]


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported as `stopped`
def train_population(
    models: list[ForecastModel],
    train_samples: list[Sample],
    val_samples: list[Sample],
    configs: list[TrainConfig],
) -> list[tuple[ForecastModel, list[EpochRecord]]]:
    """Train a copy of each models[k] under configs[k], all in lockstep.

    Returns one (best snapshot, history) pair per member, each bit for bit
    what train(models[k], ..., configs[k]) would return on its own, except
    that EpochRecord.seconds is the whole population's epoch time. The
    configs may differ only in eta, lam, beta and seed (ValueError naming
    the field otherwise), and the models must share dims.
    """
    if not configs or len(models) != len(configs):
        raise ValueError(f"need one config per model, got {len(models)} and {len(configs)}")
    _check_population(configs)
    config = configs[0]
    if not train_samples:
        raise ValueError("need at least one training sample")
    if config.loss == "siamese" and len(train_samples) < 2:
        raise ValueError("siamese loss needs at least 2 training samples")
    # One run trains on its own arrays: the G=1 stack would give the same
    # bits through slower (1, ...)-shaped numpy calls.
    single = len(models) == 1
    stack = models[0].copy() if single else stack_models(models)
    if config.max_epochs == 0:
        return [(stack.member(k), []) for k in range(len(models))]

    obs, ctx, labels, step_labels = stack_samples(train_samples)
    weights = class_weights(labels)
    scored = stack_samples(val_samples) if val_samples else (obs, ctx, labels, step_labels)
    runs = [_Run(make_rng(cfg.seed + 2), stack.member(k)) for k, cfg in enumerate(configs)]
    state = make_adam_state(stack) if config.optimizer == "adam" else None
    # Stack member i is run active[i]; these arrays are indexed like the stack.
    active = list(range(len(runs)))
    eta, lam, beta = (
        getattr(config, f) if single else np.array([getattr(c, f) for c in configs])
        for f in ("eta", "lam", "beta")
    )

    tapes, tape = {}, None  # batch index shape -> its Tape, for this population size
    n = len(train_samples)
    for epoch in range(config.max_epochs):
        start = time.perf_counter()
        perms = [runs[k].rng.permutation(n) for k in active]
        orders = perms[0] if single else np.stack(perms)  # (n,) or (members, n)
        batch_sums = np.zeros((5,) + np.shape(lam))  # loss parts, per member
        n_batches = np.zeros(np.shape(lam), dtype=np.intp)  # batches each member trained on
        live = np.ones(np.shape(lam), dtype=bool)  # members with no non-finite batch loss yet
        for lo in range(0, n, config.batch_size):
            idx = orders[..., lo : lo + config.batch_size]
            if config.loss == "siamese" and idx.shape[-1] < 2:
                continue  # a trailing singleton batch has no pairs
            b, grads, tape = batch_gradients(
                stack,
                obs[idx],
                ctx[idx],
                labels[idx],
                step_labels[idx],
                weights,
                config.loss,
                lam,
                beta,
                tapes.get(idx.shape, tape),  # a tape of another shape lends its memory
            )
            tapes[idx.shape] = tape
            batch_sums += np.where(live, (b.total, b.segment, b.stepwise, b.pairwise, b.reg), 0.0)
            n_batches += live
            live &= np.isfinite(b.total)
            if not live.all():
                if not live.any():
                    break
                # a diverged member stays, frozen, until the epoch ends
                grads.theta[~live] = 0.0
                eta = np.where(live, eta, 0.0)
            optimizer_step(stack, grads, eta, state, config.clip_norm)

        micro, macro = threshold_validation_f1(stack, scored)
        seconds = time.perf_counter() - start
        # The one exit: at the end of an epoch, on divergence or patience.
        diverged = ~(live & np.isfinite(stack.theta).all(axis=-1)).reshape(-1)
        means = (batch_sums / n_batches).reshape(5, -1)  # every member trains on batch 0
        keep = []
        for i, k in enumerate(active):
            run, score, stopped = runs[k], micro[i] + macro[i], None
            if diverged[i]:
                stopped = "diverged"
            elif score > run.best_score:
                run.best_score = score
                run.best = stack.member(i)
                run.since_best = 0
            else:
                run.since_best += 1
                stopped = "patience" if run.since_best >= config.patience else None
            run.history.append(EpochRecord(epoch, LossBreakdown(*map(float, means[:, i])),
                                           micro[i], macro[i], seconds, stopped))
            if stopped is None:
                keep.append(i)
        if not keep:
            break
        if len(keep) < len(active):
            tapes.clear()  # they are shaped for the larger stack
            stack = stack.select(keep)
            if state is not None:
                state = AdamState(state.m[keep], state.v[keep], state.t)
            active = [active[i] for i in keep]
            eta, lam, beta = eta[keep], lam[keep], beta[keep]
    return [(run.best, run.history) for run in runs]


def _write_tsv(path, cols, rows) -> None:
    """A tab-separated table: the column names, then a line per row with
    floats as repr, which round-trips them, and other values as str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for row in rows:
            fh.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_history(history: list[EpochRecord], path) -> None:
    """Tab-separated history file; wall time stays out so bytes are stable."""
    cols = ("epoch", "segment", "stepwise", "pairwise", "reg", "total",
            "val_micro_f1", "val_macro_f1")
    _write_tsv(path, cols, ((rec.epoch, rec.loss.segment, rec.loss.stepwise,
                             rec.loss.pairwise, rec.loss.reg, rec.loss.total,
                             rec.val_micro_f1, rec.val_macro_f1) for rec in history))


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


FD_BYTES = 1 << 22  # bytes of perturbed parameters fd_gradient runs as one population


def fd_gradient(model: ForecastModel, obs, ctx, labels, step_labels, weights: np.ndarray,
                kind: str, lam: float, beta: float, fd_step: float) -> np.ndarray:
    """Central finite differences of batch_loss in every coordinate of one
    model's theta: rows 2k and 2k + 1 of a population hold theta with its
    coordinate k set to keep + fd_step and keep - fd_step. A member computes
    exactly what it computes alone; a chunk of FD_BYTES is one forward."""
    theta, numeric = model.theta, np.empty_like(model.theta)
    chunk = max(1, FD_BYTES // (2 * theta.nbytes))  # coordinates per population
    for lo in range(0, theta.size, chunk):
        k = np.arange(lo, min(lo + chunk, theta.size))
        rows, j = np.tile(theta, (len(k), 2, 1)), np.arange(len(k))
        rows[j, 0, k], rows[j, 1, k] = theta[k] + fd_step, theta[k] - fd_step
        work, lead = ForecastModel(rows.reshape(-1, theta.size), model.dims), (2 * len(k),)
        total = batch_loss(kind, predict(work, obs, ctx),
                           np.broadcast_to(labels, lead + labels.shape),
                           np.broadcast_to(step_labels, lead + step_labels.shape),
                           weights, work, np.full(lead, lam), np.full(lead, beta)).total
        numeric[k] = (total[0::2] - total[1::2]) / (2.0 * fd_step)
    return numeric


def grad_check(
    model: ForecastModel,
    samples: list[Sample],
    config: TrainConfig,
    fd_step: float = 1e-5,
) -> tuple[float, str]:
    """Compare analytic batch-loss gradients with fd_gradient's differences.

    Returns (max relative error, worst parameter coordinate, named by its
    block in the parameter layout and its index there). Cost is O(#params *
    forward), so keep the model small.
    """
    obs, ctx, labels, step_labels = stack_samples(samples)
    weights = class_weights(labels)
    args = (model, obs, ctx, labels, step_labels, weights, config.loss, config.lam, config.beta)
    _, grads, _ = batch_gradients(*args)
    numeric = fd_gradient(*args, fd_step)

    denom = np.maximum(np.maximum(np.abs(grads.theta), np.abs(numeric)), 1e-6)
    rel = np.abs(grads.theta - numeric) / denom
    worst = offset = int(np.argmax(rel))
    for name, shape in param_layout(model.dims):
        size = int(np.prod(shape))
        if offset < size:
            index = ", ".join(str(int(i)) for i in np.unravel_index(offset, shape))
            return float(rel[worst]), f"{name}[{index}]"
        offset -= size


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
) -> tuple[TrainConfig, ForecastModel, list[GridResult]]:
    """Train one model per grid point and keep the best validation scorer.

    Grid point k runs with seed base_seed + k; all points train together as
    one population (train_population), so they may differ only in eta,
    lam and beta. The winner maximizes micro + macro validation F1; exact
    ties prefer the smaller eta, then the larger lambda.
    """
    if not grid:
        raise ValueError("grid must not be empty")
    configs = [replace(cfg, seed=base_seed + k) for k, cfg in enumerate(grid)]
    models = [init_model(make_rng(cfg.seed + 1), dims) for cfg in configs]
    trained = train_population(models, train_samples, val_samples, configs)
    best = [m for m, _ in trained]
    # A snapshot was scored in the epoch it was taken: the first non-diverged
    # one with the highest micro + macro. Only an initial model (no such
    # epoch: max_epochs 0, or divergence in epoch 0) needs a forward here.
    kept = [[r for r in history if r.stopped != "diverged"] for _, history in trained]
    if all(kept):
        taken = [max(k, key=lambda r: r.val_micro_f1 + r.val_macro_f1) for k in kept]
        micro, macro = [r.val_micro_f1 for r in taken], [r.val_macro_f1 for r in taken]
    else:
        scored = stack_samples(val_samples or train_samples)
        micro, macro = threshold_validation_f1(stack_models(best), scored)
    results = [GridResult(cfg, mi, ma) for cfg, mi, ma in zip(configs, micro, macro)]
    winner = select_best(results)
    return results[winner].config, best[winner], results


def _rank_key(res: GridResult) -> tuple:
    """Highest micro + macro validation F1 first; exact ties prefer the
    smaller eta, then the larger lambda."""
    return (-res.score, res.config.eta, -res.config.lam)


def select_best(results: list[GridResult]) -> int:
    """Index of the first grid point in rank order (_rank_key)."""
    return min(range(len(results)), key=lambda k: _rank_key(results[k]))


def write_grid_report(results: list[GridResult], path) -> None:
    """Ranked tab-separated report of every grid point; the rank-1 row, the
    one select_best picks, is the selected one."""
    cols = ("rank", "loss", "eta", "lambda", "beta", "val_micro_f1",
            "val_macro_f1", "score", "selected")
    ranked = enumerate(sorted(results, key=_rank_key), start=1)
    _write_tsv(path, cols, ((rank, res.config.loss, res.config.eta, res.config.lam,
                             res.config.beta, res.val_micro_f1, res.val_macro_f1, res.score,
                             int(rank == 1)) for rank, res in ranked))
