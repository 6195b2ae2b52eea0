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
on its own; a stopped member leaves the stack, and a diverged one gets no
further update. train is the one-member case, and grid_search trains every
grid point as one population.

Sub-seed arithmetic used throughout the package, all derived from one user
seed: split shuffle = seed, model init = seed + 1, batch shuffle = seed + 2,
classifier fits = seed + 3, grid point k = seed + k.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

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
    stack_models,
)
from .num import make_rng, per_member

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
    seconds: float  # wall time of the whole population's epoch


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


def clip_gradients(grads, clip_norm: float):
    """Scale all gradients so their global norm is at most clip_norm; a
    population gets one norm per member. Returns the norm(s) before clipping."""
    arrays = [arr for _, arr in fused_items(grads)]
    lead = grads.out_bias.ndim - 1  # 1 for a population's member axis
    norm = np.sqrt(sum(np.sum(a * a, axis=tuple(range(lead, a.ndim))) for a in arrays))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where((norm > clip_norm) & (norm > 0.0), clip_norm / norm, 1.0)
    for arr in arrays:
        arr *= per_member(scale, arr.ndim - 1)
    return norm


def optimizer_step(
    model: ForecastModel,
    grads,
    eta,
    state: AdamState | None = None,
    clip_norm: float | None = None,
) -> ForecastModel:
    """Update parameters in place; Adam when a state is given, else plain SGD.

    Runs over the five whole parameter arrays (fused_items), so every gate
    of a cell moves in one update. For a population, eta may be a (G,)
    vector of per-member learning rates.
    """
    if clip_norm is not None:
        clip_gradients(grads, clip_norm)
    pairs = zip(fused_items(model), fused_items(grads))
    if state is None:
        for (_, p), (_, g) in pairs:
            p -= per_member(eta, p.ndim - 1) * g
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
        p -= per_member(eta, p.ndim - 1) * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
    return model


def _add_l2_gradient(grads, model: ForecastModel, lam) -> None:
    """grads.W += lam * W for both cells; lam may be a population's (G,)
    vector, and members with lam 0 are left untouched."""
    cells = ((grads.encoder, model.encoder), (grads.decoder, model.decoder))
    if not isinstance(lam, np.ndarray):
        if lam != 0.0:
            for g, p in cells:
                g.W += lam * p.W
        return
    if lam.all():
        for g, p in cells:
            g.W += per_member(lam, 2) * p.W
        return
    for k in np.flatnonzero(lam):
        for g, p in cells:
            g.W[k] += lam[k] * p.W[k]


def batch_gradients(
    model: ForecastModel,
    obs: np.ndarray,
    ctx: np.ndarray,
    labels: np.ndarray,
    step_labels: np.ndarray,
    weights: ClassWeights,
    kind: str,
    lam,
    beta,
):
    """Loss breakdown and parameter gradients for one batch (one batch per
    member for a population, with per-member lam and beta)."""
    pred, tape = forward(model, obs, ctx)
    breakdown = batch_loss(kind, pred, labels, step_labels, weights, model, lam, beta)
    dy, do, dg = batch_adjoints(kind, pred, labels, step_labels, weights, beta)
    grads = backward(model, tape, dy, do, dg)
    _add_l2_gradient(grads, model, lam)
    return breakdown, grads


def threshold_validation_f1(model: ForecastModel, samples: list[Sample]):
    """(micro_f1, macro_f1) of threshold-at-zero decisions on the embeddings;
    for a population, (micro list, macro list) with one entry per member,
    from one forward pass."""
    obs, ctx, labels, _ = stack_samples(samples)
    pred = forward(model, obs, ctx, keep_tape=False)[0]
    decisions = (pred.embedding > 0.0).astype(np.int8)
    truth = labels.astype(int)
    if model.population is None:
        report = segment_report(decisions, truth)
        return report.micro_f1, report.macro_f1
    reports = [segment_report(d, truth) for d in decisions]
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
    a non-finite batch loss ends the run immediately (the best snapshot so
    far still wins). With an empty validation list the proxy is scored on
    the training split instead. This is train_population with one member.
    """
    return train_population([model], train_samples, val_samples, [config])[0]


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
    _check_dims(stack.dims, obs, ctx, labels)
    weights = class_weights(labels)
    scored_samples = val_samples if val_samples else train_samples
    runs = [_Run(make_rng(cfg.seed + 2), stack.member(k)) for k, cfg in enumerate(configs)]
    state = make_adam_state(stack) if config.optimizer == "adam" else None
    # Stack member i is run active[i]; these arrays are indexed like the stack.
    active = list(range(len(runs)))
    eta, lam, beta = (
        getattr(config, f) if single else np.array([getattr(c, f) for c in configs])
        for f in ("eta", "lam", "beta")
    )

    def keep_members(keep):
        """Shrink the stack, its optimizer state and hyperparameters to the
        listed members."""
        nonlocal stack, state, active, eta, lam, beta
        stack = stack.select(keep)
        if state is not None:
            state = AdamState({k: a[keep] for k, a in state.m.items()},
                              {k: a[keep] for k, a in state.v.items()}, state.t)
        active = [active[i] for i in keep]
        eta, lam, beta = eta[keep], lam[keep], beta[keep]

    n = len(train_samples)
    for epoch in range(config.max_epochs):
        start = time.perf_counter()
        perms = [runs[k].rng.permutation(n) for k in active]
        orders = perms[0] if single else np.stack(perms)  # (n,) or (members, n)
        batch_sums = np.zeros((5,) + np.shape(lam))  # loss parts, per member
        n_batches = 0
        diverged = []  # (run, model, loss sums, batches) of runs that diverged this epoch
        for lo in range(0, n, config.batch_size):
            idx = orders[..., lo : lo + config.batch_size]
            if config.loss == "siamese" and idx.shape[-1] < 2:
                continue  # a trailing singleton batch has no pairs
            breakdown, grads = batch_gradients(
                stack,
                obs[idx],
                ctx[idx],
                labels[idx],
                step_labels[idx],
                weights,
                config.loss,
                lam,
                beta,
            )
            b = breakdown
            batch_sums += (b.total, b.segment, b.stepwise, b.pairwise, b.reg)
            n_batches += 1
            finite = np.isfinite(b.total)
            if not finite.all():
                sums = batch_sums.reshape(5, -1)
                for i in np.flatnonzero(~finite):
                    diverged.append((active[i], stack.member(i), sums[:, i], n_batches))
                keep = np.flatnonzero(finite)
                if not len(keep):
                    active = []
                    break
                keep_members(keep)
                orders, batch_sums = orders[keep], batch_sums[:, keep]
                grads = grads.select(keep)
            optimizer_step(stack, grads, eta, state, config.clip_norm)

        # Score every run that trained this epoch in one forward pass.
        sums = batch_sums.reshape(5, -1)
        scored = [(k, sums[:, i], n_batches) for i, k in enumerate(active)]
        scored += [(k, sums, count) for k, _, sums, count in diverged]
        val_model = stack
        if diverged:
            val_model = stack_models(
                [stack.member(i) for i in range(len(active))] + [m for _, m, _, _ in diverged]
            )
        micro, macro = threshold_validation_f1(val_model, scored_samples)
        if val_model.population is None:
            micro, macro = [micro], [macro]
        seconds = time.perf_counter() - start
        for (k, sums, count), mi, ma in zip(scored, micro, macro):
            mean = sums / max(count, 1)
            runs[k].history.append(
                EpochRecord(epoch, LossBreakdown(*(float(v) for v in mean)), mi, ma, seconds)
            )

        keep = []
        for i, k in enumerate(active):
            run, score = runs[k], micro[i] + macro[i]
            if score > run.best_score:
                run.best_score = score
                run.best = stack.member(i)
                run.since_best = 0
            else:
                run.since_best += 1
                if run.since_best >= config.patience:
                    continue
            keep.append(i)
        if not keep:
            break
        if len(keep) < len(active):
            keep_members(np.array(keep, dtype=np.intp))
    return [(run.best, run.history) for run in runs]


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
    best = [m for m, _ in train_population(models, train_samples, val_samples, configs)]
    micro, macro = threshold_validation_f1(
        stack_models(best), val_samples if val_samples else train_samples
    )
    results = [GridResult(cfg, mi, ma) for cfg, mi, ma in zip(configs, micro, macro)]
    winner = select_best(results)
    return results[winner].config, best[winner], results


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
