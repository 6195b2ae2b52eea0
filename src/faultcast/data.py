"""Dataset schema, ingestion/validation, splitting, and the synthetic
plant-style generator.

A dataset file is JSON Lines: the first line is a header record carrying the
metadata, every following line is one sample with matrices as nested arrays
(row major). Floats are written with shortest-repr encoding, so a save/load
round trip is bit exact and identical datasets produce identical bytes.

Every sample obeys the consistency identity

    labels[l] == 1  iff  step_labels[:, l] contains a 1

which is validated on load and guaranteed by construction when generating.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .num import make_rng

FORMAT_NAME = "faultcast-dataset"
FORMAT_VERSION = 1

SOURCES = ("synthetic", "phm_adapter", "har_adapter")


class DatasetError(ValueError):
    """A dataset file or record violates the schema."""


@dataclass(frozen=True)
class DatasetMeta:
    tau: int
    total_steps: int
    n_labels: int
    d_obs: int
    d_ctx: int
    label_names: tuple[str, ...]
    source: str = "synthetic"

    def __post_init__(self):
        if self.n_labels < 1:
            raise DatasetError(f"n_labels must be >= 1, got {self.n_labels}")
        if not 0 <= self.tau < self.total_steps:
            raise DatasetError(
                f"need 0 <= tau < total_steps, got tau={self.tau}, "
                f"total_steps={self.total_steps}"
            )
        if self.d_obs < 0 or self.d_ctx < 0:
            raise DatasetError(f"negative feature dims: d_obs={self.d_obs}, d_ctx={self.d_ctx}")
        if len(self.label_names) != self.n_labels:
            raise DatasetError(
                f"{len(self.label_names)} label names for {self.n_labels} labels"
            )
        if self.source not in SOURCES:
            raise DatasetError(f"unknown source {self.source!r}")

    @property
    def horizon(self) -> int:
        return self.total_steps - self.tau


@dataclass
class Sample:
    obs: np.ndarray          # (tau, d_obs) historical observations
    ctx: np.ndarray          # (total_steps, d_ctx) context, known throughout
    labels: np.ndarray       # (n_labels,) binary segment label
    step_labels: np.ndarray  # (horizon, n_labels) binary stepwise labels


def validate_sample(meta: DatasetMeta, sample: Sample, index: int) -> None:
    """Raise DatasetError naming the sample index and the violated rule."""

    def fail(reason: str):
        raise DatasetError(f"sample {index}: {reason}")

    if sample.obs.shape != (meta.tau, meta.d_obs):
        fail(f"observations shape {sample.obs.shape} != ({meta.tau}, {meta.d_obs})")
    if sample.ctx.shape != (meta.total_steps, meta.d_ctx):
        fail(f"context shape {sample.ctx.shape} != ({meta.total_steps}, {meta.d_ctx})")
    if sample.labels.shape != (meta.n_labels,):
        fail(f"segment label shape {sample.labels.shape} != ({meta.n_labels},)")
    if sample.step_labels.shape != (meta.horizon, meta.n_labels):
        fail(
            f"stepwise label shape {sample.step_labels.shape} != "
            f"({meta.horizon}, {meta.n_labels})"
        )
    if not (np.isfinite(sample.obs).all() and np.isfinite(sample.ctx).all()):
        fail("non-finite observation or context value")
    for name, arr in (("segment", sample.labels), ("stepwise", sample.step_labels)):
        if not np.isin(arr, (0.0, 1.0)).all():
            fail(f"{name} labels must be binary")
    derived = (sample.step_labels.sum(axis=0) > 0).astype(np.float64)
    if not np.array_equal(derived, sample.labels):
        fail("segment label inconsistent with stepwise labels")


def save_dataset(path, meta: DatasetMeta, samples: list[Sample]) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "tau": meta.tau,
        "total_steps": meta.total_steps,
        "n_labels": meta.n_labels,
        "d_obs": meta.d_obs,
        "d_ctx": meta.d_ctx,
        "label_names": list(meta.label_names),
        "source": meta.source,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for i, s in enumerate(samples):
            validate_sample(meta, s, i)
            rec = {
                "obs": s.obs.tolist(),
                "ctx": s.ctx.tolist(),
                "labels": s.labels.astype(int).tolist(),
                "step_labels": s.step_labels.astype(int).tolist(),
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


# Header keys after format and version, with the JSON type each must have.
HEADER_KEYS = {
    "tau": int,
    "total_steps": int,
    "n_labels": int,
    "d_obs": int,
    "d_ctx": int,
    "label_names": list,
    "source": str,
}


def _read_header(path, line: str) -> DatasetMeta:
    """Parse and schema-check a dataset's first line."""
    where = f"{path}: line 1"
    if not line.strip():
        raise DatasetError(f"{where}: empty file, expected a header record")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{where}: invalid JSON ({exc})") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != FORMAT_NAME:
        raise DatasetError(f"{where}: not a dataset file: format={fmt!r}")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetError(f"{where}: unsupported version {header.get('version')!r}")
    for key, kind in HEADER_KEYS.items():
        if key not in header:
            raise DatasetError(f"{where}: header lacks key {key!r}")
        value = header[key]
        # bool is an int subclass, but true/false is no dimension
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DatasetError(f"{where}: header key {key!r} must be a JSON {kind.__name__}")
    if not all(isinstance(name, str) for name in header["label_names"]):
        raise DatasetError(f"{where}: header key 'label_names' must list strings")
    try:
        return DatasetMeta(
            **{key: header[key] for key in HEADER_KEYS if key != "label_names"},
            label_names=tuple(header["label_names"]),
        )
    except DatasetError as exc:
        raise DatasetError(f"{where}: {exc}") from None


def load_dataset(path) -> tuple[DatasetMeta, list[Sample]]:
    """Read and fully validate a dataset file.

    Samples are numbered by record, blank lines skipped; an error in one
    names the file, its 1-based line and the sample index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta = _read_header(path, fh.readline())
        samples = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            index = len(samples)
            try:
                rec = json.loads(line)
                sample = Sample(
                    obs=np.asarray(rec["obs"], dtype=np.float64),
                    ctx=np.asarray(rec["ctx"], dtype=np.float64),
                    labels=np.asarray(rec["labels"], dtype=np.float64),
                    step_labels=np.asarray(rec["step_labels"], dtype=np.float64),
                )
                validate_sample(meta, sample, index)
            except DatasetError as exc:  # validate_sample names the sample
                raise DatasetError(f"{path}: line {lineno}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError(
                    f"{path}: line {lineno}: sample {index}: malformed record ({exc})"
                ) from None
            samples.append(sample)
    return meta, samples


def split_samples(samples: list[Sample], sizes: tuple[int, int, int], seed: int):
    """Seeded shuffle, then contiguous slices of the requested sizes."""
    n_train, n_val, n_test = sizes
    if min(sizes) < 0:
        raise ValueError(f"split sizes must be non-negative, got {sizes}")
    if n_train + n_val + n_test > len(samples):
        raise ValueError(
            f"split sizes {sizes} need {n_train + n_val + n_test} samples, "
            f"dataset has {len(samples)}"
        )
    order = make_rng(seed).permutation(len(samples))
    picked = [samples[i] for i in order]
    return (
        picked[:n_train],
        picked[n_train : n_train + n_val],
        picked[n_train + n_val : n_train + n_val + n_test],
    )


def class_stats(samples: list[Sample]) -> np.ndarray:
    """Per-label count of samples whose segment label is 1."""
    if not samples:
        raise ValueError("need at least one sample")
    return np.sum([s.labels for s in samples], axis=0).astype(int)


def stack_samples(samples: list[Sample]):
    """Batch a sample list into (obs, ctx, labels, step_labels) arrays."""
    return (
        np.stack([s.obs for s in samples]),
        np.stack([s.ctx for s in samples]),
        np.stack([s.labels for s in samples]),
        np.stack([s.step_labels for s in samples]),
    )


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------
#
# Context channels are piecewise-constant setpoint schedules. Each sensor
# channel follows a first-order lag toward its assigned setpoint channel plus
# Gaussian noise. Label l watches setpoint channel (l mod d_ctx) through the
# committed trigger statistic
#
#     stat(t) = max(setpoint jump at t, 0)
#               + DEV_GAIN * max(setpoint(t) - lag_path(t), 0)
#
# where lag_path is the noiseless lag response, so a fault is an upward
# setpoint move the plant has not caught up with yet. A label fires when
# stat exceeds threshold * rarity for that label at a forecast step, and
# persists for a pre-drawn duration. Raising a threshold can only remove
# firings, so label frequency is monotone in it. All randomness is pre-drawn
# in a fixed order, which keeps the stream identical across threshold
# changes.

CHANGE_PROB = 0.35  # per-step probability of a new setpoint level
LEVEL_SD = 1.0      # setpoint levels are N(0, LEVEL_SD^2)
DEV_GAIN = 1.2      # weight of the lag deviation term in the trigger


@dataclass(frozen=True)
class SynthConfig:
    tau: int = 4
    total_steps: int = 10
    n_labels: int = 4
    d_obs: int = 2
    d_ctx: int = 1
    thresholds: tuple = (0.66, 0.66, 0.66, 0.66)
    rarity: tuple = (1.2, 2.8, 4.6, 6.6)
    persistence: tuple = (2, 4)  # inclusive range of steps a label stays on
    lag: float = 0.4
    noise_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if len(self.thresholds) != self.n_labels or len(self.rarity) != self.n_labels:
            raise ValueError("thresholds and rarity must have one entry per label")
        if min(self.thresholds) <= 0:
            raise ValueError("thresholds must be positive")
        if not 0.0 < self.lag < 1.0:
            raise ValueError(f"lag must lie in (0, 1), got {self.lag}")
        lo, hi = self.persistence
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid persistence range {self.persistence}")


DEFAULT_SYNTH_CONFIG = SynthConfig()


def _lag_path(ctx: np.ndarray, lag: float) -> np.ndarray:
    path = np.empty_like(ctx)
    path[0] = ctx[0]
    for t in range(1, ctx.shape[0]):
        path[t] = path[t - 1] + lag * (ctx[t] - path[t - 1])
    return path


def synth_generate(config: SynthConfig, n: int) -> tuple[DatasetMeta, list[Sample]]:
    """Generate n samples; deterministic for a given (config, n)."""
    if n < 0:
        raise ValueError(f"sample count n must be >= 0, got {n}")
    rng = make_rng(config.seed)
    steps, tau = config.total_steps, config.tau
    horizon = steps - tau
    eff_threshold = np.asarray(config.thresholds) * np.asarray(config.rarity)
    channel = np.arange(config.n_labels) % config.d_ctx
    lo, hi = config.persistence

    samples = []
    for _ in range(n):
        change = rng.uniform(size=(steps, config.d_ctx)) < CHANGE_PROB
        levels = rng.normal(0.0, LEVEL_SD, size=(steps, config.d_ctx))
        noise = rng.normal(0.0, 1.0, size=(tau, config.d_obs))
        durations = rng.integers(lo, hi + 1, size=(steps, config.n_labels))

        ctx = np.empty((steps, config.d_ctx))
        ctx[0] = levels[0]
        for t in range(1, steps):
            ctx[t] = np.where(change[t], levels[t], ctx[t - 1])

        path = _lag_path(ctx, config.lag)
        obs = path[:tau, np.arange(config.d_obs) % config.d_ctx]
        obs = obs + config.noise_scale * noise

        jump = np.maximum(np.diff(ctx, axis=0, prepend=ctx[:1]), 0.0)
        dev = np.maximum(ctx - path, 0.0)
        stat = jump[:, channel] + DEV_GAIN * dev[:, channel]

        step_labels = np.zeros((horizon, config.n_labels))
        for t in range(tau, steps):
            fired = stat[t] > eff_threshold
            for l in np.nonzero(fired)[0]:
                end = min(t + int(durations[t, l]), steps)
                step_labels[t - tau : end - tau, l] = 1.0
        labels = (step_labels.sum(axis=0) > 0).astype(np.float64)
        samples.append(Sample(obs, ctx, labels, step_labels))

    meta = DatasetMeta(
        tau=tau,
        total_steps=steps,
        n_labels=config.n_labels,
        d_obs=config.d_obs,
        d_ctx=config.d_ctx,
        label_names=tuple(f"fault_{l + 1}" for l in range(config.n_labels)),
        source="synthetic",
    )
    return meta, samples
