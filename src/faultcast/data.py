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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .num import make_rng

FORMAT_NAME = "faultcast-dataset"
FORMAT_VERSION = 1

SOURCES = ("synthetic", "phm_adapter", "har_adapter")
# records one validation pass stacks: bounds the extra memory of a load or save
CHECK_RECORDS = 64


class DatasetError(ValueError):
    """A dataset file or record violates the schema."""


# ---------------------------------------------------------------------------
# The JSON file boundary
# ---------------------------------------------------------------------------
#
# Every faultcast JSON file (dataset header, model, grid file, report) is
# decoded by read_json and read by typed key through JsonField, so one set of
# type rules holds at every edge: true/false is never a number, and a
# numeric array is one whose numpy dtype comes out integer or floating.

_REQUIRED = object()
_KINDS = {  # kind: (its name in errors, the decoded types it accepts besides bool)
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
    list: ("a JSON list", list),
    dict: ("a JSON object", dict),
}


class JsonField:
    """A value decoded from a JSON file, named in every error by `where`
    (the file, and its line for a dataset header) and its dotted key; the
    document itself has the empty key."""

    __slots__ = ("value", "where", "key")

    def __init__(self, value, where: str, key: str = ""):
        self.value, self.where, self.key = value, where, key

    def error(self, problem: str) -> DatasetError:
        return DatasetError(f"{self.where}: key {self.key!r}: {problem}" if self.key
                            else f"{self.where}: {problem}")

    def field(self, key: str) -> "JsonField":
        """The member at dotted `key` below this JSON object."""
        node = self
        for part in key.split("."):
            members = node.read(dict).value
            name = f"{node.key}.{part}" if node.key else part
            if part not in members:
                raise DatasetError(f"{self.where}: missing key {name!r}")
            node = JsonField(members[part], self.where, name)
        return node

    def get(self, key: str, kind, default=_REQUIRED, shape=None):
        """The member at dotted `key`, read as `kind` (see read). With a
        `default`, `key` is one plain key, and `default` stands for it when
        it is missing."""
        if default is not _REQUIRED and key not in self.read(dict).value:
            return default
        return self.field(key).read(kind, shape)

    def read(self, kind, shape=None):
        """This value as `kind`: an int, float or str; this field for dict;
        a field per item for list; for np.ndarray, a float64 array of
        `shape`."""
        if kind is np.ndarray:
            try:
                arr = np.array(self.value)
            except ValueError:  # ragged nesting
                arr = None
            if arr is None or arr.dtype.kind not in "iuf":
                raise self.error("must be a numeric array")
            if arr.shape != shape:
                raise self.error(f"has shape {arr.shape}, need {shape}")
            return arr.astype(np.float64)
        name, types = _KINDS[kind]
        if isinstance(self.value, bool) or not isinstance(self.value, types):
            raise self.error(f"must be {name}, got {json.dumps(self.value)[:40]}")
        if kind is dict:
            return self
        if kind is list:
            return [JsonField(v, self.where, f"{self.key}[{k}]") for k, v in enumerate(self.value)]
        return float(self.value) if kind is float else self.value


def read_json(path, fmt: tuple[str, int] | None = None, line: str | None = None) -> JsonField:
    """The JSON document in the file at `path`, or in `line`, the dataset
    header read from its first line. With fmt = (name, version), the
    document must be an object whose "format" and "version" keys hold them.
    Every error is a DatasetError naming the file."""
    where = str(path) if line is None else f"{path}: line 1"
    try:
        if line is None:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.loads(line)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DatasetError(f"{where}: invalid JSON ({exc})") from None
    root = JsonField(doc, where)
    if fmt is not None:
        name, version = fmt
        found = doc.get("format") if isinstance(doc, dict) else None
        if found != name:
            raise root.error(f"not a {name} file: key 'format' holds {found!r}")
        if root.get("version", int) != version:
            raise root.error(f"unsupported {name} version {doc['version']}")
    return root


@dataclass(frozen=True)
class ModelDims:
    """The problem dims a dataset and its models share; the only place
    they are declared and range-checked."""

    n_labels: int
    d_obs: int
    d_ctx: int
    tau: int          # observed steps
    total_steps: int  # observed + forecast steps

    def __post_init__(self):
        if self.n_labels < 1:
            raise DatasetError(f"need n_labels >= 1, got n_labels={self.n_labels}")
        if not 0 <= self.tau < self.total_steps:
            raise DatasetError(
                f"need 0 <= tau < total_steps, got tau={self.tau}, "
                f"total_steps={self.total_steps}"
            )
        if self.d_obs < 0 or self.d_ctx < 0:
            raise DatasetError(f"negative feature dims: d_obs={self.d_obs}, d_ctx={self.d_ctx}")

    @classmethod
    def read(cls, record: JsonField) -> "ModelDims":
        """The dims held as JSON integers by the object `record`."""
        values = {f.name: record.get(f.name, int) for f in fields(cls)}
        try:
            return cls(**values)
        except DatasetError as exc:
            raise record.error(str(exc)) from None

    @property
    def horizon(self) -> int:
        return self.total_steps - self.tau

    @property
    def enc_input(self) -> int:
        return self.d_obs + self.d_ctx + self.n_labels

    @property
    def dec_input(self) -> int:
        return self.d_ctx + self.n_labels


@dataclass(frozen=True)
class DatasetMeta:
    dims: ModelDims
    label_names: tuple[str, ...]
    source: str = "synthetic"

    def __post_init__(self):
        if len(self.label_names) != self.dims.n_labels:
            raise DatasetError(
                f"{len(self.label_names)} label names for {self.dims.n_labels} labels"
            )
        if self.source not in SOURCES:
            raise DatasetError(f"unknown source {self.source!r}")

    n_labels = property(lambda self: self.dims.n_labels)
    d_obs = property(lambda self: self.dims.d_obs)
    d_ctx = property(lambda self: self.dims.d_ctx)
    tau = property(lambda self: self.dims.tau)
    total_steps = property(lambda self: self.dims.total_steps)
    horizon = property(lambda self: self.dims.horizon)


@dataclass
class Sample:
    obs: np.ndarray          # (tau, d_obs) historical observations
    ctx: np.ndarray          # (total_steps, d_ctx) context, known throughout
    labels: np.ndarray       # (n_labels,) binary segment label
    step_labels: np.ndarray  # (horizon, n_labels) binary stepwise labels


def _first_error(meta: DatasetMeta, samples: list[Sample]) -> tuple[int, str] | None:
    """(index, reason) of the first sample that breaks the schema, by the
    first rule it breaks, or None; checked CHECK_RECORDS samples at a time."""
    for start in range(0, len(samples), CHECK_RECORDS):
        if bad := _first_error_in(meta, samples[start : start + CHECK_RECORDS]):
            return start + bad[0], bad[1]
    return None


def _first_error_in(meta: DatasetMeta, samples: list[Sample]) -> tuple[int, str] | None:
    """_first_error of one chunk. Shapes are checked sample by sample, then
    values over the stack of the samples before any bad shape, a rule a pass."""
    d = meta.dims
    for index, s in enumerate(samples):
        for name, arr, shape in (("observations", s.obs, (d.tau, d.d_obs)),
                                 ("context", s.ctx, (d.total_steps, d.d_ctx)),
                                 ("segment label", s.labels, (d.n_labels,)),
                                 ("stepwise label", s.step_labels, (d.horizon, d.n_labels))):
            if arr.shape != shape:  # a sample before it may break a value rule
                return (_first_error_in(meta, samples[:index])
                        or (index, f"{name} shape {arr.shape} != {shape}"))
    if not samples:
        return None
    obs, ctx, labels, step_labels = stack_samples(samples)
    rules = {"non-finite observation or context value":
             ~(np.isfinite(obs).all(axis=(1, 2)) & np.isfinite(ctx).all(axis=(1, 2))),
             "segment labels must be binary": ~((labels == 0.0) | (labels == 1.0)).all(axis=1),
             "stepwise labels must be binary":
             ~((step_labels == 0.0) | (step_labels == 1.0)).all(axis=(1, 2)),
             "segment label inconsistent with stepwise labels":
             ((step_labels.sum(axis=1) > 0) != labels).any(axis=1)}
    broken = np.stack(list(rules.values()))  # (rule, sample)
    index = int(np.argmax(broken.any(axis=0)))
    return (index, list(rules)[int(np.argmax(broken[:, index]))]) if broken.any() else None


def save_dataset(path, meta: DatasetMeta, samples: list[Sample]) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        **asdict(meta.dims),
        "label_names": list(meta.label_names),
        "source": meta.source,
    }
    if bad := _first_error(meta, samples):  # before the file opens: no partial file
        raise DatasetError(f"sample {bad[0]}: {bad[1]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for s in samples:
            rec = {
                "obs": s.obs.tolist(),
                "ctx": s.ctx.tolist(),
                "labels": s.labels.astype(int).tolist(),
                "step_labels": s.step_labels.astype(int).tolist(),
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def _read_header(path, line: str) -> DatasetMeta:
    """Parse and schema-check a dataset's first line."""
    header = read_json(path, (FORMAT_NAME, FORMAT_VERSION), line)
    dims = ModelDims.read(header)
    names = tuple(name.read(str) for name in header.get("label_names", list))
    try:
        return DatasetMeta(dims, names, header.get("source", str))
    except DatasetError as exc:
        raise header.error(str(exc)) from None


def load_dataset(path) -> tuple[DatasetMeta, list[Sample]]:
    """Read and fully validate a dataset file.

    Samples are numbered by record, blank lines skipped; an error in one
    names the file, its 1-based line and the sample index. Records are
    parsed up to the first malformed one and then validated, CHECK_RECORDS
    at a time; the first bad record in file order is reported.
    """
    samples, lines, malformed = [], [], None
    with open(path, "r", encoding="utf-8") as fh:
        meta = _read_header(path, fh.readline())
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            lines.append(lineno)
            try:
                rec = json.loads(line)
                samples.append(Sample(
                    obs=np.asarray(rec["obs"], dtype=np.float64),
                    ctx=np.asarray(rec["ctx"], dtype=np.float64),
                    labels=np.asarray(rec["labels"], dtype=np.float64),
                    step_labels=np.asarray(rec["step_labels"], dtype=np.float64),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                malformed = len(samples), f"malformed record ({exc})"
                break
    bad = _first_error(meta, samples) or malformed
    if bad is not None:
        raise DatasetError(f"{path}: line {lines[bad[0]]}: sample {bad[0]}: {bad[1]}")
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
        ModelDims(config.n_labels, config.d_obs, config.d_ctx, tau, steps),
        label_names=tuple(f"fault_{l + 1}" for l in range(config.n_labels)),
        source="synthetic",
    )
    return meta, samples
