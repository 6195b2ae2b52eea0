"""Dataset schema, ingestion/validation, splitting, and the synthetic
plant-style generator.

A dataset file is JSON Lines: the first line is a header record carrying the
metadata, every following line is one sample with matrices as nested arrays
(row major). Floats are written with shortest-repr encoding, so a save/load
round trip is bit exact and identical datasets produce identical bytes.

Every sample obeys the consistency identity

    labels[l] == 1  iff  step_labels[:, l] contains a 1

stated once, in segment_labels: the generator and the converters build their
segment labels with it, and load and save validate against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import chain, islice

import numpy as np

from .num import make_rng

FORMAT_NAME = "faultcast-dataset"
FORMAT_VERSION = 1

SOURCES = ("synthetic", "phm_adapter", "har_adapter")
# records one load block or save check converts at most, and samples one
# generator block holds: bounds the extra memory of a load, save or generate
CHECK_RECORDS = 64
# numbers one load block decodes at most, by the header's dims, so that its
# decoded JSON stays small: 178 synthetic records of 46 numbers would fit
# (CHECK_RECORDS caps them at 64), three HAR-shaped ones of 2,436
BLOCK_NUMBERS = 2**13


class DatasetError(ValueError):
    """A dataset file or record violates the schema."""


# ---------------------------------------------------------------------------
# The JSON file boundary
# ---------------------------------------------------------------------------
#
# Every faultcast JSON file (dataset header, model, grid file, report) is
# decoded by read_json and read by typed key through JsonField, and the
# dataset's sample records by load_dataset, so one set of type rules holds
# at every edge: true/false is never a number, and a numeric array holds
# numbers by numeric_array's rule. Every JSON file is written by
# write_json_lines or, for a report, by one cli writer.

_REQUIRED = object()
_KINDS = {  # kind: (its name in errors, the decoded types it accepts besides bool)
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
    list: ("a JSON list", list),
    dict: ("a JSON object", dict),
}


def numeric_array(value) -> np.ndarray | None:
    """The decoded JSON `value` as a float64 array if numpy reads it as
    integers or floats, else None: a string or null inside, an array of
    only true/false and ragged nesting are no numeric array. The check
    reads the array's dtype, not each element, so a true among numbers
    reads as 1. An integer of any size reads as its float spelling does:
    100000000000000000000 as 1e20, one past float64's range as inf."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        return None
    if arr.dtype == object:  # an integer past 64 bits, or a non-number inside
        if not all(isinstance(v, (int, float)) for v in arr.flat):
            return None
        return np.array([_json_float(v) for v in arr.flat]).reshape(arr.shape)
    return arr.astype(np.float64, copy=False) if arr.dtype.kind in "iuf" else None


def _json_float(number) -> float:
    """float(number), or +-inf for an integer past float64's range."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def write_json_lines(path, records) -> int:
    """Write each record of the iterable `records` as one line of compact
    JSON with sorted keys; returns the number of lines. Floats take the
    shortest repr that round-trips, so float64 values reload bit for bit
    and identical records give identical bytes."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, record in enumerate(records, start=1):
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return count


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
            arr = numeric_array(self.value)
            if arr is None:
                raise self.error("must be a numeric array")
            if arr.shape != shape:
                raise self.error(f"has shape {arr.shape}, need {shape}")
            return arr
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
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
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


@dataclass
class Sample:
    obs: np.ndarray          # (tau, d_obs) historical observations
    ctx: np.ndarray          # (total_steps, d_ctx) context, known throughout
    labels: np.ndarray       # (n_labels,) binary segment label
    step_labels: np.ndarray  # (horizon, n_labels) binary stepwise labels


def segment_labels(step_labels: np.ndarray) -> np.ndarray:
    """The 0/1 segment labels that (..., horizon, labels) stepwise labels
    imply: a label is 1 iff it is 1 at some forecast step."""
    return (step_labels.sum(axis=-2) > 0).astype(np.float64)


def _record_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """The shape of each array of a sample record, by its key, in
    Sample's field order."""
    return {"obs": (dims.tau, dims.d_obs), "ctx": (dims.total_steps, dims.d_ctx),
            "labels": (dims.n_labels,), "step_labels": (dims.horizon, dims.n_labels)}


_SHAPE_NAMES = {"obs": "observations", "ctx": "context", "labels": "segment label",
                "step_labels": "stepwise label"}


def _as_declared(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """`arr`, or an empty `arr` as `shape` when `shape` holds no numbers
    either: the JSON [] of a (0, d) array keeps no inner dimension."""
    return arr.reshape(shape) if arr.size == 0 and math.prod(shape) == 0 else arr


def _value_error(obs, ctx, labels, step_labels) -> tuple[int, str] | None:
    """(index, reason) of the first sample of stacked, well-shaped arrays
    that breaks a value rule, by the first rule it breaks, or None."""
    rules = {"non-finite observation or context value":
             ~(np.isfinite(obs).all(axis=(1, 2)) & np.isfinite(ctx).all(axis=(1, 2))),
             "segment labels must be binary": ~((labels == 0.0) | (labels == 1.0)).all(axis=1),
             "stepwise labels must be binary":
             ~((step_labels == 0.0) | (step_labels == 1.0)).all(axis=(1, 2)),
             "segment label inconsistent with stepwise labels":
             (segment_labels(step_labels) != labels).any(axis=1)}
    broken = np.stack(list(rules.values()))  # (rule, sample)
    index = int(np.argmax(broken.any(axis=0)))
    return (index, list(rules)[int(np.argmax(broken[:, index]))]) if broken.any() else None


def _convert(records: list, shapes: dict) -> list[np.ndarray] | str:
    """The (records, *shape) float64 array of each key of `records`, one
    numeric_array call a key, or the reason they fail, by the first rule
    they break: a missing key or a record that is no object, then a key
    that holds no numeric array, then one of another shape."""
    try:
        columns = [[rec[key] for rec in records] for key in shapes]
    except (KeyError, TypeError) as exc:
        return f"malformed record ({exc})"
    arrays = [numeric_array(column) for column in columns]
    for key, arr in zip(shapes, arrays):
        if arr is None:
            return f"key {key!r}: must be a numeric array"
    arrays = [_as_declared(arr, (len(records), *shape))
              for arr, shape in zip(arrays, shapes.values())]
    for (key, shape), arr in zip(shapes.items(), arrays):
        if arr.shape[1:] != shape:
            return f"{_SHAPE_NAMES[key]} shape {arr.shape[1:]} != {shape}"
    return arrays


def _check(records: list, shapes: dict, whole: bool):
    """(samples, bad): the samples of `records` up to the first that breaks
    the schema, and that one's (index, reason) or None; its reason is
    _convert's, else _value_error's. The records are converted whole when
    `whole`, else, or when that conversion fails, one at a time."""
    # a lone record is converted alone below anyway, and _value_error takes no empty stack
    converted = _convert(records, shapes) if whole and len(records) > 1 else None
    parts = ([(0, converted)] if isinstance(converted, list)
             else ((index, _convert([rec], shapes)) for index, rec in enumerate(records)))
    samples = []
    for start, arrays in parts:
        bad = (0, arrays) if isinstance(arrays, str) else _value_error(*arrays)
        if bad:
            return samples, (start + bad[0], bad[1])
        samples += map(Sample, *arrays)
    return samples, None


def save_dataset(path, meta: DatasetMeta, samples: list[Sample]) -> None:
    """Write a dataset file. The samples are first checked by load_dataset's
    rules, through the same check, CHECK_RECORDS at a time; the first bad
    one raises before the file opens, so no partial file is left."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        **asdict(meta.dims),
        "label_names": list(meta.label_names),
        "source": meta.source,
    }
    shapes = _record_shapes(meta.dims)
    for start in range(0, len(samples), CHECK_RECORDS):
        # as float64, the values a file holds: a chunk of all-bool labels is numeric too
        chunk = [{key: np.asarray(getattr(s, key), np.float64) for key in shapes}
                 for s in samples[start : start + CHECK_RECORDS]]
        if bad := _check(chunk, shapes, True)[1]:
            raise DatasetError(f"sample {start + bad[0]}: {bad[1]}")
    # a generator: a list of every record would hold the dataset twice over
    write_json_lines(path, chain([header], ({
        "obs": s.obs.tolist(),
        "ctx": s.ctx.tolist(),
        "labels": s.labels.astype(int).tolist(),
        "step_labels": s.step_labels.astype(int).tolist(),
    } for s in samples)))


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
    names the file, its 1-based line and the sample index, and the first
    bad record in file order is reported, by the first rule it breaks.
    save_dataset checks its samples through the same check.

    The file is streamed a block of records at a time: CHECK_RECORDS at
    most, and only as many as hold BLOCK_NUMBERS numbers by the header's
    dims (one at least), so a block's decoded JSON stays small. Each key is
    converted across a block by one numeric_array call, and the block's
    arrays are validated together. A block with a u or an f in a line
    (true, false, null, Infinity), or one whose conversion fails, is
    converted a record at a time instead. The samples of a block are row
    views of its arrays, so one kept sample keeps its whole block alive. An
    empty array reads as its declared shape when that shape holds no
    numbers either: [] is the (0, d_obs) observations of a tau of 0.
    """
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        meta = _read_header(path, fh.readline())
        shapes = _record_shapes(meta.dims)
        size = max(1, min(CHECK_RECORDS, BLOCK_NUMBERS // sum(map(math.prod, shapes.values()))))
        # iterating a file yields no "" line; isspace, unlike strip, copies none
        numbered = ((lineno, line) for lineno, line in enumerate(fh, start=2)
                    if not line.isspace())
        for block in iter(lambda: list(islice(numbered, size)), []):
            records, malformed = [], None
            for _, line in block:
                try:
                    records.append(json.loads(line))
                except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
                    malformed = len(records), f"malformed record ({exc})"
                    break
            # a u or an f: true, false, null or Infinity, which no JSON number
            # or record key holds; only a record alone refuses all-true/false
            whole = not any("u" in line or "f" in line for _, line in block)
            found, bad = _check(records, shapes, whole)
            if bad := bad or malformed:
                raise DatasetError(f"{path}: line {block[bad[0]][0]}: "
                                   f"sample {len(samples) + bad[0]}: {bad[1]}")
            samples += found
    return meta, samples


def split_samples(samples: list[Sample], sizes: tuple[int, int, int], seed: int):
    """Seeded shuffle, then contiguous slices of the requested sizes."""
    n_train, n_val, n_test = sizes
    if min(sizes) < 0:
        raise ValueError(f"split sizes must be non-negative, got {sizes}")
    if n_train + n_val + n_test > len(samples):  # the data's fault, not the sizes'
        raise DatasetError(
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
    # one entry per label; unset, 0.66 each, and the rarity ramp from 1.2 to
    # 6.6: (1.2, 2.8, 4.6, 6.6) at 4 labels, evenly spaced at any other count
    thresholds: tuple | None = None
    rarity: tuple | None = None
    persistence: tuple = (2, 4)  # inclusive range of steps a label stays on
    lag: float = 0.4
    noise_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # dims first, before any per-label check; the generator maps label l
        # to context channel l mod d_ctx, so it needs d_ctx >= 1
        ModelDims(self.n_labels, self.d_obs, self.d_ctx, self.tau, self.total_steps)
        if self.d_ctx < 1:
            raise ValueError(f"need d_ctx >= 1, got d_ctx={self.d_ctx}")
        n = self.n_labels
        if self.thresholds is None:
            object.__setattr__(self, "thresholds", (0.66,) * n)
        if self.rarity is None:
            ramp = (1.2, 2.8, 4.6, 6.6) if n == 4 else tuple(np.linspace(1.2, 6.6, n).tolist())
            object.__setattr__(self, "rarity", ramp)
        if len(self.thresholds) != self.n_labels or len(self.rarity) != self.n_labels:
            raise ValueError("thresholds and rarity must have one entry per label")
        if not all(v > 0 for v in (*self.thresholds, *self.rarity)):  # NaN fails too
            raise ValueError("thresholds and rarity must be positive")
        if not 0.0 < self.lag < 1.0:
            raise ValueError(f"lag must lie in (0, 1), got {self.lag}")
        if not 0.0 <= self.noise_scale < math.inf:  # NaN fails too
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        lo, hi = self.persistence
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid persistence range {self.persistence}")


DEFAULT_SYNTH_CONFIG = SynthConfig()


def synth_generate(config: SynthConfig, n: int) -> tuple[DatasetMeta, list[Sample]]:
    """Generate n samples; deterministic for a given (config, n). Each
    sample makes its own draws, in a fixed order; the arithmetic after them
    runs over CHECK_RECORDS samples at a time, one array pass a step."""
    if n < 0:
        raise ValueError(f"sample count n must be >= 0, got {n}")
    rng = make_rng(config.seed)
    steps, tau, d_ctx, n_labels = config.total_steps, config.tau, config.d_ctx, config.n_labels
    horizon = steps - tau
    eff_threshold = np.asarray(config.thresholds) * np.asarray(config.rarity)
    channel = np.arange(n_labels) % d_ctx
    lo, hi = config.persistence

    samples = []
    for start in range(0, n, CHECK_RECORDS):
        m = min(CHECK_RECORDS, n - start)
        draws = [(rng.uniform(size=(steps, d_ctx)) >= CHANGE_PROB,  # no new setpoint level
                  rng.normal(0.0, LEVEL_SD, size=(steps, d_ctx)),
                  rng.normal(0.0, 1.0, size=(tau, config.d_obs)),
                  rng.integers(lo, hi + 1, size=(steps, n_labels))[tau:].copy())
                 for _ in range(m)]
        # ctx holds the drawn levels, then the held setpoints; durations, forecast rows
        hold, ctx, noise, durations = map(np.stack, zip(*draws))

        path = ctx.copy()  # the noiseless lag response
        for t in range(1, steps):
            np.copyto(ctx[:, t], ctx[:, t - 1], where=hold[:, t])
            path[:, t] = path[:, t - 1] + config.lag * (ctx[:, t] - path[:, t - 1])
        obs = path[:, :tau, np.arange(config.d_obs) % d_ctx] + config.noise_scale * noise

        jump = np.maximum(np.diff(ctx, axis=1, prepend=ctx[:, :1])[:, tau:], 0.0)
        dev = np.maximum(ctx[:, tau:] - path[:, tau:], 0.0)
        fired = jump[..., channel] + DEV_GAIN * dev[..., channel] > eff_threshold
        on = fired.copy()  # on at step j + s if fired at step j with a duration above s
        for s in range(1, min(hi, horizon)):
            on[:, s:] |= fired[:, :-s] & (durations[:, :-s] > s)
        step_labels = on.astype(np.float64)
        samples += map(Sample, obs, ctx, segment_labels(step_labels), step_labels)

    meta = DatasetMeta(
        ModelDims(config.n_labels, config.d_obs, config.d_ctx, tau, steps),
        label_names=tuple(f"fault_{l + 1}" for l in range(config.n_labels)),
        source="synthetic",
    )
    return meta, samples
