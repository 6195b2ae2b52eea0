"""Converters from two public raw-data layouts into the dataset schema.

Neither raw dataset ships with this package; the converters run on files the
user supplies. Both cut fixed-length windows out of long recordings with a
seeded random-start policy, emit samples in the package's JSON Lines schema,
and validate the segment/stepwise consistency identity on the way out.

Plant converter (convert_plant_csv)
    signals CSV: a header row; one column named `time` (any monotone
    numeric), observation columns, and context columns, told apart by name
    prefix (defaults: S*/E* observations, R* context). Missing cells (empty
    or NaN) are forward- then back-filled per column.
    faults CSV: header `start,end,code`; start/end are inclusive values of
    the time column; code is a 1-based fault label index.
    Defaults follow the plant benchmark: 30 observed steps, 10 forecast
    steps, 6 fault codes. Run it once per plant, since plants have distinct
    sensor sets.

Activity converter (convert_activity_dat)
    whitespace-separated .dat recordings, one row per tick: column 0 is a
    timestamp, sensor columns are observations, one column holds a
    high-level activity code (one-hot encoded into the context), and two
    columns hold low-level motion and object codes (one-hot encoded side by
    side into the labels). Code-to-index maps default to the sorted distinct
    non-zero codes found in the data and can be pinned via arguments.
    Defaults follow the activity benchmark: 75 observed steps, 25 forecast
    steps.
"""

from __future__ import annotations

import csv

import numpy as np

from .data import DatasetError, DatasetMeta, ModelDims, Sample, segment_labels
from .num import make_rng


def _ffill(column: np.ndarray) -> np.ndarray:
    """Forward- then back-fill NaNs; zero if the whole column is missing."""
    out = column.copy()
    mask = np.isnan(out)
    if mask.all():
        return np.zeros_like(out)
    idx = np.where(~mask, np.arange(len(out)), 0)
    np.maximum.accumulate(idx, out=idx)
    out = out[idx]
    if np.isnan(out[0]):
        first = out[~np.isnan(out)][0]
        out[np.isnan(out)] = first
    return out


def _number(path, rowno: int, column, text: str, convert=float, unit="row"):
    """One cell as a number; a DatasetError names the file, the 1-based row
    (or line) and the column otherwise."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise DatasetError(
            f"{path}: {unit} {rowno}, column {column!r}: {text!r} is not {kind}"
        ) from None


def _read_dat(path) -> np.ndarray:
    """One whitespace-separated recording as a (rows, columns) array.

    Blank lines and text after '#' are skipped. Every cell must be a number;
    the literal NaN marks a missing reading. A non-numeric cell or a row
    whose width differs from the first row's raises DatasetError naming the
    file, the 1-based line and the 0-based column.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = line.split("#", 1)[0].split()
            if not cells:
                continue
            if rows and len(cells) != len(rows[0]):
                column = min(len(cells), len(rows[0]))
                raise DatasetError(
                    f"{path}: line {lineno}, column {column}: "
                    f"{len(cells)} cells, line width is {len(rows[0])}"
                )
            rows.append([_number(path, lineno, col, text, unit="line")
                         for col, text in enumerate(cells)])
    if not rows:
        raise DatasetError(f"{path}: no readings")
    return np.array(rows, dtype=np.float64)


def _window_starts(
    n_rows: int, window: int, n_samples: int, seed: int, allow_overlap: bool
) -> list[int]:
    candidates = n_rows - window + 1
    if candidates < 1:
        raise DatasetError(
            f"recording has {n_rows} rows, too short for a {window}-step window"
        )
    order = make_rng(seed).permutation(candidates)
    if allow_overlap:
        starts = order[:n_samples]
    else:
        starts, taken = [], np.zeros(n_rows, dtype=bool)
        for s in order:
            if taken[s : s + window].any():
                continue
            taken[s : s + window] = True
            starts.append(s)
            if len(starts) == n_samples:
                break
    if len(starts) < n_samples:
        raise DatasetError(
            f"only {len(starts)} windows available "
            f"({'overlap allowed' if allow_overlap else 'no overlap'}), "
            f"requested {n_samples}"
        )
    return sorted(int(s) for s in starts)


def _cut_windows(dims: ModelDims, obs, ctx, step_truth, starts) -> list[Sample]:
    """One sample per window start: dims.tau observed rows of obs, then
    dims.total_steps rows of ctx and the stepwise labels of the forecast
    rows, each a copy."""
    tau, window = dims.tau, dims.total_steps
    samples = []
    for s in starts:
        steps = step_truth[s + tau : s + window]
        samples.append(Sample(obs=obs[s : s + tau].copy(), ctx=ctx[s : s + window].copy(),
                              labels=segment_labels(steps),
                              step_labels=steps.copy()))
    return samples


def convert_plant_csv(
    signals_path,
    faults_path,
    n_samples: int,
    tau: int = 30,
    horizon: int = 10,
    n_labels: int = 6,
    seed: int = 0,
    allow_overlap: bool = True,
    obs_prefixes: tuple[str, ...] = ("S", "E"),
    ctx_prefixes: tuple[str, ...] = ("R",),
) -> tuple[DatasetMeta, list[Sample]]:
    """Cut windowed samples from one plant's signals and fault log."""
    obs_prefixes, ctx_prefixes = tuple(obs_prefixes), tuple(ctx_prefixes)
    with open(signals_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        numbered = [(reader.line_num, row) for row in reader if row]
    lower = [name.strip().lower() for name in header]
    if "time" not in lower:
        raise DatasetError("signals file needs a 'time' column")
    time_col = lower.index("time")
    obs_cols = [
        i for i, name in enumerate(header)
        if i != time_col and name.strip().upper().startswith(obs_prefixes)
    ]
    ctx_cols = [
        i for i, name in enumerate(header)
        if i != time_col and name.strip().upper().startswith(ctx_prefixes)
    ]
    if not obs_cols or not ctx_cols:
        raise DatasetError(
            f"could not classify columns: {len(obs_cols)} observation and "
            f"{len(ctx_cols)} context columns matched prefixes "
            f"{obs_prefixes} / {ctx_prefixes}"
        )

    def parse(rowno, row):
        if len(row) != len(header):  # name the first missing or unnamed column
            column = repr(header[len(row)]) if len(row) < len(header) else len(header) + 1
            raise DatasetError(
                f"{signals_path}: row {rowno}, column {column}: "
                f"{len(row)} cells, header has {len(header)}"
            )
        return [
            _number(signals_path, rowno, name, v) if v.strip() else np.nan
            for name, v in zip(header, row)
        ]

    rows = [parse(rowno, row) for rowno, row in numbered]
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    times = values[:, time_col]
    if np.any(np.diff(times) <= 0):
        raise DatasetError(f"{signals_path}: time column must be strictly increasing")
    obs_all = np.column_stack([_ffill(values[:, c]) for c in obs_cols])
    ctx_all = np.column_stack([_ffill(values[:, c]) for c in ctx_cols])

    step_truth = np.zeros((len(rows), n_labels))
    with open(faults_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rowno = reader.line_num
            rec = {k.strip().lower(): v for k, v in rec.items() if k is not None}
            fields = []
            for name, convert in (("start", float), ("end", float), ("code", int)):
                if rec.get(name) is None:
                    raise DatasetError(
                        f"{faults_path}: row {rowno}: no {name!r} value; "
                        f"the faults file needs start,end,code columns"
                    )
                fields.append(_number(faults_path, rowno, name, rec[name], convert))
            start, end, code = fields
            if not 1 <= code <= n_labels:
                raise DatasetError(
                    f"{faults_path}: row {rowno}: fault code {code} outside 1..{n_labels}"
                )
            lo = int(np.searchsorted(times, start, side="left"))
            hi = int(np.searchsorted(times, end, side="right"))
            step_truth[lo:hi, code - 1] = 1.0

    dims = ModelDims(n_labels, len(obs_cols), len(ctx_cols), tau, tau + horizon)
    starts = _window_starts(len(rows), dims.total_steps, n_samples, seed, allow_overlap)
    samples = _cut_windows(dims, obs_all, ctx_all, step_truth, starts)
    names = tuple(f"code_{k + 1}" for k in range(n_labels))
    return DatasetMeta(dims, names, "phm_adapter"), samples


def _code_map(values: np.ndarray, pinned: list | None, what: str) -> dict:
    if pinned is not None:
        codes = [int(c) for c in pinned]
        if len(set(codes)) != len(codes):
            raise DatasetError(f"duplicate {what} codes in {pinned}")
    else:
        codes = sorted(int(c) for c in np.unique(values) if c != 0 and not np.isnan(c))
    if not codes:
        raise DatasetError(f"no non-zero {what} codes found")
    return {c: k for k, c in enumerate(codes)}


def convert_activity_dat(
    paths,
    n_samples: int,
    obs_cols: tuple[int, int],
    ctx_col: int,
    motion_col: int,
    object_col: int,
    tau: int = 75,
    horizon: int = 25,
    seed: int = 0,
    allow_overlap: bool = True,
    ctx_codes: list | None = None,
    motion_codes: list | None = None,
    object_codes: list | None = None,
) -> tuple[DatasetMeta, list[Sample]]:
    """Cut windowed samples from activity recordings.

    obs_cols is an inclusive 0-based (first, last) column range; ctx_col,
    motion_col and object_col are 0-based column indices. Samples are drawn
    per recording, split as evenly as the requested total allows.
    """
    paths = list(paths)
    if not paths:
        raise DatasetError("need at least one recording")
    recordings = [_read_dat(p) for p in paths]
    width = recordings[0].shape[1]
    for p, arr in zip(paths, recordings):
        if arr.shape[1] != width:
            raise DatasetError(f"{p}: {arr.shape[1]} columns, expected {width}")
    lo, hi = obs_cols
    for name, col in (("ctx", ctx_col), ("motion", motion_col), ("object", object_col)):
        if not 0 <= col < width:
            raise DatasetError(f"{name} column {col} outside 0..{width - 1}")
    if not (0 <= lo <= hi < width):
        raise DatasetError(f"observation columns {obs_cols} outside 0..{width - 1}")

    all_rows = np.vstack(recordings)
    ctx_map = _code_map(all_rows[:, ctx_col], ctx_codes, "context")
    motion_map = _code_map(all_rows[:, motion_col], motion_codes, "motion")
    object_map = _code_map(all_rows[:, object_col], object_codes, "object")
    n_motion, n_object = len(motion_map), len(object_map)
    dims = ModelDims(n_motion + n_object, hi - lo + 1, len(ctx_map), tau, tau + horizon)

    def one_hot(col_values, mapping, width_out):
        out = np.zeros((len(col_values), width_out))
        for t, v in enumerate(col_values):
            if not np.isnan(v) and int(v) in mapping:
                out[t, mapping[int(v)]] = 1.0
        return out

    per_file = [n_samples // len(paths)] * len(paths)
    for k in range(n_samples % len(paths)):
        per_file[k] += 1

    samples = []
    for file_idx, (arr, quota) in enumerate(zip(recordings, per_file)):
        if quota == 0:
            continue
        obs_all = np.column_stack(
            [_ffill(arr[:, c]) for c in range(lo, hi + 1)]
        )
        ctx_all = one_hot(arr[:, ctx_col], ctx_map, len(ctx_map))
        truth = np.hstack(
            [
                one_hot(arr[:, motion_col], motion_map, n_motion),
                one_hot(arr[:, object_col], object_map, n_object),
            ]
        )
        starts = _window_starts(
            arr.shape[0], dims.total_steps, quota, seed + file_idx, allow_overlap
        )
        samples += _cut_windows(dims, obs_all, ctx_all, truth, starts)
    label_names = tuple(
        [f"motion_{c}" for c in sorted(motion_map, key=motion_map.get)]
        + [f"object_{c}" for c in sorted(object_map, key=object_map.get)]
    )
    return DatasetMeta(dims, label_names, "har_adapter"), samples
