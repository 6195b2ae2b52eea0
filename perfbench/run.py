#!/usr/bin/env python3
"""faultcast benchmark.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 10 --trace 0

Run from anywhere inside a faultcast source tree; the package is imported
from the tree's src/ directory, and all files are written under
perfbench/out/. Workloads are defined in workloads.py and described, with
every metric, in README.md; BENCHMARK.json lists the metric names and units.

Every run is a closed loop: one process runs one job at a time, with one
BLAS thread. It sets the workload up, then for --seconds alternates a job
and a spare set-up, so that set-up is timed across the whole run. It times
each job step and the fixed reference computation (reference.py) before
and after it, and reports medians. With --trace 1 it sets up once, then
alternates untraced and traced jobs for --seconds, and reports per-layer
figures from the traced ones. The last line of stdout is the result object;
the line before it records where the run came from.
"""

import os

# Pinned before numpy loads anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 3
TRACED_MODULES = ("lstm", "model", "losses", "training", "classifiers", "data", "metrics", "num", "cli")
# modules whose self time should account for a train() call
TRAIN_MODULES = ("lstm", "num", "model", "losses", "training")
CALL_METRICS = (
    "lstm.lstm_step", "lstm.step_backward", "num.sigmoid", "model.forward", "model.backward",
    "training.batch_gradients", "training.optimizer_step", "training.train",
    "classifiers.classify",
)
SELF_METRICS = (
    "lstm.lstm_step", "lstm.step_backward", "num.sigmoid", "model.forward", "model.backward",
    "losses.batch_loss", "losses.batch_adjoints", "training.optimizer_step",
    "training.threshold_validation_f1", "training.train", "classifiers.fit_classifier",
    "classifiers.classify",
)
PER_CALL_METRICS = (
    "data.load_dataset", "data.save_dataset", "data.synth_generate", "data.stack_samples",
    "model.save_model", "model.load_model", "metrics.segment_report",
)
BATCH_SIZES = (1, 16, 64, 500)
MICRO_REPS = 5
MICRO_SECONDS = 0.2


class Tally:
    """Operations attempted and failed, and what the jobs produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: list[float] = []
        self.fingerprint = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _median(xs) -> float:
    """Median, or 0.0 when every attempt failed (the run is then incorrect)."""
    return float(statistics.median(xs)) if len(xs) else 0.0


def _phase(tracer, label):
    return tracer.phase(label) if tracer is not None else contextlib.nullcontext()


def run_setup(wl, work: Path, seed: int, tally: Tally, tracer=None):
    """Set the workload up in a fresh directory; returns (state, seconds)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gc.collect()
    tally.attempted += 1
    start = perf_counter()
    with _phase(tracer, "setup"):
        state = wl.setup(work, seed)
    return state, perf_counter() - start


def _timed(call):
    start = perf_counter()
    out = call()
    return out, perf_counter() - start


def run_job(wl, state, tally: Tally, tracer=None, index=0, calibrate=False):
    """One job, each of its steps timed, and its output check; returns
    {step: (wall seconds, ratio)}, or None when the job or its check failed.
    With `calibrate` the reference computation runs before the first step
    and after every step, and ratio is the step's time over the mean of the
    two reference times around it; otherwise ratio is None."""
    from reference import reference

    gc.collect()
    tally.attempted += 1
    seconds, outs = {}, []
    try:
        with _phase(tracer, f"job {index}"):
            ref = _timed(reference)[1] if calibrate else None
            for name, call in wl.steps(state):
                out, secs = _timed(call)
                outs.append(out)
                ratio = None
                if calibrate:
                    ref_after = _timed(reference)[1]
                    ratio = secs / (0.5 * (ref + ref_after))
                    ref = ref_after
                seconds[name] = (secs, ratio)
        with _phase(tracer, f"check {index}"):
            quality, fingerprint = wl.check(state, outs)
    except Exception as exc:  # a failed job is counted and the run goes on
        tally.fail(f"job {index}: {type(exc).__name__}: {exc}")
        return None
    if tally.fingerprint is None:
        tally.fingerprint = fingerprint
    elif fingerprint != tally.fingerprint:
        tally.fail(f"job {index}: output differs from the first job's")
        return None
    tally.quality.append(quality)
    return seconds


def end_to_end(wl, work: Path, seed: int, seconds: float, tally: Tally):
    """End-to-end metrics and the raw timings behind them."""
    state, secs = run_setup(wl, work, seed, tally)
    setups = [secs]
    walls, ratios = {}, {}
    deadline = perf_counter() + seconds
    index = 0
    while len(setups) < SETUP_REPS or perf_counter() < deadline:
        secs = run_job(wl, state, tally, index=index, calibrate=True)
        for name, (wall, ratio) in (secs or {}).items():
            walls.setdefault(name, []).append(wall)
            ratios.setdefault(name, []).append(ratio)
        index += 1
        # the job's state stays in `work`; the spare set-up is thrown away
        setups.append(run_setup(wl, work / "spare", seed, tally)[1])
    values = {
        "setup_s": _median(setups),
        "job_ref": sum(_median(rs) for rs in ratios.values()),
        "f1": _median(tally.quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }
    return values, {"setup_s": setups, "step_s": walls, "step_ref": ratios}


def batch_gradient_ms(state) -> dict:
    """Median wall time of one batch_gradients call at each batch size, on
    the workload's own training split, untraced."""
    from faultcast.data import stack_samples
    from faultcast.losses import class_weights
    from faultcast.model import init_model
    from faultcast.num import make_rng
    from faultcast.training import batch_gradients

    obs, ctx, labels, steps = stack_samples(state.train_s)
    weights = class_weights(labels)
    model = init_model(make_rng(state.seed + 1), state.dims)
    out = {}
    for b in BATCH_SIZES:
        args = (model, obs[:b], ctx[:b], labels[:b], steps[:b], weights, "localize", 0.0, 0.5)
        times = []
        while len(times) < MICRO_REPS or sum(times) < MICRO_SECONDS:
            start = perf_counter()
            batch_gradients(*args)
            times.append(perf_counter() - start)
        out[f"training.batch_gradients.b{b}_ms"] = 1e3 * statistics.median(times)
    return out


def per_layer(wl, work: Path, seed: int, seconds: float, tally: Tally, trace_path: Path):
    """Per-layer metrics and the raw job timings; the spans go to trace_path."""
    from spans import Tracer

    # workloads.py has imported the whole package by now; its own bindings
    # are patched too, so the benchmark's calls into each layer are spans
    modules = [m for name, m in sys.modules.items()
               if name in ("faultcast", "workloads") or name.startswith("faultcast.")]
    tracer = Tracer([sys.modules[f"faultcast.{name}"] for name in TRACED_MODULES], modules)

    state, _ = run_setup(wl, work, seed, tally, tracer)
    # Even jobs run untraced and odd ones traced, so each traced job has an
    # untraced neighbour that saw the same machine load.
    times = {}
    deadline = perf_counter() + seconds
    index = 0
    while index % 2 == 1 or index < 2 or perf_counter() < deadline:
        secs = run_job(wl, state, tally, tracer if index % 2 else None, index)
        if secs is not None:
            times[index] = sum(wall for wall, _ in secs.values())
        index += 1
    traced_jobs = [k for k in times if k % 2]

    self_s = tracer.self_times()
    ranges = {label: (first, stop) for label, first, stop in tracer.phases}

    def totals(label):
        return tracer.totals(*ranges[label], self_s)

    setup = totals("setup")
    jobs = {k: totals(f"job {k}") for k in traced_jobs}
    cycles = []
    for k in traced_jobs:
        check = totals(f"check {k}")
        cycles.append({n: (c + check[n][0], s + check[n][1]) for n, (c, s) in jobs[k].items()})

    expected = getattr(wl, "expected_calls", None)
    if expected is not None:
        want = expected(state)
        for k in traced_jobs:
            got = {name: jobs[k][name][0] for name in want}
            if got != want:
                tally.fail(f"job {k}: call counts {got} differ from the config's {want}")

    values = {}
    for name in CALL_METRICS:
        values[f"{name}.calls"] = setup[name][0] + (
            statistics.median_low([c[name][0] for c in cycles]) if cycles else 0)
    for name in SELF_METRICS:
        values[f"{name}.self_s"] = setup[name][1] + _median([c[name][1] for c in cycles])
    for name in PER_CALL_METRICS:
        values[f"{name}.s"] = _median(tracer.call_seconds(name))
    values.update(batch_gradient_ms(state))
    values["job.wall_s"] = _median([t for k, t in times.items() if k % 2 == 0])
    values["trace.train_coverage"] = tracer.coverage("training.train", TRAIN_MODULES, self_s)
    values["trace.overhead_s"] = _median([times[k] - times[k - 1] for k in traced_jobs
                                          if k - 1 in times])
    tracer.save(trace_path)
    return values, {"job_s": [t for k, t in times.items() if k % 2 == 0],
                    "traced_job_s": [times[k] for k in traced_jobs]}


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="faultcast benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "faultcast" / "__init__.py").is_file():
        print(f"perfbench: no faultcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            values, timings = per_layer(wl, work, args.seed, args.seconds, tally,
                                        OUT / f"{stem}.npz")
        else:
            values, timings = end_to_end(wl, work, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(missing)}",
              file=sys.stderr)
        return 2
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    origin = {"provenance": provenance(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    record = {**origin, "timings": timings, "errors": tally.errors, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(origin), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
