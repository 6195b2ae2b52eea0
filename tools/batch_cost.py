#!/usr/bin/env python3
"""Fixed and per-step cost of one training batch.

    python3 tools/batch_cost.py [--repeats 1000]

Times training.batch_gradients at the train_small shape (batch 16, 4
labels, d_obs 2, d_ctx 1, localize loss, lam 0) for 4+6, 8+12 and 16+24
observed + forecast steps, on one BLAS thread. Two ways per shape:
`resident` passes each call the tape of the call before, as
train_population does, and `fresh` builds a new tape per call. Beside
them runs grid_small's population, `9x4+6`: the stock grid's 9 members in
one stack, base loss, each member's grid lambda and its own batch of 16,
4+6 steps, resident. The cases take turns in blocks of BLOCK calls, so a
slow spell of the host falls on all of them alike. Prints the median time
of a call per case, then for each way the least-squares line median =
intercept + slope * steps over the single-model shapes: the intercept is
the cost of a call that does not depend on the step count. Last, for the
resident way, the median time of each phase of a call and of the
optimizer step after it, as train_population runs them (PHASES, timed in
a case of their own that takes its turn with the rest). Then, as a row of
its own, the median time of a validation pass, threshold_validation_f1 on
VALIDATION samples, for the 4+6 model alone and for the 9-member stack.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

SHAPES = ((4, 6), (8, 12), (16, 24))  # (observed, forecast) steps
POPULATION = "9x4+6"
WAYS = ("fresh", "resident")
PHASES = ("forward", "batch_adjoints", "backward", "optimizer_step")
BATCH = 16
BLOCK = 20  # calls of one case in a row
VALIDATION = 100  # samples a validation pass scores


def fit_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """(intercept, slope) of the least-squares line through the points."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return my - slope * mx, slope


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=1000, help="timed calls per case")
    opts = parser.parse_args(argv)
    if opts.repeats < 1:
        parser.error("--repeats must be >= 1")

    import numpy as np

    from faultcast.data import SynthConfig, stack_samples, synth_generate
    from faultcast.losses import batch_adjoints, class_weights
    from faultcast.model import ModelDims, backward, forward, init_model, stack_models
    from faultcast.num import make_rng
    from faultcast.training import (batch_gradients, default_grid, make_adam_state,
                                    optimizer_step, threshold_validation_f1)

    def phased(args, eta, state, tape):
        """One resident call, phase by phase, then an Adam step with `state`;
        returns the tape and each phase's seconds."""
        model, obs, ctx, labels, step_labels, weights, kind, lam, beta = args
        stamps = [perf_counter()]
        pred, tape = forward(model, obs, ctx, tape=tape)
        stamps.append(perf_counter())
        _, do, dg, _ = batch_adjoints(kind, pred, labels, step_labels, weights, model, lam, beta)
        stamps.append(perf_counter())
        grads = backward(model, tape, do, dg)
        stamps.append(perf_counter())
        optimizer_step(model, grads, eta, state)
        stamps.append(perf_counter())
        return tape, [b - a for a, b in zip(stamps, stamps[1:])]

    grid = default_grid("base")
    cases = {}  # (label, way) -> [args, tape, call times]
    for tau, horizon in SHAPES:
        config = SynthConfig(tau=tau, total_steps=tau + horizon)
        # class weights from a training-sized set, the batch its first samples
        obs, ctx, labels, step_labels = stack_samples(synth_generate(config, 500)[1])
        weights = class_weights(labels)
        dims = ModelDims(4, 2, 1, tau, tau + horizon)
        model = init_model(make_rng(1), dims)
        batch = [a[:BATCH] for a in (obs, ctx, labels, step_labels)]
        runs = {f"{tau}+{horizon}": ((model, *batch, weights, "localize", 0.0, 0.5), 0.01)}
        if (tau, horizon) == SHAPES[0]:  # member k's batch: the k-th block of 16 samples
            stack = stack_models([init_model(make_rng(1 + k), dims) for k in range(len(grid))])
            batch = [a[: len(grid) * BATCH].reshape((len(grid), BATCH) + a.shape[1:])
                     for a in (obs, ctx, labels, step_labels)]
            runs[POPULATION] = ((stack, *batch, weights, "base",
                                 np.array([c.lam for c in grid]), 0.5),
                                np.array([c.eta for c in grid]))
            scored = [a[-VALIDATION:] for a in (obs, ctx, labels, step_labels)]
            for members, scorer in ((1, model), (len(grid), stack)):
                cases[members, "validation"] = [(scorer, scored), None, []]
        for label, (args, eta) in runs.items():
            for way in WAYS if label != POPULATION else ("resident",):
                cases[label, way] = [args, batch_gradients(*args)[2], []]  # warmed up
            stepped = args[0].copy()  # the optimizer moves it, not the model of the other cases
            phase_args = ((stepped, *args[1:]), eta, make_adam_state(stepped))
            cases[label, "phases"] = [phase_args, phased(*phase_args, None)[0], []]
    while any(len(times) < opts.repeats for _, _, times in cases.values()):
        for (_, way), case in cases.items():
            args, tape, times = case
            for _ in range(min(BLOCK, opts.repeats - len(times))):
                if way == "phases":
                    tape, seconds = phased(*args, tape)
                    times.append(seconds)
                    continue
                if way == "validation":
                    start = perf_counter()
                    threshold_validation_f1(*args)
                    times.append(perf_counter() - start)
                    continue
                start = perf_counter()
                tape = batch_gradients(*args, tape if way == "resident" else None)[2]
                times.append(perf_counter() - start)
            case[1] = tape

    medians = {key: 1e6 * statistics.median(times) for key, (_, _, times) in cases.items()
               if key[1] in WAYS}
    names = [f"{tau}+{horizon}" for tau, horizon in SHAPES]
    steps = [tau + horizon for tau, horizon in SHAPES]
    print("steps\t" + "\t".join(f"{way}_us" for way in WAYS))
    for name in names + [POPULATION]:
        print(name + "".join(f"\t{medians[name, way]:.1f}" if (name, way) in medians
                             else "\t-" for way in WAYS))
    for way in WAYS:
        intercept, slope = fit_line(steps, [medians[name, way] for name in names])
        print(f"{way}: intercept {intercept:.1f} us per call, slope {slope:.2f} us per step")
    print("steps\t" + "\t".join(f"{phase}_us" for phase in PHASES))
    for name in names + [POPULATION]:
        split = zip(*cases[name, "phases"][2])  # each phase's seconds over the calls
        print(name + "".join(f"\t{1e6 * statistics.median(s):.1f}" for s in split))
    members = [key[0] for key in cases if key[1] == "validation"]
    print("pass\t" + "\t".join(f"members_{m}_us" for m in members))
    print("validation" + "".join(f"\t{1e6 * statistics.median(cases[m, 'validation'][2]):.1f}"
                                 for m in members))
    return 0


if __name__ == "__main__":
    # one BLAS thread, set before numpy loads, as perfbench runs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
