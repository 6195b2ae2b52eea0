#!/usr/bin/env python3
"""Paired benchmark of two git revisions of this repository.

    python3 tools/bench_pair.py --parent facf9b9 --change HEAD --label feature_major \
        --seeds 1-10

Checks both revisions out into clean clones in a temporary directory, then
for every seed and workload runs `python3 perfbench/run.py --workload W
--seed S --seconds N` once in each clone, one run at a time, N being
run_seconds from BENCHMARK.json. Pair k (the k-th seed) runs the parent
first when k is even and the change first when k is odd, so drift in the
host's speed falls on both sides alike. Writes BENCH_<label>.json with, per
workload and end-to-end metric, each side's median and [q1, q3], the
change/parent ratio of the medians, the pairs the change won, the metric's
direction and bound from BENCHMARK.json, the per-pair change/parent ratios
with their median, the exact two-sided Wilcoxon signed-rank p over
their logs and its Holm adjustment over every metric x workload test of
the file, and every raw run record;
provenance names python, numpy, the BLAS, the CPU count, both commits and
their src trees. It reads the workloads and metrics from BENCHMARK.json and
adds none. Once per clone it also runs OUTPUT_COMMANDS, seeded CLI calls,
and records the sha256 of every file they write and whether the two sides'
files are byte-identical (`outputs`, `outputs_identical`).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(sha: str, dest: Path) -> Path:
    """A clean clone of this repository at `sha`."""
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    git("checkout", "--quiet", "--detach", sha, cwd=dest)
    return dest


SPLIT = ["--n-train", "150", "--n-val", "50", "--n-test", "100"]
# faultcast CLI arguments, {w} standing for the directory the files go to
OUTPUT_COMMANDS = (
    ["generate", "--out", "{w}/data.jsonl", "--n", "300", "--seed", "1"],
    # a partial generator block, persistence past the horizon, more labels than channels
    ["generate", "--out", "{w}/data_wide.jsonl", "--n", "130", "--labels", "6", "--d-obs", "3",
     "--d-ctx", "2", "--tau", "3", "--total-steps", "12", "--persistence", "1,40", "--seed", "2"],
    ["train", "--data", "{w}/data.jsonl", "--out-model", "{w}/model.json", "--out-history",
     "{w}/history.tsv", "--loss", "localize", "--max-epochs", "3", *SPLIT],
    # the loss overflows mid-epoch, before theta does: the divergence exit
    ["train", "--data", "{w}/data.jsonl", "--out-model", "{w}/model_diverged.json",
     "--out-history", "{w}/history_diverged.tsv", "--optimizer", "sgd", "--eta", "1e4",
     "--lambda", "10", "--batch-size", "8", "--max-epochs", "3", *SPLIT],
    ["gridsearch", "--data", "{w}/data.jsonl", "--out-model", "{w}/grid_model.json",
     "--out-report", "{w}/grid_report.tsv", "--max-epochs", "2", *SPLIT],
    # the three scoring commands on the trained model: reports, predictions, localizations
    ["evaluate", "--model", "{w}/model.json", "--data", "{w}/data.jsonl", "--out", "{w}/report",
     "--localize", *SPLIT],
    ["predict", "--model", "{w}/model.json", "--data", "{w}/data.jsonl", "--out",
     "{w}/preds.jsonl", *SPLIT],
    ["localize", "--model", "{w}/model.json", "--data", "{w}/data.jsonl", "--out",
     "{w}/steps.jsonl", *SPLIT],
)


def output_digests(tree: Path, work: Path) -> dict[str, str]:
    """sha256 of each file OUTPUT_COMMANDS write, run with `tree`'s package
    into the empty or new directory `work`, by file name."""
    work.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for args in OUTPUT_COMMANDS:
        subprocess.run([sys.executable, "-m", "faultcast.cli",
                        *(a.format(w=work) for a in args)],
                       cwd=tree, env=env, check=True, capture_output=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir())}


def compare_outputs(trees: dict[str, Path], work: Path) -> dict:
    """The output_digests of the parent and change trees, and whether they
    agree file for file."""
    parent, change = (output_digests(trees[side], work / side) for side in ("parent", "change"))
    return {"parent": parent, "change": change, "outputs_identical": parent == change}


def parse_seeds(text: str) -> list[int]:
    """'1-4,7' -> [1, 2, 3, 4, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last two stdout lines are the origin and the
    result objects."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = {"exit": proc.returncode}
    if proc.returncode == 0 and len(lines) >= 2:
        record["origin"], record["result"] = json.loads(lines[-2]), json.loads(lines[-1])
    else:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def quartiles(xs: list[float]) -> list[float]:
    """[q1, q3] by linear interpolation between order statistics."""
    if len(xs) < 2:
        return [xs[0], xs[0]] if xs else [None, None]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def signed_rank_p(diffs: list[float]) -> float:
    """Exact two-sided p of the Wilcoxon signed-rank test: zero differences
    dropped, tied |d| sharing their mean rank, every sign pattern counted;
    1.0 when no difference is left."""
    d = sorted((x for x in diffs if x != 0), key=abs)
    ranks = []  # doubled, so that mean ranks of ties stay integers
    for _, tied in itertools.groupby(d, key=abs):
        k = len(list(tied))
        ranks += [2 * len(ranks) + k + 1] * k
    total = sum(ranks)
    counts = [1] + [0] * total  # sign patterns by their doubled positive rank sum
    for r in ranks:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    dev = abs(2 * sum(r for r, x in zip(ranks, d) if x > 0) - total)
    return sum(c for s, c in enumerate(counts) if abs(2 * s - total) >= dev) / 2 ** len(d)


def add_holm(workloads: dict) -> None:
    """Give each metric of each workload summary its signed_rank_p_holm:
    Holm's step-down adjustment of its signed_rank_p over every metric x
    workload test of the file, reported beside it and judging nothing."""
    tests = [m for w in workloads.values() for m in w["metrics"].values()]
    running = 0.0
    for rank, m in enumerate(sorted(tests, key=lambda m: m["signed_rank_p"])):
        running = max(running, min(1.0, (len(tests) - rank) * m["signed_rank_p"]))
        m["signed_rank_p_holm"] = running


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and pair wins over one workload's runs."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    complete = [p for p in pairs.values() if len(p) == 2]
    ok = [p for p in complete if all(r["exit"] == 0 for r in p.values())]
    out = {"pairs": len(ok), "seeds": sorted(p["parent"]["seed"] for p in ok),
           "all_correct": len(ok) == len(pairs)
           and all(r["result"]["correct"] for p in ok for r in p.values()),
           "metrics": {}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in ok]
                  for side in ("parent", "change")}
        wins = ties = 0
        for a, b in zip(values["parent"], values["change"]):
            if a == b:
                ties += 1
            elif (b < a) == lower:
                wins += 1
        med = {side: statistics.median(v) if v else None for side, v in values.items()}
        q = {side: quartiles(v) for side, v in values.items()}
        ratios = [b / a if a else None for a, b in zip(values["parent"], values["change"])]
        known = [r for r in ratios if r is not None]
        logs = [math.log(b) - math.log(a)
                for a, b in zip(values["parent"], values["change"]) if a > 0 and b > 0]
        gap = None
        if ok:
            gap = abs(med["change"] - med["parent"]) > (q["parent"][1] - q["parent"][0])
        out["metrics"][name] = {
            "parent": {"median": med["parent"], "q1_q3": q["parent"]},
            "change": {"median": med["change"], "q1_q3": q["change"]},
            "change_over_parent": med["change"] / med["parent"] if med["parent"] else None,
            "change_wins": wins, "ties": ties, "pairs": len(ok),
            "better": metric["better"], "bound": metric["bound"],
            "median_gap_exceeds_parent_iqr": gap,
            "pair_ratios": ratios,
            "pair_ratio_median": statistics.median(known) if known else None,
            "signed_rank_p": signed_rank_p(logs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", default="HEAD", help="git revision measured against it")
    parser.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(spec["run_seconds"])
    declared = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else declared
    unknown = set(workloads) - set(declared)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; BENCHMARK.json has {declared}")
    seeds = parse_seeds(args.seeds)
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: checkout(sha, Path(tmp) / side) for side, sha in shas.items()}
        outputs = compare_outputs(trees, Path(tmp) / "outputs")
        print(f"bench_pair: outputs identical: {outputs['outputs_identical']}", file=sys.stderr)
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for first, side in zip((True, False), order):
                    record = run_once(trees[side], workload, seed, seconds)
                    runs.append({"side": side, "workload": workload, "seed": seed, "pair": k,
                                 "first": first, **record})
                    status = record["result"]["correct"] if "result" in record else "failed"
                    print(f"bench_pair: {workload} seed {seed} {side}: {status}",
                          file=sys.stderr, flush=True)

    origin = next((r["origin"]["provenance"] for r in runs if "origin" in r), {})
    doc = {
        "label": args.label,
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} on "
                   f"clean clones of both revisions, one run at a time; pair k uses the k-th "
                   f"seed and runs the parent first when k is even; medians and [q1, q3] "
                   f"(linear interpolation) over each side's runs; change_wins counts pairs "
                   f"where the change is better in the metric's direction; signed_rank_p is "
                   f"the exact two-sided Wilcoxon signed-rank p over the pairs' log ratios, "
                   f"signed_rank_p_holm its Holm adjustment over every metric x workload "
                   f"test of this file"),
        "provenance": {
            **{key: origin.get(key) for key in ("python", "numpy", "blas", "blas_threads",
                                                "nproc", "cpus_usable")},
            "parent_sha": shas["parent"], "change_sha": shas["change"],
            "parent_src_tree": git("rev-parse", f"{shas['parent']}:src"),
            "change_src_tree": git("rev-parse", f"{shas['change']}:src"),
        },
        "outputs": outputs,
        "workloads": {w: summarize([r for r in runs if r["workload"] == w], spec["end_to_end"])
                      for w in workloads},
        "runs": runs,
    }
    add_holm(doc["workloads"])
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"bench_pair: wrote {out}", file=sys.stderr)
    return 0 if all(s["all_correct"] for s in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
