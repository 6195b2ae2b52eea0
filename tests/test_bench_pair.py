"""tools/bench_pair.py: the per-metric summary of paired benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
METRICS = [{"name": "job_ref", "better": "lower", "bound": 0.25},
           {"name": "f1", "better": "higher", "bound": 0.25}]


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def summarize(bench_pair):
    return bench_pair.summarize


def run(side, pair, seed, job_ref, f1, exit_code=0):
    record = {"side": side, "workload": "w", "seed": seed, "pair": pair,
              "first": side == "parent", "exit": exit_code}
    if exit_code == 0:
        record["result"] = {"correct": True, "metrics": {"job_ref": {"value": job_ref},
                                                        "f1": {"value": f1}}}
    return record


def pair(k, seed, parent, change):
    return [run("parent", k, seed, *parent), run("change", k, seed, *change)]


def test_wins_and_ties_in_each_direction(summarize):
    runs = (pair(0, 1, (2.0, 0.5), (1.0, 0.6))     # change better on both
            + pair(1, 2, (2.0, 0.5), (3.0, 0.4))   # change worse on both
            + pair(2, 3, (2.0, 0.5), (2.0, 0.5)))  # ties
    out = summarize(runs, METRICS)
    assert out["pairs"] == 3 and out["seeds"] == [1, 2, 3] and out["all_correct"]
    for name in ("job_ref", "f1"):
        m = out["metrics"][name]
        assert (m["change_wins"], m["ties"], m["pairs"]) == (1, 1, 3), name
    assert out["metrics"]["job_ref"]["parent"]["median"] == 2.0
    assert out["metrics"]["job_ref"]["change"]["median"] == 2.0
    assert out["metrics"]["f1"]["change"]["q1_q3"] == [0.45, 0.55]


def test_repeated_seed_keeps_every_pair(summarize):
    # --seeds 1,1: two pairs run the same seed; each is its own pair
    runs = pair(0, 1, (2.0, 0.5), (1.0, 0.5)) + pair(1, 1, (2.0, 0.5), (3.0, 0.5))
    out = summarize(runs, METRICS)
    assert out["pairs"] == 2 and out["seeds"] == [1, 1]
    assert out["metrics"]["job_ref"]["change_wins"] == 1
    assert out["metrics"]["f1"]["ties"] == 2


def test_incomplete_and_failed_pairs_are_left_out(summarize):
    runs = (pair(0, 1, (2.0, 0.5), (1.0, 0.6))
            + [run("parent", 1, 2, 2.0, 0.5)]                              # change never ran
            + pair(2, 3, (2.0, 0.5), (1.0, 0.6))[:1] + [run("change", 2, 3, 0, 0, exit_code=1)])
    out = summarize(runs, METRICS)
    assert out["pairs"] == 1 and out["seeds"] == [1]
    assert not out["all_correct"]
    assert out["metrics"]["job_ref"]["change_wins"] == 1


def test_a_tree_compared_with_itself_writes_identical_outputs(bench_pair, tmp_path):
    root = TOOL.parents[1]
    out = bench_pair.compare_outputs({"parent": root, "change": root}, tmp_path)
    assert out["outputs_identical"] is True
    assert sorted(out["parent"]) == ["data.jsonl", "data_wide.jsonl", "grid_model.json",
                                     "grid_report.tsv", "history.tsv", "history_diverged.tsv",
                                     "model.json", "model_diverged.json"]
