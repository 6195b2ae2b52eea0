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
                                     "model.json", "model_diverged.json", "preds.jsonl",
                                     "report.json", "report.txt", "steps.jsonl"]


def test_signed_rank_p_on_known_sets(bench_pair, summarize):
    # 10 of 10 pairs faster: 2 of the 1,024 sign patterns are as extreme
    runs = [r for k in range(10) for r in pair(k, k + 1, (2.0 + k, 0.5), (1.0 + k, 0.5))]
    job = summarize(runs, METRICS)["metrics"]["job_ref"]
    assert job["signed_rank_p"] == 0.001953125
    assert job["pair_ratios"] == [(1.0 + k) / (2.0 + k) for k in range(10)]
    assert job["pair_ratio_median"] == (5.0 / 6.0 + 6.0 / 7.0) / 2
    # every pair mirrored by a swapped one: the rank sums balance
    runs = [r for k in range(5) for r in pair(2 * k, k, (2.0, 0.5), (3.0 + k, 0.5))
            + pair(2 * k + 1, k, (3.0 + k, 0.5), (2.0, 0.5))]
    assert summarize(runs, METRICS)["metrics"]["job_ref"]["signed_rank_p"] == 1.0
    # equal runs leave no difference to rank
    assert summarize(runs, METRICS)["metrics"]["f1"]["signed_rank_p"] == 1.0
    # tied magnitudes share a mean rank: ranks 1.5, 1.5, 3 with signs +, -, +
    assert bench_pair.signed_rank_p([0.1, -0.1, 0.3, 0.0]) == 0.75


def test_holm_adjustment_over_every_metric_of_every_workload(bench_pair):
    # sorted 0.005, 0.01, 0.03, 0.04, 0.5 times 5, 4, 3, 2, 1, each raised to
    # the largest before it and capped at 1
    p = {("a", "job_ref"): 0.01, ("a", "f1"): 0.04, ("b", "job_ref"): 0.03,
         ("b", "f1"): 0.005, ("c", "job_ref"): 0.5}
    workloads = {}
    for (w, name), value in p.items():
        workloads.setdefault(w, {"metrics": {}})["metrics"][name] = {"signed_rank_p": value}
    bench_pair.add_holm(workloads)
    got = {(w, name): m["signed_rank_p_holm"]
           for w, s in workloads.items() for name, m in s["metrics"].items()}
    want = {("a", "job_ref"): 0.04, ("a", "f1"): 0.09, ("b", "job_ref"): 0.09,
            ("b", "f1"): 0.025, ("c", "job_ref"): 0.5}
    assert got == pytest.approx(want, abs=1e-15)
    assert all(m["signed_rank_p"] == p[w, name]  # reported beside, not replaced
               for w, s in workloads.items() for name, m in s["metrics"].items())
    # ties share their adjusted value, and no value passes 1
    workloads = {"a": {"metrics": {"x": {"signed_rank_p": 0.4}, "y": {"signed_rank_p": 0.4},
                                   "z": {"signed_rank_p": 1.0}}}}
    bench_pair.add_holm(workloads)
    assert [m["signed_rank_p_holm"] for m in workloads["a"]["metrics"].values()] == [1.0] * 3


def test_two_process_scaling_sits_beside_the_cpu_count(bench_pair, monkeypatch):
    # a tiny loop, so mostly two interpreter start-ups at once against one
    scaling = bench_pair.two_process_scaling(loops=1_000, repeats=1)
    assert isinstance(scaling, float) and 0.1 < scaling < 10
    monkeypatch.setattr(bench_pair, "git", lambda *args: "0" * 40)
    doc = bench_pair.provenance({"nproc": 2, "cpus_usable": 2}, {"parent": "a", "change": "b"},
                                {"start": scaling, "end": 1.0})
    keys = list(doc)
    assert keys[keys.index("cpus_usable") + 1] == "two_process_scaling"
    assert doc["two_process_scaling"] == {"start": scaling, "end": 1.0}
