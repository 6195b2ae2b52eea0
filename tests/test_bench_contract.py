"""The names the benchmark calls and traces exist in the package.

perfbench/run.py reports per-layer metrics for the functions named in its
metric tuples, and perfbench/workloads.py drives the package through its
public API. A refactor that renames or removes one of those functions fails
here, in the test suite, instead of in every traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
TUPLES = ("CALL_METRICS", "SELF_METRICS", "PER_CALL_METRICS")


def _run_py():
    return ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))


def metric_tuples() -> dict[str, tuple[str, ...]]:
    """run.py's metric tuples, read from its source: importing run.py would
    pin the BLAS thread count of the whole test process."""
    found = {}
    for node in _run_py().body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in TUPLES):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    return found


TRACED = sorted({name for names in metric_tuples().values() for name in names})


def test_every_metric_tuple_is_read():
    assert set(metric_tuples()) == set(TUPLES)
    assert TRACED


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_a_public_function_of_its_module(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"faultcast.{module_name}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn), f"{name} is not a function"
    assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"


def test_run_py_imports_exist():
    for node in ast.walk(_run_py()):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("faultcast"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_workloads_import_and_match_benchmark_json(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


def test_micro_timing_call_binds_to_batch_gradients():
    """run.py times batch_gradients(*args) on a tuple of positional
    arguments; each must land on the parameter it is meant for."""
    from faultcast.training import batch_gradients

    timer = next(node for node in ast.walk(_run_py())
                 if isinstance(node, ast.FunctionDef) and node.name == "batch_gradient_ms")
    args = next(node.value for node in ast.walk(timer)
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "args")
    bound = inspect.signature(batch_gradients).bind(*(ast.unparse(e) for e in args.elts))
    assert bound.arguments == {
        "model": "model", "obs": "obs[:b]", "ctx": "ctx[:b]", "labels": "labels[:b]",
        "step_labels": "steps[:b]", "weights": "weights", "kind": "'localize'",
        "lam": "0.0", "beta": "0.5",
    }
