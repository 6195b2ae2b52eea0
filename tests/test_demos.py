"""The demos train models for seconds each, so the suite does not run
them; it checks what would break them silently: each must compile, and
every name it imports from faultcast must exist, imported from the module
that defines it (the package itself holds only submodules)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from faultcast import data, training

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def defined_names(module) -> set[str]:
    """The names a module's own top-level statements define: functions,
    classes and assignment targets, not what it imports."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_compiles_and_its_faultcast_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    compile(tree, str(demo), "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "faultcast":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "faultcast":
            for alias in node.names:
                assert importlib.util.find_spec(f"faultcast.{alias.name}"), (
                    f"{demo.name}: faultcast.{alias.name} is not a submodule")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "faultcast":
            defined = defined_names(importlib.import_module(node.module))
            for alias in node.names:
                assert alias.name in defined, (
                    f"{demo.name}: {node.module} does not define {alias.name}")


def test_defined_names_leave_out_imports():
    # training imports ModelDims from data; only data defines it
    assert {"ModelDims", "SynthConfig", "CHECK_RECORDS"} <= defined_names(data)
    assert "ModelDims" not in defined_names(training)
    assert {"TrainConfig", "train"} <= defined_names(training)
