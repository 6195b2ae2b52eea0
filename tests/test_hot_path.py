"""The functions every training step or batch runs take their constants as
0-d arrays (num.HALF, num.ONE and training's Adam operands): numpy converts
a Python float operand anew on every call, a few tenths of a microsecond on
calls that take about one. A float literal in these functions would bring
that cost back without changing a bit, so no other test would see it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "faultcast"
HOT = {"lstm": ("lstm_step", "step_backward", "_sigmoid_into", "_local_derivatives"),
       "training": ("optimizer_step",)}


def float_literals(module: str, function: str) -> list[tuple[int, float]]:
    """(line, value) of every float literal in a top-level function."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    [node] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return [(c.lineno, c.value) for c in ast.walk(node)
            if isinstance(c, ast.Constant) and type(c.value) is float]


@pytest.mark.parametrize("module,function",
                         [(m, f) for m, names in HOT.items() for f in names])
def test_hot_functions_use_no_float_literals(module, function):
    assert float_literals(module, function) == []
