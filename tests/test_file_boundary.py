"""The JSON file boundary: every file faultcast reads goes through one strict
reader, so a missing key or a value of the wrong JSON type is a data error
that names the file and the key, whichever file it is in."""

import ast
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faultcast.cli import build_parser, main
from faultcast.data import DatasetError

SRC = Path(__file__).resolve().parent.parent / "src" / "faultcast"
SPLIT = ["--n-train", "20", "--n-val", "10", "--n-test", "10"]

# Wrong JSON values for each expected type. true/false is never a number; a
# numeric array with a string inside (made in _mutate) is no numeric array.
WRONG = {
    "int": [True, False, 2.5, "3", [], {}, None],
    "float": [True, False, "0.1", [], {}, None],
    "str": [1, True, [], {}, None],
    "list": [{}, "ab", 3, True, None],
    "object": [[1, 2], 3, "x", True],
    "array": ["string inside", True, False, {}, "x"],
}

# (path, expected type, required) per file kind; a path is a tuple of object
# keys and list indices, named in errors as dotted keys ("a.b", "a[0]").
DIMS = ["n_labels", "d_obs", "d_ctx", "tau", "total_steps"]
CASES = {
    "dataset": [(("format",), "str", True), (("version",), "int", True),
                *(((d,), "int", True) for d in DIMS),
                (("label_names",), "list", True), (("label_names", 1), "str", False),
                (("source",), "str", True)],
    "model": [(("format",), "str", True), (("version",), "int", True),
              (("dims",), "object", True), *((("dims", d), "int", True) for d in DIMS),
              (("encoder",), "object", True), (("encoder", "w_f"), "array", True),
              (("encoder", "b_o"), "array", True), (("decoder", "w_c"), "array", True),
              (("decoder", "b_i"), "array", True), (("out_bias",), "array", True),
              (("classifiers", "segment"), "object", True),
              (("classifiers", "segment", "svm"), "object", True),
              (("classifiers", "segment", "svm", "kind"), "str", True),
              (("classifiers", "segment", "svm", "weight"), "array", True),
              (("classifiers", "segment", "svm", "bias"), "array", True),
              (("classifiers", "segment", "nearest_mean", "neg_mean"), "array", True),
              (("classifiers", "stepwise"), "object", True),
              (("classifiers", "stepwise", "weight"), "array", True),
              (("classifiers", "stepwise", "fallback"), "array", False)],
    "grid": [((), "list", False), ((0,), "object", False), ((0, "eta"), "float", False),
             ((1, "lambda"), "float", False), ((1, "beta"), "float", False)],
    "report": [((), "object", False)],
}


_DROP = object()


def _name(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _mutate(doc, path, value):
    """doc with the value at path dropped (_DROP), given a string as its
    last number ("string inside") or replaced by value."""
    if not path:
        return value
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    if value is _DROP:
        del parent[path[-1]]
    elif value == "string inside":
        inner = parent[path[-1]]
        while isinstance(inner[-1], list):
            inner = inner[-1]
        inner[-1] = "1.5"
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid file of each kind, the command that reads it and a scratch
    path a mutated copy is written to."""
    root = tmp_path_factory.mktemp("boundary")
    data, model, report = root / "data.jsonl", root / "model.json", root / "report.json"
    assert main(["generate", "--out", str(data), "--n", "40", "--seed", "3"]) == 0
    assert main(["train", "--data", str(data), "--out-model", str(model),
                 "--max-epochs", "2", *SPLIT]) == 0
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", str(root / "report"), *SPLIT]) == 0
    header, *records = data.read_text().splitlines()
    bad = {kind: root / f"bad_{kind}.json" for kind in CASES}
    return {
        "dataset": (json.loads(header), lambda doc: "\n".join([json.dumps(doc), *records]),
                    ["train", "--data", str(bad["dataset"]), "--out-model", str(root / "m.json")]),
        "model": (json.loads(model.read_text()), json.dumps,
                  ["predict", "--model", str(bad["model"]), "--data", str(data),
                   "--out", str(root / "p.jsonl"), *SPLIT]),
        "grid": ([{"eta": 0.02, "lambda": 0.01}, {"eta": 0.1, "lambda": 0.0, "beta": 0.5}],
                 json.dumps,
                 ["gridsearch", "--data", str(data), "--out-model", str(root / "g.json"),
                  "--out-report", str(root / "g.tsv"), "--grid-file", str(bad["grid"]),
                  "--max-epochs", "1", *SPLIT]),
        "report": (json.loads(report.read_text()), json.dumps,
                   ["compare", "--report", str(bad["report"]), "--baseline", str(report),
                    "--out", str(root / "cmp")]),
    }, bad


@pytest.mark.parametrize("kind", sorted(CASES))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(draw=st.data())
def test_wrong_or_missing_key_is_a_data_error_naming_file_and_key(files, kind, draw):
    originals, bad = files
    doc, dump, argv = originals[kind]
    path, expected, required = draw.draw(st.sampled_from(CASES[kind]))
    value = draw.draw(st.sampled_from(([_DROP] if required else []) + WRONG[expected]))
    bad[kind].write_text(dump(_mutate(json.loads(json.dumps(doc)), path, value)))

    args = build_parser().parse_args(argv)
    with pytest.raises(DatasetError) as info:
        args.func(args)
    message = str(info.value)
    assert str(bad[kind]) in message
    if path:
        assert repr(_name(path)) in message

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def _json_load_callers():
    """(module, enclosing function) of every json.load/json.loads call."""
    found = []
    for source in sorted(SRC.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("load", "loads")
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "json"):
                    found.append((source.stem, func.name))
    return found


def test_json_is_decoded_only_by_the_reader_and_the_record_loop():
    assert sorted(set(_json_load_callers())) == [("data", "load_dataset"),
                                                 ("data", "read_json")]


def test_the_format_key_is_checked_once():
    """Writers put "format" in a dict literal; any other use of the string
    is a reader checking it, and there is one."""
    checks = []
    for source in sorted(SRC.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict)
                for k in node.keys}
        checks += [(source.stem, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value == "format"
                   and id(node) not in keys]
    assert len(checks) == 1, checks
