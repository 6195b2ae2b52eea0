"""The JSON file boundary: every file faultcast reads goes through one strict
reader, or for a dataset's sample records through its numeric-array rule, so
a missing key or a value of the wrong JSON type is a data error that names
the file and the key, whichever file it is in. Every file faultcast writes
goes through one writer per format."""

import ast
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faultcast import data
from faultcast.cli import build_parser, main
from faultcast.data import DatasetError, numeric_array

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
    "array": ["string inside", "null inside", True, False, {}, "x", [True, False],
              [[1.0], [1.0, 2.0]]],
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
    "record": [((key,), "array", True) for key in ("obs", "ctx", "labels", "step_labels")],
}


_DROP = object()


def _name(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


# what "<name> inside" puts in place of an array's last number
INSIDE = {"string inside": "1.5", "null inside": None, "big inside": "BIG"}


def _mutate(doc, path, value):
    """doc with the value at path dropped (_DROP), given another last
    number (a key of INSIDE) or replaced by value."""
    if not path:
        return value
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    if value is _DROP:
        del parent[path[-1]]
    elif isinstance(value, str) and value in INSIDE:
        inner = parent[path[-1]]
        while isinstance(inner[-1], list):
            inner = inner[-1]
        inner[-1] = INSIDE[value]
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
        "record": (json.loads(records[0]),
                   lambda doc: "\n".join([header, json.dumps(doc), *records[1:]]),
                   ["train", "--data", str(bad["record"]), "--out-model", str(root / "m.json")]),
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


def test_a_record_array_of_strings_and_booleans_makes_train_exit_2(files, capsys):
    originals, bad = files
    record, dump, argv = originals["record"]
    bad["record"].write_text(dump({**record, "obs": [["0.5", True]] * len(record["obs"])}))
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {bad['record']}: line 2: sample 0: "
                                       "key 'obs': must be a numeric array\n")


@pytest.mark.parametrize("split_bytes", [0, 2**62])  # a child decodes the second half, or not
@pytest.mark.parametrize("line", [1, 3, 40])  # the header, a record of each half
def test_a_byte_no_utf8_holds_names_the_file_and_line(files, monkeypatch, capsys, split_bytes,
                                                      line):
    originals, bad = files
    header, dump, argv = originals["dataset"]
    lines = dump(header).encode().split(b"\n")
    lines[line - 1] = lines[line - 1][:10] + b"\xff" + lines[line - 1][10:]
    bad["dataset"].write_bytes(b"\n".join(lines) + b"\n")
    monkeypatch.setattr(data, "SPLIT_BYTES", split_bytes)
    assert main(argv) == 2
    reason = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    where = f"error: {bad['dataset']}: line {line}: "
    assert capsys.readouterr().err == (f"{where}invalid JSON ({reason})\n" if line == 1 else
                                       f"{where}sample {line - 2}: malformed record ({reason})\n")


# where a 100,000-deep list goes in each kind of file: past the JSON
# decoder's recursion limit, which raises RecursionError, not ValueError
DEEP_AT = {"dataset": ("label_names",), "record": ("obs",), "model": ("encoder", "w_f"),
           "grid": (0, "eta"), "report": ()}


@pytest.mark.parametrize("kind", sorted(DEEP_AT))
def test_a_value_nested_too_deep_makes_the_command_exit_2(files, kind, capsys):
    originals, bad = files
    doc, dump, argv = originals[kind]
    text = dump(_mutate(json.loads(json.dumps(doc)), DEEP_AT[kind], "DEEP"))
    bad[kind].write_text(text.replace('"DEEP"', "[" * 100_000 + "]" * 100_000))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad[kind]}") and err.count("\n") == 1, err[:200]


def _float_spelling(n: int) -> str:
    """The integer n's exact value as a JSON float literal: 1.00e2 for 100."""
    digits = str(abs(n))
    return f"{'-' if n < 0 else ''}{digits[0]}.{digits[1:]}e{len(digits) - 1}"


@pytest.mark.parametrize("kind", ["model", "record"])
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(draw=st.data())
def test_an_integer_past_64_bits_reads_as_its_float_spelling(files, kind, draw):
    """100000000000000000000 and 1.00000000000000000000e20 in any numeric
    array of a model or sample record give the same outcome: the same
    output bytes, or the same error; past float64's range both read as
    inf."""
    originals, bad = files
    doc, dump, argv = originals[kind]
    path = draw.draw(st.sampled_from([p for p, expected, _ in CASES[kind] if expected == "array"]))
    n = draw.draw(st.one_of(st.sampled_from([10**20, 10**400, -(10**400)]),
                            st.integers(2**64, 10**30), st.integers(-(10**30), -(2**63) - 1)))
    text = dump(_mutate(json.loads(json.dumps(doc)), path, "big inside"))
    root = bad[kind].parent
    outputs = [root / "p.jsonl"]
    if kind == "record":  # score every sample, the mutated one among them
        outputs = [root / "eval.json", root / "eval.txt"]
        argv = ["evaluate", "--model", str(root / "model.json"), "--data", str(bad[kind]),
                "--out", str(root / "eval"), "--split", "all", *SPLIT]
    outcomes = []
    for number in (str(n), _float_spelling(n)):
        bad[kind].write_text(text.replace('"BIG"', number))
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(argv)
        written = [p.read_bytes() if p.exists() else None for p in outputs]
        for p in outputs:
            p.unlink(missing_ok=True)
        outcomes.append((code, err.getvalue(), out.getvalue(), written))
        assert "Traceback" not in err.getvalue() and "numeric array" not in err.getvalue()
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("value,want", [
    ([[10**20, 1]], [[1e20, 1.0]]), ([10**20, True], [1e20, 1.0]), ([2**64], [2.0**64]),
    ([10**20, None], None), ([10**20, "1"], None), ([10**20, {}], None),
    ([[10**20], [1, 2]], None),
])
def test_a_big_integer_beside_other_values(value, want):
    # beside it, a true still reads as 1, and a non-number is still refused
    arr = numeric_array(value)
    assert (arr is None and want is None) or (arr.dtype == np.float64 and arr.tolist() == want)


def _callers(wanted):
    """{(module, qualified name of the innermost enclosing function)} of
    every call node for which wanted(node) holds."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and wanted(child):
                found.add((module, scope))
            visit(child, module, scope)

    for source in sorted(SRC.glob("*.py")):
        visit(ast.parse(source.read_text(encoding="utf-8")), source.stem, "")
    return found


def _is_json_call(*names):
    return lambda call: (isinstance(call.func, ast.Attribute) and call.func.attr in names
                         and isinstance(call.func.value, ast.Name)
                         and call.func.value.id == "json")


def _opens_for_writing(call) -> bool:
    """An open() or .open() call given a mode that writes, appends or creates."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    modes = [arg.value for arg in [*call.args, *(k.value for k in call.keywords)]
             if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    return name == "open" and any(set(m) <= set("rwaxbt+") and set(m) & set("wax+")
                                  for m in modes)


def test_json_is_decoded_only_by_the_reader_and_the_record_loop():
    assert _callers(_is_json_call("load", "loads")) == {("data", "load_dataset"),
                                                        ("data", "read_json")}


def test_files_are_written_only_by_the_three_writers():
    writers = {("data", "write_json_lines"), ("cli", "_write_report"),
               ("training", "_write_tsv")}
    assert _callers(_opens_for_writing) == writers
    # JsonField.read quotes the value it refuses in its error message
    assert _callers(_is_json_call("dump", "dumps")) == (
        writers - {("training", "_write_tsv")} | {("data", "JsonField.read")})


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
