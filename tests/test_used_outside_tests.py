"""Library code that only tests call is dead weight. Every public top-level
function or class in src/faultcast is named outside tests/: in a module of
the package (its own module counts), or in perfbench/, tools/ or demos/.
A re-export in __init__.py and a word of README.md are no use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "faultcast"
USERS = ("perfbench", "tools", "demos")


def public_definitions():
    """(module, name) of every public top-level function or class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def names_in(source: str) -> set[str]:
    """Every name Python source reads, looks up as an attribute or imports;
    a definition's own name is none of these."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_named_outside_tests():
    files = [f for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"]
    for user in USERS:
        files += sorted((ROOT / user).rglob("*.py"))
    named = set().union(*(names_in(f.read_text(encoding="utf-8")) for f in files))
    unused = [f"{module}.{name}" for module, name in public_definitions() if name not in named]
    assert not unused, f"named only in tests: {unused}"


def test_scan_sees_definitions_and_uses():
    # the scan itself: it finds the package's definitions, and a name that
    # only a definition carries is not a use
    found = set(public_definitions())
    assert ("losses", "batch_adjoints") in found and ("data", "ModelDims") in found
    source = "import a.b\nfrom c import d\n\ndef only_defined():\n    return e.f(g)\n"
    assert names_in(source) == {"b", "d", "f", "e", "g"}
