#!/usr/bin/env python3
"""Total and code lines of each module of the faultcast package.

    python3 tools/loc.py [package directory, default src/faultcast]

Total lines are counted as `wc -l` counts them, one per newline. Code lines
leave out blank lines, comment-only lines and docstrings (the first string
statement of a module, class or function). Prints one tab-separated row per
module, then a `total` row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "faultcast"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.stem, *count(path)) for path in sorted(package.glob("*.py"))]
    print("module\tlines\tcode")
    for row in [*rows, ("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        print("\t".join(map(str, row)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
