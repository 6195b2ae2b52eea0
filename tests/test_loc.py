"""tools/loc.py: total and code lines per module of the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "loc.py"
MODULES = sorted((ROOT / "src" / "faultcast").glob("*.py"))


def test_totals_equal_wc_and_code_lines_are_fewer():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    assert [r[0] for r in rows] == [p.stem for p in MODULES] + ["total"]
    wc = subprocess.run(["wc", "-l", *map(str, MODULES)], capture_output=True, text=True,
                        check=True).stdout.split()
    assert [int(r[1]) for r in rows] == [int(n) for n in wc[::2]]
    assert all(0 < int(code) < int(lines) for _, lines, code in rows)
