"""tools/batch_cost.py: the fixed and per-step cost of a training batch."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "batch_cost.py"


def test_one_repeat_prints_every_shape_and_both_fits():
    proc = subprocess.run([sys.executable, str(TOOL), "--repeats", "1"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "steps\tfresh_us\tresident_us"
    assert [r.split("\t")[0] for r in rows[:4]] == ["4+6", "8+12", "16+24", "9x4+6"]
    for row in rows[:3]:
        assert all(float(v) > 0 for v in row.split("\t")[1:])
    assert rows[3].split("\t")[1] == "-" and float(rows[3].split("\t")[2]) > 0
    assert [r.split(":")[0] for r in rows[4:6]] == ["fresh", "resident"]
    assert all(" us per call, slope " in r for r in rows[4:6])
    assert rows[6] == "steps\tforward_us\tbatch_adjoints_us\tbackward_us\toptimizer_step_us"
    assert [r.split("\t")[0] for r in rows[7:11]] == ["4+6", "8+12", "16+24", "9x4+6"]
    for row in rows[7:11]:
        assert len(row.split("\t")) == 5 and all(float(v) > 0 for v in row.split("\t")[1:])
    # the validation pass, for one model and for the 9-member stack
    assert len(rows) == 13 and rows[11] == "pass\tmembers_1_us\tmembers_9_us"
    name, *values = rows[12].split("\t")
    assert name == "validation" and len(values) == 2 and all(float(v) > 0 for v in values)
