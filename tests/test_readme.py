"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's quick start has no python block"
    return match.group(1)


def test_library_quick_start_runs(capsys):
    scope = {}
    exec(compile(quick_start_block(), str(README), "exec"), scope)
    pred, dims = scope["pred"], scope["meta"].dims
    assert pred.label_probs.shape == (1, dims.n_labels)
    assert pred.step_scores.shape == (1, dims.horizon, dims.n_labels)
    assert capsys.readouterr().out.count("[") >= 2  # both arrays were printed
