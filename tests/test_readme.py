"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    # a signature change that the package's only library example still
    # uses fails here, not in a reader's first session
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "the library quick start has no python block"
    exec(compile(block.group(1), f"{README}:Quick start (library)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0].split()[0] in ("True", "False")
