"""Every ```python block of README.md runs as written.

Each block runs in a fresh namespace, compiled at its own README lines,
so a traceback points into the README and a block that names a removed
function fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (first code line, code) of each block
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
]


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"README.md:{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code):
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "__readme__"})
