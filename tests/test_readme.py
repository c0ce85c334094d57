"""The README's library quickstart runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_block_runs():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library quickstart\s+```python\n(.*?)```", text, re.DOTALL)
    assert match, "README has no python block under 'Library quickstart'"
    namespace = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    # the values the block's comments state
    assert namespace["verdict"].decision == 0
    assert abs(namespace["T"]) < 0.01
