"""Every name a demo imports from nandwalk exists on the package.

The demos are parsed, not run (running all six takes seconds), so a
removed or renamed export fails here instead of only in the demo.
"""

import ast
from pathlib import Path

import pytest

import nandwalk

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 1


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_imported_names_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "nandwalk"
             for alias in node.names]
    assert names, f"{path.name} imports nothing from nandwalk"
    missing = [n for n in names if not hasattr(nandwalk, n)]
    assert not missing, f"{path.name} imports missing names {missing}"
