"""Every module-level import in the package is used in its module.

No linter ships with the toolchain, so this parses each module with ast:
a name bound by a top-level import must appear as a name somewhere else
in the module.  __init__.py is skipped (its imports are re-exports), and
so are `from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nandwalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_modules_found():
    assert len(MODULES) >= 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_detects_leftover_import():
    source = "import dataclasses\nimport json\nfrom math import pi as PI, tau\n\nx = json.dumps(PI)\n"
    assert unused_imports(source) == ["dataclasses (line 1)", "tau (line 3)"]
