"""Every module-level import and private name in the package is used.

No linter ships with the toolchain, so this parses each module with ast:
a name bound by a top-level import must appear as a name somewhere else
in the module, and a private (single-underscore) name bound at module level
by a def, class or assignment must be read somewhere in the module.
__init__.py is skipped (its imports are re-exports), and so are
`from __future__` imports.
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


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        bound.setdefault(n.id, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_modules_found():
    assert len(MODULES) >= 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    unread = unread_private_names(path.read_text(encoding="utf-8"))
    assert not unread, f"{path.name} binds but never reads {unread}"


def test_detects_leftover_import():
    source = "import dataclasses\nimport json\nfrom math import pi as PI, tau\n\nx = json.dumps(PI)\n"
    assert unused_imports(source) == ["dataclasses (line 1)", "tau (line 3)"]


def test_detects_unread_private_name():
    source = (
        "import numpy as np\n"
        "_X, _W = np.polynomial.legendre.leggauss(16)\n"
        "_LIMIT: int = 3\n"
        "__all__ = ['f']\n"
        "def _helper():\n    return _LIMIT\n"
        "def _unused():\n    pass\n"
        "class _Spare:\n    pass\n"
        "def f(x):\n    return _helper() * np.sum(_W * x)\n"
    )
    assert unread_private_names(source) == ["_X (line 2)", "_unused (line 7)", "_Spare (line 9)"]
