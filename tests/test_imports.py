"""Every module-level import and private name in the package is used, and
the package fails in two ways only.

No linter ships with the toolchain, so this parses each module with ast:
a name bound by a top-level import must appear as a name somewhere else
in the module, and a private (single-underscore) name bound at module level
by a def, class or assignment must be read somewhere in the module.
__init__.py is skipped (its imports are re-exports), and so are
`from __future__` imports.

Every raise names ValueError (an argument the code cannot use),
ArithmeticError (a numerical failure) or a package class derived from one,
and cli_main's handlers map exactly those two to exit codes 2 and 1.

scipy's private sparsetools module is imported by dynamics.py alone, so
the dependency stays behind the one kernel wrapper there.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nandwalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FAILURE_CLASSES = frozenset({"ValueError", "ArithmeticError"})
SPARSETOOLS = "scipy.sparse._sparsetools"


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


def failure_classes(sources) -> set[str]:
    """FAILURE_CLASSES and every class the sources derive from them."""
    classes = [n for s in sources for n in ast.walk(ast.parse(s)) if isinstance(n, ast.ClassDef)]
    allowed = set(FAILURE_CLASSES)
    while True:
        derived = {c.name for c in classes
                   if any(isinstance(b, ast.Name) and b.id in allowed for b in c.bases)}
        if derived <= allowed:
            return allowed
        allowed |= derived


def foreign_raises(source: str, allowed) -> list[str]:
    """Each raise whose class is not in allowed; a bare raise counts as foreign."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc) if exc is not None else "raise"
            if name not in allowed:
                found.append(f"{name} (line {node.lineno})")
    return found


def cli_handlers(source: str) -> list[tuple[str, list[str]]]:
    """Per try statement in cli_main: its first statement and the types its
    handlers name."""
    main = next(n for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.FunctionDef) and n.name == "cli_main")
    return [(ast.unparse(t.body[0]),
             [ast.unparse(h.type) if h.type else "bare except" for h in t.handlers])
            for t in ast.walk(main) if isinstance(t, ast.Try)]


def imports_of(source: str, module: str) -> list[int]:
    """Lines anywhere in the source that import `module` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == module or n.startswith(module + ".") for n in names):
            found.append(node.lineno)
    return found


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raises_only_the_two_failure_classes(path):
    allowed = failure_classes(p.read_text(encoding="utf-8") for p in MODULES)
    assert allowed - FAILURE_CLASSES == {"NonPowerOfTwoError"}
    foreign = foreign_raises(path.read_text(encoding="utf-8"), allowed)
    assert not foreign, f"{path.name} raises {foreign}"


def test_cli_main_maps_the_two_failure_classes():
    handlers = cli_handlers((SRC / "harness.py").read_text(encoding="utf-8"))
    assert handlers == [("args = parser.parse_args(argv)", ["SystemExit"]),
                        ("_check_out(getattr(args, 'out', None))",
                         ["ValueError", "ArithmeticError"])]


def test_detects_foreign_raise():
    source = (
        "class BadInput(ValueError):\n    pass\n"
        "class Worse(BadInput):\n    pass\n"
        "class Other(Exception):\n    pass\n"
        "def f(x):\n"
        "    if x < 0:\n        raise Worse('x')\n"
        "    if x == 0:\n        raise KeyError(x)\n"
        "    if x == 1:\n        raise Other\n"
        "    try:\n        return 1 / x\n"
        "    except ZeroDivisionError:\n        raise\n"
    )
    allowed = failure_classes([source])
    assert allowed == {"ValueError", "ArithmeticError", "BadInput", "Worse"}
    assert foreign_raises(source, allowed) == ["KeyError (line 11)", "Other (line 13)",
                                               "raise (line 17)"]
    handlers = cli_handlers(
        "def cli_main(argv):\n"
        "    try:\n        a = p(argv)\n    except SystemExit:\n        return 2\n"
        "    try:\n        return a()\n"
        "    except (ValueError, KeyError):\n        return 2\n    except:\n        return 1\n"
    )
    assert handlers == [("a = p(argv)", ["SystemExit"]),
                        ("return a()", ["(ValueError, KeyError)", "bare except"])]


def test_sparsetools_only_in_dynamics():
    importers = {p.name for p in SRC.glob("*.py")
                 if imports_of(p.read_text(encoding="utf-8"), SPARSETOOLS)}
    assert importers == {"dynamics.py"}


def test_detects_sparsetools_import():
    source = (
        "import scipy.sparse as sp\n"
        "from scipy.sparse import _sparsetools\n"
        "from scipy.sparse._sparsetools import csr_matvec as mv\n"
        "import scipy.sparse._sparsetools\n"
        "from scipy.sparse import _sparsetools_extra\n"
        "def f():\n    from scipy.sparse import linalg, _sparsetools\n"
    )
    assert imports_of(source, SPARSETOOLS) == [2, 3, 4, 7]
