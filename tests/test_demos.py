"""Every name a demo imports from nandwalk exists on the package.

The demos are parsed, not run (running all six takes seconds), so a
removed or renamed export fails here instead of only in the demo.  Four
are also run in-process: the scattering demo drives y_bottom,
transmission and scan_bounds end to end, the walk demo prints each run's
verdict as JSON, and the packet-spectrum and gamma-convergence demos print
measured p_right against the scattering prediction.
"""

import ast
import json
import runpy
from pathlib import Path

import pytest

import nandwalk

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


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


def test_scattering_demo_runs(capsys):
    runpy.run_path(str(DEMO_DIR / "scattering_transmission.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("-> 0 violations") == 2


def test_walk_demo_runs(capsys):
    runpy.run_path(str(DEMO_DIR / "walk_run.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("[correct]") == 2
    verdicts = [json.loads(line.split("verdict json: ", 1)[1])
                for line in out.splitlines() if line.startswith("verdict json: ")]
    assert [v["config"]["bits"] for v in verdicts] == ["0011", "0110"]


@pytest.mark.parametrize("name, rows", [("packet_spectrum.py", 4), ("gamma_convergence.py", 10)])
def test_prediction_demo_rows_within_bound(capsys, name, rows):
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("[within bound]") == rows
    assert "OUTSIDE" not in out
