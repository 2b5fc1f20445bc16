"""The shipped examples must run clean end-to-end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.slow
def test_quickstart():
    res = _run("quickstart.py")
    assert res.returncode == 0, res.stderr
    assert "bit-exact vs serial reference: True" in res.stdout
    assert "pack" in res.stdout


@pytest.mark.slow
def test_multifield_simulation():
    res = _run("multifield_simulation.py")
    assert res.returncode == 0, res.stderr
    assert "u bit-exact: True" in res.stdout
    assert "v bit-exact: True" in res.stdout


@pytest.mark.slow
def test_jacobi_solver():
    res = _run("jacobi_solver.py")
    assert res.returncode == 0, res.stderr
    assert "field bit-exact vs serial: True" in res.stdout
    assert "monotone: True" in res.stdout


def test_paper_figures_selection():
    res = _run("paper_figures.py", "tab1", "fig4")
    assert res.returncode == 0, res.stderr
    assert "TAB1" in res.stdout
    assert "FIG4" in res.stdout


def test_paper_figures_list():
    res = _run("paper_figures.py", "--list")
    assert res.returncode == 0
    names = res.stdout.split()
    assert "fig9" in names and "tab2" in names
    assert len(names) == 19


def test_paper_figures_rejects_unknown():
    res = _run("paper_figures.py", "fig99")
    assert res.returncode != 0


def test_strong_scaling_advisor():
    res = _run(
        "strong_scaling_advisor.py", "--domain", "512", "--max-nodes", "64"
    )
    assert res.returncode == 0, res.stderr
    assert "Recommendation" in res.stdout
    assert "memmap" in res.stdout
