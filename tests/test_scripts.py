"""Smoke runs of the desk scripts under ``scripts/``: each exits 0 and prints
its section headers on small arguments."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_family_sweep_runs():
    out = run_script("family_sweep.py", "--amax", "3", "--emax", "2", "--limit", "4")
    for header in (
        "== e = (k+1)/2 family ==",
        "== e = k/2 base pairs (each is a Seifert S^3, so embeds) ==",
        "== random spaces at the bound e = (k+1)/2 ==",
    ):
        assert header in out.splitlines(), out
    assert "SFS(g=0; e=2; 3/2, 3, 3/2)" in out and "family=half-plus" in out
    assert "u=3/2, v=4: SFS(g=0; e=1; 3/2, 4) -> EMBEDS" in out


def test_pretzel_census_runs():
    out = run_script("pretzel_census.py", "--strands", "3", "--bound", "5")
    lines = out.splitlines()
    assert lines[0] == "56 odd pretzel knots (multisets), |c_i| <= 5, k in [3]", out
    assert "doubly slice up to mutation:" in lines
    assert "  P(-3,3,3)" in lines


def test_brieskorn_census_counts():
    lines = run_script("brieskorn_census.py").splitlines()
    assert lines[0] == "Sigma(2,3,5)\tSFS(g=0; e=2; 2, 3/2, 5/4)\tnot_partitionable", lines[0]
    assert lines[-4:] == [
        "1167 spheres",
        "  UNKNOWN: 294",
        "  mubar_zero_count: 290",
        "  not_partitionable: 583",
    ], lines[-4:]
