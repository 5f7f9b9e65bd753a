"""Smoke tests: the scripts and sweep configs under scripts/ run against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from erlweak.cli import SWEEP_HEADER, main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


@pytest.mark.parametrize("axis", ["g", "delta_P"])
def test_weak_limit_sweep_configs(tmp_path, axis):
    """The two limit studies are `erlweak sweep` configs: g halved at
    delta_Q = 1, omega = 0, and delta_P halved at g = 0.05."""
    config = ROOT / "scripts" / f"weak_limit_{axis}.json"
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    header, *lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert header == SWEEP_HEADER
    rows = [dict(zip(header.split(","), map(float, line.split(",")[:-1]))) for line in lines]
    halvings = [0.4 / 2**k for k in range(6)]
    if axis == "g":
        assert [row["g"] for row in rows] == halvings
        assert all(row["delta_Q"] == 1.0 and row["omega"] == 0.0 for row in rows)
        shrink, columns = 2**2.5, ("residual_Q", "residual_P")  # cubic in g
    else:
        assert all(row["g"] == 0.05 for row in rows)
        assert [row["delta_Q"] for row in rows] == [1.0 / (2.0 * d) for d in halvings]
        shrink, columns = 3.5, ("residual_Q", "exact_P")  # quadratic in delta_P
    for column in columns:
        values = [abs(row[column]) for row in rows]
        assert all(a > shrink * b > 0.0 for a, b in zip(values, values[1:])), column


def test_fig2_histogram(tmp_path):
    out = tmp_path / "slices.csv"
    stdout = run_script("fig2_histogram.py", "--n", "20000", "--out", str(out))
    assert stdout.startswith(f"wrote {out}; exact conditional slope dE[P|p]/dp = -0.4")
    header, *rows = out.read_text().splitlines()
    assert header == "p_center,count,mean_P_given_p,exact_mean_P_given_p"
    assert rows and 0 < sum(int(row.split(",")[1]) for row in rows) <= 20000
