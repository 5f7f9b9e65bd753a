"""Smoke tests: the configs under scripts/ run against the current library."""

import json
from pathlib import Path

import pytest

from erlweak.cli import HISTOGRAM_HEADER, SWEEP_HEADER, main

ROOT = Path(__file__).resolve().parents[1]


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
    """The postselection-bias picture is an `erlweak histogram` config; its
    manifest records the exact slope dE[P' | p']/dp', -g Var(P) / Var(p')."""
    doc = json.loads((ROOT / "scripts" / "fig2_histogram.json").read_text())
    doc["sampling"]["n_samples"] = 20_000
    config = tmp_path / "fig2.json"
    config.write_text(json.dumps(doc))
    assert main(["histogram", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["exact_slope_P_given_p"] == pytest.approx(-0.4, rel=1e-15)
    header, *rows = (tmp_path / "histogram.csv").read_text().splitlines()
    assert header == HISTOGRAM_HEADER and len(rows) == 41 * 41
    assert 0 < sum(int(row.split(",")[-1]) for row in rows) <= 20_000
