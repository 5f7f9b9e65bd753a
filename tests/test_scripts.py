"""Smoke tests: the scripts under scripts/ run against the current library."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_weak_limit_sweep():
    lines = run_script("weak_limit_sweep.py", "--steps", "2").splitlines()
    assert lines[0].startswith("weak value: re=")
    for header in ("g,exact_Q,", "delta_P,exact_Q,"):
        i = next(i for i, line in enumerate(lines) if line.startswith(header))
        rows = lines[i + 1 : i + 3]
        assert [len(row.split(",")) for row in rows] == [len(lines[i].split(","))] * 2


def test_fig2_histogram(tmp_path):
    out = tmp_path / "slices.csv"
    stdout = run_script("fig2_histogram.py", "--n", "20000", "--out", str(out))
    assert stdout.startswith(f"wrote {out}; exact conditional slope dE[P|p]/dp = -0.4")
    header, *rows = out.read_text().splitlines()
    assert header == "p_center,count,mean_P_given_p,exact_mean_P_given_p"
    assert rows and 0 < sum(int(row.split(",")[1]) for row in rows) <= 20000
