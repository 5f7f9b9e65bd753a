import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from erlweak.cli import config_echo, main, parse_experiment
from erlweak.montecarlo import oracle_estimate

HALF_PI = math.pi / 2


def base_config(**overrides):
    doc = {
        "particle": {"mu_q": 0.0, "mu_p": 0.0, "sigma": 1.0},
        "device": {"delta_Q": 1.0, "mu_P": 0.0, "omega": 0.0},
        "coupling": {"g": 0.1, "theta_A": 0.0},
        "postselection": {"theta_B": HALF_PI, "b": 1.0, "epsilon": None},
        "sampling": {"n_samples": 50_000, "seed": 7},
    }
    for key, section in overrides.items():
        doc[key].update(section)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestWeakvalue:
    def test_commuting_case(self, tmp_path, capsys):
        doc = base_config(postselection={"theta_B": 0.0, "b": 2.0})
        assert main(["weakvalue", "--config", write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "re=2" in out
        assert "im=0" in out

    def test_momentum_postselection(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["weakvalue", "--config", path]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("weak_value"))
        fields = dict(kv.split("=") for kv in line.split()[1:])
        assert float(fields["re"]) == pytest.approx(0.0, abs=1e-12)
        assert float(fields["im"]) == pytest.approx(-2.0, abs=1e-12)

    def test_discrete_section(self, tmp_path, capsys):
        r = 1.0 / math.sqrt(2.0)
        doc = {
            "discrete": {
                "amplitudes": [r, r],
                "overlaps": [math.cos(math.pi / 8), [0.0, math.sin(math.pi / 8)]],
                "eigenvalues": [1.0, -1.0],
            }
        }
        assert main(["weakvalue", "--config", write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        fields = dict(kv.split("=") for kv in out.split()[1:])
        assert float(fields["re"]) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert float(fields["im"]) == pytest.approx(-math.sin(math.pi / 4), abs=1e-12)

    def test_malformed_config_names_field(self, tmp_path, capsys):
        doc = base_config()
        del doc["particle"]["sigma"]
        assert main(["weakvalue", "--config", write_config(tmp_path, doc)]) == 2
        assert "particle.sigma" in capsys.readouterr().err

    def test_invalid_json_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["weakvalue", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_subcommand_usage_error(self, capsys):
        assert main([]) == 2


class TestSimulate:
    def test_byte_deterministic(self, tmp_path):
        path = write_config(tmp_path, base_config())
        for sub in ("a", "b"):
            assert main(
                ["simulate", "--config", path, "--out", str(tmp_path / sub), "--quiet"]
            ) == 0
        a = (tmp_path / "a" / "simulate.csv").read_bytes()
        b = (tmp_path / "b" / "simulate.csv").read_bytes()
        assert a == b

    def test_row_contents(self, tmp_path):
        doc = base_config(coupling={"g": 0.0}, sampling={"n_samples": 200_000})
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        header, row = (tmp_path / "o" / "simulate.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert abs(float(cols["mean_Q"])) <= 3.0 * float(cols["se_Q"])
        assert abs(float(cols["mean_Q"]) - float(cols["oracle_Q"])) <= 3.0 * float(cols["se_Q"]) + 1e-3
        assert cols["error"] == ""
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert "simulate.csv" in manifest["outputs"]

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, base_config())
        main(["simulate", "--config", path, "--out", str(tmp_path / "s1"), "--seed", "99", "--quiet"])
        manifest = json.loads((tmp_path / "s1" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_insufficient_acceptance_flagged(self, tmp_path):
        doc = base_config(
            postselection={"b": 50.0, "epsilon": 0.001}, sampling={"n_samples": 1000}
        )
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        _, row = (tmp_path / "o" / "simulate.csv").read_text().splitlines()
        assert row.endswith("insufficient_acceptance")


class TestSweep:
    def test_g_halving_residuals_shrink_cubically(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"g": [0.2, 0.1, 0.05, 0.025]}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("residual_P")
        residuals = [abs(float(line.split(",")[idx])) for line in lines[1:]]
        orders = [math.log2(r1 / r2) for r1, r2 in zip(residuals, residuals[1:])]
        assert min(orders) > 2.5

    def test_delta_p_halving_momentum_vanishes(self, tmp_path):
        doc = base_config(particle={"mu_q": 0.3, "mu_p": -0.2}, coupling={"g": 0.05})
        doc["postselection"]["b"] = 0.0
        doc["sweep"] = {"delta_P": [0.4, 0.2, 0.1, 0.05, 0.025]}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        idx = lines[0].split(",").index("exact_P")
        values = [abs(float(line.split(",")[idx])) for line in lines[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_device_mean_momentum_honoured(self, tmp_path):
        doc = base_config(device={"mu_P": 0.5, "omega": 0.5})
        doc["sweep"] = {"g": [0.3, 0.01]}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        for row in rows:
            config = parse_experiment(doc)
            config = dataclasses.replace(config, g=float(row["g"]))
            oracle_Q, oracle_P, _ = oracle_estimate(config)
            assert float(row["exact_Q"]) == pytest.approx(oracle_Q, abs=1e-12)
            assert float(row["exact_P"]) == pytest.approx(oracle_P, abs=1e-12)
        # at weak coupling the first-order P prediction carries the mu_P offset
        weak = rows[1]
        assert float(weak["fo_P"]) == pytest.approx(0.5, abs=0.02)
        assert abs(float(weak["residual_P"])) < 1e-4

    def test_empty_range_rejected(self, tmp_path, capsys):
        doc = base_config()
        doc["sweep"] = {"g": []}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_mc_columns(self, tmp_path):
        doc = base_config(sampling={"n_samples": 50_000})
        doc["sweep"] = {"g": [0.1, 0.2]}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"), "--mc", "--quiet"]) == 0
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        assert "mc_Q" in lines[0]
        assert len(lines) == 3


class TestHistogramCommand:
    def test_csv_shape_and_total(self, tmp_path):
        doc = base_config(sampling={"n_samples": 20_000})
        doc["histogram"] = {"bins": 11, "p_range": [-5, 5], "P_range": [-3, 3]}
        path = write_config(tmp_path, doc)
        assert main(["histogram", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        lines = (tmp_path / "o" / "histogram.csv").read_text().splitlines()
        assert lines[0] == "p_lo,p_hi,P_lo,P_hi,count"
        assert len(lines) == 1 + 11 * 11
        total = sum(int(line.split(",")[-1]) for line in lines[1:])
        assert total <= 20_000

    def test_bad_range_rejected(self, tmp_path):
        doc = base_config()
        doc["histogram"] = {"bins": 11, "p_range": [5, -5], "P_range": [-3, 3]}
        path = write_config(tmp_path, doc)
        assert main(["histogram", "--config", path, "--out", str(tmp_path / "o")]) == 2


class TestVerifyAndRoundTrip:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "VERIFY PASS" in out
        assert out.count("[PASS]") == 4

    def test_config_round_trip(self, tmp_path):
        doc = base_config(particle={"mu_q": 0.25}, device={"omega": -0.5})
        config = parse_experiment(doc)
        echoed = config_echo(config)
        assert parse_experiment(echoed) == config
        assert config_echo(parse_experiment(echoed)) == echoed


def test_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, erlweak.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
