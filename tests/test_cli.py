import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from erlweak import montecarlo
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

    def test_mc_flag_is_a_usage_error(self, tmp_path, capsys):
        # --mc belongs to sweep alone
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--mc"]) == 2
        assert "--mc" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


class TestNonFiniteNumbers:
    """JSON's NaN and Infinity parse as floats; every command rejects them as
    a config error naming the field, before any output is written."""

    def _rejects(self, tmp_path, capsys, command, doc, field):
        argv = [command, "--config", write_config(tmp_path, doc)]
        if command != "weakvalue":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err

    def test_weakvalue(self, tmp_path, capsys):
        doc = base_config(postselection={"b": math.nan})
        self._rejects(tmp_path, capsys, "weakvalue", doc, "postselection.b")

    def test_simulate(self, tmp_path, capsys):
        doc = base_config(postselection={"epsilon": math.inf})
        self._rejects(tmp_path, capsys, "simulate", doc, "postselection.epsilon")
        assert not (tmp_path / "o").exists()

    def test_sweep(self, tmp_path, capsys):
        doc = base_config(particle={"sigma": 10**400})  # an integer beyond the float range
        self._rejects(tmp_path, capsys, "sweep", doc, "particle.sigma")
        doc = base_config()
        doc["sweep"] = {"g": [0.1, -math.inf]}
        self._rejects(tmp_path, capsys, "sweep", doc, "sweep.g")

    def test_histogram(self, tmp_path, capsys):
        doc = base_config()
        doc["histogram"] = {"bins": 11, "p_range": [-5, 5], "P_range": [math.nan, 3]}
        self._rejects(tmp_path, capsys, "histogram", doc, "histogram.P_range")

    def test_histogram_range_whose_edges_overflow(self, tmp_path, capsys):
        # finite bounds whose span overflows: the edges would be nan and inf
        doc = base_config()
        doc["histogram"] = {"bins": 11, "p_range": [-1e308, 1e308], "P_range": [-3, 3]}
        out = tmp_path / "o"
        assert main(["histogram", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "histogram.csv").exists()


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


class TestWorkerIndependence:
    """Data CSVs do not depend on how many processes run the chunks."""

    # three chunks of DEFAULT_CHUNK rows, the last one partial, and n is not
    # a multiple of the block size either
    N = 2 * montecarlo.DEFAULT_CHUNK + 12_345

    def _run(self, tmp_path, name, argv, doc):
        path = write_config(tmp_path, doc, f"{name}.json")
        out = tmp_path / name
        assert main([*argv, "--config", path, "--out", str(out), "--quiet"]) == 0
        csvs = {f.name: f.read_bytes() for f in out.glob("*.csv")}
        return csvs, json.loads((out / "manifest.json").read_text())["run"]

    def test_csvs_identical_with_one_worker_and_with_the_pool(self, tmp_path, monkeypatch):
        assert self.N % montecarlo.BLOCK
        doc = base_config(
            coupling={"g": 0.3, "theta_A": 0.2},
            device={"omega": 0.5, "mu_P": 0.3},
            postselection={"b": 0.5, "epsilon": 0.2},
            sampling={"n_samples": self.N},
        )
        commands = {
            "simulate": (["simulate"], doc),
            "sweep": (["sweep", "--mc"], {**doc, "sweep": {"b": [0.5, 1.0]}}),
            "histogram": (["histogram"], {**doc, "histogram": {"bins": 17}}),
        }
        pooled = {name: self._run(tmp_path, f"pool-{name}", *cmd) for name, cmd in commands.items()}
        monkeypatch.setattr(montecarlo, "WORKERS", 1)
        serial = {name: self._run(tmp_path, f"one-{name}", *cmd) for name, cmd in commands.items()}
        for name in commands:
            (pooled_csvs, pooled_run), (serial_csvs, serial_run) = pooled[name], serial[name]
            assert pooled_csvs and pooled_csvs == serial_csvs, name
            chunks = 3 * (2 if name == "sweep" else 1)
            assert serial_run == {"workers": 1, "chunks": chunks}
            assert pooled_run == {"workers": min(montecarlo._usable_cpus(), 3), "chunks": chunks}

    def test_closed_form_sweep_runs_no_chunks(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"g": [0.1, 0.2]}
        assert self._run(tmp_path, "closed", ["sweep"], doc)[1] == {"workers": 0, "chunks": 0}


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
