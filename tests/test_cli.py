import builtins
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from erlweak import montecarlo
from erlweak.analytic import first_order_shifts, postselected_means_gaussian, weak_value_gaussian
from erlweak.bounds import gaussian_regime_margin
from erlweak.cli import CONFIG_FIELDS, _cells, _fmt, config_echo, main, parse_experiment
from erlweak.montecarlo import ExperimentConfig, acceptance_probability, oracle_estimate
from erlweak.dynamics import apply_to_state, coupling_map
from erlweak.states import Quadrature, quadrature_moments

HALF_PI = math.pi / 2
CLOSED_FORM_ERROR = (
    "error: OverflowError: the closed form overflows or underflows: "
    "a product or quotient of config fields is out of float range\n"
)
VERSIONS = {"python": platform.python_version(), "numpy": np.__version__}


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

    @pytest.mark.parametrize(
        "discrete, field",
        [
            ({"amplitudes": [math.nan, 0.5]}, "discrete.amplitudes[0]"),
            ({"amplitudes": [[1.0, math.inf], 0.5]}, "discrete.amplitudes[0][1]"),
            ({"amplitudes": [["a", 1.0], 0.5]}, "discrete.amplitudes[0][0]"),
            ({"overlaps": [1.0, [0.5, 0.5, 0.5]]}, "discrete.overlaps[1]"),
            ({"eigenvalues": [1.0, "x"]}, "discrete.eigenvalues[1]"),
            ({"eigenvalues": [1.0, math.inf]}, "discrete.eigenvalues[1]"),
            ({"eigenvalues": 7}, "discrete.eigenvalues"),
            ({"eigenvalues": [1.0, -1.0, 0.0]}, "must have equal lengths"),
        ],
        ids=[
            "nan-amplitude",
            "infinite-imaginary-part",
            "string-real-part",
            "three-part-overlap",
            "string-eigenvalue",
            "infinite-eigenvalue",
            "eigenvalues-not-a-list",
            "unequal-lengths",
        ],
    )
    def test_discrete_section_is_validated(self, tmp_path, capsys, discrete, field):
        doc = {"discrete": {"amplitudes": [0.5, 0.5], "overlaps": [1.0, 1.0], "eigenvalues": [1.0, -1.0]}}
        doc["discrete"].update(discrete)
        assert main(["weakvalue", "--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and field in captured.err

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

    def test_manifest_records_exact_acceptance_and_versions(self, tmp_path):
        doc = base_config(postselection={"epsilon": 0.1}, sampling={"n_samples": 200_000})
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        comparison = manifest["oracle_comparison"]
        prob = acceptance_probability(parse_experiment(doc))
        assert comparison["acceptance_probability"] == prob
        assert abs(comparison["acceptance_rate"] - prob) <= 4.0 * math.sqrt(prob * (1 - prob) / 200_000)
        assert manifest["run"]["python"] == platform.python_version()
        assert manifest["run"]["numpy"] == np.__version__

        # an empty window: no accepted samples, the exact probability still recorded
        far = base_config(postselection={"b": 40.0, "epsilon": 0.01}, sampling={"n_samples": 1_000})
        path = write_config(tmp_path, far, "far.json")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "f"), "--quiet"]) == 1
        manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
        assert manifest["oracle_comparison"]["acceptance_rate"] == 0.0
        assert 0.0 <= manifest["oracle_comparison"]["acceptance_probability"] < 1e-300
        assert {"python", "numpy"} <= manifest["run"].keys()

    def test_manifest_z_scores_against_the_windowed_oracle(self, tmp_path):
        # the README config at its seed; the z-scores leave the CSV as it was
        doc = base_config(sampling={"n_samples": 1_000_000, "seed": 42})
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        comparison = json.loads((tmp_path / "o" / "manifest.json").read_text())["oracle_comparison"]
        z = comparison["z_vs_windowed_oracle"]
        assert sorted(z) == ["mean_A", "mean_P", "mean_Q"]
        assert all(abs(value) <= 5.0 for value in z.values()), z
        csv = (tmp_path / "o" / "simulate.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "4ad9d4a631ab8347c7167818b3bb224dacda6669e84ddf8b800160d0bbe40433"
        )

        # a run that accepts too few draws records no z-scores
        far = base_config(postselection={"b": 40.0, "epsilon": 0.01}, sampling={"n_samples": 1_000})
        path = write_config(tmp_path, far, "far.json")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "f"), "--quiet"]) == 1
        comparison = json.loads((tmp_path / "f" / "manifest.json").read_text())["oracle_comparison"]
        assert "z_vs_windowed_oracle" not in comparison

    def test_manifest_z_score_with_a_zero_se_is_null(self, tmp_path):
        # p near 1e20 rounds to one float, so A = p takes one value
        doc = base_config(
            particle={"mu_p": 1e20},
            coupling={"theta_A": HALF_PI},
            postselection={"theta_B": 0.0},
            sampling={"n_samples": 20_000},
        )
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        z = json.loads((tmp_path / "o" / "manifest.json").read_text())["oracle_comparison"][
            "z_vs_windowed_oracle"
        ]
        assert z["mean_A"] is None
        assert math.isfinite(z["mean_Q"]) and math.isfinite(z["mean_P"])

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

    def test_readme_config_csv_pinned(self, tmp_path):
        # the closed forms' bytes on the README config, as the simulate pin above
        doc = base_config(sampling={"n_samples": 1_000_000, "seed": 42})
        doc["sweep"] = {"g": [0.05, 0.1, 0.3], "delta_P": [0.5, 0.25], "theta_A": [0.0, 0.7]}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        csv = (tmp_path / "o" / "sweep.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "b09a792f2a826db49559bffcbf8b0c3e72cecc61a6a408a44df4940f5bdc5f50"
        )

    def test_empty_range_rejected(self, tmp_path, capsys):
        doc = base_config()
        doc["sweep"] = {"g": []}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_manifest_echoes_the_resolved_config_and_axes(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"g": [0.1, 0.2], "b": [1]}
        doc["histogram"] = {"bins": 11}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"), "--seed", "99", "--quiet"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        config = parse_experiment(doc, 99)
        assert manifest["seed"] == 99
        assert manifest["config"] == {**config_echo(config), "sweep": {"g": [0.1, 0.2], "b": [1.0]}}

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

    def test_manifest_echoes_the_resolved_config_and_ranges(self, tmp_path):
        doc = base_config(sampling={"n_samples": 20_000})
        given = {"bins": 11, "p_range": [-5, 5], "P_range": [-3, 3]}
        for hist in ({"bins": 7}, given):
            doc["histogram"] = hist
            path = write_config(tmp_path, doc)
            out = tmp_path / "o"
            assert main(["histogram", "--config", path, "--out", str(out), "--seed", "99", "--quiet"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            # the ranges are the outer edges of the CSV's bins, automatic or given
            lines = (out / "histogram.csv").read_text().splitlines()[1:]
            p_lo, p_hi, P_lo, P_hi = (
                [float(line.split(",")[i]) for line in lines] for i in range(4)
            )
            resolved = {
                "bins": hist["bins"],
                "p_range": [min(p_lo), max(p_hi)],
                "P_range": [min(P_lo), max(P_hi)],
            }
            assert manifest["seed"] == 99
            assert manifest["config"] == {**config_echo(parse_experiment(doc, 99)), "histogram": resolved}
        assert resolved == {**given, "p_range": [-5.0, 5.0], "P_range": [-3.0, 3.0]}

    @pytest.mark.parametrize(
        "particle, hist, expected",
        [
            ({}, None, "4e2d9d0cef970bde7fc784755c707bcde7bd696fcbd43a647c641f4ce69dfae5"),
            (
                {"mu_p": 1e12},
                {"bins": 61, "p_range": [1e12 - 5, 1e12 + 5], "P_range": [-5, 5]},
                "611bcf1012717a6184e3760ada5525d69dbfd87f98b200eaaad542b6a9db1023",
            ),
        ],
        ids=["automatic box", "far offset"],
    )
    def test_csv_pinned(self, tmp_path, monkeypatch, particle, hist, expected):
        # the bytes on the README config, as the simulate and sweep pins: on
        # its automatic box, where the arithmetic index bins every draw, and
        # on a range far from 0, where some draws are binned by `_searchsorted_index`.
        # Re-recorded at version 0.2.0, when (p', P') began to be drawn from
        # two normals per draw through the read-out's own 2 x 2 factor
        monkeypatch.setattr(montecarlo, "WORKERS", 1)  # in this process, to count them
        fallback = []
        searchsorted_index = montecarlo._searchsorted_index

        def counting(x, edges):
            fallback.append(x.size)
            return searchsorted_index(x, edges)

        monkeypatch.setattr(montecarlo, "_searchsorted_index", counting)
        doc = base_config(particle=particle, sampling={"n_samples": 1_000_000, "seed": 42})
        if hist is not None:
            doc["histogram"] = hist
        path = write_config(tmp_path, doc)
        assert main(["histogram", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        csv = (tmp_path / "o" / "histogram.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == expected
        assert (sum(fallback) > 0) == (hist is not None)

    @pytest.mark.parametrize("p_range", [[5, -5], [1e20, 1.0000000000000002e20]])
    def test_bad_range_rejected(self, tmp_path, p_range):
        # empty, or too narrow for 11 distinct bins
        doc = base_config()
        doc["histogram"] = {"bins": 11, "p_range": p_range, "P_range": [-3, 3]}
        path = write_config(tmp_path, doc)
        assert main(["histogram", "--config", path, "--out", str(tmp_path / "o")]) == 2


class TestNonFiniteNumbers:
    """JSON's NaN and Infinity parse as floats; every command rejects them,
    and spreads (sigma, delta_Q, delta_P) that are not positive, as a config
    error naming the field, before any output is written."""

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

    @pytest.mark.parametrize(
        "command, section, field, value",
        [
            ("weakvalue", "device", "delta_Q", 0),
            ("weakvalue", "particle", "sigma", -1.0),
            ("simulate", "device", "delta_Q", -0.5),
            ("sweep", "particle", "sigma", 0.0),
        ],
    )
    def test_non_positive_spread(self, tmp_path, capsys, command, section, field, value):
        doc = base_config(**{section: {field: value}})
        self._rejects(tmp_path, capsys, command, doc, f"{section}.{field}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("delta_P", 0.0), ("delta_Q", -1.0)])
    def test_non_positive_sweep_spread(self, tmp_path, capsys, key, value):
        doc = base_config()
        doc["sweep"] = {key: [0.5, value]}
        self._rejects(tmp_path, capsys, "sweep", doc, f"sweep.{key}")
        assert not (tmp_path / "o").exists()

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


class TestRuntimeErrors:
    """A config that passes validation but whose arithmetic overflows, and an
    --out that cannot be a directory, end in one `error:` line naming the
    exception and exit 1, not in a traceback."""

    def _fails(self, capsys, argv, kind):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        name = captured.err.removeprefix("error: ").split(":")[0]
        assert issubclass(getattr(builtins, name), kind), captured.err

    @pytest.mark.parametrize(
        "section, field, value, command",
        [
            (section, field, value, command)
            for section, field, value in [
                ("particle", "sigma", 1e200),
                ("particle", "sigma", 1e-200),
                ("device", "delta_Q", 1e-200),
                ("device", "omega", 1e200),
                ("coupling", "g", 1e200),
            ]
            for command in ["weakvalue", "simulate", "sweep"]
            # the closed forms at sigma = 1e+-200 are finite: see the next test
            # and tests/test_reference.py
            if not (field == "sigma" and command != "simulate")
        ],
    )
    def test_finite_config_that_overflows(self, tmp_path, capsys, command, section, field, value):
        doc = base_config(**{section: {field: value}})
        doc["sweep"] = {"b": [1.0, 0.5]}  # an axis that leaves the field as it is
        argv = [command, "--config", write_config(tmp_path, doc)]
        if command != "weakvalue":
            argv += ["--out", str(tmp_path / "o"), "--quiet"]
        self._fails(capsys, argv, ArithmeticError)

    @pytest.mark.parametrize("command", ["weakvalue", "sweep"])
    @pytest.mark.parametrize("section, field", [("particle", "sigma"), ("postselection", "theta_B")])
    def test_finite_config_whose_bound_underflows(self, tmp_path, capsys, command, section, field):
        # 4 sigma^2 sin^2(theta_A - theta_B) underflows to 0: the regime ratio
        # is 0 to double precision (about 1e-402 at sigma = 1e-200)
        doc = base_config(**{section: {field: 1e-200}})
        doc["sweep"] = {"b": [1.0, 0.5]}
        argv = [command, "--config", write_config(tmp_path, doc)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "o"), "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if command == "weakvalue":
            assert out.splitlines()[-1] == "regime classification=deep_weak ratio=0 bound=inf"
        else:
            header, *rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
            assert len(rows) == 2
            for row in rows:
                cells = dict(zip(header.split(","), row.split(",")))
                assert cells["regime_ratio"] == "0" and cells["regime_class"] == "deep_weak"
                assert all(math.isfinite(float(v)) for v in row.split(",")[:-1])

    @pytest.mark.parametrize(
        "section, field, value",
        [("particle", "sigma", 1e200), ("particle", "sigma", 1e-200), ("particle", "sigma", 1e-160),
         ("device", "omega", 1e200), ("device", "delta_Q", 1e-200)],
    )
    def test_state_that_overflows_or_underflows_is_named(self, tmp_path, capsys, section, field, value):
        # the particle and device states overflow or underflow in Python
        # floats (sigma^2, 1 / (4 sigma^2), omega^2), whose own errors name no
        # cause; each sampler, with or without a histogram range, reads the
        # one checked coupled state
        doc = base_config(**{section: {field: value}})
        ranged = {**doc, "histogram": {"bins": 11, "p_range": [-5, 5], "P_range": [-3, 3]}}
        out = tmp_path / "o"
        for command, config in [("simulate", doc), ("histogram", doc), ("histogram", ranged)]:
            argv = [command, "--config", write_config(tmp_path, config), "--out", str(out), "--quiet"]
            assert main(argv) == 1, config
            assert capsys.readouterr().err == (
                "error: OverflowError: the coupled state overflows or underflows: "
                "a moment of it, its parts or B is out of range\n"
            ), config
            assert not out.exists()

    def test_mean_of_B_that_overflows_is_named(self, tmp_path, capsys):
        # the coupled state's moments are finite, its mean of B is not
        doc = base_config(
            particle={"mu_q": 1.5e308, "mu_p": 1.5e308}, postselection={"theta_B": math.pi / 4}
        )
        out = tmp_path / "o"
        argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: OverflowError: the coupled state overflows or underflows: "
            "a moment of it, its parts or B is out of range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "histogram"])
    @pytest.mark.parametrize("section, field", [("coupling", "g"), ("particle", "sigma")])
    def test_coupled_state_that_overflows(self, tmp_path, capsys, command, section, field):
        # finite inputs whose coupled covariance overflows: one OverflowError
        # line before any output, and no numpy RuntimeWarning on the way
        doc = base_config(**{section: {field: 1e154}}, sampling={"n_samples": 20_000})
        out = tmp_path / "o"
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"]
        self._fails(capsys, argv, OverflowError)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["weakvalue", "sweep"])
    @pytest.mark.parametrize(
        "sections",
        [
            # finite factors whose products overflow: p_shift = -inf, and
            # exact_P = -inf with residual_P = nan
            {"device": {"delta_Q": 1e-150}, "postselection": {"b": 1e20}},
            # k = g delta_P sin(theta_B - theta_A) / s_B is about 5e159, so the
            # regime ratio k k is inf, with finite shifts
            {"particle": {"sigma": 0.3}, "device": {"delta_Q": 7.8, "omega": -9.4e119},
             "coupling": {"g": 8.5e40}, "postselection": {"theta_B": 1.31, "b": 6.3}},
        ],
        ids=["product", "regime-ratio"],
    )
    def test_closed_form_that_overflows_is_named(self, tmp_path, capsys, command, sections):
        doc = base_config(**sections)
        doc["sweep"] = {"theta_A": [doc["coupling"]["theta_A"]]}  # leaves the config as it is
        argv = [command, "--config", write_config(tmp_path, doc)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "o"), "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err == CLOSED_FORM_ERROR
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "sections, message",
        [
            # 74 squared deviations of Q' near 1.6e153 overflow their sum
            ({"particle": {"sigma": 2.10}, "device": {"delta_Q": 1.6e153},
              "coupling": {"g": 0.0, "theta_A": HALF_PI},
              "postselection": {"theta_B": -3.79, "b": 0.0},
              "sampling": {"n_samples": 2000, "seed": 25}},
             "the sampled moments overflow: a sum of the draws or of their squares is out of range"),
            # the conditional mean moves by the gain times b - mu_B: inf
            ({"particle": {"mu_q": 2.0427837793130598e31, "mu_p": -1.4675462301333038,
                           "sigma": 1.2891231823151736},
              "device": {"delta_Q": 1.0840198350845482e148, "mu_P": -8.577717388899806e45,
                         "omega": -0.9916264338296173},
              "coupling": {"g": 3.4261826345304717e132, "theta_A": 0.804967313946193},
              "postselection": {"theta_B": 3.4271459294034337, "b": 1.6670586017987565,
                                "epsilon": 1.0154610731472313},
              "sampling": {"n_samples": 2000, "seed": 742704959}},
             "the oracle overflows: a conditional mean is out of float range"),
            # the merge's outer product of the chunk means overflows
            ({"particle": {"mu_q": 7.808012688253456e-57, "mu_p": -2.332830286873745,
                           "sigma": 1.3807937172961038},
              "device": {"delta_Q": 0.538571819848714, "mu_P": -4.622894133223559e162,
                         "omega": 2.625911748901031},
              "coupling": {"g": 1.1949359192329276, "theta_A": 4.153382727236075},
              "postselection": {"theta_B": 1e-9, "b": 7.526853615144862e-60,
                                "epsilon": 1.1492017626425681e179},
              "sampling": {"n_samples": 2000, "seed": 74842596}},
             "the sampled moments overflow: a sum of the draws or of their squares is out of range"),
        ],
        ids=["moments", "oracle", "merge"],
    )
    def test_sampled_moments_and_oracles_that_overflow_are_named(
        self, tmp_path, capsys, sections, message
    ):
        # each wrote a non-finite cell or warned, as _evolved's own overflow does not
        out = tmp_path / "o"
        argv = ["simulate", "--config", write_config(tmp_path, base_config(**sections))]
        assert main([*argv, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: OverflowError: {message}\n"
        assert not out.exists()

    # Var(B) = v.cov.v cancels to -1.76e71: cos(pi/2) = 6e-17 weighs
    # entries of the coupled covariance near 1e300 against Var(p') ~ 0.003
    LOST_PRECISION = {
        "particle": {"mu_q": -3.77e-168, "mu_p": 7.91, "sigma": 8.94},
        "device": {"delta_Q": 5.54e90, "mu_P": 0.0, "omega": -7.17},
        "coupling": {"g": -1.4141414e150, "theta_A": HALF_PI},
        "postselection": {"theta_B": HALF_PI, "b": -2.30, "epsilon": None},
        "sampling": {"n_samples": 2000, "seed": 1},
    }

    @pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--mc"], ["histogram"]])
    def test_variance_of_B_that_cancels_below_zero_is_named(self, tmp_path, capsys, argv):
        # the evolved covariance is not positive semidefinite in double
        # precision, so every command that samples rejects it
        doc = base_config(**self.LOST_PRECISION)
        doc["sweep"] = {"b": [-2.30]}
        config = parse_experiment(doc)
        evolved = apply_to_state(coupling_map(config.g, config.theta_A), config.joint())
        assert quadrature_moments(evolved, 0, config.theta_B)[1] < 0.0
        out = tmp_path / "o"
        assert main([*argv, "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: LostPrecisionError: the coupled state lost its precision: the variance of B, "
            "positive in exact arithmetic, cancels to a number that is not\n"
        )
        assert not out.exists()

    def test_variance_of_B_that_cancels_below_zero_is_named_past_a_groups_first_point(
        self, tmp_path, capsys
    ):
        # theta_B = 0 is sound and pi/2 is not; with an explicit epsilon
        # nothing but the check of each point's own coupled state sees it,
        # and pi/2 shares its draws with the first point of its group
        doc = base_config(**self.LOST_PRECISION)
        doc["postselection"]["epsilon"] = 0.1
        doc["sweep"] = {"theta_B": [0.0, HALF_PI]}
        out = tmp_path / "o"
        argv = ["sweep", "--mc", "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: LostPrecisionError: the coupled state lost its precision: the variance of B, "
            "positive in exact arithmetic, cancels to a number that is not\n"
        )
        assert not out.exists()

    def test_window_that_is_empty_in_double_precision_is_named(self, tmp_path, capsys):
        # every draw is accepted (B cancels two terms near 1e108 point by
        # point), while the window lies 1.6e91 std of B from its mean and its
        # ends round to one value there: no windowed oracle, and not a lack
        # of acceptance
        doc = base_config(
            particle={"mu_q": 1.49e-25, "mu_p": 0.0, "sigma": 3.43},
            device={"delta_Q": 9.67, "mu_P": -1.86e124, "omega": 3.42},
            coupling={"g": 0.796, "theta_A": math.pi},
            postselection={"theta_B": math.pi, "b": 7.29e-6, "epsilon": 0.5},
            sampling={"n_samples": 2000, "seed": 2431564717},
        )
        assert montecarlo.run_weak_experiment(parse_experiment(doc)).n_accepted == 2000
        out = tmp_path / "o"
        argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: the postselection window |B - b| <= epsilon is empty in double precision: "
            "its ends round to one value in std of B, so it has no windowed oracle\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "sections",
        [
            # a degenerate joint covariance
            {"particle": {"sigma": 2.46e15}, "device": {"omega": -1.41e54},
             "coupling": {"g": -1.92, "theta_A": 0.3}, "postselection": {"theta_B": 1.0}},
            # an automatic +-5 std box narrower than an ulp of its centre
            {"particle": {"mu_p": 1e20}},
        ],
        ids=["degenerate", "automatic-box"],
    )
    def test_histogram_failure_at_run_time_exits_1(self, tmp_path, capsys, sections):
        # exit 2 is for the bins and ranges that the config gives
        out = tmp_path / "o"
        argv = ["histogram", "--config", write_config(tmp_path, base_config(**sections))]
        assert main([*argv, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sections, g",
        [
            # p_shift overflows at every grid point
            ({"device": {"delta_Q": 1e-150}, "postselection": {"b": 1e20}}, [0.1, 0.2]),
            ({}, [0.1, 1e200]),  # the first point succeeds, the second overflows
        ],
        ids=["first-point", "second-point"],
    )
    def test_sweep_that_fails_writes_nothing(self, tmp_path, capsys, sections, g):
        doc = base_config(**sections)
        doc["sweep"] = {"g": g}
        out = tmp_path / "o"
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"]
        self._fails(capsys, argv, ArithmeticError)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, out", [("simulate", "file"), ("sweep", "file"), ("histogram", "file/sub")]
    )
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, command, out):
        doc = base_config(sampling={"n_samples": 1_000})
        doc["sweep"] = {"g": [0.1]}
        (tmp_path / "file").write_text("")
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / out)]
        self._fails(capsys, argv, OSError)


class TestClosedFormsOnPythonFloats:
    """`weakvalue` and `sweep` print the public closed forms called on the
    config's Python floats, bit for bit, and end in the one closed-form
    error line with exit 1 wherever that call raises or a value they print
    is not finite."""

    THETAS = (0.0, HALF_PI, math.pi, 2.2)
    BASE = {
        "particle": {"mu_q": 0.2, "mu_p": -0.5, "sigma": 1.0},
        "device": {"delta_Q": 0.7, "mu_P": 0.4, "omega": -0.6},
        "coupling": {"g": 0.3},
        "postselection": {"b": 1.3},
    }

    @staticmethod
    def _expected(c: ExperimentConfig) -> tuple[str | None, str | None]:
        """(weakvalue stdout, sweep row) of the closed forms on the Python
        floats of `c`, each None where it raises or prints a value that is
        not finite (the regime bound may be inf)."""
        try:
            wv = weak_value_gaussian(c.mu_q, c.mu_p, c.sigma, c.theta_A, c.theta_B, c.b)
            q_shift, p_shift = first_order_shifts(wv, c.g, c.delta_P, c.omega)
            margin = gaussian_regime_margin(c.g, c.delta_P, c.sigma, c.theta_A, c.theta_B)
        except (OverflowError, ZeroDivisionError):
            return None, None
        first_order = [wv.re, wv.im, q_shift, p_shift, margin.ratio]
        stdout = None
        if all(map(math.isfinite, first_order)):
            stdout = (
                f"weak_value re={_fmt(wv.re)} im={_fmt(wv.im)}\n"
                f"first_order q_shift={_fmt(q_shift)} p_shift={_fmt(p_shift)}\n"
                f"regime classification={margin.classification} "
                f"ratio={_fmt(margin.ratio)} bound={_fmt(margin.rhs)}\n"
            )
        try:
            exact_Q, exact_P = postselected_means_gaussian(
                c.mu_q, c.mu_p, c.sigma, c.delta_Q, c.omega, c.g, c.theta_A, c.theta_B, c.b, mu_P=c.mu_P
            )
        except (OverflowError, ZeroDivisionError):
            return stdout, None
        fo_P = c.mu_P + p_shift
        values = [exact_Q, exact_P, q_shift, fo_P, exact_Q - q_shift, exact_P - fo_P, margin.ratio]
        if not all(map(math.isfinite, first_order + values)):
            return stdout, None
        echo = [c.g, c.delta_Q, c.omega, c.theta_A.theta, c.theta_B.theta, c.b]
        return stdout, ",".join(_cells([*echo, *values, margin.classification]))

    @pytest.mark.parametrize(
        "sections",
        [
            {},
            {"particle": {"sigma": 1e-150}},
            {"particle": {"sigma": 1e150}},
            {"device": {"delta_Q": 1e-150}},
            {"device": {"delta_Q": 1e150}},
            {"device": {"omega": 1e200}},
            {"coupling": {"g": 1e-150}},
            {"coupling": {"g": 1e150}},
            # g^2 overflows, which a Python float raises on even where the
            # regime bound is vacuous (theta_A = theta_B) and the ratio 0
            {"coupling": {"g": 1e160}},
            # g^2 delta_P^2 overflows as a product of finite powers, which
            # does not raise: the ratio is 0 where the bound is vacuous
            {"coupling": {"g": 1e100}, "device": {"delta_Q": 5e-101}},
        ],
        ids=["moderate", "sigma-tiny", "sigma-huge", "delta_Q-tiny", "delta_Q-huge", "omega-huge",
             "g-tiny", "g-huge", "g-squared-overflows", "lhs-product-overflows"],
    )
    def test_bit_for_bit_or_the_one_error(self, tmp_path, capsys, sections):
        for i, (theta_A, theta_B) in enumerate(itertools.product(self.THETAS, repeat=2)):
            doc = base_config(**self.BASE)
            for key, section in sections.items():
                doc[key].update(section)
            doc["coupling"]["theta_A"], doc["postselection"]["theta_B"] = theta_A, theta_B
            doc["sweep"] = {"b": [doc["postselection"]["b"]]}
            path = write_config(tmp_path, doc, f"config{i}.json")
            stdout, row = self._expected(parse_experiment(doc))
            assert sections or None not in (stdout, row)  # moderate configs print

            code = main(["weakvalue", "--config", path])
            captured = capsys.readouterr()
            if stdout is None:
                assert (code, captured.out, captured.err) == (1, "", CLOSED_FORM_ERROR), doc
            else:
                assert (code, captured.out, captured.err) == (0, stdout, ""), doc

            out = tmp_path / f"o{i}"
            code = main(["sweep", "--config", path, "--out", str(out), "--quiet"])
            captured = capsys.readouterr()
            if row is None:
                assert (code, captured.err) == (1, CLOSED_FORM_ERROR), doc
                assert not out.exists()
            else:
                assert (code, captured.err) == (0, ""), doc
                assert (out / "sweep.csv").read_text().splitlines()[1:] == [row], doc

    def test_vacuous_bound_gives_the_weak_limit_however_large_the_lhs(self, tmp_path, capsys):
        # theta_A = theta_B: the bound is inf, so the ratio is 0 although
        # g^2 delta_P^2 overflows as a product of finite powers, and the
        # exact means are the first-order ones, <Q>_b = g Re A_w = g b and
        # <P>_b = mu_P (Im A_w = 0)
        doc = base_config(**self.BASE)
        doc["coupling"].update(g=1e100, theta_A=0.7)
        doc["device"]["delta_Q"] = 5e-101
        doc["postselection"]["theta_B"] = 0.7
        doc["sweep"] = {"b": [1.3]}
        out = tmp_path / "o"
        code = main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"])
        assert (code, capsys.readouterr().err) == (0, "")
        header, row = (out / "sweep.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["exact_Q"] == cells["fo_Q"] == "1.3000000000000001e+100"
        assert cells["exact_P"] == cells["fo_P"] == _fmt(0.4)
        assert cells["residual_Q"] == cells["residual_P"] == cells["regime_ratio"] == "0"
        assert cells["regime_class"] == "deep_weak"

    def test_non_finite_residual_warns_nothing(self, tmp_path):
        # exact_P - fo_P is -inf - (-inf), nan on Python floats, which numpy
        # would warn of: under -W error, one error line and no traceback
        doc = base_config(
            device={"delta_Q": 2.75e-134, "mu_P": 1.0},
            coupling={"g": 1.0, "theta_A": HALF_PI},
            postselection={"theta_B": 0.0, "b": 1e42},
            sampling={"n_samples": 2000},
        )
        doc["sweep"] = {"b": [1e42]}
        out = tmp_path / "o"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "erlweak.cli", "sweep", "--mc",
             "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", CLOSED_FORM_ERROR)
        assert not out.exists()


def _without(doc, section):
    return {name: value for name, value in doc.items() if name != section}


DISCRETE = {"amplitudes": [1.0, 1.0], "overlaps": [1.0, 1.0], "eigenvalues": [1.0, -1.0]}


@pytest.mark.parametrize(
    "argv, doc, code, text",
    [
        (["simulate"], base_config(sampling={"n_samples": 1.5}), 2, "'sampling.n_samples' must be an integer"),
        (["weakvalue"], _without(base_config(), "coupling"), 2, "missing section 'coupling'"),
        (["weakvalue"], {**base_config(), "device": [1.0]}, 2, "section 'device' must be an object"),
        (["weakvalue"], None, 2, "cannot read config"),
        (["weakvalue"], [1.0], 2, "config root must be a JSON object"),
        (["weakvalue"], {"discrete": _without(DISCRETE, "overlaps")}, 2, "missing field 'discrete.overlaps'"),
        (["sweep"], {**base_config(), "sweep": {}}, 2, "section 'sweep' must list at least one"),
        (["sweep"], {**base_config(), "sweep": {"delta_Q": [1.0], "delta_P": [1.0]}}, 2, "not both"),
        (["sweep"], {**base_config(), "sweep": {"g": [0.1, "x"]}}, 2, "'sweep.g[1]' must be a number"),
        (["histogram"], {**base_config(), "histogram": [11]}, 2, "section 'histogram' must be an object"),
        (["histogram"], {**base_config(), "histogram": {"bins": 1}}, 2, "'histogram.bins' must be an integer >= 2"),
        (["histogram"], {**base_config(), "histogram": {"p_range": [-5, 0, 5], "P_range": [-3, 3]}}, 2,
         "'histogram.p_range' must be [lo, hi]"),
        (["histogram"], {**base_config(), "histogram": {"P_range": [-3, 3]}}, 2, "missing field 'histogram.p_range'"),
        # every draw misses a window 16 std of B away: nan cells, and the sweep still succeeds
        (["sweep", "--mc"], {**base_config(postselection={"b": 8.0}, sampling={"n_samples": 1000}),
                             "sweep": {"g": [0.1]}}, 0, ",nan,nan,nan,nan\n"),
        (["weakvalue"], {"discrete": {**DISCRETE, "overlaps": [1.0, -1.0]}}, 1, "error: postselection amplitude is zero"),
    ],
    ids=[
        "non-integer-n_samples",
        "missing-section",
        "section-not-an-object",
        "unreadable-config",
        "root-not-an-object",
        "discrete-field-missing",
        "sweep-without-axis",
        "sweep-over-delta_Q-and-delta_P",
        "sweep-item-named-by-index",
        "histogram-not-an-object",
        "one-bin",
        "range-not-a-pair",
        "one-range-only",
        "sweep-mc-insufficient-acceptance",
        "zero-postselection-amplitude",
    ],
)
def test_input_check(tmp_path, capsys, argv, doc, code, text):
    """Each check at the CLI's door: the exit code, and the field or cause
    named on stderr (or, for a run that succeeds, the cells it writes)."""
    path = tmp_path / "config.json"  # not written for doc None: unreadable
    if doc is not None:
        path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = [*argv, "--config", str(path)]
    if argv[0] != "weakvalue":
        argv += ["--out", str(out), "--quiet"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert text in ((out / f"{argv[0]}.csv").read_text() if code == 0 else err)
    assert out.exists() == (code == 0)


class TestVerifyAndRoundTrip:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "VERIFY PASS" in out
        assert out.count("[PASS]") == 4

    @pytest.mark.parametrize(
        "argv", [["verify", "--quiet"], ["verify", "--seed", "1"], ["weakvalue", "--quiet"]]
    )
    def test_flags_of_the_writing_commands_only(self, tmp_path, capsys, argv):
        # --seed and --quiet belong to simulate, sweep and histogram
        path = write_config(tmp_path, base_config())
        config = ["--config", path] if argv[0] == "weakvalue" else []
        assert main([*argv, *config]) == 2
        assert argv[1] in capsys.readouterr().err

    def test_field_table_declares_every_config_field_once_in_order(self):
        # a field added to ExperimentConfig cannot be parsed without being echoed
        keys = [key for _, key, _ in CONFIG_FIELDS]
        assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]

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
            chunks = 3  # the sweep's two b values share one sampling pass
            assert serial_run == {"workers": 1, "chunks": chunks, **VERSIONS}
            assert pooled_run == {"workers": min(montecarlo._usable_cpus(), 3), "chunks": chunks, **VERSIONS}

    def test_sweep_draws_once_per_run_of_windows(self, tmp_path):
        # theta_B and b are the innermost axes: each g value makes one
        # sampling pass of 3 chunks for its 2 x 2 windows
        doc = base_config(sampling={"n_samples": self.N})
        doc["sweep"] = {"g": [0.1, 0.2], "theta_B": [0.3, HALF_PI], "b": [0.0, 1.0]}
        run = self._run(tmp_path, "passes", ["sweep", "--mc"], doc)[1]
        assert run["chunks"] == 2 * 3

    def test_sweep_draws_once_for_six_windows(self, tmp_path):
        # six b values at one g share one sampling pass of 3 chunks
        doc = base_config(sampling={"n_samples": self.N})
        doc["sweep"] = {"b": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]}
        run = self._run(tmp_path, "six", ["sweep", "--mc"], doc)[1]
        assert run["chunks"] == 3

    def test_closed_form_sweep_runs_no_chunks(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"g": [0.1, 0.2]}
        assert self._run(tmp_path, "closed", ["sweep"], doc)[1] == {"workers": 0, "chunks": 0, **VERSIONS}


class TestSharedSamplingPass:
    """`sweep --mc` draws, couples and checks once for points that differ
    only in theta_B and b; each row's mc_* cells keep the bits of the
    point's own `run_weak_experiment`."""

    N = montecarlo.DEFAULT_CHUNK + 20_000  # two chunks, so the pool runs them
    THETA_BS = (HALF_PI, 0.4)
    BS = (0.0, 0.6, 40.0)  # 40 std of B from its mean: the window accepts nothing

    @pytest.mark.parametrize("epsilon", [None, 0.2], ids=["adaptive", "explicit"])
    @pytest.mark.parametrize("pool", [False, True], ids=["one-worker", "pool"])
    def test_mc_cells_equal_each_points_own_run(self, tmp_path, monkeypatch, epsilon, pool):
        if not pool:
            monkeypatch.setattr(montecarlo, "WORKERS", 1)
        doc = base_config(
            coupling={"g": 0.3, "theta_A": 0.2},
            device={"omega": 0.5, "mu_P": 0.6},
            postselection={"epsilon": epsilon},
            sampling={"n_samples": self.N},
        )
        doc["sweep"] = {"theta_B": list(self.THETA_BS), "b": list(self.BS)}
        path, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["sweep", "--mc", "--config", path, "--out", str(out), "--quiet"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        base = parse_experiment(doc)
        for row, (theta_B, b) in zip(rows, itertools.product(self.THETA_BS, self.BS), strict=True):
            cells = np.array([float(x) for x in row.split(",")[-4:]])
            config = dataclasses.replace(base, theta_B=Quadrature(theta_B), b=b)
            try:
                est = montecarlo.run_weak_experiment(config)
            except montecarlo.InsufficientAcceptanceError:
                assert b == 40.0 and np.isnan(cells).all(), row
                continue
            assert est.n_accepted > 1000 and b != 40.0
            assert np.array_equal(cells, [est.mean_Q, est.se_Q, est.mean_P, est.se_P]), row


def _loaded_by_import_of_cli(*prefixes):
    """The modules under `prefixes` that `import erlweak.cli` loads in a
    fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, erlweak.cli; "
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.strip()


def test_import_loads_no_scipy():
    # nor multiprocessing: the chunk pool imports it on first use, which keeps
    # start-up short for the commands that never sample
    assert _loaded_by_import_of_cli("scipy", "multiprocessing") == "[]"


def test_import_loads_no_verify():
    # `erlweak verify` imports its suites when it runs, so the other
    # commands do not compile or load them
    assert _loaded_by_import_of_cli("erlweak.verify") == "[]"
