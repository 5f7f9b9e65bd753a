"""One workload in a fresh interpreter: import erlweak, run the generated ops
in a closed loop (one client; each op starts when the previous one ends),
gate every op's output, and write the raw measurements as JSON.

Run by run.py as `python3 perfbench/child.py <spec.json>`; not meant to be
run by hand. The spec names the ops, their config files and output
directories, the measuring time, whether to add a traced round, and where to
write the result.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
import sys
import time
from pathlib import Path

import erlweak.cli  # set-up ends here: run.py times from spawn to this point

IMPORT_DONE = time.monotonic()

import erlweak  # noqa: E402  (already loaded by the line above)
import reference as R  # noqa: E402
from spans import Tracer  # noqa: E402

Z_BOUND = 5.0  # |MC mean - windowed_oracle| / SE above this fails the op
CLOSED_FORM_TOL = 1e-9  # the tolerance erlweak's own oracle-equivalence suite uses
WINDOW_TOL = 1e-6  # windowed_oracle and acceptance_probability against reference.py
# A window counts as a tail-cancellation case when cdf(hi) - cdf(lo) in
# double precision can lose more digits than WINDOW_TOL leaves, with a 100x margin.
CANCELLATION_ATTRIBUTION = WINDOW_TOL / 100.0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _attempt(fn, *args):
    """Call fn; an exception becomes a labelled string instead of ending the run."""
    try:
        return fn(*args)
    except Exception as exc:  # every failure is recorded against the op
        return f"raised {type(exc).__name__}: {exc}"


def evaluate_config(doc: dict) -> dict:
    """The analytic-grid op: every public closed form, oracle and window
    function on one config, called through erlweak's module attributes so
    that traced wrappers are picked up."""
    an, mc, bounds = erlweak.analytic, erlweak.montecarlo, erlweak.bounds
    part, dev, coup, post, samp = (doc[k] for k in ("particle", "device", "coupling", "postselection", "sampling"))
    theta_A, theta_B = erlweak.states.Quadrature(coup["theta_A"]), erlweak.states.Quadrature(post["theta_B"])
    config = mc.ExperimentConfig(
        part["mu_q"], part["mu_p"], part["sigma"], dev["delta_Q"], dev["mu_P"], dev["omega"],
        coup["g"], theta_A, theta_B, post["b"], post["epsilon"], samp["n_samples"], samp["seed"],
    )
    wv = _attempt(an.weak_value_gaussian, part["mu_q"], part["mu_p"], part["sigma"], theta_A, theta_B, post["b"])
    out = {"weak_value": wv if isinstance(wv, str) else (wv.re, wv.im)}
    out["closed"] = _attempt(
        an.postselected_means_gaussian, part["mu_q"], part["mu_p"], part["sigma"], dev["delta_Q"],
        dev["omega"], coup["g"], theta_A, theta_B, post["b"],
    )
    delta_P = math.sqrt(1.0 + dev["omega"] ** 2) / (2.0 * dev["delta_Q"])
    if not isinstance(wv, str):
        out["first_order"] = _attempt(an.first_order_shifts, wv, coup["g"], delta_P, dev["omega"])
    margin = _attempt(bounds.gaussian_regime_margin, coup["g"], delta_P, part["sigma"], theta_A, theta_B)
    out["margin"] = margin if isinstance(margin, str) else (margin.ratio, margin.classification)
    out["oracle"] = _attempt(mc.oracle_estimate, config)
    out["windowed_oracle"] = _attempt(mc.windowed_oracle, config)
    out["acceptance_probability"] = _attempt(mc.acceptance_probability, config)
    return out


def check_config(doc: dict, out: dict) -> list[str]:
    """Gate one analytic-grid op. A failure is labelled with a known defect
    only when the benchmark can show the cause: the closed form matches the
    oracle once mu_P is folded in, or the window lies where cdf(hi) - cdf(lo)
    cancels in double precision."""
    reasons = []
    for key in ("weak_value", "first_order", "margin"):
        if isinstance(out.get(key), str):
            reasons.append(f"{key}: raised | {out[key]}")
    closed, oracle = out["closed"], out["oracle"]
    if isinstance(closed, str) or isinstance(oracle, str):
        reasons.append(f"closed-form-or-oracle: raised | {closed if isinstance(closed, str) else oracle}")
    elif max(_rel(a, b) for a, b in zip(closed, oracle)) > CLOSED_FORM_TOL:
        params = {
            **doc["particle"], **doc["device"], **doc["coupling"],
            "theta_B": doc["postselection"]["theta_B"], "b": doc["postselection"]["b"],
        }
        fixed = R.closed_form_with_mu_P(params)
        if params["mu_P"] != 0.0 and max(_rel(a, b) for a, b in zip(fixed, oracle)) <= CLOSED_FORM_TOL:
            reasons.append("mu_P-closed-form: closed form ignores device.mu_P")
        else:
            reasons.append("closed-form-vs-oracle: disagreement not explained by mu_P")

    config = erlweak.cli.parse_experiment(doc)
    ref_means, ref_prob, cancellation = R.windowed_means(config, config.resolved_epsilon())
    cause = "tail-cancellation" if cancellation > CANCELLATION_ATTRIBUTION else "window-maths"
    windowed, accept = out["windowed_oracle"], out["acceptance_probability"]
    if isinstance(windowed, str):
        reasons.append(f"{cause}: windowed_oracle raised | {windowed}")
    elif not all(math.isfinite(x) for x in windowed):
        reasons.append(f"{cause}: windowed_oracle non-finite")
    elif any(abs(x - r) > WINDOW_TOL * max(1.0, abs(r)) for x, r in zip(windowed, ref_means)):
        reasons.append(f"{cause}: windowed_oracle inaccurate")
    if isinstance(accept, str):
        reasons.append(f"{cause}: acceptance_probability raised | {accept}")
    elif not math.isfinite(accept) or accept <= 0.0:
        reasons.append(f"{cause}: acceptance_probability returned {accept} | exact {ref_prob:.3g}")
    elif abs(accept - ref_prob) > WINDOW_TOL * ref_prob:
        reasons.append(f"{cause}: acceptance_probability inaccurate")
    return reasons


def _mc_z(reasons: list[str], what: str, mean: str, se: str, expected: float) -> None:
    z = (float(mean) - expected) / float(se)
    if not abs(z) <= Z_BOUND:
        reasons.append(f"mc-vs-windowed-oracle: {what} | z={z:.2f}")


def check_simulate(doc: dict, out_dir: Path) -> tuple[list[str], dict]:
    row = _read_rows(out_dir / "simulate.csv")[0]
    reasons = [f"simulate-error: error column set | {row['error']}"] if row["error"] else []
    config = erlweak.cli.parse_experiment(doc)
    if not reasons:
        for name, expected in zip("QPA", erlweak.montecarlo.windowed_oracle(config)):
            _mc_z(reasons, f"mean_{name}", row[f"mean_{name}"], row[f"se_{name}"], expected)
    return reasons, {"samples": config.n_samples, "accepted": int(row["accepted"])}


def check_sweep(doc: dict, out_dir: Path) -> tuple[list[str], dict]:
    rows = _read_rows(out_dir / "sweep.csv")
    base = erlweak.cli.parse_experiment(doc)
    Quadrature = erlweak.states.Quadrature
    reasons = []
    for row in rows:
        config = dataclasses.replace(
            base,
            g=float(row["g"]), delta_Q=float(row["delta_Q"]), b=float(row["b"]),
            theta_A=Quadrature(float(row["theta_A"])), theta_B=Quadrature(float(row["theta_B"])),
        )
        cond = erlweak.analytic.gaussian_condition(config.evolved_joint(), 0, config.theta_B, config.b)
        exact = (float(row["exact_Q"]), float(row["exact_P"]))
        if max(_rel(a, b) for a, b in zip(exact, cond.mean[2:])) > CLOSED_FORM_TOL:
            reasons.append(f"sweep-exact-vs-conditioning: exact_Q/exact_P | b={row['b']}")
        w_Q, w_P, _ = erlweak.montecarlo.windowed_oracle(config)
        _mc_z(reasons, "sweep mc_Q", row["mc_Q"], row["mc_se_Q"], w_Q)
        _mc_z(reasons, "sweep mc_P", row["mc_P"], row["mc_se_P"], w_P)
    return reasons, {"samples": base.n_samples * len(rows)}


def check_histogram(doc: dict, out_dir: Path) -> tuple[list[str], dict]:
    """Counts outside the auto 5-sigma box must match the box's exact
    probability, not zero: the box does not hold all n_samples draws."""
    rows = _read_rows(out_dir / "histogram.csv")
    n = doc["sampling"]["n_samples"]
    total = sum(int(r["count"]) for r in rows)
    box = (
        min(float(r["p_lo"]) for r in rows), max(float(r["p_hi"]) for r in rows),
        min(float(r["P_lo"]) for r in rows), max(float(r["P_hi"]) for r in rows),
    )
    expected = n * R.box_outside_probability(doc, box)
    reasons = []
    if abs((n - total) - expected) > Z_BOUND * math.sqrt(expected) + 1.0:
        reasons.append(f"histogram-mass: count outside the box | {n - total} outside, expected {expected:.1f}")
    return reasons, {"samples": n, "outside": n - total, "outside_expected": expected}


CLI_OPS = {
    "simulate": (["simulate"], check_simulate),
    "sweep_mc": (["sweep", "--mc"], check_sweep),
    "histogram": (["histogram"], check_histogram),
}


class Runner:
    """Runs ops, times them, and gates each op's output the first time it
    runs; every later run of the op must reproduce that output's digest
    byte for byte. Keeps per op: the gate's verdict and work counts, the
    warm-up, timed and traced durations, and how many runs differed."""

    def __init__(self, spec: dict, tracer: Tracer):
        self.ops = spec["ops"]
        self.tracer = tracer
        self.tracing = False
        self.state: list[dict | None] = [None] * len(self.ops)

    def _timed(self, index: int, fn, *args):
        self.tracer.op = index
        self.tracer.enabled = self.tracing
        start = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - start
        finally:
            self.tracer.enabled = False

    def run(self, index: int, phase: str) -> None:
        """Run op `index` once; phase is "warmup", "timed" or "traced"."""
        self.tracing = phase == "traced"
        op = self.ops[index]
        kind = op["kind"]
        stats: dict = {}
        if kind == "analytic":
            out, elapsed = self._timed(index, evaluate_config, op["doc"])
            output = {"values": _sha256(repr(out).encode())}
        else:
            if kind == "verify":
                argv = ["verify"]
            else:
                argv = CLI_OPS[kind][0] + ["--config", op["config"], "--out", op["out"], "--quiet"]
                shutil.rmtree(op["out"], ignore_errors=True)  # no stale CSV can pass for this run's
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc, elapsed = self._timed(index, _attempt, erlweak.cli.main, argv)
            text = buf.getvalue()
            if kind == "verify":
                output = {"stdout": _sha256(text.encode())}
            else:
                files = sorted(Path(op["out"]).glob("*"))
                stats["bytes_written"] = sum(f.stat().st_size for f in files)
                # manifest.json carries a timestamp, so only data CSVs are hashed
                output = {f.name: _sha256(f.read_bytes()) for f in files if f.suffix == ".csv"}
            output["exit"] = rc
        digest = _sha256(json.dumps(output, sort_keys=True).encode())

        st = self.state[index]
        if st is None:
            if kind == "analytic":
                reasons = check_config(op["doc"], out)
            elif isinstance(rc, str):
                reasons = [f"exception: erlweak.cli.main | {rc}"]
            elif rc != 0:
                reasons = [f"exit-code: non-zero exit | {rc}"]
            elif kind == "verify":
                reasons = [f"verify-FAIL: suite failed | {line}" for line in text.splitlines() if line.startswith("[FAIL]")]
                if "VERIFY PASS" not in text:
                    reasons.append("verify-FAIL: no VERIFY PASS line")
            else:
                reasons, found = CLI_OPS[kind][1](op["doc"], Path(op["out"]))
                stats.update(found)
            st = self.state[index] = {
                "kind": kind, "digest": digest, "output": output, "reasons": reasons, "stats": stats,
                "warmup_s": None, "timed_s": [], "traced_s": None, "mismatches": 0,
            }
        elif digest != st["digest"]:
            st["mismatches"] += 1
        if phase == "timed":
            st["timed_s"].append(elapsed)
        else:
            st[f"{phase}_s"] = elapsed

    def round(self, phase: str) -> None:
        for index in range(len(self.ops)):
            self.run(index, phase)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = Tracer()
    runner = Runner(spec, tracer)
    runner.round("warmup")  # outputs gated, time not used
    start = time.monotonic()
    while not runner.state[0]["timed_s"] or time.monotonic() - start < spec["seconds"]:
        runner.round("timed")
    if spec["trace"]:
        tracer.install()
        runner.round("traced")
        tracer.write(spec["spans"])
    result = {
        "import_done": IMPORT_DONE,
        "versions": {
            "python": sys.version.split()[0],
            **{pkg: _version(pkg) for pkg in ("numpy", "scipy")},
            "erlweak": erlweak.__version__,
        },
        "ops": runner.state,
        "spans": {name: {**s, "ops": {str(k): v for k, v in s["ops"].items()}} for name, s in tracer.summary().items()},
        "counts": dict(tracer.counts),
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def _version(pkg: str) -> str:
    import importlib.metadata

    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


if __name__ == "__main__":
    sys.exit(main())
