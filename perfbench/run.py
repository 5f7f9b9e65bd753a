"""erlweak benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc-postselect --seed 1 --seconds 25 --trace 0

Run from the repository root. The seed generates the workload's JSON
configs (workloads.py); erlweak only ever sees those configs, through
`erlweak.cli.main` and the public library functions. Each run:

1. times set-up (spawn of a fresh interpreter until `import erlweak.cli`
   returns) in probe processes before and after the workload child;
2. runs the workload in one more fresh child (child.py) as a closed loop with
   one client, for --seconds after a warm-up round, and takes the child's
   peak RSS from os.wait4;
3. with --trace 1, adds one traced round in that child and an
   `-X importtime` probe, and prints the per-layer metrics instead.

Every child gets the same BLAS/OpenMP thread caps (nproc). Processes run one
at a time; the benchmark starts no threads. Human-readable lines go first;
the last line of stdout is the JSON result. Per-run records (environment,
config hash, per-op output hashes, failure reasons, spans) are written under
.perfbench_runs/ in the repository root.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, config_hash  # noqa: E402

SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
PROBE_CODE = "import time, erlweak.cli; print(time.monotonic())"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
KNOWN_DEFECTS = ("mu_P-closed-form", "tail-cancellation")
# Per workload: the op kind whose latency is reported, and what rate_per_s counts.
PRIMARY = {
    "mc-postselect": ("simulate", "accepted"),
    "analytic-grid": ("analytic", "configs"),
    "histogram-stream": ("histogram", "samples"),
}
RATE_NAME = {"accepted": "accepted_per_s", "configs": "configs_per_s", "samples": "samples_per_s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def machine() -> dict:
    info = {"nproc": nproc(), "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["mem_total_mb"] = int(line.split()[1]) / 1024
                break
    except OSError:
        pass
    return info


def setup_probe(env: dict) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def import_layers(env: dict) -> dict:
    """import.* metrics from `python -X importtime`: cumulative seconds of
    the first numpy and scipy.stats imports, and erlweak's own self time."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import erlweak.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    out = {"import.scipy_stats_s": 0.0, "import.numpy_s": 0.0, "import.erlweak_self_s": 0.0}
    seen = set()
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name in ("numpy", "scipy.stats") and name not in seen:
            seen.add(name)
            key = "import.numpy_s" if name == "numpy" else "import.scipy_stats_s"
            out[key] = int(cumulative_us) / 1e6
        if name == "erlweak" or name.startswith("erlweak."):
            out["import.erlweak_self_s"] += int(self_us) / 1e6
    return out


def run_child(spec_path: Path, env: dict, timeout: float) -> tuple[int, float, float]:
    """Run child.py; returns (exit code, spawn time, peak RSS in MB) with
    the RSS taken from os.wait4 of that child alone."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)], env=env, cwd=ROOT, stdout=subprocess.DEVNULL
    )
    deadline = start + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("workload child timed out")
            time.sleep(0.02)
    except BaseException:  # timeout or interrupt: the child must not outlive the run
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, usage.ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, or n/a."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return f"p{q:g}={percentile(values, q):.6g}"
    return "tail n/a"


def summarise(workload: str, ops: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics (minus set-up and RSS) from the timed rounds, and
    the report lines naming the per-workload figures.

    The bounded figures take each op's minimum over its repeats: the ops are
    deterministic, and on a shared machine interference only ever slows
    them, so the minimum is the steadiest estimate of an op's own cost.
    Medians and tails over rounds are printed beside them."""
    primary, unit = PRIMARY[workload]
    main = [op for op in ops if op["kind"] == primary]
    sampled = [op for op in ops if "samples" in op["stats"]]
    n_rounds = len(ops[0]["timed_s"])
    # a failed op may lack its counts; it then adds no work
    work = len(main) if unit == "configs" else sum(op["stats"].get(unit, 0) for op in main)
    metrics = {
        "wall_s": sum(min(op["timed_s"]) for op in ops),
        "rate_per_s": work / sum(min(op["timed_s"]) for op in main),
    }
    round_s = [sum(op["timed_s"][k] for op in ops) for k in range(n_rounds)]
    rates = [work / sum(op["timed_s"][k] for op in main) for k in range(n_rounds)]
    lines = [
        f"wall_s         {metrics['wall_s']:.6g} s (sum of per-op minima)  "
        f"round median={statistics.median(round_s):.6g} s  {tail(round_s)}  (n={n_rounds} rounds)",
        f"{RATE_NAME[unit]:<14} {metrics['rate_per_s']:.6g} 1/s (per-op minima)  "
        f"round median={statistics.median(rates):.6g}  {tail(rates)}  (n={n_rounds} rounds)",
    ]
    if unit != "samples" and sampled:
        drawn = sum(op["stats"]["samples"] for op in sampled)
        per_round = [drawn / sum(op["timed_s"][k] for op in sampled) for k in range(n_rounds)]
        lines.append(
            f"samples_per_s  {drawn / sum(min(op['timed_s']) for op in sampled):.6g} 1/s (per-op minima)  "
            f"round median={statistics.median(per_round):.6g}  {tail(per_round)}  (n={n_rounds} rounds)"
        )
    latencies = [t for op in main for t in op["timed_s"]]
    if unit == "configs":
        us = [x * 1e6 for x in latencies]
        lines.append(f"config_us      p50={statistics.median(us):.6g} us  {tail(us)} us  (n={len(us)} configs)")
    else:
        ms = [x * 1e3 for x in latencies]
        lines.append(f"{primary}_ms p50={statistics.median(ms):.6g} ms  {tail(ms)} ms  (n={len(ms)} ops)")
    return metrics, lines


def layer_metrics(result: dict) -> dict:
    ops, spans, counts = result["ops"], result["spans"], result["counts"]
    untraced_round_s = statistics.median(map(sum, zip(*(op["timed_s"] for op in ops))))
    config_ops = {str(i) for i, op in enumerate(ops) if op["kind"] == "analytic"}

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ops": {}})

    def us_per_call(name: str) -> float:
        s = span(name)
        return s["total_s"] / s["calls"] * 1e6 if s["calls"] else 0.0

    def per_config(name: str) -> float:
        calls = sum(v for k, v in span(name)["ops"].items() if k in config_ops)
        return calls / len(config_ops) if config_ops else 0.0

    samples = counts.get("montecarlo.run_weak_experiment.samples", 0)
    accepted = counts.get("montecarlo.run_weak_experiment.accepted", 0)
    out = {
        "montecarlo.run_weak_experiment.self_s": span("montecarlo.run_weak_experiment")["self_s"],
        "montecarlo.run_weak_experiment.samples": samples,
        "montecarlo.run_weak_experiment.accepted": accepted,
        "montecarlo.run_weak_experiment.accept_ratio": accepted / samples if samples else 0.0,
        "montecarlo.run_weak_experiment.chunks": counts.get("montecarlo.run_weak_experiment.chunks", 0),
        "montecarlo.sample_state.self_s": span("montecarlo.sample_state")["self_s"],
        "montecarlo.sample_state.rows": counts.get("montecarlo.sample_state.rows", 0),
        "montecarlo.sample_state.bytes_materialised": counts.get("montecarlo.sample_state.bytes_materialised", 0),
        "montecarlo.joint_momentum_histogram.self_s": span("montecarlo.joint_momentum_histogram")["self_s"],
        "montecarlo.oracle_estimate.us_per_call": us_per_call("montecarlo.oracle_estimate"),
        "montecarlo.windowed_oracle.us_per_call": us_per_call("montecarlo.windowed_oracle"),
        "montecarlo.acceptance_probability.us_per_call": us_per_call("montecarlo.acceptance_probability"),
        "montecarlo.ExperimentConfig.evolved_joint.calls_per_config": per_config("montecarlo.ExperimentConfig.evolved_joint"),
        "dynamics.apply_to_points.rows": counts.get("dynamics.apply_to_points.rows", 0),
        "dynamics.apply_to_points.self_s": span("dynamics.apply_to_points")["self_s"],
        "dynamics.apply_to_state.calls": span("dynamics.apply_to_state")["calls"],
        "dynamics.coupling_map.calls": span("dynamics.coupling_map")["calls"],
        "states.GaussianState.calls": span("states.GaussianState")["calls"],
        "states.GaussianState.self_s": span("states.GaussianState")["self_s"],
        "states.quadrature_moments.calls": span("states.quadrature_moments")["calls"],
        "analytic.gaussian_condition.calls_per_config": per_config("analytic.gaussian_condition"),
        "analytic.gaussian_condition.us_per_call": us_per_call("analytic.gaussian_condition"),
        "analytic.postselected_means_gaussian.us_per_call": us_per_call("analytic.postselected_means_gaussian"),
        "bounds.gaussian_regime_margin.us_per_call": us_per_call("bounds.gaussian_regime_margin"),
        "cli.self_s": sum(s["self_s"] for name, s in spans.items() if name.startswith("cli.")),
        "cli.bytes_written": sum(op["stats"].get("bytes_written", 0) for op in ops),
        "trace.overhead_s": sum(op["traced_s"] for op in ops) - untraced_round_s,
    }
    for suite in ("run_oracle_equivalence", "run_repeatability", "run_delta_p_limit", "run_weak_coupling_order"):
        out[f"verify.{suite}.s"] = span(f"verify.{suite}")["total_s"]
    return out


def is_known_defect(reason: str) -> bool:
    return reason.split(":")[0] in KNOWN_DEFECTS


def failures(ops: list[dict]) -> dict:
    """Tally the gate's verdicts over every run of every op. An op's runs
    share the verdict of its gated first run unless their output differed.

    A run fails when its op's gate gave a reason that is not one of the
    KNOWN_DEFECTS, or when its output differed from the op's first run. A run
    whose every reason is a known defect is counted apart, in known_defect:
    those are program defects the benchmark shows on purpose (ROADMAP item
    2), reported on every run, and they do not make the op fail. Reasons are
    tallied per run as "cause: what", without the detail after " | "."""
    attempted = failed = known = known_ops = 0
    reasons: collections.Counter = collections.Counter()
    for op in ops:
        runs = 1 + len(op["timed_s"]) + (op["traced_s"] is not None)
        same = runs - op["mismatches"]
        attempted += runs
        failed += op["mismatches"]
        if op["reasons"] and all(map(is_known_defect, op["reasons"])):
            known += same
            known_ops += 1
        elif op["reasons"]:
            failed += same
        for reason in op["reasons"]:
            reasons[reason.split(" | ")[0]] += same
        if op["mismatches"]:
            reasons["nondeterministic-output: differs from the op's first run"] += op["mismatches"]
    return {
        "attempted": attempted, "failed": failed, "known_defect": known,
        "known_defect_ops": known_ops, "reasons": reasons,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "erlweak" / "cli.py").is_file() or not bench_path.is_file():
        print("perfbench: run from an erlweak checkout (src/erlweak and BENCHMARK.json)", file=sys.stderr)
        return 2
    declared = json.loads(bench_path.read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = WORKLOADS[args.workload](args.seed)
    configs_sha256 = config_hash(ops)
    for i, op in enumerate(ops):
        if "doc" in op:
            op["config"] = str(work / f"op{i:03d}.json")
            op["out"] = str(work / f"op{i:03d}")
            Path(op["config"]).write_text(json.dumps(op["doc"], indent=1))
    spec = {
        "ops": ops, "seconds": args.seconds, "trace": args.trace,
        "result": str(work / "result.json"), "spans": str(work / "spans.jsonl"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))

    # set-up probes on both sides of the workload child, which is one more
    env = child_env()
    setups = [setup_probe(env) for _ in range(SETUP_PROBES_BEFORE)]
    code, spawned, rss_mb = run_child(spec_path, env, timeout=args.seconds + 120)
    if code != 0:
        print(f"perfbench: workload child exited with {code}", file=sys.stderr)
        return 1
    setups += [setup_probe(env) for _ in range(SETUP_PROBES_AFTER)]
    result = json.loads(Path(spec["result"]).read_text())
    setups.append(result["import_done"] - spawned)
    ops_done = result["ops"]

    e2e, lines = summarise(args.workload, ops_done)
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": rss_mb, **e2e}
    if args.trace:
        metrics = {**layer_metrics(result), **import_layers(env)}

    tally = failures(ops_done)
    attempted, failed, reasons = tally["attempted"], tally["failed"], tally["reasons"]
    if args.trace:
        metrics["gate.known_defect_ops"] = tally["known_defect_ops"]
    outputs = {str(i): op["output"] for i, op in enumerate(ops_done)}
    outputs_digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "thread_caps": {var: env[var] for var in THREAD_VARS},
        "versions": result["versions"], "config_sha256": configs_sha256, "outputs_sha256": outputs_digest,
        "setup_s": setups, "peak_rss_mb": rss_mb, "metrics": metrics,
        "attempted": attempted, "failed": failed, "known_defect": tally["known_defect"],
        "known_defect_ops": tally["known_defect_ops"], "failures": dict(reasons), "ops": ops_done,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))

    m = record["machine"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"closed loop, 1 client")
    print(f"machine: nproc={m['nproc']} cpu={m.get('cpu', '?')!r} mem_total_mb={m.get('mem_total_mb', 0):.0f}")
    print("versions: " + " ".join(f"{k}={v}" for k, v in result["versions"].items())
          + " thread caps: " + " ".join(f"{k}={v}" for k, v in record["thread_caps"].items()))
    print(f"config_sha256={configs_sha256} outputs_sha256={outputs_digest}")
    print(f"setup_s        median={statistics.median(setups):.6g} s  (n={len(setups)} spawns)")
    print(f"peak_rss_mb    {rss_mb:.6g} MB")
    for line in lines:
        print(line)
    print(f"failed_frac    {failed / attempted:.6g}  ({failed} of {attempted} attempted ops)")
    print(f"known_defect_frac {tally['known_defect'] / attempted:.6g}  ({tally['known_defect']} of "
          f"{attempted} attempted ops; {tally['known_defect_ops']} of {len(ops_done)} ops per round)")
    for reason, n in sorted(reasons.items()):
        label = "known defect" if is_known_defect(reason) else "failure"
        print(f"  {label} x{n}: {reason}")
    if args.trace:
        for name in sorted(metrics):
            print(f"  {name} = {metrics[name]:.6g}")

    missing = {w["name"] for w in wanted} - set(metrics)
    if missing:
        print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
