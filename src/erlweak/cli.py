"""Config-driven experiment runner.

Subcommands: weakvalue, simulate, sweep, verify, histogram.
Config is a single JSON document with sections `particle`, `device`,
`coupling`, `postselection`, `sampling` (and optionally `discrete`,
`sweep`, `histogram`). All angles are radians. Exit codes: 0 success,
1 runtime/statistical failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import itertools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .analytic import (
    DegeneratePostselectionError,
    DiscreteSpectrumInput,
    first_order_shifts,
    postselected_means_gaussian,
    weak_value_discrete,
    weak_value_gaussian,
)
from .bounds import gaussian_regime_margin
from .montecarlo import (
    ExperimentConfig,
    InsufficientAcceptanceError,
    chunk_plan,
    joint_momentum_histogram,
    oracle_estimate,
    run_weak_experiment,
)
from .states import Quadrature
from .verify import run_all


class ConfigError(Exception):
    """Malformed configuration; message names the offending field."""


def _fmt(x: float) -> str:
    return f"{0.0 if x == 0 else x:.17g}"


def _cells(values) -> list[str]:
    """CSV cells: floats through `_fmt`, anything else through str."""
    return [_fmt(x) if isinstance(x, float) else str(x) for x in values]


def _write_csv(path: Path, header: str, rows) -> None:
    """Write a data CSV: the header, then one line per row of str cells.
    Rows may come from a generator: each line is written as its row arrives."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _number(value, field: str, what: str = "a number") -> float:
    """value as a finite float, else a ConfigError naming the field. JSON's
    NaN and Infinity parse as floats, and an integer may not fit in one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{field}' must be {what}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"field '{field}' must be finite")
    return value


def _require(section: dict, section_name: str, field: str, kind):
    if field not in section:
        raise ConfigError(f"missing field '{section_name}.{field}'")
    value = section[field]
    if kind is float:
        return _number(value, f"{section_name}.{field}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field '{section_name}.{field}' must be an integer")
        return value
    return value


def _section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise ConfigError(f"missing section '{name}'")
    if not isinstance(doc[name], dict):
        raise ConfigError(f"section '{name}' must be an object")
    return doc[name]


def load_document(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def parse_experiment(doc: dict, seed_override: int | None = None) -> ExperimentConfig:
    particle = _section(doc, "particle")
    device = _section(doc, "device")
    coupling = _section(doc, "coupling")
    post = _section(doc, "postselection")
    sampling = _section(doc, "sampling")
    epsilon = post.get("epsilon")
    if epsilon is not None:
        epsilon = _number(epsilon, "postselection.epsilon", "a number or null")
    seed = seed_override if seed_override is not None else _require(sampling, "sampling", "seed", int)
    try:
        return ExperimentConfig(
            mu_q=_require(particle, "particle", "mu_q", float),
            mu_p=_require(particle, "particle", "mu_p", float),
            sigma=_require(particle, "particle", "sigma", float),
            delta_Q=_require(device, "device", "delta_Q", float),
            mu_P=_require(device, "device", "mu_P", float),
            omega=_require(device, "device", "omega", float),
            g=_require(coupling, "coupling", "g", float),
            theta_A=Quadrature(_require(coupling, "coupling", "theta_A", float)),
            theta_B=Quadrature(_require(post, "postselection", "theta_B", float)),
            b=_require(post, "postselection", "b", float),
            epsilon=epsilon,
            n_samples=_require(sampling, "sampling", "n_samples", int),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_echo(config: ExperimentConfig) -> dict:
    return {
        "particle": {"mu_q": config.mu_q, "mu_p": config.mu_p, "sigma": config.sigma},
        "device": {"delta_Q": config.delta_Q, "mu_P": config.mu_P, "omega": config.omega},
        "coupling": {"g": config.g, "theta_A": config.theta_A.theta},
        "postselection": {
            "theta_B": config.theta_B.theta,
            "b": config.b,
            "epsilon": config.epsilon,
        },
        "sampling": {"n_samples": config.n_samples, "seed": config.seed},
    }


def write_manifest(
    out_dir: Path,
    config_doc: dict,
    seed: int,
    outputs: list[str],
    extra: dict | None = None,
) -> Path:
    manifest = {
        "tool": "erlweak",
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "config": config_doc,
        "outputs": outputs,
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _run_record(n_samples: int, runs: int = 1) -> dict:
    """The manifest's `run` block for `runs` sampler calls of n_samples each:
    the processes that ran their chunks and the number of chunks."""
    workers, chunks = chunk_plan(n_samples)
    return {"workers": workers if runs else 0, "chunks": runs * chunks}


def cmd_weakvalue(args) -> int:
    doc = load_document(args.config)
    if "discrete" in doc:
        disc = _section(doc, "discrete")

        def as_complex(name):
            raw = _require(disc, "discrete", name, None)
            if not isinstance(raw, list) or not raw:
                raise ConfigError(f"field 'discrete.{name}' must be a nonempty list")
            out = []
            for item in raw:
                if isinstance(item, (int, float)) and not isinstance(item, bool):
                    out.append(complex(item))
                elif isinstance(item, list) and len(item) == 2:
                    out.append(complex(item[0], item[1]))
                else:
                    raise ConfigError(
                        f"entries of 'discrete.{name}' must be numbers or [re, im] pairs"
                    )
            return out

        try:
            inp = DiscreteSpectrumInput(
                tuple(as_complex("amplitudes")),
                tuple(as_complex("overlaps")),
                tuple(float(x) for x in _require(disc, "discrete", "eigenvalues", None)),
            )
            wv = weak_value_discrete(inp)
        except DegeneratePostselectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"weak_value re={_fmt(wv.re)} im={_fmt(wv.im)}")
        return 0

    config = parse_experiment(doc, args.seed)
    wv = weak_value_gaussian(
        config.mu_q, config.mu_p, config.sigma, config.theta_A, config.theta_B, config.b
    )
    q_shift, p_shift = first_order_shifts(wv, config.g, config.delta_P, config.omega)
    margin = gaussian_regime_margin(
        config.g, config.delta_P, config.sigma, config.theta_A, config.theta_B
    )
    print(f"weak_value re={_fmt(wv.re)} im={_fmt(wv.im)}")
    print(f"first_order q_shift={_fmt(q_shift)} p_shift={_fmt(p_shift)}")
    print(
        f"regime classification={margin.classification} "
        f"ratio={_fmt(margin.ratio)} bound={_fmt(margin.rhs)}"
    )
    return 0


SIMULATE_HEADER = (
    "g,theta_A,theta_B,b,epsilon,n,accepted,mean_Q,se_Q,mean_P,se_P,"
    "mean_A,se_A,oracle_Q,oracle_P,oracle_A,error"
)


def cmd_simulate(args) -> int:
    doc = load_document(args.config)
    config = parse_experiment(doc, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    oracle_Q, oracle_P, oracle_A = oracle_estimate(config)
    epsilon = config.resolved_epsilon()
    error = ""
    status = 0
    try:
        est = run_weak_experiment(config)
        row = [
            config.g,
            config.theta_A.theta,
            config.theta_B.theta,
            config.b,
            est.epsilon,
            est.n_samples,
            est.n_accepted,
            est.mean_Q,
            est.se_Q,
            est.mean_P,
            est.se_P,
            est.mean_A,
            est.se_A,
            oracle_Q,
            oracle_P,
            oracle_A,
        ]
        dev = {
            "max_abs_deviation": max(
                abs(est.mean_Q - oracle_Q), abs(est.mean_P - oracle_P), abs(est.mean_A - oracle_A)
            ),
            "epsilon": est.epsilon,
            "acceptance_rate": est.acceptance_rate,
        }
    except InsufficientAcceptanceError as exc:
        error = "insufficient_acceptance"
        status = 1
        row = [
            config.g,
            config.theta_A.theta,
            config.theta_B.theta,
            config.b,
            epsilon,
            config.n_samples,
            0,
            *[math.nan] * 6,
            oracle_Q,
            oracle_P,
            oracle_A,
        ]
        dev = {"acceptance_rate": exc.acceptance_rate, "epsilon": epsilon}

    csv_path = out_dir / "simulate.csv"
    _write_csv(csv_path, SIMULATE_HEADER, [_cells(row + [error])])
    manifest = write_manifest(
        out_dir,
        config_echo(config),
        config.seed,
        [csv_path.name],
        {"oracle_comparison": dev, "run": _run_record(config.n_samples)},
    )
    if not args.quiet:
        print(f"wrote {csv_path} and {manifest}")
    return status


SWEEP_KEYS = ("g", "delta_Q", "delta_P", "theta_A", "theta_B", "b")

SWEEP_HEADER = (
    "g,delta_Q,omega,theta_A,theta_B,b,exact_Q,exact_P,fo_Q,fo_P,"
    "residual_Q,residual_P,regime_ratio,regime_class"
)


def _sweep_rows(base: ExperimentConfig, axes: dict, mc: bool):
    """One row per grid point of the sweep, made as it is asked for, so
    `sweep --mc` writes each point's line before sampling the next."""
    names = list(axes)
    for combo in itertools.product(*(axes[k] for k in names)):
        point = dict(zip(names, combo))
        delta_Q = point.get("delta_Q", base.delta_Q)
        if "delta_P" in point:
            # pure device at this omega: delta_Q fixed by delta_P
            delta_Q = math.sqrt(1.0 + base.omega**2) / (2.0 * point["delta_P"])
        config = dataclasses.replace(
            base,
            g=point.get("g", base.g),
            delta_Q=delta_Q,
            theta_A=Quadrature(point.get("theta_A", base.theta_A.theta)),
            theta_B=Quadrature(point.get("theta_B", base.theta_B.theta)),
            b=point.get("b", base.b),
        )
        exact_Q, exact_P = postselected_means_gaussian(
            config.mu_q,
            config.mu_p,
            config.sigma,
            config.delta_Q,
            config.omega,
            config.g,
            config.theta_A,
            config.theta_B,
            config.b,
            mu_P=config.mu_P,
        )
        wv = weak_value_gaussian(
            config.mu_q, config.mu_p, config.sigma, config.theta_A, config.theta_B, config.b
        )
        fo_Q, p_shift = first_order_shifts(wv, config.g, config.delta_P, config.omega)
        fo_P = config.mu_P + p_shift
        margin = gaussian_regime_margin(
            config.g, config.delta_P, config.sigma, config.theta_A, config.theta_B
        )
        row = [
            config.g,
            config.delta_Q,
            config.omega,
            config.theta_A.theta,
            config.theta_B.theta,
            config.b,
            exact_Q,
            exact_P,
            fo_Q,
            fo_P,
            exact_Q - fo_Q,
            exact_P - fo_P,
            margin.ratio,
            margin.classification,
        ]
        if mc:
            try:
                est = run_weak_experiment(config)
                row += [est.mean_Q, est.se_Q, est.mean_P, est.se_P]
            except InsufficientAcceptanceError:
                row += ["nan"] * 4
        yield _cells(row)


def cmd_sweep(args) -> int:
    doc = load_document(args.config)
    base = parse_experiment(doc, args.seed)
    sweep = _section(doc, "sweep")
    axes = {}
    for key in SWEEP_KEYS:
        if key in sweep:
            values = sweep[key]
            if not isinstance(values, list) or not values:
                raise ConfigError(f"field 'sweep.{key}' must be a nonempty list")
            axes[key] = [_number(v, f"sweep.{key}") for v in values]
    if not axes:
        raise ConfigError(f"section 'sweep' must list at least one of {SWEEP_KEYS}")
    if "delta_Q" in axes and "delta_P" in axes:
        raise ConfigError("sweep over delta_Q or delta_P, not both")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    header = SWEEP_HEADER + (",mc_Q,mc_se_Q,mc_P,mc_se_P" if args.mc else "")
    _write_csv(csv_path, header, _sweep_rows(base, axes, args.mc))
    run = _run_record(base.n_samples, math.prod(map(len, axes.values())) if args.mc else 0)
    manifest = write_manifest(out_dir, doc, base.seed, [csv_path.name], {"run": run})
    if not args.quiet:
        print(f"wrote {csv_path} and {manifest}")
    return 0


def cmd_verify(args) -> int:
    results = run_all()
    all_pass = True
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        all_pass &= res.passed
        print(
            f"[{tag}] {res.name}: max|deviation| = {res.max_deviation:.3e} "
            f"(tolerance {res.tolerance:.1e}, {res.n_checks} checks)"
        )
    print("VERIFY " + ("PASS" if all_pass else "FAIL"))
    return 0 if all_pass else 1


HISTOGRAM_HEADER = "p_lo,p_hi,P_lo,P_hi,count"


def cmd_histogram(args) -> int:
    doc = load_document(args.config)
    config = parse_experiment(doc, args.seed)
    hist = doc.get("histogram", {})
    if not isinstance(hist, dict):
        raise ConfigError("section 'histogram' must be an object")
    bins = hist.get("bins", 61)
    if isinstance(bins, bool) or not isinstance(bins, int) or bins < 2:
        raise ConfigError("field 'histogram.bins' must be an integer >= 2")
    hist_range = None
    if "p_range" in hist or "P_range" in hist:
        for key in ("p_range", "P_range"):
            rng = hist.get(key)
            if not isinstance(rng, list) or len(rng) != 2:
                raise ConfigError(f"field 'histogram.{key}' must be [lo, hi]")
        hist_range = tuple(
            tuple(_number(v, f"histogram.{key}") for v in hist[key])
            for key in ("p_range", "P_range")
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins, hist_range)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    csv_path = out_dir / "histogram.csv"
    # each edge formatted once: a "lo,hi" cell per bin of p' and of P
    p_bins, P_bins = (
        [f"{lo},{hi}" for lo, hi in itertools.pairwise(_cells(edges.tolist()))]
        for edges in (p_edges, P_edges)
    )
    rows = (
        (p_bin, P_bin, str(n))
        for p_bin, row in zip(p_bins, counts)
        for P_bin, n in zip(P_bins, row.astype(int).tolist())
    )
    _write_csv(csv_path, HISTOGRAM_HEADER, rows)
    manifest = write_manifest(
        out_dir, config_echo(config), config.seed, [csv_path.name], {"run": _run_record(config.n_samples)}
    )
    if not args.quiet:
        print(f"wrote {csv_path} and {manifest}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="erlweak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_config=True, needs_out=False):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="path to JSON config")
        if needs_out:
            p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=func)
        return p

    add("weakvalue", cmd_weakvalue)
    add("simulate", cmd_simulate, needs_out=True)
    sweep = add("sweep", cmd_sweep, needs_out=True)
    sweep.add_argument("--mc", action="store_true", help="add Monte Carlo columns")
    add("verify", cmd_verify, needs_config=False)
    add("histogram", cmd_histogram, needs_out=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegeneratePostselectionError, InsufficientAcceptanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
