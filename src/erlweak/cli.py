"""Config-driven experiment runner.

Subcommands: weakvalue, simulate, sweep, verify, histogram.
Config is a single JSON document with sections `particle`, `device`,
`coupling`, `postselection`, `sampling` (and optionally `discrete`,
`sweep`, `histogram`); the table CONFIG_FIELDS declares the section and
key of each experiment field once. All angles are radians. simulate,
sweep and histogram write a CSV and manifest.json into --out. Exit codes:
0 success, 1 runtime/statistical failure (an unwritable --out and
numerical overflow included), 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import itertools
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    DegeneratePostselectionError,
    DiscreteSpectrumInput,
    WeakValue,
    _conjugate_spread,
    first_order_shifts,
    postselected_means_gaussian,
    weak_value_discrete,
    weak_value_gaussian,
)
from .bounds import RegimeMargin, gaussian_regime_margin
from .montecarlo import (
    ExperimentConfig,
    InsufficientAcceptanceError,
    _estimate,
    _histogram_edges,
    _postselect,
    _sampling_passes,
    acceptance_probability,
    chunk_plan,
    joint_momentum_histogram,
    oracle_estimate,
    run_weak_experiment,
    windowed_oracle,
)
from .states import Quadrature


class ConfigError(Exception):
    """Malformed configuration; message names the offending field."""


def _fmt(x: float) -> str:
    return f"{0.0 if x == 0 else x:.17g}"


def _cells(values) -> list[str]:
    """CSV cells: floats through `_fmt`, anything else through str."""
    return [_fmt(x) if isinstance(x, float) else str(x) for x in values]


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


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{field}' must be an integer")
    return value


def _angle(value, field: str) -> Quadrature:
    return Quadrature(_number(value, field))


def _complex(value, field: str) -> complex:
    """A number, or an [re, im] pair of numbers, as a complex."""
    if isinstance(value, list) and len(value) == 2:
        return complex(*(_number(part, f"{field}[{j}]") for j, part in enumerate(value)))
    return complex(_number(value, field, "a number or an [re, im] pair"))


def _window(value, field: str) -> float | None:
    """The window half-width; absent or null selects the adaptive window."""
    return None if value is None else _number(value, field, "a number or null")


CONFIG_FIELDS = (
    ("particle", "mu_q", _number),
    ("particle", "mu_p", _number),
    ("particle", "sigma", _number),
    ("device", "delta_Q", _number),
    ("device", "mu_P", _number),
    ("device", "omega", _number),
    ("coupling", "g", _number),
    ("coupling", "theta_A", _angle),
    ("postselection", "theta_B", _angle),
    ("postselection", "b", _number),
    ("postselection", "epsilon", _window),
    ("sampling", "n_samples", _integer),
    ("sampling", "seed", _integer),
)
"""The config schema, declared once: the JSON section and key of each
ExperimentConfig field, in field order, with the reader that turns its JSON
value into the field's value. parse_experiment reads a document through it,
config_echo writes one, and a sweep axis replaces the field of the same key."""


def _section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise ConfigError(f"missing section '{name}'")
    if not isinstance(doc[name], dict):
        raise ConfigError(f"section '{name}' must be an object")
    return doc[name]


def _list(section: dict, name: str, key: str, read) -> list:
    """The one list reader: section[key] as a nonempty list, each item read
    by `read` under the field name `name.key[i]`."""
    field = f"{name}.{key}"
    if key not in section:
        raise ConfigError(f"missing field '{field}'")
    items = section[key]
    if not isinstance(items, list) or not items:
        raise ConfigError(f"field '{field}' must be a nonempty list")
    return [read(item, f"{field}[{i}]") for i, item in enumerate(items)]


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
    """The experiment a config document describes, read through
    CONFIG_FIELDS; `seed_override` (--seed) replaces sampling.seed."""
    sections = {name: _section(doc, name) for name, _, _ in CONFIG_FIELDS}
    values = {} if seed_override is None else {"seed": seed_override}
    for name, key, read in CONFIG_FIELDS:
        if key in values:
            continue
        section, field = sections[name], f"{name}.{key}"
        if key not in section and read is not _window:
            raise ConfigError(f"missing field '{field}'")
        values[key] = read(section.get(key), field)
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_discrete(doc: dict) -> tuple[list[complex], list[complex], list[float]]:
    """(amplitudes, overlaps, eigenvalues) of the `discrete` section, which
    `weakvalue` reads in place of the experiment: three lists of equal
    length, each amplitude and overlap a number or an [re, im] pair."""
    disc = _section(doc, "discrete")
    amplitudes, overlaps = (
        _list(disc, "discrete", key, _complex) for key in ("amplitudes", "overlaps")
    )
    eigenvalues = _list(disc, "discrete", "eigenvalues", _number)
    if not len(amplitudes) == len(overlaps) == len(eigenvalues):
        raise ConfigError(
            "fields 'discrete.amplitudes', 'discrete.overlaps' and "
            "'discrete.eigenvalues' must have equal lengths"
        )
    return amplitudes, overlaps, eigenvalues


def parse_histogram(doc: dict) -> tuple[int, tuple | None]:
    """(bins, hist_range) of the optional `histogram` section: 61 bins
    unless given, and the automatic box (None) unless p_range or P_range
    is. An explicit range must give finite, strictly increasing edges;
    the automatic box and the state fail at run time instead."""
    hist = _section(doc, "histogram") if "histogram" in doc else {}
    bins = hist.get("bins", 61)
    if isinstance(bins, bool) or not isinstance(bins, int) or bins < 2:
        raise ConfigError("field 'histogram.bins' must be an integer >= 2")
    if not ("p_range" in hist or "P_range" in hist):
        return bins, None
    hist_range = tuple(_list(hist, "histogram", key, _number) for key in ("p_range", "P_range"))
    for key, rng in zip(("p_range", "P_range"), hist_range):
        if len(rng) != 2:
            raise ConfigError(f"field 'histogram.{key}' must be [lo, hi]")
    try:
        _histogram_edges(bins, hist_range)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return bins, hist_range


def config_echo(config: ExperimentConfig) -> dict:
    """The config document of `config`, laid out by CONFIG_FIELDS, with
    each angle as its radians."""
    echo = {}
    for name, key, _ in CONFIG_FIELDS:
        value = getattr(config, key)
        echo.setdefault(name, {})[key] = getattr(value, "theta", value)
    return echo


def _write_outputs(args, header: str, rows, echo: dict, runs: int = 1, **extra) -> None:
    """The one writer of simulate, sweep and histogram, called once every
    row is computed, so a run that raises leaves no --out. Creates --out,
    writes `<command>.csv` there, the header then one line per row of str
    cells, then manifest.json, and prints both paths unless --quiet. The
    manifest holds the config echo, its seed, `extra`, and a `run` block for
    `runs` sampling passes of sampling.n_samples draws each: the processes
    that ran their chunks, the number of chunks drawn, and the Python and
    numpy versions."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{args.command}.csv"
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    workers, chunks = chunk_plan(echo["sampling"]["n_samples"])
    manifest = {
        "tool": "erlweak",
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": echo["sampling"]["seed"],
        "config": echo,
        "outputs": [csv_path.name],
        "run": {
            "workers": workers if runs else 0,
            "chunks": runs * chunks,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        **extra,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        print(f"wrote {csv_path} and {manifest_path}")


_CLOSED_FORM_OVERFLOW = "the closed form overflows: a power of a config field is out of float range"


@contextlib.contextmanager
def _closed_form():
    """Name the closed forms in the OverflowError that a finite config's
    powers (sigma^4, g^3, delta_P^2, ...) raise in Python floats, and in the
    ZeroDivisionError of a denominator of such powers that underflows to 0."""
    try:
        yield
    except OverflowError as exc:
        raise OverflowError(_CLOSED_FORM_OVERFLOW) from exc
    except ZeroDivisionError as exc:
        raise ZeroDivisionError(
            "the closed form underflows: a denominator made of powers of config fields is 0"
        ) from exc


def _finite(*values: float) -> None:
    """The same OverflowError for closed-form values that overflowed by
    multiplication, which Python floats do without raising."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(_CLOSED_FORM_OVERFLOW)


def _first_order(config: ExperimentConfig) -> tuple[WeakValue, tuple[float, float], RegimeMargin]:
    """(weak value, first-order (q, p) shifts of the device, regime margin).
    The margin's bound may be inf (see `gaussian_regime_margin`); the weak
    value, the shifts and the margin's ratio are finite."""
    with _closed_form():
        wv = weak_value_gaussian(
            config.mu_q, config.mu_p, config.sigma, config.theta_A, config.theta_B, config.b
        )
        shifts = first_order_shifts(wv, config.g, config.delta_P, config.omega)
        margin = gaussian_regime_margin(
            config.g, config.delta_P, config.sigma, config.theta_A, config.theta_B
        )
    _finite(wv.re, wv.im, *shifts, margin.ratio)
    return wv, shifts, margin


def cmd_weakvalue(args) -> int:
    doc = load_document(args.config)
    if "discrete" in doc:
        wv = weak_value_discrete(DiscreteSpectrumInput(*parse_discrete(doc)))
        print(f"weak_value re={_fmt(wv.re)} im={_fmt(wv.im)}")
        return 0

    wv, (q_shift, p_shift), margin = _first_order(parse_experiment(doc))
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
    oracle = oracle_estimate(config)
    try:
        est = run_weak_experiment(config)
        accepted, rate, error = est.n_accepted, est.acceptance_rate, ""
        estimates = [est.mean_Q, est.se_Q, est.mean_P, est.se_P, est.mean_A, est.se_A]
    except InsufficientAcceptanceError as exc:
        accepted, rate, error = 0, exc.acceptance_rate, "insufficient_acceptance"
        estimates = [math.nan] * 6
    epsilon = config.resolved_epsilon()
    dev = {
        "epsilon": epsilon,
        "acceptance_rate": rate,
        "acceptance_probability": acceptance_probability(config),
    }
    if not error:
        means, ses = estimates[::2], estimates[1::2]
        dev["max_abs_deviation"] = max(abs(x - o) for x, o in zip(means, oracle))
        # against the estimator's true expectation, with no O(epsilon^2) window bias
        names = ("mean_Q", "mean_P", "mean_A")
        dev["z_vs_windowed_oracle"] = {  # null where the SE is 0
            name: (x - w) / se if se else None
            for name, x, se, w in zip(names, means, ses, windowed_oracle(config))
        }
    row = [
        config.g,
        config.theta_A.theta,
        config.theta_B.theta,
        config.b,
        epsilon,
        config.n_samples,
        accepted,
        *estimates,
        *oracle,
        error,
    ]
    _write_outputs(args, SIMULATE_HEADER, [_cells(row)], config_echo(config), oracle_comparison=dev)
    return 1 if error else 0


SWEEP_KEYS = ("g", "delta_Q", "delta_P", "theta_A", "theta_B", "b")

SWEEP_HEADER = (
    "g,delta_Q,omega,theta_A,theta_B,b,exact_Q,exact_P,fo_Q,fo_P,"
    "residual_Q,residual_P,regime_ratio,regime_class"
)


def _sweep_configs(base: ExperimentConfig, axes: dict):
    """The config of each grid point of the sweep, in grid order."""
    readers = {key: read for _, key, read in CONFIG_FIELDS}
    for combo in itertools.product(*axes.values()):
        point = dict(zip(axes, combo))
        if "delta_P" in point:
            # pure device at this omega: delta_Q fixed by delta_P
            point["delta_Q"] = _conjugate_spread(point.pop("delta_P"), base.omega)
        yield dataclasses.replace(
            base, **{k: Quadrature(v) if readers[k] is _angle else v for k, v in point.items()}
        )


def _closed_form_row(config: ExperimentConfig) -> list:
    """The closed-form cells of a sweep row, as values."""
    with _closed_form():
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
    _, (fo_Q, p_shift), margin = _first_order(config)
    fo_P = config.mu_P + p_shift
    _finite(exact_Q, exact_P, fo_P, exact_Q - fo_Q, exact_P - fo_P)
    return [
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


def _sweep_rows(base: ExperimentConfig, axes: dict, mc: bool) -> tuple[list[list[str]], int]:
    """One row of str cells per grid point of the sweep, in grid order, and
    the number of sampling passes that `mc` made: one per run of
    consecutive points that differ only in theta_B and b (the innermost
    axes), which share their draws (see `_sampling_passes`). A point whose
    window accepts fewer than 2 draws gets nan Monte Carlo cells."""
    rows, passes = [], 0
    for group in _sampling_passes(_sweep_configs(base, axes)):
        values = [_closed_form_row(config) for config in group]
        if mc:
            passes += 1
            for row, window in zip(values, _postselect(group)):
                try:
                    est = _estimate(*window)
                    row += [est.mean_Q, est.se_Q, est.mean_P, est.se_P]
                except InsufficientAcceptanceError:
                    row += ["nan"] * 4
        rows += map(_cells, values)
    return rows, passes


def cmd_sweep(args) -> int:
    doc = load_document(args.config)
    base = parse_experiment(doc, args.seed)
    sweep = _section(doc, "sweep")
    axes = {key: _list(sweep, "sweep", key, _number) for key in SWEEP_KEYS if key in sweep}
    for key in ("delta_Q", "delta_P"):
        if not all(v > 0.0 for v in axes.get(key, ())):
            raise ConfigError(f"field 'sweep.{key}' must be positive")
    if not axes:
        raise ConfigError(f"section 'sweep' must list at least one of {SWEEP_KEYS}")
    if "delta_Q" in axes and "delta_P" in axes:
        raise ConfigError("sweep over delta_Q or delta_P, not both")

    header = SWEEP_HEADER + (",mc_Q,mc_se_Q,mc_P,mc_se_P" if args.mc else "")
    rows, passes = _sweep_rows(base, axes, args.mc)  # all of them, so a failing point writes nothing
    _write_outputs(args, header, rows, {**config_echo(base), "sweep": axes}, passes)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all  # only here: importing it adds to every `import erlweak.cli`

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
    bins, hist_range = parse_histogram(doc)
    counts, p_edges, P_edges = joint_momentum_histogram(config, bins, hist_range)
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
    resolved = {
        "bins": bins,
        "p_range": [p_edges[0].item(), p_edges[-1].item()],
        "P_range": [P_edges[0].item(), P_edges[-1].item()],
    }
    # dE[P' | p']/dp' = Cov(P', p') / Var(p') of the evolved joint
    cov = config.evolved_joint().cov
    echo = {**config_echo(config), "histogram": resolved}
    _write_outputs(args, HISTOGRAM_HEADER, rows, echo, exact_slope_P_given_p=(cov[3, 1] / cov[1, 1]).item())
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="erlweak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_config=True, writes_out=True):
        # only the commands that write an output directory take --seed and --quiet
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="path to JSON config")
        if writes_out:
            p.add_argument("--out", default=".", help="output directory")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
            p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=func)
        return p

    add("weakvalue", cmd_weakvalue, writes_out=False)
    add("simulate", cmd_simulate)
    sweep = add("sweep", cmd_sweep)
    sweep.add_argument("--mc", action="store_true", help="add Monte Carlo columns")
    add("verify", cmd_verify, needs_config=False, writes_out=False)
    add("histogram", cmd_histogram)
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
    except (OSError, ArithmeticError) as exc:
        # an unwritable --out, or a finite config whose arithmetic overflows
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
