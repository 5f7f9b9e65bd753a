"""The accepted-domain property: `weakvalue`, `simulate`, `sweep`,
`sweep --mc` and `histogram`, run through `cli.main` on configs drawn over
every field the schema reads, `histogram`'s explicit ranges and
`weakvalue`'s `discrete` section included, each end in exactly one of these
ways, with no traceback and no RuntimeWarning:

- exit 0, with every printed number and CSV cell finite, except the
  regime's documented `bound=inf`, `sweep`'s regime class, and the four
  `mc_*` cells of a `sweep --mc` row whose window accepted fewer than 2
  draws, which are exactly `nan`;
- exit 1, with one `error:` line and no --out, or `simulate`'s
  `insufficient_acceptance` row, whose estimates are nan;
- exit 2, with one `config error:` line and no --out, only for a config that
  the schema rejects.

The configs are drawn by one strategy per `CONFIG_FIELDS` reader, so they
follow the schema's fields, plus one strategy for a sweep axis: any of
`SWEEP_KEYS` for the closed forms, theta_B or b for `sweep --mc`, so that a
sampling pass windows several points. A `histogram` section draws bins and
both ranges, each ordinary, a few ulps wide, far from 0 against its width,
or subnormal; a `discrete` section draws lists of numbers and [re, im]
pairs, of equal lengths or not, with a zero postselection amplitude on one
draw in ten. The example
budget is the active hypothesis profile's: hypothesis's default in tier-1,
ten times that under the `ci` profile of tests/conftest.py.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erlweak.cli import (
    CONFIG_FIELDS,
    SWEEP_KEYS,
    ConfigError,
    _angle,
    _integer,
    _number,
    _window,
    main,
    parse_discrete,
    parse_experiment,
    parse_histogram,
)

PI = math.pi
N_SAMPLES = 2000
POSITIVE = ("sigma", "delta_Q")  # the schema rejects the other sign, so draw these positive
SWEEP_SPREADS = ("delta_Q", "delta_P")  # the schema rejects a sweep spread that is not positive

wide = st.tuples(st.floats(-200.0, 200.0), st.sampled_from((1.0, -1.0))).map(
    lambda t: t[1] * 10.0 ** t[0]
)
# log-uniform in 1e+-200 on 3 draws in 10, O(1) otherwise
numbers = st.integers(0, 9).flatmap(lambda k: wide if k < 3 else st.floats(-10.0, 10.0))
positive = numbers.map(abs).filter(lambda x: x > 0.0)
READERS = {
    _number: numbers,
    _angle: st.sampled_from((0.0, PI / 2, PI, 1e-9)) | st.floats(0.0, 2.0 * PI),
    _window: st.none() | positive,
    _integer: st.integers(0, 2**64 - 1),
}
# one axis of SWEEP_KEYS, with one to three values that the schema accepts
sweep_axes = st.sampled_from(SWEEP_KEYS).flatmap(
    lambda key: st.lists(positive if key in SWEEP_SPREADS else numbers, min_size=1, max_size=3).map(
        lambda values: {key: values}
    )
)


# `sweep --mc`: one axis of the window's fields, whose points share their draws
window_axes = st.sampled_from(("theta_B", "b")).flatmap(
    lambda key: st.lists(numbers, min_size=1, max_size=3).map(lambda values: {key: values})
)


# a histogram range [lo, hi]: ordinary (perhaps empty), a few ulps wide, far
# from 0 against its width, or a whole number of subnormals
spans = st.one_of(
    st.lists(numbers, min_size=2, max_size=2),
    st.tuples(numbers, st.integers(1, 300)).map(lambda t: [t[0], t[0] + t[1] * math.ulp(t[0])]),
    st.tuples(st.sampled_from((1e8, -1e8, 1e15, -3e300)), st.floats(-12.0, 3.0)).map(
        lambda t: [t[0], t[0] + 10.0 ** t[1]]
    ),
    st.tuples(st.integers(-50, 50), st.integers(1, 500)).map(
        lambda t: [t[0] * 5e-324, (t[0] + t[1]) * 5e-324]
    ),
)
histograms = st.fixed_dictionaries({"bins": st.integers(0, 80), "p_range": spans, "P_range": spans})
# a discrete amplitude or overlap: a number or an [re, im] pair
complexes = numbers | st.lists(numbers, min_size=2, max_size=2)


@st.composite
def discrete_documents(draw):
    """A `weakvalue` config of a `discrete` section alone. Each list has
    the drawn length, or one more on one draw in five; on one draw in ten
    every overlap is 0, and so is the postselection amplitude."""
    n = draw(st.integers(1, 4))
    sizes = [n + draw(st.sampled_from((0, 0, 0, 0, 1))) for _ in range(3)]
    amplitudes, overlaps = (draw(st.lists(complexes, min_size=k, max_size=k)) for k in sizes[:2])
    if draw(st.integers(0, 9)) == 0:
        overlaps = [0.0] * len(overlaps)
    eigenvalues = draw(st.lists(numbers, min_size=sizes[2], max_size=sizes[2]))
    return {"discrete": {"amplitudes": amplitudes, "overlaps": overlaps, "eigenvalues": eigenvalues}}


@st.composite
def documents(draw, axes=sweep_axes):
    doc = {}
    for section, key, read in CONFIG_FIELDS:
        value = N_SAMPLES if key == "n_samples" else draw(READERS[read])
        doc.setdefault(section, {})[key] = abs(value) if key in POSITIVE else value
    doc["sweep"] = draw(axes)
    return doc


def config(**fields):
    """The README config at n = N_SAMPLES, with `fields` replaced, and a
    sweep axis that leaves it as it is."""
    values = {
        "mu_q": 0.0, "mu_p": 0.0, "sigma": 1.0, "delta_Q": 1.0, "mu_P": 0.0, "omega": 0.0,
        "g": 0.1, "theta_A": 0.0, "theta_B": PI / 2, "b": 1.0, "epsilon": None,
        "n_samples": N_SAMPLES, "seed": 42, **fields,
    }
    doc = {}
    for section, key, _ in CONFIG_FIELDS:
        doc.setdefault(section, {})[key] = values[key]
    doc["sweep"] = {"g": [values["g"]]}
    return doc


def _finite_cells(line: str) -> bool:
    return all(math.isfinite(float(cell)) for cell in line.split(",") if cell)


@pytest.mark.parametrize("command", ["weakvalue", "simulate", "sweep", "histogram"])
@settings(derandomize=True, deadline=None)
@given(doc=documents())
# the A check's false alarm: |P| ~ 1e72 against |A| ~ 1
@example(doc=config(sigma=2.504e-6, delta_Q=7.88e-74, omega=0.835, mu_P=2.52, g=0.0107,
                    theta_A=PI / 2, theta_B=PI, b=2.44, seed=1))
# a degenerate joint covariance, and an automatic box narrower than an ulp of its centre
@example(doc=config(sigma=2.46e15, omega=-1.41e54, g=-1.92, theta_A=0.3, theta_B=1.0))
@example(doc=config(mu_p=1e20))
# sampled moments and oracles that overflow
@example(doc=config(sigma=2.10, delta_Q=1.6e153, g=0.0, theta_A=PI / 2, theta_B=-3.79, b=0.0,
                    seed=25))
@example(doc=config(
    mu_q=2.0427837793130598e31, mu_p=-1.4675462301333038, sigma=1.2891231823151736,
    delta_Q=1.0840198350845482e148, mu_P=-8.577717388899806e45, omega=-0.9916264338296173,
    g=3.4261826345304717e132, theta_A=0.804967313946193, theta_B=3.4271459294034337,
    b=1.6670586017987565, epsilon=1.0154610731472313, seed=742704959,
))
@example(doc=config(
    mu_q=7.808012688253456e-57, mu_p=-2.332830286873745, sigma=1.3807937172961038,
    delta_Q=0.538571819848714, mu_P=-4.622894133223559e162, omega=2.625911748901031,
    g=1.1949359192329276, theta_A=4.153382727236075, theta_B=1e-9,
    b=7.526853615144862e-60, epsilon=1.1492017626425681e179, seed=74842596,
))
# a closed form that overflows by multiplication
@example(doc=config(delta_Q=1e-150, b=1e20))
# a variance of B that cancels to -1.76e71
@example(doc=config(mu_q=-3.77e-168, mu_p=7.91, sigma=8.94, delta_Q=5.54e90, omega=-7.17,
                    g=-1.4141414e150, theta_A=PI / 2, theta_B=PI / 2, b=-2.30, seed=1))
def test_every_accepted_config_ends_in_a_documented_way(command, doc):
    _ends_in_a_documented_way([command], doc)


@settings(derandomize=True, deadline=None)
@given(doc=documents(window_axes))
# three windows of one pass: the last accepts nothing, the others tens of draws
@example(doc={**config(), "sweep": {"b": [0.0, 1.0, 40.0]}})
@example(doc={**config(epsilon=0.3, mu_P=0.6), "sweep": {"theta_B": [0.0, PI / 2, 2.0]}})
def test_every_accepted_sweep_mc_ends_in_a_documented_way(doc):
    _ends_in_a_documented_way(["sweep", "--mc"], doc)


@settings(derandomize=True, deadline=None)
@given(doc=documents(), hist=histograms, readme=st.booleans())
# draws inside a far-offset range, and a subnormal one: edges the guess can trust near
# the draws, and edges it trusts nowhere
@example(doc=config(mu_p=1e8, sigma=500.0, g=1e-4), readme=False,
         hist={"bins": 61, "p_range": [1e8 - 2e-3, 1e8 + 2e-3], "P_range": [-2.0, 2.0]})
@example(doc=config(), readme=False,
         hist={"bins": 7, "p_range": [0.0, 5e-323], "P_range": [-5e-323, 5e-323]})
# edges that are not strictly increasing: a config error
@example(doc=config(), readme=False,
         hist={"bins": 7, "p_range": [1.0, 1.0 + 3 * 2.0**-52], "P_range": [-1.0, 1.0]})
def test_every_accepted_histogram_range_ends_in_a_documented_way(doc, hist, readme):
    # the README config on half the draws, so that most draws fall in an O(1) range
    _ends_in_a_documented_way(["histogram"], {**(config() if readme else doc), "histogram": hist})


@settings(derandomize=True, deadline=None)
@given(doc=discrete_documents())
# a postselection amplitude that cancels to 0, and one whose product overflows
@example(doc={"discrete": {"amplitudes": [0.6, 0.6], "overlaps": [[0.3, 0.1], [-0.3, -0.1]],
                           "eigenvalues": [1.0, -1.0]}})
@example(doc={"discrete": {"amplitudes": [0.0, 1e154], "overlaps": [0.0, 1e155],
                           "eigenvalues": [0.0, 1.0]}})
def test_every_accepted_discrete_section_ends_in_a_documented_way(doc):
    _ends_in_a_documented_way(["weakvalue"], doc)


def _rejected(command, doc) -> bool:
    """Whether the schema rejects `doc` for `command`: the experiment, and
    for `histogram` its section too, or the `discrete` section alone where
    `weakvalue` has one."""
    try:
        if command == ["weakvalue"] and "discrete" in doc:
            parse_discrete(doc)
        else:
            parse_experiment(doc)
            if command == ["histogram"]:
                parse_histogram(doc)
    except ConfigError:
        return True
    return False


def _ends_in_a_documented_way(command, doc):
    """Run `command` on `doc` through `cli.main` and check that it ends in
    one of the ways the module docstring lists."""
    rejected = _rejected(command, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        argv = [*command, "--config", str(path)]
        if command != ["weakvalue"]:
            argv += ["--out", str(out), "--quiet"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        printed, errors = stdout.getvalue(), stderr.getvalue().splitlines()
        csv = out / f"{command[0]}.csv"
        rows = csv.read_text().splitlines()[1:] if csv.exists() else []

        assert (code == 2) == rejected, (code, errors)
        if code == 0:
            assert errors == []
            values = dict(re.findall(r"(\w+)=(\S+)", printed))
            values.pop("classification", None)
            values.pop("bound", None)  # inf where the regime has no bound
            assert all(math.isfinite(float(x)) for x in values.values()), printed
            if command == ["weakvalue"]:
                assert len(values) == (2 if "discrete" in doc else 5), printed
            elif command == ["sweep", "--mc"]:
                # the regime class, then the mc_* cells: nan exactly where the
                # window accepted fewer than 2 draws
                assert rows
                for row in rows:
                    cells = row.split(",")
                    assert _finite_cells(",".join(cells[:13])), row
                    mc = cells[14:]
                    assert len(mc) == 4 and (_finite_cells(",".join(mc)) or mc == ["nan"] * 4), row
            else:
                cells = [row.rsplit(",", 1)[0] if command == ["sweep"] else row for row in rows]
                assert rows and all(map(_finite_cells, cells)), rows[:3]
        elif code == 1 and command == ["simulate"] and out.exists():
            # too few draws in the window: the row is written, with nan estimates
            assert errors == [] and len(rows) == 1
            cells = rows[0].split(",")
            assert cells[-1] == "insufficient_acceptance" and cells[6] == "0"
            assert _finite_cells(",".join(cells[:7] + cells[13:-1])), rows
        else:
            assert code in (1, 2)
            prefix = "error: " if code == 1 else "config error: "
            assert len(errors) == 1 and errors[0].startswith(prefix), errors
            assert not out.exists()
