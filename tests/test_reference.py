"""The Gaussian closed form against a 50-digit reference.

`reference` evaluates the weak value, the postselected device means and the
regime ratio in mpmath at 50 digits, from the exact values of a config's
float fields: the sines and cosines of the float angles (reduced to
[0, 2 pi) as `Quadrature` reduces them), and their difference taken before
the sine. Its weak value is slope times b plus the intercept of the
particle's regression of A on B, and its <P>_b is (mu_P + p1) / (1 + r),
the forms in which no two terms cancel that the float fields do not make
cancel. `conditioned` is the independent route it is checked against: the
4 x 4 moments pushed through the coupling map and regressed on B.

The float closed form is within bounds fixed in advance of the reference:
the weak value and the means to MEANS_TOL of max(1, |reference|), and the
regime ratio to RATIO_TOL of itself wherever it and its inner product
delta_P |sin(theta_B - theta_A)| / s_B are normal floats. Two groups of
configs miss them, in this form and in the earlier sigma^4 form, and are
strict xfails named by their defect:
- theta_A, theta_B at 1e-9 and pi, where rounding theta_B - theta_A costs
  about 2e-16 / sin(theta_B - theta_A). The property skips the whole class
  it belongs to, `ill_conditioned`: the configs where one ulp of a field,
  or the rounding of the angles' sines and cosines, already moves an exact
  value out of its bound;
- the strong regime where k k of the ratio overflows, so that
  (q1 + r g mu_A) / (1 + r) is inf / inf.
The property checks only the values that the CLI prints, the ones it ends
in its closed-form error line instead being those that are not finite.
"""

import contextlib
import io
import json
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erlweak.analytic import _conjugate_spread, postselected_means_gaussian, weak_value_gaussian
from erlweak.bounds import _angles, gaussian_regime_margin
from erlweak.cli import CONFIG_FIELDS, main
from erlweak.states import Quadrature

from test_domain import READERS, config, positive

PI = math.pi
MEANS_TOL = 1e-11
RATIO_TOL = 1e-14
# `conditioned` runs at more digits than the span of its terms, at most
# about 1e2500 on finite float fields
WIDE_DPS = 3000
REFERENCE_TOL = mpmath.mpf(1e-45)
NORMAL = (mpmath.mpf(2.0**-1022), mpmath.mpf(1.7976931348623157e308))
KEYS = ("re", "im", "Q", "P", "r")
FIELDS = ("mu_q", "mu_p", "sigma", "delta_Q", "mu_P", "omega", "g", "theta_A", "theta_B", "b")


def _exact(c: dict) -> dict:
    """The fields of `c` as mpf, each angle as its `Quadrature`'s float in [0, 2 pi)."""
    angle = {key: Quadrature(c[key]).theta for key in ("theta_A", "theta_B")}
    return {key: mpmath.mpf(angle.get(key, c[key])) for key in FIELDS}


def reference(c: dict, rounded: bool = False) -> dict:
    """re, im, Q, P and r of config fields `c` (floats keyed as FIELDS), as
    mpf at 50 digits; with `rounded`, from the float sines and cosines that
    `bounds._angles` takes in place of the exact ones."""
    with mpmath.workdps(50):
        x = _exact(c)
        s, g, b, mu_P = x["sigma"], x["g"], x["b"], x["mu_P"]
        if rounded:
            ta, tb = float(x["theta_A"]), float(x["theta_B"])
            ca, sa, cb, sb, sd = map(mpmath.mpf, _angles(Quadrature(ta), Quadrature(tb)))
        else:
            ca, sa = mpmath.cos(x["theta_A"]), mpmath.sin(x["theta_A"])
            cb, sb = mpmath.cos(x["theta_B"]), mpmath.sin(x["theta_B"])
            sd = mpmath.sin(x["theta_B"] - x["theta_A"])
        cov_qB, cov_pB = s**2 * cb, sb / (4 * s**2)  # Cov(q, B), Cov(p, B)
        var_B = cb * cov_qB + sb * cov_pB
        delta_P2 = (1 + x["omega"] ** 2) / (4 * x["delta_Q"] ** 2)
        r = g**2 * delta_P2 * sd**2 / var_B
        inner = mpmath.sqrt(delta_P2 * sd**2 / var_B)  # delta_P |sd| / s_B

        mu_q, mu_p = x["mu_q"], x["mu_p"]
        mu_A, mu_B = ca * mu_q + sa * mu_p, cb * mu_q + sb * mu_p

        def weak_value(b):
            slope = (ca * cov_qB + sa * cov_pB) / var_B
            intercept = sd * (mu_q * cov_pB - mu_p * cov_qB) / var_B  # mu_A - slope mu_B
            return slope * b + intercept, -sd * (b - mu_B) / (2 * var_B)

        re, im = weak_value(b)
        # the mean kick g mu_P (sin theta_A, -cos theta_A) of the particle
        # leaves mu_A as it is and moves mu_B by -g mu_P sin(theta_B - theta_A)
        re_k, im_k = weak_value(b + g * mu_P * sd)
        Q = g * (re_k + x["omega"] * im_k + r * mu_A) / (1 + r)
        P = (mu_P + 2 * g * delta_P2 * im) / (1 + r)
        return {"re": re, "im": im, "Q": Q, "P": P, "r": r, "inner": inner}


def conditioned(c: dict) -> tuple:
    """(Q, P) of config fields `c` at WIDE_DPS digits: E[(Q, P) | B = b] of
    the particle and pure device pushed through the coupling map."""
    with mpmath.workdps(WIDE_DPS):
        x = _exact(c)
        s, dQ, w, g = x["sigma"], x["delta_Q"], x["omega"], x["g"]
        ca, sa = mpmath.cos(x["theta_A"]), mpmath.sin(x["theta_A"])
        cov = mpmath.zeros(4, 4)
        cov[0, 0], cov[1, 1] = s**2, 1 / (4 * s**2)
        cov[2, 2], cov[2, 3], cov[3, 2] = dQ**2, w / 2, w / 2
        cov[3, 3] = (1 + w**2) / (4 * dQ**2)
        mean = mpmath.matrix([x["mu_q"], x["mu_p"], 0, x["mu_P"]])
        m = mpmath.matrix([[1, 0, 0, g * sa], [0, 1, 0, -g * ca], [g * ca, g * sa, 1, 0], [0, 0, 0, 1]])
        mean, cov = m * mean, m * cov * m.T
        v = mpmath.matrix([mpmath.cos(x["theta_B"]), mpmath.sin(x["theta_B"]), 0, 0])
        gain = cov * v / (v.T * cov * v)[0]
        shift = x["b"] - (v.T * mean)[0]
        return mean[2] + gain[2] * shift, mean[3] + gain[3] * shift


def floats(c: dict) -> dict:
    """re, im, Q, P and r from the public closed forms on the floats of `c`,
    as the CLI calls them."""
    theta_A, theta_B = Quadrature(c["theta_A"]), Quadrature(c["theta_B"])
    wv = weak_value_gaussian(c["mu_q"], c["mu_p"], c["sigma"], theta_A, theta_B, c["b"])
    Q, P = postselected_means_gaussian(
        c["mu_q"], c["mu_p"], c["sigma"], c["delta_Q"], c["omega"], c["g"], theta_A, theta_B, c["b"],
        mu_P=c["mu_P"],
    )
    delta_P = _conjugate_spread(c["delta_Q"], c["omega"])
    margin = gaussian_regime_margin(c["g"], delta_P, c["sigma"], theta_A, theta_B)
    return {"re": wv.re, "im": wv.im, "Q": Q, "P": P, "r": margin.ratio}


def _document(c: dict) -> dict:
    """The README config at the fields of `c`."""
    return config(**{key: c[key] for key in FIELDS})


def _fields(**overrides) -> dict:
    """The README config's fields, with `overrides`."""
    doc = config(**overrides)
    return {key: doc[section][key] for section, key, _ in CONFIG_FIELDS if key in FIELDS}


def misses(got: dict, ref: dict) -> dict:
    """The values of `got` out of their bound of `ref`, among those that the
    CLI would print: `weakvalue` prints re, im and r only where all three
    are finite, and `sweep` Q, P and r, and else ends in its error line."""
    out = {}
    for group in (("re", "im", "r"), ("Q", "P", "r")):
        if not all(math.isfinite(got[key]) for key in group):
            continue
        for key in group:
            value, exact = got[key], ref[key]
            if key != "r":
                err = abs(value - exact) / max(1, abs(exact))
            elif NORMAL[0] <= exact <= NORMAL[1] and ref["inner"] >= NORMAL[0]:
                err = abs(value - exact) / exact
            else:
                continue
            if err > (RATIO_TOL if key == "r" else MEANS_TOL):
                out[key] = (value, float(exact), float(err))
    return out


def assert_is_conditioned(ref: dict, c: dict) -> None:
    """The reference's means are the conditioned joint's, to REFERENCE_TOL."""
    for value, exact in zip(conditioned(c), (ref["Q"], ref["P"])):
        assert abs(value - exact) <= REFERENCE_TOL * max(1, abs(value)), (c, value, exact)


def ill_conditioned(c: dict) -> bool:
    """Whether one ulp of a field, or rounding the angles' sines and cosines
    to the floats that `bounds._angles` takes, moves an exact value out of
    its bound: no float route that starts from them meets it there."""
    exact = reference(c)
    moved = [reference(c, rounded=True)]
    moved += [reference({**c, key: c[key] + math.ulp(c[key])}) for key in FIELDS]
    return any(misses({key: float(m[key]) for key in KEYS}, exact) for m in moved)


# Configs at which the earlier sigma^4 form printed no finite value, or a wrong ratio
NAMED = {
    # its weak-value denominator 4 sigma^4 cos^2 theta_B + sin^2 theta_B underflowed to 0
    "sigma-tiny-theta_B-0": _fields(sigma=1e-150, theta_A=PI / 2, theta_B=0.0),
    # its g^2 raised, although r = 0 and the means are the first-order shifts
    "g-huge-coincident": _fields(g=1e160, theta_A=0.7, theta_B=0.7),
    # its bound quotient overflowed to inf, so it read r = 0
    "bound-overflows": _fields(sigma=1e-160, theta_A=PI, theta_B=5 * PI / 8, g=73023.5,
                               delta_Q=0.2858, omega=1e150),
    # its sigma^4 overflowed
    "sigma-1e154": _fields(sigma=1e154),
    "sigma-1e200": _fields(sigma=1e200),
    # the delta_Q of the sweep point delta_P = 0.5, where its omega^2 overflowed
    "delta_P-point-omega-1e200": _fields(omega=1e200, delta_Q=_conjugate_spread(0.5, 1e200)),
}


MODERATE = _fields(mu_q=0.3, mu_p=-0.4, mu_P=0.6, omega=0.7, g=3.0, theta_A=0.4, theta_B=2.2)


@pytest.mark.parametrize("c", [*NAMED.values(), _fields(), MODERATE], ids=[*NAMED, "readme", "moderate"])
def test_reference_is_the_conditioned_joint(c):
    assert_is_conditioned(reference(c), c)


def _run(argv) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert stderr.getvalue() == ""
    return code, stdout.getvalue()


@pytest.mark.parametrize("name", NAMED)
def test_named_config_prints_the_reference(tmp_path, name):
    # weakvalue and sweep exit 0, and every value they print is within its
    # bound of the reference
    c, doc = NAMED[name], _document(NAMED[name])
    if name.startswith("delta_P-point"):
        doc["sweep"] = {"delta_P": [0.5]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, out = _run(["weakvalue", "--config", str(path)])
    assert code == 0
    printed = dict(item.split("=") for line in out.splitlines() for item in line.split()[1:])
    code, _ = _run(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    header, row = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    got = {
        "re": float(printed["re"]), "im": float(printed["im"]), "r": float(printed["ratio"]),
        "Q": float(cells["exact_Q"]), "P": float(cells["exact_P"]),
    }
    assert all(map(math.isfinite, got.values())) and cells["regime_ratio"] == printed["ratio"]
    assert misses(got, reference(c)) == {}


def test_bound_beyond_float_range_is_inf_and_the_ratio_finite():
    # the exact bound g^2 delta_P^2 / r is about 2.5e319
    c = NAMED["bound-overflows"]
    delta_P = _conjugate_spread(c["delta_Q"], c["omega"])
    margin = gaussian_regime_margin(c["g"], delta_P, c["sigma"], Quadrature(PI), Quadrature(5 * PI / 8))
    assert math.isinf(margin.rhs) and f"{margin.ratio:.17g}" == "6.5283110773118657e-10"
    assert mpmath.nstr(reference(c)["r"], 5) == "6.5283e-10"


@pytest.mark.parametrize("theta_A, theta_B", [(1e-9, PI), (PI, 1e-9)])
def test_angle_group_is_ill_conditioned(theta_A, theta_B):
    assert ill_conditioned(_fields(theta_A=theta_A, theta_B=theta_B, g=3.0))


@pytest.mark.xfail(strict=True, reason="rounding theta_B - theta_A costs 2e-16 / sin(theta_B - theta_A)")
@pytest.mark.parametrize("theta_A, theta_B", [(1e-9, PI), (PI, 1e-9)])
def test_angle_group_misses_the_reference(theta_A, theta_B):
    c = _fields(theta_A=theta_A, theta_B=theta_B, g=3.0)
    assert misses(floats(c), reference(c)) == {}


@pytest.mark.xfail(strict=True, reason="k k overflows, so (q1 + r g mu_A) / (1 + r) is inf / inf")
def test_strong_regime_whose_ratio_overflows_misses_the_reference():
    c = _fields(g=1e160, mu_q=0.3)
    got = floats(c)
    assert math.isinf(got["r"])
    assert math.isfinite(got["Q"]) and misses(got, reference(c)) == {}


@settings(derandomize=True, deadline=None)
@given(c=st.fixed_dictionaries({
    key: positive if key in ("sigma", "delta_Q") else READERS[read]
    for _, key, read in CONFIG_FIELDS if key in FIELDS
}))
@example(c=NAMED["bound-overflows"])
# A = B with means far from b: Re A_w = b, which mu_A + Cov(A, B) z / s_B
# evaluated as written gives as -16384
@example(c=_fields(mu_q=1e20, theta_A=0.7, theta_B=0.7))
# mu_P far above <P>_b = (mu_P + p1) / (1 + r) = 1.24
@example(c=_fields(sigma=2.0, mu_P=1e5, omega=1.0, g=100.0))
def test_property_closed_form_is_within_its_bound_of_the_reference(c):
    ref = reference(c)
    assert_is_conditioned(ref, c)
    got = floats(c)
    if ill_conditioned(c) or math.isinf(got["r"]):
        return
    assert misses(got, ref) == {}
