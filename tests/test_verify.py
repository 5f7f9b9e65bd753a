"""Negative controls for the verify suites: each suite fails when one of its
ingredients is wrong, or returns NaN at a single check, and `erlweak verify`
then reports the failure. The oracle suite, which reads every b off one
regression per (evolved state, theta_B), also equals its per-tuple
reference bit for bit."""

import itertools
import math

import numpy as np
import pytest

from erlweak import SymplecticMap, analytic, dynamics, states, verify
from erlweak.cli import main


def closed_form_without_mu_P(*args, mu_P=0.0):
    return analytic.postselected_means_gaussian(*args)


def perturbed_first_order_shifts(weak_value, g, delta_P, omega):
    q_shift, p_shift = analytic.first_order_shifts(weak_value, g, delta_P, omega)
    return q_shift + 0.1 * g**2, p_shift + 0.1 * g**2


def coupling_map_moving_P(g, theta_A):
    shear = np.eye(4)
    shear[3, 2] = 0.5  # P' = P + Q / 2: symplectic, leaves A alone
    return SymplecticMap(dynamics.coupling_map(g, theta_A).matrix @ shear)


def coupling_map_with_shear(g, theta_A):
    shear = np.eye(4)
    shear[0, 1] = 1e-9  # q' = q + 1e-9 p: symplectic, moves A
    return SymplecticMap(shear @ dynamics.coupling_map(g, theta_A).matrix)


def closed_form_nan_at_one_tuple(*args, mu_P=0.0):
    mean_Q, mean_P = analytic.postselected_means_gaussian(*args, mu_P=mu_P)
    sigma, _, omega, g, theta_A, theta_B, b = args[2:]
    if (sigma, omega, g, theta_A.theta, theta_B.theta, b, mu_P) == (
        2.0, 1.0, 0.5, 0.0, verify.PI / 2, 0.0, 0.6
    ):
        return math.nan, mean_P
    return mean_Q, mean_P


def first_order_shifts_nan_at_one_g(weak_value, g, delta_P, omega):
    q_shift, p_shift = analytic.first_order_shifts(weak_value, g, delta_P, omega)
    return q_shift, math.nan if g == 0.05 else p_shift


def regression_with_scaled_gain(state, v):
    mu_B, gain = analytic._regression(state, v)
    return mu_B, gain * (1.0 + 1e-6)


def regression_nan_at_one_theta_B(state, v):
    mu_B, gain = analytic._regression(state, v)
    at_half_pi = np.array_equal(v[:2], states.Quadrature(verify.PI / 2).vector)
    return (math.nan if at_half_pi else mu_B), gain


def apply_to_points_nan_at_one_point(smap, pts):
    evolved = np.array(dynamics.apply_to_points(smap, pts))
    evolved[3, 5] = math.nan
    return evolved


@pytest.mark.parametrize(
    "name, replacement, suite",
    [
        ("postselected_means_gaussian", closed_form_without_mu_P, "run_oracle_equivalence"),
        ("first_order_shifts", perturbed_first_order_shifts, "run_weak_coupling_order"),
        ("coupling_map", coupling_map_moving_P, "run_repeatability"),
        ("coupling_map", coupling_map_with_shear, "run_repeatability"),
        ("postselected_means_gaussian", closed_form_nan_at_one_tuple, "run_oracle_equivalence"),
        ("first_order_shifts", first_order_shifts_nan_at_one_g, "run_weak_coupling_order"),
        ("apply_to_points", apply_to_points_nan_at_one_point, "run_repeatability"),
        ("_regression", regression_with_scaled_gain, "run_oracle_equivalence"),
        ("_regression", regression_nan_at_one_theta_B, "run_oracle_equivalence"),
    ],
)
def test_wrong_ingredient_fails_its_suite(monkeypatch, capsys, name, replacement, suite):
    monkeypatch.setattr(verify, name, replacement)
    result = getattr(verify, suite)()
    assert not result.passed
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] {result.name}:" in out
    assert "VERIFY FAIL" in out


def test_oracle_suite_equals_its_per_tuple_reference():
    # conditioning every one of the 1944 tuples afresh gives the suite's
    # maximum deviation to the bit
    mu_q, mu_p = verify.PARTICLE_MEAN
    closed, oracle = [], []
    for (sigma, delta_Q), omega, mu_P in itertools.product(
        verify.SPREADS, verify.OMEGAS, verify.DEVICE_MEAN_MOMENTA
    ):
        joint = states.tensor(
            states.make_particle(mu_q, mu_p, sigma), states.make_pure_device(delta_Q, mu_P, omega)
        )
        for g, theta_A, theta_B, b in itertools.product(
            verify.COUPLINGS, verify.THETA_AS, verify.THETA_BS, verify.POSTSELECTIONS
        ):
            theta_A, theta_B = states.Quadrature(theta_A), states.Quadrature(theta_B)
            evolved = dynamics.apply_to_state(dynamics.coupling_map(g, theta_A), joint)
            closed.append(
                analytic.postselected_means_gaussian(
                    mu_q, mu_p, sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P=mu_P
                )
            )
            oracle.append(analytic.oracle_postselected_means(evolved, theta_A, theta_B, b)[:2])
    x, y = np.array(closed), np.array(oracle)
    dev = np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    result = verify.run_oracle_equivalence()
    assert result.n_checks == len(closed) == 1944
    assert result.max_deviation == float(np.max(dev))
    assert result.passed
