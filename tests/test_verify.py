"""Negative controls for the verify suites: each suite fails when one of its
ingredients is wrong, or returns NaN at a single check, and `erlweak verify`
then reports the failure."""

import math

import numpy as np
import pytest

from erlweak import SymplecticMap, analytic, dynamics, verify
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
        ("postselected_means_gaussian", closed_form_nan_at_one_tuple, "run_oracle_equivalence"),
        ("first_order_shifts", first_order_shifts_nan_at_one_g, "run_weak_coupling_order"),
        ("apply_to_points", apply_to_points_nan_at_one_point, "run_repeatability"),
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
