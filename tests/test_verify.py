"""Negative controls for the verify suites: each suite fails when one of its
ingredients is wrong, or returns NaN at a single check, and `erlweak verify`
then reports the failure. The oracle suite, which runs each route as one
array pass over its grid and reads every b off one regression per (evolved
state, theta_B), equals its per-tuple reference bit for bit, and so does
each of its two array passes. The repeatability suite, which checks all 256
maps in one symplectic call and each angle's images in reused buffers,
equals its per-angle reference bit for bit, and one wrong map among the 256
fails it."""

import itertools
import math
import warnings

import numpy as np
import pytest

from erlweak import SymplecticMap, analytic, bounds, dynamics, states, verify
from erlweak.cli import main


def closed_form_without_mu_P(mu_q, mu_p, on_B, omega, g, b, mu_P, *factors):
    return analytic._postselected_means(mu_q, mu_p, on_B, omega, g, b, 0.0 * mu_P, *factors)


def perturbed_first_order_shifts(weak_value, g, delta_P, omega):
    q_shift, p_shift = analytic.first_order_shifts(weak_value, g, delta_P, omega)
    return q_shift + 0.1 * g**2, p_shift + 0.1 * g**2


def coupling_map_moving_P(g, theta_A):
    shear = np.eye(4)
    shear[3, 2] = 0.5  # P' = P + Q / 2: symplectic, leaves A alone
    return SymplecticMap(dynamics.coupling_map(g, theta_A).matrix @ shear)


def sheared_q(m):
    shear = np.eye(4)
    shear[0, 1] = 1e-9  # q' = q + 1e-9 p: symplectic, moves A
    return shear @ m


def coupling_map_with_shear(g, theta_A):
    return SymplecticMap(sheared_q(dynamics.coupling_map(g, theta_A).matrix))


def closed_form_nan_at_one_tuple(mu_q, mu_p, on_B, omega, g, b, mu_P, angles, delta_P):
    mean_Q, mean_P = analytic._postselected_means(mu_q, mu_p, on_B, omega, g, b, mu_P, angles, delta_P)
    ca, sa, cb, sb, sd = angles  # theta_A = 0 and theta_B = pi / 2 below
    at_spread = delta_P == analytic._conjugate_spread(2.0, 1.0)  # sigma = delta_Q = 2, |omega| = 1
    at = at_spread & (omega == 1.0) & (g == 0.5) & (sa == 0.0) & (sb == 1.0) & (b == 0.0)
    return np.where(at & (mu_P == 0.6), math.nan, mean_Q), mean_P


def first_order_shifts_nan_at_one_g(weak_value, g, delta_P, omega):
    q_shift, p_shift = analytic.first_order_shifts(weak_value, g, delta_P, omega)
    return q_shift, math.nan if g == 0.05 else p_shift


def regression_with_scaled_gain(mean, cov, v):
    mu_B, var_B, gain = analytic._regression(mean, cov, v)
    return mu_B, var_B, gain * (1.0 + 1e-6)


def regression_nan_at_one_theta_B(mean, cov, v):
    mu_B, var_B, gain = analytic._regression(mean, cov, v)
    at_half_pi = np.all(v[..., :2] == states.Quadrature(verify.PI / 2).vector, axis=-1)
    return np.where(at_half_pi, math.nan, mu_B), var_B, gain


def evolved_points_nan_at_one_point(quad, pts, evolved, work):
    evolved = np.array(evolved)
    evolved[..., 3, 5] = math.nan
    return dynamics._invariance_deviation(quad, pts, evolved, work)


@pytest.mark.parametrize(
    "name, replacement, suite",
    [
        ("_postselected_means", closed_form_without_mu_P, "run_oracle_equivalence"),
        ("first_order_shifts", perturbed_first_order_shifts, "run_weak_coupling_order"),
        ("coupling_map", coupling_map_moving_P, "run_repeatability"),
        ("coupling_map", coupling_map_with_shear, "run_repeatability"),
        ("_postselected_means", closed_form_nan_at_one_tuple, "run_oracle_equivalence"),
        ("first_order_shifts", first_order_shifts_nan_at_one_g, "run_weak_coupling_order"),
        ("_invariance_deviation", evolved_points_nan_at_one_point, "run_repeatability"),
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


def _one_map_replaced(wrong):
    """A `coupling_map` whose map at MAP_COUPLINGS[5], MAP_ANGLES[9], an
    interior point of the grid, is `wrong` of the right one."""

    def replacement(g, theta_A):
        smap = dynamics.coupling_map(g, theta_A)
        if g == verify.MAP_COUPLINGS[5] and theta_A.theta == verify.MAP_ANGLES[9]:
            return SymplecticMap._derived(wrong(smap.matrix))
        return smap

    return replacement


def scaled_Q(m):
    m = m.copy()
    m[2, 2] = 1.0 + 1e-6  # Q' = (1 + 1e-6) Q + ...: det M != 1, A and P unchanged
    return m


def _repeatability_deviations(maps_by_angle):
    """The per-angle reference of the repeatability suite: for each angle,
    the symplectic deviation of its maps and the invariance deviation of
    their images of the lattice, on freshly allocated arrays."""
    pts = np.array(list(itertools.product(verify.LATTICE, repeat=4))).T
    symplectic, invariance = [], []
    for theta, matrices in zip(verify.MAP_ANGLES, maps_by_angle):
        evolved = matrices @ pts
        work = np.empty((5, *evolved[..., 0, :].shape))
        symplectic.append(dynamics._symplectic_deviation(matrices))
        invariance.append(dynamics._invariance_deviation(states.Quadrature(theta), pts, evolved, work))
    return max(symplectic), max(invariance)


def _grid_maps(coupling_map):
    return np.array(
        [
            [coupling_map(g, states.Quadrature(theta)).matrix for g in verify.MAP_COUPLINGS]
            for theta in verify.MAP_ANGLES
        ]
    )


def test_repeatability_suite_equals_its_per_angle_reference():
    # the stacked symplectic call and the reused buffers give the maximum of
    # the parent's per-angle loop to the bit
    result = verify.run_repeatability()
    assert result.n_checks == len(verify.MAP_ANGLES) * len(verify.MAP_COUPLINGS) * 626 == 160_256
    assert result.max_deviation == max(_repeatability_deviations(_grid_maps(dynamics.coupling_map)))
    assert 0.0 < result.max_deviation <= result.tolerance


@pytest.mark.parametrize(
    "wrong, check, other_check",
    [(scaled_Q, 0, "_invariance_deviation"), (sheared_q, 1, "_symplectic_deviation")],
)
def test_one_wrong_map_among_256_fails_the_stacked_suite(monkeypatch, capsys, wrong, check, other_check):
    # with the other check reading 0, the suite still fails, at the per-angle
    # reference's deviation of the check meant to catch the wrong map: the
    # stack keeps every map at its place
    replacement = _one_map_replaced(wrong)
    deviation = _repeatability_deviations(_grid_maps(replacement))[check]
    assert deviation > verify.SYMPLECTIC_TOL
    monkeypatch.setattr(verify, "coupling_map", replacement)
    assert main(["verify"]) == 1
    assert "[FAIL] repeatability-symplecticity:" in capsys.readouterr().out
    monkeypatch.setattr(verify, other_check, lambda *args: 0.0)
    result = verify.run_repeatability()
    assert result.max_deviation == deviation
    assert not result.passed


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


def _per_tuple_grid():
    """The oracle grid's tuples as the scalar routes see them: the closed form
    per tuple, and per (joint, map, theta_B) one evolved state and its
    regression read at every b."""
    mu_q, mu_p = verify.PARTICLE_MEAN
    bs = np.array(verify.POSTSELECTIONS)
    closed, conditional = [], []
    for (sigma, delta_Q), omega, mu_P in itertools.product(
        verify.SPREADS, verify.OMEGAS, verify.DEVICE_MEAN_MOMENTA
    ):
        joint = states.tensor(
            states.make_particle(mu_q, mu_p, sigma), states.make_pure_device(delta_Q, mu_P, omega)
        )
        for g, theta_A in itertools.product(verify.COUPLINGS, verify.THETA_AS):
            theta_A = states.Quadrature(theta_A)
            evolved = dynamics.apply_to_state(dynamics.coupling_map(g, theta_A), joint)
            for theta_B in map(states.Quadrature, verify.THETA_BS):
                v = states.quadrature_vector(2, 0, theta_B)
                mu_B, _, gain = analytic._regression(evolved.mean, evolved.cov, v)
                conditional.append(evolved.mean + np.multiply.outer(bs - mu_B, gain))
                closed += [
                    analytic.postselected_means_gaussian(
                        mu_q, mu_p, sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P=mu_P
                    )
                    for b in bs.tolist()
                ]
    return np.array(closed), np.concatenate(conditional)


def test_array_passes_equal_the_scalar_routes_bit_for_bit():
    # the closed form on broadcast arrays equals its 1944 scalar calls, and
    # the stacked evolution and regressions equal apply_to_state and
    # _regression state by state, on all 1944 x 4 conditional means; the
    # theta_A = theta_B = pi/8 tuples, whose bound is inf, warn nothing
    closed, conditional = _per_tuple_grid()
    eighth = states.Quadrature(verify.PI / 8)
    assert math.isinf(bounds.gaussian_regime_margin(1.0, 1.0, 1.0, eighth, eighth).rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid_closed, grid_conditional = verify._grid_closed_forms(), verify._grid_conditional_means()
    assert closed.shape == (1944, 2) and conditional.shape == (1944, 4)
    assert np.array_equal(grid_closed, closed)
    assert np.array_equal(grid_conditional, conditional)


def test_stacked_regression_rejects_a_non_positive_variance_anywhere_in_the_stack():
    mean, cov = np.zeros((3, 4)), np.array([np.eye(4)] * 3)
    v = states.quadrature_vector(2, 0, states.Quadrature(0.0))
    analytic._regression(mean, cov, v)
    cov[1, 0, 0] = 0.0  # Var(q) = 0 in the middle state only
    with pytest.raises(analytic.SingularConditioningError):
        analytic._regression(mean, cov, v)
    cov[1, 0, 0] = -1e-300
    with pytest.raises(analytic.SingularConditioningError):
        analytic._regression(mean, cov, v)
