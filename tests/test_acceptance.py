"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import cmath
import contextlib
import itertools
import math

import pytest

import erlweak as ew
from erlweak import Quadrature, verify

HALF_PI = math.pi / 2
PI = math.pi


@contextlib.contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def check(result, n_checks):
    assert result.passed, result
    assert result.n_checks == n_checks


def test_criterion_1_oracle_equivalence():
    with report(1, "oracle equivalence, 1944 tuples, mu_P in {0, 0.6}"):
        check(verify.run_oracle_equivalence(), 1944)


def test_criterion_2_weak_coupling_order():
    with report(2, "weak-coupling residual order >= 2.5"):
        check(verify.run_weak_coupling_order(), 9)


def test_criterion_3_delta_p_limit():
    with report(3, "delta_P -> 0 limit"):
        check(verify.run_delta_p_limit(), 10)


def test_criterion_4_conditional_expectation():
    mu_q, mu_p, sigma, g = 0.4, -0.2, 1.0, 0.05
    delta_P = 0.025
    delta_Q = 1.0 / (2.0 * delta_P)
    tuples = list(
        itertools.product((0.0, 0.6, 1.2, 1.8, 2.4), (0.5, 1.0), (0.6, 1.2))
    )
    assert len(tuples) == 20
    with report(4, "conditional expectation = Re[A_W]"):
        for ta, offset, b in tuples:
            theta_A, theta_B = Quadrature(ta), Quadrature(ta + offset)
            wv = ew.weak_value_gaussian(mu_q, mu_p, sigma, theta_A, theta_B, b)
            joint = ew.tensor(
                ew.make_particle(mu_q, mu_p, sigma),
                ew.make_pure_device(delta_Q, 0.0, 0.0),
            )
            evolved = ew.apply_to_state(ew.coupling_map(g, theta_A), joint)
            result = ew.oracle_postselected_means(evolved, theta_A, theta_B, b)[2]
            assert abs(result - wv.re) <= 1e-3 * abs(wv.re)


MC_CONFIGS = [
    # (mu_q, mu_p, sigma, delta_Q, omega, g, theta_A, theta_B, b)
    (0.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.0, HALF_PI, 1.0),  # Fig.2-style, z-test config
    (0.0, 0.0, 1.0, 1.0, 0.0, 0.1, 0.0, HALF_PI, 1.0),
    (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, HALF_PI, 1.0),
    (0.3, -0.4, 1.0, 1.0, 0.0, 0.3, 0.0, HALF_PI, 0.5),
    (0.3, -0.4, 0.7, 1.5, 0.0, 0.2, 0.4, 1.3, 0.0),
    (0.0, 0.0, 1.0, 0.5, 1.0, 0.3, 0.0, HALF_PI, 1.0),
    (-0.5, 0.2, 1.3, 1.0, -1.0, 0.4, 0.9, 0.9, 0.8),
    (0.0, 0.0, 1.0, 2.0, 0.0, 0.5, HALF_PI, 0.0, 1.0),
    (0.2, 0.2, 1.0, 1.0, 0.5, 0.25, 0.6, 2.1, -0.5),
    (0.0, 0.5, 0.8, 1.2, 0.0, 0.6, 1.1, 2.6, 0.3),
    (1.0, 0.0, 1.0, 1.0, 0.0, 0.15, 0.0, 3 * PI / 4, 0.7),
    (0.0, 0.0, 2.0, 0.8, -0.5, 0.35, 5 * PI / 8, PI / 8, -0.2),
]
MC_CONFIGS_MU_P = [
    # as MC_CONFIGS, then the device mean momentum mu_P
    (0.0, 0.0, 1.0, 1.0, 0.5, 0.3, 0.0, HALF_PI, 1.0, 0.5),
    (0.3, -0.4, 0.7, 1.5, 0.0, 0.2, 0.4, 1.3, 0.0, -0.8),
]


def test_criterion_5_monte_carlo_consistency():
    configs = [(*c, 0.0) for c in MC_CONFIGS] + MC_CONFIGS_MU_P
    with report(5, "Monte Carlo vs oracle vs closed form, 14 configs, 2 with mu_P != 0"):
        z_fig2 = None
        for i, (mu_q, mu_p, sigma, delta_Q, omega, g, ta, tb, b, mu_P) in enumerate(configs):
            config = ew.ExperimentConfig(
                mu_q=mu_q,
                mu_p=mu_p,
                sigma=sigma,
                delta_Q=delta_Q,
                mu_P=mu_P,
                omega=omega,
                g=g,
                theta_A=Quadrature(ta),
                theta_B=Quadrature(tb),
                b=b,
                epsilon=None,
                n_samples=1_000_000,
                seed=1000 + i,
            )
            # run_weak_experiment asserts P' == P and A' == A per point
            est = ew.run_weak_experiment(config)
            oracle = ew.oracle_estimate(config)
            windowed = ew.windowed_oracle(config)
            closed = ew.postselected_means_gaussian(
                mu_q, mu_p, sigma, delta_Q, omega, g, config.theta_A, config.theta_B, b, mu_P=mu_P
            )
            for x, y in zip(closed, oracle):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))
            for mc, se, point, win in zip(
                (est.mean_Q, est.mean_P, est.mean_A),
                (est.se_Q, est.se_P, est.se_A),
                oracle,
                windowed,
            ):
                bias = abs(win - point)
                assert abs(mc - point) <= 3.0 * se + bias
            if i == 0:
                z_fig2 = abs(est.mean_P) / est.se_P
        # postselection bias on device momentum with zero per-point change
        assert z_fig2 > 5.0


def test_criterion_6_repeatability_and_symplecticity():
    with report(6, "repeatability and symplecticity at 1e-12"):
        check(verify.run_repeatability(), 160_256)


def test_criterion_7_strong_measurement_limit():
    config = ew.ExperimentConfig(
        mu_q=0.0,
        mu_p=0.0,
        sigma=1.0,
        delta_Q=1.0,
        mu_P=0.0,
        omega=0.0,
        g=1.0,
        theta_A=Quadrature(0.0),
        theta_B=Quadrature(HALF_PI),
        b=0.0,
        epsilon=None,
        n_samples=100_000,
        seed=5,
    )
    sequence = [10.0, 1.0, 0.1, 0.01, 0.001]
    with report(7, "strong-measurement correlation limit"):
        correlations = ew.strong_measurement_correlation(sequence, config)
        assert correlations[-1] > 0.999
        fisher_se = 3.0 / math.sqrt(config.n_samples - 3)
        for r, delta_Q in zip(correlations, sequence):
            rho = ew.exact_strong_correlation(delta_Q, config)
            assert abs(math.atanh(r) - math.atanh(rho)) <= fisher_se


def test_criterion_8_regime_bounds():
    with report(8, "regime bounds"):
        checked = 0
        for ta, tb, sigma, delta_Q, g in itertools.product(
            (0.0, PI / 6, PI / 4),
            (PI / 3, HALF_PI, 2 * PI / 3),
            (0.7, 1.0, 1.5),
            (0.5, 1.0, 2.0),
            (0.01, 0.05, 0.1, 0.3, 0.7),
        ):
            delta_P = 1.0 / (2.0 * delta_Q)
            theta_A, theta_B = Quadrature(ta), Quadrature(tb)
            margin = ew.gaussian_regime_margin(g, delta_P, sigma, theta_A, theta_B)
            if margin.classification not in ("deep_weak", "weak"):
                continue
            exact = ew.postselected_means_gaussian(
                0.4, 0.2, sigma, delta_Q, 0.0, g, theta_A, theta_B, 0.8
            )
            wv = ew.weak_value_gaussian(0.4, 0.2, sigma, theta_A, theta_B, 0.8)
            fo = ew.first_order_shifts(wv, g, delta_P, 0.0)
            # the relative measure is only meaningful when the component is an
            # appreciable fraction of the overall shift scale g*|A_W|
            scale = g * max(1.0, abs(complex(wv.re, wv.im)))
            for e, f in zip(exact, fo):
                if abs(f) < 0.2 * scale:
                    continue
                checked += 1
                assert abs(e - f) / abs(f) <= 0.10
        assert checked > 200

        # discrete bound on hand-computed examples
        margin = ew.discrete_regime_margin(0.1, 1.0, [1.0, -1.0])
        assert margin.lhs == pytest.approx(0.01, abs=1e-15)
        assert margin.rhs == pytest.approx(0.25, abs=1e-15)
        assert margin.ratio == pytest.approx(0.04, abs=1e-15)
        assert ew.discrete_regime_margin(0.1, 1.0, [0.0, 10.0]).rhs == pytest.approx(
            0.01, abs=1e-15
        )
        assert math.isinf(ew.discrete_regime_margin(0.1, 1.0, [3.0]).rhs)


def test_criterion_9_discrete_kernel():
    with report(9, "discrete-kernel checks"):
        r = 1.0 / math.sqrt(2.0)
        inp = ew.DiscreteSpectrumInput(
            (r, r), (math.cos(PI / 8), 1j * math.sin(PI / 8)), (1.0, -1.0)
        )
        wv = ew.weak_value_discrete(inp)
        expected = cmath.exp(-1j * PI / 4)
        assert abs(wv.re - expected.real) <= 1e-12
        assert abs(wv.im - expected.imag) <= 1e-12

        inp = ew.DiscreteSpectrumInput(
            (r, 0.5j, 0.5), (0.8, 0.3 + 0.2j, -0.1j), (1.0, -1.0, 2.0)
        )
        wv = ew.weak_value_discrete(inp)
        delta_P, omega = 0.7, 0.4
        residuals = []
        for g in (0.2, 0.1, 0.05, 0.025):
            mean_Q, mean_P = ew.postselected_means_discrete(inp, g, delta_P, 0.0, omega)
            fo_Q, fo_P = ew.first_order_shifts(wv, g, delta_P, omega)
            residuals.append(max(abs(mean_Q - fo_Q), abs(mean_P - fo_P)))
        orders = [math.log2(r1 / r2) for r1, r2 in zip(residuals, residuals[1:])]
        assert min(orders) >= 2.5
