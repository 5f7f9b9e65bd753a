import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlweak import (
    DegeneratePostselectionError,
    DiscreteSpectrumInput,
    Quadrature,
    SingularConditioningError,
    WeakValue,
    apply_to_state,
    coupling_map,
    first_order_shifts,
    gaussian_condition,
    gaussian_regime_margin,
    make_particle,
    make_pure_device,
    oracle_postselected_means,
    postselected_means_discrete,
    postselected_means_gaussian,
    quadrature_moments,
    tensor,
    weak_value_discrete,
    weak_value_gaussian,
)

HALF_PI = math.pi / 2

angles = st.floats(0.0, 2.0 * math.pi)
reals = st.floats(-3.0, 3.0)
sigmas = st.floats(0.3, 3.0)


class TestWeakValueGaussian:
    def test_postselecting_measured_quadrature_returns_b(self):
        wv = weak_value_gaussian(0.7, -0.4, 1.3, Quadrature(0.9), Quadrature(0.9), 2.0)
        assert wv.re == pytest.approx(2.0, abs=1e-12)
        assert wv.im == pytest.approx(0.0, abs=1e-12)

    def test_imaginary_part_vanishes_at_quadrature_mean(self):
        mu_q, mu_p = 0.6, -0.8
        theta_B = Quadrature(1.1)
        b = mu_q * math.cos(theta_B.theta) + mu_p * math.sin(theta_B.theta)
        wv = weak_value_gaussian(mu_q, mu_p, 0.9, Quadrature(0.2), theta_B, b)
        assert wv.im == pytest.approx(0.0, abs=1e-12)

    def test_position_weak_value_with_momentum_postselection(self):
        wv = weak_value_gaussian(0.0, 0.0, 1.0, Quadrature(0.0), Quadrature(HALF_PI), 1.0)
        assert wv.re == pytest.approx(0.0, abs=1e-12)
        assert wv.im == pytest.approx(-2.0, abs=1e-12)

    @given(angles, angles, sigmas, reals, reals, reals, reals)
    @settings(max_examples=100)
    def test_exactly_linear_in_means_and_b(self, ta, tb, sigma, mu_q, mu_p, b, step):
        # f(x - h) + f(x + h) == 2 f(x) for a function linear in x
        qa, qb = Quadrature(ta), Quadrature(tb)

        def check(f):
            lo, mid, hi = f(-step), f(0.0), f(step)
            for attr in ("re", "im"):
                val = getattr(mid, attr)
                assert getattr(lo, attr) + getattr(hi, attr) == pytest.approx(
                    2.0 * val, abs=1e-9 * max(1.0, abs(val))
                )

        check(lambda h: weak_value_gaussian(mu_q + h, mu_p, sigma, qa, qb, b))
        check(lambda h: weak_value_gaussian(mu_q, mu_p + h, sigma, qa, qb, b))
        check(lambda h: weak_value_gaussian(mu_q, mu_p, sigma, qa, qb, b + h))

    def test_matches_discretized_wavefunction(self):
        # brute-force route: discretize the position wavefunction on a grid,
        # use momentum-eigenstate overlaps, and form the discrete weak value
        mu_q, mu_p, sigma, b = 0.4, -0.3, 1.2, 0.6
        grid = np.linspace(mu_q - 10 * sigma, mu_q + 10 * sigma, 4001)
        amps = np.exp(-((grid - mu_q) ** 2) / (4 * sigma**2) + 1j * mu_p * grid)
        overlaps = np.exp(-1j * b * grid)
        w = (amps * overlaps * grid).sum() / (amps * overlaps).sum()
        wv = weak_value_gaussian(mu_q, mu_p, sigma, Quadrature(0.0), Quadrature(HALF_PI), b)
        assert w.real == pytest.approx(wv.re, abs=1e-8)
        assert w.imag == pytest.approx(wv.im, abs=1e-8)


def double_sum_weak_value(inp):
    # independent oracle: the symmetric/antisymmetric pair-sum forms
    d = np.array(inp.amplitudes) * np.array(inp.overlaps)
    c = np.outer(d, d.conj())
    a = np.array(inp.eigenvalues)
    den = c.sum()
    re = (c * 0.5 * (a[:, None] + a[None, :])).sum() / den
    im = (c * (a[:, None] - a[None, :]) / 2j).sum() / den
    return complex(re), complex(im)


class TestWeakValueDiscrete:
    def test_eigenstate_returns_eigenvalue(self):
        inp = DiscreteSpectrumInput((1.0, 0.0), (0.5, 0.9), (3.0, -2.0))
        wv = weak_value_discrete(inp)
        assert wv.re == pytest.approx(3.0)
        assert wv.im == pytest.approx(0.0, abs=1e-15)

    def test_real_overlap_example(self):
        r = 1.0 / math.sqrt(2.0)
        inp = DiscreteSpectrumInput(
            (r, r), (math.cos(math.pi / 8), math.sin(math.pi / 8)), (1.0, -1.0)
        )
        wv = weak_value_discrete(inp)
        assert wv.re == pytest.approx(math.tan(math.pi / 8), abs=1e-12)
        assert wv.im == pytest.approx(0.0, abs=1e-12)

    def test_complex_overlap_example(self):
        r = 1.0 / math.sqrt(2.0)
        inp = DiscreteSpectrumInput(
            (r, r), (math.cos(math.pi / 8), 1j * math.sin(math.pi / 8)), (1.0, -1.0)
        )
        wv = weak_value_discrete(inp)
        expected = cmath.exp(-1j * math.pi / 4)
        assert wv.re == pytest.approx(expected.real, abs=1e-12)
        assert wv.im == pytest.approx(expected.imag, abs=1e-12)

    def test_matches_pair_sum_forms(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(1, 6)
            amps = tuple(rng.normal(size=n) + 1j * rng.normal(size=n))
            ovl = tuple(rng.normal(size=n) + 1j * rng.normal(size=n))
            eig = tuple(rng.normal(size=n))
            inp = DiscreteSpectrumInput(amps, ovl, eig)
            wv = weak_value_discrete(inp)
            re, im = double_sum_weak_value(inp)
            assert wv.re == pytest.approx(re.real, abs=1e-9 * max(1, abs(re.real)))
            assert wv.im == pytest.approx(im.real, abs=1e-9 * max(1, abs(im.real)))

    def test_degenerate_postselection_rejected(self):
        with pytest.raises(DegeneratePostselectionError):
            DiscreteSpectrumInput((1.0, -1.0), (0.5, 0.5), (1.0, -1.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSpectrumInput((1.0,), (0.5, 0.5), (1.0, -1.0))


class TestPostselectedMeansDiscrete:
    INPUT = DiscreteSpectrumInput(
        (1.0 / math.sqrt(2.0), 0.5j, 0.5), (0.8, 0.3 + 0.2j, -0.1j), (1.0, -1.0, 2.0)
    )

    def test_zero_coupling(self):
        assert postselected_means_discrete(self.INPUT, 0.0, 0.7, 0.0, 0.4) == (0.0, 0.0)

    def test_single_eigenstate_pointer_shift(self):
        inp = DiscreteSpectrumInput((1.0,), (0.6,), (1.7,))
        mean_Q, mean_P = postselected_means_discrete(inp, 0.3, 0.5, 0.2, 0.1)
        assert mean_Q == pytest.approx(0.3 * 1.7, abs=1e-14)
        # one eigenstate: the coupling shifts Q only, so P keeps its mean mu_P
        assert mean_P == pytest.approx(0.2, abs=1e-14)

    def test_small_g_converges_to_first_order_shifts(self):
        delta_P, omega = 0.7, 0.4
        wv = weak_value_discrete(self.INPUT)
        residuals = []
        for g in (0.2, 0.1, 0.05, 0.025):
            mean_Q, mean_P = postselected_means_discrete(self.INPUT, g, delta_P, 0.0, omega)
            fo_Q, fo_P = first_order_shifts(wv, g, delta_P, omega)
            residuals.append(max(abs(mean_Q - fo_Q), abs(mean_P - fo_P)))
        orders = [math.log2(r1 / r2) for r1, r2 in zip(residuals, residuals[1:])]
        assert min(orders) > 2.5

    def test_nonpositive_delta_P_is_rejected(self):
        with pytest.raises(ValueError, match="^delta_P must be positive$"):
            postselected_means_discrete(self.INPUT, 0.1, 0.0, 0.0, 0.4)

    def test_probability_that_underflows_is_degenerate(self):
        # the amplitude sum d = 1e-170 is nonzero, so the input is accepted,
        # but the pair weight |d|^2 = 1e-340 underflows to 0
        inp = DiscreteSpectrumInput((1e-170,), (1.0,), (0.0,))
        with pytest.raises(DegeneratePostselectionError, match="^postselection probability is zero$"):
            postselected_means_discrete(inp, 0.1, 0.7, 0.0, 0.4)


def quantum_pointer_means(mu_q, mu_p, sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P):
    # the quantum route: rotate phase space by -theta_A so that A = q, put the
    # particle's Gaussian wavefunction on a position grid (rotated mean (m, m_p),
    # variance V, covariance C), and postselect with the overlaps <b|x> of the
    # quadrature at phi = theta_B - theta_A
    c, s = math.cos(theta_A), math.sin(theta_A)
    rot = np.array([[c, s], [-s, c]])
    m, m_p = rot @ [mu_q, mu_p]
    cov = rot @ np.diag([sigma**2, 1.0 / (4.0 * sigma**2)]) @ rot.T
    V, C = cov[0, 0], cov[0, 1]
    x = np.linspace(m - 10.0 * math.sqrt(V), m + 10.0 * math.sqrt(V), 1201)
    psi = np.exp(-((x - m) ** 2) / (4.0 * V) + 1j * C * (x - m) ** 2 / (2.0 * V) + 1j * m_p * x)
    phi = theta_B - theta_A
    overlaps = np.exp(1j * (x**2 / (2.0 * math.tan(phi)) - b * x / math.sin(phi)))
    delta_P = math.sqrt(1.0 + omega**2) / (2.0 * delta_Q)
    inp = DiscreteSpectrumInput(psi, overlaps, x)
    return postselected_means_discrete(inp, g, delta_P, mu_P, omega)


class TestQuantumGrid:
    # (sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P): g = 2 is deep in
    # the strong regime, where the means are far from the first-order shifts
    CASES = [
        (0.7, 0.8, 0.9, 2.0, 0.5, 1.2, 0.9, 0.4),
        (1.3, 1.5, 0.9, 2.0, 2.2, 2.0, -0.7, -1.1),
        (1.3, 0.8, 0.4, 2.0, 0.5, 2.0, -0.7, 0.4),
        (0.7, 1.5, 0.9, 2.0, 2.2, 1.2, 0.9, -1.1),
        (1.3, 0.8, 0.9, 0.5, 2.2, 1.2, -0.7, 0.4),
        (0.7, 1.5, 0.4, 0.5, 0.5, 2.0, 0.9, -1.1),
        (0.7, 0.8, 0.9, 0.05, 0.5, 2.0, -0.7, -1.1),
        (1.3, 1.5, 0.9, 2.0, 0.5, 1.2, 0.9, 0.0),
    ]

    @pytest.mark.parametrize("sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P", CASES)
    def test_discrete_route_matches_closed_form(self, sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P):
        got = quantum_pointer_means(0.3, -0.4, sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P)
        want = postselected_means_gaussian(
            0.3, -0.4, sigma, delta_Q, omega, g, Quadrature(theta_A), Quadrature(theta_B), b, mu_P
        )
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y))


class TestFirstOrderShifts:
    def test_real_weak_value(self):
        assert first_order_shifts(WeakValue(1.5, 0.0), 0.2, 0.5, 0.7) == (
            pytest.approx(0.3),
            pytest.approx(0.0),
        )

    def test_momentum_postselection_example(self):
        q, p = first_order_shifts(WeakValue(0.0, -2.0), 0.1, 0.5, 0.0)
        assert q == pytest.approx(0.0)
        assert p == pytest.approx(-0.1)

    def test_with_device_covariance(self):
        q, p = first_order_shifts(WeakValue(1.0, 1.0), 0.01, 1.0, 1.0)
        assert q == pytest.approx(0.02)
        assert p == pytest.approx(0.02)


def evolved_joint(mu_q, mu_p, sigma, delta_Q, omega, g, theta_A, mu_P=0.0):
    joint = tensor(make_particle(mu_q, mu_p, sigma), make_pure_device(delta_Q, mu_P, omega))
    return apply_to_state(coupling_map(g, theta_A), joint)


class TestPostselectedMeansGaussian:
    def test_zero_coupling(self):
        mean_Q, mean_P = postselected_means_gaussian(
            0.5, -0.5, 1.0, 1.0, 0.3, 0.0, Quadrature(0.2), Quadrature(1.0), 0.7
        )
        assert mean_Q == 0.0
        assert mean_P == 0.0

    def test_no_momentum_bias_without_noncommuting_postselection(self):
        for b in (-2.0, 0.0, 1.5):
            _, mean_P = postselected_means_gaussian(
                0.4, 0.1, 0.8, 1.2, 0.5, 0.9, Quadrature(0.6), Quadrature(0.6), b
            )
            assert mean_P == pytest.approx(0.0, abs=1e-15)

    def test_matches_conditioning_oracle_example(self):
        theta_A, theta_B = Quadrature(0.0), Quadrature(HALF_PI)
        closed = postselected_means_gaussian(
            0.0, 0.0, 1.0, 1.0, 0.0, 0.1, theta_A, theta_B, 1.0
        )
        evolved = evolved_joint(0.0, 0.0, 1.0, 1.0, 0.0, 0.1, theta_A)
        oracle = oracle_postselected_means(evolved, theta_A, theta_B, 1.0)
        assert closed[0] == pytest.approx(oracle[0], abs=1e-10)
        assert closed[1] == pytest.approx(oracle[1], abs=1e-10)
        assert closed[1] == pytest.approx(-0.1 / 1.01, abs=1e-12)

    @given(reals, reals, sigmas, st.floats(0.3, 3.0), st.floats(-2.0, 2.0),
           st.floats(-1.5, 1.5), angles, angles, reals, reals)
    @settings(max_examples=150, deadline=None)
    def test_matches_conditioning_oracle_everywhere(
        self, mu_q, mu_p, sigma, delta_Q, omega, g, ta, tb, b, mu_P
    ):
        theta_A, theta_B = Quadrature(ta), Quadrature(tb)
        closed = postselected_means_gaussian(
            mu_q, mu_p, sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P=mu_P
        )
        evolved = evolved_joint(mu_q, mu_p, sigma, delta_Q, omega, g, theta_A, mu_P)
        oracle = oracle_postselected_means(evolved, theta_A, theta_B, b)
        for x, y in zip(closed, oracle):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


    @pytest.mark.parametrize("g", [3.0, 10.0, 30.0])
    def test_matches_conditioning_oracle_at_strong_coupling(self, g):
        # the regime ratio r reaches about 1e3 here, far past the |g| <= 1.5
        # of the hypothesis test and the g <= 1 of verify's grid
        ratios = []
        for (sigma, delta_Q), omega, mu_P, ta, tb, b in itertools.product(
            ((1.0, 1.0), (0.7, 1.3), (1.5, 0.6)), (0.0, 0.8), (0.0, 0.6),
            (0.0, 0.4), (HALF_PI, 2.0), (-1.0, 0.5),
        ):
            theta_A, theta_B = Quadrature(ta), Quadrature(tb)
            closed = postselected_means_gaussian(
                0.3, -0.4, sigma, delta_Q, omega, g, theta_A, theta_B, b, mu_P=mu_P
            )
            evolved = evolved_joint(0.3, -0.4, sigma, delta_Q, omega, g, theta_A, mu_P)
            oracle = oracle_postselected_means(evolved, theta_A, theta_B, b)
            for x, y in zip(closed, oracle):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))
            delta_P = math.sqrt(1.0 + omega**2) / (2.0 * delta_Q)
            ratios.append(gaussian_regime_margin(g, delta_P, sigma, theta_A, theta_B).ratio)
        assert min(ratios) >= 1.0  # every config is in the strong class
        assert max(ratios) > 9.0 * g**2

    @pytest.mark.parametrize("g", [0.05, 1.0, 10.0])
    def test_oracle_is_first_order_damped_by_the_regime_ratio(self, g):
        # the exact statement of bounds.py, from routes independent of the
        # closed form: oracle shifts = (q1 + r g mu_A, p1) / (1 + r)
        sigma, delta_Q, omega, mu_P, b = 0.8, 1.3, 0.7, 0.4, 0.9
        theta_A, theta_B = Quadrature(0.3), Quadrature(2.0)
        mu_q, mu_p = 0.3 + g * mu_P * math.sin(0.3), -0.4 - g * mu_P * math.cos(0.3)
        delta_P = math.sqrt(1.0 + omega**2) / (2.0 * delta_Q)
        q1, p1 = first_order_shifts(
            weak_value_gaussian(mu_q, mu_p, sigma, theta_A, theta_B, b), g, delta_P, omega
        )
        r = gaussian_regime_margin(g, delta_P, sigma, theta_A, theta_B).ratio
        evolved = evolved_joint(0.3, -0.4, sigma, delta_Q, omega, g, theta_A, mu_P)
        mean_Q, mean_P, _ = oracle_postselected_means(evolved, theta_A, theta_B, b)
        mu_A = mu_q * math.cos(0.3) + mu_p * math.sin(0.3)
        assert mean_Q == pytest.approx((q1 + r * g * mu_A) / (1.0 + r), rel=1e-12)
        assert mean_P - mu_P == pytest.approx(p1 / (1.0 + r), rel=1e-12)

    def test_vanishing_device_momentum_spread_keeps_the_omega_term(self):
        # delta_P -> 0 at fixed omega (delta_Q -> inf): r -> 0, <P>_b -> mu_P,
        # but the oracle's <Q>_b tends to g Re + g omega Im, not g Re, at any g
        g, omega, mu_P = 0.5, 0.8, 0.0
        theta_A, theta_B = Quadrature(0.3), Quadrature(2.0)
        wv = weak_value_gaussian(0.3, -0.4, 1.0, theta_A, theta_B, 0.9)
        devs = []
        for delta_Q in (1e1, 1e2, 1e3):
            evolved = evolved_joint(0.3, -0.4, 1.0, delta_Q, omega, g, theta_A, mu_P)
            mean_Q, mean_P, _ = oracle_postselected_means(evolved, theta_A, theta_B, 0.9)
            devs.append((abs(mean_Q - g * (wv.re + omega * wv.im)), abs(mean_P - mu_P)))
        assert g * omega * abs(wv.im) > 0.1
        for (q0, p0), (q1, p1) in zip(devs, devs[1:]):  # both shrink as delta_P^2
            assert q1 < q0 / 50.0 and p1 < p0 / 50.0

    def test_strong_coupling_limit(self):
        # r -> inf at fixed A_W gives the unpostselected pointer (g mu_A, mu_P);
        # at mu_P = 0 that is the g -> inf limit, approached as 1/g
        theta_A, theta_B = Quadrature(0.4), Quadrature(HALF_PI)
        mu_A = 0.3 * math.cos(0.4) - 0.4 * math.sin(0.4)
        for g in (1e2, 1e4, 1e6):
            mean_Q, mean_P = postselected_means_gaussian(
                0.3, -0.4, 1.0, 1.0, 0.5, g, theta_A, theta_B, 1.0
            )
            assert 0.0 < abs(mean_Q - g * mu_A) < 1.0 / g
            assert 0.0 < abs(mean_P) < 2.0 / g

    def test_device_mean_momentum(self):
        # g=0.3, omega=0.5, theta_A=0, theta_B=pi/2, b=1, mu_P=0.5
        theta_A, theta_B = Quadrature(0.0), Quadrature(HALF_PI)
        args = (0.0, 0.0, 1.0, 1.0, 0.5, 0.3, theta_A, theta_B, 1.0)
        closed = postselected_means_gaussian(*args, mu_P=0.5)
        evolved = evolved_joint(*args[:7], mu_P=0.5)
        oracle = oracle_postselected_means(evolved, theta_A, theta_B, 1.0)
        assert closed == pytest.approx(oracle[:2], abs=1e-12)
        assert closed == pytest.approx((-0.3101123595505617, 0.1123595505617978), abs=1e-12)
        # the nine positional arguments still mean mu_P = 0
        assert postselected_means_gaussian(*args) == postselected_means_gaussian(*args, mu_P=0.0)
        assert postselected_means_gaussian(*args)[1] == pytest.approx(-0.33707865168539325)


class TestGaussianCondition:
    JOINT = tensor(make_particle(0.5, -0.3, 1.0), make_pure_device(1.5, 0.2, 0.6))

    def test_conditioning_on_the_mean_preserves_mean(self):
        quad = Quadrature(0.8)
        b = float(quad.vector @ self.JOINT.mean[:2])
        conditioned = gaussian_condition(self.JOINT, 0, quad, b)
        np.testing.assert_allclose(conditioned.mean, self.JOINT.mean, atol=1e-13)

    def test_independent_block_untouched(self):
        conditioned = gaussian_condition(self.JOINT, 0, Quadrature(0.8), 2.0)
        device = conditioned.marginal(1)
        np.testing.assert_allclose(device.mean, self.JOINT.marginal(1).mean, atol=1e-13)
        np.testing.assert_allclose(device.cov, self.JOINT.marginal(1).cov, atol=1e-13)

    def test_constraint_variance_becomes_zero(self):
        quad = Quadrature(0.8)
        conditioned = gaussian_condition(self.JOINT, 0, quad, 2.0)
        _, var = quadrature_moments(conditioned, 0, quad)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_singular_direction_rejected(self):
        quad = Quadrature(0.0)
        degenerate = gaussian_condition(self.JOINT, 0, quad, 1.0)
        with pytest.raises(SingularConditioningError):
            gaussian_condition(degenerate, 0, quad, 1.0)

    def test_full_pipeline_equals_closed_form(self):
        theta_A, theta_B = Quadrature(0.0), Quadrature(HALF_PI)
        evolved = evolved_joint(0.2, 0.1, 1.0, 1.0, 0.0, 0.1, theta_A)
        conditioned = gaussian_condition(evolved, 0, theta_B, 1.0)
        closed = postselected_means_gaussian(
            0.2, 0.1, 1.0, 1.0, 0.0, 0.1, theta_A, theta_B, 1.0
        )
        assert float(conditioned.mean[2]) == pytest.approx(closed[0], abs=1e-12)
        assert float(conditioned.mean[3]) == pytest.approx(closed[1], abs=1e-12)


class TestConditionalExpectation:
    def test_conditioning_quadrature_on_itself(self):
        theta = Quadrature(0.4)
        evolved = evolved_joint(0.3, -0.1, 1.1, 1.0, 0.0, 1e-8, theta)
        _, _, mean_A = oracle_postselected_means(evolved, theta, theta, 0.9)
        assert mean_A == pytest.approx(0.9, abs=1e-6)

    def test_zero_innovation_returns_mean_of_A(self):
        theta_A, theta_B = Quadrature(0.4), Quadrature(1.2)
        evolved = evolved_joint(0.3, -0.1, 1.1, 1.0, 0.2, 0.3, theta_A)
        mean_B, _ = quadrature_moments(evolved, 0, theta_B)
        mean_A, _ = quadrature_moments(evolved, 0, theta_A)
        _, _, result = oracle_postselected_means(evolved, theta_A, theta_B, mean_B)
        assert result == pytest.approx(mean_A, abs=1e-12)

    def test_converges_to_real_weak_value_as_delta_p_shrinks(self):
        mu_q, mu_p, sigma, b, g = 0.4, -0.2, 1.0, 0.8, 0.05
        theta_A, theta_B = Quadrature(0.3), Quadrature(1.2)
        wv = weak_value_gaussian(mu_q, mu_p, sigma, theta_A, theta_B, b)
        deviations = []
        for delta_P in (0.2, 0.1, 0.05, 0.025):
            delta_Q = 1.0 / (2.0 * delta_P)
            evolved = evolved_joint(mu_q, mu_p, sigma, delta_Q, 0.0, g, theta_A)
            _, _, result = oracle_postselected_means(evolved, theta_A, theta_B, b)
            deviations.append(abs(result - wv.re))
        assert all(a > b for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] <= 1e-3 * abs(wv.re)
