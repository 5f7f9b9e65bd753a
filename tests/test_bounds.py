import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from erlweak import Quadrature, discrete_regime_margin, gaussian_regime_margin

HALF_PI = math.pi / 2


class TestGaussianMargin:
    def test_commuting_quadratures_vacuous(self):
        margin = gaussian_regime_margin(5.0, 2.0, 1.0, Quadrature(0.7), Quadrature(0.7))
        assert math.isinf(margin.rhs)
        assert margin.ratio == 0.0
        assert margin.classification == "deep_weak"

    def test_position_momentum_bound(self):
        margin = gaussian_regime_margin(0.1, 0.5, 1.0, Quadrature(0.0), Quadrature(HALF_PI))
        assert margin.rhs == pytest.approx(0.25)
        assert margin.lhs == pytest.approx(0.0025)
        assert margin.ratio == pytest.approx(0.01)
        assert margin.classification == "weak"  # ratio sits exactly on the 0.01 threshold

    def test_zero_coupling(self):
        margin = gaussian_regime_margin(0.0, 0.5, 1.0, Quadrature(0.0), Quadrature(HALF_PI))
        assert margin.lhs == 0.0
        assert margin.ratio == 0.0
        assert margin.classification == "deep_weak"

    @pytest.mark.parametrize(
        "sigma, theta_A, theta_B",
        [(1e-200, 0.0, HALF_PI), (1.0, 0.0, 1e-200), (1e-150, 0.3, 0.3 + 1e-16)],
    )
    def test_underflowed_denominator_is_vacuous(self, sigma, theta_A, theta_B):
        # 4 sigma^2 sin^2(theta_A - theta_B) underflows to 0: the ratio is 0 to
        # double precision (about 1e-402 for sigma = 1e-200), not a division by 0
        margin = gaussian_regime_margin(0.1, 0.5, sigma, Quadrature(theta_A), Quadrature(theta_B))
        assert math.isinf(margin.rhs)
        assert margin.ratio == 0.0
        assert margin.classification == "deep_weak"

    @pytest.mark.parametrize(
        "ratio_target,expected",
        [(0.005, "deep_weak"), (0.05, "weak"), (0.5, "marginal"), (2.0, "strong")],
    )
    def test_classification_thresholds(self, ratio_target, expected):
        rhs = 0.25  # sigma=1, theta_A=0, theta_B=pi/2
        g = math.sqrt(ratio_target * rhs) / 0.5
        margin = gaussian_regime_margin(g, 0.5, 1.0, Quadrature(0.0), Quadrature(HALF_PI))
        assert margin.ratio == pytest.approx(ratio_target)
        assert margin.classification == expected

    @given(st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(1.01, 3.0))
    def test_monotone_in_g_and_delta_p(self, g, delta_P, factor):
        qa, qb = Quadrature(0.2), Quadrature(1.4)
        base = gaussian_regime_margin(g, delta_P, 1.0, qa, qb)
        more_g = gaussian_regime_margin(g * factor, delta_P, 1.0, qa, qb)
        more_dp = gaussian_regime_margin(g, delta_P * factor, 1.0, qa, qb)
        assert more_g.ratio > base.ratio
        assert more_dp.ratio > base.ratio


class TestDiscreteMargin:
    def test_two_level_example(self):
        margin = discrete_regime_margin(0.1, 1.0, [1.0, -1.0])
        assert margin.lhs == pytest.approx(0.01)
        assert margin.rhs == pytest.approx(0.25)
        assert margin.ratio == pytest.approx(0.04)
        assert margin.classification == "weak"

    def test_single_eigenvalue_vacuous(self):
        margin = discrete_regime_margin(1.0, 1.0, [2.0])
        assert math.isinf(margin.rhs)
        assert margin.classification == "deep_weak"

    def test_wide_spectrum_is_restrictive(self):
        margin = discrete_regime_margin(0.1, 1.0, [0.0, 10.0])
        assert margin.rhs == pytest.approx(0.01)
        assert margin.ratio == pytest.approx(1.0)
        assert margin.classification == "strong"

    def test_gap_whose_square_underflows(self):
        # max_gap**2 underflowed to 0 while max_gap was not 0: a division by 0
        margin = discrete_regime_margin(0.1, 1.0, [0.0, 1e-170])
        assert math.isinf(margin.rhs)  # 1e340, beyond float range
        assert margin.ratio == 0.0  # 1e-342, below it
        assert margin.classification == "deep_weak"

    def test_gap_whose_square_overflows(self):
        # max_gap**2 raised OverflowError
        margin = discrete_regime_margin(0.1, 1.0, [0.0, 1e160])
        assert margin.rhs == pytest.approx(1e-320, rel=1e-3)  # subnormal
        assert math.isinf(margin.ratio)  # 1e318, beyond float range
        assert margin.classification == "strong"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            discrete_regime_margin(0.1, 1.0, [])
