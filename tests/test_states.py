import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlweak import (
    ExperimentConfig,
    GaussianState,
    Quadrature,
    check_epistemic_restriction,
    gaussian_condition,
    make_particle,
    make_pure_device,
    quadrature_moments,
    tensor,
)

sigmas = st.floats(0.2, 5.0)
means = st.floats(-5.0, 5.0)
omegas = st.floats(-3.0, 3.0)


class TestConstruction:
    def test_particle_covariance(self):
        state = make_particle(0.0, 0.0, 0.5)
        np.testing.assert_allclose(state.mean, [0.0, 0.0])
        np.testing.assert_allclose(state.cov, np.diag([0.25, 1.0]))

    def test_particle_momentum_variance(self):
        state = make_particle(2.0, -1.0, 1.0)
        np.testing.assert_allclose(state.mean, [2.0, -1.0])
        np.testing.assert_allclose(state.cov, np.diag([1.0, 0.25]))

    def test_device_zero_covariance(self):
        state = make_pure_device(1.0, 0.0, 0.0)
        np.testing.assert_allclose(state.mean, [0.0, 0.0])
        np.testing.assert_allclose(state.cov, np.diag([1.0, 0.25]))

    def test_device_with_covariance(self):
        state = make_pure_device(1.0, 0.0, 1.0)
        assert state.cov[1, 1] == pytest.approx(0.5)
        assert state.cov[0, 1] == pytest.approx(0.5)
        assert np.linalg.det(2.0 * state.cov) == pytest.approx(1.0, abs=1e-12)

    def test_device_wide(self):
        state = make_pure_device(2.0, 0.3, 0.0)
        np.testing.assert_allclose(state.mean, [0.0, 0.3])
        assert state.cov[0, 0] == pytest.approx(4.0)
        assert state.cov[1, 1] == pytest.approx(1.0 / 16.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            make_particle(0.0, 0.0, sigma)

    def test_nonpositive_delta_q_rejected(self):
        with pytest.raises(ValueError):
            make_pure_device(0.0, 0.0, 0.0)

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_indefinite_cov_rejected(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("mean", [[], [0.0], [0.0, 0.0, 0.0]])
    def test_odd_or_empty_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="positive multiple of 2"):
            GaussianState(mean, np.eye(len(mean)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_or_cov_rejected(self, bad):
        with pytest.raises(ValueError, match="mean must be finite"):
            GaussianState([0.0, bad], np.eye(2))
        with pytest.raises(ValueError, match="cov must be finite"):
            GaussianState([0.0, 0.0], [[1.0, 0.0], [0.0, bad]])

    def test_cov_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            GaussianState([0.0, 0.0], np.eye(4))
        with pytest.raises(ValueError, match="does not match"):
            GaussianState([0.0, 0.0, 0.0, 0.0], np.eye(2))

    @given(means, means, sigmas)
    def test_pure_states_saturate(self, mu_q, mu_p, sigma):
        state = make_particle(mu_q, mu_p, sigma)
        assert np.linalg.det(2.0 * state.cov) == pytest.approx(1.0, abs=1e-10)
        assert check_epistemic_restriction(state).status == "saturated"

    @given(st.floats(0.2, 5.0), means, omegas)
    def test_pure_devices_saturate(self, delta_Q, mu_P, omega):
        state = make_pure_device(delta_Q, mu_P, omega)
        assert np.linalg.det(2.0 * state.cov) == pytest.approx(1.0, abs=1e-10)
        assert check_epistemic_restriction(state).status == "saturated"


class TestRestriction:
    def test_sub_uncertainty_violates(self):
        state = GaussianState([0.0, 0.0], np.diag([0.25, 0.25]))
        result = check_epistemic_restriction(state)
        assert result.status == "violated"
        assert result.margin < 0

    def test_wide_state_strictly_valid(self):
        state = GaussianState([0.0, 0.0], np.diag([1.0, 1.0]))
        result = check_epistemic_restriction(state)
        assert result.status == "valid_strict"
        assert result.margin == pytest.approx(1.0, abs=1e-12)

    def test_one_mode_matches_determinant_test(self):
        # for one mode: restricted iff det(2 cov) >= 1 (with PSD gamma)
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, c = rng.uniform(0.1, 2.0, size=2)
            bmax = math.sqrt(a * c) * 0.999
            b = rng.uniform(-bmax, bmax)
            state = GaussianState([0.0, 0.0], [[a, b], [b, c]])
            det_gamma = np.linalg.det(2.0 * state.cov)
            status = check_epistemic_restriction(state).status
            assert (status != "violated") == (det_gamma >= 1.0 - 1e-9)


class TestTensorAndMoments:
    def test_tensor_block_structure(self):
        a = make_particle(1.0, 2.0, 1.0)
        b = make_pure_device(0.5, -1.0, 0.3)
        joint = tensor(a, b)
        assert joint.n_modes == 2
        np.testing.assert_allclose(joint.mean, [1.0, 2.0, 0.0, -1.0])
        np.testing.assert_allclose(joint.cov[:2, :2], a.cov)
        np.testing.assert_allclose(joint.cov[2:, 2:], b.cov)
        np.testing.assert_allclose(joint.cov[:2, 2:], 0.0)

    def test_marginal_recovers_factor(self):
        a = make_particle(1.0, 2.0, 1.0)
        b = make_pure_device(0.5, -1.0, 0.3)
        joint = tensor(a, b)
        np.testing.assert_array_equal(joint.marginal(0).mean, a.mean)
        np.testing.assert_array_equal(joint.marginal(0).cov, a.cov)
        np.testing.assert_array_equal(joint.marginal(1).mean, b.mean)

    def test_tensor_of_saturated_is_saturated(self):
        joint = tensor(make_particle(0.0, 0.0, 1.0), make_pure_device(1.0, 0.0, 1.0))
        assert check_epistemic_restriction(joint).status == "saturated"

    def test_position_marginal(self):
        state = make_particle(2.0, -1.0, 1.0)
        assert quadrature_moments(state, 0, Quadrature(0.0)) == pytest.approx((2.0, 1.0))

    def test_momentum_marginal(self):
        state = make_particle(2.0, -1.0, 1.0)
        mean, var = quadrature_moments(state, 0, Quadrature(math.pi / 2))
        assert mean == pytest.approx(-1.0)
        assert var == pytest.approx(0.25)

    def test_diagonal_quadrature(self):
        state = make_particle(0.0, 0.0, 1.0)
        _, var = quadrature_moments(state, 0, Quadrature(math.pi / 4))
        assert var == pytest.approx(0.625)

    def test_mode_out_of_range(self):
        state = make_particle(0.0, 0.0, 1.0)
        with pytest.raises(IndexError):
            quadrature_moments(state, 1, Quadrature(0.0))

    @given(means, means, sigmas, st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=50)
    def test_variance_nonnegative_and_saturation_identity(self, mu_q, mu_p, sigma, theta):
        # saturated single-mode states: Var[t] Var[t+pi/2] - Cov^2 = 1/4
        state = make_particle(mu_q, mu_p, sigma)
        quad = Quadrature(theta)
        conj = Quadrature(theta + math.pi / 2)
        _, var1 = quadrature_moments(state, 0, quad)
        _, var2 = quadrature_moments(state, 0, conj)
        v1, v2 = quad.vector, conj.vector
        cross = float(v1 @ state.cov @ v2)
        assert var1 >= 0.0
        assert var1 * var2 - cross**2 == pytest.approx(0.25, rel=1e-9)


def _trusted_grid():
    """Configs over every field: each (b - mean_B) / std_B out to 32, g = 0
    and theta_A = theta_B (mod pi) included."""
    for (mu_q, mu_p), (sigma, delta_Q), mu_P, omega, g, (theta_A, theta_B), z in itertools.product(
        ((0.0, 0.0), (0.9, -0.6)),
        ((0.3, 3.0), (3.0, 0.3), (1.0, 1.0)),
        (0.0, 0.7),
        (-1.5, 0.0, 1.5),
        (0.0, 0.3, 1.5),
        ((0.0, math.pi / 2), (0.4, 0.4 + math.pi), (2.0, 5.1)),
        (-32.0, 0.0, 6.0, 32.0),
    ):
        config = ExperimentConfig(
            mu_q, mu_p, sigma, delta_Q, mu_P, omega, g,
            Quadrature(theta_A), Quadrature(theta_B), 0.0, None, 1, 0,
        )
        mean_B, var_B = quadrature_moments(config.evolved_joint(), 0, config.theta_B)
        yield dataclasses.replace(config, b=mean_B + z * math.sqrt(var_B))


def _wide_spread_grid():
    """Spreads sigma and delta_Q from 1e-4 to 1e4: covariance entries up to
    1e8 carry rounding far above any absolute 1e-12 tolerance."""
    spreads = (1e-4, 1e-2, 1.0, 1e2, 1e4)
    for sigma, delta_Q, g, theta_A, omega in itertools.product(
        spreads, spreads, (0.3, 3.0), (0.0, 0.7, math.pi / 2), (0.0, 0.8)
    ):
        yield ExperimentConfig(
            0.2, -0.1, sigma, delta_Q, 0.4, omega, g,
            Quadrature(theta_A), Quadrature(1.9), 0.5, None, 1, 0,
        )


def _check_derived_states(configs, conditioned: bool) -> int:
    """Validate a copy of each config's joint and evolved state (and, if
    `conditioned`, its state conditioned on B = b) and of their marginals;
    each must equal its validated copy bit for bit. Returns the count."""
    n = 0
    for config in configs:
        states = [config.joint(), config.evolved_joint()]
        if conditioned:
            states.append(gaussian_condition(states[1], 0, config.theta_B, config.b))
        for state in states:
            for derived in (state, state.marginal(0), state.marginal(1)):
                checked = GaussianState(derived.mean, derived.cov)
                for got, want in ((derived.mean, checked.mean), (derived.cov, checked.cov)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), config
                    assert not got.flags.writeable
                n += 1
    return n


def test_derived_states_pass_the_public_checks():
    """Tensor products, evolution, conditioning and marginals skip the
    validation; on a grid over every config field, each such state passes it
    and equals its validated copy bit for bit."""
    assert _check_derived_states(_trusted_grid(), conditioned=True) == 9 * 1296


def test_extreme_spread_states_pass_the_public_checks():
    """The tolerances scale with the covariance: with absolute ones, 35 of
    these 300 evolved states failed the PSD check."""
    assert _check_derived_states(_wide_spread_grid(), conditioned=False) == 6 * 300


# The factories as they were when the public constructor checked their
# output: the reference for what make_particle and make_pure_device store
# and raise now that they check only their scalars and finiteness.
def _validated_particle(mu_q, mu_p, sigma):
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return GaussianState(np.array([mu_q, mu_p]), np.diag([sigma**2, 1.0 / (4.0 * sigma**2)]))


def _validated_device(delta_Q, mu_P, omega):
    if delta_Q <= 0:
        raise ValueError("delta_Q must be positive")
    var_P = (1.0 + omega**2) / (4.0 * delta_Q**2)
    cov = np.array([[delta_Q**2, omega / 2.0], [omega / 2.0, var_P]])
    return GaussianState(np.array([0.0, mu_P]), cov)


REFERENCE = {make_particle: _validated_particle, make_pure_device: _validated_device}
SPREADS = (1e-150, 1e-4, 1.0, 1e4, 1e150)
FACTORY_OMEGAS = (0.0, 1e-3, -1e-3, 1.0, -1.0, 1e8, -1e8, 1e150, -1e150)
FACTORY_MEANS = (0.0, 0.7, -1e150)


def _outcome(build, *args):
    """The state that `build(*args)` returns, or the (type, message) of what it raises."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _factory_grid():
    for mean, spread in itertools.product(FACTORY_MEANS, SPREADS):
        yield make_particle, (mean, -mean, spread)
    for spread, mean, omega in itertools.product(SPREADS, FACTORY_MEANS, FACTORY_OMEGAS):
        yield make_pure_device, (spread, mean, omega)


def test_factory_states_pass_the_public_checks():
    """make_particle and make_pure_device skip the constructor's symmetry and
    PSD checks; at every grid point they raise what the validated
    construction raises, or store bit for bit what it stored, and their state
    passes `GaussianState(...)`."""
    built = raised = 0
    for build, args in _factory_grid():
        got, want = _outcome(build, *args), _outcome(REFERENCE[build], *args)
        if isinstance(want, tuple):
            assert got == want, (build.__name__, args)
            raised += 1
            continue
        checked = GaussianState(got.mean, got.cov)
        for array, stored in ((got.mean, want.mean), (got.cov, want.cov)):
            assert array.dtype == stored.dtype and array.shape == stored.shape
            assert array.tobytes() == stored.tobytes(), (build.__name__, args)
            assert not array.flags.writeable
        assert checked.cov.tobytes() == got.cov.tobytes()
        built += 1
    # delta_Q = 1e-150 with |omega| >= 1e8 makes Var[P] infinite: "cov must be finite"
    assert (built, raised) == (15 + 123, 12)


@pytest.mark.parametrize(
    "build, args, error, message",
    [
        (make_particle, (0.0, 0.0, 0.0), ValueError, "sigma must be positive"),
        (make_particle, (0.0, 0.0, -1.0), ValueError, "sigma must be positive"),
        (make_pure_device, (0.0, 0.0, 0.0), ValueError, "delta_Q must be positive"),
        (make_pure_device, (-1.0, 0.0, 0.0), ValueError, "delta_Q must be positive"),
        *[
            (make_particle, (bad, 0.0, 1.0), ValueError, "mean must be finite")
            for bad in (math.nan, math.inf, -math.inf)
        ],
        *[
            (make_pure_device, (1.0, bad, 0.0), ValueError, "mean must be finite")
            for bad in (math.nan, math.inf, -math.inf)
        ],
        (make_particle, (0.0, 0.0, math.nan), ValueError, "cov must be finite"),
        (make_pure_device, (1.0, 0.0, math.inf), ValueError, "cov must be finite"),
        (make_particle, (0.0, 0.0, 1e200), OverflowError, None),  # sigma**2
        (make_particle, (0.0, 0.0, 1e-200), ZeroDivisionError, None),  # 1 / (4 sigma**2)
        (make_pure_device, (1e200, 0.0, 0.0), OverflowError, None),  # delta_Q**2
        (make_pure_device, (1.0, 0.0, 1e200), OverflowError, None),  # omega**2
    ],
)
def test_bad_factory_inputs_raise_as_the_validated_construction(build, args, error, message):
    """Each bad input raises the type and message it raised when the public
    constructor checked the factory's output; Python's own arithmetic errors
    are compared with the reference's, the package's messages are pinned."""
    with pytest.raises(error) as info:
        build(*args)
    assert (type(info.value), str(info.value)) == _outcome(REFERENCE[build], *args)
    if message is not None:
        assert str(info.value) == message
