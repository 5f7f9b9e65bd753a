import dataclasses
import math
import pickle

import numpy as np
import pytest

from erlweak import (
    ExperimentConfig,
    InsufficientAcceptanceError,
    Quadrature,
    acceptance_probability,
    exact_strong_correlation,
    joint_momentum_histogram,
    make_particle,
    oracle_estimate,
    quadrature_moments,
    run_weak_experiment,
    sample_state,
    strong_measurement_correlation,
    windowed_oracle,
)

HALF_PI = math.pi / 2

BASE = ExperimentConfig(
    mu_q=0.0,
    mu_p=0.0,
    sigma=1.0,
    delta_Q=1.0,
    mu_P=0.0,
    omega=0.0,
    g=0.1,
    theta_A=Quadrature(0.0),
    theta_B=Quadrature(HALF_PI),
    b=1.0,
    epsilon=None,
    n_samples=200_000,
    seed=42,
)


class TestSampling:
    def test_moments_converge(self):
        n = 1_000_000
        pts = sample_state(make_particle(0.0, 0.0, 1.0), n, seed=1)
        bound = 4.0 / math.sqrt(n)
        assert abs(pts[:, 0].mean()) < bound
        assert abs(pts[:, 1].mean()) < bound / 2.0  # momentum std is 1/2
        assert pts[:, 0].var() == pytest.approx(1.0, rel=0.01)
        assert pts[:, 1].var() == pytest.approx(0.25, rel=0.01)

    def test_fixed_seed_is_bit_identical(self):
        a = sample_state(make_particle(0.3, -0.2, 1.0), 10_000, seed=9)
        b = sample_state(make_particle(0.3, -0.2, 1.0), 10_000, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_prefix_stability_across_lengths(self):
        # chunked substreams: the first n draws do not depend on the total
        a = sample_state(make_particle(0.0, 0.0, 1.0), 300_000, seed=9)
        b = sample_state(make_particle(0.0, 0.0, 1.0), 400_000, seed=9)
        np.testing.assert_array_equal(a, b[:300_000])

    def test_degenerate_covariance_rejected(self):
        from erlweak import GaussianState

        flat = GaussianState([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            sample_state(flat, 10, seed=0)


class TestRunWeakExperiment:
    def test_deterministic_estimates(self):
        config = dataclasses.replace(BASE, n_samples=100_000)
        a = run_weak_experiment(config)
        b = run_weak_experiment(config)
        assert a == b

    def test_zero_coupling_no_shift(self):
        config = dataclasses.replace(BASE, g=0.0, mu_P=0.3, n_samples=400_000)
        est = run_weak_experiment(config)
        assert abs(est.mean_Q) <= 3.0 * est.se_Q
        assert abs(est.mean_P - 0.3) <= 3.0 * est.se_P

    def test_momentum_bias_matches_oracle(self):
        config = dataclasses.replace(BASE, n_samples=1_000_000)
        est = run_weak_experiment(config)
        _, oracle_P, _ = oracle_estimate(config)
        _, windowed_P, _ = windowed_oracle(config)
        window_bias = abs(windowed_P - oracle_P)
        assert est.mean_P < 0.0
        assert abs(est.mean_P - oracle_P) <= 3.0 * est.se_P + window_bias

    def test_commuting_postselection_no_momentum_bias(self):
        config = dataclasses.replace(
            BASE, theta_B=Quadrature(0.0), b=0.5, g=0.8, n_samples=400_000
        )
        est = run_weak_experiment(config)
        assert abs(est.mean_P) <= 3.0 * est.se_P

    def test_acceptance_rate_matches_window_probability(self):
        config = dataclasses.replace(BASE, n_samples=400_000)
        est = run_weak_experiment(config)
        prob = acceptance_probability(config)
        se = math.sqrt(prob * (1.0 - prob) / config.n_samples)
        assert abs(est.acceptance_rate - prob) <= 3.0 * se

    def test_window_bias_shrinks_quadratically(self):
        # windowed oracle minus point oracle is O(epsilon^2)
        config = dataclasses.replace(BASE, b=0.8)
        point = windowed_oracle(config, epsilon=1e-6)
        biases = []
        for eps in (0.4, 0.2, 0.1):
            w = windowed_oracle(config, epsilon=eps)
            biases.append(max(abs(a - b) for a, b in zip(w, point)))
        orders = [math.log2(b1 / b2) for b1, b2 in zip(biases, biases[1:])]
        assert min(orders) > 1.8

    def test_insufficient_acceptance(self):
        config = dataclasses.replace(BASE, b=40.0, epsilon=0.01, n_samples=1_000)
        with pytest.raises(InsufficientAcceptanceError) as excinfo:
            run_weak_experiment(config)
        assert excinfo.value.acceptance_rate == 0.0

    def test_adaptive_epsilon_recorded(self):
        config = dataclasses.replace(BASE, n_samples=50_000)
        est = run_weak_experiment(config)
        assert est.epsilon == pytest.approx(config.resolved_epsilon())
        assert est.n_accepted <= est.n_samples
        assert 0.0 < est.acceptance_rate <= 1.0


class TestEvolvedJointCache:
    def test_built_once_and_read_only(self):
        config = dataclasses.replace(BASE)
        evolved = config.evolved_joint()
        assert config.evolved_joint() is evolved
        assert not evolved.mean.flags.writeable
        assert not evolved.cov.flags.writeable
        with pytest.raises(ValueError):
            evolved.mean[0] = 1.0

    def test_replace_gives_fresh_state(self):
        before = BASE.evolved_joint()
        config = dataclasses.replace(BASE, g=0.7)
        after = config.evolved_joint()
        assert after is not before
        assert after.cov[2, 0] == pytest.approx(0.7)  # Q' = Q + g q
        assert BASE.evolved_joint().cov[2, 0] == pytest.approx(0.1)

    def test_equality_and_hash_ignore_the_cache(self):
        fresh = dataclasses.replace(BASE)
        BASE.evolved_joint()
        assert fresh == BASE
        assert hash(fresh) == hash(BASE)
        assert dataclasses.replace(BASE, b=2.0) != BASE

    def test_pickle_round_trip(self):
        BASE.evolved_joint()
        restored = pickle.loads(pickle.dumps(BASE))
        assert restored == BASE
        assert hash(restored) == hash(BASE)
        evolved = restored.evolved_joint()
        np.testing.assert_array_equal(evolved.mean, BASE.evolved_joint().mean)
        np.testing.assert_array_equal(evolved.cov, BASE.evolved_joint().cov)
        assert not evolved.cov.flags.writeable
        assert oracle_estimate(restored) == oracle_estimate(BASE)


def _mp_window(config, epsilon):
    """50-digit (probability, windowed means (Q, P, A)) from the float
    moments of the evolved joint, each tail evaluated on its own side."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    evolved = config.evolved_joint()
    v = np.array([*config.theta_B.vector, 0.0, 0.0])
    mean = [mp.mpf(float(x)) for x in evolved.mean]
    cov = [[mp.mpf(float(x)) for x in row] for row in evolved.cov]
    vm = [mp.mpf(float(x)) for x in v]

    def dot(a, b):
        return mp.fsum(x * y for x, y in zip(a, b))

    cov_v = [dot(row, vm) for row in cov]
    mean_B, var_B = dot(vm, mean), dot(vm, cov_v)
    s = mp.sqrt(var_B)
    lo = (mp.mpf(config.b) - mp.mpf(epsilon) - mean_B) / s
    hi = (mp.mpf(config.b) + mp.mpf(epsilon) - mean_B) / s
    if lo >= 0:
        prob = (mp.erfc(lo / mp.sqrt(2)) - mp.erfc(hi / mp.sqrt(2))) / 2
    elif hi <= 0:
        prob = (mp.erfc(-hi / mp.sqrt(2)) - mp.erfc(-lo / mp.sqrt(2))) / 2
    else:
        prob = (mp.erf(hi / mp.sqrt(2)) - mp.erf(lo / mp.sqrt(2))) / 2
    offset = s * (mp.npdf(lo) - mp.npdf(hi)) / prob
    a = [mp.mpf(float(x)) for x in config.theta_A.vector]
    rows = ([0, 0, 1, 0], [0, 0, 0, 1], [*a, 0, 0])
    means = [dot(u, mean) + dot(u, cov_v) / var_B * offset for u in rows]
    return prob, means


class TestWindowTails:
    CONFIG = dataclasses.replace(BASE, g=0.3, omega=0.5, mu_P=0.4, mu_q=0.2, theta_A=Quadrature(0.3))

    def _at(self, z):
        mean_B, var_B = quadrature_moments(self.CONFIG.evolved_joint(), 0, self.CONFIG.theta_B)
        return dataclasses.replace(self.CONFIG, b=mean_B + z * math.sqrt(var_B)), math.sqrt(var_B)

    @pytest.mark.parametrize("width", [1e-3, 0.05, 1.0, 4.0])
    def test_matches_50_digit_reference(self, width):
        # z = (b - mean_B) / std_B over both tails; width = epsilon / std_B
        for z in np.linspace(-32.0, 32.0, 65):
            config, std_B = self._at(float(z))
            epsilon = width * std_B
            ref_prob, ref_means = _mp_window(config, epsilon)
            prob = acceptance_probability(config, epsilon)
            assert prob > 0.0
            assert abs(prob - ref_prob) <= 1e-10 * ref_prob, (z, width)
            for x, r in zip(windowed_oracle(config, epsilon), ref_means):
                assert math.isfinite(x)
                assert abs(x - r) <= 1e-10 * max(1.0, abs(r)), (z, width)

    def test_ten_sigma_postselection(self):
        # g=0.3, omega=0.5, theta_A=0, theta_B=pi/2, b=5: about 10 std of B
        config = dataclasses.replace(BASE, g=0.3, omega=0.5, b=5.0)
        mean_B, var_B = quadrature_moments(config.evolved_joint(), 0, config.theta_B)
        assert (config.b - mean_B) / math.sqrt(var_B) > 9.0
        prob = acceptance_probability(config)
        ref_prob, ref_means = _mp_window(config, config.resolved_epsilon())
        assert 0.0 < prob < 1e-20
        assert prob == pytest.approx(float(ref_prob), rel=1e-10)
        means = windowed_oracle(config)
        assert all(math.isfinite(x) for x in means)
        assert means == pytest.approx([float(r) for r in ref_means], rel=1e-10, abs=1e-10)

    def test_beyond_underflow_mean_stays_finite(self):
        # the probability underflows past about 38 std; the mean does not
        config, _ = self._at(60.0)
        assert acceptance_probability(config) == 0.0
        assert all(math.isfinite(x) for x in windowed_oracle(config))

    @pytest.mark.parametrize("z", [0.3, -4.0, 12.0, -30.0])
    def test_tends_to_point_oracle(self, z):
        config, std_B = self._at(z)
        point = oracle_estimate(config)
        gaps = []
        for width in (1e-2, 1e-3, 1e-4):
            w = windowed_oracle(config, width * std_B)
            gaps.append(max(abs(a - b) for a, b in zip(w, point)))
        assert gaps[-1] <= 1e-8 * max(1.0, abs(z))
        assert gaps[1] <= 0.02 * gaps[0]  # O(epsilon^2)

    def test_empty_window_raises(self):
        config = dataclasses.replace(BASE, b=1e20, epsilon=1.0)
        with pytest.raises(InsufficientAcceptanceError):
            windowed_oracle(config)
        assert acceptance_probability(config) == 0.0


class TestHistogram:
    def test_total_count(self):
        config = dataclasses.replace(BASE, n_samples=50_000)
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins=21)
        assert counts.sum() <= config.n_samples  # 5-sigma auto range may clip
        assert counts.sum() >= 0.99 * config.n_samples
        counts, _, _ = joint_momentum_histogram(
            config, bins=21, hist_range=((-50.0, 50.0), (-50.0, 50.0))
        )
        assert counts.sum() == config.n_samples
        assert len(p_edges) == 22 and len(P_edges) == 22

    def test_zero_coupling_product_structure(self):
        config = dataclasses.replace(BASE, g=0.0, n_samples=400_000)
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins=15)
        centers_P = 0.5 * (P_edges[:-1] + P_edges[1:])
        slice_means = []
        for i in range(counts.shape[0]):
            if counts[i].sum() > 2_000:
                slice_means.append(counts[i] @ centers_P / counts[i].sum())
        assert max(abs(m) for m in slice_means) < 0.05

    def test_conditional_device_momentum_slope(self):
        # theta_A=0: p' = p - g P, so E[P | p'=b] decreases linearly in b
        config = dataclasses.replace(BASE, g=0.5, n_samples=400_000)
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins=31)
        centers_p = 0.5 * (p_edges[:-1] + p_edges[1:])
        centers_P = 0.5 * (P_edges[:-1] + P_edges[1:])
        xs, ys = [], []
        for i in range(counts.shape[0]):
            if counts[i].sum() > 3_000:
                xs.append(centers_p[i])
                ys.append(counts[i] @ centers_P / counts[i].sum())
        slope = np.polyfit(xs, ys, 1)[0]
        # exact regression coefficient from the evolved covariance
        cov = config.evolved_joint().cov
        expected = cov[3, 1] / cov[1, 1]
        assert expected < 0.0
        assert slope == pytest.approx(expected, rel=0.1)

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            joint_momentum_histogram(BASE, bins=1)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            joint_momentum_histogram(BASE, bins=10, hist_range=((1.0, 1.0), (0.0, 1.0)))


class TestStrongMeasurement:
    def test_correlation_rises_to_one(self):
        config = dataclasses.replace(BASE, g=1.0, n_samples=100_000)
        seq = [10.0, 1.0, 0.1, 0.01]
        corr = strong_measurement_correlation(seq, config)
        assert all(a < b for a, b in zip(corr, corr[1:]))
        assert corr[-1] > 0.999

    def test_matches_exact_formula(self):
        config = dataclasses.replace(BASE, g=1.0, n_samples=100_000)
        seq = [10.0, 1.0, 0.1]
        corr = strong_measurement_correlation(seq, config)
        fisher_se = 3.0 / math.sqrt(config.n_samples - 3)
        for r, delta_Q in zip(corr, seq):
            rho = exact_strong_correlation(delta_Q, config)
            assert abs(math.atanh(r) - math.atanh(rho)) < fisher_se

    def test_zero_coupling_uncorrelated(self):
        config = dataclasses.replace(BASE, g=0.0, n_samples=100_000)
        (corr,) = strong_measurement_correlation([1.0], config)
        assert abs(corr) < 4.0 / math.sqrt(config.n_samples)
