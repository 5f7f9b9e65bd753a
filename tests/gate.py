"""The one Monte Carlo gate of the tests.

Every sampled check is a z: the sampled value less its exact expectation,
over its standard error. The windowed oracle is the exact expectation of a
window's means, and the window's exact probability that of its accepted
count, so no gate needs slack for a window bias. `Z_GATE` bounds a z at a
fixed seed; a family of z's over drawn seeds passes its own Bonferroni
bound to `assert_z`. Tests import this module as `gate`; pytest does not
collect it.
"""

import math

from erlweak import acceptance_probability, windowed_oracle

# The bound on a z at a fixed seed: 0.27 % of N(0, 1) lies beyond it
Z_GATE = 3.0
MEANS = ("mean_Q", "mean_P", "mean_A")


def z(value: float, se: float, expected: float) -> float:
    """The z of a sampled value with standard error se against its exact
    expectation."""
    return (value - expected) / se


def z_scores(estimate, config) -> dict[str, float]:
    """The z's of a PostselectedEstimate of config: its mean_Q, mean_P and
    mean_A against `windowed_oracle(config)`, and its accepted count, with
    the binomial SE, against `acceptance_probability(config)`."""
    ses = (estimate.se_Q, estimate.se_P, estimate.se_A)
    out = {
        name: z(getattr(estimate, name), se, expected)
        for name, se, expected in zip(MEANS, ses, windowed_oracle(config))
    }
    n, prob = estimate.n_samples, acceptance_probability(config)
    out["n_accepted"] = z(estimate.n_accepted, math.sqrt(n * prob * (1.0 - prob)), n * prob)
    return out


def sample_z(points, state) -> list[float]:
    """The z's of the sample mean and covariance of n points, a (d, n)
    array, against the Gaussian state they were drawn from: each mean with
    SE sqrt(C_ii / n), each covariance entry on and above the diagonal with
    SE sqrt((C_ii C_jj + C_ij^2) / (n - 1))."""
    d, n = points.shape
    mean, cov = state.mean, state.cov
    centred = points - points.mean(axis=1, keepdims=True)
    sample_cov = centred @ centred.T / (n - 1)
    out = [z(points[i].mean(), math.sqrt(cov[i, i] / n), mean[i]) for i in range(d)]
    for i in range(d):
        for j in range(i, d):
            se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / (n - 1))
            out.append(z(sample_cov[i, j], se, cov[i, j]))
    return out


def binned_mean_z(counts, centres, probs) -> float:
    """The z of the mean bin centre of binned draws, counts per bin, against
    its exact expectation under the bin probabilities probs (to any common
    factor), with the SE of the draws' own spread."""
    n = counts.sum()
    mean = counts @ centres / n
    se = math.sqrt(counts @ (centres - mean) ** 2 / ((n - 1) * n))
    return z(mean, se, probs @ centres / probs.sum())


def fisher_z(r: float, rho: float, n: int) -> float:
    """The z of a Pearson correlation r of n draws against its exact value
    rho: Fisher's atanh(r) is normal to O(1/n), with mean atanh(rho) and SE
    1 / sqrt(n - 3)."""
    return z(math.atanh(r), 1.0 / math.sqrt(n - 3), math.atanh(rho))


def assert_z(z, bound: float = Z_GATE) -> None:
    """Assert |z| <= bound for a z, or for every z of a sequence or of a
    mapping's values."""
    values = z.values() if isinstance(z, dict) else z if isinstance(z, (list, tuple)) else [z]
    assert all(abs(value) <= bound for value in values), (z, bound)
