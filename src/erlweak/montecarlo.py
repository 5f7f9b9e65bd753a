"""Monte Carlo over classical phase points: sample, evolve, postselect.

Sampling is chunked with one substream per chunk, keyed by (seed, chunk
index), so the sample stream and every derived estimate are bit-identical
regardless of how chunks would be partitioned across workers. Samplers reduce
the chunks of one loop (`_chunks`) in fixed chunk order, so memory is
O(chunk_size), not O(n_samples); only `sample_state` materialises n rows.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .analytic import gaussian_condition
from .dynamics import apply_to_points, apply_to_state, coupling_map
from .states import (
    GaussianState,
    Quadrature,
    make_particle,
    make_pure_device,
    quadrature_moments,
    quadrature_vector,
    tensor,
)

DEFAULT_CHUNK = 1 << 18
REPEATABILITY_TOL = 1e-12
ADAPTIVE_EPSILON_FRACTION = 0.05
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Above this the Mills ratio comes from its continued fraction: the direct
# quotient erfc/pdf loses about x^2 ulp to the rounding of x^2 in the
# exponent, and erfc underflows near x = 38.
_MILLS_CF_FROM = 8.0
_MILLS_CF_TERMS = 20  # converged to an ulp for x >= 8


class InsufficientAcceptanceError(RuntimeError):
    """Fewer than two samples survived postselection."""

    def __init__(self, acceptance_rate: float):
        super().__init__(
            f"insufficient acceptance (rate {acceptance_rate:.3g}); "
            "widen epsilon or increase n_samples"
        )
        self.acceptance_rate = acceptance_rate


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    mu_q: float
    mu_p: float
    sigma: float
    delta_Q: float
    mu_P: float
    omega: float
    g: float
    theta_A: Quadrature
    theta_B: Quadrature
    b: float
    epsilon: float | None  # None -> adaptive: 0.05 * std of B after evolution
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    def particle(self) -> GaussianState:
        return make_particle(self.mu_q, self.mu_p, self.sigma)

    def device(self) -> GaussianState:
        return make_pure_device(self.delta_Q, self.mu_P, self.omega)

    def joint(self) -> GaussianState:
        return tensor(self.particle(), self.device())

    @functools.cached_property
    def _evolved(self) -> GaussianState:
        return apply_to_state(coupling_map(self.g, self.theta_A), self.joint())

    def evolved_joint(self) -> GaussianState:
        """The joint state after the coupling, built once per config and
        shared between callers (its mean and cov are read-only)."""
        return self._evolved

    @property
    def delta_P(self) -> float:
        """Momentum spread of the pure device: sqrt(1 + omega^2) / (2 delta_Q)."""
        return math.sqrt(1.0 + self.omega**2) / (2.0 * self.delta_Q)

    def __getstate__(self):
        # the evolved state is a cache: pickles carry only the fields
        return {k: v for k, v in self.__dict__.items() if k != "_evolved"}

    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        _, var_B = quadrature_moments(self.evolved_joint(), 0, self.theta_B)
        return ADAPTIVE_EPSILON_FRACTION * math.sqrt(var_B)


@dataclasses.dataclass(frozen=True)
class PostselectedEstimate:
    mean_Q: float
    mean_P: float
    mean_A: float
    se_Q: float
    se_P: float
    se_A: float
    n_accepted: int
    n_samples: int
    acceptance_rate: float
    epsilon: float


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def _chunks(state: GaussianState, n: int, seed: int, chunk_size: int):
    """The one sampling loop: yield n i.i.d. points of a Gaussian state as
    arrays of at most chunk_size rows, chunk k drawn from substream (seed, k).
    The covariance is factored once, when the first chunk is asked for."""
    if n < 1 or chunk_size < 1:
        raise ValueError("n and chunk_size must be >= 1")
    try:
        lower = np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not factorizable (degenerate state)") from exc
    for k, start in enumerate(range(0, n, chunk_size)):
        z = _chunk_rng(seed, k).standard_normal((min(chunk_size, n - start), state.mean.size))
        yield state.mean + z @ lower.T


def sample_state(
    state: GaussianState, n: int, seed: int, chunk_size: int = DEFAULT_CHUNK
) -> np.ndarray:
    """Draw n i.i.d. points from a Gaussian state as an (n, 2*n_modes) array."""
    out = np.empty((n, state.mean.size))
    for k, pts in enumerate(_chunks(state, n, seed, chunk_size)):
        out[k * chunk_size : k * chunk_size + pts.shape[0]] = pts
    return out


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, se


def run_weak_experiment(
    config: ExperimentConfig, chunk_size: int = DEFAULT_CHUNK
) -> PostselectedEstimate:
    """Sample the joint state, evolve each point, postselect on
    |B(q', p') - b| <= epsilon, and estimate conditional means of
    Q', P' and A(q', p') with normal-theory standard errors.

    Per-point repeatability (A and P unchanged by the coupling) is asserted
    on every chunk.
    """
    smap = coupling_map(config.g, config.theta_A)
    epsilon = config.resolved_epsilon()
    accepted: list[np.ndarray] = []
    n = config.n_samples
    for pts in _chunks(config.joint(), n, config.seed, chunk_size):
        evolved = apply_to_points(smap, pts)

        a_before = config.theta_A.value(pts[:, 0], pts[:, 1])
        a_after = config.theta_A.value(evolved[:, 0], evolved[:, 1])
        scale = np.maximum(1.0, np.abs(a_before))
        if np.max(np.abs(a_after - a_before) / scale) > REPEATABILITY_TOL:
            raise AssertionError("repeatability violated: A changed under coupling")
        if not np.array_equal(evolved[:, 3], pts[:, 3]):
            raise AssertionError("repeatability violated: P changed under coupling")

        b_val = config.theta_B.value(evolved[:, 0], evolved[:, 1])
        keep = np.abs(b_val - config.b) <= epsilon
        accepted.append(
            np.column_stack([evolved[keep, 2], evolved[keep, 3], a_after[keep]])
        )

    rows = np.concatenate(accepted, axis=0)
    n_acc = rows.shape[0]
    rate = n_acc / n
    if n_acc < 2:
        raise InsufficientAcceptanceError(rate)
    mean_Q, se_Q = _mean_se(rows[:, 0])
    mean_P, se_P = _mean_se(rows[:, 1])
    mean_A, se_A = _mean_se(rows[:, 2])
    return PostselectedEstimate(
        mean_Q, mean_P, mean_A, se_Q, se_P, se_A, n_acc, n, rate, epsilon
    )


def oracle_estimate(config: ExperimentConfig) -> tuple[float, float, float]:
    """Point-conditioned (epsilon -> 0) oracle values (Q, P, A) for a config,
    read off one conditioning of the evolved joint."""
    conditioned = gaussian_condition(config.evolved_joint(), 0, config.theta_B, config.b)
    mean_A = float(quadrature_vector(2, 0, config.theta_A) @ conditioned.mean)
    return float(conditioned.mean[2]), float(conditioned.mean[3]), mean_A


def _pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _mills(x: float) -> float:
    """Mills ratio P(Z > x) / pdf(x) of a standard normal, for x >= 0."""
    if x < _MILLS_CF_FROM:
        return 0.5 * math.erfc(x / _SQRT2) / _pdf(x)
    t = x  # 1 / (x + 1 / (x + 2 / (x + 3 / ...)))
    for k in range(_MILLS_CF_TERMS, 0, -1):
        t = x + k / t
    return 1.0 / t


def _normal_window(lo: float, hi: float) -> tuple[float, float]:
    """(P(lo <= Z <= hi), E[Z | lo <= Z <= hi]) for a standard normal Z.

    Windows are reflected so that their centre is >= 0. A window that
    straddles 0 adds two erf terms of the same sign; one in the upper tail
    factors out pdf(lo) through the Mills ratio, so cdf(hi) - cdf(lo) never
    cancels, and the mean stays finite where the probability underflows. The
    mean's numerator pdf(lo) - pdf(hi) comes from expm1. On narrow windows
    the relative error grows as about 1e-15 / (hi - lo): the Mills-ratio
    difference cancels, as do lo and hi themselves when computed from b and
    epsilon. The mean is nan when the window is empty in double precision.
    """
    if lo + hi < 0.0:
        prob, mean = _normal_window(-hi, -lo)
        return prob, -mean
    exponent = -0.5 * (hi - lo) * (hi + lo)  # log(pdf(hi) / pdf(lo))
    drop = -math.expm1(exponent)  # 1 - pdf(hi) / pdf(lo)
    if lo >= 0.0:
        tail = _mills(lo) - math.exp(exponent) * _mills(hi)
        if not tail > 0.0:
            return 0.0, math.nan
        return _pdf(lo) * tail, drop / tail
    prob = 0.5 * (math.erf(hi / _SQRT2) + math.erf(-lo / _SQRT2))
    return prob, _pdf(lo) * drop / prob


def _b_window(
    evolved: GaussianState, config: ExperimentConfig, epsilon: float | None
) -> tuple[float, float, float]:
    """(probability, E[B | window] - mean of B, variance of B) for the
    postselection window |B - b| <= epsilon under the evolved state."""
    if epsilon is None:
        epsilon = config.resolved_epsilon()
    mu_B, var_B = quadrature_moments(evolved, 0, config.theta_B)
    s = math.sqrt(var_B)
    prob, shift = _normal_window((config.b - epsilon - mu_B) / s, (config.b + epsilon - mu_B) / s)
    return prob, s * shift, var_B


def windowed_oracle(
    config: ExperimentConfig, epsilon: float | None = None
) -> tuple[float, float, float]:
    """Exact conditional means given the hard window |B - b| <= epsilon.

    For jointly Gaussian (X, B): E[X | window] differs from E[X] by the
    regression coefficient times the truncated-normal mean shift of B. This
    is the true expectation of the Monte Carlo estimator and quantifies the
    O(epsilon^2) window bias exactly. Finite however far into the tail the
    window lies; raises only for a window that is empty in double precision.
    """
    evolved = config.evolved_joint()
    prob, offset, var_B = _b_window(evolved, config, epsilon)
    if not math.isfinite(offset):
        raise InsufficientAcceptanceError(prob)
    v = quadrature_vector(2, 0, config.theta_B)
    results = []
    vectors = [
        quadrature_vector(2, 1, Quadrature(0.0)),  # device Q
        quadrature_vector(2, 1, Quadrature(math.pi / 2)),  # device P
        quadrature_vector(2, 0, config.theta_A),  # particle A
    ]
    for u in vectors:
        slope = float(u @ evolved.cov @ v) / var_B
        results.append(float(u @ evolved.mean) + slope * offset)
    return tuple(results)


def acceptance_probability(config: ExperimentConfig, epsilon: float | None = None) -> float:
    """Exact probability of the postselection window under the evolved state.
    Keeps its relative accuracy in the tails until it underflows (about
    38 std of B from the mean)."""
    return _b_window(config.evolved_joint(), config, epsilon)[0]


def joint_momentum_histogram(
    config: ExperimentConfig,
    bins: int | tuple[int, int],
    hist_range: tuple[tuple[float, float], tuple[float, float]] | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2D histogram of (particle momentum after coupling, device momentum).

    Postselection settings in the config are ignored. Returns
    (counts, p_edges, P_edges). Draws outside hist_range are not counted:
    the automatic box (+-5 std of each marginal) misses about 1.15e-6 of
    them, so the total equals n_samples only for a range that holds them all.
    Counts are summed chunk by chunk, so memory is O(chunk_size), not
    O(n_samples), and the result equals one histogram of all the draws.
    """
    if isinstance(bins, int):
        bins = (bins, bins)
    if bins[0] < 2 or bins[1] < 2:
        raise ValueError("bins must be >= 2 in each dimension")
    if hist_range is not None:
        (p_lo, p_hi), (P_lo, P_hi) = hist_range
        if not (p_lo < p_hi and P_lo < P_hi):
            raise ValueError("empty histogram range")
    if hist_range is None:
        mu, cov = config.evolved_joint().mean, config.evolved_joint().cov
        half_p = 5.0 * math.sqrt(cov[1, 1])
        half_P = 5.0 * math.sqrt(cov[3, 3])
        hist_range = ((mu[1] - half_p, mu[1] + half_p), (mu[3] - half_P, mu[3] + half_P))
    smap = coupling_map(config.g, config.theta_A)
    counts = np.zeros(bins)
    for pts in _chunks(config.joint(), config.n_samples, config.seed, chunk_size):
        evolved = apply_to_points(smap, pts)
        part, p_edges, P_edges = np.histogram2d(
            evolved[:, 1], evolved[:, 3], bins=bins, range=hist_range
        )
        counts += part  # whole numbers below 2**53: the float sum is exact
    return counts, p_edges, P_edges


def exact_strong_correlation(
    delta_Q: float, config: ExperimentConfig
) -> float:
    """Closed-form Pearson correlation between the device pointer Q' and the
    particle observable A, for a pure device of position spread delta_Q."""
    var_A = float(
        config.theta_A.vector @ config.particle().cov @ config.theta_A.vector
    )
    g = config.g
    return g * math.sqrt(var_A) / math.sqrt(delta_Q**2 + g**2 * var_A)


def strong_measurement_correlation(
    delta_Q_sequence,
    config: ExperimentConfig,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[float]:
    """Sampled Pearson correlation between pointer position Q' and the
    particle observable A, for each device spread in a decreasing sequence.

    Tends to 1 as delta_Q -> 0: the strong-measurement limit. The centred
    moments of each chunk's (A, Q') are merged in chunk order, so memory is
    O(chunk_size), not O(n_samples).
    """
    smap = coupling_map(config.g, config.theta_A)
    out = []
    for delta_Q in delta_Q_sequence:
        if delta_Q <= 0:
            raise ValueError("delta_Q must be positive")
        joint = tensor(config.particle(), make_pure_device(delta_Q, config.mu_P, config.omega))
        n, mean, scatter = 0, np.zeros(2), np.zeros((2, 2))
        for pts in _chunks(joint, config.n_samples, config.seed, chunk_size):
            q_dev = apply_to_points(smap, pts)[:, 2]
            aq = np.column_stack([config.theta_A.value(pts[:, 0], pts[:, 1]), q_dev])
            m, chunk_mean = aq.shape[0], aq.mean(axis=0)
            centred, delta = aq - chunk_mean, chunk_mean - mean
            # merge the chunk's centred moments (Chan, Golub & LeVeque 1983)
            scatter += centred.T @ centred + np.outer(delta, delta) * (n * m / (n + m))
            n += m
            mean += delta * (m / n)
        if not (scatter[0, 0] > 0 and scatter[1, 1] > 0):
            raise ValueError("degenerate variance in correlation estimate")
        out.append(float(np.clip(scatter[0, 1] / math.sqrt(scatter[0, 0] * scatter[1, 1]), -1, 1)))
    return out
