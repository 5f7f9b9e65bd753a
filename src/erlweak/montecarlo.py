"""Monte Carlo over classical phase points: sample, evolve, postselect.

Sampling is chunked with one substream per chunk, keyed by (seed, chunk
index), so the sample stream and every derived estimate are bit-identical
however the chunks are spread over processes. Each sampler is a per-chunk
function of (args, k, rows) plus a reduction of the chunk results in chunk
order. `_map_chunks` runs the chunks on a persistent fork pool of `WORKERS`
processes (the CPUs this process may use), or in this process where a pool
cannot help or cannot be used. Inside a chunk, `_blocks` draws the substream
in blocks of `BLOCK` rows into two buffers that every block of the chunk
reuses, so memory is O(BLOCK) rows per worker and a yielded block is valid
only until the next one; only `sample_state` materialises n rows. The
histogram bins each block by an arithmetic index corrected against the edges
(`_bin_index`), with counts equal to `np.histogram2d`'s exactly.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import math
import os

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
# Rows drawn at a time inside a chunk. Every (rows x 4) @ (4 x 4) product then
# stays below OpenBLAS's threading threshold (M*N*K < 2**18), so pool workers
# do not each start BLAS threads and oversubscribe the cores. Blocks drawn
# from one Generator give the same stream and points as one draw per chunk.
BLOCK = 1 << 13
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


def _usable_cpus() -> int:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        usable = os.cpu_count() or 1
    return max(1, min(usable, os.cpu_count() or 1))


WORKERS = _usable_cpus()  # size of the chunk pool; 1 runs every chunk in this process
_pool = None  # the persistent fork pool, made on first use by _map_chunks
_pool_owner = 0  # pid of the process that made it


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def _source(state: GaussianState, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(mean, Cholesky factor, seed): all a process needs to draw chunks of
    a Gaussian state. Raises ValueError on a degenerate covariance."""
    try:
        lower = np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not factorizable (degenerate state)") from exc
    return state.mean, lower, seed


def _blocks(source: tuple[np.ndarray, np.ndarray, int], k: int, rows: int):
    """The one sampling loop: yield chunk k's `rows` i.i.d. points, drawn from
    substream (seed, k) as arrays of at most BLOCK rows.

    Every block is drawn into the same two buffers, so a yielded block is a
    view that is valid only until the next one: copy what must outlive it.
    The mean is added one column at a time in place, which gives the same
    sums as `mean + z @ lower.T`.
    """
    mean, lower, seed = source
    rng = _chunk_rng(seed, k)
    z = np.empty((min(BLOCK, rows), mean.size))
    pts = np.empty_like(z)
    for start in range(0, rows, BLOCK):
        m = min(BLOCK, rows - start)
        rng.standard_normal(out=z[:m])
        np.matmul(z[:m], lower.T, out=pts[:m])
        for j, mu in enumerate(mean):
            pts[:m, j] += mu
        yield pts[:m]


def _chunk_rows(n: int, chunk_size: int) -> list[tuple[int, int]]:
    """(k, rows) of each chunk of n samples."""
    if n < 1 or chunk_size < 1:
        raise ValueError("n and chunk_size must be >= 1")
    return [(k, min(chunk_size, n - start)) for k, start in enumerate(range(0, n, chunk_size))]


def _pool_workers(n_chunks: int) -> int:
    """Processes that run n_chunks chunks: the pool's, or 1 where they run in
    this process. That is the case for one chunk or one CPU, without fork,
    in a daemonic process (a pool worker cannot have children) and in a
    forked copy of the pool's owner (the copy has no workers)."""
    if n_chunks < 2 or WORKERS < 2:
        return 1
    import multiprocessing  # only here: importing it adds to every `import erlweak`

    if (
        multiprocessing.current_process().daemon
        or "fork" not in multiprocessing.get_all_start_methods()
        or (_pool is not None and _pool_owner != os.getpid())
    ):
        return 1
    return min(WORKERS, n_chunks)


def _close_pool() -> None:
    global _pool
    if _pool is not None and _pool_owner == os.getpid():
        _pool.close()
        _pool.join()
        _pool = None


def _star(task):
    fn, args, k, rows = task
    return fn(args, k, rows)


def _map_chunks(fn, args, n: int, chunk_size: int):
    """fn(args, k, rows) for each chunk k of n samples, in chunk order.

    Chunks run on the persistent fork pool when `_pool_workers` allows, else
    with plain `map`. Workers are forked, so they start with this process's
    modules and need only the small `args` tuple; each returns a reduced
    chunk, not its points.
    """
    tasks = [(fn, args, k, rows) for k, rows in _chunk_rows(n, chunk_size)]
    if _pool_workers(len(tasks)) == 1:
        return map(_star, tasks)
    return _pooled(tasks)


def _pooled(tasks):
    """Yield the results of tasks run on the pool, in order. The pool is made
    on first use and closed and joined at exit. An interrupt or error while
    tasks are out terminates it instead: a worker killed by the interrupt
    loses its task, and joining would wait for that task forever. The next
    call makes a new pool."""
    global _pool, _pool_owner
    if _pool is None:
        import multiprocessing

        _pool = multiprocessing.get_context("fork").Pool(WORKERS)
        _pool_owner = os.getpid()
        atexit.register(_close_pool)
    try:
        yield from _pool.imap(_star, tasks)
    except BaseException:
        _pool.terminate()
        _pool = None
        raise


def chunk_plan(n: int, chunk_size: int = DEFAULT_CHUNK) -> tuple[int, int]:
    """(workers, chunks) with which the samplers run n samples."""
    chunks = len(_chunk_rows(n, chunk_size))
    return _pool_workers(chunks), chunks


def sample_state(
    state: GaussianState, n: int, seed: int, chunk_size: int = DEFAULT_CHUNK
) -> np.ndarray:
    """Draw n i.i.d. points from a Gaussian state as an (n, 2*n_modes) array.
    Runs in this process: workers would only copy the points back."""
    source = _source(state, seed)
    out = np.empty((n, state.mean.size))
    start = 0
    for k, rows in _chunk_rows(n, chunk_size):
        for pts in _blocks(source, k, rows):
            out[start : start + pts.shape[0]] = pts
            start += pts.shape[0]
    return out


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, se


def _experiment_chunk(args, k: int, rows: int) -> np.ndarray:
    """Chunk k of `run_weak_experiment`: its accepted (Q', P', A) rows, after
    checking at every point that the coupling left A and P unchanged."""
    source, smap, theta_A, theta_B, b, epsilon = args
    accepted = []
    for pts in _blocks(source, k, rows):
        evolved = apply_to_points(smap, pts)

        a_before = theta_A.value(pts[:, 0], pts[:, 1])
        a_after = theta_A.value(evolved[:, 0], evolved[:, 1])
        scale = np.maximum(1.0, np.abs(a_before))
        if np.max(np.abs(a_after - a_before) / scale) > REPEATABILITY_TOL:
            raise AssertionError("repeatability violated: A changed under coupling")
        if not np.array_equal(evolved[:, 3], pts[:, 3]):
            raise AssertionError("repeatability violated: P changed under coupling")

        b_val = theta_B.value(evolved[:, 0], evolved[:, 1])
        keep = np.flatnonzero(np.abs(b_val - b) <= epsilon)
        kept = np.empty((keep.size, 3))
        kept[:, :2] = evolved[keep, 2:]
        kept[:, 2] = a_after[keep]
        accepted.append(kept)
    return np.concatenate(accepted, axis=0)


def run_weak_experiment(
    config: ExperimentConfig, chunk_size: int = DEFAULT_CHUNK
) -> PostselectedEstimate:
    """Sample the joint state, evolve each point, postselect on
    |B(q', p') - b| <= epsilon, and estimate conditional means of
    Q', P' and A(q', p') with normal-theory standard errors.

    Per-point repeatability (A and P unchanged by the coupling) is asserted
    on every sampled point. Chunks run in parallel (see `_map_chunks`); their
    accepted rows are joined in chunk order before the means are taken.
    """
    epsilon = config.resolved_epsilon()
    n = config.n_samples
    args = (
        _source(config.joint(), config.seed),
        coupling_map(config.g, config.theta_A),
        config.theta_A,
        config.theta_B,
        config.b,
        epsilon,
    )
    rows = np.concatenate(list(_map_chunks(_experiment_chunk, args, n, chunk_size)), axis=0)
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
    (counts, p_edges, P_edges), exactly as `np.histogram2d` of all the draws
    with this `bins` and `hist_range` returns them. Draws outside hist_range
    are not counted: the automatic box (+-5 std of each marginal) misses
    about 1.15e-6 of them, so the total equals n_samples only for a range
    that holds them all. Counts are summed chunk by chunk, in parallel (see
    `_map_chunks`), so memory is O(BLOCK) rows per worker, not O(n_samples);
    each block is binned by `_bin_index`, not by a binary search. Raises
    ValueError for bins < 2, an empty or non-finite range, or a range too
    narrow for strictly increasing edges.
    """
    if isinstance(bins, int):
        bins = (bins, bins)
    if bins[0] < 2 or bins[1] < 2:
        raise ValueError("bins must be >= 2 in each dimension")
    if hist_range is not None:
        (p_lo, p_hi), (P_lo, P_hi) = hist_range
        if not all(map(math.isfinite, (p_lo, p_hi, P_lo, P_hi))):
            raise ValueError("histogram range must be finite")
        if not (p_lo < p_hi and P_lo < P_hi):
            raise ValueError("empty histogram range")
    if hist_range is None:
        mu, cov = config.evolved_joint().mean, config.evolved_joint().cov
        half_p = 5.0 * math.sqrt(cov[1, 1])
        half_P = 5.0 * math.sqrt(cov[3, 3])
        hist_range = ((mu[1] - half_p, mu[1] + half_p), (mu[3] - half_P, mu[3] + half_P))
    empty = np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows: checked below
        counts, p_edges, P_edges = np.histogram2d(empty, empty, bins=bins, range=hist_range)
    for edges in (p_edges, P_edges):
        if not np.isfinite(edges).all():
            raise ValueError("histogram edges must be finite")
        if not (np.diff(edges) > 0).all():
            raise ValueError("histogram range too narrow: edges must be strictly increasing")
    args = (
        _source(config.joint(), config.seed),
        coupling_map(config.g, config.theta_A),
        p_edges,
        P_edges,
    )
    for part in _map_chunks(_histogram_chunk, args, config.n_samples, chunk_size):
        counts += part  # whole numbers below 2**53: the float sum is exact
    return counts, p_edges, P_edges


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """`np.histogram`'s bin index of each x: searchsorted(edges, x, "right"),
    less 1 where x equals the last edge. So 1..n are the bins (the last one
    closed), 0 is below the first edge and n + 1 above the last edge or nan.

    edges are n + 1 finite, non-decreasing values. The arithmetic index
    (x - lo) * n / (hi - lo) is only a first guess. Each pass then moves an
    index down where x is below its lower edge and up where x is at or above
    its upper edge, until none moves (usually after one pass), so the result
    is exact however the edges were rounded. In `guarded`, index j runs from
    guarded[j] to guarded[j + 1]: index 0 from -inf, index n up to
    nextafter(hi, inf), which closes the last bin, and index n + 1 up to nan,
    which no x reaches.
    """
    n = edges.size - 1
    lo, hi = edges[0], edges[-1]
    guarded = np.concatenate(([-np.inf], edges[:-1], [np.nextafter(hi, np.inf), np.nan]))
    upper = guarded[1:]  # upper[j] == guarded[j + 1]
    with np.errstate(all="ignore"):  # overflow or 0 * inf: a guess of 0 or n + 1
        guess = x - lo
        guess *= n / (hi - lo)
    guess += 1.0
    np.fmin(guess, n + 1.0, out=guess)  # nan -> n + 1
    np.fmax(guess, 0.0, out=guess)
    j = guess.astype(np.intp)
    while True:
        up = x >= upper[j]
        down = x < guarded[j]
        if not (up.any() or down.any()):
            return j
        j += up
        j -= down


def _histogram_chunk(args, k: int, rows: int) -> np.ndarray:
    """Chunk k of `joint_momentum_histogram`: its (p', P) counts, binned as
    `np.histogram2d` bins them (see `_bin_index`)."""
    source, smap, p_edges, P_edges = args
    width = P_edges.size + 1  # bins of P plus one below and one above
    counts = np.zeros((p_edges.size + 1) * width, dtype=np.int64)
    for pts in _blocks(source, k, rows):
        p, P = apply_to_points(smap, pts)[:, 1::2].T.copy()  # contiguous p', P'
        flat = _bin_index(p, p_edges) * width + _bin_index(P, P_edges)
        counts += np.bincount(flat, minlength=counts.size)
    return counts.reshape(-1, width)[1:-1, 1:-1]


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
    moments of each chunk's (A, Q') are computed in parallel (see
    `_map_chunks`) and merged in chunk order, so memory is O(chunk_size),
    not O(n_samples).
    """
    smap = coupling_map(config.g, config.theta_A)
    out = []
    for delta_Q in delta_Q_sequence:
        if delta_Q <= 0:
            raise ValueError("delta_Q must be positive")
        joint = tensor(config.particle(), make_pure_device(delta_Q, config.mu_P, config.omega))
        args = (_source(joint, config.seed), smap, config.theta_A)
        n, mean, scatter = 0, np.zeros(2), np.zeros((2, 2))
        for m, chunk_mean, chunk_scatter in _map_chunks(
            _correlation_chunk, args, config.n_samples, chunk_size
        ):
            delta = chunk_mean - mean
            # merge the chunk's centred moments (Chan, Golub & LeVeque 1983)
            scatter += chunk_scatter + np.outer(delta, delta) * (n * m / (n + m))
            n += m
            mean += delta * (m / n)
        if not (scatter[0, 0] > 0 and scatter[1, 1] > 0):
            raise ValueError("degenerate variance in correlation estimate")
        out.append(float(np.clip(scatter[0, 1] / math.sqrt(scatter[0, 0] * scatter[1, 1]), -1, 1)))
    return out


def _correlation_chunk(args, k: int, rows: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Chunk k of `strong_measurement_correlation`: (rows, mean, centred
    scatter matrix) of its (A, Q'), computed over the whole chunk."""
    source, smap, theta_A = args
    aq = np.empty((rows, 2))
    start = 0
    for pts in _blocks(source, k, rows):
        stop = start + pts.shape[0]
        aq[start:stop, 0] = theta_A.value(pts[:, 0], pts[:, 1])
        aq[start:stop, 1] = apply_to_points(smap, pts)[:, 2]
        start = stop
    mean = aq.mean(axis=0)
    centred = aq - mean
    return rows, mean, centred.T @ centred
