"""Monte Carlo over classical phase points: sample, evolve, postselect.

Sampling is chunked with one substream per chunk, keyed by (seed, chunk
index), so the sample stream and every derived estimate are bit-identical
however the chunks are spread over processes. Each sampler is a per-chunk
function of (args, k, rows) plus a reduction of the chunk results in chunk
order: the histogram sums counts, and every estimate merges the chunks'
`_moments` (count, mean, centred scatter) with `_merge`, so no chunk sends
its rows back. `_run_chunks` runs and reduces the chunks within one call,
on a persistent fork pool of `WORKERS` processes (the CPUs this process may
use), or in this process where a pool cannot help or cannot be used.

Points are laid out (coordinates, points), one coordinate per row. Inside
a chunk, `_blocks` draws the substream in blocks of `BLOCK` rows z of
standard normals and yields factor @ z^T + offset, for a factor that each
sampler builds once per call from the Cholesky factor L of the joint state
(see `_source`). `sample_state` and the rejection sampler take the points
themselves (factor L); the rejection sampler then evolves, checks and
windows every point in block buffers. The histogram and the correlation
draw only the two coordinates they read, (p', P') and (A, Q'): with R their
2 x 4 read-out, which holds the coupling's rows, the factor is R L. Every
block of a chunk reuses the same buffers, so a yielded block is valid only
until the next one. A chunk keeps at most the values its moments need (the
accepted (Q', P', A), or (A, Q')), so memory is O(chunk) per worker at any
acceptance; only `sample_state` materialises n points. The histogram bins
each block by an arithmetic index corrected against the edges
(`_bin_index`), with counts equal to `np.histogram2d`'s exactly, and counts
a buffer of at least `BLOCK` flat cell indices at a time.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import math
import os

import numpy as np

from .analytic import oracle_postselected_means
from .dynamics import SymplecticMap, apply_to_points, apply_to_state, coupling_map
from .states import (
    GaussianState,
    Quadrature,
    make_particle,
    make_pure_device,
    quadrature_moments,
    tensor,
)

DEFAULT_CHUNK = 1 << 18
# Rows drawn at a time inside a chunk. Every product of a block with a 4 x 4
# or 4 x 2 factor then stays below OpenBLAS's threading threshold
# (M*N*K < 2**18), so pool workers do not each start BLAS threads and
# oversubscribe the cores. Blocks drawn from one Generator give the same
# stream and points as one draw per chunk.
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
# Windows with h (|c| + 1) at most this (h the half-width, c the centre, in
# std of B) are summed as a series: there the Mills-ratio difference cancels
# and loses about 1e-16 |c| / h relative. Four terms reach 1e-18 there.
_NARROW_WINDOW = 0.05
_NARROW_TERMS = 4
_OVERFLOW = "the coupled state overflows or underflows: a moment of it, its parts or B is out of range"


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
        for name, value in vars(self).items():  # the fields, as nothing is cached yet
            value = getattr(value, "theta", value)  # a Quadrature's angle
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.sigma > 0:
            raise ValueError("particle.sigma must be positive")
        if not self.delta_Q > 0:
            raise ValueError("device.delta_Q must be positive")
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
    def _evolved(self) -> tuple[GaussianState, float, float, GaussianState, SymplecticMap]:
        """(evolved joint state, mean of B, variance of B, joint state before
        the coupling, coupling map), built and checked once: the one coupled
        state that every route, oracle or sampler, reads. Raises
        OverflowError where a finite config overflows or underflows any of
        them, or the particle and device states they are made of."""
        try:  # Python-float powers of the checked fields, and the factories' finite check
            joint = self.joint()
        except (ArithmeticError, ValueError) as exc:
            raise OverflowError(_OVERFLOW) from exc
        smap = coupling_map(self.g, self.theta_A)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            evolved = apply_to_state(smap, joint)
            moments = quadrature_moments(evolved, 0, self.theta_B)
        values = [*evolved.mean.tolist(), *evolved.cov.ravel().tolist(), *moments]
        if not all(map(math.isfinite, values)):
            raise OverflowError(_OVERFLOW)
        return evolved, *moments, joint, smap

    def evolved_joint(self) -> GaussianState:
        """The joint state after the coupling, built once per config and
        shared between callers (its mean and cov are read-only)."""
        return self._evolved[0]

    @property
    def delta_P(self) -> float:
        """Momentum spread of the pure device: sqrt(1 + omega^2) / (2 delta_Q)."""
        return math.sqrt(1.0 + self.omega**2) / (2.0 * self.delta_Q)

    def __getstate__(self):
        # the coupled state is a cache: pickles carry only the fields
        return {k: v for k, v in self.__dict__.items() if k != "_evolved"}

    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return ADAPTIVE_EPSILON_FRACTION * math.sqrt(self._evolved[2])


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
_pool = None  # the persistent fork pool, made on first use by _run_chunks
_pool_owner = 0  # pid of the process that made it


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def _source(
    state: GaussianState, seed: int, readout: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """(offset, factor, seed): all a process needs to draw chunks of a
    Gaussian state with `_blocks`. L is the Cholesky factor of the
    covariance. Without `readout`, the blocks are the points themselves,
    mean + L z (offset the mean as a column, factor L). With a
    (d, 2*n_modes) `readout` matrix R they are the read-out coordinates
    R mean + R L z, folded into one product per block (offset R mean,
    factor R L). Raises ValueError on a degenerate covariance."""
    try:
        lower = np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not factorizable (degenerate state)") from exc
    if readout is None:
        return state.mean[:, None], lower, seed
    return (readout @ state.mean)[:, None], readout @ lower, seed


def _blocks(source: tuple[np.ndarray, np.ndarray, int], k: int, rows: int):
    """The one sampling loop: yield chunk k's `rows` i.i.d. draws from
    substream (seed, k), at most BLOCK at a time, as (d, draws) arrays
    factor @ z^T + offset (see `_source`). z holds one row of standard
    normals per draw, drawn in one call per block.

    Every block is drawn into the same two buffers, so a yielded block is a
    view that is valid only until the next one: copy what must outlive it.
    """
    offset, factor, seed = source
    d, width = factor.shape
    rng = _chunk_rng(seed, k)
    z = np.empty((min(BLOCK, rows), width))
    buf = np.empty(z.shape[0] * d)
    for start in range(0, rows, BLOCK):
        m = min(BLOCK, rows - start)
        rng.standard_normal(out=z[:m])
        out = np.matmul(factor, z[:m].T, out=buf[: d * m].reshape(d, m))
        out += offset
        yield out


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


def _run_chunks(fn, args, n: int, chunk_size: int, reduce):
    """reduce(results) of fn(args, k, rows) for each chunk k of n samples,
    the results streamed in chunk order: the one chunk runner.

    Chunks run with plain `map` here, or on the persistent fork pool when
    `_pool_workers` allows: forked workers start with this process's modules,
    take the small `args` tuple and return a reduced chunk, not its points.
    The pool is made on first use and closed and joined at exit. Its
    workers ignore SIGINT, so Ctrl-C, which the terminal sends to the whole
    foreground process group, interrupts only this process: a worker killed
    by it would lose its task or its place in the pool, and joining would
    then wait forever. An interrupt or error anywhere in the run, while the
    pool is made, in a worker or in `reduce`, terminates the pool before
    this call returns; the next call makes a new one."""
    global _pool, _pool_owner
    tasks = [(fn, args, k, rows) for k, rows in _chunk_rows(n, chunk_size)]
    if _pool_workers(len(tasks)) == 1:
        return reduce(map(_star, tasks))
    try:
        if _pool is None:
            import multiprocessing
            import signal

            _pool = multiprocessing.get_context("fork").Pool(
                WORKERS, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
            )
            if not _pool_owner:  # once, after multiprocessing's exit hook, so it runs first
                atexit.register(_close_pool)
            _pool_owner = os.getpid()
        return reduce(_pool.imap(_star, tasks))
    except BaseException:
        if _pool is not None:
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
    """Draw n i.i.d. points from a Gaussian state as a (2*n_modes, n) array.
    Runs in this process: workers would only copy the points back."""
    source = _source(state, seed)
    out = np.empty((state.mean.size, n))
    for k, rows in _chunk_rows(n, chunk_size):
        _fill(source, k, out[:, k * chunk_size : k * chunk_size + rows])
    return out


def _fill(source, k: int, out: np.ndarray) -> np.ndarray:
    """Chunk k's draws copied block by block into `out`, a (d, rows) array."""
    start = 0
    for block in _blocks(source, k, out.shape[1]):
        out[:, start : start + block.shape[1]] = block
        start += block.shape[1]
    return out


def _moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, centred scatter matrix) of the draws in a (d, count)
    array, one coordinate per row: the part of a chunk that `_merge` merges.
    Centres `values` in place, so a chunk needs no second copy of its draws.
    An empty array gives count 0, which `_merge` skips."""
    d, count = values.shape
    if count == 0:
        return 0, np.zeros(d), np.zeros((d, d))
    mean = values.mean(axis=1)
    values -= mean[:, None]
    return count, mean, values @ values.T


def _merge(parts) -> tuple[int, np.ndarray, np.ndarray]:
    """The one reduction of sampled moments: merge `_moments` parts in chunk
    order into the (count, mean, centred scatter) of all their draws (Chan,
    Golub & LeVeque 1983). Empty parts are skipped, so none gives count 0."""
    n, mean, scatter = 0, 0.0, 0.0
    for m, part_mean, part_scatter in parts:
        if m == 0:
            continue
        delta = part_mean - mean
        scatter = scatter + (part_scatter + np.outer(delta, delta) * (n * m / (n + m)))
        n += m
        mean = mean + delta * (m / n)
    return n, mean, scatter


def _quadrature_into(
    quad: Quadrature, q: np.ndarray, p: np.ndarray, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """quad.value(q, p) written into `out`, rounded as quad.value rounds it;
    `work` is scratch of the same shape."""
    np.multiply(q, math.cos(quad.theta), out=out)
    np.multiply(p, math.sin(quad.theta), out=work)
    return np.add(out, work, out=out)


def _experiment_chunk(args, k: int, rows: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Chunk k of `run_weak_experiment`: the `_moments` of its accepted
    (Q', P', A), after checking at every point that the coupling left A and
    P unchanged. Each block is evolved, checked and windowed in buffers the
    chunk allocates once; the accepted values fill a (3, m) buffer that
    starts at one block and doubles when full, so a chunk that accepts a few
    per cent of its draws holds no chunk-sized buffer."""
    source, smap, theta_A, theta_B, b, epsilon = args
    size = min(BLOCK, rows)
    evolved_buf = np.empty(4 * size)
    a_before_buf, a_after_buf, b_buf, work_buf = np.empty((4, size))
    same_buf = np.empty(size, dtype=bool)
    accepted = np.empty((3, size))
    n_acc = 0
    for pts in _blocks(source, k, rows):
        m = pts.shape[1]
        evolved = apply_to_points(smap, pts, out=evolved_buf[: 4 * m].reshape(4, m))
        work = work_buf[:m]
        a_before = _quadrature_into(theta_A, pts[0], pts[1], a_before_buf[:m], work)
        a_after = _quadrature_into(theta_A, evolved[0], evolved[1], a_after_buf[:m], work)

        # max |A' - A| / max(1, |A|) over the block, as one expression would round it
        scale = np.maximum(np.abs(a_before, out=b_buf[:m]), 1.0, out=b_buf[:m])
        shift = np.abs(np.subtract(a_after, a_before, out=work), out=work)
        if np.max(np.divide(shift, scale, out=work)) > REPEATABILITY_TOL:
            raise AssertionError("repeatability violated: A changed under coupling")
        if not np.equal(evolved[3], pts[3], out=same_buf[:m]).all():
            raise AssertionError("repeatability violated: P changed under coupling")

        b_val = _quadrature_into(theta_B, evolved[0], evolved[1], b_buf[:m], work)
        distance = np.abs(np.subtract(b_val, b, out=b_val), out=b_val)
        keep = np.flatnonzero(distance <= epsilon)
        stop = n_acc + keep.size
        if stop > accepted.shape[1]:
            grown = np.empty((3, min(rows, 2 * stop)))
            grown[:, :n_acc] = accepted[:, :n_acc]
            accepted = grown
        accepted[:2, n_acc:stop] = evolved[2:, keep]
        accepted[2, n_acc:stop] = a_after[keep]
        n_acc = stop
    return _moments(accepted[:, :n_acc])


def run_weak_experiment(
    config: ExperimentConfig, chunk_size: int = DEFAULT_CHUNK
) -> PostselectedEstimate:
    """Sample the joint state, evolve each point, postselect on
    |B(q', p') - b| <= epsilon, and estimate conditional means of
    Q', P' and A(q', p') with normal-theory standard errors.

    Per-point repeatability (A and P unchanged by the coupling) is asserted
    on every sampled point. Chunks run in parallel (see `_run_chunks`) and
    return the moments of their accepted draws, which `_merge` merges in
    chunk order, so memory is O(chunk_size) at any acceptance. Each SE is
    sqrt(scatter_ii / ((n - 1) n)) for n accepted draws.
    """
    epsilon = config.resolved_epsilon()
    n = config.n_samples
    *_, joint, smap = config._evolved
    args = (
        _source(joint, config.seed),
        smap,
        config.theta_A,
        config.theta_B,
        config.b,
        epsilon,
    )
    n_acc, mean, scatter = _run_chunks(_experiment_chunk, args, n, chunk_size, _merge)
    rate = n_acc / n
    if n_acc < 2:
        raise InsufficientAcceptanceError(rate)
    se = np.sqrt(np.diag(scatter) / ((n_acc - 1) * n_acc))
    return PostselectedEstimate(*mean.tolist(), *se.tolist(), n_acc, n, rate, epsilon)


def oracle_estimate(config: ExperimentConfig) -> tuple[float, float, float]:
    """Point-conditioned (epsilon -> 0) oracle values (Q, P, A) for a config,
    read off one conditioning of the evolved joint."""
    return oracle_postselected_means(
        config.evolved_joint(), config.theta_A, config.theta_B, config.b
    )


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


def _normal_window(centre: float, half_width: float) -> tuple[float, float]:
    """(P(|Z - c| <= h), E[Z | |Z - c| <= h]) for a standard normal Z, a
    window centre c and a half-width h > 0.

    Windows are reflected so that c >= 0. A window that straddles 0, with
    lo = c - h and hi = c + h, adds two erf terms of the same sign. A narrow
    window, h (c + 1) <= _NARROW_WINDOW, is summed as a series about c,

        P = 2 h pdf(c) S,  S = sum_k He_2k(c) h^2k / (2k + 1)!,
        E = exp(-h^2 / 2) sinh(h c) / (h S),

    (He the probabilists' Hermite polynomials), so no two nearby values are
    subtracted. Any other window lies in the upper tail and factors out
    pdf(lo) through the Mills ratio, so cdf(hi) - cdf(lo) never cancels. The
    mean's numerator pdf(lo) - pdf(hi) comes from expm1 and stays finite
    where the probability underflows. The mean is nan when lo and hi round
    to one value: the window is empty in double precision.
    """
    if centre < 0.0:
        prob, mean = _normal_window(-centre, half_width)
        return prob, -mean
    c, h = centre, half_width
    lo, hi = c - h, c + h
    if not lo < hi:
        return 0.0, math.nan
    exponent = -2.0 * h * c  # log(pdf(hi) / pdf(lo))
    drop = -math.expm1(exponent)  # 1 - pdf(hi) / pdf(lo)
    if lo < 0.0:
        prob = 0.5 * (math.erf(hi / _SQRT2) + math.erf(-lo / _SQRT2))
        return prob, _pdf(lo) * drop / prob
    if h * (c + 1.0) <= _NARROW_WINDOW:
        h2 = h * h
        he_prev, he = 1.0, c  # He_(n-2), He_(n-1)
        total, coef = 1.0, 1.0  # S so far, h^n / (n + 1)!
        for n in range(2, 2 * _NARROW_TERMS + 1, 2):
            he_n = c * he - (n - 1) * he_prev
            he_prev, he = he_n, c * he_n - n * he
            coef *= h2 / (n * (n + 1))
            total += he_n * coef
        return 2.0 * h * _pdf(c) * total, math.exp(-0.5 * h2) * math.sinh(h * c) / (h * total)
    tail = _mills(lo) - math.exp(exponent) * _mills(hi)
    return _pdf(lo) * tail, drop / tail


def _b_window(config: ExperimentConfig) -> tuple[float, float]:
    """(probability, E[B | window]) for the config's window
    |B - b| <= resolved epsilon under the evolved state."""
    _, mu_B, var_B, _, _ = config._evolved
    s = math.sqrt(var_B)
    prob, shift = _normal_window((config.b - mu_B) / s, config.resolved_epsilon() / s)
    return prob, mu_B + s * shift


def windowed_oracle(config: ExperimentConfig) -> tuple[float, float, float]:
    """Exact conditional means (Q, P, A) given the window |B - b| <= epsilon.

    For jointly Gaussian (X, B), E[X | B = b'] is linear in b', so
    E[X | window] = E[X | B = E[B | window]]: the point oracle at the
    truncated-normal mean of B. This is the true expectation of the Monte
    Carlo estimator and quantifies the O(epsilon^2) window bias exactly.
    Finite however far into the tail the window lies; raises only for a
    window that is empty in double precision.
    """
    prob, mean_B = _b_window(config)
    if not math.isfinite(mean_B):
        raise InsufficientAcceptanceError(prob)
    return oracle_postselected_means(config.evolved_joint(), config.theta_A, config.theta_B, mean_B)


def acceptance_probability(config: ExperimentConfig) -> float:
    """Exact probability of the postselection window under the evolved state.
    Keeps its relative accuracy in the tails until it underflows (about
    38 std of B from the mean)."""
    return _b_window(config)[0]


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
    `_run_chunks`), so memory is O(BLOCK) rows per worker, not O(n_samples);
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
    # (p', P') = rows 1 and 3 of the coupling map, folded into the draw
    *_, joint, smap = config._evolved
    args = (_source(joint, config.seed, smap.matrix[1::2]), p_edges, P_edges)
    # the int64 chunk counts summed, then added once: whole numbers below 2**53, so exact
    counts += _run_chunks(_histogram_chunk, args, config.n_samples, chunk_size, sum)
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
    """Chunk k of `joint_momentum_histogram`: its (p', P') counts, binned as
    `np.histogram2d` bins them (see `_bin_index`). Flat cell indices are
    gathered in a buffer of max(BLOCK, cells) entries and counted by one
    `bincount` each time it fills, so the O(cells) cost of a count is paid
    once per at least `cells` draws."""
    source, p_edges, P_edges = args
    width = P_edges.size + 1  # bins of P plus one below and one above
    cells = (p_edges.size + 1) * width
    counts = np.zeros(cells, dtype=np.int64)
    flat = np.empty(min(rows, max(BLOCK, cells)), dtype=np.intp)
    filled = 0
    for p, P in _blocks(source, k, rows):
        if filled + p.size > flat.size:
            counts += np.bincount(flat[:filled], minlength=cells)
            filled = 0
        index = flat[filled : filled + p.size]
        np.multiply(_bin_index(p, p_edges), width, out=index)
        index += _bin_index(P, P_edges)
        filled += p.size
    counts += np.bincount(flat[:filled], minlength=cells)
    return counts.reshape(-1, width)[1:-1, 1:-1]


def exact_strong_correlation(delta_Q: float, config: ExperimentConfig) -> float:
    """Closed-form Pearson correlation between the device pointer Q' and the
    particle observable A, for a pure device of position spread delta_Q."""
    var_A = quadrature_moments(config.particle(), 0, config.theta_A)[1]
    g = config.g
    return g * math.sqrt(var_A) / math.sqrt(delta_Q**2 + g**2 * var_A)


def strong_measurement_correlation(
    delta_Q_sequence,
    config: ExperimentConfig,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[float]:
    """Sampled Pearson correlation between pointer position Q' and the
    particle observable A, for each device spread in a decreasing sequence.

    Tends to 1 as delta_Q -> 0: the strong-measurement limit. The moments
    of each chunk's (A, Q') are computed in parallel (see `_run_chunks`) and
    merged by `_merge`, so memory is O(chunk_size), not O(n_samples).
    """
    out = []
    for delta_Q in delta_Q_sequence:
        *_, joint, smap = dataclasses.replace(config, delta_Q=delta_Q)._evolved
        # (A, Q'): the quadrature A and row 2 of the coupling map, folded into the draw
        readout = np.array([[*config.theta_A.vector, 0.0, 0.0], smap.matrix[2]])
        source = _source(joint, config.seed, readout)
        _, _, scatter = _run_chunks(_correlation_chunk, source, config.n_samples, chunk_size, _merge)
        if not (scatter[0, 0] > 0 and scatter[1, 1] > 0):
            raise ValueError("degenerate variance in correlation estimate")
        out.append(float(np.clip(scatter[0, 1] / math.sqrt(scatter[0, 0] * scatter[1, 1]), -1, 1)))
    return out


def _correlation_chunk(source, k: int, rows: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Chunk k of `strong_measurement_correlation`: the `_moments` of its
    (A, Q'), computed over the whole chunk."""
    return _moments(_fill(source, k, np.empty((2, rows))))
