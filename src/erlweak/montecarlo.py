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
themselves (factor L); the rejection sampler then evolves and checks
every point once in block buffers and windows it for each of the configs
that share the draws (`_postselect`). The histogram and the correlation
draw only the two coordinates they read, (p', P') and (A, Q'): with R their
2 x 4 read-out, which holds the coupling's rows, the factor is R L. Every
block of a chunk reuses the same buffers, so a yielded block is valid only
until the next one. A chunk keeps at most the values its moments need (the
accepted (Q', P', A), or (A, Q')), so memory is O(chunk) per worker at any
acceptance; only `sample_state` materialises n points. The histogram bins
each block by an arithmetic index, trusted where the edges' rounding margin
proves it, and bins only the draws next to an edge by numpy's own binary
search of the edges (`_bins`), so its counts equal `np.histogram2d`'s
exactly; it counts a buffer of at least `BLOCK` flat cell indices at a time.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import itertools  # already loaded by numpy (and at start-up): binding it costs no import
import math
import os
from typing import NamedTuple

import numpy as np

from .analytic import SingularConditioningError, _conjugate_spread, _read_means, _regression
from .dynamics import SYMPLECTIC_TOL, SymplecticMap, _invariance_deviation
from .dynamics import apply_to_points, apply_to_state, coupling_map
from .states import (
    GaussianState,
    Quadrature,
    _finite,
    make_particle,
    make_pure_device,
    quadrature_moments,
    quadrature_vector,
    tensor,
)

DEFAULT_CHUNK = 1 << 18
# Rows drawn at a time inside a chunk. Every product of a block with a 4 x 4
# or 4 x 2 factor then stays below OpenBLAS's threading threshold
# (M*N*K < 2**18), so pool workers do not each start BLAS threads and
# oversubscribe the cores. Blocks drawn from one Generator give the same
# stream and points as one draw per chunk.
BLOCK = 1 << 13
# Windows that share one sampling pass. Each keeps its chunk's accepted
# (Q', P', A), up to 6.3 MB for a default chunk at full acceptance, so a
# pass may hold this many times the values of a one-window pass. On an
# 8-point b sweep at n = 2**21 with 2 workers (2-vCPU VM), a cap of 4
# against 8 took the same 1.1 s at full acceptance and 0.72 against 0.50 s
# at 4 %, for a peak RSS of 67 against 88 MB at full acceptance (46 MB with
# one window per pass).
WINDOWS_PER_PASS = 4
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


class EmptyWindowError(InsufficientAcceptanceError):
    """The postselection window is empty in double precision, so it has no
    exact acceptance or windowed oracle, whatever the sampler accepted."""

    def __init__(self):
        RuntimeError.__init__(
            self,
            "the postselection window |B - b| <= epsilon is empty in double precision: "
            "its ends round to one value in std of B, so it has no windowed oracle",
        )
        self.acceptance_rate = 0.0


class LostPrecisionError(ArithmeticError):
    """The coupled state lost its precision: the variance of B, positive in
    exact arithmetic, cancels to a number that is not."""


class _Coupled(NamedTuple):
    """The coupled state of a config: the evolved joint state, its
    `_regression` on B (the mean and variance of B, and the gain), the
    read-out vector of A, the joint state before the coupling, and the
    coupling map."""

    evolved: GaussianState
    mu_B: float
    var_B: float
    gain: np.ndarray
    readout_A: np.ndarray
    joint: GaussianState
    smap: SymplecticMap


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
    def _evolved(self) -> _Coupled:
        """The `_Coupled` state, built and checked once: the one coupled
        state that every route, oracle or sampler, reads, with its one
        regression on B and the one read-out vector of A and of B. Raises
        OverflowError where a finite config overflows or underflows any of
        them, or the particle and device states they are made of, and
        LostPrecisionError where the variance of B, positive in exact
        arithmetic, rounds to a number that is not (-inf included): the
        evolved covariance is then not positive semidefinite."""
        try:  # Python-float powers of the checked fields, and the factories' finite check
            joint = self.joint()
        except (ArithmeticError, ValueError) as exc:
            raise OverflowError(_OVERFLOW) from exc
        smap = coupling_map(self.g, self.theta_A)
        readout_B = quadrature_vector(2, 0, self.theta_B)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            evolved = apply_to_state(smap, joint)
            if not (_finite(evolved.mean) and _finite(evolved.cov)):
                raise OverflowError(_OVERFLOW)
            try:
                mu_B, var_B, gain = _regression(evolved.mean, evolved.cov, readout_B)
            except SingularConditioningError as exc:
                raise LostPrecisionError(
                    "the coupled state lost its precision: the variance of B, "
                    "positive in exact arithmetic, cancels to a number that is not"
                ) from exc
        mu_B, var_B = float(mu_B), float(var_B)
        if not (math.isfinite(mu_B) and math.isfinite(var_B)):
            raise OverflowError(_OVERFLOW)
        readout_A = quadrature_vector(2, 0, self.theta_A)
        return _Coupled(evolved, mu_B, var_B, gain, readout_A, joint, smap)

    @functools.cached_property
    def _window(self) -> tuple[float, float]:
        """(probability, E[B | window]) for the window |B - b| <= resolved
        epsilon under the evolved state."""
        coupled = self._evolved
        s = math.sqrt(coupled.var_B)
        prob, shift = _normal_window((self.b - coupled.mu_B) / s, self.resolved_epsilon() / s)
        return prob, coupled.mu_B + s * shift

    def evolved_joint(self) -> GaussianState:
        """The joint state after the coupling, built once per config and
        shared between callers (its mean and cov are read-only)."""
        return self._evolved.evolved

    @property
    def delta_P(self) -> float:
        """Momentum spread of the pure device: sqrt(1 + omega^2) / (2 delta_Q)."""
        return _conjugate_spread(self.delta_Q, self.omega)

    def __getstate__(self):
        # the coupled state, regression and window are caches: pickles carry only the fields
        return {f.name: self.__dict__[f.name] for f in dataclasses.fields(self)}

    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return ADAPTIVE_EPSILON_FRACTION * math.sqrt(self._evolved.var_B)


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
    An empty array gives count 0, which `_merge` skips. A sum that
    overflows gives inf or nan, which `_merge` reports."""
    d, count = values.shape
    if count == 0:
        return 0, np.zeros(d), np.zeros((d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=1)
        values -= mean[:, None]
        return count, mean, values @ values.T


def _merge(parts) -> tuple[int, np.ndarray, np.ndarray]:
    """The one reduction of sampled moments: merge `_moments` parts in chunk
    order into the (count, mean, centred scatter) of all their draws (Chan,
    Golub & LeVeque 1983). Empty parts are skipped, so none gives count 0.
    Raises OverflowError where the mean or scatter of the parts, or of
    their merge, is not finite."""
    n, mean, scatter = 0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for m, part_mean, part_scatter in parts:
            if m == 0:
                continue
            delta = part_mean - mean
            scatter = scatter + (part_scatter + np.outer(delta, delta) * (n * m / (n + m)))
            n += m
            mean = mean + delta * (m / n)
    if not (np.isfinite(mean).all() and np.isfinite(scatter).all()):
        raise OverflowError(
            "the sampled moments overflow: a sum of the draws or of their squares is out of range"
        )
    return n, mean, scatter


# The fields that fix a config's draws, its coupled points and their check:
# all but the window's. Configs whose draw fields are equal share one
# sampling pass (see `_postselect`).
_DRAW_FIELDS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("theta_B", "b", "epsilon")
)


def _draw_fields(config: ExperimentConfig) -> tuple:
    return tuple(getattr(config, name) for name in _DRAW_FIELDS)


def _sampling_passes(configs):
    """The configs, in order, in the runs that `_postselect` samples in one
    pass each: consecutive configs with equal draw fields, at most
    WINDOWS_PER_PASS at a time."""
    for _, run in itertools.groupby(configs, _draw_fields):
        run = list(run)
        for start in range(0, len(run), WINDOWS_PER_PASS):
            yield run[start : start + WINDOWS_PER_PASS]


def _experiment_chunk(args, k: int, rows: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Chunk k of `_postselect`: for each window (theta_B, b, epsilon), the
    `_moments` of its accepted (Q', P', A), after checking at every point
    that the coupling left A and P unchanged. Each block is drawn, evolved
    and checked once, in buffers the chunk allocates once, then windowed by
    each window in turn; a window's accepted values fill a (3, m) buffer that
    starts at one block and doubles when full, so a chunk that accepts a few
    per cent of its draws holds no chunk-sized buffer."""
    source, smap, theta_A, windows = args
    size = min(BLOCK, rows)
    evolved_buf = np.empty(4 * size)
    work_buf = np.empty((5, size))
    accepted = [np.empty((3, size)) for _ in windows]
    n_acc = [0] * len(windows)
    for pts in _blocks(source, k, rows):
        m = pts.shape[1]
        evolved = apply_to_points(smap, pts, out=evolved_buf[: 4 * m].reshape(4, m))
        if not _invariance_deviation(theta_A, pts, evolved, work_buf[:, :m]) <= SYMPLECTIC_TOL:
            raise AssertionError("repeatability violated: A or P changed under coupling")
        for i, (theta_B, b, epsilon) in enumerate(windows):
            b_val = np.multiply(evolved[0], math.cos(theta_B.theta), out=work_buf[0, :m])
            b_val += np.multiply(evolved[1], math.sin(theta_B.theta), out=work_buf[1, :m])
            distance = np.abs(np.subtract(b_val, b, out=b_val), out=b_val)
            keep = np.flatnonzero(distance <= epsilon)
            stop = n_acc[i] + keep.size
            if stop > accepted[i].shape[1]:
                grown = np.empty((3, min(rows, 2 * stop)))
                grown[:, : n_acc[i]] = accepted[i][:, : n_acc[i]]
                accepted[i] = grown
            accepted[i][:2, n_acc[i] : stop] = evolved[2:, keep]
            accepted[i][2, n_acc[i] : stop] = theta_A.value(evolved[0, keep], evolved[1, keep])
            n_acc[i] = stop
    return [_moments(values[:, :n]) for values, n in zip(accepted, n_acc)]


def _postselect(configs: list[ExperimentConfig], chunk_size: int = DEFAULT_CHUNK) -> list[tuple]:
    """The one rejection sampler: one pass over the draws that configs with
    equal draw fields (see `_draw_fields`) share, which the first config's
    fields fix. Each config's coupled state is built and checked first, as
    its own pass would; then each draw is coupled and checked once, and
    windowed by every config. Gives each config's window as (accepted
    count, mean, centred scatter, n, epsilon), its chunk moments merged in
    chunk order, so each has the bits of its own one-window pass (see
    `_estimate`). Memory is O(chunk_size) per window, so callers pass at
    most WINDOWS_PER_PASS configs (see `_sampling_passes`)."""
    first, n = configs[0], configs[0].n_samples
    coupled = [config._evolved for config in configs]  # each built and checked, as alone
    windows = tuple((config.theta_B, config.b, config.resolved_epsilon()) for config in configs)
    args = (_source(coupled[0].joint, first.seed), coupled[0].smap, first.theta_A, windows)

    def merge_each(results):  # each window's parts, merged in chunk order
        return [_merge(parts) for parts in zip(*results)]

    merged = _run_chunks(_experiment_chunk, args, n, chunk_size, merge_each)
    return [(*moments, n, epsilon) for moments, (_, _, epsilon) in zip(merged, windows)]


def _estimate(
    n_acc: int, mean: np.ndarray, scatter: np.ndarray, n: int, epsilon: float
) -> PostselectedEstimate:
    """The PostselectedEstimate of one window of `_postselect`. Raises
    InsufficientAcceptanceError where it accepted fewer than 2 of n draws."""
    rate = n_acc / n
    if n_acc < 2:
        raise InsufficientAcceptanceError(rate)
    se = np.sqrt(np.diag(scatter) / ((n_acc - 1) * n_acc))
    return PostselectedEstimate(*mean.tolist(), *se.tolist(), n_acc, n, rate, epsilon)


def run_weak_experiment(
    config: ExperimentConfig, chunk_size: int = DEFAULT_CHUNK
) -> PostselectedEstimate:
    """Sample the joint state, evolve each point, postselect on
    |B(q', p') - b| <= epsilon, and estimate conditional means of
    Q', P' and A(q', p') with normal-theory standard errors: the one-window
    pass of `_postselect`.

    Per-point repeatability (A and P unchanged by the coupling) is asserted
    on every sampled point. Chunks run in parallel (see `_run_chunks`) and
    return the moments of their accepted draws, which `_merge` merges in
    chunk order, so memory is O(chunk_size) at any acceptance. Each SE is
    sqrt(scatter_ii / ((n - 1) n)) for n accepted draws.
    """
    (window,) = _postselect([config], chunk_size)
    return _estimate(*window)


def oracle_estimate(config: ExperimentConfig) -> tuple[float, float, float]:
    """Point-conditioned (epsilon -> 0) oracle values (Q, P, A) for a config,
    read off the config's one regression of the evolved joint on B: the
    bits of `oracle_postselected_means`."""
    coupled = config._evolved
    return _read_means(coupled.evolved, coupled.mu_B, coupled.gain, coupled.readout_A, config.b)


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


def windowed_oracle(config: ExperimentConfig) -> tuple[float, float, float]:
    """Exact conditional means (Q, P, A) given the window |B - b| <= epsilon.

    For jointly Gaussian (X, B), E[X | B = b'] is linear in b', so
    E[X | window] = E[X | B = E[B | window]]: the point oracle at the
    truncated-normal mean of B. This is the true expectation of the Monte
    Carlo estimator and quantifies the O(epsilon^2) window bias exactly.
    Finite however far into the tail the window lies; raises
    EmptyWindowError only for a window that is empty in double precision.
    """
    mean_B, coupled = config._window[1], config._evolved
    if not math.isfinite(mean_B):
        raise EmptyWindowError()
    return _read_means(coupled.evolved, coupled.mu_B, coupled.gain, coupled.readout_A, mean_B)


def acceptance_probability(config: ExperimentConfig) -> float:
    """Exact probability of the postselection window under the evolved state.
    Keeps its relative accuracy in the tails until it underflows (about
    38 std of B from the mean)."""
    return config._window[0]


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
    `_run_chunks`), so memory is O(BLOCK) rows per worker, not O(n_samples).
    Each block is binned by `_bins`: an arithmetic index more than the
    edges' margin (`_bin_margin`, measured once here) from every
    half-integer is exact, and only the other draws, next to an edge, take
    numpy's binary search (all where the margin is >= 1/4). Raises
    ValueError for the bins and range that `_histogram_edges` rejects, the
    automatic box included, for bins < 2 and for a degenerate state.
    """
    if isinstance(bins, int):
        bins = (bins, bins)
    if bins[0] < 2 or bins[1] < 2:
        raise ValueError("bins must be >= 2 in each dimension")
    if hist_range is None:
        mu, cov = config.evolved_joint().mean, config.evolved_joint().cov
        half_p = 5.0 * math.sqrt(cov[1, 1])
        half_P = 5.0 * math.sqrt(cov[3, 3])
        box = ((mu[1] - half_p, mu[1] + half_p), (mu[3] - half_P, mu[3] + half_P))
        try:
            counts, p_edges, P_edges = _histogram_edges(bins, box)
        except ValueError as exc:
            raise ValueError(f"automatic histogram range (+-5 std): {exc}") from exc
    else:
        counts, p_edges, P_edges = _histogram_edges(bins, hist_range)
    # (p', P') = rows 1 and 3 of the coupling map, folded into the draw
    coupled = config._evolved
    source = _source(coupled.joint, config.seed, coupled.smap.matrix[1::2])
    args = (source, (p_edges, P_edges), _bin_margin((p_edges, P_edges)))
    # the int64 chunk counts summed, then added once: whole numbers below 2**53, so exact
    counts += _run_chunks(_histogram_chunk, args, config.n_samples, chunk_size, sum)
    return counts, p_edges, P_edges


def _histogram_edges(
    bins: int | tuple[int, int], hist_range: tuple[tuple[float, float], tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(zero counts, p_edges, P_edges) of `np.histogram2d` with this `bins`
    and `hist_range`. Raises ValueError for an empty or non-finite range,
    or a range too narrow for strictly increasing edges."""
    (p_lo, p_hi), (P_lo, P_hi) = hist_range
    if not all(map(math.isfinite, (p_lo, p_hi, P_lo, P_hi))):
        raise ValueError("histogram range must be finite")
    if not (p_lo < p_hi and P_lo < P_hi):
        raise ValueError("empty histogram range")
    empty = np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows: checked below
        counts, p_edges, P_edges = np.histogram2d(empty, empty, bins=bins, range=hist_range)
    for edges in (p_edges, P_edges):
        if not np.isfinite(edges).all():
            raise ValueError("histogram edges must be finite")
        if not (np.diff(edges) > 0).all():
            raise ValueError("histogram range too narrow: edges must be strictly increasing")
    return counts, p_edges, P_edges


def _bin_margin(edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """(s, o, top, trust) of `_bins`'s guess g(x) = fl(fl(x s) + o) for each
    of d edge arrays, a (4, d, 1) array: s = n / (hi - lo) (at most the
    largest float), o = 1/2 - lo s and top = n + 1. Below 1/4 the margin
    delta = max_k |g(e_k) - (k + 1/2)| is exact, a multiple of 2**-54 as
    each g(e_k) >= 1/4 is, and so is trust = 1/2 - delta: |g - rint(g)| <
    trust says exactly that g is more than delta from every half-integer.
    trust is 0, which trusts no g, where delta >= 1/4 or is nan."""
    margin = []
    for e in edges:
        n = e.size - 1
        with np.errstate(all="ignore"):
            s = min(n / (e[-1] - e[0]), np.finfo(float).max)  # lo s is not nan at lo = 0
            o = 0.5 - e[0] * s
            delta = np.abs(e * s + o - np.arange(0.5, n + 1.0)).max()
        margin.append((s, o, n + 1.0, 0.5 - delta if delta < 0.25 else 0.0))
    return np.array(margin).T[:, :, None]


def _bins(x: np.ndarray, edges, margin: np.ndarray, work: np.ndarray) -> np.ndarray:
    """np.histogram's bin index of each draw of the (d, m) array x, row i by
    edges[i] and its `_bin_margin`, as whole floats in work[1] of the
    (2, d, m) buffer `work`: 1..n are the bins (the last one closed), 0 is
    below the first edge and n + 1 above the last edge or nan. The guess g
    is clamped to top (nan and +inf), then to 0, and rounded to j. Where
    |g - j| < trust, j is exact, as g is monotone: g(e_(j-1)) < g(x) <
    g(e_j). Only the other draws, next to an edge (all where trust is 0),
    are binned by `_searchsorted_index`, numpy's own rule."""
    s, o, top, trust = margin
    guess, index = work
    with np.errstate(all="ignore"):  # overflow, or an untrusted margin's inf: clamped
        np.multiply(x, s, out=guess)
        guess += o
    np.fmin(guess, top, out=guess)  # before fmax, which would send nan to 0
    np.fmax(guess, 0.0, out=guess)
    np.rint(guess, out=index)
    guess -= index
    near = np.abs(guess, out=guess) >= trust
    if near.any():
        for i, where in enumerate(near):
            where = np.flatnonzero(where)
            index[i, where] = _searchsorted_index(x[i, where], edges[i])
    return index


def _searchsorted_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """`np.histogram2d`'s bin index of each x: searchsorted(edges, x,
    "right"), less 1 where x equals the last edge, which closes the last bin.
    nan sorts above every edge, to n + 1."""
    return np.searchsorted(edges, x, "right") - (x == edges[-1])


def _histogram_chunk(args, k: int, rows: int) -> np.ndarray:
    """Chunk k of `joint_momentum_histogram`: its (p', P') counts, binned as
    `np.histogram2d` bins them by `_bins`, which trusts the arithmetic index
    where the margin proves it and bins only the draws next to an edge by
    numpy's `searchsorted` rule, in one (2, 2, BLOCK) buffer. Flat cell
    indices are gathered in a buffer of max(BLOCK, cells) entries and
    counted by one `bincount` each time it fills, so the O(cells) cost of a
    count is paid once per at least `cells` draws."""
    source, edges, margin = args
    width = edges[1].size + 1  # bins of P plus one below and one above
    cells = (edges[0].size + 1) * width
    counts = np.zeros(cells, dtype=np.int64)
    flat = np.empty(min(rows, max(BLOCK, cells)), dtype=np.intp)
    work = np.empty((2, 2, min(rows, BLOCK)))
    filled = 0
    for block in _blocks(source, k, rows):
        m = block.shape[1]
        if filled + m > flat.size:
            counts += np.bincount(flat[:filled], minlength=cells)
            filled = 0
        index = _bins(block, edges, margin, work[:, :, :m])
        index[0] *= width
        index[0] += index[1]
        flat[filled : filled + m] = index[0]  # whole numbers below 2**53: exact
        filled += m
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
        coupled = dataclasses.replace(config, delta_Q=delta_Q)._evolved
        # (A, Q'): the quadrature A and row 2 of the coupling map, folded into the draw
        readout = np.array([[*config.theta_A.vector, 0.0, 0.0], coupled.smap.matrix[2]])
        source = _source(coupled.joint, config.seed, readout)
        _, _, scatter = _run_chunks(_correlation_chunk, source, config.n_samples, chunk_size, _merge)
        if not (scatter[0, 0] > 0 and scatter[1, 1] > 0):
            raise ValueError("degenerate variance in correlation estimate")
        out.append(float(np.clip(scatter[0, 1] / math.sqrt(scatter[0, 0] * scatter[1, 1]), -1, 1)))
    return out


def _correlation_chunk(source, k: int, rows: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Chunk k of `strong_measurement_correlation`: the `_moments` of its
    (A, Q'), computed over the whole chunk."""
    return _moments(_fill(source, k, np.empty((2, rows))))
