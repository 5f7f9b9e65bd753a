"""Self-verification suites: the one definition of acceptance criteria 1, 2,
3 and 6. `erlweak verify` runs them all, and tests/test_acceptance.py calls
the same functions.

- oracle equivalence (criterion 1): the printed closed-form device means
  against exact Gaussian conditioning of the evolved joint state, on the
  1944-tuple product of the axes below (every argument of the closed form
  but the particle mean, with mu_P = 0 and mu_P != 0). The grid is evolved,
  regressed and compared in one stacked pass: the closed form's arithmetic
  runs once on arrays that broadcast over the grid, and the 18 joint states
  are evolved under the 12 coupling maps and regressed on the 3 theta_B as
  stacks, by the library's own helpers, so each tuple has the bits of its
  scalar calls;
- weak-coupling order (criterion 2): the residuals against the first-order
  shifts shrink at least as g^2.5 as g is halved;
- delta_P limit (criterion 3): as delta_P is halved, <Q>_b -> g Re[A_W] and
  <P>_b -> 0, monotonically;
- repeatability (criterion 6): coupling maps on a (g, theta_A) grid are
  symplectic and leave A and P of every point of a lattice unchanged, by
  the two checks of `dynamics` that `SymplecticMap` and the sampler make:
  all 256 maps in one symplectic call, and each angle's images of the
  lattice in buffers reused across the angles.
  Its deviation is the larger of |M^T J M - J|_ij / (|M|^T |J| |M|)_ij,
  each entry's products scaled by a power of two of their own, and of
  |A(Mx) - A(x)| / (|c q| + |s p| + |c q'| + |s p'|), inf where P' != P:
  a fraction of the rounding scale of the terms that cancel, against
  SYMPLECTIC_TOL = 1e-12.

The suite parameters are the module constants; no suite takes an argument.
A grid of maps and a lattice of points cover the linear invariants of
criterion 6 as well as random draws would, and keep numpy.random (about 5 MB
of resident memory) out of `erlweak verify`.
A NaN deviation at any check fails its suite: maxima are taken with np.max,
which keeps NaN, and NaN breaks the delta_P limit's monotonicity.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .analytic import (
    _conjugate_spread,
    _postselected_means,
    _regression,
    first_order_shifts,
    postselected_means_gaussian,
    weak_value_gaussian,
)
from .bounds import _angles, _on_B
from .dynamics import SYMPLECTIC_TOL, _invariance_deviation, _push_moments, _symplectic_deviation
from .dynamics import coupling_map
from .states import (
    Quadrature,
    make_particle,
    make_pure_device,
    quadrature_vector,
    tensor,
)

PI = math.pi

# criterion 1: relative tolerance on a grid over these axes
ORACLE_TOLERANCE = 1e-9
PARTICLE_MEAN = (0.3, -0.4)
SPREADS = ((0.5, 1.0), (1.0, 0.5), (2.0, 2.0))  # (sigma, delta_Q)
OMEGAS = (-1.0, 0.0, 1.0)
DEVICE_MEAN_MOMENTA = (0.0, 0.6)  # mu_P
COUPLINGS = (0.01, 0.1, 0.5, 1.0)
THETA_AS = (0.0, PI / 8, 5 * PI / 8)
THETA_BS = (PI / 8, PI / 2, 7 * PI / 8)
POSTSELECTIONS = (-1.0, 0.0, 1.0)  # b

# criterion 2: residual order under halving of g; a residual sequence wholly
# below CONVERGED is identically zero and has no order
HALVED_COUPLINGS = (0.2, 0.1, 0.05, 0.025)
MIN_ORDER = 2.5
CONVERGED = 1e-15

# criterion 3: final deviation below LIMIT_TOLERANCE * LIMIT_G
LIMIT_G = 0.05
LIMIT_TOLERANCE = 1e-4
N_HALVINGS = 5

# criterion 6: every coupling map on the (g, theta_A) grid below, applied to
# every point of the lattice LATTICE^4 in (q, p, Q, P), to SYMPLECTIC_TOL
MAP_COUPLINGS = tuple(np.linspace(-2.0, 2.0, 16))
MAP_ANGLES = tuple(2.0 * PI * k / 16 for k in range(16))
LATTICE = (-5.0, -2.5, 0.0, 2.5, 5.0)


@dataclasses.dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    n_checks: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def _grid_closed_forms() -> np.ndarray:
    """The closed-form means (Q, P) of every tuple of the oracle grid, in the
    order of the product of SPREADS, OMEGAS, DEVICE_MEAN_MOMENTA, COUPLINGS,
    THETA_AS, THETA_BS and POSTSELECTIONS: the scalar factors of
    `postselected_means_gaussian` taken once per distinct value, then its
    arithmetic once, on arrays that broadcast over the grid."""
    axes = (SPREADS, OMEGAS, DEVICE_MEAN_MOMENTA, COUPLINGS, THETA_AS, THETA_BS, POSTSELECTIONS)
    # index arrays of spread, omega, mu_P, g, theta_A, theta_B and b, each along its own axis
    i_s, i_w, i_m, i_g, i_a, i_t, i_b = np.ix_(*(range(len(axis)) for axis in axes))
    angles = [[_angles(Quadrature(x), Quadrature(y)) for y in THETA_BS] for x in THETA_AS]
    on_B = [[[_on_B(sigma, ab) for ab in row] for row in angles] for sigma, _ in SPREADS]
    delta_P = [[_conjugate_spread(delta_Q, omega) for omega in OMEGAS] for _, delta_Q in SPREADS]
    means = _postselected_means(
        *PARTICLE_MEAN,
        np.moveaxis(np.array(on_B), -1, 0)[:, i_s, i_a, i_t],
        np.array(OMEGAS)[i_w],
        np.array(COUPLINGS)[i_g],
        np.array(POSTSELECTIONS)[i_b],
        np.array(DEVICE_MEAN_MOMENTA)[i_m],
        np.moveaxis(np.array(angles), -1, 0)[:, i_a, i_t],
        np.array(delta_P)[i_s, i_w],
    )
    return np.stack(means, axis=-1).reshape(-1, 2)


def _grid_conditional_means() -> np.ndarray:
    """E[(q, p, Q, P) | B = b] of the evolved joint state at every tuple of
    the oracle grid, in the order of `_grid_closed_forms`: the 18 joint
    states evolved under the 12 coupling maps and regressed on the 3
    theta_B as stacks, every b read off each regression."""
    mu_q, mu_p = PARTICLE_MEAN
    joints = [
        tensor(make_particle(mu_q, mu_p, sigma), make_pure_device(delta_Q, mu_P, omega))
        for (sigma, delta_Q), omega, mu_P in itertools.product(SPREADS, OMEGAS, DEVICE_MEAN_MOMENTA)
    ]
    maps = [coupling_map(g, Quadrature(t)).matrix for g, t in itertools.product(COUPLINGS, THETA_AS)]
    mean, cov = _push_moments(
        np.array(maps),
        np.array([joint.mean for joint in joints])[:, None],
        np.array([joint.cov for joint in joints])[:, None],
    )
    readouts = np.array([quadrature_vector(2, 0, Quadrature(t)) for t in THETA_BS])
    mu_B, _, gain = _regression(mean[..., None, :], cov[..., None, :, :], readouts)
    shift = np.array(POSTSELECTIONS) - mu_B[..., None]  # (joint, map, theta_B, b)
    return (mean[..., None, None, :] + shift[..., None] * gain[..., None, :]).reshape(-1, 4)


def run_oracle_equivalence() -> SuiteResult:
    """Closed-form postselected means vs first-principles Gaussian
    conditioning, each route one array pass over the grid."""
    x, y = _grid_closed_forms(), _grid_conditional_means()[:, 2:]
    dev = np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    return SuiteResult("oracle-equivalence", float(np.max(dev)), ORACLE_TOLERANCE, len(x))


def run_delta_p_limit() -> SuiteResult:
    """As delta_P is halved (pure device, omega = 0), mean_Q -> g*Re[A_W] and
    mean_P -> 0, monotonically; the final deviation must be below
    LIMIT_TOLERANCE * g."""
    mu_q, mu_p, sigma, b, g = 0.3, -0.2, 1.0, 0.0, LIMIT_G
    theta_A, theta_B = Quadrature(0.3), Quadrature(0.7)
    wv = weak_value_gaussian(mu_q, mu_p, sigma, theta_A, theta_B, b)
    devs_q, devs_p = [], []
    delta_P = 0.4
    for _ in range(N_HALVINGS):
        delta_Q = _conjugate_spread(delta_P, 0.0)
        mean_Q, mean_P = postselected_means_gaussian(
            mu_q, mu_p, sigma, delta_Q, 0.0, g, theta_A, theta_B, b
        )
        devs_q.append(abs(mean_Q - g * wv.re))
        devs_p.append(abs(mean_P))
        delta_P /= 2.0
    monotone = all(a > b for a, b in zip(devs_q, devs_q[1:])) and all(
        a > b for a, b in zip(devs_p, devs_p[1:])
    )
    final_dev = max(devs_q[-1], devs_p[-1]) / g if monotone else math.inf
    return SuiteResult("delta_P-limit", final_dev, LIMIT_TOLERANCE, 2 * N_HALVINGS)


def run_weak_coupling_order() -> SuiteResult:
    """Residuals mean_Q - (g Re + g omega Im) and mean_P - 2 g delta_P^2 Im
    must shrink with order >= MIN_ORDER in g (neglected terms are cubic).
    The deviation reported is how far the worst order falls short of it."""
    sigma, delta_Q, b = 1.0, 1.0, 1.0
    theta_A, theta_B = Quadrature(0.0), Quadrature(PI / 2)
    wv = weak_value_gaussian(0.0, 0.0, sigma, theta_A, theta_B, b)
    orders = []
    for omega in (0.0, 1.0):
        delta_P = _conjugate_spread(delta_Q, omega)
        residuals = []
        for g in HALVED_COUPLINGS:
            exact = postselected_means_gaussian(
                0.0, 0.0, sigma, delta_Q, omega, g, theta_A, theta_B, b
            )
            first = first_order_shifts(wv, g, delta_P, omega)
            residuals.append([abs(e - f) for e, f in zip(exact, first)])
        for sequence in zip(*residuals):  # Q, then P
            if all(r < CONVERGED for r in sequence):
                continue
            orders += [math.log2(r1 / r2) for r1, r2 in zip(sequence, sequence[1:])]
    dev = float(np.max(MIN_ORDER - np.array(orders), initial=0.0))
    return SuiteResult("weak-coupling-order", dev, 0.0, len(orders))


def run_repeatability() -> SuiteResult:
    """Each coupling map on the grid is symplectic and leaves A and P of
    every lattice point unchanged, by the checks that `SymplecticMap` and
    the sampler make: all 256 maps in one symplectic call on their (angle,
    g) stack, then per angle their images of the lattice in one stacked
    product (the bits of `apply_to_points`) and one invariance call, both
    into buffers made once and reused across the angles."""
    pts = np.array(list(itertools.product(LATTICE, repeat=4))).T  # (4, 625)
    quads = [Quadrature(theta) for theta in MAP_ANGLES]
    maps = np.array([[coupling_map(g, quad).matrix for g in MAP_COUPLINGS] for quad in quads])
    devs = [_symplectic_deviation(maps)]  # its temporaries freed before the buffers are made
    evolved = np.empty((len(MAP_COUPLINGS), *pts.shape))  # (16, 4, 625)
    work = np.empty((5, *evolved[..., 0, :].shape))  # (5, 16, 625)
    for quad, matrices in zip(quads, maps):
        devs.append(_invariance_deviation(quad, pts, np.matmul(matrices, pts, out=evolved), work))
    n = len(MAP_COUPLINGS) * len(MAP_ANGLES) * (1 + pts.shape[1])
    return SuiteResult("repeatability-symplecticity", float(np.max(devs)), SYMPLECTIC_TOL, n)


def run_all() -> list[SuiteResult]:
    return [
        run_oracle_equivalence(),
        run_delta_p_limit(),
        run_weak_coupling_order(),
        run_repeatability(),
    ]
