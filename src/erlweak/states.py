"""Gaussian phase-space states and the epistemic-restriction check.

Coordinates are dimensionless (hbar = 1) and ordered (q1, p1, q2, p2, ...).
Covariances use the standard statistical convention Cov[x_i, x_j]; the
restriction check works with gamma = 2*cov internally, so the factor of two
never leaks into sampling or conditioning code.

States are validated where they enter. The public `GaussianState(...)`
constructor checks shape, finiteness, symmetry and positive
semidefiniteness. `make_particle` and `make_pure_device` check their spread
(sigma > 0, delta_Q > 0) and, with the constructor's own `_check_finite`,
that the mean and covariance are finite; symmetry, positive
semidefiniteness and saturation of the restriction hold by construction of
their closed-form covariances (`test_factory_states_pass_the_public_checks`
in tests/test_states.py re-checks them for spreads from 1e-150 to 1e150).
Tensor products, marginals, evolution under a symplectic map and
Gaussian conditioning are exact images of validated states; like the
factories' states, they are built by `GaussianState._derived` and not
checked again.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-12
RESTRICTION_TOL = 1e-9

TWO_PI = 2.0 * math.pi


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for n modes in (q, p) ordering."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    form = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        form[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return form


@dataclasses.dataclass(frozen=True)
class Quadrature:
    """The linear observable cos(theta)*q + sin(theta)*p."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    @property
    def vector(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta)])

    def value(self, q, p):
        """Evaluate the quadrature on coordinates (scalar or array)."""
        return math.cos(self.theta) * q + math.sin(self.theta) * p


class RestrictionResult(NamedTuple):
    status: str  # "valid_strict" | "saturated" | "violated"
    margin: float


@dataclasses.dataclass(frozen=True)
class GaussianState:
    """Gaussian Liouville distribution: mean vector and covariance matrix.

    Construction validates the input: an even, nonzero mean length, a
    matching square covariance, finite entries, a covariance symmetric to
    SYMMETRY_TOL and positive semidefinite to PSD_TOL, both relative to its
    largest eigenvalue (rounding in a covariance grows with its entries). Both
    arrays are stored as read-only copies. States derived from validated
    ones inside this package (tensor products, marginals, evolution,
    conditioning) skip the check.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if mean.size == 0 or mean.size % 2 != 0:
            raise ValueError("mean length must be a positive multiple of 2")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        _check_finite(mean, cov)
        eigvals = np.linalg.eigvalsh(cov)  # ascending, from the lower triangle
        scale = max(eigvals[-1], 0.0)
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL * scale:
            raise ValueError("cov is not symmetric")
        if eigvals[0] < -PSD_TOL * scale:
            raise ValueError(f"cov is not positive semidefinite (min eig {eigvals[0]:g})")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _derived(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianState":
        """A state that is valid by construction (an exact image of validated
        states, or a factory's closed form): freshly made float arrays `mean`
        (1-d) and `cov` (square, symmetric), which become read-only and are
        stored as they are, without `__post_init__`."""
        state = object.__new__(cls)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(state, "mean", mean)
        object.__setattr__(state, "cov", cov)
        return state

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def marginal(self, mode: int) -> "GaussianState":
        """Single-mode marginal."""
        if not 0 <= mode < self.n_modes:
            raise IndexError(f"mode {mode} out of range for {self.n_modes} modes")
        sl = slice(2 * mode, 2 * mode + 2)
        return GaussianState._derived(self.mean[sl].copy(), self.cov[sl, sl].copy())


def _finite(values: np.ndarray) -> bool:
    """Whether every entry of `values` is finite (nan and +-inf are not).
    math over a short list costs a fraction of a numpy reduction."""
    return all(map(math.isfinite, values.ravel().tolist()))


def _check_finite(mean: np.ndarray, cov: np.ndarray) -> None:
    """The finiteness check of `GaussianState(...)` and of the factories."""
    if not _finite(mean):
        raise ValueError("mean must be finite")
    if not _finite(cov):
        raise ValueError("cov must be finite")


def make_particle(mu_q: float, mu_p: float, sigma: float) -> GaussianState:
    """Particle distribution with position spread sigma and momentum spread 1/(2 sigma).

    Saturates the restriction: det(2 cov) = 1. The covariance
    diag(sigma^2, 1/(4 sigma^2)) is symmetric and positive definite for
    every sigma > 0, so only sigma and finiteness are checked.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    mean = np.array([mu_q, mu_p], dtype=float)
    cov = np.diag([sigma**2, 1.0 / (4.0 * sigma**2)])
    _check_finite(mean, cov)
    return GaussianState._derived(mean, cov)


def make_pure_device(delta_Q: float, mu_P: float, omega: float) -> GaussianState:
    """Measurement-device distribution with position spread delta_Q,
    mean momentum mu_P and position-momentum covariance omega/2.

    The momentum variance (1 + omega^2) / (4 delta_Q^2) saturates the
    restriction for every omega: det cov = 1/4 exactly, so the symmetric
    covariance is positive definite for every delta_Q > 0, and only delta_Q
    and finiteness are checked.
    """
    if delta_Q <= 0:
        raise ValueError("delta_Q must be positive")
    var_P = (1.0 + omega**2) / (4.0 * delta_Q**2)
    mean = np.array([0.0, mu_P], dtype=float)
    cov = np.array([[delta_Q**2, omega / 2.0], [omega / 2.0, var_P]])
    _check_finite(mean, cov)
    return GaussianState._derived(mean, cov)


def check_epistemic_restriction(
    state: GaussianState, tol: float = RESTRICTION_TOL
) -> RestrictionResult:
    """Classify a state against the uncertainty-principle restriction.

    Reports the minimum eigenvalue m of the Hermitian matrix
    2*cov + i*Sigma: violated if m < -tol, saturated if |m| <= tol,
    valid_strict otherwise. For a single mode this is equivalent to
    det(2*cov) >= 1 with 2*cov positive semidefinite.
    """
    gamma = 2.0 * state.cov
    herm = gamma.astype(complex) + 1j * symplectic_form(state.n_modes)
    margin = float(np.linalg.eigvalsh(herm).min())
    if margin < -tol:
        status = "violated"
    elif abs(margin) <= tol:
        status = "saturated"
    else:
        status = "valid_strict"
    return RestrictionResult(status, margin)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Independent joint state: concatenated means, block-diagonal covariance."""
    n = a.mean.size + b.mean.size
    cov = np.zeros((n, n))
    cov[: a.mean.size, : a.mean.size] = a.cov
    cov[a.mean.size :, a.mean.size :] = b.cov
    return GaussianState._derived(np.concatenate([a.mean, b.mean]), cov)


def quadrature_vector(n_modes: int, mode: int, quad: Quadrature) -> np.ndarray:
    """Coefficient vector of the quadrature embedded at one mode's coordinates."""
    if not 0 <= mode < n_modes:
        raise IndexError(f"mode {mode} out of range for {n_modes} modes")
    v = np.zeros(2 * n_modes)
    v[2 * mode : 2 * mode + 2] = quad.vector
    return v


def quadrature_moments(
    state: GaussianState, mode: int, quad: Quadrature
) -> tuple[float, float]:
    """Mean and variance of cos(theta)*q + sin(theta)*p on one mode."""
    v = quadrature_vector(state.n_modes, mode, quad)
    return float(v @ state.mean), float(v @ state.cov @ v)
