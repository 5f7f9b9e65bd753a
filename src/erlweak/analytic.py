"""Closed-form evaluators for weak values and postselected device means,
plus the exact Gaussian-conditioning route used as the independent oracle.

Convention note: the postselected momentum mean carries the numerator
factor (mu_q cos(theta_B) + mu_p sin(theta_B) - b) * sin(theta_B - theta_A),
i.e. the distance of the postselection value b from the mean of the
postselected quadrature. It holds by construction, as <P>_b - mu_P is
2 g delta_P^2 Im[A_W] / (1 + r) and Im[A_W] carries that factor; the
conditioning oracle (oracle_postselected_means) checks it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .bounds import _gaussian_bound
from .states import GaussianState, Quadrature, quadrature_vector

REALNESS_TOL = 1e-10


class DegeneratePostselectionError(ValueError):
    """The postselection amplitude (or probability) vanishes."""


class SingularConditioningError(ValueError):
    """Conditioning direction has zero variance."""


@dataclasses.dataclass(frozen=True)
class WeakValue:
    re: float
    im: float

    @property
    def as_complex(self) -> complex:
        return complex(self.re, self.im)


@dataclasses.dataclass(frozen=True)
class DiscreteSpectrumInput:
    """Preselection amplitudes, postselection overlaps <b|a_j>, and eigenvalues."""

    amplitudes: tuple
    overlaps: tuple
    eigenvalues: tuple

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        ovl = tuple(complex(c) for c in self.overlaps)
        eig = tuple(float(a) for a in self.eigenvalues)
        if not (len(amps) == len(ovl) == len(eig)) or len(amps) < 1:
            raise ValueError("amplitudes, overlaps, eigenvalues must have equal length >= 1")
        if abs(sum(a * c for a, c in zip(amps, ovl))) == 0.0:
            raise DegeneratePostselectionError("postselection amplitude is zero")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "overlaps", ovl)
        object.__setattr__(self, "eigenvalues", eig)


def _angles(theta_A: Quadrature, theta_B: Quadrature) -> tuple[float, ...]:
    """cos(theta_A), sin(theta_A), cos(theta_B), sin(theta_B), sin(theta_B - theta_A)."""
    ta, tb = theta_A.theta, theta_B.theta
    return math.cos(ta), math.sin(ta), math.cos(tb), math.sin(tb), math.sin(tb - ta)


def _weak_value(
    mu_q: float, mu_p: float, sigma: float, b: float, angles: tuple[float, ...]
) -> tuple[float, float]:
    """(Re, Im) of the Gaussian weak value at the `_angles` of theta_A and
    theta_B, without the check on sigma."""
    ca, sa, cb, sb, sd = angles
    denom = 4.0 * sigma**4 * cb**2 + sb**2
    re = (4.0 * sigma**4 * cb * (b * ca - mu_p * sd) + sb * (mu_q * sd + b * sa)) / denom
    im = 2.0 * sigma**2 * (-b + mu_q * cb + mu_p * sb) * sd / denom
    return re, im


def weak_value_gaussian(
    mu_q: float, mu_p: float, sigma: float, theta_A: Quadrature, theta_B: Quadrature, b: float
) -> WeakValue:
    """Weak value of cos(theta_A) q + sin(theta_A) p for a Gaussian particle
    postselected on cos(theta_B) q + sin(theta_B) p = b.

    Linear in mu_q, mu_p and b.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return WeakValue(*_weak_value(mu_q, mu_p, sigma, b, _angles(theta_A, theta_B)))


def weak_value_discrete(inp: DiscreteSpectrumInput) -> WeakValue:
    """Weak value sum_j alpha_j <b|a_j> a_j / sum_j alpha_j <b|a_j>. Raises
    OverflowError where a product, a sum or the quotient is out of range."""
    with np.errstate(all="ignore"):  # checked below
        d = np.array(inp.amplitudes) * np.array(inp.overlaps)
        denom = d.sum()
        if abs(denom) == 0.0:
            raise DegeneratePostselectionError("postselection amplitude is zero")
        w = (d * np.array(inp.eigenvalues)).sum() / denom
    if not np.isfinite(w):
        raise OverflowError(
            "the discrete weak value overflows: a product of amplitudes, overlaps "
            "and eigenvalues or their quotient is out of range"
        )
    return WeakValue(float(w.real), float(w.imag))


def postselected_means_discrete(
    inp: DiscreteSpectrumInput,
    g: float,
    delta_P: float,
    mu_P: float,
    omega: float,
) -> tuple[float, float]:
    """Exact postselected device means for a discrete spectrum.

    Both means are expectations in the same post-coupling state, so they share
    one pair weight w_jl = d_j d_l* exp(-g^2 delta_P^2 (a_j - a_l)^2 / 2
    - i g (a_j - a_l) mu_P), with d_j = alpha_j <b|a_j>:
        <Q>_b = sum w g ((a_j + a_l) / 2 - i omega (a_j - a_l) / 2) / sum w,
        <P>_b = mu_P + sum w (-i g delta_P^2 (a_j - a_l)) / sum w.
    Results must come out real; a nonvanishing imaginary residue indicates a
    conjugation bug and raises.
    """
    if delta_P <= 0:
        raise ValueError("delta_P must be positive")
    d = np.array(inp.amplitudes) * np.array(inp.overlaps)
    a = np.array(inp.eigenvalues)
    diff = a[:, None] - a[None, :]
    avg = 0.5 * (a[:, None] + a[None, :])
    w = np.outer(d, d.conj()) * np.exp(-0.5 * (g * delta_P * diff) ** 2 - 1j * g * mu_P * diff)
    total = w.sum()
    if abs(total) == 0.0:
        raise DegeneratePostselectionError("postselection probability is zero")

    mean_Q = (w * g * (avg - 0.5j * omega * diff)).sum() / total
    mean_P = mu_P + (w * -1j * g * delta_P**2 * diff).sum() / total
    for value in (mean_Q, mean_P):
        if abs(value.imag) > REALNESS_TOL * max(1.0, abs(value.real)):
            raise ValueError(f"postselected mean is not real: {value}")
    return float(mean_Q.real), float(mean_P.real)


def _conjugate_spread(spread: float, omega: float) -> float:
    """sqrt(1 + omega^2) / (2 spread): the pure device's delta_P from its
    delta_Q, or its delta_Q from its delta_P, as the relation is symmetric."""
    return math.sqrt(1.0 + omega**2) / (2.0 * spread)


def postselected_means_gaussian(
    mu_q: float,
    mu_p: float,
    sigma: float,
    delta_Q: float,
    omega: float,
    g: float,
    theta_A: Quadrature,
    theta_B: Quadrature,
    b: float,
    mu_P: float = 0.0,
) -> tuple[float, float]:
    """Exact postselected device means (<Q>_b, <P>_b) for Gaussian particle and
    pure device with zero mean position and mean momentum mu_P, coupling
    strength g, and postselection on the particle quadrature theta_B at value b.

    They are the first-order shifts (q1, p1) of `first_order_shifts` damped by
    the ratio r of `bounds.gaussian_regime_margin`: <Q>_b = (q1 + r g mu_A) /
    (1 + r) and <P>_b = mu_P + p1 / (1 + r). The coupling moves the particle
    by g mu_P (sin theta_A, -cos theta_A) on average, and P is unchanged by
    it, so A_W and mu_A are taken at the shifted particle means.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if delta_Q <= 0:
        raise ValueError("delta_Q must be positive")
    angles = _angles(theta_A, theta_B)
    bound = _gaussian_bound(sigma, *angles[2:])
    return _postselected_means(
        mu_q, mu_p, sigma, omega, g, b, mu_P, angles, _conjugate_spread(delta_Q, omega), bound
    )


def _postselected_means(mu_q, mu_p, sigma, omega, g, b, mu_P, angles, delta_P, bound):
    """The arithmetic of `postselected_means_gaussian` after its scalar
    factors: the `_angles`, delta_P and the `_gaussian_bound`. Operators
    only, so it runs on floats or on numpy arrays that broadcast against
    each other, with the same bits per element."""
    ca, sa, cb, sb, sd = angles
    mu_q = mu_q + g * mu_P * sa
    mu_p = mu_p - g * mu_P * ca
    re, im = _weak_value(mu_q, mu_p, sigma, b, angles)
    r = g**2 * delta_P**2 / bound
    mean_Q = g * (re + omega * im + r * (mu_q * ca + mu_p * sa)) / (1.0 + r)
    return mean_Q, mu_P + 2.0 * g * delta_P**2 * im / (1.0 + r)


def first_order_shifts(
    weak_value: WeakValue, g: float, delta_P: float, omega: float
) -> tuple[float, float]:
    """Leading-order device shifts: (g Re + g omega Im, 2 g delta_P^2 Im)."""
    q_shift = g * weak_value.re + g * omega * weak_value.im
    p_shift = 2.0 * g * delta_P**2 * weak_value.im
    return q_shift, p_shift


def _regression(mean: np.ndarray, cov: np.ndarray, v: np.ndarray):
    """(mu_B, var_B, gain) of a Gaussian x with moments (mean, cov) on
    B = v.x: the mean and variance of B and the gain cov v / var_B, so that
    E[x | B = b'] = mean + gain (b' - mu_B). The one Gaussian regression,
    which both oracles, `gaussian_condition` and `verify` read. It takes
    stacks too: mean (..., n), cov (..., n, n) and v (..., n) broadcast
    against each other. Each item has the bits of the 1-d products
    v @ cov @ v, v @ mean and cov @ v / var_B, as numpy runs a matmul with a
    unit-length axis on the kernel of the 1-d one. mu_B and var_B come out
    as arrays, 0-d for one state. Raises SingularConditioningError where a
    var_B is not positive."""
    row, col = v[..., None, :], v[..., None]
    var_B = row @ cov @ col
    if any(s <= 0.0 for s in var_B.ravel().tolist()):  # cheaper than a numpy reduction
        raise SingularConditioningError("constraint direction has zero variance")
    return (row @ mean[..., None])[..., 0, 0], var_B[..., 0, 0], (cov @ col / var_B)[..., 0]


def _read_means(
    state: GaussianState, mu_B: float, gain: np.ndarray, readout: np.ndarray, b: float
) -> tuple[float, float, float]:
    """Device means (Q, P) and the particle's mean of A at B = b, read off
    the `_regression` (mu_B, gain) of the two-mode `state` on B; `readout`
    is the vector of A. Raises OverflowError where one of them is not
    finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = state.mean + gain * (b - mu_B)
        means = float(mean[2]), float(mean[3]), float(readout @ mean)
    if not all(map(math.isfinite, means)):
        raise OverflowError("the oracle overflows: a conditional mean is out of float range")
    return means


def gaussian_condition(
    joint: GaussianState, mode: int, constraint: Quadrature, b: float
) -> GaussianState:
    """Condition a Gaussian on the linear constraint
    cos(theta) q_mode + sin(theta) p_mode = b.

    Standard Gaussian conditioning: the mean from the `_regression`
    (mu_B, gain), mean + gain (b - mu_B), and
        cov' = cov - cov v v^T cov / (v.cov.v)
    """
    v = quadrature_vector(joint.n_modes, mode, constraint)
    mu_B, _, gain = _regression(joint.mean, joint.cov, v)
    cov = joint.cov - np.outer(gain, v @ joint.cov)
    return GaussianState._derived(joint.mean + gain * (b - mu_B), 0.5 * (cov + cov.T))


def oracle_postselected_means(
    joint_evolved: GaussianState, theta_A: Quadrature, theta_B: Quadrature, b: float
) -> tuple[float, float, float]:
    """Device means (Q, P) and the particle's mean of A, read off the mean
    of the evolved joint conditioned on B = b.

    This is the first-principles route; the printed closed forms are
    validated against it.
    """
    mu_B, _, gain = _regression(
        joint_evolved.mean, joint_evolved.cov, quadrature_vector(2, 0, theta_B)
    )
    return _read_means(joint_evolved, mu_B, gain, quadrature_vector(2, 0, theta_A), b)
