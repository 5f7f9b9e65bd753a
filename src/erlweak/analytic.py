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
    """Weak value sum_j alpha_j <b|a_j> a_j / sum_j alpha_j <b|a_j>."""
    d = np.array(inp.amplitudes) * np.array(inp.overlaps)
    denom = d.sum()
    if abs(denom) == 0.0:
        raise DegeneratePostselectionError("postselection amplitude is zero")
    w = (d * np.array(inp.eigenvalues)).sum() / denom
    return WeakValue(float(w.real), float(w.imag))


def postselected_means_discrete(
    inp: DiscreteSpectrumInput,
    g: float,
    delta_P: float,
    mu_P: float,
    omega: float,
) -> tuple[float, float]:
    """Exact postselected device means for a discrete spectrum.

    Evaluates the double sums over eigenvalue pairs, with Gaussian damping
    exp(-(a_j - a_l)^2 delta_P^2 g^2 / 2) and phase exp(i g (a_j - a_l) mu_P)
    in the position mean. Results must come out real; a nonvanishing
    imaginary residue indicates a conjugation bug and raises.
    """
    if delta_P <= 0:
        raise ValueError("delta_P must be positive")
    d = np.array(inp.amplitudes) * np.array(inp.overlaps)
    c = np.outer(d, d.conj())
    a = np.array(inp.eigenvalues)
    diff = a[:, None] - a[None, :]
    avg = 0.5 * (a[:, None] + a[None, :])
    damp = np.exp(-0.5 * diff**2 * delta_P**2 * g**2)
    phase = np.exp(1j * g * diff * mu_P)

    weights_q = c * damp * phase
    num_q = (weights_q * g * (avg - 0.5j * omega * diff)).sum()
    den_q = weights_q.sum()
    weights_p = c * damp
    num_p = (-1j * g * delta_P**2 * weights_p * diff).sum()
    den_p = weights_p.sum()
    if abs(den_q) == 0.0 or abs(den_p) == 0.0:
        raise DegeneratePostselectionError("postselection probability is zero")

    mean_Q = num_q / den_q
    mean_P = num_p / den_p
    for value in (mean_Q, mean_P):
        if abs(value.imag) > REALNESS_TOL * max(1.0, abs(value.real)):
            raise ValueError(f"postselected mean is not real: {value}")
    return float(mean_Q.real), float(mean_P.real)


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
    ca, sa, cb, sb, sd = angles
    mu_q = mu_q + g * mu_P * sa
    mu_p = mu_p - g * mu_P * ca
    re, im = _weak_value(mu_q, mu_p, sigma, b, angles)
    delta_P = math.sqrt(1.0 + omega**2) / (2.0 * delta_Q)
    r = g**2 * delta_P**2 / _gaussian_bound(sigma, cb, sb, sd)
    mean_Q = g * (re + omega * im + r * (mu_q * ca + mu_p * sa)) / (1.0 + r)
    return mean_Q, mu_P + 2.0 * g * delta_P**2 * im / (1.0 + r)


def first_order_shifts(
    weak_value: WeakValue, g: float, delta_P: float, omega: float
) -> tuple[float, float]:
    """Leading-order device shifts: (g Re + g omega Im, 2 g delta_P^2 Im)."""
    q_shift = g * weak_value.re + g * omega * weak_value.im
    p_shift = 2.0 * g * delta_P**2 * weak_value.im
    return q_shift, p_shift


def _conditional_mean(
    joint: GaussianState, v: np.ndarray, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """(E[x | v.x = b], gain) for a Gaussian x: mean + gain (b - v.mean),
    with the regression gain cov v / (v.cov.v). The one Gaussian conditional
    mean, which both oracles and `gaussian_condition` read."""
    s = float(v @ joint.cov @ v)
    if s <= 0.0:
        raise SingularConditioningError("constraint direction has zero variance")
    gain = joint.cov @ v / s
    return joint.mean + gain * (b - v @ joint.mean), gain


def gaussian_condition(
    joint: GaussianState, mode: int, constraint: Quadrature, b: float
) -> GaussianState:
    """Condition a Gaussian on the linear constraint
    cos(theta) q_mode + sin(theta) p_mode = b.

    Standard Gaussian conditioning: the mean from `_conditional_mean`, and
        cov' = cov - cov v v^T cov / (v.cov.v)
    """
    v = quadrature_vector(joint.n_modes, mode, constraint)
    mean, gain = _conditional_mean(joint, v, b)
    cov = joint.cov - np.outer(gain, v @ joint.cov)
    return GaussianState._derived(mean, 0.5 * (cov + cov.T))


def oracle_postselected_means(
    joint_evolved: GaussianState, theta_A: Quadrature, theta_B: Quadrature, b: float
) -> tuple[float, float, float]:
    """Device means (Q, P) and the particle's mean of A, read off the mean
    of the evolved joint conditioned on B = b.

    This is the first-principles route; the printed closed forms are
    validated against it.
    """
    mean, _ = _conditional_mean(joint_evolved, quadrature_vector(2, 0, theta_B), b)
    return float(mean[2]), float(mean[3]), float(quadrature_vector(2, 0, theta_A) @ mean)
