"""Validity margins for the first-order (weak) regime.

The Gaussian ratio r = (g delta_P sin(theta_B - theta_A) / s_B)^2, with s_B
the particle's std of B, is the variance the device's kick adds to B over the
particle's own. It is an exact weight, not a convention: the postselected
means are (q1 + r g mu_A) / (1 + r) and (mu_P + p1) / (1 + r) for the
first-order shifts (q1, p1), so the first-order P prediction mu_P + p1 is off
by exactly r / (1 + r) of itself and the Q shift by r / (1 + r) (g mu_A - q1).
The classes deep_weak < 0.01, weak < 0.1, marginal < 1 and strong >= 1 bound
that factor below 1 %, 9.1 % and 50 %. The discrete margin uses the same
thresholds as a convention.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from .states import Quadrature

CLASS_THRESHOLDS = ((0.01, "deep_weak"), (0.1, "weak"), (1.0, "marginal"))


def _classify(ratio: float) -> str:
    for threshold, name in CLASS_THRESHOLDS:
        if ratio < threshold:
            return name
    return "strong"


@dataclasses.dataclass(frozen=True)
class RegimeMargin:
    lhs: float  # g^2 delta_P^2
    rhs: float  # bound; +inf when vacuous or beyond float range
    ratio: float
    classification: str


def _ratio(g, delta_P, gap, scale):
    """k k for k = g (delta_P (gap / scale)): the regime ratio of g^2 delta_P^2
    to its bound (scale / gap)^2, defined here once, with no power, so it is
    finite wherever k k is. Operators only, so it broadcasts over arrays."""
    k = g * (delta_P * (gap / scale))
    return k * k


def _margin(g: float, delta_P: float, gap: float, scale: float) -> RegimeMargin:
    bound = scale / gap * (scale / gap) if gap else math.inf
    ratio = _ratio(g, delta_P, gap, scale)
    return RegimeMargin(g * delta_P * (g * delta_P), bound, ratio, _classify(ratio))


def _angles(theta_A: Quadrature, theta_B: Quadrature) -> tuple[float, ...]:
    """cos(theta_A), sin(theta_A), cos(theta_B), sin(theta_B), sin(theta_B - theta_A)."""
    ta, tb = theta_A.theta, theta_B.theta
    return math.cos(ta), math.sin(ta), math.cos(tb), math.sin(tb), math.sin(tb - ta)


def _on_B(sigma: float, angles: tuple[float, ...]) -> tuple[float, float, float]:
    """(s_B, slope_q, slope_p): the particle's std of B at spread sigma and
    the `_angles` of theta_B, and the slopes Cov((q, p), B) / s_B^2 of its
    regression E[(q, p) | B]. Each is taken from the std of B's two terms over
    s_B, so none overflows where its exact value is in float range."""
    _, _, cb, sb, _ = angles
    u, v = sigma * cb, sb / (2.0 * sigma)  # the signed std of B's q and p terms
    s_B = math.hypot(u, v)
    return s_B, sigma * (u / s_B) / s_B, v / s_B / (2.0 * sigma) / s_B


def gaussian_regime_margin(
    g: float, delta_P: float, sigma: float, theta_A: Quadrature, theta_B: Quadrature
) -> RegimeMargin:
    """Gaussian-state bound: g^2 delta_P^2 must be well below
    (s_B / sin(theta_B - theta_A))^2, which is +inf where the quadratures
    coincide."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    angles = _angles(theta_A, theta_B)
    return _margin(g, delta_P, angles[4], _on_B(sigma, angles)[0])


def discrete_regime_margin(
    g: float, delta_P: float, eigenvalues: Sequence[float]
) -> RegimeMargin:
    """Discrete-spectrum bound: g^2 delta_P^2 well below 1 / max_gap^2 over
    all eigenvalue pairs. Vacuous for fewer than two distinct eigenvalues."""
    values = [float(a) for a in eigenvalues]
    if not values:
        raise ValueError("eigenvalues must be nonempty")
    return _margin(g, delta_P, max(values) - min(values), 1.0)
