"""Validity margins for the first-order (weak) regime.

The Gaussian ratio r is an exact weight, not a convention: the postselected
means are (q1 + r g mu_A) / (1 + r) and mu_P + p1 / (1 + r) for the first-order
shifts (q1, p1), so the first-order P shift is off by exactly r / (1 + r) of
itself and the Q shift by r / (1 + r) (g mu_A - q1). The classes deep_weak < 0.01,
weak < 0.1, marginal < 1 and strong >= 1 bound that factor below 1 %, 9.1 % and
50 %. The discrete margin uses the same thresholds as a convention.
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
    rhs: float  # bound; +inf when vacuous
    ratio: float
    classification: str


def _margin(lhs: float, rhs: float) -> RegimeMargin:
    ratio = 0.0 if math.isinf(rhs) else lhs / rhs
    return RegimeMargin(lhs, rhs, ratio, _classify(ratio))


def _gaussian_bound(sigma: float, cb: float, sb: float, sd: float) -> float:
    """(4 sigma^4 cb^2 + sb^2) / (4 sigma^2 sd^2) for the cosine and sine of
    theta_B and sd = sin(theta_A - theta_B), or its negative: +inf where the
    quadratures coincide or the denominator underflows (ratio 0)."""
    den = 4.0 * sigma**2 * sd**2
    if den == 0.0:
        return math.inf
    return (4.0 * sigma**4 * cb**2 + sb**2) / den


def gaussian_regime_margin(
    g: float, delta_P: float, sigma: float, theta_A: Quadrature, theta_B: Quadrature
) -> RegimeMargin:
    """Gaussian-state bound: g^2 delta_P^2 must be well below `_gaussian_bound`."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    tb = theta_B.theta
    bound = _gaussian_bound(sigma, math.cos(tb), math.sin(tb), math.sin(theta_A.theta - tb))
    return _margin(g**2 * delta_P**2, bound)


def discrete_regime_margin(
    g: float, delta_P: float, eigenvalues: Sequence[float]
) -> RegimeMargin:
    """Discrete-spectrum bound: g^2 delta_P^2 well below 1 / max_gap^2 over
    all eigenvalue pairs. Vacuous for fewer than two distinct eigenvalues."""
    lhs = g**2 * delta_P**2
    values = [float(a) for a in eigenvalues]
    if not values:
        raise ValueError("eigenvalues must be nonempty")
    max_gap = max(values) - min(values)
    if max_gap == 0.0:
        return _margin(lhs, math.inf)
    return _margin(lhs, 1.0 / max_gap**2)
