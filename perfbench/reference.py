"""Reference values the correctness gates compare erlweak's outputs against.

Written independently of erlweak's own window maths: the truncated-normal
moments are evaluated on the tail side through the Mills ratio, so they stay
accurate out to the 32-sigma windows the analytic-grid workload generates.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
ULP = 2.0**-52


def pdf(x: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


def cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT2)


def sf(x: float) -> float:
    return 0.5 * math.erfc(x / SQRT2)


def mills(x: float) -> float:
    """Mills ratio sf(x) / pdf(x) for x >= 0.

    erfc keeps full relative accuracy until it underflows near x = 38, so the
    direct quotient is used below 25 and the continued fraction
    1 / (x + 1 / (x + 2 / (x + 3 / ...))) above, where it converges fast.
    """
    if x < 25.0:
        return sf(x) / pdf(x)
    t = x
    for k in range(200, 0, -1):
        t = x + k / t
    return 1.0 / t


def _upper_window(lo: float, hi: float) -> tuple[float, float]:
    """(probability, E[Z | lo <= Z <= hi]) for 0 <= lo < hi, factoring pdf(lo)."""
    ratio = math.exp(-0.5 * (hi - lo) * (hi + lo))  # pdf(hi) / pdf(lo)
    tail = mills(lo) - ratio * mills(hi)
    return pdf(lo) * tail, (1.0 - ratio) / tail


def window(lo: float, hi: float) -> tuple[float, float]:
    """(probability, truncated mean) of a standard normal on [lo, hi]."""
    if not lo < hi:
        raise ValueError("empty window")
    if lo >= 0.0:
        return _upper_window(lo, hi)
    if hi <= 0.0:
        prob, mean = _upper_window(-hi, -lo)
        return prob, -mean
    prob = cdf(hi) - cdf(lo)
    return prob, (pdf(lo) - pdf(hi)) / prob


def cdf_cancellation(lo: float, hi: float, prob: float) -> float:
    """Relative error that evaluating cdf(hi) - cdf(lo) in double precision
    can carry: one ulp on each term, over the true difference. Large in the
    upper tail, where both terms round towards 1."""
    return ULP * (cdf(hi) + cdf(lo)) / prob


def windowed_means(config, epsilon: float) -> tuple[tuple[float, float, float], float, float]:
    """Exact window-conditioned means (Q, P, A), the window probability, and
    the cdf-difference cancellation of the window (see cdf_cancellation)."""
    import numpy as np
    from erlweak.states import quadrature_vector

    evolved = config.evolved_joint()
    v = quadrature_vector(2, 0, config.theta_B)
    mean_B, std_B = float(v @ evolved.mean), math.sqrt(float(v @ evolved.cov @ v))
    lo, hi = (config.b - epsilon - mean_B) / std_B, (config.b + epsilon - mean_B) / std_B
    prob, shift = window(lo, hi)
    cov_v = evolved.cov @ v
    means = []
    for u in (
        np.array([0.0, 0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 0.0, 1.0]),
        quadrature_vector(2, 0, config.theta_A),
    ):
        means.append(float(u @ evolved.mean) + float(u @ cov_v) / std_B * shift)
    return tuple(means), prob, cdf_cancellation(lo, hi, prob)


def closed_form_with_mu_P(params: dict) -> tuple[float, float]:
    """erlweak's closed form with the device mean momentum folded in: shift
    the particle means by g mu_P (sin tA, -cos tA) and add mu_P to mean_P.
    Used only to attribute a closed-form failure to the ignored mu_P."""
    from erlweak.analytic import postselected_means_gaussian
    from erlweak.states import Quadrature

    g, mu_P, theta_A = params["g"], params["mu_P"], params["theta_A"]
    mean_Q, mean_P = postselected_means_gaussian(
        params["mu_q"] + g * mu_P * math.sin(theta_A),
        params["mu_p"] - g * mu_P * math.cos(theta_A),
        params["sigma"],
        params["delta_Q"],
        params["omega"],
        g,
        Quadrature(theta_A),
        Quadrature(params["theta_B"]),
        params["b"],
    )
    return mean_Q, mean_P + mu_P


def box_outside_probability(doc: dict, box: tuple[float, float, float, float]) -> float:
    """Exact probability that (p', P') falls outside the box
    [p_lo, p_hi] x [P_lo, P_hi] after the coupling, by composite Simpson
    integration over P' of the conditional normal of p'.

    p' = p - g cos(tA) P and P' = P, with p ~ N(mu_p, 1/(4 sigma^2)) and
    P ~ N(mu_P, (1 + omega^2) / (4 delta_Q^2)) independent.
    """
    part, dev, coup = doc["particle"], doc["device"], doc["coupling"]
    k = -coup["g"] * math.cos(coup["theta_A"])
    var_P = (1.0 + dev["omega"] ** 2) / (4.0 * dev["delta_Q"] ** 2)
    var_p = 1.0 / (4.0 * part["sigma"] ** 2)
    std_P = math.sqrt(var_P)
    p_lo, p_hi, P_lo, P_hi = box
    a, c = (P_lo - dev["mu_P"]) / std_P, (P_hi - dev["mu_P"]) / std_P
    outside = cdf(a) + sf(c)
    # p' | P = mu_P + std_P x  ~  N(mu_p + k (mu_P + std_P x), var_p)
    std_cond = math.sqrt(var_p)
    steps = 4000
    h = (c - a) / steps
    total = 0.0
    for i in range(steps + 1):
        x = a + i * h
        m = part["mu_p"] + k * (dev["mu_P"] + std_P * x)
        miss = cdf((p_lo - m) / std_cond) + sf((p_hi - m) / std_cond)
        weight = 1 if i in (0, steps) else (4 if i % 2 else 2)
        total += weight * pdf(x) * miss
    return outside + total * h / 3.0
