"""Seeded input generation for the three benchmark workloads.

Pure Python (no numpy, no erlweak), so the parent process stays light. The
same (workload, seed) always yields the same configs. Each workload keeps its
composition fixed across seeds (how many configs, how many with mu_P != 0,
how many in each tail band, the acceptance targets) and draws only the
parameter values from the seed, so the amount of work per round does not
depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from reference import cdf

HALF_PI = math.pi / 2
ADAPTIVE_FRACTION = 0.05  # erlweak's adaptive epsilon: 5% of std(B) after coupling

# mc-postselect: exact acceptance targets, log-spaced over [0.1 %, 1 %].
MC_TARGETS = (0.001, 0.0016, 0.0025, 0.004, 0.0063, 0.01)
MC_SWEEP_TARGETS = (0.002, 0.004, 0.008)
MC_SAMPLES = 1_000_000

ANALYTIC_CONFIGS = 256
# (z_lo, z_hi) bands of (b - mean_B) / std_B, cycled over the analytic configs.
ANALYTIC_Z_BANDS = ((-2.0, 2.0), (2.0, 6.0), (6.0, 32.0), (-32.0, -6.0))

HISTOGRAM_CONFIGS = 2
HISTOGRAM_SAMPLES = 4_000_000
HISTOGRAM_BINS = 61


def b_moments(p: dict) -> tuple[float, float]:
    """Mean and std of the postselected quadrature B after the coupling.

    B = cos(tB) q + sin(tB) p + g sin(tA - tB) P for q' = q + g sin(tA) P,
    p' = p - g cos(tA) P; q, p, P are independent.
    """
    cb, sb = math.cos(p["theta_B"]), math.sin(p["theta_B"])
    sd = math.sin(p["theta_A"] - p["theta_B"])
    var_P = (1.0 + p["omega"] ** 2) / (4.0 * p["delta_Q"] ** 2)
    mean = cb * p["mu_q"] + sb * p["mu_p"] + p["g"] * sd * p["mu_P"]
    var = (cb * p["sigma"]) ** 2 + sb**2 / (4.0 * p["sigma"] ** 2) + (p["g"] * sd) ** 2 * var_P
    return mean, math.sqrt(var)


def z_for_acceptance(target: float, half_width: float = ADAPTIVE_FRACTION) -> float:
    """z > 0 at which a window of +-half_width std around mean + z std has
    probability `target` (bisection; probability falls as z grows)."""
    lo, hi = half_width, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(-mid + half_width) - cdf(-mid - half_width) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def to_document(p: dict, n_samples: int, seed: int, epsilon: float | None = None) -> dict:
    """erlweak's JSON config document for one parameter set."""
    return {
        "particle": {"mu_q": p["mu_q"], "mu_p": p["mu_p"], "sigma": p["sigma"]},
        "device": {"delta_Q": p["delta_Q"], "mu_P": p["mu_P"], "omega": p["omega"]},
        "coupling": {"g": p["g"], "theta_A": p["theta_A"]},
        "postselection": {"theta_B": p["theta_B"], "b": p["b"], "epsilon": epsilon},
        "sampling": {"n_samples": n_samples, "seed": seed},
    }


def _baseline_params(rng: random.Random, mu_P: float) -> dict:
    """Near the ROADMAP baseline: g=0.3, omega=0.5, theta_A=0, theta_B=pi/2."""
    return {
        "mu_q": rng.uniform(-0.1, 0.1),
        "mu_p": rng.uniform(-0.1, 0.1),
        "sigma": rng.uniform(0.9, 1.1),
        "delta_Q": rng.uniform(0.9, 1.1),
        "mu_P": mu_P,
        "omega": rng.uniform(0.4, 0.6),
        "g": rng.uniform(0.25, 0.35),
        "theta_A": rng.uniform(-0.1, 0.1),
        "theta_B": HALF_PI + rng.uniform(-0.1, 0.1),
    }


def _with_acceptance(p: dict, target: float) -> dict:
    mean, std = b_moments(p)
    return {**p, "b": mean + z_for_acceptance(target) * std}


def mc_postselect(seed: int) -> list[dict]:
    """Six `simulate` ops (every other one with mu_P != 0) and one 3-point
    `sweep --mc` over b (mu_P = 0, so its exact_* columns are checkable)."""
    rng = random.Random(f"mc-postselect:{seed}")
    ops = []
    for k, target in enumerate(MC_TARGETS):
        mu_P = 0.0 if k % 2 == 0 else rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.6)
        p = _with_acceptance(_baseline_params(rng, mu_P), target)
        doc = to_document(p, MC_SAMPLES, rng.getrandbits(32))
        ops.append({"kind": "simulate", "doc": doc})
    base = _baseline_params(rng, 0.0)
    bs = [_with_acceptance(base, t)["b"] for t in MC_SWEEP_TARGETS]
    doc = to_document({**base, "b": bs[0]}, MC_SAMPLES, rng.getrandbits(32))
    doc["sweep"] = {"b": bs}
    ops.append({"kind": "sweep_mc", "doc": doc})
    return ops


def analytic_grid(seed: int) -> list[dict]:
    """Library-level configs varying every config field: mu_P != 0 on every
    third config; b placed in the bulk, moderate tail, and out to 32 std_B in
    either direction; adaptive or explicit epsilon. One `verify` op closes
    the round."""
    rng = random.Random(f"analytic-grid:{seed}")
    ops = []
    for i in range(ANALYTIC_CONFIGS):
        p = {
            "mu_q": rng.uniform(-1.0, 1.0),
            "mu_p": rng.uniform(-1.0, 1.0),
            "sigma": rng.uniform(0.3, 3.0),
            "delta_Q": rng.uniform(0.3, 3.0),
            "mu_P": rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0) if i % 3 == 0 else 0.0,
            "omega": rng.uniform(-1.5, 1.5),
            "g": rng.uniform(0.0, 1.5),
            "theta_A": rng.uniform(0.0, 2.0 * math.pi),
            "theta_B": rng.uniform(0.0, 2.0 * math.pi),
        }
        mean, std = b_moments(p)
        p["b"] = mean + rng.uniform(*ANALYTIC_Z_BANDS[i % len(ANALYTIC_Z_BANDS)]) * std
        epsilon = None if i % 2 == 0 else rng.uniform(0.01, 0.5) * std
        doc = to_document(p, rng.randint(1_000, 10_000_000), rng.getrandbits(63), epsilon)
        ops.append({"kind": "analytic", "doc": doc})
    ops.append({"kind": "verify"})
    return ops


def histogram_stream(seed: int) -> list[dict]:
    """`histogram` ops at a large n_samples on the auto 5-sigma box."""
    rng = random.Random(f"histogram-stream:{seed}")
    ops = []
    for _ in range(HISTOGRAM_CONFIGS):
        p = {
            "mu_q": rng.uniform(-0.5, 0.5),
            "mu_p": rng.uniform(-0.5, 0.5),
            "sigma": rng.uniform(0.5, 2.0),
            "delta_Q": rng.uniform(0.5, 2.0),
            "mu_P": rng.uniform(-0.5, 0.5),
            "omega": rng.uniform(-1.0, 1.0),
            "g": rng.uniform(0.2, 1.0),
            "theta_A": rng.uniform(0.0, 2.0 * math.pi),
            "theta_B": rng.uniform(0.0, 2.0 * math.pi),
            "b": rng.uniform(-1.0, 1.0),
        }
        doc = to_document(p, HISTOGRAM_SAMPLES, rng.getrandbits(32))
        doc["histogram"] = {"bins": HISTOGRAM_BINS}
        ops.append({"kind": "histogram", "doc": doc})
    return ops


WORKLOADS = {
    "mc-postselect": mc_postselect,
    "analytic-grid": analytic_grid,
    "histogram-stream": histogram_stream,
}


def config_hash(ops: list[dict]) -> str:
    """sha256 of the canonical JSON of a generated op list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
