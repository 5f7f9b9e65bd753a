"""Impulsive measurement coupling as an exact linear symplectic map.

The joint phase space is ordered (q, p, Q, P): particle first, device second.
Only the integrated interaction strength g enters; the time profile of the
coupling is irrelevant for an impulsive interaction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .states import GaussianState, Quadrature, symplectic_form

# |M^T J M - J| allowed, times max(1, max|M|)^2: the rounding of M^T J M
# grows with the square of M's entries (as g^2 for a coupling map)
SYMPLECTIC_TOL = 1e-12
_FORM = symplectic_form(2)
_FORM.setflags(write=False)


@dataclasses.dataclass(frozen=True)
class SymplecticMap:
    """Linear map on (q, p, Q, P) preserving the two-mode symplectic form."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("matrix must be 4x4")
        scale = max(1.0, float(np.max(np.abs(m)))) ** 2
        if not np.max(np.abs(m.T @ _FORM @ m - _FORM)) <= SYMPLECTIC_TOL * scale:  # nan fails
            raise ValueError("matrix is not symplectic")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def coupling_map(g: float, theta_A: Quadrature) -> SymplecticMap:
    """Map generated by the impulsive coupling of strength g to the
    quadrature cos(theta_A)*q + sin(theta_A)*p:

        q' = q + g sin(theta_A) P
        p' = p - g cos(theta_A) P
        Q' = Q + g (cos(theta_A) q + sin(theta_A) p)
        P' = P
    """
    c, s = math.cos(theta_A.theta), math.sin(theta_A.theta)
    m = np.array(
        [
            [1.0, 0.0, 0.0, g * s],
            [0.0, 1.0, 0.0, -g * c],
            [g * c, g * s, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return SymplecticMap(m)


def apply_to_state(smap: SymplecticMap, joint: GaussianState) -> GaussianState:
    """Push a two-mode Gaussian through the map: mean -> M mean, cov -> M cov M^T."""
    if joint.n_modes != 2:
        raise ValueError(f"expected a 2-mode joint state, got {joint.n_modes} modes")
    m = smap.matrix
    cov = m @ joint.cov @ m.T
    return GaussianState._derived(m @ joint.mean, 0.5 * (cov + cov.T))


def apply_to_points(
    smap: SymplecticMap, pts: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized image M @ pts of a (4, n) array of phase points, one
    coordinate per row, written into `out` when it is given."""
    return np.matmul(smap.matrix, pts, out=out)
