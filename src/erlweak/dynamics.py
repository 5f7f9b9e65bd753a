"""Impulsive measurement coupling as an exact linear symplectic map.

The joint phase space is ordered (q, p, Q, P): particle first, device second.
Only the integrated interaction strength g enters; the time profile of the
coupling is irrelevant for an impulsive interaction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .states import GaussianState, Quadrature, _finite, symplectic_form

# |M^T J M - J| allowed, times max(1, max|M|)^2: the rounding of M^T J M
# grows with the square of M's entries (as g^2 for a coupling map)
SYMPLECTIC_TOL = 1e-12
_FORM = symplectic_form(2)
_FORM.setflags(write=False)


@dataclasses.dataclass(frozen=True)
class SymplecticMap:
    """Linear map on (q, p, Q, P) preserving the two-mode symplectic form.

    The public constructor checks the shape and M^T J M = J to
    SYMPLECTIC_TOL. `coupling_map` builds maps that are symplectic by
    construction through `_derived`, which skips that check; its output is
    re-checked by `verify.run_repeatability` (criterion 6, 256 maps) and by
    `test_coupling_maps_pass_the_public_check` and
    `test_coupling_map_is_symplectic` in tests/test_dynamics.py.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("matrix must be 4x4")
        if not _finite(m):
            raise ValueError("matrix is not symplectic")
        # |M^T J M - J| <= TOL s^2 for s = max(1, max|M|), evaluated as
        # |N^T J N - J / s^2| <= TOL for N = M / s, which cannot overflow
        s = max(1.0, float(np.max(np.abs(m))))
        n = m / s
        if not np.max(np.abs(n.T @ _FORM @ n - _FORM / s / s)) <= SYMPLECTIC_TOL:
            raise ValueError("matrix is not symplectic")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _derived(cls, matrix: np.ndarray) -> "SymplecticMap":
        """A map that is symplectic by construction: a freshly made finite
        4 x 4 float array, made read-only and stored as it is, without
        `__post_init__`."""
        smap = object.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(smap, "matrix", matrix)
        return smap


def coupling_map(g: float, theta_A: Quadrature) -> SymplecticMap:
    """Map generated by the impulsive coupling of strength g to the
    quadrature cos(theta_A)*q + sin(theta_A)*p:

        q' = q + g sin(theta_A) P
        p' = p - g cos(theta_A) P
        Q' = Q + g (cos(theta_A) q + sin(theta_A) p)
        P' = P

    The map is symplectic for every finite g and angle, so only finiteness
    is checked: a non-finite entry raises "matrix is not symplectic", as the
    public constructor would. At a finite g too large for M^T J M (above
    about 1e154) the map is still returned; `ExperimentConfig` then rejects
    the coupled state it makes as an overflow.
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
    if not _finite(m):
        raise ValueError("matrix is not symplectic")
    return SymplecticMap._derived(m)


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
