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

SYMPLECTIC_TOL = 1e-12  # of the rounding scale, in both coupling checks below
_FORM = symplectic_form(2)
_FORM.setflags(write=False)
_TINY = math.ulp(0.0)  # floors a rounding scale of 0, whose deviation is 0 too
_L, _K = np.nonzero(_FORM.T)  # the (k, l) with J_kl != 0, in the order of l
_SIGN = _FORM[_K, _L]
_NO_EXPONENT = -(2**30)  # of a product that is 0: below every exponent


@dataclasses.dataclass(frozen=True)
class SymplecticMap:
    """Linear map on (q, p, Q, P) preserving the two-mode symplectic form.

    The public constructor checks the shape, finiteness and
    `_symplectic_deviation`. `coupling_map` builds maps that are symplectic
    by construction through `_derived`, which skips that check; its output
    is re-checked by `verify.run_repeatability` (criterion 6, 256 maps) and by
    `test_coupling_maps_pass_the_public_check` and
    `test_coupling_map_is_symplectic` in tests/test_dynamics.py.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("matrix must be 4x4")
        if not (_finite(m) and _symplectic_deviation(m) <= SYMPLECTIC_TOL):
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
    public constructor would. A finite g too large for the coupled state
    (above about 1e154) still gives a map; `ExperimentConfig` rejects that
    state as an overflow.
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
    return GaussianState._derived(*_push_moments(smap.matrix, joint.mean, joint.cov))


def _push_moments(m: np.ndarray, mean: np.ndarray, cov: np.ndarray):
    """(M mean, M cov M^T symmetrised) of a Gaussian's moments under a map
    M: the one evolution of moments, which `apply_to_state` and `verify`
    read. It takes stacks too: m (..., 4, 4), mean (..., 4) and cov (..., 4,
    4) broadcast against each other, and each item has the bits of its own
    call (M @ mean runs as M @ mean[:, None], the same matrix-vector kernel)."""
    cov = m @ cov @ m.swapaxes(-1, -2)
    return (m @ mean[..., None])[..., 0], 0.5 * (cov + cov.swapaxes(-1, -2))


def apply_to_points(smap: SymplecticMap, pts: np.ndarray) -> np.ndarray:
    """Vectorized image M @ pts of a (4, n) array of phase points, one
    coordinate per row."""
    return smap.matrix @ pts


def _symplectic_deviation(m: np.ndarray) -> float:
    """The largest |M^T J M - J|_ij over its rounding bound (|M|^T |J| |M|)_ij
    of a finite 4 x 4 map or stack of them, 0/0 as 0. Entry (i, j) sums the
    four products M_ki J_kl M_lj with J_kl = +-1. Each is formed from the
    mantissas of its two factors and scaled by 2^(e - e_ij), e its exponent
    and e_ij the largest exponent of the entry's nonzero products, and J_ij
    by 2^-e_ij, so no product overflows, nor underflows against the largest
    of its own entry (ldexp keeps 0 at 0)."""
    frac, e = np.frexp(m)
    products = frac[..., _K, :, None] * frac[..., _L, None, :]  # (..., pair, i, j)
    exponents = np.where(products != 0, e[..., _K, :, None] + e[..., _L, None, :], _NO_EXPONENT)
    top = exponents.max(axis=-3)
    top[top == _NO_EXPONENT] = 0  # an entry whose products are all 0
    terms = np.ldexp(products, exponents - top[..., None, :, :])
    with np.errstate(over="ignore"):  # a scaled J entry, or a ratio, out of range: inf
        form = np.ldexp(_FORM, -top)
        bound = np.maximum(np.abs(terms).sum(axis=-3), _TINY)
        deviation = np.abs((_SIGN[:, None, None] * terms).sum(axis=-3) - form) / bound
    return float(np.max(deviation))


def _invariance_deviation(quad: Quadrature, pts, evolved, work) -> float:
    """inf if a P' of the (4, n) images `evolved` (or (k, 4, n), under k maps)
    of the (4, n) `pts` is not its P, else the largest |A(x') - A(x)| over
    |c q| + |s p| + |c q'| + |s p'|, the rounding scale of the terms that
    cancel in it, 0/0 counting as 0 and NaN failing. `work` is (5, ...)
    scratch of the images' shape less their coordinate axis: the sampler
    passes a new (5, m) array at each flush, `verify` one (5, 16, 625)
    buffer that it reuses across its angles."""
    c, s = math.cos(quad.theta), math.sin(quad.theta)
    cq, sp, cq2, sp2, shift = work
    if np.any(np.subtract(evolved[..., 3, :], pts[3], out=shift)):
        return math.inf
    np.multiply(pts[0], c, out=cq)
    np.multiply(pts[1], s, out=sp)
    np.multiply(evolved[..., 0, :], c, out=cq2)
    np.multiply(evolved[..., 1, :], s, out=sp2)
    np.add(cq2, sp2, out=shift)  # A(x'), rounded as quad.value rounds it
    np.add(np.abs(cq2, out=cq2), np.abs(sp2, out=sp2), out=cq2)
    shift -= np.add(cq, sp, out=sp2)
    np.add(np.abs(cq, out=cq), np.abs(sp, out=sp), out=cq)
    cq += cq2
    np.divide(np.abs(shift, out=shift), np.maximum(cq, _TINY, out=cq), out=shift)
    return float(np.max(shift))
