import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlweak import (
    ExperimentConfig,
    Quadrature,
    SymplecticMap,
    apply_to_points,
    apply_to_state,
    check_epistemic_restriction,
    coupling_map,
    make_particle,
    make_pure_device,
    sample_state,
    symplectic_form,
    tensor,
)
from erlweak.dynamics import SYMPLECTIC_TOL, _symplectic_deviation

import gate

FORM = symplectic_form(2)

couplings = st.floats(-3.0, 3.0)
angles = st.floats(0.0, 2.0 * math.pi)
coords = st.floats(-10.0, 10.0)


def test_zero_coupling_is_identity():
    np.testing.assert_array_equal(coupling_map(0.0, Quadrature(1.3)).matrix, np.eye(4))


def test_position_coupling_matches_equations_of_motion():
    # g=1, theta_A=0: q'=q, p'=p-P, Q'=Q+q, P'=P
    m = coupling_map(1.0, Quadrature(0.0)).matrix
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, -1],
            [1, 0, 1, 0],
            [0, 0, 0, 1],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_point_image_position_coupling():
    pt = apply_to_points(coupling_map(1.0, Quadrature(0.0)), np.array([[2.0, 0.0, 0.0, 3.0]]).T)[:, 0]
    assert tuple(pt) == pytest.approx((2.0, -3.0, 2.0, 3.0))


def test_point_image_momentum_coupling():
    pt = apply_to_points(
        coupling_map(0.5, Quadrature(math.pi / 2)), np.array([[0.0, 1.0, 0.0, 2.0]]).T
    )[:, 0]
    assert tuple(pt) == pytest.approx((1.0, 1.0, 0.5, 2.0))


def test_nonsymplectic_matrix_rejected():
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        SymplecticMap(bad)


def _symplectic_in_exact_arithmetic(m: np.ndarray) -> bool:
    """The public check |M^T J M - J| <= SYMPLECTIC_TOL (|M|^T |J| |M|) at
    every entry, evaluated in rationals: no rounding, no overflow."""
    q = [[Fraction(x) for x in row] for row in m.tolist()]
    form = [[Fraction(int(x)) for x in row] for row in FORM.tolist()]

    def entry(i, j, f):
        return sum(f(q[k][i]) * f(form[k][l]) * f(q[l][j]) for k in range(4) for l in range(4))

    return all(
        abs(entry(i, j, lambda x: x) - form[i][j]) <= Fraction(SYMPLECTIC_TOL) * entry(i, j, abs)
        for i in range(4)
        for j in range(4)
    )


@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([1e155, 1e-155, 1.0, 1.0]),
        np.diag([1e300, 1e-300, 1e-300, 1e300]),
        np.diag([1e200, 1.0, 1.0, 1.0]),
        np.diag([1e200, 1e200, 1.0, 1.0]),
        np.diag([1e308, 1.0, 1e-308, 1.0]),
        np.full((4, 4), 1e300),
        coupling_map(1e200, Quadrature(0.7)).matrix,
        coupling_map(1e300, Quadrature(2.0)).matrix,
        np.diag([1e200, 2e-200, 1.0, 1.0]),
        np.diag([1e300, 2e-300, 1.0, 1.0]),
        np.diag([1e307, 2e-307, 1.0, 1.0]),
        np.diag([1e200, 1e-200, 1.0, 1.0]),
    ],
    ids=[
        "1e155", "1e300", "1e200-q", "1e200-qp", "1e308", "full-1e300", "coupling-1e200",
        "coupling-1e300", "1e200-2e-200", "1e300-2e-300", "1e307-2e-307", "1e200-1e-200",
    ],
)
def test_public_check_of_large_entries_is_its_tolerance(matrix):
    # max(1, max|M|)^2 overflowed in Python floats above about 1.34e154, so
    # the first eight raised OverflowError. Dividing M by its largest entry
    # then underflowed the small entry of the 2e-200, 2e-300 and 2e-307
    # diagonals, and M^T J M - J = 1 at entry (0, 1) went unseen; each column
    # is now scaled by its own power of two. The verdict is the tolerance's
    # own, with no numpy RuntimeWarning (pytest turns those into errors)
    if _symplectic_in_exact_arithmetic(matrix):
        assert SymplecticMap(matrix).matrix.tobytes() == matrix.tobytes()
    else:
        with pytest.raises(ValueError, match="^matrix is not symplectic$"):
            SymplecticMap(matrix)


def test_entry_whose_products_all_underflow_is_checked():
    # entry (0, 2) of M^T J M is M_20 M_32 = 9.68e-170 * -1.87e-199, about
    # -1.8e-368 in exact arithmetic and all of its rounding bound: with the
    # columns scaled, that product still underflowed and 0/0 passed the map.
    # Each entry's products are now scaled by their own largest exponent,
    # for one map and for the stacks of `verify.run_repeatability`
    m = np.eye(4)
    m[0, 3], m[1, 3], m[2, 0], m[2, 1], m[3, 2] = -7.22e-170, -9.68e-170, 9.68e-170, -7.22e-170, -1.87e-199
    assert not _symplectic_in_exact_arithmetic(m)
    with pytest.raises(ValueError, match="^matrix is not symplectic$"):
        SymplecticMap(m)
    stack = np.stack([coupling_map(0.3, Quadrature(0.7)).matrix, m])
    assert _symplectic_deviation(m) == _symplectic_deviation(stack) == pytest.approx(1.0)


@pytest.mark.parametrize("matrix", [np.diag([1e13, 1.0, 1.0, 1.0]), np.diag([1e200, 1.0, 1.0, 1.0])])
def test_badly_scaled_matrix_far_from_symplectic_rejected(matrix):
    # M^T J M - J is 1e13 (1e200) at entry (0, 1), the size of the products
    # that make it up; a bound of 1e-12 max|M|^2, 1e14 (1e388), would pass it
    with pytest.raises(ValueError, match="^matrix is not symplectic$"):
        SymplecticMap(matrix)


@pytest.mark.parametrize("g", [300.0, 1000.0])
def test_large_coupling_accepted_at_every_angle(g):
    # the rounding of M^T J M grows as g^2: an absolute tolerance rejected
    # most of these angles
    for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        m = coupling_map(g, Quadrature(theta)).matrix
        assert m[2, 0] == g * math.cos(theta)


ANGLES_16 = [2.0 * math.pi * k / 16 for k in range(16)]


def test_coupling_maps_pass_the_public_check():
    """coupling_map skips the constructor's M^T J M check; every map up to
    |g| = 1e150 passes it and is stored bit for bit as it would store it."""
    magnitudes = (0.0, 1e-150, 1e-3, 0.3, 1.0, 3.0, 1e3, 1e8, 1e150)
    for g, theta in itertools.product([*magnitudes, *(-g for g in magnitudes)], ANGLES_16):
        m = coupling_map(g, Quadrature(theta)).matrix
        checked = SymplecticMap(m).matrix
        assert m.dtype == checked.dtype and m.tobytes() == checked.tobytes(), (g, theta)
        assert not m.flags.writeable


@pytest.mark.parametrize(
    "g, theta", [(math.nan, 0.7), (math.inf, 0.7), (-math.inf, 0.7), (math.inf, 0.0), (0.0, math.nan)]
)
def test_non_finite_coupling_rejected(g, theta):
    with pytest.raises(ValueError) as info:
        coupling_map(g, Quadrature(theta))
    assert str(info.value) == "matrix is not symplectic"


def test_coupling_too_large_for_the_form_check_ends_in_the_state_overflow():
    # above about 1.34e154, M^T J M (and the constructor's tolerance) overflow;
    # the map is returned, and the config's coupled state is the overflow
    m = coupling_map(1e200, Quadrature(0.7)).matrix
    assert m[2, 0] == 1e200 * math.cos(0.7) and m[3, 3] == 1.0
    config = ExperimentConfig(
        0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1e200,
        Quadrature(0.7), Quadrature(math.pi / 2), 1.0, None, 1, 0,
    )
    with pytest.raises(OverflowError, match="^the coupled state overflows"):
        config.evolved_joint()


@given(couplings, angles)
def test_coupling_map_is_symplectic(g, theta):
    m = coupling_map(g, Quadrature(theta)).matrix
    np.testing.assert_allclose(m.T @ FORM @ m, FORM, atol=1e-12)


@given(couplings, angles, coords, coords, coords, coords)
@settings(max_examples=200)
def test_repeatability_and_momentum_invariance(g, theta, q, p, Q, P):
    quad = Quadrature(theta)
    q2, p2, _, P2 = apply_to_points(coupling_map(g, quad), np.array([[q, p, Q, P]]).T)[:, 0]
    assert P2 == P
    assert quad.value(q2, p2) == pytest.approx(quad.value(q, p), abs=1e-12)


def test_state_mean_picks_up_pointer_shift():
    joint = tensor(make_particle(1.0, 0.0, 1.0), make_pure_device(1.0, 0.0, 0.0))
    evolved = apply_to_state(coupling_map(1.0, Quadrature(0.0)), joint)
    np.testing.assert_allclose(evolved.mean, [1.0, 0.0, 1.0, 0.0], atol=1e-14)


def test_identity_map_preserves_state():
    joint = tensor(make_particle(0.3, -0.2, 0.8), make_pure_device(1.5, 0.1, -0.5))
    evolved = apply_to_state(coupling_map(0.0, Quadrature(0.7)), joint)
    np.testing.assert_array_equal(evolved.mean, joint.mean)
    np.testing.assert_array_equal(evolved.cov, joint.cov)


@given(couplings, angles)
@settings(max_examples=50)
def test_determinant_and_restriction_preserved(g, theta):
    joint = tensor(make_particle(0.3, -0.2, 0.8), make_pure_device(1.5, 0.1, -0.5))
    evolved = apply_to_state(coupling_map(g, Quadrature(theta)), joint)
    assert np.linalg.det(evolved.cov) == pytest.approx(np.linalg.det(joint.cov), rel=1e-9)
    assert (
        check_epistemic_restriction(evolved).status
        == check_epistemic_restriction(joint).status
    )


def test_wrong_mode_count_rejected():
    with pytest.raises(ValueError):
        apply_to_state(coupling_map(1.0, Quadrature(0.0)), make_particle(0.0, 0.0, 1.0))


def test_state_evolution_matches_sampled_points():
    # pushing the Gaussian equals fitting a Gaussian to pushed samples
    joint = tensor(make_particle(0.5, -0.3, 1.0), make_pure_device(1.0, 0.2, 0.6))
    smap = coupling_map(0.7, Quadrature(0.9))
    evolved = apply_to_state(smap, joint)
    pts = apply_to_points(smap, sample_state(joint, 200_000, seed=11))
    gate.assert_z(gate.sample_z(pts, evolved))
