"""Reconstruction basis, candidate stencils and nonlinear weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aderfv import weno

P = np.polynomial.Polynomial


def _theta(l):
    """Shifted Legendre theta_l on [0, 1] in the power basis (independent
    of the implementation under test)."""
    leg = np.polynomial.Legendre.basis(l).convert(kind=P)
    return leg(P([-1.0, 2.0]))  # compose with xi -> 2 xi - 1


@pytest.mark.parametrize("l", range(6))
def test_basis_matches_shifted_legendre(l):
    xi = np.linspace(-2.0, 3.0, 41)
    ref = _theta(l)(xi)
    got = weno.legendre_derivative(l, xi, 0)
    np.testing.assert_allclose(got, ref, atol=1e-11)
    np.testing.assert_allclose(weno.legendre_coefficients(l), _theta(l).coef, atol=1e-11)


def test_basis_point_values():
    assert weno.legendre_derivative(1, 0.5, 0) == pytest.approx(0.0)
    assert weno.legendre_derivative(1, 1.0, 0) == pytest.approx(1.0)
    assert weno.legendre_derivative(2, 0.0, 0) == pytest.approx(1.0)
    assert weno.legendre_derivative(2, 0.5, 0) == pytest.approx(-0.5)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["left", "central", "right"])
def test_stencil_matrix_against_integration(degree, kind):
    # Entry (r, l) is the average of theta_l over the offset-r cell.
    offsets = weno.stencil_offsets(degree, kind)
    mat = weno.stencil_matrix(degree, kind)
    assert mat.shape == (len(offsets), degree + 1)
    for i, off in enumerate(offsets):
        for l in range(degree + 1):
            anti = _theta(l).integ()
            exact = anti(off + 1.0) - anti(off)
            assert mat[i, l] == pytest.approx(exact, abs=1e-13)


def _oscillation_index(beta, degree):
    return beta @ weno.oscillation_matrix(degree) @ beta


def test_oscillation_index_pure_modes():
    # OI(theta_1) = int (2)^2 = 4;  OI(theta_2) = 12 + 144 = 156.
    assert _oscillation_index(np.array([0.0, 1.0]), 1) == pytest.approx(4.0)
    assert _oscillation_index(np.array([0.0, 0.0, 1.0]), 2) == pytest.approx(156.0)
    assert _oscillation_index(np.array([5.0, 0.0, 0.0]), 2) == pytest.approx(0.0)


def test_oscillation_matrix_is_gram():
    for degree in (1, 2, 3, 4):
        omat = weno.oscillation_matrix(degree)
        np.testing.assert_allclose(omat, omat.T, atol=1e-12)
        eig = np.linalg.eigvalsh(omat)
        assert eig[0] > -1e-12  # positive semi-definite (constant mode is null)


def test_candidate_values_degree_two():
    # Hand-derived projections for the quadratic stencils; the window holds
    # the averages at offsets -2..2.
    got = weno.window_candidate_matrix(2, "central") @ np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(got, [0.0, 0.25, 1.0 / 12.0], atol=1e-14)
    got = weno.window_candidate_matrix(2, "left") @ np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(got, [0.0, 0.25, 1.0 / 12.0], atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["left", "central", "right"])
def test_candidate_reproduces_polynomials(degree, kind):
    # Feeding exact cell averages of a degree-M polynomial on the stencil
    # must return its coefficients, for the square stencils and the wide
    # least-squares ones; window cells outside the stencil are ignored.
    rng = np.random.default_rng(degree * 7 + len(kind))
    coeffs = rng.standard_normal(degree + 1)
    poly = sum(c * _theta(l) for l, c in enumerate(coeffs))
    anti = poly.integ()
    window = 1e3 * rng.standard_normal(2 * degree + 1)
    for o in weno.stencil_offsets(degree, kind):
        window[degree + o] = anti(o + 1.0) - anti(o)
    got = weno.window_candidate_matrix(degree, kind) @ window
    np.testing.assert_allclose(got, coeffs, atol=1e-12)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_blend_reproduces_polynomials(degree):
    # All candidates agree on smooth polynomial data, so the nonlinear blend
    # is exact no matter how the weights fall.
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal((2, degree + 1))  # two components
    window = np.empty((2 * degree + 1, 2))
    for comp in range(2):
        poly = sum(c * _theta(l) for l, c in enumerate(coeffs[comp]))
        anti = poly.integ()
        for i, off in enumerate(range(-degree, degree + 1)):
            window[i, comp] = anti(off + 1.0) - anti(off)
    out = weno.reconstruct_batch(window[None], degree)[0]
    np.testing.assert_allclose(out, coeffs, atol=1e-11)


def test_weight_normalisation_batched():
    rng = np.random.default_rng(0)
    oi = rng.uniform(0.0, 50.0, size=(3, 7, 4))
    w = weno.nonlinear_weights(np.moveaxis(oi, 0, -1))
    assert w.shape == (7, 4, 3)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-14)


def test_step_data_avoids_crossing_stencils():
    # Degree 2, data 1 1 1 | 0 0: the left stencil is flat so it must carry
    # essentially all the weight and the blend stays flat through the cell.
    window = np.array([1.0, 1.0, 1.0, 0.0, 0.0])[:, None]
    out = weno.reconstruct_batch(window[None], 2)[0, 0]
    assert out[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(out[1]) < 1e-8 and abs(out[2]) < 1e-8

    oi = [_oscillation_index(weno.window_candidate_matrix(2, k) @ window[:, 0], 2)
          for k in ("left", "central", "right")]
    w = weno.nonlinear_weights(np.array(oi))
    assert w[0] > 1.0 - 1e-8


@given(st.lists(st.floats(-100.0, 100.0), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_mean_preservation_any_data(values):
    # The blended polynomial's cell average is the central datum, exactly,
    # because every candidate honours it and the weights sum to one.
    window = np.array(values)[:, None]
    out = weno.reconstruct_batch(window[None], 2)[0, 0]
    assert out[0] == pytest.approx(values[2], abs=1e-13 * (1 + abs(values[2])))


def test_legendre_derivative_scaling():
    # Physical derivatives of p = 1 + 2 theta_1 + 3 theta_2 on a cell of width dx.
    dx = 0.1
    coeffs = np.array([1.0, 2.0, 3.0])
    xi = 0.37

    def deriv(k):
        return sum(c * weno.legendre_derivative(l, xi, k) for l, c in enumerate(coeffs)) / dx**k

    val = 1.0 + 2.0 * (2 * xi - 1) + 3.0 * (6 * xi**2 - 6 * xi + 1)
    d1 = (2.0 * 2 + 3.0 * (12 * xi - 6)) / dx
    d2 = 3.0 * 12 / dx**2
    assert deriv(0) == pytest.approx(val, rel=1e-13)
    assert deriv(1) == pytest.approx(d1, rel=1e-13)
    assert deriv(2) == pytest.approx(d2, rel=1e-13)
    assert deriv(3) == 0.0

