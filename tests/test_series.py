"""Truncated bivariate power series arithmetic."""

import numpy as np
import pytest

from aderfv.series import TruncatedSeries


def _x_series(coefficients):
    """Series in the x variable only (t-degree 0)."""
    return TruncatedSeries(np.asarray(coefficients, dtype=float)[:, None])


def _conv_oracle(a, b):
    """Plain double-loop truncated convolution, the slow reference."""
    nx = min(a.shape[0], b.shape[0])
    nt = min(a.shape[1], b.shape[1])
    out = np.zeros((nx, nt) + np.broadcast_shapes(a.shape[2:], b.shape[2:]))
    for j in range(nx):
        for k in range(nt):
            for p in range(j + 1):
                for q in range(k + 1):
                    out[j, k] += a[p, q] * b[j - p, k - q]
    return out


def test_multiply_matches_convolution_oracle():
    # Coefficient-major layout: (x, t) degree axes lead, batch axes trail.
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal((4, 3, 3))
        got = (TruncatedSeries(a) * TruncatedSeries(b)).c
        np.testing.assert_allclose(got, _conv_oracle(a, b), atol=1e-13)
    # Unequal degrees truncate to the smaller ones.
    a = rng.standard_normal((5, 2, 4))
    b = rng.standard_normal((3, 4, 4))
    got = (TruncatedSeries(a) * TruncatedSeries(b)).c
    assert got.shape == (3, 2, 4)
    np.testing.assert_allclose(got, _conv_oracle(a, b), atol=1e-13)


def test_multiply_broadcasts_batches():
    # Operands have equal batch rank; size-one batch axes broadcast.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 2, 5, 1))
    b = rng.standard_normal((3, 2, 1, 4))
    got = (TruncatedSeries(a) * TruncatedSeries(b)).c
    assert got.shape == (3, 2, 5, 4)
    np.testing.assert_allclose(got, _conv_oracle(a, b), atol=1e-13)


def test_scalar_multiply_and_add():
    s = _x_series([1.0, 2.0, 3.0])
    np.testing.assert_allclose((s * 2.0).c.ravel(), [2.0, 4.0, 6.0])
    np.testing.assert_allclose((s + s).c.ravel(), [2.0, 4.0, 6.0])
    np.testing.assert_allclose((s - 2.0 * s).c.ravel(), (-s).c.ravel())
    # A scalar lifts to the constant term of every batch entry.
    shifted = (TruncatedSeries(np.ones((3, 2, 5))) + 1.0).c
    np.testing.assert_array_equal(shifted[0, 0], 2.0)
    np.testing.assert_array_equal(shifted.reshape(6, 5)[1:], 1.0)


def test_division_round_trip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4, 2))
    b = rng.standard_normal((4, 4, 2))
    b[0, 0] = 1.0 + rng.uniform(0.5, 1.5, size=2)  # invertible constant term
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    np.testing.assert_allclose(((sa * sb) / sb).c, a, atol=1e-11)
    # Size-one batch axes broadcast, as in multiplication.
    a = rng.standard_normal((3, 3, 4, 1))
    b = rng.standard_normal((3, 3, 1, 5))
    b[0, 0] = 2.0
    quotient = TruncatedSeries(a) / TruncatedSeries(b)
    assert quotient.c.shape == (3, 3, 4, 5)
    np.testing.assert_allclose(
        (quotient * TruncatedSeries(b)).c, np.broadcast_to(a, (3, 3, 4, 5)), atol=1e-12
    )


def test_geometric_series():
    # 1 / (1 - x) = 1 + x + x^2 + ...
    one = TruncatedSeries(np.array([[1.0], [0.0], [0.0], [0.0], [0.0]]))
    denom = TruncatedSeries(np.array([[1.0], [-1.0], [0.0], [0.0], [0.0]]))
    np.testing.assert_allclose((one / denom).c.ravel(), np.ones(5), atol=1e-14)


def test_division_by_zero_constant_term():
    num = _x_series([1.0, 0.0])
    den = _x_series([0.0, 1.0])
    with pytest.raises(ZeroDivisionError):
        num / den


def test_x_derivative():
    s = _x_series([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(s.x_derivative().c.ravel(), [2.0, 6.0, 12.0, 0.0])
    c = np.arange(24.0).reshape(3, 2, 4)
    got = TruncatedSeries(c).x_derivative().c
    np.testing.assert_array_equal(got, np.stack([c[1], 2.0 * c[2], 0.0 * c[0]]))


def test_degree_properties():
    s = TruncatedSeries(np.arange(24.0).reshape(4, 3, 2))
    assert s.nx == 4 and s.nt == 3
    with pytest.raises(ValueError):
        TruncatedSeries(np.arange(3.0))
