"""Truncated bivariate power series arithmetic."""

import numpy as np
import pytest

from aderfv.series import TruncatedSeries


def _x_series(coefficients):
    """Series in the x variable only (t-degree 0)."""
    return TruncatedSeries(np.asarray(coefficients, dtype=float)[:, None])


def _conv_oracle(a, b):
    """Plain double-loop truncated convolution, the slow reference."""
    nx = min(a.shape[-2], b.shape[-2])
    nt = min(a.shape[-1], b.shape[-1])
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (nx, nt))
    for j in range(nx):
        for k in range(nt):
            for p in range(j + 1):
                for q in range(k + 1):
                    out[..., j, k] += a[..., p, q] * b[..., j - p, k - q]
    return out


def test_multiply_matches_convolution_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((3, 4, 3))
        b = rng.standard_normal((3, 4, 3))
        got = (TruncatedSeries(a) * TruncatedSeries(b)).c
        np.testing.assert_allclose(got, _conv_oracle(a, b), atol=1e-13)


def test_multiply_broadcasts_batches():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 1, 3, 2))
    b = rng.standard_normal((4, 3, 2))
    got = (TruncatedSeries(a) * TruncatedSeries(b)).c
    assert got.shape == (5, 4, 3, 2)
    np.testing.assert_allclose(got, _conv_oracle(a, b[None]), atol=1e-13)


def test_scalar_multiply_and_add():
    s = _x_series([1.0, 2.0, 3.0])
    np.testing.assert_allclose((s * 2.0).c.ravel(), [2.0, 4.0, 6.0])
    np.testing.assert_allclose((s + s).c.ravel(), [2.0, 4.0, 6.0])
    np.testing.assert_allclose((s - 2.0 * s).c.ravel(), (-s).c.ravel())


def test_division_round_trip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 4, 4))
    b = rng.standard_normal((2, 4, 4))
    b[..., 0, 0] = 1.0 + rng.uniform(0.5, 1.5, size=2)  # invertible constant term
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    np.testing.assert_allclose(((sa * sb) / sb).c, a, atol=1e-11)


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


def test_degree_properties():
    s = TruncatedSeries(np.arange(12.0).reshape(4, 3))
    assert s.nx == 4 and s.nt == 3
    with pytest.raises(ValueError):
        TruncatedSeries(np.arange(3.0))
