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


def _graded_product(a, b):
    """Block-by-block product in graded order, each block summed in (p, q) order."""
    nx, nt = min(a.shape[0], b.shape[0]), min(a.shape[1], b.shape[1])
    batch = np.broadcast_shapes(a.shape[2:], b.shape[2:])
    out = np.empty((nx, nt) + batch, dtype=np.result_type(a, b))
    term = np.empty(batch, dtype=out.dtype)
    for j, k in np.ndindex(nx, nt):
        acc = out[j, k, ...]
        np.multiply(a[0, 0], b[j, k], out=acc)
        for p, q in np.ndindex(j + 1, k + 1):
            if p or q:
                acc += np.multiply(a[p, q], b[j - p, k - q], out=term)
    return out


def _graded_quotient(a, b):
    """Forward substitution block by block, each block in (p, q) order."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    term = np.empty(out.shape[2:], dtype=out.dtype)
    for j, k in np.ndindex(out.shape[:2]):
        acc = out[j, k, ...]
        acc[...] = a[j, k]
        for p, q in np.ndindex(j + 1, k + 1):
            if p or q:
                acc -= np.multiply(b[p, q], out[j - p, k - q], out=term)
        acc /= b[0, 0]
    return out


@pytest.mark.parametrize("shapes", [((), ()), ((1,), (1,)), ((6,), (6,)), ((4, 1), (1, 5))])
@pytest.mark.parametrize("dtype", [float, complex])
def test_products_and_quotients_sum_blocks_in_graded_order(shapes, dtype):
    # Filling t-columns does not change the order in which a coefficient
    # block is summed, for any batch shape: results are bit-identical.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3) + shapes[0]).astype(dtype)
    b = rng.standard_normal((4, 3) + shapes[1]).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal(a.shape)
        b += 1j * rng.standard_normal(b.shape)
    b[0, 0] += 3.0
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    assert np.array_equal((sa * sb).c, _graded_product(a, b))
    assert np.array_equal((sa / sb).c, _graded_quotient(a, b))


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
    # IEEE rules, as numpy's division: the quotient is not finite, and numpy
    # reports the zero division under the caller's error state.
    num = _x_series([1.0, 0.0])
    den = _x_series([0.0, 1.0])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        num / den
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = num / den
    assert not np.isfinite(quotient.c).any()


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
