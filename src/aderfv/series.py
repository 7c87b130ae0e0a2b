"""Truncated power-series arithmetic used by the Cauchy-Kowalewskaya engine.

A :class:`TruncatedSeries` stores coefficients of a polynomial in one or two
formal variables, truncated at fixed degrees. The trailing two axes of the
coefficient array index (x-degree, t-degree); any leading axes are batch
dimensions, so whole grids of series are combined in single numpy operations.
Univariate series are simply the t-degree-0 special case.
"""
from __future__ import annotations

import numbers

import numpy as np

__all__ = ["TruncatedSeries"]


def _coeff_major(c: np.ndarray, batch: tuple, nx: int, nt: int) -> np.ndarray:
    """Contiguous copy with the (x, t) degree axes leading and batch trailing."""
    c = np.broadcast_to(c[..., :nx, :nt], batch + (nx, nt))
    return np.ascontiguousarray(np.moveaxis(c, (-2, -1), (0, 1)))


class TruncatedSeries:
    """Bivariate truncated power series sum c[j, k] x^j t^k.

    All binary operations truncate the result to the operand degrees. Division
    requires an invertible (nonzero) constant term.
    """

    __slots__ = ("c",)

    def __init__(self, coefficients: np.ndarray):
        c = np.asarray(coefficients)
        if c.ndim < 2:
            raise ValueError("coefficient array needs trailing (x, t) degree axes")
        self.c = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, like: "TruncatedSeries") -> "TruncatedSeries":
        c = np.zeros_like(like.c)
        c[..., 0, 0] = value
        return cls(c)

    # -- introspection -------------------------------------------------------

    @property
    def nx(self) -> int:
        return self.c.shape[-2]

    @property
    def nt(self) -> int:
        return self.c.shape[-1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"TruncatedSeries(nx={self.nx}, nt={self.nt}, batch={self.c.shape[:-2]})"

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (numbers.Number, np.generic)):
            return TruncatedSeries.constant(other, self)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedSeries(self.c + other.c)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedSeries(self.c - other.c)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedSeries(other.c - self.c)

    def __neg__(self):
        return TruncatedSeries(-self.c)

    def __mul__(self, other):
        if isinstance(other, (numbers.Number, np.generic)):
            return TruncatedSeries(self.c * other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        nx = min(self.nx, other.nx)
        nt = min(self.nt, other.nt)
        batch = np.broadcast_shapes(self.c.shape[:-2], other.c.shape[:-2])
        # Convolve in coefficient-major layout: the batch axes sit last, so
        # every block update below touches contiguous memory.
        a = _coeff_major(self.c, batch, nx, nt)
        b = _coeff_major(other.c, batch, nx, nt)
        out = np.zeros((nx, nt) + batch, dtype=np.result_type(a, b))
        for p in range(nx):
            for q in range(nt):
                out[p:, q:] += a[p, q] * b[: nx - p, : nt - q]
        return TruncatedSeries(np.moveaxis(out, (0, 1), (-2, -1)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (numbers.Number, np.generic)):
            return TruncatedSeries(self.c / other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        nx = min(self.nx, other.nx)
        nt = min(self.nt, other.nt)
        if not np.all(np.abs(other.c[..., 0, 0]) > 0.0):
            raise ZeroDivisionError("series division by zero constant term")
        batch = np.broadcast_shapes(self.c.shape[:-2], other.c.shape[:-2])
        a = _coeff_major(self.c, batch, nx, nt)
        b = _coeff_major(other.c, batch, nx, nt)
        b00 = b[0, 0]
        out = np.zeros((nx, nt) + batch, dtype=np.result_type(a, b))
        # Forward substitution on conv(b, out) = a in graded order.
        for j in range(nx):
            for k in range(nt):
                acc = a[j, k].copy()
                for p in range(j + 1):
                    for q in range(k + 1):
                        if p == 0 and q == 0:
                            continue
                        acc -= b[p, q] * out[j - p, k - q]
                out[j, k] = acc / b00
        return TruncatedSeries(np.moveaxis(out, (0, 1), (-2, -1)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    # -- calculus ------------------------------------------------------------

    def x_derivative(self) -> "TruncatedSeries":
        """Derivative in the x variable, keeping the truncation size."""
        out = np.zeros_like(self.c)
        degrees = np.arange(1, self.nx)
        out[..., : self.nx - 1, :] = self.c[..., 1:, :] * degrees[:, None]
        return TruncatedSeries(out)
