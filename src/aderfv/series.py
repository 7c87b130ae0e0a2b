"""Truncated power-series arithmetic used by the Cauchy-Kowalewskaya engine.

A :class:`TruncatedSeries` stores coefficients of a polynomial in one or two
formal variables, truncated at fixed degrees. The coefficient array is stored
coefficient-major: the leading two axes index (x-degree, t-degree) and any
trailing axes are batch dimensions, so every coefficient is one contiguous
batch block and whole grids of series combine in single numpy operations.
Operands of a binary operation have equal batch rank; batch axes of size one
broadcast. Univariate series are simply the t-degree-0 special case.
"""
from __future__ import annotations

import numbers

import numpy as np

__all__ = ["TruncatedSeries"]


class TruncatedSeries:
    """Bivariate truncated power series sum c[j, k] x^j t^k.

    ``c`` has shape (nx, nt) + batch. All binary operations truncate the
    result to the smaller operand degrees. Division requires an invertible
    (nonzero) constant term.
    """

    __slots__ = ("c",)

    def __init__(self, coefficients: np.ndarray):
        c = np.asarray(coefficients)
        if c.ndim < 2:
            raise ValueError("coefficient array needs leading (x, t) degree axes")
        self.c = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, like: "TruncatedSeries") -> "TruncatedSeries":
        c = np.zeros_like(like.c)
        c[0, 0] = value
        return cls(c)

    # -- introspection -------------------------------------------------------

    @property
    def nx(self) -> int:
        return self.c.shape[0]

    @property
    def nt(self) -> int:
        return self.c.shape[1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"TruncatedSeries(nx={self.nx}, nt={self.nt}, batch={self.c.shape[2:]})"

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
        a, b = self.c, other.c
        batch = np.broadcast_shapes(a.shape[2:], b.shape[2:])
        out = np.empty((min(self.nx, other.nx), min(self.nt, other.nt)) + batch,
                       dtype=np.result_type(a, b))
        term = np.empty(batch, dtype=out.dtype)
        # One output block at a time, so the working set stays in cache.
        for j, k in np.ndindex(out.shape[:2]):
            acc = out[j, k, ...]
            np.multiply(a[0, 0], b[j, k], out=acc)
            for p, q in np.ndindex(j + 1, k + 1):
                if p or q:
                    acc += np.multiply(a[p, q], b[j - p, k - q], out=term)
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (numbers.Number, np.generic)):
            return TruncatedSeries(self.c / other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self.c, other.c
        if not np.all(np.abs(b[0, 0]) > 0.0):
            raise ZeroDivisionError("series division by zero constant term")
        batch = np.broadcast_shapes(a.shape[2:], b.shape[2:])
        out = np.empty((min(self.nx, other.nx), min(self.nt, other.nt)) + batch,
                       dtype=np.result_type(a, b))
        term = np.empty(batch, dtype=out.dtype)
        # Forward substitution on conv(b, out) = a in graded order.
        for j, k in np.ndindex(out.shape[:2]):
            acc = out[j, k, ...]
            acc[...] = a[j, k]
            for p, q in np.ndindex(j + 1, k + 1):
                if p or q:
                    acc -= np.multiply(b[p, q], out[j - p, k - q], out=term)
            acc /= b[0, 0]
        return TruncatedSeries(out)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    # -- calculus ------------------------------------------------------------

    def x_derivative(self) -> "TruncatedSeries":
        """Derivative in the x variable, keeping the truncation size."""
        out = np.zeros_like(self.c)
        degrees = np.arange(1, self.nx).reshape((-1,) + (1,) * (self.c.ndim - 1))
        out[: self.nx - 1] = self.c[1:] * degrees
        return TruncatedSeries(out)
