"""Truncated power-series arithmetic used by the Cauchy-Kowalewskaya engine.

A :class:`TruncatedSeries` stores coefficients of a polynomial in one or two
formal variables, truncated at fixed degrees. The coefficient array is stored
coefficient-major: the leading two axes index (x-degree, t-degree) and any
trailing axes are batch dimensions, so every coefficient is one contiguous
batch block and whole grids of series combine in single numpy operations.
Operands of a binary operation have equal batch rank; batch axes of size one
broadcast. Univariate series are simply the t-degree-0 special case.

Every operation is written as a t-column fill: column k of the result is
computed from columns 0..k of its operands (Taylor mode, Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13). An ordinary operation
runs the fill over every column at once. An operation on a series that
belongs to a :class:`SeriesTape` records itself on that tape instead, and the
tape's owner fills one new column of every recorded node per time level, so
the stored lower columns are never computed again. Tape storage comes from a
:class:`Workspace` of reused slots, which also keeps the last few tapes
recorded on it, so an evaluation that runs again is bound and filled, not
recorded anew.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["TruncatedSeries", "SeriesTape", "Workspace"]


def _scalar(value) -> bool:
    return isinstance(value, (numbers.Number, np.generic))


class TruncatedSeries:
    """Bivariate truncated power series sum c[j, k] x^j t^k.

    ``c`` has shape (nx, nt) + batch. All binary operations truncate the
    result to the smaller operand degrees. Division requires an invertible
    (nonzero) constant term.
    """

    __slots__ = ("c", "_fill", "_args", "_tape")

    def __init__(self, coefficients: np.ndarray):
        c = np.asarray(coefficients)
        if c.ndim < 2:
            raise ValueError("coefficient array needs leading (x, t) degree axes")
        self.c = c
        self._fill = None
        self._args = ()
        self._tape = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, like: "TruncatedSeries") -> "TruncatedSeries":
        """The constant ``value`` at the degrees of ``like``, batch axes of size one."""
        c = np.zeros(like.c.shape[:2] + (1,) * (like.c.ndim - 2), dtype=like.c.dtype)
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

    # -- nodes ---------------------------------------------------------------

    @staticmethod
    def _node(fill, args: tuple, nx: int, nt: int) -> "TruncatedSeries":
        """Result of ``fill`` on ``args``: filled now, or recorded on their tape."""
        series = [a for a in args if isinstance(a, TruncatedSeries)]
        dtype = np.result_type(*(a.c if isinstance(a, TruncatedSeries) else a for a in args))
        out = TruncatedSeries.__new__(TruncatedSeries)
        out._fill, out._args = fill, args
        out._tape = next((a._tape for a in series if a._tape is not None), None)
        if out._tape is not None:
            out._tape.record(out, (nx, nt), dtype)
            return out
        batch = np.broadcast_shapes(*(a.c.shape[2:] for a in series))
        out.c = np.empty((nx, nt) + batch, dtype=dtype)
        for k in range(nt):
            fill(out, k, nx)
        out._fill, out._args = None, ()
        return out

    def _binary(self, fill, other) -> "TruncatedSeries":
        return self._node(fill, (self, other), min(self.nx, other.nx), min(self.nt, other.nt))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if _scalar(other):
            return self._node(_add_scalar_column, (self, other), self.nx, self.nt)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._binary(_add_column, other)

    __radd__ = __add__

    def __sub__(self, other):
        if _scalar(other):
            return self._node(_sub_scalar_column, (self, other), self.nx, self.nt)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._binary(_sub_column, other)

    def __rsub__(self, other):
        # s - a and (-a) + s agree bit for bit, signed zeros included.
        if not _scalar(other):
            return NotImplemented
        return (-self).__add__(other)

    def __neg__(self):
        return self._node(_neg_column, (self,), self.nx, self.nt)

    def __mul__(self, other):
        if _scalar(other):
            return self._node(_mul_scalar_column, (self, other), self.nx, self.nt)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._binary(_mul_column, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _scalar(other):
            return self._node(_div_scalar_column, (self, other), self.nx, self.nt)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._binary(_div_column, other)

    def __rtruediv__(self, other):
        if not _scalar(other):
            return NotImplemented
        return TruncatedSeries.constant(other, self).__truediv__(self)

    # -- calculus ------------------------------------------------------------

    def x_derivative(self) -> "TruncatedSeries":
        """Derivative in the x variable, keeping the truncation size."""
        return self._node(_x_derivative_column, (self,), self.nx, self.nt)


# -- column fills ---------------------------------------------------------------
# Each fill computes rows 0..rows-1 of t-column k of ``out`` from columns
# 0..k of ``out._args``, one coefficient block per numpy call: a block is
# then summed term by term in (p, q) order however its columns are
# scheduled and however many points the batch holds.


def _add_column(out, k, rows):
    a, b = out._args
    np.add(a.c[:rows, k], b.c[:rows, k], out=out.c[:rows, k])


def _sub_column(out, k, rows):
    a, b = out._args
    np.subtract(a.c[:rows, k], b.c[:rows, k], out=out.c[:rows, k])


def _add_scalar_column(out, k, rows):
    # Scalars act as constant series: their zero coefficients are added too.
    a, s = out._args
    np.add(a.c[:rows, k], 0.0, out=out.c[:rows, k])
    if k == 0:
        np.add(a.c[0, 0], s, out=out.c[0, 0])


def _sub_scalar_column(out, k, rows):
    a, s = out._args
    np.subtract(a.c[:rows, k], 0.0, out=out.c[:rows, k])
    if k == 0:
        np.subtract(a.c[0, 0], s, out=out.c[0, 0])


def _neg_column(out, k, rows):
    np.negative(out._args[0].c[:rows, k], out=out.c[:rows, k])


def _mul_scalar_column(out, k, rows):
    a, s = out._args
    np.multiply(a.c[:rows, k], s, out=out.c[:rows, k])


def _div_scalar_column(out, k, rows):
    a, s = out._args
    np.divide(a.c[:rows, k], s, out=out.c[:rows, k])


def _mul_column(out, k, rows):
    a, b = (s.c for s in out._args)
    c = out.c
    term = np.empty(c.shape[2:], dtype=c.dtype)
    for j in range(rows):
        acc = c[j, k, ...]
        np.multiply(a[0, 0], b[j, k], out=acc)
        for p in range(j + 1):
            for q in range(k + 1):
                if p or q:
                    acc += np.multiply(a[p, q], b[j - p, k - q], out=term)


def _div_column(out, k, rows):
    # Forward substitution on conv(b, out) = a in graded order.
    a, b = (s.c for s in out._args)
    c = out.c
    if k == 0 and not np.all(np.abs(b[0, 0]) > 0.0):
        raise ZeroDivisionError("series division by zero constant term")
    term = np.empty(c.shape[2:], dtype=c.dtype)
    for j in range(rows):
        acc = c[j, k, ...]
        acc[...] = a[j, k]
        for p in range(j + 1):
            for q in range(k + 1):
                if p or q:
                    acc -= np.multiply(b[p, q], c[j - p, k - q], out=term)
        acc /= b[0, 0]


def _x_derivative_column(out, k, rows):
    a = out._args[0].c
    degrees = np.arange(1, rows).reshape((-1,) + (1,) * (a.ndim - 2))
    np.multiply(a[1:rows, k], degrees, out=out.c[: rows - 1, k])
    out.c[rows - 1, k] = 0


# -- tapes ----------------------------------------------------------------------


class Workspace:
    """Reused storage: numbered slots that grow to the largest array asked of them.

    Each slot backs one array at a time. Asking for a slot again returns a
    view of the same memory, so a caller that asks for the same slots with
    bounded shapes keeps a bounded amount of storage however often it runs.
    The workspace also keeps the tapes recorded on it, at most ``TAPES`` of
    them, the least recently used dropped first.
    """

    # Four laws, each at a real and a complex dtype (a residual and its
    # complex-step Jacobian), before the oldest is recorded again.
    TAPES = 8

    def __init__(self) -> None:
        self._slots: list[np.ndarray] = []
        self.tapes: dict = {}

    @property
    def nbytes(self) -> int:
        return sum(slot.nbytes for slot in self._slots)

    def array(self, slot: int, shape: tuple, dtype) -> np.ndarray:
        """Uninitialised C-contiguous array of ``shape`` in slot ``slot``."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        while len(self._slots) <= slot:
            self._slots.append(np.empty(0, dtype=np.uint8))
        if self._slots[slot].nbytes < size:
            # complex128 backing keeps every view 16-byte aligned.
            self._slots[slot] = np.empty(-(-size // 16), dtype=complex).view(np.uint8)
        return self._slots[slot][:size].view(dtype).reshape(shape)

    def tape(self, key, record) -> tuple:
        """The tape kept under ``key`` and what ``record`` returned for it.

        The first time ``key`` is asked for, ``record(tape)`` records on a new
        tape; ``key`` must therefore identify everything the recording reads.
        The workspace holds ``key`` until the tape is dropped.
        """
        entry = self.tapes.pop(key, None)
        if entry is None:
            tape = SeriesTape(self)
            entry = tape, record(tape)
            if len(self.tapes) >= self.TAPES:
                del self.tapes[next(iter(self.tapes))]
        self.tapes[key] = entry
        return entry


class SeriesTape:
    """Series with one flat batch axis whose t-columns are filled level by level.

    ``leaf`` makes an input series; operations on tape series record their
    results here in creation order, which is an evaluation order. ``bind``
    points every leaf and node at workspace storage for a block of points
    (the values are left undefined), and ``fill`` computes one t-column of
    every node. The caller writes the leaves' column k before ``fill(k)``
    and calls ``release`` when done, so a tape that is kept holds no storage.
    """

    def __init__(self, workspace: Workspace) -> None:
        self.workspace = workspace
        self.series: list[TruncatedSeries] = []

    def leaf(self, nx: int, nt: int, dtype) -> TruncatedSeries:
        out = TruncatedSeries(np.empty((nx, nt, 0), dtype=dtype))
        out._tape = self
        self.series.append(out)
        return out

    def record(self, series: TruncatedSeries, degrees: tuple, dtype) -> None:
        """Adds a node; like a leaf, it holds no points until ``bind``."""
        series.c = np.empty(degrees + (0,), dtype=dtype)
        self.series.append(series)

    def bind(self, points: int) -> None:
        for slot, s in enumerate(self.series):
            s.c = self.workspace.array(slot, s.c.shape[:2] + (points,), s.c.dtype)

    def fill(self, k: int, rows: int) -> None:
        for s in self.series:
            if s._fill is not None:
                s._fill(s, k, rows)

    def release(self) -> None:
        """Points every leaf and node back at empty storage, holding no slot view."""
        for s in self.series:
            s.c = np.empty(s.c.shape[:2] + (0,), dtype=s.c.dtype)
