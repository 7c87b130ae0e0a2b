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
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13). A fill generates its
column as numpy instructions, (function, arguments) pairs with the output
last. An ordinary operation runs them for every column at once. An operation
on a series that belongs to a :class:`SeriesTape` records itself on that tape
instead; the tape compiles once into one flat program, the instructions of
every node level by level over workspace slots, so the stored lower columns
are never computed again. A :class:`Workspace` of reused slots keeps the last
few tapes recorded on it and their programs bound to its storage, so an
evaluation that runs again is neither recorded nor sliced anew.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import threading

import numpy as np

__all__ = ["TruncatedSeries", "SeriesTape", "Workspace", "borrowed_workspace", "lane_width"]

# Points per block of a tape's program. Every leaf and node of a tape takes
# one workspace slot of its coefficient blocks at this many points, so the
# storage a workspace keeps is set by its tapes, not by the batch (Euler's jet
# at order 5: 17 slots, 14 MB). Larger blocks spend less interpreter time per
# point and more memory.
BLOCK = 2048


def _scalar(value) -> bool:
    return isinstance(value, (numbers.Number, np.generic))


class TruncatedSeries:
    """Bivariate truncated power series sum c[j, k] x^j t^k.

    ``c`` has shape (nx, nt) + batch. All binary operations truncate the
    result to the smaller operand degrees. Division by a zero constant term
    follows IEEE rules, as numpy's division: the quotient's coefficients are
    not finite.
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
        term = np.empty((nx,) + batch, dtype=dtype)
        args = tuple(a.c if isinstance(a, TruncatedSeries) else a for a in args)
        for k in range(nt):
            for f, operands in fill(out.c, args, k, nx, term):
                f(*operands)
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

    def x_derivative(self, scale: int = 1) -> "TruncatedSeries":
        """Derivative in the x variable times ``scale`` (-1 gives -d/dx bit for
        bit), keeping the truncation size."""
        return self._node(_x_derivative_column, (self, scale), self.nx, self.nt)


# -- column fills ---------------------------------------------------------------
# Each fill generates the instructions that compute rows 0..rows-1 of
# t-column k of ``c`` from columns 0..k of its operands ``args``, with
# ``term`` (rows, batch) as scratch: one (function, arguments) pair per numpy
# call, the output last; every function is a ufunc (a copy is ``np.positive``),
# so a program runs no Python-level numpy code. A coefficient block is then
# summed term by term in (p, q) order however its columns are scheduled and
# however many points the batch holds. A fill only indexes its arrays, so it
# compiles as well as runs.


def _elementwise(ufunc, shift: bool = False):
    """The fill of ``ufunc`` on its operands' columns and scalars; with ``shift``,
    the scalar acts as a constant series, its zero coefficients applied too."""

    def fill(c, args, k, rows, term):
        operands = [(0.0 if shift else a) if _scalar(a) else a[:rows, k] for a in args]
        yield ufunc, (*operands, c[:rows, k])
        if shift and k == 0:
            yield ufunc, (args[0][0, 0], args[1], c[0, 0, ...])

    return fill


_add_column, _sub_column = _elementwise(np.add), _elementwise(np.subtract)
_neg_column = _elementwise(np.negative)
_mul_scalar_column, _div_scalar_column = _elementwise(np.multiply), _elementwise(np.divide)
_add_scalar_column, _sub_scalar_column = _elementwise(np.add, True), _elementwise(np.subtract, True)


def _rows(start: int, stop: int):
    # One row is indexed, not sliced: numpy multiplies a one-point complex
    # operand broadcast to shape (1, 1) in another rounding order.
    return slice(start, stop) if stop - start > 1 else start


def _mul_column(c, args, k, rows, term):
    # Term (p, q) of every row j >= p in one call; each row still adds its
    # terms in (p, q) order.
    a, b = args
    yield np.multiply, (a[0, 0], b[_rows(0, rows), k], c[_rows(0, rows), k, ...])
    for p in range(rows):
        for q in range(k + 1):
            if p or q:
                j, i = _rows(p, rows), _rows(0, rows - p)
                yield np.multiply, (a[p, q], b[i, k - q], term[j, ...])
                yield np.add, (c[j, k, ...], term[j, ...], c[j, k, ...])


def _div_column(c, args, k, rows, term):
    # Forward substitution on conv(b, c) = a in graded order, row by row:
    # the (p, 0) terms of a row read the rows below it in this column.
    a, b = args
    for j in range(rows):
        yield np.positive, (a[j, k], c[j, k, ...])
        for p in range(j + 1):
            for q in range(k + 1):
                if p or q:
                    yield np.multiply, (b[p, q], c[j - p, k - q, ...], term[0, ...])
                    yield np.subtract, (c[j, k, ...], term[0, ...], c[j, k, ...])
        yield np.divide, (c[j, k, ...], b[0, 0], c[j, k, ...])


def _x_derivative_column(c, args, k, rows, term):
    a, scale = args
    degrees = scale * np.arange(1.0, rows).reshape((-1,) + (1,) * (a.ndim - 2))
    yield np.multiply, (a[1:rows, k], degrees, c[: rows - 1, k])
    yield np.positive, (0.0, c[rows - 1, k, ...])


def _t_integral_column(c, args, k, rows, term):
    # Column k + 1 of the series whose t-derivative is args[0], on the rows
    # j <= rows - 2 that stay inside the triangle; the rows above are zero.
    yield np.divide, (args[0][: rows - 1, k], k + 1, c[: rows - 1, k + 1])
    yield np.positive, (0.0, c[rows - 1 :, k + 1])


# -- tapes ----------------------------------------------------------------------


class _Slot:
    """The view ``index`` of workspace slot ``slot``, for any number of points."""

    ndim = 3  # (nx, nt, points)

    def __init__(self, slot: int, index=()):
        self.slot, self.index = slot, index

    def __getitem__(self, index) -> "_Slot":
        return _Slot(self.slot, index)


class Workspace:
    """Reused storage: numbered slots that grow to the largest array asked of them.

    Each slot backs one array at a time. Asking for a slot again returns a
    view of the same memory, so a caller that asks for the same slots with
    bounded shapes keeps a bounded amount of storage however often it runs.
    The workspace also keeps the tapes recorded on it, at most ``TAPES`` of
    them, the least recently used dropped first, and at most ``PROGRAMS`` of
    their programs bound to its slots.
    """

    # Four laws, each with its jet at a real and a complex dtype (a residual
    # and its complex-step Jacobian) and the programs of its flux's and its
    # source's derivatives at complex states, before the oldest is recorded
    # again.
    TAPES = 16
    PROGRAMS = 64

    def __init__(self) -> None:
        self._slots: list[np.ndarray] = []
        self.tapes: dict = {}
        self.programs: dict = {}

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
            # complex128 backing keeps every view 16-byte aligned; the bound
            # programs view the old backing.
            self._slots[slot] = np.empty(-(-size // 16), dtype=complex).view(np.uint8)
            self.programs.clear()
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

    def program(self, tape: "SeriesTape", points: int) -> tuple:
        """``tape.bind(points)``, kept until a slot grows or ``PROGRAMS`` are kept."""
        if (tape, points) not in self.programs:
            if len(self.programs) >= self.PROGRAMS:
                self.programs.clear()
            self.programs[tape, points] = tape.bind(points)
        return self.programs[tape, points]


# Idle workspaces. A caller borrows one for the length of a call, so tapes
# that callers run concurrently, each on a thread of its own, never share
# storage, and the storage outlives the thread that used it: the pool holds
# as many workspaces as have ever run at once, each reused across calls.
_idle_workspaces: list[Workspace] = []
_pool_lock = threading.Lock()


class borrowed_workspace:  # noqa: N801 - a context manager named as a function, as contextlib's
    """A workspace from the pool, returned to it on exit (a class: cheaper than a generator)."""

    def __enter__(self) -> Workspace:
        with _pool_lock:
            self.workspace = _idle_workspaces.pop() if _idle_workspaces else Workspace()
        return self.workspace

    def __exit__(self, *exc) -> None:
        with _pool_lock:
            _idle_workspaces.append(self.workspace)


@functools.cache
def lane_width(points: int) -> int:
    """Lanes for a block of ``points``, so a few bound programs serve every count: a
    multiple of 8, or of 2^(b - 5) for b bits, at most 1/16 more past 128 points."""
    step = 1 << max(3, points.bit_length() - 5)
    return -(-points // step) * step


class SeriesTape:
    """Series with one flat batch axis whose t-columns are filled level by level.

    ``leaf`` makes an input series and ``integrate`` gives it a t-derivative;
    operations on tape series record their results here in creation order,
    which is an evaluation order. Time level k fills column k of every node
    on the rows j < nx - k, the triangle a jet needs, then column k + 1 of
    every integrated leaf. A tape without integrals, a plain evaluation at
    t-degree 0, has the one level k = 0. ``compile`` writes the levels once
    as one flat program over numbered slots; ``bind`` puts it on workspace
    storage for a number of points, and the caller writes the leaves' column
    0 and runs it. The series never hold storage.
    """

    def __init__(self, workspace: Workspace) -> None:
        self.workspace = workspace
        self.series: list[TruncatedSeries] = []
        self.integrals: list[tuple] = []
        self.instructions: list | None = None

    def leaf(self, nx: int, nt: int, dtype) -> TruncatedSeries:
        out = TruncatedSeries(np.empty((nx, nt, 0), dtype=dtype))
        out._tape = self
        self.series.append(out)
        return out

    def record(self, series: TruncatedSeries, degrees: tuple, dtype) -> None:
        """Adds a node; like a leaf, it holds no points."""
        series.c = np.empty(degrees + (0,), dtype=dtype)
        self.series.append(series)

    @property
    def affine(self) -> bool:
        """No node multiplies two tape series or divides by one, so every series is
        affine in the leaves; q * q - q * q, linear only after cancellation, is not."""
        on = {id(s) for s in self.series}
        return not any(s._fill is _mul_column and {id(a) for a in s._args} <= on
                       or s._fill is _div_column and id(s._args[1]) in on for s in self.series)

    def integrate(self, leaf: TruncatedSeries, rate: TruncatedSeries) -> None:
        """Makes ``rate`` the t-derivative of ``leaf``."""
        self.integrals.append((leaf, _t_integral_column, (rate,)))

    def compile(self) -> list:
        """Every level's instructions in order, over ``_Slot`` operands and one scratch slot."""
        slots = {id(s): _Slot(i) for i, s in enumerate(self.series)}
        fills = [(s, s._fill, s._args) for s in self.series if s._fill] + self.integrals
        nx, nt = self.series[0].c.shape[:2]
        program = []
        levels = nt - 1 if self.integrals else 1
        for k, (s, fill, args) in itertools.product(range(levels), fills):
            args = [slots.get(id(a), a.c) if isinstance(a, TruncatedSeries) else a for a in args]
            program += fill(slots[id(s)], args, k, nx - k, _Slot(len(self.series)))
        return program

    def bind(self, points: int) -> tuple:
        """The program over ``points`` lanes of workspace slots, and the series' arrays."""
        if self.instructions is None:
            self.instructions = self.compile()
        leaf = self.series[0].c
        # t-major storage: a column's rows are one contiguous block.
        arrays = [self.workspace.array(i, (s.nt, s.nx, points), s.c.dtype).transpose(1, 0, 2)
                  for i, s in enumerate(self.series)]
        arrays.append(self.workspace.array(len(arrays), (leaf.shape[0], points), leaf.dtype))
        view = lambda a: arrays[a.slot][a.index] if isinstance(a, _Slot) else a  # noqa: E731
        return [(f, tuple(map(view, args))) for f, args in self.instructions], arrays
