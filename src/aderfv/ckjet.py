"""Cauchy-Kowalewskaya machinery: time derivatives from spatial jets.

Given the state and its spatial derivatives at one point, the balance law
dQ/dt = S(Q) - A(Q) dQ/dx determines all time (and mixed) derivatives. The
engine propagates a bivariate truncated power series in (x, t) one
time level at a time: the t-degree-(k+1) coefficients are the t-degree-k
coefficients of S(Q) - A(Q) dQ/dx divided by k+1, on the triangle
j + k <= order that the time derivatives need. Each system states its law
once, and the engine runs that generic form directly on series: a
conservative law gives its flux, so A(Q) dQ/dx is the x-derivative of F(Q);
a non-conservative law gives the rows of A(Q); either may add source terms
S(Q).

The engine works in Taylor mode. The law is evaluated once per law, order
and dtype per workspace, on the leaves of a
:class:`~aderfv.series.SeriesTape` that records every intermediate; time
level k then fills only t-column k of each intermediate, reading the lower
columns already stored, instead of evaluating the law again. Points are
processed in blocks of a fixed size whose storage comes from a workspace that
the call borrows from a pool and returns, so the memory a jet holds does not
grow with the batch, and concurrent jets never share it. The workspace keeps
the tape, compiled into one flat program and bound to its storage per block
width, so a later call on the same law only seeds the leaves and runs it.
Every coefficient block is summed in the same order as by a whole-law
evaluation per level.

This series jet is the CK route of the Newton predictor; the solver's tables
of a constant-coefficient law come from its closed CK table
(``SystemDescriptor.closed_ck``) instead. The jet never casts the stack to
float, so ``ck_state_jacobian`` takes the derivatives in D_0 by one complex
step through it, exact to rounding. The engine knows no time step: the
implicit Taylor state equation built on these derivatives is the predictor's.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .series import BLOCK, SeriesTape, TruncatedSeries, borrowed_workspace, lane_width
from .systems import SystemDescriptor, complex_step_jacobian

__all__ = ["ck_time_derivatives", "ck_state_jacobian"]

def _lift(value, like: TruncatedSeries) -> TruncatedSeries:
    if isinstance(value, TruncatedSeries):
        return value
    return TruncatedSeries.constant(value, like)


def _rhs_terms(system: SystemDescriptor, comps: list[TruncatedSeries]) -> list[TruncatedSeries]:
    """S(Q) - A(Q) dQ/dx evaluated in truncated-series arithmetic."""
    like = comps[0]
    m = system.m
    if system.flux_terms is not None:
        flux = system.flux_terms(comps)
        rhs = [_lift(f, like).x_derivative(-1) for f in flux]
    else:
        rows = system.matrix_rows(comps)
        qx = [comp.x_derivative() for comp in comps]
        rhs = []
        for i in range(m):
            acc = -(rows[i][0] * qx[0])
            for j in range(1, m):
                acc = acc - rows[i][j] * qx[j]
            rhs.append(_lift(acc, like))
    if system.source_terms is not None:
        src = system.source_terms(comps)
        rhs = [rhs[i] + src[i] for i in range(m)]
    return rhs


@functools.lru_cache(maxsize=None)
def _factorials(order: int) -> np.ndarray:  # j!, j = 1..order, shape (order, 1)
    return np.array([math.factorial(j) for j in range(1, order + 1)])[:, None]


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def ck_time_derivatives(system: SystemDescriptor, derivatives, order: int) -> np.ndarray:
    """Time derivatives d_t^k Q, k = 1..order, from the spatial stack.

    ``derivatives`` holds (D_0, ..., D_order) along the second-to-last axis,
    or is the pair (D_0, (D_1, ..., D_order)) whose second member broadcasts
    against the batch of the first; a complex stack keeps its imaginary part.
    The space-time coefficients c[i][j, k] of each component are seeded from
    the stack (c[i][j, 0] = D_j / j!) and filled upward in time degree: the
    law is recorded on a tape that the workspace keeps, and time level k
    fills column k of every intermediate on rows j <= order - k, from which
    c[i][j, k+1] is the t-degree-k coefficient of S(Q) - A(Q) dQ/dx divided
    by k+1 for j < order - k. Returns shape batch + (order, m). A point
    whose coefficients are not all finite comes back NaN in every row; the
    points are independent, so every other point is as in a clean call.
    """
    if isinstance(derivatives, tuple):
        d0, rest = map(np.asarray, derivatives)
    else:
        derivatives = np.asarray(derivatives)
        d0, rest = derivatives[..., 0, :], derivatives[..., 1:, :]
    m, n, batch = system.m, order + 1, d0.shape[:-1]
    if order == 0:
        return np.zeros(batch + (0, m))
    if rest.shape[:-2] != batch:
        rest = np.broadcast_to(rest, batch + (order, m))
    d0, rest = d0.reshape(-1, m), rest.reshape(-1, order, m)
    dtype = np.result_type(d0, rest, float)
    out = np.empty((len(d0), order, m), dtype=dtype)
    scale = _factorials(order)

    def record(tape: SeriesTape) -> None:
        comps = [tape.leaf(n, n, dtype) for _ in range(m)]
        for comp, rate in zip(comps, _rhs_terms(system, comps)):
            tape.integrate(comp, rate)

    # The law's callables identify it: the key holds them, so their ids are
    # not reused while its tape is kept.
    key = (system.flux_terms, system.matrix_rows, system.source_terms, m, order, dtype)
    with borrowed_workspace() as workspace:
        tape, _ = workspace.tape(key, record)
        for start in range(0, len(d0), BLOCK):
            stop = min(start + BLOCK, len(d0))
            count = stop - start
            program, arrays = workspace.program(tape, lane_width(count))
            leaves = arrays[:m]
            # The leaves, the first m series, get D_j / j! (D_0 / 1 too, for its
            # signed zeros); lanes past ``count`` repeat point 0 and fail with it.
            for i, leaf in enumerate(leaves):
                np.divide(d0[start:stop, i], 1, out=leaf[0, 0, :count])
                np.divide(rest[start:stop, :, i].T, scale, out=leaf[1:, 0, :count])
                leaf[:, 0, count:] = leaf[:, 0, :1]
            for f, args in program:
                f(*args)
            for i, leaf in enumerate(leaves):
                np.multiply(scale, leaf[0, 1:, :count], out=out[start:stop, :, i].T)
            # One scan of the whole block; the points are told apart only
            # when it finds a non-finite coefficient.
            if not all([np.isfinite(leaf).all() for leaf in leaves]):
                failed = np.zeros(count, dtype=bool)
                for leaf in leaves:
                    failed |= ~np.isfinite(leaf[..., :count]).all(axis=(0, 1))
                out[start:stop][failed] = complex(np.nan, np.nan) if dtype.kind == "c" else np.nan
    return out.reshape(batch + (order, m))


def ck_state_jacobian(
    system: SystemDescriptor, derivatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives G_k = d_t^k Q of real stacks and their derivatives dG_k/dD_0.

    ``derivatives`` holds (D_0, ..., D_M) as for ``ck_time_derivatives``;
    returns G_k, k = 1..M, shape (..., M, m), and dG_k/dD_0 with D_1..D_M
    held, shape (..., M, m, m). The m states D_0 + i h e_j go through one
    complex jet (``complex_step_jacobian``), so the derivative is exact to
    rounding. A stepped state D_0 + i h e_j whose jet fails gives NaN in
    column j of dG_k, and for j = 0 in G_k too.
    """
    derivatives = np.asarray(derivatives, dtype=float)
    order, m = derivatives.shape[-2] - 1, system.m
    rest = derivatives[..., 1:, :]

    def jets(d0c):
        g = ck_time_derivatives(system, (d0c, rest), order)
        return g.reshape(g.shape[:-2] + (order * m,))

    with np.errstate(over="ignore"):
        g, jac = complex_step_jacobian(jets, derivatives[..., 0, :])
    batch = derivatives.shape[:-2]
    return g.reshape(batch + (order, m)), jac.reshape(batch + (order, m, m))
