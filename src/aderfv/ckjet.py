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
the recorded tape, so a later call on the same law only binds and fills it.
Every coefficient block is summed in the same order as by a whole-law
evaluation per level.

This series jet is the one CK route, for every law, linear ones included.
It never casts the stack to float, so ``ck_state_jacobian`` takes the
derivatives in D_0 by one complex step through it, exact to rounding. The
engine knows no time step: the implicit Taylor state equation built on these
derivatives is the predictor's.
"""
from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .series import SeriesTape, TruncatedSeries, Workspace
from .systems import SystemDescriptor, complex_step_jacobian

__all__ = ["ck_time_derivatives", "ck_state_jacobian"]

# Points per jet block. Every leaf and node of a law's tape takes one
# workspace slot of (order + 1)^2 coefficient blocks of this many points, so
# the storage a thread keeps is set by the law and the order, not the batch
# (Euler at order 5: 17 slots, 14 MB). Larger blocks spend less interpreter
# time per point and more memory.
_BLOCK = 2048

# Idle workspaces. A jet borrows one for the length of the call, so jets
# running at once on the predictor's worker threads never share storage, and
# the storage outlives those threads: the pool holds as many workspaces as
# jets have ever run at once, each reused across sweeps and steps.
_idle_workspaces: list[Workspace] = []
_pool_lock = threading.Lock()


@contextlib.contextmanager
def _borrowed_workspace():
    with _pool_lock:
        workspace = _idle_workspaces.pop() if _idle_workspaces else Workspace()
    try:
        yield workspace
    finally:
        with _pool_lock:
            _idle_workspaces.append(workspace)


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
        rhs = [-_lift(f, like).x_derivative() for f in flux]
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


def ck_time_derivatives(
    system: SystemDescriptor, derivatives: np.ndarray, order: int
) -> np.ndarray:
    """Time derivatives d_t^k Q, k = 1..order, from the spatial stack.

    ``derivatives`` holds (D_0, ..., D_order) along the second-to-last axis;
    a complex stack keeps its imaginary part. The space-time coefficients
    c[i][j, k] of each component are seeded from the stack
    (c[i][j, 0] = D_j / j!) and filled upward in time degree: the law is
    recorded on a tape that the workspace keeps, and time level k fills
    column k of every intermediate on rows j <= order - k, from which
    c[i][j, k+1] is the t-degree-k coefficient of S(Q) - A(Q) dQ/dx divided
    by k+1 for j < order - k. Returns shape batch + (order, m).
    """
    derivatives = np.asarray(derivatives)
    if order == 0:
        return np.zeros(derivatives.shape[:-2] + (0, system.m))
    m, n = system.m, order + 1
    batch = derivatives.shape[:-2]
    flat = derivatives.reshape(-1, n, m)
    dtype = np.result_type(derivatives, float)
    out = np.empty((m, order, flat.shape[0]), dtype=dtype)
    factorials = np.array([math.factorial(j) for j in range(n)])
    seed_scale, out_scale = factorials[:, None], factorials[1:, None]

    def record(tape: SeriesTape) -> tuple:
        comps = [tape.leaf(n, n, dtype) for _ in range(m)]
        return comps, _rhs_terms(system, comps)

    # The law's callables identify it: the key holds them, so their ids are
    # not reused while its tape is kept.
    key = (system.flux_terms, system.matrix_rows, system.source_terms, m, order, dtype)
    finite = True
    with _borrowed_workspace() as workspace, np.errstate(
        invalid="ignore", over="ignore", divide="ignore"
    ):
        tape, (comps, rhs) = workspace.tape(key, record)
        try:
            for start in range(0, flat.shape[0], _BLOCK):
                points = flat[start : start + _BLOCK]
                count = len(points)
                tape.bind(count)
                for i, comp in enumerate(comps):
                    seeds = np.divide(points[:, :, i].T, seed_scale, out=comp.c[:, 0])
                    finite &= np.isfinite(seeds).all()
                for k in range(order):
                    tape.fill(k, n - k)
                    for comp, r in zip(comps, rhs):
                        new = np.divide(r.c[: order - k, k], k + 1, out=comp.c[: order - k, k + 1])
                        finite &= np.isfinite(new).all()
                for i, comp in enumerate(comps):
                    np.multiply(out_scale, comp.c[0, 1:], out=out[i, :, start : start + count])
        finally:
            tape.release()
    # Checked after every block, so a zero division anywhere in the batch
    # is reported first, as a whole-batch jet would.
    if not finite:
        raise FloatingPointError("non-finite space-time jet coefficients")
    return np.moveaxis(out.reshape((m, order) + batch), (0, 1), (-1, -2))


def ck_state_jacobian(
    system: SystemDescriptor, derivatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives G_k = d_t^k Q of real stacks and their derivatives dG_k/dD_0.

    ``derivatives`` holds (D_0, ..., D_M) as for ``ck_time_derivatives``;
    returns G_k, k = 1..M, shape (..., M, m), and dG_k/dD_0 with D_1..D_M
    held, shape (..., M, m, m). The m states D_0 + i h e_j go through one
    complex jet (``complex_step_jacobian``), so the derivative is exact to
    rounding.
    """
    derivatives = np.asarray(derivatives, dtype=float)
    order, m = derivatives.shape[-2] - 1, system.m
    rest = derivatives[..., 1:, :]

    def jets(d0c):
        stack = np.concatenate(
            [d0c[..., None, :], np.broadcast_to(rest, d0c.shape[:-1] + rest.shape[-2:])],
            axis=-2,
        )
        g = ck_time_derivatives(system, stack, order)
        return g.reshape(g.shape[:-2] + (order * m,))

    with np.errstate(over="ignore"):
        g, jac = complex_step_jacobian(jets, derivatives[..., 0, :])
    batch = derivatives.shape[:-2]
    return g.reshape(batch + (order, m)), jac.reshape(batch + (order, m, m))
