"""Implicit-Taylor space-time predictor.

Within each cell the reconstruction polynomial is evolved to the quadrature
times of the update by solving, pointwise, the implicit Taylor system

  D_0 = w_0 - sum_{k=1}^{M} (-tau)^k / k! * G^(k)(D_0, D_1, ..., D_k)
  D_k = w_k + tau * (J_S(D_0) D_k - A(D_0) D_{k+1}),   k = 1..M-1
  D_M = w_M + tau * J_S(D_0) D_M

with w_k the reconstruction derivatives at tau = 0 and G^(k) the
Cauchy-Kowalewskaya time-derivative functionals. Given D_0, the derivative
equations are a linear back-substitution, D_1..D_M = R(D_0) (I - tau J is
factored once per chain), so the system reduces to the state equation
H(D_0, R(D_0)) = 0 in D_0 alone. Each outer sweep solves the chain at the
current D_0 and takes one Newton step on the reduced equation.

At tau = 0 the state equation reads D = w: the traces there, at the first
trace-rule time (0.0 at every Lobatto size), are the reconstructed end
states, checked admissible and taken as they are on either route below. The
other points of a step are a product of each cell's spatial nodes and the
step's quadrature times. They come in node blocks, the interior nodes at the
tau-rule times and the two trace ends at the trace-rule times after 0, and a
block's points are laid out (cells, T, nodes) as the tables are. The update
of a flux law without a source reads the traces alone (``force_flux``), so
its interior block has no nodes, on either route below. Where each point
sits (its cell, node and time) is a plan kept per block shape, so a step of
a run only gathers by it. The points form one Newton batch of the points
still iterating, one packed record of 8-byte words per point (its tau,
stored factors, time index, node and layout index) beside their iterates:
after a sweep the converged points write their D_0 into the layout and leave
the batch by one take of the record. A sweep acts on each point alone, so
cells solved apart differ from one batch only through the BLAS product that
takes them to their nodes, in the last bit.

The points of one spatial node share its reconstruction stack w, so one
complex-step CK jet at w, taken in one call over the nodes of every block,
serves all of them. It gives G^(k)(w) and dG^(k)/dD_0(w), and one (T, M)
Taylor contraction per block gives each point its explicit start
D_0 = w_0 + sum_k tau^k / k! G^(k)(w), the classical ADER-CK predictor, and
its first sweep's chord I + sum_k (-tau)^k / k! dG^(k)/dD_0(w), the Jacobian
of the state equation at D = w. A point converges at a Newton step of
1e-12 of its state scale (1 + max |D_0|). It refreshes its Jacobian on the
sweep after a step larger than 1e-6 of it, the square root, and reuses the
stored one as a chord otherwise, so a point that starts inside Newton's
quadratic range never pays for one (Kelley 1995, ch. 5). A Jacobian is
factored once, when it is stored, by a batched LU with partial pivoting over
the m component rows, and every sweep that uses it only substitutes; an
exact zero pivot makes a point singular. A refreshed Jacobian is the total
derivative d/dD_0 H(D_0, R(D_0)), taken by one complex step in D_0 through
the chain and the CK jet, so Newton converges at a stiff front, where
D_1..D_M depend strongly on D_0 through J_S(D_0). A sweep takes one CK
jet: where points refresh, the batch's residuals at its real chain solution
ride in the jet of their complex step as lanes with zero imaginary part.
That is exact for a law that only adds and multiplies; a law with a quotient
(Euler) can round otherwise there in the last bit, but the smooth runs never
refresh. A start that
is not finite or not admissible, or whose first sweep fails, falls back to
w_0. A CK jet that fails marks its own points NaN: a node whose jet fails
leaves its points a fresh Jacobian on their first sweep, a trial state
whose jet fails halves its step, and a point whose residual is not finite
fails its sweep. A failure names its points, their cells, times and states.

The state equation is written once, here: ``predictor_residual`` and
``residual_and_jacobian`` contract the CK jets of ``ckjet`` with the Taylor
coefficients (-tau)^k / k! that also give the starts and chords. A solve
takes them once, at the step's times, and a sweep gathers each point's row
by its time index.

A law with constant coefficients has a predictor that is linear in the
reconstruction stack, D_0(tau) = P(tau) w. Its tables solve the same system
for P directly at the step's quadrature times, from the law's closed CK table
alone and without a Newton sweep, then contract every cell with them in one
piece. A table that is singular at a node time gives NaN operators there,
and the step fails naming those times. The stability analyzer hands the same
operators a stack of the model's tables, one per raster point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ckjet, weno
from .grid import QuadratureRule, RunConfig, gauss_legendre, gauss_lobatto
from .systems import SystemDescriptor, _admit_all, _identity, complex_step_jacobian

__all__ = [
    "PredictorError",
    "SpaceTimeRules",
    "space_time_rules",
    "PredictorTable",
    "predictor_residual",
    "residual_and_jacobian",
    "solve_derivative_chain",
    "solve_predictor_points",
    "predictor_operators",
    "build_predictor_tables",
]

# A point has converged when its Newton step is at most this fraction of its
# state scale; a solve that needs more than _SWEEP_LIMIT sweeps fails.
_NEWTON_TOL = 1e-12
_SWEEP_LIMIT = 50
# Halvings of one Newton step before it is taken as it stands (or, for an
# inadmissible state, rejected).
_BACKTRACK_LIMIT = 5
# Newton steps larger than this fraction of the state scale must not increase
# the residual; smaller steps skip the descent check entirely.
_DESCENT_GATE = 0.05


class PredictorError(RuntimeError):
    """Predictor fixed point failed (non-convergence or inadmissible state)."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


def _lagrange_diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Derivative of the Lagrange interpolant through ``nodes``, at the nodes."""
    n = nodes.size
    if n == 1:
        return np.zeros((1, 1))
    bary = np.ones(n)
    for p in range(n):
        diff = nodes[p] - np.delete(nodes, p)
        bary[p] = 1.0 / np.prod(diff)
    d = np.zeros((n, n))
    for l in range(n):
        for p in range(n):
            if p != l:
                d[l, p] = (bary[p] / bary[l]) / (nodes[l] - nodes[p])
        d[l, l] = -np.sum(d[l])
    return d


def _basis_tensor(degree: int, nodes: np.ndarray) -> np.ndarray:
    """B[k, l, p] = d^k theta_p / d xi^k evaluated at nodes[l] (unit cell)."""
    out = np.empty((degree + 1, nodes.size, degree + 1))
    for k in range(degree + 1):
        for p in range(degree + 1):
            out[k, :, p] = weno.legendre_derivative(p, nodes, k)
    return out


@dataclass(frozen=True)
class SpaceTimeRules:
    """Quadrature rules and cached basis tensors for one scheme order."""

    xi_rule: QuadratureRule          # interior spatial nodes (volume integrals)
    tau_rule: QuadratureRule         # interior temporal nodes (volume integrals)
    trace_rule: QuadratureRule       # temporal nodes of the interface traces
    basis_interior: np.ndarray       # (M+1, n_xi, M+1)
    basis_trace: np.ndarray          # (M+1, 2, M+1) at xi = 0 and xi = 1
    diff_matrix: np.ndarray          # (n_xi, n_xi) unit-cell Lagrange derivative


@lru_cache(maxsize=None)
def space_time_rules(order: int) -> SpaceTimeRules:
    degree = order - 1
    xi_rule = gauss_legendre(degree + 1)
    tau_rule = gauss_legendre(degree + 1)
    trace_rule = gauss_lobatto(max(degree + 1, 2))
    return SpaceTimeRules(
        xi_rule=xi_rule,
        tau_rule=tau_rule,
        trace_rule=trace_rule,
        basis_interior=_basis_tensor(degree, xi_rule.nodes),
        basis_trace=_basis_tensor(degree, np.array([0.0, 1.0])),
        diff_matrix=_lagrange_diff_matrix(xi_rule.nodes),
    )


@dataclass
class PredictorTable:
    """Predictor evaluations of one cell (or a leading batch of cells).

    ``values`` holds Q at the interior tensor nodes (..., n_tau, n_xi, m);
    ``x_derivative`` is the spatial derivative of the Lagrange interpolant
    through the interior nodes, in physical units, for cells of width ``dx``.
    The interface traces are stored at the trace-rule times. The nodes
    themselves are those of ``space_time_rules(order)``. The update of a
    ``flux_form`` law reads the traces alone, so its tables have no interior
    nodes: n_xi = 0.
    """

    values: np.ndarray
    x_derivative: np.ndarray
    trace_left: np.ndarray   # Q(xi=0, tau), shape (..., n_trace, m)
    trace_right: np.ndarray  # Q(xi=1, tau), shape (..., n_trace, m)
    dx: float
    batch_sizes: tuple = ()  # points entering each Newton sweep

    @property
    def iterations(self) -> int:
        """The Newton sweeps taken: the largest sweep count of any point."""
        return len(self.batch_sizes)


def _point_error(message: str, bad: np.ndarray, tau, states: np.ndarray) -> PredictorError:
    """A PredictorError naming the points of a batch where ``bad`` holds."""
    points = np.flatnonzero(bad)
    return PredictorError(
        message,
        details={
            "points": points,
            "tau": np.broadcast_to(tau, bad.shape).reshape(-1)[points],
            "states": states.reshape(-1, states.shape[-1])[points],
        },
    )


def _swapped(rows, p: np.ndarray) -> np.ndarray:
    """``rows`` (r, ...) with rows 0 and p swapped point by point: one gather.

    ``p`` broadcasts against one row; the rows may be a sequence of arrays
    that broadcast together.
    """
    i = np.arange(len(rows)).reshape((-1,) + (1,) * p.ndim)
    order = np.where(i == p, 0, i)
    order[0] = p
    return np.choose(order, rows)


def _lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors with partial pivoting of a batch of m x m matrices, a (..., m, m).

    The factors are stored component-major, so that each matrix entry is one
    array over the points and the elimination loops over the m rows only:
    ``lu``, shape (m, m) + batch, holds U on and above the diagonal and the
    multipliers of L below its unit diagonal, and ``piv``, (m - 1,) + batch,
    the row that column k swapped into row k, counted from k. The pivot is
    the first entry of largest real part in magnitude, a NaN counting as the
    largest (``np.argmax``), so a complex step in ``a`` keeps the pivots of
    its real part. A singular matrix has an exact zero pivot
    (``_zero_pivots``); its elimination goes on, and solves with it come out
    non-finite. At m = 1 the factor is the matrix itself.
    """
    nb = a.ndim - 2
    lu = a.transpose((nb, nb + 1) + tuple(range(nb))).copy()
    m = len(lu)
    piv = np.empty((m - 1,) + lu.shape[2:], dtype=np.intp)
    for k in range(m - 1):
        p = np.argmax(np.abs(lu[k:, k].real), axis=0, out=piv[k])
        if p.any():
            lu[k:] = _swapped(lu[k:], p[None])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lu[k + 1 :, k] /= lu[k, k]
            lu[k + 1 :, k + 1 :] -= lu[k + 1 :, k, None] * lu[k, None, k + 1 :]
    return lu, piv


def _substitute(factors: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """x with a x = b at every point, for the factors of a (``_lu_factor``).

    b, shape (..., m), broadcasts against the factors' batch. Forward and
    back substitution over the component rows; at m = 1 the single division
    b / a, which is what the substitution computes there. A singular or non-finite system divides by zero or overflows:
    the caller sets ``np.errstate`` (``_lu_solve`` ignores those warnings).
    """
    lu, piv = factors
    m = b.shape[-1]
    if m == 1:
        return np.divide(b, lu[0, 0, ..., None])
    y = [b[..., i] for i in range(m)]
    for k, p in enumerate(piv):
        if p.any():
            y[k:] = _swapped(y[k:], p)
    for i in range(1, m):
        for j in range(i):
            y[i] = y[i] - lu[i, j] * y[j]
    last = np.divide(y[-1], lu[-1, -1])  # sets the solution's shape and type
    x = np.empty(last.shape + (m,), dtype=last.dtype)
    x[..., -1] = last
    for i in range(m - 2, -1, -1):
        for j in range(i + 1, m):
            y[i] = y[i] - lu[i, j] * x[..., j]
        np.divide(y[i], lu[i, i], out=x[..., i])
    return x


_lu_solve = np.errstate(divide="ignore", over="ignore", invalid="ignore")(_substitute)


def _zero_pivots(factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The points whose factored matrix is singular: an exact zero pivot."""
    return (np.diagonal(factors[0]) == 0).any(axis=-1)


def _check_singular(factors, what: str, tau, states: np.ndarray) -> None:
    """Raise a PredictorError naming the points with singular ``factors``, if any."""
    singular = _zero_pivots(factors)
    if singular.any():
        raise _point_error(f"singular {what}: Singular matrix", singular, tau, states)


def _point_norm(x: np.ndarray) -> np.ndarray:
    """max_i |x_i| over the m components of each point, x (..., m).

    Elementwise maxima over the components; a reduction along the short last
    axis takes about ten times longer (100 against 10 us on (2000, 3), on a
    2-core x86 VM). A NaN component gives NaN, as np.max.
    """
    x = np.abs(x)
    out = x[..., 0]
    for i in range(1, x.shape[-1]):
        out = np.maximum(out, x[..., i])
    return out


def _taylor_coefficients(tau: np.ndarray, order: int) -> np.ndarray:
    """Coefficients (-tau)^k / k! for k = 1..order, shape tau.shape + (order,)."""
    tau = np.asarray(tau, dtype=float)
    out = np.empty(tau.shape + (order,))
    term = 1.0
    for k in range(1, order + 1):
        term = term * (-tau) / k
        out[..., k - 1] = term
    return out


def _state_residual(system, d0, d_rest, taylor, w0):
    """H(D_0) of ``predictor_residual`` from the Taylor rows, at real or complex states."""
    g = ckjet.ck_time_derivatives(system, (d0, d_rest), taylor.shape[-1])
    return d0 - w0 + np.einsum("...k,...ki->...i", taylor, g)


def predictor_residual(
    system: SystemDescriptor,
    d0: np.ndarray,
    d_rest: np.ndarray,
    tau: np.ndarray,
    w0: np.ndarray,
    taylor: np.ndarray | None = None,
) -> np.ndarray:
    """Residual of the implicit Taylor state equation at elapsed time tau.

    H = D_0 - w_0 + sum_{k=1}^{M} (-tau)^k / k! * G^(k)(D_0, D_1..D_k),
    where w_0 is the reconstructed state at tau = 0 and D_1..D_M are the
    spatial derivatives given, usually the chain's solution at D_0. D_0
    carries the batch axes that the other inputs broadcast over; a point
    whose CK jet fails has a NaN residual. ``taylor``
    may hold the rows (-tau)^k / k!, k = 1..M, shape tau.shape + (M,), of a
    caller that evaluates many residuals at the same times.
    """
    if taylor is None:
        taylor = _taylor_coefficients(tau, np.shape(d_rest)[-2])
    return _state_residual(system, np.asarray(d0, dtype=float), d_rest, taylor, w0)


def residual_and_jacobian(
    system: SystemDescriptor,
    d0: np.ndarray,
    w_rest: np.ndarray,
    tau: np.ndarray,
    w0: np.ndarray,
    taylor: np.ndarray | None = None,
    batch: tuple | None = None,
) -> tuple:
    """Reduced residual and its total derivative in D_0, shapes (..., m), (..., m, m).

    The reduced residual is H(D_0, R(D_0)), with R(D_0) = D_1..D_M the
    solution of ``solve_derivative_chain`` from the reconstruction
    derivatives ``w_rest``: the chain ties D_1..D_M to D_0 through J_S(D_0)
    and A(D_0). The m states D_0 + i h e_j go through the chain and the CK
    jet in one complex step (``complex_step_jacobian``), so the derivative
    dH/dD_0 = d/dD_0 H(D_0, R(D_0)) is exact to rounding; the residual is
    the real part. A failing chain names its points in the batch. ``taylor``
    is as in ``predictor_residual``.

    ``batch``, the arrays (D_0, D_1..D_M, Taylor rows, w_0) of a sweep's
    whole batch at its real chain solution, rides in the same jet as complex
    lanes with zero imaginary part, ahead of the stepped ones; their
    ``predictor_residual``, the real part, comes back as a third member. A
    law that only adds and multiplies gives it bit for bit; a quotient of
    complex lanes can round otherwise in the last bit.
    """
    d0 = np.asarray(d0, dtype=float)
    order = np.shape(w_rest)[-2]
    if taylor is None:
        taylor = _taylor_coefficients(tau, order)
    lanes = []

    def reduced(d0c):
        try:
            rest = solve_derivative_chain(system, d0c, w_rest, tau, order)
        except PredictorError as exc:
            # The chain names points of the m stepped copies of the batch.
            bad = np.zeros(d0c.shape[:-1], dtype=bool)
            bad.flat[exc.details["points"]] = True
            raise _point_error(str(exc), bad.any(axis=0), tau, d0) from exc
        if batch is None:
            return _state_residual(system, d0c, rest, taylor, w0)
        n, stepped = len(batch[0]), d0c.shape[:-1]
        lanes_n = n + d0c.size // d0c.shape[-1]

        def joined(b, x):  # the batch's lanes, then the stepped copies'
            out = np.empty((lanes_n,) + b.shape[1:], dtype=np.result_type(b, x))
            out[:n] = b
            out[n:].reshape(stepped + b.shape[1:])[...] = x
            return out

        h = _state_residual(system, *map(joined, batch, (d0c, rest, taylor, w0)))
        lanes.append(h[:n].real.copy())
        return h[n:].reshape(d0c.shape)

    with np.errstate(over="ignore"):
        h, jac = complex_step_jacobian(reduced, d0)
    return (h, jac) if batch is None else (h, jac, lanes[0])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def solve_derivative_chain(
    system: SystemDescriptor,
    d0: np.ndarray,
    w_rest: np.ndarray,
    tau: np.ndarray,
    order: int,
) -> np.ndarray:
    """Back-substitute the linearized derivative equations for D_1..D_M at D_0.

    With J = source Jacobian and A = system matrix both evaluated at D_0,
    solve (I - tau J) D_M = w_M and then (I - tau J) D_k = w_k - tau A D_{k+1}
    for k = M-1..1, with I - tau J factored once (``_lu_factor``). A is
    never formed: each A D_{k+1} is one directional derivative of the law
    (``SystemDescriptor.matrix_product``). D_0 may be complex: J and A D_{k+1}
    are analytic in it, so a complex step in D_0 passes through the chain.
    A singular I - tau J or a non-finite solution raises a PredictorError
    that names its points (flat indices into the batch).
    """
    d0 = np.asarray(d0)
    w_rest = np.asarray(w_rest, dtype=float)
    tau = np.asarray(tau, dtype=float)
    m = system.m
    out = np.empty(d0.shape[:-1] + (order, m), dtype=np.result_type(d0, float))
    # Without source terms I - tau J is the identity.
    factors = None
    if order and not system.source_free:
        factors = _lu_factor(_identity(m) - tau[..., None, None] * system.source_jacobian(d0))
    for k in range(order - 1, -1, -1):
        rhs = w_rest[..., k, :]
        if k < order - 1:
            rhs = rhs - tau[..., None] * system.matrix_product(d0, out[..., k + 1, :])
        out[..., k, :] = rhs if factors is None else _lu_solve(factors, rhs)
    if not np.isfinite(out).all():
        # A singular point's solution is never finite.
        if factors is not None:
            _check_singular(factors, "derivative chain (I - tau J)", tau, d0)
        bad = ~np.isfinite(out).all(axis=(-2, -1))
        raise _point_error("non-finite derivative chain solution", bad, tau, d0)
    return out


def _point_views(blocks: list, points: np.ndarray) -> list[np.ndarray]:
    """Views of an array over the points of ``blocks``, one per block.

    ``points`` has shape (B, ...), the blocks' points in turn; the view of a
    block has its layout, (cells, T, nodes, ...).
    """
    views, end = [], 0
    for w, taus in blocks:
        layout = (w.shape[0], taus.size, w.shape[1])
        begin, end = end, end + layout[0] * layout[1] * layout[2]
        views.append(points[begin:end].reshape(layout + points.shape[1:]))
    return views


@dataclass(frozen=True)
class _PointPlan:
    """Where the points of node blocks sit, for blocks of one shape.

    The blocks' points are counted in turn, each block's laid out (cells, T,
    nodes) as in ``solve_predictor_points``; so are their nodes, each
    block's (cells, nodes), and their times. The arrays are read-only.
    """

    cell: np.ndarray    # each point's cell in its block
    node: np.ndarray    # its node among the blocks' nodes
    time: np.ndarray    # its time among the blocks' times
    row: np.ndarray     # its (time, node) pair among each block's pairs (T, nodes), in turn
    spans: tuple        # each block's slices of the times and of the nodes


@lru_cache(maxsize=16)
def _point_plan(shapes: tuple) -> _PointPlan:
    """The plan of node blocks of (cells, nodes, T) ``shapes``.

    A step's blocks have the same shapes at every step of a run, so the plan
    is kept for them, as ``_step_operators`` are.
    """
    parts, spans, nodes, times, rows = [], [], 0, 0, 0
    for cells, n, t in shapes:
        c, s, j = np.ix_(np.arange(cells), np.arange(t), np.arange(n))
        parts.append(np.broadcast_arrays(c, nodes + c * n + j, times + s, rows + (s * cells + c) * n + j))
        spans.append((slice(times, times + t), slice(nodes, nodes + cells * n)))
        nodes, times, rows = nodes + cells * n, times + t, rows + t * cells * n
    arrays = [np.concatenate([p[i].ravel() for p in parts]) for i in range(4)]
    for a in arrays:
        a.flags.writeable = False
    return _PointPlan(*arrays, tuple(spans))


def _explicit_start(
    system: SystemDescriptor, w_nodes: np.ndarray, plan: _PointPlan, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit-Taylor starts and first-sweep chords of the points of node blocks.

    ``w_nodes``, (nodes, M+1, m), holds the stacks of the blocks' nodes in
    turn, ``plan`` is the blocks' ``_point_plan`` and ``rows`` holds the
    Taylor rows (-tau)^k / k! of their times in turn, (T, M). One jet over
    the node stacks (``ckjet.ck_state_jacobian``) gives G_k(w) and
    dG_k/dD_0(w), k = 1..M; a point at tau gets the start
    w_0 + sum_k tau^k / k! G_k and the chord I + sum_k (-tau)^k / k! dG_k.
    Returns the starts (B, m), the chords (B, m, m) and whether each point's
    node has a finite jet, points as in ``solve_predictor_points``.
    """
    order, m = w_nodes.shape[1] - 1, w_nodes.shape[2]
    g, dg = ckjet.ck_state_jacobian(system, w_nodes)

    # k leading, and G_k signed (-1)^k: one product of a block's node terms
    # with its (T, M) rows then gives both sums at every time and node of the
    # block, and each point takes its own.
    terms = np.empty((order, len(w_nodes), m, m + 1))
    np.multiply(g.transpose(1, 0, 2), ((-1.0) ** np.arange(1, order + 1))[:, None, None], out=terms[..., 0])
    terms[..., 1:] = dg.transpose(1, 0, 2, 3)
    # A node's jet is finite where all its terms are: one reduction over the
    # leading axis of their (terms, nodes) transpose.
    finite = np.isfinite(terms.reshape(order, len(w_nodes), m * (m + 1))).transpose(0, 2, 1)
    has_jet = finite.reshape(order * m * (m + 1), len(w_nodes)).all(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.concatenate([
            np.einsum("tk,k...->t...", rows[t], terms[:, n]).reshape(-1, m, m + 1)
            for t, n in plan.spans
        ]).take(plan.row, axis=0)
        start = np.add(w_nodes[:, 0].take(plan.node, axis=0), sums[..., 0])
        chord = np.add(_identity(m), sums[..., 1:])
    return start, chord, has_jet.take(plan.node)


def solve_predictor_points(system: SystemDescriptor, blocks) -> tuple[list[np.ndarray], tuple]:
    """Newton on the reduced state equation at the space-time points of node blocks.

    Each block is a pair (w, taus): w, shape (cells, nodes, M+1, m), holds
    the reconstruction derivatives at the spatial nodes of every cell, and
    taus, shape (T,), the block's elapsed physical times. Its points are the
    product, laid out (cells, T, nodes) as in a ``PredictorTable``. Returns
    the states D_0 of every block, shape (cells, T, nodes, m), and the tuple
    of the points entering each Newton sweep, whose length is the largest
    sweep count of any point. Every point starts and iterates as the module
    describes; one at tau = 0 has zero Taylor rows, so it starts at w_0 with
    the chord I, takes a zero step and converges on its first sweep. A
    PredictorError names the failing points by ``points``, their index when
    the blocks' points are counted in turn, and by ``cells``, with ``tau``
    and ``states``.
    """
    blocks = [(np.asarray(w, dtype=float), np.asarray(taus, dtype=float)) for w, taus in blocks]
    plan = _point_plan(tuple([w.shape[:2] + taus.shape for w, taus in blocks]))
    w_nodes = np.concatenate([w.reshape((-1,) + w.shape[2:]) for w, _ in blocks])
    times = np.concatenate([taus for _, taus in blocks])
    nderiv, m = w_nodes.shape[1:]
    out = np.empty((len(plan.node), m))

    # The batch of the points still iterating is one record of 8-byte words,
    # (rows, points), with their iterates and refresh flags beside it. Its
    # rows hold tau and the stored LU factors, then, read as integers, the
    # pivots, time index, node and index in the layout. The Taylor rows are
    # taken once, at the step's times.
    TAU, LU, PIV, TIME = 0, slice(1, 1 + m * m), slice(1 + m * m, m * m + m), m * m + m
    NODE, POINT = TIME + 1, TIME + 2
    taylor = _taylor_coefficients(times, nderiv - 1)
    start, chord, has_jet = _explicit_start(system, w_nodes, plan, taylor)
    batch = np.empty((POINT + 1, len(start)))
    ints = batch.view(np.int64)
    batch[TAU], ints[TIME], ints[NODE] = times.take(plan.time), plan.time, plan.node
    ints[POINT] = np.arange(len(start))
    # Each point's stored Jacobian is the chord until a refresh; the points
    # that start from the explicit Taylor value rather than from w_0 (until
    # the first sweep succeeds), and those that refresh on their next sweep.
    lu, ints[PIV] = _lu_factor(chord)
    batch[LU] = lu.reshape(m * m, -1)
    explicit, w0 = has_jet & np.isfinite(_point_norm(start)), w_nodes[:, 0].take(plan.node, axis=0)
    explicit &= system.admissible(np.where(explicit[:, None], start, w0))
    d0 = np.where(explicit[:, None], start, w0)
    refresh, sizes = ~has_jet, []

    while len(d0):
        sweeps, n = len(sizes) + 1, len(d0)
        w, tau = w_nodes.take(ints[NODE], axis=0), batch[TAU]
        try:
            if sweeps > _SWEEP_LIMIT:
                bad = np.ones(n, dtype=bool)
                raise _point_error("predictor fixed point did not converge", bad, tau, d0)
            d0_new, step = _sweep(
                system, d0, w[:, 0], w[:, 1:], tau, taylor.take(ints[TIME], axis=0),
                (batch[LU].reshape(m, m, n), ints[PIV]), refresh,
            )
        except PredictorError as exc:
            failed = exc.details["points"]
            # Name the failure by the points' places in the layout.
            points = ints[POINT][failed]
            exc.details.update(points=points, cells=plan.cell[points])
            # The first sweep of an explicit start can fail where w_0 would
            # not: those points start again from w_0, and as the failed sweep
            # recorded no batch size, the retry is sweep 1 again.
            retry = failed[explicit[failed]] if sweeps == 1 else failed[:0]
            if not retry.size:
                raise
            d0[retry], explicit[retry] = w[retry, 0], False
            continue

        scale = 1.0 + _point_norm(d0_new)
        done = step <= _NEWTON_TOL * scale
        # A step that large means the point was outside the quadratic range
        # of its Jacobian, which then no longer serves as a chord.
        refresh = step > math.sqrt(_NEWTON_TOL) * scale
        # Converged points write their D_0 into the layout, and leave the
        # batch by one take of the record.
        conv = done.nonzero()[0]
        out[ints[POINT].take(conv)] = d0_new.take(conv, axis=0)
        sizes.append(n)
        keep = (~done).nonzero()[0]
        batch, d0, refresh = batch.take(keep, axis=1), d0_new.take(keep, axis=0), refresh.take(keep)
        ints = batch.view(np.int64)

    return _point_views(blocks, out), tuple(sizes)


def _sweep(system, d0, w0, w_rest, tau, taylor, factors, refresh):
    """One outer sweep over a batch of points: chain, then one guarded Newton step.

    A point where ``refresh`` holds stores the factors of the total
    derivative of the reduced residual in ``factors`` (``_lu_factor``), and
    takes its residual from the same complex step; every point then solves
    with the factors stored there. The sweep takes one CK jet: with no
    refresh, ``predictor_residual`` over the batch, and otherwise the jet of
    ``residual_and_jacobian``, which carries the batch's real lanes too.
    ``taylor`` holds the points' rows (-tau)^k / k!. Returns the new states
    and each point's step size; a failure raises a PredictorError under the
    points' indices in the batch.
    """
    rest = solve_derivative_chain(system, d0, w_rest, tau, taylor.shape[-1])
    r = refresh.nonzero()[0]
    if r.size:
        # Refreshed points take their residual from the jet of their
        # Jacobian, the total derivative through the chain from their data
        # w_1..w_M; the batch's residuals ride in the same jet.
        try:
            h_r, jac, h = residual_and_jacobian(
                system, d0[r], w_rest[r], tau[r], w0[r], taylor[r], batch=(d0, rest, taylor, w0)
            )
        except PredictorError as exc:
            exc.details["points"] = r[exc.details["points"]]
            raise
        h[r] = h_r
        for store, new in zip(factors, _lu_factor(jac)):
            store[..., r] = new
    else:
        h = predictor_residual(system, d0, rest, tau, w0, taylor)

    delta = _lu_solve(factors, h)
    d0_new = d0 - delta
    if not np.isfinite(d0_new).all():
        # A failed CK jet leaves its point a non-finite residual, and a
        # singular point's step is never finite.
        jet_failed = ~np.isfinite(h).all(axis=-1)
        if jet_failed.any():
            message = "CK jet failed: non-finite space-time jet coefficients"
            raise _point_error(message, jet_failed, tau, d0)
        _check_singular(factors, "predictor Jacobian", tau, d0)
        bad = ~np.isfinite(d0_new).all(axis=-1)
        raise _point_error("non-finite predictor iterate", bad, tau, d0)

    # Backtracking: a step is halved while its state is inadmissible. A
    # large step is also halved while its residual is non-finite (as where
    # its CK jet fails) or larger than before, or the iteration can bounce
    # between basins of a non-monotone source (e.g. at a reaction front
    # whose state sits near an unstable equilibrium); small steps are in the
    # locally convergent regime and skip that residual. No residual is taken
    # at an inadmissible state, and a step still inadmissible after the last
    # halving fails. A sweep whose steps are all small and admissible is
    # done at once.
    big = _point_norm(delta) > _DESCENT_GATE * (1.0 + _point_norm(d0))
    trial = (big | ~system.admissible(d0_new)).nonzero()[0]
    for halvings in range(_BACKTRACK_LIMIT + 1):
        if not trial.size:
            break
        halve = ~system.admissible(d0_new[trial])
        if halvings == _BACKTRACK_LIMIT:
            if halve.any():
                bad = np.zeros(len(d0), dtype=bool)
                bad[trial[halve]] = True
                raise _point_error(
                    "inadmissible predictor state after step halving", bad, tau, d0_new
                )
            break
        descend = big[trial] & ~halve
        p = trial[descend]
        if p.size:
            args = d0_new[p], rest[p], tau[p], w0[p], taylor[p]
            h_try = _point_norm(predictor_residual(system, *args))
            halve[descend] = ~np.isfinite(h_try) | (h_try > _point_norm(h[p]))
        trial = trial[halve]
        delta[trial] *= 0.5
        d0_new[trial] = d0[trial] - delta[trial]

    return d0_new, _point_norm(d0_new - d0)


@lru_cache(maxsize=None)
def _unit_blocks(blocks: int, m: int) -> np.ndarray:
    """The read-only block selectors E_j of a stack of ``blocks`` m-vectors,
    transposed: shape (blocks, blocks m, m), E_j^T = rows j m..(j+1) m - 1 of I."""
    units = np.eye(blocks * m).reshape(blocks, m, -1).swapaxes(1, 2)
    units.flags.writeable = False
    return units


def predictor_operators(ck: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """D_0(tau) = P(tau) w for a constant-coefficient law, one per table and tau.

    ``ck`` is the law's closed CK table C, shape (..., M, M+1, m, m) (see
    ``linear_ck_matrices``), for reconstruction degree M, with any leading
    axes over a stack of tables (the stability analyzer's raster points).
    P(tau), shape (m, (M+1) m) with w the (M+1, m) stack flattened, solves
    the linear implicit Taylor system directly. With J = C[0, 0],
    A = -C[0, 1] and E_j the block-j selector, the chain operators D_j = R_j w
    are R_M = (I - tau J)^-1 E_M and R_j = (I - tau J)^-1 (E_j - tau A R_{j+1});
    then

      L P = E_0 - sum_k c_k sum_{j>=1} C[k-1, j] R_j,
      L = I + sum_k c_k C[k-1, 0],   c_k = (-tau)^k / k!.

    At M = 0 there is no chain, and P = I. A table whose L or I - tau J has
    an exact zero pivot at a tau gets NaN operators there, and only there.
    Every table's operators are those of its own call, bit for bit: each
    product runs on one table's matrices at a time. Returns the operators,
    shape ck.shape[:-4] + tau.shape + (m, (M+1) m).
    """
    tau = np.asarray(tau, dtype=float)
    batch, (degree, _, _, m) = ck.shape[:-4], ck.shape[-4:]
    ck = ck.reshape((math.prod(batch),) + ck.shape[-4:])  # (P, M, M+1, m, m)
    # R_j is held transposed, (P, T, (M+1) m, m), so that all the columns of
    # a right-hand side solve together against factors of batch shape (P, T, 1).
    units = _unit_blocks(degree + 1, m)
    t = tau.reshape(-1, 1, 1)
    coef = _taylor_coefficients(tau.ravel(), degree)    # (T, M)
    # sum_k c_k C[k-1, j] for every j, shape (M+1, P, T, m, m): one (T, M) x
    # (M, (M+1) m m) product per table.
    weighted = coef @ ck.reshape(len(ck), degree, (degree + 1) * m * m)
    weighted = weighted.reshape(len(ck), t.size, degree + 1, m, m).transpose(2, 0, 1, 3, 4)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lhs = _lu_factor((_identity(m) + weighted[0])[:, :, None])
        singular = _zero_pivots(lhs)
        if degree:
            chain = _lu_factor((_identity(m) - t * ck[:, None, 0, 0])[:, :, None])
            singular |= _zero_pivots(chain)
            # tau C[0, 1] = -tau A, transposed, as R_{j+1} is.
            advect = ck[:, None, 0, 1].swapaxes(-1, -2)
        rhs = units[0]
        for j in range(degree, 0, -1):
            b = units[j] if j == degree else units[j] + t * (r @ advect)
            r = _substitute(chain, b)
            rhs = rhs - r @ weighted[j].swapaxes(-1, -2)
        ops = _substitute(lhs, rhs).swapaxes(-1, -2)
    if singular.any():
        ops[singular[..., 0]] = np.nan
    return ops.reshape(batch + tau.shape + ops.shape[-2:])


@lru_cache(maxsize=8)
def _step_operators(system: SystemDescriptor, order: int, dt: float) -> np.ndarray:
    """Read-only ``predictor_operators`` of the law's closed CK table at the
    node times of a step of size ``dt``: the tau-rule times, then the
    trace-rule times after 0.

    Every step of a run but the last has the same dt, so the operators are
    kept for the steps that repeat it. Operators that are not finite (a
    singular system, e.g. tau beta = 1) raise a ``PredictorError`` naming
    their node times under ``details["tau"]``.
    """
    rules = space_time_rules(order)
    taus = np.concatenate([rules.tau_rule.nodes, rules.trace_rule.nodes[1:]]) * dt
    ops = predictor_operators(system.closed_ck(order - 1), taus)
    bad = ~np.isfinite(ops).all(axis=(-2, -1))
    if bad.any():
        raise PredictorError(
            f"singular linear predictor: no finite operator at tau = {taus[bad]}",
            details={"tau": taus[bad]},
        )
    ops.flags.writeable = False
    return ops


def _node_derivatives(coeffs: np.ndarray, basis: np.ndarray, dx: float) -> np.ndarray:
    """Reconstruction derivatives at basis nodes: (C, n_nodes, M+1, m), physical."""
    # np.tensordot(coeffs, basis, axes=(2, 2)), the same product without its glue.
    k = basis.shape[-1]
    w = np.dot(coeffs.reshape(-1, k), basis.transpose(2, 0, 1).reshape(k, -1))
    w = w.reshape(coeffs.shape[:2] + basis.shape[:2]).transpose(0, 3, 2, 1)
    scale = dx ** -np.arange(basis.shape[0])
    return w * scale[:, None]


def build_predictor_tables(
    system: SystemDescriptor,
    coeffs: np.ndarray,
    dt: float,
    dx: float,
    config: RunConfig,
) -> PredictorTable:
    """Predictor tables for a batch of cells given reconstruction coefficients.

    ``coeffs`` has shape (cells, m, M+1). A ``PredictorError`` with failing
    points names their indices in ``coeffs`` under ``details["cells"]``.
    """
    rules = space_time_rules(config.order)
    # A flux-form law's update reads only the traces: its interior block is empty.
    n_xi = 0 if system.flux_form else rules.xi_rule.n
    w_int = _node_derivatives(coeffs, rules.basis_interior[:, :n_xi], dx)
    w_tr = _node_derivatives(coeffs, rules.basis_trace, dx)
    # At tau = 0, the first trace-rule time, the state equation reads D = w:
    # the traces there are the reconstructed end states, and both routes
    # solve the trace block at the trace-rule times after 0 alone.
    ends = w_tr[:, :, 0]
    if system.admissible is not _admit_all:
        admissible = system.admissible(ends)
        if not admissible.all():
            cells, end = np.nonzero(~admissible)
            raise PredictorError(
                "inadmissible reconstructed state at tau = 0",
                details={"cells": cells, "tau": np.zeros(cells.size), "states": ends[cells, end]},
            )
    sizes = ()
    if system.constant_coefficients:
        # D_0(tau) = P(tau) w at every node: one contraction per node block,
        # the operators at both blocks' times solved together.
        ops = _step_operators(system, config.order, float(dt))
        split, k = rules.tau_rule.n, ops.shape[-1]
        values, traces = (
            (w.reshape(-1, k) @ p.reshape(-1, k).T).reshape(w.shape[:2] + p.shape[:2]).swapaxes(1, 2)
            for w, p in ((w_int, ops[:split]), (w_tr, ops[split:]))
        )
    else:
        # Node blocks: the interior nodes at the tau-rule times, the trace
        # ends at the trace-rule times after 0.
        blocks = [(w_int, rules.tau_rule.nodes * dt), (w_tr, rules.trace_rule.nodes[1:] * dt)]
        (values, traces), sizes = solve_predictor_points(system, blocks)
    traces = np.concatenate([ends[:, None], traces], axis=1)
    x_deriv = rules.diff_matrix[:n_xi, :n_xi] @ values / dx

    return PredictorTable(
        values=values,
        x_derivative=x_deriv,
        trace_left=traces[:, :, 0, :],
        trace_right=traces[:, :, 1, :],
        dx=dx,
        batch_sizes=sizes,
    )
