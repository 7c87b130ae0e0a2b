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
current D_0 and takes one Newton step on the reduced equation. All points
of a step (every cell, every quadrature node) are solved together in
batched array arithmetic; converged points drop out of the iteration, so
results do not depend on how the batch is partitioned.

The points of one spatial node (an interior node or a trace end of a cell)
share its reconstruction stack w, so one complex-step CK jet at w serves all
of them. It gives G^(k)(w) and dG^(k)/dD_0(w): each point starts from the
explicit Taylor value D_0 = w_0 + sum_k tau^k / k! G^(k)(w), the classical
ADER-CK predictor, and its first sweep uses the chord
I + sum_k (-tau)^k / k! dG^(k)/dD_0(w), the Jacobian of the state equation
at D = w. A point refreshes its Jacobian on the sweep after a Newton step
larger than sqrt(fp_tol) of its state scale, and reuses the stored one as a
chord otherwise, so a point that starts inside Newton's quadratic range never
pays for one (Kelley 1995, ch. 5). A refreshed Jacobian is the total
derivative d/dD_0 H(D_0, R(D_0)), taken by one complex step in D_0 through
the chain and the CK jet, so Newton converges at a stiff front, where
D_1..D_M depend strongly on D_0 through J_S(D_0). A start that is not finite
or not admissible, or whose first sweep fails, falls back to w_0; a node
whose jet fails leaves its points a fresh Jacobian on their first sweep.

The state equation is written once, here: ``predictor_residual`` and
``residual_and_jacobian`` contract the CK jets of ``ckjet`` with one Taylor
sum, the same one that gives each node's explicit start and chord.

A law with constant coefficients has a predictor that is linear in the
reconstruction stack, D_0(tau) = P(tau) w. Its tables solve the same system
for P directly at the step's quadrature times, from the law's closed-form CK
matrices and without a Newton sweep, then contract every cell with them in
one piece; the stability analyzer takes its predictor from the same
operators.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ckjet, weno
from .grid import QuadratureRule, RunConfig, gauss_legendre, gauss_lobatto
from .systems import SystemDescriptor, complex_step_jacobian

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

    degree: int
    xi_rule: QuadratureRule          # interior spatial nodes (volume integrals)
    tau_rule: QuadratureRule         # interior temporal nodes (volume integrals)
    trace_rule: QuadratureRule       # temporal nodes of the interface traces
    path_rule: QuadratureRule        # segment-path rule for two-state averages
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
        degree=degree,
        xi_rule=xi_rule,
        tau_rule=tau_rule,
        trace_rule=trace_rule,
        path_rule=gauss_legendre(3),
        basis_interior=_basis_tensor(degree, xi_rule.nodes),
        basis_trace=_basis_tensor(degree, np.array([0.0, 1.0])),
        diff_matrix=_lagrange_diff_matrix(xi_rule.nodes),
    )


@dataclass
class PredictorTable:
    """Predictor evaluations of one cell (or a leading batch of cells).

    ``values`` holds Q at the interior tensor nodes (..., n_tau, n_xi, m);
    ``x_derivative`` is the spatial derivative of the Lagrange interpolant
    through the interior nodes, in physical units. The interface traces are
    stored at the trace-rule times. The nodes themselves are those of
    ``space_time_rules(order)``.
    """

    values: np.ndarray
    x_derivative: np.ndarray
    trace_left: np.ndarray   # Q(xi=0, tau), shape (..., n_trace, m)
    trace_right: np.ndarray  # Q(xi=1, tau), shape (..., n_trace, m)
    iterations: int = 0


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


def _singular(lhs: np.ndarray, what: str, tau, states: np.ndarray) -> PredictorError:
    """A PredictorError naming the points of a batch whose matrix ``lhs`` is singular."""
    # LU stops at an exact zero pivot, where the determinant's sign is 0.
    singular = np.linalg.slogdet(lhs).sign == 0
    return _point_error(f"singular {what}: Singular matrix", singular, tau, states)


def _solve(lhs: np.ndarray, rhs: np.ndarray, what: str, tau, states: np.ndarray) -> np.ndarray:
    """lhs^-1 rhs over a batch of m x m systems, shapes (..., m, m) and (..., m).

    For m = 1 this is a division, which is LAPACK's 1 x 1 result bit for bit
    without the cost of a batched call. A singular system raises a
    PredictorError naming its points, with ``tau`` and ``states`` per point.
    """
    if lhs.shape[-1] == 1:
        if lhs.all():
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                return rhs / lhs[..., 0]
    else:
        try:
            return np.linalg.solve(lhs, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass
    raise _singular(lhs, what, tau, states)


def _taylor_coefficients(tau: np.ndarray, order: int) -> np.ndarray:
    """Coefficients (-tau)^k / k! for k = 1..order, shape tau.shape + (order,)."""
    tau = np.asarray(tau, dtype=float)
    out = np.empty(tau.shape + (order,))
    term = np.ones_like(tau)
    for k in range(1, order + 1):
        term = term * (-tau) / k
        out[..., k - 1] = term
    return out


def _taylor_sum(tau: np.ndarray, terms: np.ndarray, term: str = "i") -> np.ndarray:
    """sum_{k=1}^{M} (-tau)^k / k! * T_k, with T_k = terms[..., k-1, <term>].

    ``term`` names the axes of one T_k: "i" for a state, terms (..., M, m),
    or "ij" for a matrix, terms (..., M, m, m); tau broadcasts over the
    leading axes. This one contraction gives the state equation's residual
    and Jacobian, and the explicit start and chord of a node.
    """
    coef = _taylor_coefficients(tau, terms.shape[-1 - len(term)])
    return np.einsum(f"...k,...k{term}->...{term}", coef, terms)


def _point_stacks(d0: np.ndarray, d_rest: np.ndarray) -> np.ndarray:
    """Stacks (D_0, D_1..D_M) of shape d0.shape[:-1] + (M+1, m)."""
    d_rest = np.broadcast_to(d_rest, d0.shape[:-1] + np.shape(d_rest)[-2:])
    return np.concatenate([d0[..., None, :], d_rest], axis=-2)


def _state_residual(system, d0, d_rest, tau, w0):
    """H(D_0) of ``predictor_residual``, at real or complex states."""
    g = ckjet.ck_time_derivatives(system, _point_stacks(d0, d_rest), np.shape(d_rest)[-2])
    return d0 - w0 + _taylor_sum(tau, g)


def predictor_residual(
    system: SystemDescriptor,
    d0: np.ndarray,
    d_rest: np.ndarray,
    tau: np.ndarray,
    w0: np.ndarray,
) -> np.ndarray:
    """Residual of the implicit Taylor state equation at elapsed time tau.

    H = D_0 - w_0 + sum_{k=1}^{M} (-tau)^k / k! * G^(k)(D_0, D_1..D_k),
    where w_0 is the reconstructed state at tau = 0 and D_1..D_M are the
    spatial derivatives given, usually the chain's solution at D_0. D_0
    carries the batch axes that the other inputs broadcast over.
    """
    return _state_residual(system, np.asarray(d0, dtype=float), d_rest, tau, w0)


def residual_and_jacobian(
    system: SystemDescriptor,
    d0: np.ndarray,
    w_rest: np.ndarray,
    tau: np.ndarray,
    w0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced residual and its total derivative in D_0, shapes (..., m), (..., m, m).

    The reduced residual is H(D_0, R(D_0)), with R(D_0) = D_1..D_M the
    solution of ``solve_derivative_chain`` from the reconstruction
    derivatives ``w_rest``: the chain ties D_1..D_M to D_0 through J_S(D_0)
    and A(D_0). The m states D_0 + i h e_j go through the chain and the CK
    jet in one complex step (``complex_step_jacobian``), so the derivative
    dH/dD_0 = d/dD_0 H(D_0, R(D_0)) is exact to rounding; the residual is
    the real part. A failing chain names its points in the batch.
    """
    d0 = np.asarray(d0, dtype=float)
    order = np.shape(w_rest)[-2]

    def reduced(d0c):
        try:
            rest = solve_derivative_chain(system, d0c, w_rest, tau, order)
        except PredictorError as exc:
            # The chain names points of the m stepped copies of the batch.
            bad = np.zeros(d0c.shape[:-1], dtype=bool)
            bad.flat[exc.details["points"]] = True
            raise _point_error(str(exc), bad.any(axis=0), tau, d0) from exc
        return _state_residual(system, d0c, rest, tau, w0)

    with np.errstate(over="ignore"):
        return complex_step_jacobian(reduced, d0)


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
    for k = M-1..1. D_0 may be complex: J and A are analytic in it, so a
    complex step in D_0 passes through the chain. A singular I - tau J or a
    non-finite solution raises a PredictorError that names its points (flat
    indices into the batch).
    """
    d0 = np.asarray(d0)
    w_rest = np.asarray(w_rest, dtype=float)
    tau = np.asarray(tau, dtype=float)
    m = system.m
    batch = d0.shape[:-1]
    out = np.empty(batch + (order, m), dtype=np.result_type(d0, float))
    if order == 0:
        return out
    what = "derivative chain (I - tau J)"
    if system.source_free:
        # Without source terms I - tau J is the identity.
        def solve(rhs):
            return rhs
    else:
        lhs = np.eye(m) - tau[..., None, None] * system.source_jacobian(d0)
        if m == 1:
            def solve(rhs):
                return _solve(lhs, rhs, what, tau, d0)
        else:
            # One factorization serves every derivative level.
            try:
                inverse = np.linalg.inv(lhs)
            except np.linalg.LinAlgError:
                raise _singular(lhs, what, tau, d0) from None

            def solve(rhs):
                return np.einsum("...ab,...b->...a", inverse, rhs)

    out[..., order - 1, :] = solve(w_rest[..., order - 1, :])
    if order > 1:
        amat = system.matrix(d0)
    for k in range(order - 2, -1, -1):
        out[..., k, :] = solve(
            w_rest[..., k, :]
            - tau[..., None] * np.einsum("...ab,...b->...a", amat, out[..., k + 1, :])
        )
    if not np.all(np.isfinite(out)):
        bad = ~np.isfinite(out).all(axis=(-2, -1))
        raise _point_error("non-finite derivative chain solution", bad, tau, d0)
    return out


# What a failing CK jet raises, for its whole batch.
_JET_ERRORS = (FloatingPointError, ZeroDivisionError)


def _failing_rows(evaluate, rows: np.ndarray) -> np.ndarray:
    """The rows on which ``evaluate(rows)`` raises a jet error, found by bisection."""
    try:
        evaluate(rows)
    except _JET_ERRORS:
        if rows.size == 1:
            return rows
        half = rows.size // 2
        return np.concatenate([
            _failing_rows(evaluate, rows[:half]), _failing_rows(evaluate, rows[half:])
        ])
    return rows[:0]


def _jet(evaluate, system, d0, rest, tau, w0, points):
    """``evaluate(system, d0, rest, tau, w0)``, a residual or a residual and Jacobian.

    A CK jet that fails (a non-finite coefficient or a zero division) fails
    for its whole batch, but its points are independent: the failing ones
    are found by bisection and raised as a PredictorError under their
    ``points`` labels, as is a PredictorError that ``evaluate`` raises.
    """
    try:
        return evaluate(system, d0, rest, tau, w0)
    except PredictorError as exc:
        exc.details["points"] = points[exc.details["points"]]
        raise
    except _JET_ERRORS as exc:
        bad = _failing_rows(
            lambda rows: evaluate(system, d0[rows], rest[rows], tau[rows], w0[rows]),
            np.arange(len(d0)),
        )
        raise PredictorError(
            f"CK jet failed: {exc}",
            details={"points": points[bad], "tau": tau[bad], "states": d0[bad]},
        ) from exc


def _explicit_start(
    system: SystemDescriptor, w_nodes: np.ndarray, node: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit-Taylor starts and first-sweep chords of points at ``node``, ``tau``.

    One jet per node stack w (``ckjet.ck_state_jacobian``) gives G_k(w) and
    dG_k/dD_0(w), k = 1..M; a point at tau gets the start
    w_0 + sum_k tau^k / k! G_k and the chord I + sum_k (-tau)^k / k! dG_k,
    the Jacobian of the state equation at D = w. Returns the starts (B, m),
    the chords (B, m, m) and whether each point's node has a finite jet. A
    jet that fails (overflow, zero division) fails for its whole batch: the
    failing nodes are found by bisection and have no jet.
    """
    n, nderiv, m = w_nodes.shape
    rows = np.arange(n)
    try:
        g, dg = ckjet.ck_state_jacobian(system, w_nodes)
    except _JET_ERRORS:
        rows = np.setdiff1d(
            rows, _failing_rows(lambda r: ckjet.ck_state_jacobian(system, w_nodes[r]), rows)
        )
        g = np.zeros((n, nderiv - 1, m))
        dg = np.zeros((n, nderiv - 1, m, m))
        if rows.size:
            g[rows], dg[rows] = ckjet.ck_state_jacobian(system, w_nodes[rows])
    has_jet = np.zeros(n, dtype=bool)
    has_jet[rows] = True
    has_jet &= np.isfinite(g).all(axis=(1, 2)) & np.isfinite(dg).all(axis=(1, 2, 3))

    with np.errstate(over="ignore", invalid="ignore"):
        start = w_nodes[node, 0] + _taylor_sum(-tau, g[node])   # tau^k / k!
        chord = np.eye(m) + _taylor_sum(tau, dg[node], "ij")
    return start, chord, has_jet[node]


def solve_predictor_points(
    system: SystemDescriptor,
    w_nodes: np.ndarray,
    node: np.ndarray,
    tau: np.ndarray,
    config: RunConfig,
) -> tuple[np.ndarray, int]:
    """Newton on the reduced state equation for a flat batch of predictor points.

    ``w_nodes`` has shape (N, M+1, m) holding the reconstruction derivatives
    at N spatial nodes; point p sits at node ``node[p]`` and elapsed physical
    time ``tau[p]``. Returns the full derivative stacks (B, M+1, m) and the
    largest sweep count used by any point. Points at tau = 0 return their
    (admissible) reconstruction stacks without a sweep.

    One CK jet per node, at the node's stack w, serves all of its points: a
    point starts from the explicit Taylor value w_0 + sum_k tau^k / k! G_k(w),
    and its first sweep uses the chord I + sum_k (-tau)^k / k! dG_k/dD_0(w),
    the exact Jacobian of the state equation at D = w. A point takes the
    total derivative of the reduced residual (``residual_and_jacobian``) on
    the sweep after a step larger than sqrt(fp_tol) of its state scale, and
    reuses its stored Jacobian otherwise. A point whose start is not finite
    or not admissible, or whose first sweep fails from it, starts from w_0
    instead; a point whose node has no jet gets a fresh Jacobian on its
    first sweep.
    """
    w_nodes = np.asarray(w_nodes, dtype=float)
    node = np.asarray(node, dtype=np.intp)
    tau = np.asarray(tau, dtype=float)
    w = w_nodes[node]
    nb, nderiv, m = w.shape
    order = nderiv - 1
    d0 = w[:, 0].copy()
    d_rest = w[:, 1:].copy()
    w0 = w[:, 0]
    w_rest = w[:, 1:]

    jac_store = np.empty((nb, m, m))
    # Points that take the total derivative on their next sweep.
    refresh = np.zeros(nb, dtype=bool)
    # Points that start from the explicit Taylor value rather than from w_0.
    explicit = np.zeros(nb, dtype=bool)
    # At tau = 0 the state equation reads D = w exactly: those points keep
    # their reconstruction stacks and skip the Newton sweeps.
    start = tau == 0.0
    if system.admissible is not None:
        bad = np.flatnonzero(start & ~system.admissible(w0))
        if bad.size:
            raise PredictorError(
                "inadmissible reconstructed state at tau = 0",
                details={"points": bad, "tau": tau[bad], "states": w0[bad]},
            )
    active = np.flatnonzero(~start)
    if active.size:
        guess, jac_store[active], has_jet = _explicit_start(
            system, w_nodes, node[active], tau[active]
        )
        ok = has_jet & np.isfinite(guess).all(axis=-1)
        if system.admissible is not None:
            ok[ok] = system.admissible(guess[ok])
        d0[active[ok]] = guess[ok]
        explicit[active[ok]] = True
        refresh[active] = ~has_jet
    sweeps = 0

    while active.size:
        sweeps += 1
        if sweeps > config.fp_max_iter:
            raise PredictorError(
                "predictor fixed point did not converge",
                details={"points": active, "tau": tau[active], "states": d0[active]},
            )
        try:
            d0_new, rest_a, step = _sweep(
                system, active, d0, w0, w_rest, tau, order, jac_store, refresh[active]
            )
        except PredictorError as exc:
            # The first sweep of an explicit start can fail where w_0 would
            # not: those points start again from w_0.
            retry = exc.details["points"][explicit[exc.details["points"]]]
            if not retry.size:
                raise
            d0[retry] = w0[retry]
            explicit[retry] = False
            sweeps -= 1
            continue
        explicit[:] = False

        scale = 1.0 + np.max(np.abs(d0_new), axis=-1)
        done = step <= config.fp_tol * scale
        # A step that large means the point was outside the quadratic range
        # of its Jacobian, which then no longer serves as a chord.
        refresh[active] = step > np.sqrt(config.fp_tol) * scale
        d0[active] = d0_new
        d_rest[active] = rest_a
        active = active[~done]

    return np.concatenate([d0[:, None, :], d_rest], axis=1), sweeps


def _sweep(system, active, d0, w0, w_rest, tau, order, jac_store, refresh):
    """One outer sweep over the ``active`` points: chain, then one guarded Newton step.

    An active point where ``refresh`` holds stores the total derivative of
    the reduced residual in ``jac_store``; the others reuse their stored
    Jacobian. Returns the new states, the chain solutions and each point's
    step size; a failure raises a PredictorError under the points' indices
    in the whole batch.
    """
    d0_a = d0[active]
    tau_a = tau[active]
    w0_a = w0[active]
    w_rest_a = w_rest[active]
    try:
        rest_a = solve_derivative_chain(system, d0_a, w_rest_a, tau_a, order)
    except PredictorError as exc:
        exc.details["points"] = active[exc.details["points"]]
        raise

    def rows(mask):
        # Usually every point takes one path: then the batch goes uncopied.
        return slice(None) if mask.all() else np.flatnonzero(mask)

    # Refreshed points take their residual from the jet of their Jacobian,
    # the total derivative through the chain from their data w_1..w_M.
    h = np.empty_like(d0_a)
    if refresh.any():
        r = rows(refresh)
        h[r], jac_store[active[r]] = _jet(
            residual_and_jacobian, system, d0_a[r], w_rest_a[r], tau_a[r], w0_a[r], active[r]
        )
    if not refresh.all():
        r = rows(~refresh)
        h[r] = _jet(predictor_residual, system, d0_a[r], rest_a[r], tau_a[r], w0_a[r], active[r])
    jac = jac_store[active]

    try:
        delta = _solve(jac, h, "predictor Jacobian", tau_a, d0_a)
    except PredictorError as exc:
        exc.details["points"] = active[exc.details["points"]]
        raise
    d0_new = d0_a - delta
    if not np.all(np.isfinite(d0_new)):
        bad = ~np.isfinite(d0_new).all(axis=-1)
        raise PredictorError(
            "non-finite predictor iterate",
            details={"points": active[bad], "tau": tau_a[bad], "states": d0_a[bad]},
        )

    # Backtracking: a step is halved while its state is inadmissible. A
    # large step is also halved while its residual is non-finite or larger
    # than before, or the iteration can bounce between basins of a
    # non-monotone source (e.g. at a reaction front whose state sits near an
    # unstable equilibrium); small steps are in the locally convergent
    # regime and skip that residual. No residual is taken at an inadmissible
    # state, and a step still inadmissible after the last halving fails.
    scale = 1.0 + np.max(np.abs(d0_a), axis=-1)
    big = np.max(np.abs(delta), axis=-1) > _DESCENT_GATE * scale
    h_ref = np.max(np.abs(h), axis=-1)
    trial = np.flatnonzero(big) if system.admissible is None else np.arange(len(d0_a))
    for halvings in range(_BACKTRACK_LIMIT + 1):
        if not trial.size:
            break
        halve = np.zeros(trial.size, dtype=bool)
        if system.admissible is not None:
            halve = ~system.admissible(d0_new[trial])
        if halvings == _BACKTRACK_LIMIT:
            if halve.any():
                bad = trial[halve]
                raise PredictorError(
                    "inadmissible predictor state after step halving",
                    details={"points": active[bad], "tau": tau_a[bad], "states": d0_new[bad]},
                )
            break
        descend = big[trial] & ~halve
        if descend.any():
            p = trial[descend]
            h_try = _jet(
                predictor_residual, system, d0_new[p], rest_a[p], tau_a[p], w0_a[p], active[p]
            )
            h_try = np.max(np.abs(h_try), axis=-1)
            halve[descend] = ~np.isfinite(h_try) | (h_try > h_ref[p])
        trial = trial[halve]
        delta[trial] *= 0.5
        d0_new[trial] = d0_a[trial] - delta[trial]

    return d0_new, rest_a, np.max(np.abs(d0_new - d0_a), axis=-1)


def predictor_operators(
    system: SystemDescriptor, tau: np.ndarray, config: RunConfig
) -> np.ndarray:
    """D_0(tau) = P(tau) w for a constant-coefficient law, one operator per tau.

    P(tau), shape (m, (M+1) m) with w the (M+1, m) stack flattened, solves the
    linear implicit Taylor system directly. With C = ``closed_ck(M)``,
    J = C[0, 0], A = -C[0, 1] and E_j the block-j selector, the chain
    operators D_j = R_j w are R_M = (I - tau J)^-1 E_M and
    R_j = (I - tau J)^-1 (E_j - tau A R_{j+1}); then

      L P = E_0 - sum_k c_k sum_{j>=1} C[k-1, j] R_j,
      L = I + sum_k c_k C[k-1, 0],   c_k = (-tau)^k / k!.

    Returns the operators, shape tau.shape + (m, (M+1) m).
    """
    if not system.constant_coefficients:
        raise ValueError(f"system {system.name!r} does not have constant coefficients")
    tau = np.asarray(tau, dtype=float)
    m, degree = system.m, config.degree
    ck = system.closed_ck(degree)                       # (M, M+1, m, m)
    units = np.eye((degree + 1) * m).reshape(degree + 1, m, -1)
    t = tau.reshape(-1, 1, 1)
    coef = _taylor_coefficients(tau.ravel(), degree)    # (T, M)
    # sum_k c_k C[k-1, j] for every j, shape (M+1, T, m, m).
    weighted = np.tensordot(coef, ck, axes=(1, 0)).swapaxes(0, 1)
    rhs = np.broadcast_to(units[0], (t.size,) + units[0].shape)
    try:
        for j in range(degree, 0, -1):
            # -tau A R_{j+1} = tau C[0, 1] R_{j+1}
            b = units[j] if j == degree else units[j] + t * (ck[0, 1] @ r)
            r = np.linalg.solve(np.eye(m) - t * ck[0, 0], np.broadcast_to(b, rhs.shape))
            rhs = rhs - weighted[j] @ r
        ops = np.linalg.solve(np.eye(m) + weighted[0], rhs)
    except np.linalg.LinAlgError as exc:
        raise PredictorError(f"singular linear predictor: {exc}") from exc
    if not np.all(np.isfinite(ops)):
        raise PredictorError("non-finite linear predictor operator")
    return ops.reshape(tau.shape + ops.shape[1:])


@lru_cache(maxsize=8)
def _step_operators(system: SystemDescriptor, order: int, taus: tuple) -> np.ndarray:
    """Read-only ``predictor_operators`` at a step's node times.

    Every step of a run but the last has the same dt, so the operators are
    kept for the steps that repeat it.
    """
    ops = predictor_operators(system, np.array(taus), RunConfig(order=order))
    ops.flags.writeable = False
    return ops


def _node_derivatives(coeffs: np.ndarray, basis: np.ndarray, dx: float) -> np.ndarray:
    """Reconstruction derivatives at basis nodes: (C, n_nodes, M+1, m), physical."""
    w = np.tensordot(coeffs, basis, axes=(2, 2)).transpose(0, 3, 2, 1)
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
    ncells = coeffs.shape[0]
    m = system.m
    n_xi = rules.xi_rule.n
    n_tau = rules.tau_rule.n
    n_tr = rules.trace_rule.n

    w_int = _node_derivatives(coeffs, rules.basis_interior, dx)  # (C, n_xi, M+1, m)
    w_tr = _node_derivatives(coeffs, rules.basis_trace, dx)      # (C, 2, M+1, m)
    if system.constant_coefficients:
        # D_0(tau) = P(tau) w at every node: one contraction per node set.
        taus = np.concatenate([rules.tau_rule.nodes, rules.trace_rule.nodes]) * dt
        ops = _step_operators(system, config.order, tuple(taus)).reshape(taus.size * m, -1)
        values = w_int.reshape(ncells * n_xi, -1) @ ops[: n_tau * m].T
        values = values.reshape(ncells, n_xi, n_tau, m).swapaxes(1, 2)
        traces = w_tr.reshape(ncells * 2, -1) @ ops[n_tau * m :].T
        traces = traces.reshape(ncells, 2, n_tr, m).swapaxes(1, 2)
        sweeps = 0
    else:
        # Spatial nodes: the interior nodes of every cell, then its two trace
        # ends. Flat point batch: interior tensor nodes first, then the traces.
        w_nodes = np.concatenate([
            w_int.reshape(ncells * n_xi, -1, m), w_tr.reshape(ncells * 2, -1, m)
        ])
        cells = np.arange(ncells)[:, None, None]
        node_int = np.broadcast_to(cells * n_xi + np.arange(n_xi), (ncells, n_tau, n_xi))
        node_tr = np.broadcast_to(cells * 2 + np.arange(2), (ncells, n_tr, 2)) + ncells * n_xi
        tau_int = np.tile(np.repeat(rules.tau_rule.nodes, n_xi), ncells) * dt
        tau_tr = np.tile(np.repeat(rules.trace_rule.nodes, 2), ncells) * dt

        node_all = np.concatenate([node_int.ravel(), node_tr.ravel()])
        tau_all = np.concatenate([tau_int, tau_tr])
        split = ncells * n_tau * n_xi
        try:
            stacks, sweeps = solve_predictor_points(system, w_nodes, node_all, tau_all, config)
        except PredictorError as exc:
            if "points" in exc.details:
                p = np.asarray(exc.details["points"])
                exc.details["cells"] = np.where(
                    p < split, p // (n_tau * n_xi), (p - split) // (2 * n_tr)
                )
            raise
        states = stacks[:, 0]
        values = states[:split].reshape(ncells, n_tau, n_xi, m)
        traces = states[split:].reshape(ncells, n_tr, 2, m)
    x_deriv = rules.diff_matrix @ values / dx

    return PredictorTable(
        values=values,
        x_derivative=x_deriv,
        trace_left=traces[:, :, 0, :],
        trace_right=traces[:, :, 1, :],
        iterations=sweeps,
    )
