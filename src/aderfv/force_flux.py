"""Centred path-conservative flux splitting and the update's volume terms.

Interfaces are handled with a two-point splitting built from the segment-path
average of the system matrix,

  A+-(qL, qR) = 1/2 Atilde +- (alpha dt / 4 dx) (Atilde^2 + (dx / alpha dt)^2 I),

so that A+ + A- = Atilde exactly. alpha = 1 recovers the classical centred
two-step splitting; larger alpha trades dissipation for a tighter stability
range. The interface fluctuation is the trace-rule time average of
A+-(qL(tau), qR(tau)) (qR - qL), and the volume terms are tensor quadrature
averages over the predictor tables.

The fluctuations take one of three routes, by the law's form:

- a flux law without a source (``SystemDescriptor.flux_form``) is taken in
  flux form, from the traces alone. The centred half of each fluctuation is
  the trace-rule average of 1/2 (F(qR) - F(qL)). The dissipation applies
  Atilde to vectors and never forms it: two ``matrix_product`` passes over
  the path nodes give Atilde dq, then Atilde (Atilde dq). The volume term is
  the trace-rule average of (F(Q(1, tau)) - F(Q(0, tau))) / dx, the exact
  x-average of dF/dx, and the source average is zero. The update then
  telescopes, so such a law keeps its totals to round-off (Pares, SIAM J.
  Numer. Anal. 44, 2006: a path-conservative scheme conserves when its path
  integral of A is F(qR) - F(qL));
- a law with ``constant_coefficients``, derived from its forms, has Atilde = A
  at every state: A+- are split from its cached A once per call and applied
  once to the trace-rule average of the jumps;
- any other law forms Atilde at every trace time and applies its A+-.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import QuadratureRule, gauss_legendre
from .predictor import PredictorTable, SpaceTimeRules
from .systems import SystemDescriptor, _identity

__all__ = [
    "FluctuationPair",
    "path_average_matrix",
    "force_alpha_split",
    "interface_fluctuations",
    "source_average",
    "noncons_average",
]

# Segment-path rule of the two-state matrix average, built once: a
# gauss_legendre call takes tens of microseconds.
_PATH_RULE = gauss_legendre(3)


@dataclass(frozen=True)
class FluctuationPair:
    """Time-averaged interface fluctuations.

    ``dplus`` is the right-going part (it updates the cell right of the
    interface), ``dminus`` the left-going part (cell left of the interface);
    both have shape (..., m). In the upwind limit of a right-moving wave
    ``dminus`` vanishes.
    """

    dplus: np.ndarray
    dminus: np.ndarray


def path_average_matrix(
    system: SystemDescriptor,
    q_left: np.ndarray,
    q_right: np.ndarray,
    rule: QuadratureRule = _PATH_RULE,
) -> np.ndarray:
    """Average of A along the straight segment joining two states."""
    q_left = np.asarray(q_left, dtype=float)
    q_right = np.asarray(q_right, dtype=float)
    delta = q_right - q_left
    states = q_left[..., None, :] + rule.nodes[:, None] * delta[..., None, :]
    # einsum measured faster here than tensordot or @ on the strided matrix.
    return np.einsum("g,...gab->...ab", rule.weights, system.matrix(states))


def _splitting_scales(alpha: float, dt: float, dx: float) -> tuple[float, float]:
    """mu = alpha dt / 4 dx and lam = dx / alpha dt of the splitting's dissipation."""
    if alpha <= 0.0 or dt <= 0.0:
        raise ValueError("the alpha splitting needs alpha > 0 and dt > 0")
    return alpha * dt / (4.0 * dx), dx / (alpha * dt)


def force_alpha_split(
    atilde: np.ndarray, alpha: float, dt: float, dx: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split a path-averaged matrix into its A+ / A- parts."""
    mu, lam = _splitting_scales(alpha, dt, dx)
    diss = mu * (atilde @ atilde + lam**2 * _identity(atilde.shape[-1]))
    half = 0.5 * atilde
    return half + diss, half - diss


def interface_fluctuations(
    system: SystemDescriptor,
    trace_left: np.ndarray,
    trace_right: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    dt: float,
    dx: float,
) -> FluctuationPair:
    """Fluctuations of one (or a batch of) interface(s).

    ``trace_left`` / ``trace_right`` are the predictor traces taken from the
    cells left and right of the interface, shape (..., n_trace, m), sampled at
    the times whose unit-interval quadrature ``weights`` are given. The
    fluctuations are sum_j w_j A+-_j dq_j, taken by one of three routes:

    - a ``flux_form`` law: the centred half is 1/2 sum_j w_j (F(qR_j) -
      F(qL_j)), so D+ + D- is the flux jump, and the dissipation
      mu sum_j w_j (Atilde_j (Atilde_j dq_j) + lam^2 dq_j) comes from two
      ``matrix_product`` passes over the path nodes, without forming Atilde;
    - a law with ``constant_coefficients``: A+- are split once, from the
      law's cached A, and applied to sum_j w_j dq_j;
    - any other law: A+-_j are formed from the path average at every trace
      time and applied to w_j dq_j.
    """
    trace_left = np.asarray(trace_left, dtype=float)
    trace_right = np.asarray(trace_right, dtype=float)
    dq = trace_right - trace_left
    if system.flux_form:
        mu, lam = _splitting_scales(alpha, dt, dx)
        # The path nodes of every trace time, (..., n_trace, n_path, m).
        states = trace_left[..., None, :] + _PATH_RULE.nodes[:, None] * dq[..., None, :]

        def path_average(v: np.ndarray) -> np.ndarray:
            """Atilde_j v_j = sum_g w_g A(q_g) v_j, without forming A."""
            return _PATH_RULE.weights @ system.matrix_product(states, v[..., None, :])

        diss = mu * (weights @ (path_average(path_average(dq)) + lam**2 * dq))
        half = 0.5 * (weights @ (system.flux(trace_right) - system.flux(trace_left)))
        return FluctuationPair(half + diss, half - diss)
    if system.constant_coefficients:
        aplus, aminus = force_alpha_split(system._constant_matrices[0], alpha, dt, dx)
        wdq = weights @ dq
        return FluctuationPair(wdq @ aplus.T, wdq @ aminus.T)
    atilde = path_average_matrix(system, trace_left, trace_right)
    aplus, aminus = force_alpha_split(atilde, alpha, dt, dx)
    # sum_j w_j A(tau_j) dq(tau_j) as one product over the flattened (j, b) axes.
    batch, m = dq.shape[:-2], dq.shape[-1]
    wdq = (weights[:, None] * dq).reshape(batch + (-1, 1))

    def apply(mat: np.ndarray) -> np.ndarray:
        return (mat.swapaxes(-3, -2).reshape(batch + (m, -1)) @ wdq)[..., 0]

    return FluctuationPair(apply(aplus), apply(aminus))


def _volume_average(integrand: np.ndarray, rules: SpaceTimeRules) -> np.ndarray:
    weights = np.outer(rules.tau_rule.weights, rules.xi_rule.weights).ravel()
    return weights @ integrand.reshape(integrand.shape[:-3] + (-1, integrand.shape[-1]))


def source_average(
    system: SystemDescriptor, table: PredictorTable, rules: SpaceTimeRules
) -> np.ndarray:
    """Space-time average of the source over the predictor table, (..., m).

    A law without a source gets zeros, and its table's nodes are not read.
    """
    if system.source_free:
        return np.zeros(table.trace_left.shape[:-2] + (system.m,))
    return _volume_average(system.source(table.values), rules)


def noncons_average(
    system: SystemDescriptor, table: PredictorTable, rules: SpaceTimeRules
) -> np.ndarray:
    """Space-time average of A(Q) dQ/dx over the predictor table, (..., m).

    A(Q) dQ/dx is taken at each interior node by
    ``SystemDescriptor.matrix_product``, one directional derivative of the
    law, without forming A; a constant-coefficient law takes one product with
    its cached A. A ``flux_form`` law has no interior nodes: its
    term is the exact x-integral of dF/dx, the trace-rule average of
    (F(Q(1, tau)) - F(Q(0, tau))) / dx over the cell's own traces.
    """
    if system.flux_form:
        jump = system.flux(table.trace_right) - system.flux(table.trace_left)
        return rules.trace_rule.weights @ jump / table.dx
    if system.constant_coefficients:
        v = table.x_derivative
        integrand = (v.reshape(-1, system.m) @ system._constant_matrices[0].T).reshape(v.shape)
    else:
        integrand = system.matrix_product(table.values, table.x_derivative)
    return _volume_average(integrand, rules)
