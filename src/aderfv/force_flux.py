"""Centred path-conservative flux splitting and the update's volume terms.

Interfaces are handled with a two-point splitting built from the segment-path
average Atilde of the system matrix,

  A+-(qL, qR) = 1/2 Atilde +- (alpha dt / 4 dx) (Atilde^2 + (dx / alpha dt)^2 I),

so that A+ + A- = Atilde exactly. alpha = 1 recovers the classical centred
two-step splitting; larger alpha trades dissipation for a tighter stability
range. The interface fluctuation is the trace-rule time average of
A+-(qL(tau), qR(tau)) (qR - qL), and the volume terms are tensor quadrature
averages over the predictor tables.

The fluctuations apply Atilde to vectors and never form it or A+-. They take
one of two routes, by the law:

- a law with ``constant_coefficients``, derived from its forms, has Atilde = A
  at every state: its cached A is applied twice to the trace-rule average of
  the jumps;
- any other law applies Atilde by two ``matrix_product`` passes over the path
  nodes, Atilde dq and then Atilde (Atilde dq). A flux law without a source
  (``SystemDescriptor.flux_form``) takes the centred half in flux form, as
  the trace-rule average of 1/2 (F(qR) - F(qL)), and its volume term as the
  trace-rule average of (F(Q(1, tau)) - F(Q(0, tau))) / dx, the exact
  x-average of dF/dx, with a zero source average. The update then
  telescopes, so such a law keeps its totals to round-off (Pares, SIAM J.
  Numer. Anal. 44, 2006: a path-conservative scheme conserves when its path
  integral of A is F(qR) - F(qL)).

Apart from a constant-coefficient law's cached A, ``SystemDescriptor.matrix``
is formed only for the CFL speed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import gauss_legendre
from .predictor import PredictorTable, SpaceTimeRules
from .systems import SystemDescriptor

__all__ = [
    "FluctuationPair",
    "interface_fluctuations",
    "source_average",
    "noncons_average",
]

# Segment-path rule of Atilde, applied at its nodes by matrix_product; built
# once, as a gauss_legendre call takes tens of microseconds.
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
    fluctuations are sum_j w_j A+-_j dq_j, with A+-_j split from the path
    average Atilde_j at trace time j, and Atilde is never formed:

    - a law with ``constant_coefficients`` has Atilde_j = A, its cached
      matrix: with wdq = sum_j w_j dq_j and adq = A wdq, the fluctuations are
      1/2 adq +- mu (A adq + lam^2 wdq);
    - any other law applies Atilde_j to vectors by two ``matrix_product``
      passes over the path nodes, Atilde_j dq_j and then Atilde_j (Atilde_j
      dq_j), for the dissipation mu sum_j w_j (Atilde_j^2 dq_j + lam^2 dq_j).
      The centred half is 1/2 sum_j w_j (F(qR_j) - F(qL_j)) for a
      ``flux_form`` law, so D+ + D- is the flux jump, and 1/2 sum_j w_j
      Atilde_j dq_j, the first pass, otherwise.
    """
    if alpha <= 0.0 or dt <= 0.0:
        raise ValueError("the alpha splitting needs alpha > 0 and dt > 0")
    mu, lam = alpha * dt / (4.0 * dx), dx / (alpha * dt)
    trace_left = np.asarray(trace_left, dtype=float)
    trace_right = np.asarray(trace_right, dtype=float)
    dq = trace_right - trace_left
    if system.constant_coefficients:
        a = system._constant_matrices[0]
        wdq = weights @ dq
        adq = wdq @ a.T
        half, diss = 0.5 * adq, mu * (adq @ a.T + lam**2 * wdq)
        return FluctuationPair(half + diss, half - diss)
    # The path nodes of every trace time, (..., n_trace, n_path, m).
    states = trace_left[..., None, :] + _PATH_RULE.nodes[:, None] * dq[..., None, :]

    def path_average(v: np.ndarray) -> np.ndarray:
        """Atilde_j v_j = sum_g w_g A(q_g) v_j, without forming A."""
        return _PATH_RULE.weights @ system.matrix_product(states, v[..., None, :])

    adq = path_average(dq)
    diss = mu * (weights @ (path_average(adq) + lam**2 * dq))
    if system.flux_form:
        half = 0.5 * (weights @ (system.flux(trace_right) - system.flux(trace_left)))
    else:
        half = 0.5 * (weights @ adq)
    return FluctuationPair(half + diss, half - diss)


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
