"""Cauchy-Kowalewskaya machinery: time derivatives from spatial jets.

Given the state and its spatial derivatives at one point, the balance law
dQ/dt = S(Q) - A(Q) dQ/dx determines all time (and mixed) derivatives. The
generic engine propagates a bivariate truncated power series in (x, t) layer
by layer: the t-degree-(k+1) coefficients are the t-degree-k coefficients of
S(Q) - A(Q) dQ/dx divided by k+1, on the triangle j + k <= order that the
time derivatives need. Like the series, the jet is coefficient-major (degree
axes first, batch axes last). Each system states its law once, and the engine
runs that generic form directly on series: a conservative law gives its flux,
so A(Q) dQ/dx is the x-derivative of F(Q); a non-conservative law gives the
rows of A(Q); either may add source terms S(Q).

A system that declares constant coefficients takes the constant-coefficient
route derived from the law instead: its time derivatives are one matrix
product with the closed-form CK matrices. Neither route casts the state to
float, so the residual's Jacobian is one complex step through either of them,
exact to rounding for every system.
"""
from __future__ import annotations

import math

import numpy as np

from .series import TruncatedSeries
from .systems import SystemDescriptor, complex_step_jacobian

__all__ = [
    "SpaceTimeJet",
    "ck_time_derivatives",
    "predictor_residual",
    "residual_and_jacobian",
]

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


class SpaceTimeJet:
    """Space-time Taylor coefficients c[i, j, k] of Q around one point.

    Seeded from the spatial derivative stack (c[:, j, 0] = D_j / j!) and
    filled upward in time degree using the balance law. ``coefficients`` is
    coefficient-major with shape (m, order+1, order+1) + batch. Only the
    triangle j + k <= order is filled: time level k evolves the x-degrees
    j <= order - k that the pure time derivatives depend on.
    """

    def __init__(self, system: SystemDescriptor, derivatives: np.ndarray, order: int):
        derivatives = np.asarray(derivatives)
        if derivatives.shape[-1] != system.m or derivatives.shape[-2] != order + 1:
            raise ValueError(
                f"derivative stack must be (..., {order + 1}, {system.m}), "
                f"got {derivatives.shape}"
            )
        self.system = system
        self.order = order
        n = order + 1
        batch = derivatives.shape[:-2]
        c = np.zeros((system.m, n, n) + batch, dtype=np.result_type(derivatives, float))
        factorials = np.array([math.factorial(j) for j in range(n)])
        seeds = np.moveaxis(derivatives, (-1, -2), (0, 1))
        c[:, :, 0] = seeds / factorials.reshape((n,) + (1,) * len(batch))
        self.coefficients = c
        self._fill()

    def _fill(self) -> None:
        c = self.coefficients
        m = self.system.m
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for k in range(self.order):
                nx = self.order - k + 1
                comps = [TruncatedSeries(c[i, :nx, : k + 1]) for i in range(m)]
                rhs = _rhs_terms(self.system, comps)
                for i in range(m):
                    c[i, : nx - 1, k + 1] = rhs[i].c[: nx - 1, k] / (k + 1)
        if not np.all(np.isfinite(c)):
            raise FloatingPointError("non-finite space-time jet coefficients")

    def time_derivatives(self) -> np.ndarray:
        """Pure time derivatives d_t^k Q for k = 1..order, shape (..., order, m)."""
        c = self.coefficients
        factorials = np.array([math.factorial(k) for k in range(1, self.order + 1)])
        g = factorials.reshape((-1,) + (1,) * (c.ndim - 3)) * c[:, 0, 1:]
        return np.moveaxis(g, (0, 1), (-1, -2))


def ck_time_derivatives(
    system: SystemDescriptor, derivatives: np.ndarray, order: int
) -> np.ndarray:
    """Time derivatives d_t^k Q, k = 1..order, from the spatial stack.

    ``derivatives`` holds (D_0, ..., D_order) along the second-to-last axis;
    a complex stack keeps its imaginary part.
    """
    derivatives = np.asarray(derivatives)
    if order == 0:
        return np.zeros(derivatives.shape[:-2] + (0, system.m))
    if not system.constant_coefficients:
        return SpaceTimeJet(system, derivatives, order).time_derivatives()
    # d_t^{k+1} Q = sum_j C[k, j] D_j as one product: rows (k, a), columns (j, b).
    m = system.m
    mats = system.closed_ck(order).transpose(0, 2, 1, 3).reshape(order * m, -1)
    batch = derivatives.shape[:-2]
    flat = derivatives.reshape(batch + ((order + 1) * m,))
    return (flat @ mats.T).reshape(batch + (order, m))


def _taylor_coefficients(tau: np.ndarray, order: int) -> np.ndarray:
    """Coefficients (-tau)^k / k! for k = 1..order, shape tau.shape + (order,)."""
    tau = np.asarray(tau, dtype=float)
    out = np.empty(tau.shape + (order,))
    term = np.ones_like(tau)
    for k in range(1, order + 1):
        term = term * (-tau) / k
        out[..., k - 1] = term
    return out


def predictor_residual(
    system: SystemDescriptor,
    d0: np.ndarray,
    d_rest: np.ndarray,
    tau: np.ndarray,
    w0: np.ndarray,
) -> np.ndarray:
    """Residual of the implicit Taylor state equation at elapsed time tau.

    H(D_0) = D_0 - w_0 + sum_{k=1}^{M} (-tau)^k / k! * G^(k)(D_0, D_1..D_k),
    where w_0 is the reconstructed state at tau = 0 and D_1..D_M are the
    current spatial derivatives (held frozen during the D_0 update). D_0 may
    be complex and carry leading batch axes that the other inputs broadcast
    over.
    """
    d0 = np.asarray(d0)
    d_rest = np.asarray(d_rest, dtype=float)
    order = d_rest.shape[-2]
    d_rest = np.broadcast_to(d_rest, d0.shape[:-1] + d_rest.shape[-2:])
    stack = np.concatenate([d0[..., None, :], d_rest], axis=-2)
    g = ck_time_derivatives(system, stack, order)
    coef = _taylor_coefficients(tau, order)
    return d0 - w0 + np.einsum("...k,...km->...m", coef, g)


def residual_and_jacobian(
    system: SystemDescriptor,
    d0: np.ndarray,
    d_rest: np.ndarray,
    tau: np.ndarray,
    w0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual H and its Jacobian with respect to D_0, shapes (..., m), (..., m, m).

    The m complex states D_0 + i h e_j go through ``predictor_residual`` in
    one batched call (``complex_step_jacobian``): Re H is the residual and
    Im H / h is column j of dH/dD_0, exact to rounding on either CK route.
    """
    return complex_step_jacobian(
        lambda d0c: predictor_residual(system, d0c, d_rest, tau, w0),
        np.asarray(d0, dtype=float),
    )
