"""WENO-style nonlinear reconstruction in a shifted Legendre basis.

Cell data is reconstructed per cell as p(xi) = sum_l beta_l * theta_l(xi) on
the unit cell xi in [0, 1], where theta_l are Legendre polynomials shifted to
[0, 1]. Three candidate stencils (left-biased, central, right-biased) are
blended with data-driven weights derived from an oscillation index.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "legendre_coefficients",
    "legendre_derivative",
    "stencil_offsets",
    "stencil_matrix",
    "window_candidate_matrix",
    "oscillation_matrix",
    "nonlinear_weights",
    "reconstruct_batch",
]

MAX_DEGREE = 5

# Blending parameters: heavy preference for the central stencil, a hard floor
# on the oscillation index, and a steep sharpening exponent.
LAMBDA_SIDE = 1.0
LAMBDA_CENTRAL = 1.0e5
WEIGHT_EPS = 1.0e-14
WEIGHT_EXPONENT = 4

_KINDS = ("left", "central", "right")


@lru_cache(maxsize=None)
def _legendre_fractions(l: int) -> tuple[Fraction, ...]:
    """Monomial coefficients (low power first) of theta_l on [0, 1], exact."""
    if not 0 <= l <= MAX_DEGREE:
        raise ValueError(f"degree out of range: {l}")
    sign = (-1) ** l
    return tuple(
        Fraction(sign * math.comb(l, k) * math.comb(l + k, k) * (-1) ** k)
        for k in range(l + 1)
    )


def legendre_coefficients(l: int) -> np.ndarray:
    """Monomial coefficients of the shifted Legendre polynomial theta_l."""
    return np.array([float(c) for c in _legendre_fractions(l)])


def legendre_derivative(l: int, xi, k: int = 1) -> np.ndarray:
    """Evaluate the k-th derivative of theta_l at xi (theta_l itself for k = 0)."""
    coeffs = legendre_coefficients(l)
    for _ in range(k):
        coeffs = np.polynomial.polynomial.polyder(coeffs)
        if coeffs.size == 0:
            coeffs = np.zeros(1)
    return np.polynomial.polynomial.polyval(np.asarray(xi, dtype=float), coeffs)


def stencil_offsets(degree: int, kind: str) -> tuple[int, ...]:
    """Cell offsets j - i of the candidate stencil for reconstruction degree M."""
    if degree < 0 or degree > MAX_DEGREE - 1:
        raise ValueError(f"degree out of range: {degree}")
    if kind == "left":
        return tuple(range(-degree, 1))
    if kind == "right":
        return tuple(range(0, degree + 1))
    if kind == "central":
        if degree % 2 == 0:
            half = degree // 2
            return tuple(range(-half, half + 1))
        # Odd degree: the symmetric stencil has 2M+1 cells and the fit is an
        # overdetermined least squares with the own-cell average kept exact.
        return tuple(range(-degree, degree + 1))
    raise ValueError(f"unknown stencil kind {kind!r}")


@lru_cache(maxsize=None)
def _theta_integral(l: int, a: int) -> Fraction:
    """Exact integral of theta_l over [a, a+1] for integer a."""
    total = Fraction(0)
    for p, c in enumerate(_legendre_fractions(l)):
        total += c * (Fraction(a + 1) ** (p + 1) - Fraction(a) ** (p + 1)) / (p + 1)
    return total


@lru_cache(maxsize=None)
def _stencil_matrix_exact(degree: int, kind: str) -> tuple[tuple[Fraction, ...], ...]:
    offsets = stencil_offsets(degree, kind)
    return tuple(
        tuple(_theta_integral(l, a) for l in range(degree + 1)) for a in offsets
    )


def stencil_matrix(degree: int, kind: str) -> np.ndarray:
    """Row j, column l holds the integral of theta_l over stencil cell j.

    The first column is identically one (theta_0 = 1), and the row for the
    cell being reconstructed is (1, 0, ..., 0).
    """
    exact = _stencil_matrix_exact(degree, kind)
    return np.array([[float(v) for v in row] for row in exact])


@lru_cache(maxsize=None)
def window_candidate_matrix(degree: int, kind: str) -> np.ndarray:
    """Linear map from the (2M+1)-cell window to the candidate coefficients.

    The window is centred on the reconstructed cell; columns outside the
    stencil are zero. For square stencils the cell-average conditions are
    solved exactly; for the odd-degree central stencil the own-cell condition
    is eliminated first and the remaining rows are fit by least squares.
    """
    m1 = degree + 1
    width = 2 * degree + 1
    offsets = stencil_offsets(degree, kind)
    smat = stencil_matrix(degree, kind)
    out = np.zeros((m1, width))
    cols = [degree + a for a in offsets]  # window positions of the stencil cells

    if len(offsets) == m1:
        inv = np.linalg.solve(smat, np.eye(m1))
        out[:, cols] = inv
        return out

    # Overdetermined central fit: beta_0 = own-cell average exactly, then
    # normal equations for beta_1..beta_M over the remaining cells.
    centre_row = offsets.index(0)
    rest = [r for r in range(len(offsets)) if r != centre_row]
    a = smat[rest][:, 1:]  # (2M, M)
    rhs_map = np.zeros((len(rest), width))
    for r, row_idx in enumerate(rest):
        rhs_map[r, cols[row_idx]] = 1.0
        rhs_map[r, degree] -= smat[row_idx, 0]  # subtract the constant column
    coef = np.linalg.solve(a.T @ a, a.T @ rhs_map)  # (M, width)
    out[0, degree] = 1.0
    out[1:] = coef
    return out


@lru_cache(maxsize=None)
def _candidate_stack(degree: int) -> np.ndarray:
    """The (left, central, right) window candidate matrices, (3, M+1, 2M+1)."""
    return np.stack([window_candidate_matrix(degree, kind) for kind in _KINDS])


@lru_cache(maxsize=None)
def _oscillation_matrix_exact(degree: int) -> tuple[tuple[Fraction, ...], ...]:
    def deriv(coeffs: tuple[Fraction, ...], k: int) -> tuple[Fraction, ...]:
        c = list(coeffs)
        for _ in range(k):
            c = [c[p] * p for p in range(1, len(c))] or [Fraction(0)]
        return tuple(c)

    def integrate01(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> Fraction:
        total = Fraction(0)
        for p, ca in enumerate(a):
            for q, cb in enumerate(b):
                total += ca * cb / (p + q + 1)
        return total

    rows = []
    for i in range(degree + 1):
        row = []
        for j in range(degree + 1):
            entry = Fraction(0)
            for k in range(1, degree + 1):
                entry += integrate01(
                    deriv(_legendre_fractions(i), k), deriv(_legendre_fractions(j), k)
                )
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def oscillation_matrix(degree: int) -> np.ndarray:
    """Quadratic form of the oscillation index in the Legendre basis.

    OI(p) = sum_{k=1..M} int_0^1 (d^k p / d xi^k)^2 d xi = beta^T Sigma beta.
    """
    exact = _oscillation_matrix_exact(degree)
    return np.array([[float(v) for v in row] for row in exact])


def nonlinear_weights(oi) -> np.ndarray:
    """Normalized stencil weights (..., 3) from the oscillation indices (..., 3).

    The last axis runs over the (left, central, right) stencils.
    """
    oi = np.asarray(oi, dtype=float)
    lam = np.array([LAMBDA_SIDE, LAMBDA_CENTRAL, LAMBDA_SIDE])
    raw = lam / (oi + WEIGHT_EPS) ** WEIGHT_EXPONENT
    return raw / np.sum(raw, axis=-1, keepdims=True)


def reconstruct_batch(windows: np.ndarray, degree: int) -> np.ndarray:
    """Blend the three candidate fits for a batch of reconstruction windows.

    ``windows`` has shape (cells, 2M+1, m); the result has shape
    (cells, m, M+1). Weights are computed per variable independently.
    """
    windows = np.asarray(windows)
    if windows.ndim != 3 or windows.shape[1] != 2 * degree + 1:
        raise ValueError(f"windows must be (cells, {2 * degree + 1}, m)")
    betas = np.tensordot(windows, _candidate_stack(degree), axes=(1, 2))  # (c, m, 3, M+1)
    if degree == 0:
        return betas[:, :, 1]
    oi = np.sum((betas @ oscillation_matrix(degree)) * betas, axis=-1)   # (c, m, 3)
    weights = nonlinear_weights(oi)                                     # (c, m, 3)
    return (
        weights[..., 0, None] * betas[:, :, 0]
        + weights[..., 1, None] * betas[:, :, 1]
        + weights[..., 2, None] * betas[:, :, 2]
    )  # (cells, m, M+1)
