"""Linear (von Neumann) stability analysis of the fully discrete scheme.

The model problem is scalar advection-reaction q_t + lam q_x = beta q on a
uniform grid, reduced to the two dimensionless parameters

  c = lam dt / dx   (Courant number),   r = beta dt   (stiffness number).

A single Fourier mode with phase angle theta is pushed through one full step
of the scheme: reconstruction (a fixed blend of the three candidate stencils),
space-time predictor, trace-rule time averaging of the centred alpha-split
flux, and the tensor-rule averages of the source and of the volume term. The
predictions come from the solver's own predictor at dx = dt = 1, fed the
model's closed CK table ``linear_ck_matrices([[c]], [[r]], M)``, the table a
constant-coefficient law gives the solver: the implicit one as its
``predictor_operators`` (solved in closed form, no Newton sweep), the explicit
one as the Taylor series of the CK time derivatives read off the same table
(the classical ADER-CK predictor of Titarev & Toro, J. Sci. Comput. 17,
2002). No law is built per point. The amplification factor is

  A(theta) = 1 - c (fhat_+ - fhat_-) + r shat - c (ahat - (qR - qL)),
  fhat = (qL + qR)/2 - (alpha c + 1/(alpha c))/4 (qR - qL),

with neighbour values obtained from the mode by phase shifts e^{+-i theta},
and ahat the tensor-rule average of the interior interpolant's x-derivative
(the solver's volume term). The last term vanishes when both time rules
integrate the predictor exactly: for the explicit predictor, or at r = 0. For
r != 0 the implicit predictor is rational in tau and the term stays. A
singular predictor (e.g. tau r = 1) gives a non-finite amplitude, which
counts as unstable.

Everything A reads - shat, ahat, qL and qR - is linear in the reconstruction
coefficients beta = blend . phase, where phase holds the mode's values
e^{i k theta} on the window k = -M..M, and A weights each of the four by a
factor of (c, theta). The predictor rows, quadrature weights and basis values
collapse into one real (4, M+1) functional F(c, r), the factors fold into the
phases as one (4(2M+1), n_theta) kernel K, and all modes of all scenarios
come from the single product A = 1 + (F blend) K.

Because the nonlinear stencil weights depend on the data, each map point is
judged over an ensemble of random weight scenarios; the reported number is
the fraction of scenarios whose amplification stays below one for every
sampled angle.

Two scenario models are available. The default ("weno-law") feeds randomized
order-one smoothness indicators through the reconstruction's own weight
formula, which is the weight spread the blended scheme actually produces on
resolvable data: the large central preference pins every draw within about
1e-4 of the central stencil. The alternative ("uniform") draws unconstrained
convex triples; it answers a different, far more pessimistic question - what
if every cell permanently used the same arbitrary blend - and for orders >= 3
it reports instability at all Courant numbers, because a frozen one-sided
high-degree extrapolation of an oscillatory mode amplifies more than the
centred flux dissipates. That regime never occurs globally in practice (the
weight law only leaves the central stencil at isolated fronts), so the
uniform model is kept for reference rather than as the default verdict.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .grid import check_count
from .predictor import PredictorError, predictor_operators, space_time_rules
from .systems import linear_ck_matrices
from .weno import _candidate_stack, nonlinear_weights, window_candidate_matrix

__all__ = [
    "StabilityQuery",
    "DEFAULT_C_GRID",
    "DEFAULT_R_GRID",
    "theta_grid",
    "blend_matrix",
    "amplitude",
    "max_amplitude",
    "stability_fraction",
    "stability_map",
    "write_raster_csv",
]

DEFAULT_C_GRID = np.round(np.arange(1, 121) * 0.01, 10)        # 0.01 .. 1.20
DEFAULT_R_GRID = np.round(np.linspace(-10.0, 0.0, 101), 10)    # -10.0 .. 0.0
# A scenario is stable where every sampled amplitude is at most 1 + this.
_STABLE_TOL = 1e-12


@dataclass(frozen=True)
class StabilityQuery:
    """Scheme variant and sampling resolution for the stability analysis."""

    order: int
    predictor: str = "implicit"  # "implicit" or "explicit"
    alpha: float = 1.0
    n_theta: int = 128
    n_scenarios: int = 100
    seed: int = 0
    weight_model: str = "weno-law"  # "weno-law" or "uniform"

    def __post_init__(self) -> None:
        if self.predictor not in ("implicit", "explicit"):
            raise ValueError(f"unknown predictor kind {self.predictor!r}")
        check_count("order", self.order, 1, 5)
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        check_count("n_theta", self.n_theta, 1)
        check_count("n_scenarios", self.n_scenarios, 1)
        check_count("seed", self.seed, 0)
        if self.weight_model not in ("weno-law", "uniform"):
            raise ValueError(f"unknown weight model {self.weight_model!r}")


def theta_grid(n: int) -> np.ndarray:
    """Equispaced phase angles covering [0, 2 pi), including pi for even n."""
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


def blend_matrix(degree: int, weights) -> np.ndarray:
    """Window-to-coefficients operators of fixed (left, central, right) blends.

    ``weights`` has shape (..., 3); the result has shape (..., M+1, 2M+1).
    """
    w = np.asarray(weights, dtype=float)
    return np.einsum("...s,slw->...lw", w, _candidate_stack(degree))


def amplitude(
    theta: np.ndarray, c: float, r: float, query: StabilityQuery, blends: np.ndarray | None = None
) -> np.ndarray:
    """Amplification factor of one step for each angle and weight scenario.

    ``blends`` holds reconstruction operators of shape (S, M+1, 2M+1); by
    default the single central-stencil operator is used. Returns a complex
    array of shape (S, n_theta) (squeezed to (n_theta,) when blends is None).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    degree = query.order - 1
    squeeze = blends is None
    if blends is None:
        blends = window_candidate_matrix(degree, "central")[None]
    blends = np.asarray(blends, dtype=float)

    rules = space_time_rules(query.order)
    # The solver's predictor on q_t + c q_x = r q at dx = dt = 1, as rows
    # q(tau) = P(tau) w, from the model law's closed CK table, with
    # C[k-1, j] = d(d_t^k q)/d(d_x^j q). Explicit rows are
    # e_0 + sum_k tau^k / k! C[k-1].
    ck = linear_ck_matrices([[c]], [[r]], degree)              # (M, M+1, 1, 1)
    taus = np.concatenate([rules.tau_rule.nodes, rules.trace_rule.nodes])
    if query.predictor == "explicit":
        growth = np.cumprod(taus[:, None] / np.arange(1, degree + 1), axis=1)
        rows = np.eye(degree + 1)[0] + growth @ ck[:, :, 0, 0]
    else:
        try:
            rows = predictor_operators(ck, taus)[:, 0]
        except PredictorError:  # a singular predictor (e.g. tau r = 1) is unstable
            rows = np.full((taus.size, degree + 1), np.nan)

    # (s_hat, a_hat, q_left, q_right) as rows over the coefficients: the
    # time-averaged predictor rows through the interior basis, under the xi
    # weights and the volume term's x-derivative weights, and through the traces.
    n_tau = rules.tau_rule.n
    rows_int = rules.tau_rule.weights @ rows[:n_tau]
    rows_tr = rules.trace_rule.weights @ rows[n_tau:]
    x_weights = np.stack([rules.xi_rule.weights, rules.xi_rule.weights @ rules.diff_matrix])
    functionals = np.concatenate([
        np.einsum("j,vx,jxl->vl", rows_int, x_weights, rules.basis_interior),
        np.einsum("j,jel->el", rows_tr, rules.basis_trace),
    ])                                                        # (4, M+1)
    # The four functionals' weights, from the flux difference, source and volume
    # term, times the phases: the (4, 2M+1, n_theta) kernel, read as real pairs.
    ph = np.exp(1j * theta)
    d = 0.25 * (query.alpha * c * c + 1.0 / query.alpha)
    weights = np.empty((4, theta.size), dtype=complex)      # of shat, ahat, qL, qR
    weights[0], weights[1] = r, -c
    weights[2] = (d - 0.5 * c) * (ph - 1.0) - c
    weights[3] = c - (0.5 * c + d) * (1.0 - 1.0 / ph)
    kernel = weights[:, None] * np.exp(1j * np.outer(np.arange(-degree, degree + 1), theta))
    modes = (functionals @ blends).reshape(len(blends), -1)           # (S, 4 (2M+1))
    amp = (modes @ kernel.view(float).reshape(modes.shape[1], 2 * theta.size)).view(complex)
    amp += 1.0
    return amp[0] if squeeze else amp


def max_amplitude(
    c: float, r: float, query: StabilityQuery, blends: np.ndarray | None = None
) -> np.ndarray:
    """Largest |A| over the angle grid; non-finite amplitudes count as inf."""
    parts = amplitude(theta_grid(query.n_theta), c, r, query, blends).view(float)
    with np.errstate(over="ignore"):  # |A|^2 is NaN or inf if A is, inf past |A| ~ 1e154
        parts *= parts
        largest = (parts[..., ::2] + parts[..., 1::2]).max(axis=-1)
    return np.where(np.isnan(largest), np.inf, np.sqrt(largest))


def _scenario_blends(query: StabilityQuery, rng: np.random.Generator) -> np.ndarray:
    """Window-to-coefficient operators for ``n_scenarios`` random weight draws.

    "weno-law" evaluates the production weight formula on smoothness
    indicators drawn from [1, 2) - mutually comparable, as they are for any
    mode the grid resolves - so the central preference of the weight law is
    retained. "uniform" normalizes unconstrained draws from [0, 1)^3 instead.
    """
    degree = query.order - 1
    draws = rng.random((query.n_scenarios, 3))
    if query.weight_model == "weno-law":
        weights = nonlinear_weights(1.0 + draws)
    else:
        weights = draws / draws.sum(axis=1, keepdims=True)
    return blend_matrix(degree, weights)


def stability_fraction(
    c: float, r: float, query: StabilityQuery, rng: np.random.Generator | None = None
) -> float:
    """Fraction of random weight scenarios stable at this (c, r) point."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([query.seed]))
    blends = _scenario_blends(query, rng)
    amps = max_amplitude(c, r, query, blends)
    return float(np.mean(amps <= 1.0 + _STABLE_TOL))


def stability_map(
    query: StabilityQuery,
    c_values: np.ndarray | None = None,
    r_values: np.ndarray | None = None,
) -> np.ndarray:
    """Stable-scenario fraction on a (c, r) raster, shape (len(c), len(r)).

    Every raster point draws its scenarios from its own seed substream, so the
    map is reproducible point by point regardless of evaluation order.
    """
    c_values = DEFAULT_C_GRID if c_values is None else np.asarray(c_values, dtype=float)
    r_values = DEFAULT_R_GRID if r_values is None else np.asarray(r_values, dtype=float)
    out = np.empty((c_values.size, r_values.size))
    for i, c in enumerate(c_values):
        for j, r in enumerate(r_values):
            rng = np.random.default_rng(np.random.SeedSequence([query.seed, i, j]))
            out[i, j] = stability_fraction(float(c), float(r), query, rng)
    return out


def write_raster_csv(
    fh, c_values: np.ndarray, r_values: np.ndarray, fractions: np.ndarray
) -> None:
    """Write a stability raster as c,r,stable_fraction rows to a text stream."""
    writer = csv.writer(fh)
    writer.writerow(["c", "r", "stable_fraction"])
    for i, c in enumerate(c_values):
        for j, r in enumerate(r_values):
            writer.writerow([f"{c:.6g}", f"{r:.6g}", f"{fractions[i, j]:.6g}"])
