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
phases as one (4(2M+1), n_theta) kernel K, and A = 1 + (F blend) K. A blend
is the weighted sum sum_s w_s C_s of the three candidate stencils' operators,
so A - 1 is linear in the stencil weights w: each point takes three kernel
rows B_s = (F C_s) K, and all modes of all its scenarios come from the one
product A = 1 + W B, with one row of weights W per scenario. That is about a
ninth of the work of forming every scenario's blend and its modes.

Because the nonlinear stencil weights depend on the data, each map point is
judged over an ensemble of random weight scenarios; the reported number is
the fraction of scenarios whose amplification stays below one for every
sampled angle.

A raster is evaluated in one batched pass per block of points, as many as
keep the pass's temporaries within a fixed byte budget (32 points at the
default sampling). Each point draws its scenarios from its own seed
substream, the closed CK tables of the block come from one
``linear_ck_matrices`` call over a leading point axis,
``predictor_operators`` solves the whole stack, and the functionals, kernels,
products and largest moduli are taken for the block at once. What depends
only on the order and the angle count (the angle grid, e^{+-i theta}, the
window phases, the node times and the x-weights) is built once and kept
read-only. Every product still runs on one point's operands, in the order
and with the shapes a point alone gives it, so a point's amplitudes, and its
fraction, are those of its own call bit for bit: ``stability_fraction`` and
a scalar ``amplitude`` are the same pass at one point.

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
from functools import lru_cache

import numpy as np

from .grid import check_count
from .predictor import predictor_operators, space_time_rules
from .systems import linear_ck_matrices
from .weno import _candidate_stack, nonlinear_weights

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
# The weights of the central stencil alone, amplitude's default.
_CENTRAL = np.array([0.0, 1.0, 0.0])
_CENTRAL.flags.writeable = False
# Bytes of temporaries one batched pass of ``stability_map`` may take: 32
# points at the default sampling (see ``_block_points``).
_BLOCK_BYTES = 12_800_000


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


@lru_cache(maxsize=None)
def theta_grid(n: int) -> np.ndarray:
    """Equispaced phase angles covering [0, 2 pi), including pi for even n.

    Read-only, built once per n.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    theta.flags.writeable = False
    return theta


def blend_matrix(degree: int, weights) -> np.ndarray:
    """Window-to-coefficients operators of fixed (left, central, right) blends.

    ``weights`` has shape (..., 3); the result has shape (..., M+1, 2M+1).
    """
    w = np.asarray(weights, dtype=float)
    return np.einsum("...s,slw->...lw", w, _candidate_stack(degree))


@dataclass(frozen=True)
class _NodeTables:
    """What a point's functionals need of its order alone, read-only."""

    taus: np.ndarray           # tau-rule then trace-rule times, (T,)
    growth: np.ndarray         # tau^k / k!, k = 1..M, at every time: (T, M)
    tau_weights: np.ndarray    # (n_tau,)
    trace_weights: np.ndarray  # (T - n_tau,)
    x_weights: np.ndarray      # xi weights and the x-derivative's, (n_xi, 2)
    basis_interior: np.ndarray  # (M+1, n_xi, 1, M+1)
    basis_trace: np.ndarray     # (M+1, 2, M+1)


@lru_cache(maxsize=None)
def _node_tables(order: int) -> _NodeTables:
    rules = space_time_rules(order)
    taus = np.concatenate([rules.tau_rule.nodes, rules.trace_rule.nodes])
    xi_weights = rules.xi_rule.weights
    tables = _NodeTables(
        taus=taus,
        growth=np.cumprod(taus[:, None] / np.arange(1, order), axis=1),
        tau_weights=rules.tau_rule.weights,
        trace_weights=rules.trace_rule.weights,
        x_weights=np.stack([xi_weights, xi_weights @ rules.diff_matrix], axis=1),
        basis_interior=rules.basis_interior[:, :, None],
        basis_trace=rules.basis_trace,
    )
    for value in vars(tables).values():
        value.flags.writeable = False
    return tables


def _phase_tables(degree: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{i theta} - 1, 1 - e^{-i theta} and the window phases e^{i k theta},
    k = -M..M, shape (2M+1, n_theta)."""
    ph = np.exp(1j * theta)
    phases = np.exp(1j * np.outer(np.arange(-degree, degree + 1), theta))
    return ph - 1.0, 1.0 - 1.0 / ph, phases


@lru_cache(maxsize=None)
def _grid_phase_tables(degree: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_phase_tables`` of ``theta_grid(n)``, read-only, built once per (M, n)."""
    tables = _phase_tables(degree, theta_grid(n))
    for table in tables:
        table.flags.writeable = False
    return tables


def _functionals(c: np.ndarray, r: np.ndarray, query: StabilityQuery) -> np.ndarray:
    """(s_hat, a_hat, q_left, q_right) as rows over the coefficients, (P, 4, M+1).

    The time-averaged predictor rows of each point go through the interior
    basis, under the xi weights and the volume term's x-derivative weights,
    and through the traces. Each sum adds its terms (rows_j x_vx) B_jxl, or
    rows_j B_jel, to 0 one at a time, j outer and x inner: the order in
    which ``np.einsum`` sums one point's terms, which keeps the recorded
    rasters, and one that the points beside it do not change.
    """
    degree = query.order - 1
    nodes = _node_tables(query.order)
    # The solver's predictor on q_t + c q_x = r q at dx = dt = 1, as rows
    # q(tau) = P(tau) w, from the model law's closed CK table, with
    # C[k-1, j] = d(d_t^k q)/d(d_x^j q). Explicit rows are
    # e_0 + sum_k tau^k / k! C[k-1].
    ck = linear_ck_matrices(c[:, None, None], r[:, None, None], degree)  # (P, M, M+1, 1, 1)
    if query.predictor == "explicit":
        rows = nodes.growth @ ck[..., 0, 0]
        rows[..., 0] += 1.0
    else:
        rows = predictor_operators(ck, nodes.taus)[:, :, 0]
    n_tau = nodes.tau_weights.size
    rows_int = nodes.tau_weights @ rows[:, :n_tau]                      # (P, M+1)
    rows_tr = nodes.trace_weights @ rows[:, n_tau:]
    interior = (rows_int[:, :, None, None] * nodes.x_weights)[..., None] * nodes.basis_interior
    traces = rows_tr[:, :, None, None] * nodes.basis_trace
    out = np.empty((c.size, 4, degree + 1))
    np.add.reduce(interior.reshape(c.size, -1, 2, degree + 1), axis=1, out=out[:, :2], initial=0.0)
    np.add.reduce(traces, axis=1, out=out[:, 2:], initial=0.0)
    return out


def _checked_points(name: str, values, scalar: bool = False) -> np.ndarray:
    """``values`` as a float array; a ValueError names them unless they are
    finite and 1-D, or a scalar where ``scalar`` allows one."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 and not (scalar and values.ndim == 0):
        want = "a scalar or 1-D" if scalar else "1-D"
        raise ValueError(f"{name} must be {want}, got shape {values.shape}: {_shown(values)}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {_shown(values[~np.isfinite(values)])}")
    return values


def _shown(values: np.ndarray) -> str:
    return np.array2string(values, separator=", ", threshold=8)


def amplitude(
    theta: np.ndarray,
    c,
    r,
    query: StabilityQuery,
    weights: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Amplification factor of one step for each angle and weight scenario.

    ``c`` and ``r`` are one (c, r) point as finite scalars, or P points as
    finite 1-D arrays of one shape. ``weights`` holds the (left, central,
    right) stencil weights of the reconstruction, shape (P S, 3), the S
    scenarios of each point in turn; by default the central stencil alone
    at every point. Returns a complex array of shape (P, S, n_theta),
    without the P axis for scalar c and r and without the S axis when
    weights is None; it is written into ``out``, a contiguous complex
    (P, S, n_theta) array, if one is given. Each point's amplitudes are
    those of its own call, bit for bit: every product runs on one point at a
    time.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    c, r = _checked_points("c", c, scalar=True), _checked_points("r", r, scalar=True)
    if c.shape != r.shape:
        raise ValueError(f"c and r must have one shape, got {c.shape} and {r.shape}")
    shape = c.shape
    c, r = c.reshape(-1), r.reshape(-1)
    degree = query.order - 1
    squeeze = weights is None
    if weights is None:
        weights = np.broadcast_to(_CENTRAL, (c.size, 3))
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != 3 or weights.shape[0] % max(c.size, 1):
        raise ValueError(f"weights must have shape (P S, 3) for P = {c.size} points, "
                         f"got {weights.shape}")
    weights = weights.reshape(c.size, -1, 3)

    # The four functionals' factors, from the flux difference, source and
    # volume term, times the phases: the (4, 2M+1, n_theta) kernel of each
    # point, read as real pairs.
    # The sampling grid's tables are built once; other angles build theirs.
    if theta is theta_grid(theta.size):
        ph_less_1, one_less_conj, phases = _grid_phase_tables(degree, theta.size)
    else:
        ph_less_1, one_less_conj, phases = _phase_tables(degree, theta)
    d = 0.25 * (query.alpha * c * c + 1.0 / query.alpha)
    factors = np.empty((c.size, 4, theta.size), dtype=complex)  # of shat, ahat, qL, qR
    factors[:, 0], factors[:, 1] = r[:, None], -c[:, None]
    factors[:, 2] = (d - 0.5 * c)[:, None] * ph_less_1 - c[:, None]
    factors[:, 3] = c[:, None] - (0.5 * c + d)[:, None] * one_less_conj
    kernel = (factors[:, :, None] * phases).view(float).reshape(c.size, -1, 2 * theta.size)
    # A - 1 is linear in the stencil weights: the three candidates' modes
    # (F C_s) K of each point, and every scenario's as their weighted sum.
    modes = _functionals(c, r, query)[:, None] @ _candidate_stack(degree)  # (P, 3, 4, 2M+1)
    kernels = modes.reshape(c.size, 3, -1) @ kernel                        # (P, 3, 2 n_theta)
    product = np.matmul(weights, kernels, out=None if out is None else out.view(float))
    amp = product.view(complex)
    amp += 1.0
    amp = amp.reshape(shape + amp.shape[1:])
    return amp[..., 0, :] if squeeze else amp


def max_amplitude(
    c, r, query: StabilityQuery, weights: np.ndarray | None = None, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Largest |A| over the angle grid; non-finite amplitudes count as inf.

    ``c``, ``r``, ``weights`` and the workspace ``out`` are those of
    ``amplitude``; the angle axis is reduced.
    """
    parts = amplitude(theta_grid(query.n_theta), c, r, query, weights, out=out).view(float)
    with np.errstate(over="ignore"):  # |A|^2 is NaN or inf if A is, inf past |A| ~ 1e154
        parts *= parts
        largest = (parts[..., ::2] + parts[..., 1::2]).max(axis=-1)
    return np.where(np.isnan(largest), np.inf, np.sqrt(largest))


def _scenario_weights(query: StabilityQuery, *rngs: np.random.Generator) -> np.ndarray:
    """Stencil weights of ``n_scenarios`` random draws from each generator in
    turn, shape (len(rngs) n_scenarios, 3).

    "weno-law" evaluates the production weight formula on smoothness
    indicators drawn from [1, 2) - mutually comparable, as they are for any
    mode the grid resolves - so the central preference of the weight law is
    retained. "uniform" normalizes unconstrained draws from [0, 1)^3 instead.
    Both act on each draw alone, so a generator's weights do not depend on
    the others.
    """
    draws = np.concatenate([rng.random((query.n_scenarios, 3)) for rng in rngs])
    if query.weight_model == "weno-law":
        return nonlinear_weights(1.0 + draws)
    return draws / draws.sum(axis=1, keepdims=True)


def _stable_share(amps: np.ndarray) -> np.ndarray:
    """Share of scenarios, over the last axis of ``max_amplitude``'s result, that are stable."""
    return (amps <= 1.0 + _STABLE_TOL).sum(axis=-1) / amps.shape[-1]


def stability_fraction(
    c: float, r: float, query: StabilityQuery, rng: np.random.Generator | None = None
) -> float:
    """Fraction of random weight scenarios stable at this (c, r) point."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([query.seed]))
    return float(_stable_share(max_amplitude(c, r, query, _scenario_weights(query, rng))))


def _block_points(query: StabilityQuery) -> int:
    """Raster points in one batched pass of ``stability_map``, at least one.

    A point takes, per angle, 24 B a scenario for its amplitudes and their
    squared moduli, and 16 B for each of the complex kernel's 4 (2M+1) rows,
    its four factors and its three candidate rows; a block takes as many
    points as fit in ``_BLOCK_BYTES``.
    """
    degree = query.order - 1
    per_point = query.n_theta * (24 * query.n_scenarios + 16 * (4 * (2 * degree + 1) + 7))
    return max(1, _BLOCK_BYTES // per_point)


def stability_map(
    query: StabilityQuery,
    c_values: np.ndarray | None = None,
    r_values: np.ndarray | None = None,
) -> np.ndarray:
    """Stable-scenario fraction on a (c, r) raster, shape (len(c), len(r)).

    Every raster point draws its scenarios from its own seed substream, so the
    map is reproducible point by point regardless of evaluation order. The
    points are taken ``_block_points`` at a time, row by row, in one batched
    pass each; a point's fraction is the one ``stability_fraction`` gives it
    alone. ``c_values`` and ``r_values`` must be finite and 1-D.
    The blocks share one amplitude workspace: a fresh array that large is
    mapped and faulted in page by page, once a block.
    """
    c_values = DEFAULT_C_GRID if c_values is None else _checked_points("c", c_values)
    r_values = DEFAULT_R_GRID if r_values is None else _checked_points("r", r_values)
    out = np.empty((c_values.size, r_values.size))
    flat = out.reshape(-1)
    block = _block_points(query)
    workspace = np.empty((min(block, flat.size), query.n_scenarios, query.n_theta), dtype=complex)
    for start in range(0, flat.size, block):
        points = range(start, min(start + block, flat.size))
        weights = _scenario_weights(query, *(
            np.random.default_rng(np.random.SeedSequence([query.seed, *divmod(k, r_values.size)]))
            for k in points
        ))
        i, j = np.divmod(np.arange(start, points.stop), r_values.size)
        amps = max_amplitude(c_values[i], r_values[j], query, weights, out=workspace[: len(points)])
        flat[start : points.stop] = _stable_share(amps)
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
