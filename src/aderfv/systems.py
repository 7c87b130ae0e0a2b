"""Descriptors for the hyperbolic balance-law systems solved by the package.

Each balance law dQ/dt + A(Q) dQ/dx = S(Q) is written down once, in a generic
form that uses only ring operations: a conservative law gives its flux F(Q)
(so A = dF/dQ), a non-conservative law gives the rows of A(Q), and either may
add algebraic source terms S(Q). The Cauchy-Kowalewskaya engine evaluates
these forms over truncated power series; the vectorised matrix, its product
with a vector, flux, source and source Jacobian used by the predictor and the
fluxes are derived from the same forms on ndarray components. One routine
takes every derivative of the forms, along a direction v: by complex-step
differentiation at a real state, and at a complex one by a program of
first-order truncated series, recorded and compiled once per form and dtype
as the CK jets are, so ``matrix``, ``matrix_product`` and ``source_jacobian``
are analytic in Q and a complex step can pass through them. ``matrix_product``
takes A(Q) v as one directional derivative, without forming A; ``matrix`` is
that product along the m unit vectors. A law whose recorded forms show it
linear gets its closed-form CK table from the same forms, from which the
predictor's linear operators are built. The CFL wave speed is the spectral
radius of the derived A(Q). Initial data, admissibility and the exact
solutions of the manufactured tests are given per system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .series import BLOCK, SeriesTape, TruncatedSeries, Workspace, borrowed_workspace, lane_width

__all__ = [
    "SystemDescriptor",
    "scalar_advection_reaction",
    "leveque_yee",
    "linear_system",
    "noncons_system",
    "euler_ideal_gas",
    "primitive_to_conserved",
    "conserved_to_primitive",
    "linear_ck_matrices",
    "complex_step_jacobian",
]

TWO_PI = 2.0 * math.pi

# Complex-step size: a power of two near 1e-100, so scaling by it is exact
# and the O(h^2) truncation error lies far below rounding.
_COMPLEX_STEP = 2.0**-332

# Highest CK order with closed-form matrices. The predictor needs orders up to
# the largest reconstruction degree, 4.
_CK_ORDER_MAX = 5


def _components(q: np.ndarray) -> list:
    return [q[..., i] for i in range(q.shape[-1])]


def _stack_terms(terms: Sequence, batch: tuple) -> np.ndarray:
    """Array batch + (len(terms),) from scalar-likes (constants or batch arrays)."""
    out = np.empty(batch + (len(terms),), dtype=np.result_type(float, *terms))
    for i, term in enumerate(terms):
        out[..., i] = term
    return out


def _step_states(q: np.ndarray) -> np.ndarray:
    """The m states q + i h e_j as an array (i, j) + batch: component i of
    direction j, so each component qc[i] is one contiguous (j,) + batch block."""
    m, nb = q.shape[-1], q.ndim - 1
    qc = np.zeros((m, m) + q.shape[:-1], dtype=complex)
    qc.real = q.transpose((nb,) + tuple(range(nb)))[:, None]
    for j in range(m):
        qc.imag[j, j] = _COMPLEX_STEP
    return qc


def complex_step_jacobian(
    f: Callable[[np.ndarray], np.ndarray], q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value f(q) and Jacobian df/dQ at real states q (..., m).

    ``f`` gets the m states q + i h e_j in one array of shape (m,) + q.shape,
    direction j leading, and returns their values (m,) + batch + (n,). Then
    Re f is f(q) and column j of the Jacobian (..., n, m) is Im f / h. For
    forms built from ring operations this is exact to rounding, with no
    cancellation (Squire & Trapp, SIAM Rev. 40, 1998). The states are stored
    component-major, so each component q[..., i] is one contiguous block.
    """
    nb = q.ndim - 1
    # Moves the leading axis last: (i, j) + batch -> (j,) + batch + (i,), and
    # (j,) + batch + (n,) -> batch + (n, j).
    last = tuple(range(1, nb + 2)) + (0,)
    value = f(_step_states(q).transpose(last))
    return value.real[0], value.imag.transpose(last) / _COMPLEX_STEP


def _terms_product(terms: Callable[[Sequence], list], q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Derivative of generic ``terms`` at states q in direction v, (..., m).

    At real q and v, Im term_i(q + i h v) / h; otherwise the x-coefficient of
    term_i on the first-order series q_i + x v_i, so a complex step in q or v
    passes through. That series program is recorded once per ``terms`` and
    dtype on a kept tape (``series.SeriesTape``) and run over the points in
    blocks, as the CK jets are. q and v broadcast: a Jacobian (..., m, m) is
    the derivative along the m unit vectors, q[..., None, :] against I, with
    direction j in axis -2 (Griewank & Walther, Evaluating Derivatives, 2008,
    ch. 3).
    """
    m, shape, dtype = q.shape[-1], np.broadcast(q, v).shape, np.result_type(q, v)
    if dtype.kind != "c":
        qc = np.empty(shape, dtype=complex)
        qc.real = q
        np.multiply(v, _COMPLEX_STEP, out=qc.imag)
        out = np.empty(shape)
        for i, term in enumerate(terms([qc[..., i] for i in range(m)])):
            np.divide(term.imag, _COMPLEX_STEP, out=out[..., i])
        return out
    # q and v at every point, (2, points, m).
    qv = np.empty((2,) + shape, dtype=dtype)
    qv[0], qv[1] = q, v
    q, v = qv.reshape(2, -1, m)
    out = np.zeros(q.shape, dtype=dtype)

    def record(tape: SeriesTape) -> list:
        # The slot of each term's series; a constant term's derivative is 0.
        results = terms([tape.leaf(2, 1, dtype) for _ in range(m)])
        on_tape = lambda t: isinstance(t, TruncatedSeries) and t._tape is tape  # noqa: E731
        return [tape.series.index(t) if on_tape(t) else None for t in results]

    with borrowed_workspace() as workspace:
        tape, slots = workspace.tape((terms, m, dtype), record)
        for start in range(0, len(q), BLOCK):
            stop = min(start + BLOCK, len(q))
            count = stop - start
            program, arrays = workspace.program(tape, lane_width(count))
            # Lanes past ``count`` repeat point 0.
            for i, leaf in enumerate(arrays[:m]):
                leaf[0, 0, :count], leaf[1, 0, :count] = q[start:stop, i], v[start:stop, i]
                leaf[:, 0, count:] = leaf[:, 0, :1]
            for f, args in program:
                f(*args)
            for i, slot in enumerate(slots):
                if slot is not None:
                    out[start:stop, i] = arrays[slot][1, 0, :count]
    return out.reshape(shape)


@cache
def _identity(m: int) -> np.ndarray:
    """The read-only m x m identity: the unit directions of a Jacobian, built once per m."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _admit_all(q: np.ndarray) -> np.ndarray:
    """The admissibility test of a law that accepts every state: all True, allocated once."""
    mask = np.empty(np.shape(q)[:-1], dtype=bool)
    mask.fill(True)
    return mask


def _state_array(q) -> np.ndarray:
    """States as a float array, or as a complex one if they are complex."""
    q = np.asarray(q)
    return q if q.dtype.char in "dD" else q.astype(np.result_type(q, float), copy=False)


@dataclass(frozen=True)
class SystemDescriptor:
    """One balance law dQ/dt + A(Q) dQ/dx = S(Q), written once.

    Exactly one of ``flux_terms`` (conservative form, A = dF/dQ) and
    ``matrix_rows`` (non-conservative form) is given; ``source_terms`` is
    optional. These generic callables take a sequence of m scalar-like
    components (floats, arrays or truncated series) and return lists of
    scalar-likes. The vectorised ``flux``, ``matrix``, ``matrix_product``,
    ``source`` and ``source_jacobian`` map state arrays (..., m) and are
    derived from them; every derivative among them (a flux law's ``matrix``
    and ``matrix_product``, ``source_jacobian``) is the one directional
    derivative ``_terms_product``, and at complex states all but ``source``
    are analytic. ``matrix_product(q, v)`` is A(Q) v without forming A, for
    callers that only apply A to vectors (the predictor's derivative chain,
    the volume term); ``matrix`` is that product along the unit vectors.
    ``max_wave_speed`` is the spectral radius of ``matrix``. Linearity is
    derived from the forms, not declared: a law with ``constant_coefficients``
    takes its wave speed once, at Q = 0, and its closed CK table from
    ``closed_ck``. ``admissible`` maps states (..., m) to a mask (...,) of
    the states the law accepts, by default every state.
    """

    name: str
    m: int
    initial_condition: Callable[[np.ndarray], np.ndarray]
    flux_terms: Callable[[Sequence], list] | None = None
    matrix_rows: Callable[[Sequence], list] | None = None
    source_terms: Callable[[Sequence], list] | None = None
    exact_solution: Callable[[np.ndarray, float], np.ndarray] | None = None
    admissible: Callable[[np.ndarray], np.ndarray] = _admit_all

    def __post_init__(self) -> None:
        if (self.flux_terms is None) == (self.matrix_rows is None):
            raise ValueError(
                f"system {self.name!r} needs exactly one of flux_terms and matrix_rows"
            )
        # Linearity is derived as the law is built, so no step records its forms.
        self.constant_coefficients  # noqa: B018

    @property
    def source_free(self) -> bool:
        return self.source_terms is None

    @property
    def flux_form(self) -> bool:
        """A flux law without a source: the update takes it in flux form, from
        the predictor traces alone."""
        return self.flux_terms is not None and self.source_free

    @cached_property
    def constant_coefficients(self) -> bool:
        """A linear law: A and dS/dQ independent of Q and S(0) = 0. Derived once from
        the forms recorded on a series tape at first order: every node affine
        (``SeriesTape.affine``), no ``matrix_rows`` entry a series, S(0) exactly 0."""
        tape = SeriesTape(Workspace())
        q = [tape.leaf(2, 1, float) for _ in range(self.m)]
        for terms in filter(None, (self.flux_terms, self.source_terms)):
            terms(q)
        rows = [a for row in self.matrix_rows(q) for a in row] if self.matrix_rows else []
        return (tape.affine and not any(isinstance(a, TruncatedSeries) for a in rows)
                and not self.source(np.zeros(self.m)).any())

    def flux(self, q: np.ndarray) -> np.ndarray:
        """Flux F(Q), shape (..., m), of a law given by ``flux_terms``."""
        if self.flux_terms is None:
            raise ValueError(f"system {self.name!r} has no flux")
        q = np.asarray(q, dtype=float)
        return _stack_terms(self.flux_terms(_components(q)), q.shape[:-1])

    def matrix(self, q: np.ndarray) -> np.ndarray:
        """A(Q), shape (..., m, m): ``matrix_product`` along the unit vectors; Q may be complex."""
        return self.matrix_product(np.asarray(q)[..., None, :], _identity(self.m)).swapaxes(-1, -2)

    def matrix_product(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A(Q) v without forming A, shape (..., m); Q and v broadcast and may be complex.

        A flux law takes the derivative of F at Q in the one direction v
        (``_terms_product``), and a ``matrix_rows`` law sums its rows against v.
        """
        q, v = _state_array(q), _state_array(v)
        if self.flux_terms is not None:
            return _terms_product(self.flux_terms, q, v)
        rows, batch = self.matrix_rows(_components(q)), np.broadcast(q, v).shape[:-1]
        return _stack_terms([sum(a * v[..., j] for j, a in enumerate(row)) for row in rows], batch)

    def source(self, q: np.ndarray) -> np.ndarray:
        """Algebraic source S(Q), shape (..., m)."""
        q = np.asarray(q, dtype=float)
        if self.source_terms is None:
            return np.zeros_like(q)
        return _stack_terms(self.source_terms(_components(q)), q.shape[:-1])

    def source_jacobian(self, q: np.ndarray) -> np.ndarray:
        """Source Jacobian dS/dQ, shape (..., m, m); Q may be complex."""
        q = _state_array(q)
        if self.source_terms is None:
            return np.zeros(q.shape + (self.m,), dtype=q.dtype)
        return _terms_product(self.source_terms, q[..., None, :], _identity(self.m)).swapaxes(-1, -2)

    def max_wave_speed(self, states: np.ndarray) -> float:
        """Largest |eigenvalue| of A(Q) over ``states`` (..., m), NaN for any fault that
        leaves A not finite; a constant-coefficient law's is taken once, at Q = 0."""
        if self.constant_coefficients:
            return self._constant_wave_speed
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = self.matrix(states)
        return _spectral_radius(a)

    @cached_property
    def _constant_wave_speed(self) -> float:
        return _spectral_radius(self._constant_matrices[0])

    @cached_property
    def _constant_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """A and dS/dQ at Q = 0, derived once and read-only. The complex step of a linear
        form does not depend on the state, so for a constant-coefficient law these
        are the derived values at every state, bit for bit."""
        mats = self.matrix(np.zeros(self.m)), self.source_jacobian(np.zeros(self.m))
        for mat in mats:
            mat.flags.writeable = False
        return mats

    @cached_property
    def _closed_ck_table(self) -> np.ndarray:
        mats = linear_ck_matrices(*self._constant_matrices, _CK_ORDER_MAX)
        mats.flags.writeable = False
        return mats

    def closed_ck(self, order: int) -> np.ndarray:
        """Read-only CK matrices C[k, j], k < order, j <= order (see linear_ck_matrices).

        Derived once per descriptor from A and dS/dQ at Q = 0; only defined
        for a system with ``constant_coefficients``.
        """
        if not self.constant_coefficients:
            raise ValueError(f"system {self.name!r} does not have constant coefficients")
        if not 0 <= order <= _CK_ORDER_MAX:
            raise ValueError(f"closed-form CK order must be in 0..{_CK_ORDER_MAX}, got {order}")
        return self._closed_ck_table[:order, : order + 1]


def _spectral_radius(a: np.ndarray) -> float:
    """Largest |eigenvalue| over a (..., m, m); NaN, not LAPACK's error, if a is not finite.

    A 1 x 1 matrix is its own eigenvalue, so at m = 1 LAPACK is not called.
    """
    if not np.isfinite(a).all():
        return math.nan
    eig = a if a.shape[-1] == 1 else np.linalg.eigvals(a)
    return float(np.max(np.abs(eig)))


def linear_ck_matrices(a: np.typing.ArrayLike, b: np.typing.ArrayLike, order: int) -> np.ndarray:
    """Coefficient matrices C[k, j] with d_t^{k+1} Q = sum_j C[k, j] @ (d_x^j Q).

    Valid for constant-coefficient linear systems dQ/dt = B Q - A dQ/dx: apply
    the operator (B - A d_x) repeatedly, so C'_{k+1,j} = C'_{k,j} B - C'_{k,j-1} A
    with C'_{0,0} = I. Rows are returned for k = 1..order, shape
    (order, order + 1, m, m), so C[0, 0] = B and C[0, 1] = -A.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m = a.shape[0]
    prev = np.zeros((order + 1, m, m))
    prev[0] = np.eye(m)
    rows = []
    for _ in range(order):
        nxt = prev @ b
        nxt[1:] -= prev[:-1] @ a
        rows.append(nxt)
        prev = nxt
    return np.array(rows).reshape(order, order + 1, m, m)


# ---------------------------------------------------------------------------
# Scalar advection-reaction: q_t + lam q_x = beta q
# ---------------------------------------------------------------------------

def scalar_advection_reaction(lam: float = 1.0, beta: float = -1.0) -> SystemDescriptor:
    lam = float(lam)
    beta = float(beta)

    def initial_condition(x):
        x = np.asarray(x)
        return np.sin(TWO_PI * x)[..., None]

    def exact_solution(x, t):
        x = np.asarray(x)
        return (math.exp(beta * t) * np.sin(TWO_PI * (x - lam * t)))[..., None]

    return SystemDescriptor(
        name="scalar-advection-reaction",
        m=1,
        initial_condition=initial_condition,
        flux_terms=lambda q: [lam * q[0]],
        source_terms=lambda q: [beta * q[0]],
        exact_solution=exact_solution,
    )


# ---------------------------------------------------------------------------
# Stiff bistable reaction with unit advection:
#   q_t + q_x = beta q (q - 1) (q - 1/2),   beta << 0
# q = 0 and q = 1 are the stable states; a step profile propagates at speed 1.
# ---------------------------------------------------------------------------

def leveque_yee(beta: float = -1000.0, step_position: float = 0.3) -> SystemDescriptor:
    beta = float(beta)
    x0 = float(step_position)

    def initial_condition(x):
        x = np.asarray(x)
        return np.where(x < x0, 1.0, 0.0)[..., None]

    return SystemDescriptor(
        name="stiff-bistable-advection",
        m=1,
        initial_condition=initial_condition,
        flux_terms=lambda q: [q[0]],
        source_terms=lambda q: [beta * q[0] * (q[0] - 1.0) * (q[0] - 0.5)],
    )


# ---------------------------------------------------------------------------
# Constant-coefficient 2x2 linear system with relaxation source:
#   Q_t + [[0, lam], [lam, 0]] Q_x = beta Q
# ---------------------------------------------------------------------------

def linear_system(lam: float = 1.0, beta: float = -1.0) -> SystemDescriptor:
    lam = float(lam)
    beta = float(beta)

    def initial_condition(x):
        x = np.asarray(x)
        return np.stack([np.sin(TWO_PI * x), np.cos(TWO_PI * x)], axis=-1)

    def exact_solution(x, t):
        x = np.asarray(x)
        phi = np.sin(TWO_PI * (x - lam * t)) + np.cos(TWO_PI * (x - lam * t))
        psi = np.sin(TWO_PI * (x + lam * t)) - np.cos(TWO_PI * (x + lam * t))
        amp = 0.5 * math.exp(beta * t)
        return np.stack([amp * (phi + psi), amp * (phi - psi)], axis=-1)

    return SystemDescriptor(
        name="linear-2x2",
        m=2,
        initial_condition=initial_condition,
        flux_terms=lambda q: [lam * q[1], lam * q[0]],
        source_terms=lambda q: [beta * q[0], beta * q[1]],
        exact_solution=exact_solution,
    )


# ---------------------------------------------------------------------------
# Genuinely non-conservative 2x2 system:
#   Q = (u, v),  A(Q) = [[lam, u], [1, lam]],
#   S(Q) = (2 pi u (u - 1), -2 pi (v - 1)),
# with the travelling-wave exact solution
#   u = 1 + eps cos(2 pi (x - lam t)),  v = 1 + eps sin(2 pi (x - lam t)).
# Its wave speeds lam +- sqrt(u) are real only for u > 0.
# ---------------------------------------------------------------------------

def noncons_system(lam: float = 1.0, eps: float = 0.02) -> SystemDescriptor:
    lam = float(lam)
    eps = float(eps)

    def initial_condition(x):
        x = np.asarray(x)
        return np.stack(
            [1.0 + eps * np.cos(TWO_PI * x), 1.0 + eps * np.sin(TWO_PI * x)], axis=-1
        )

    def exact_solution(x, t):
        x = np.asarray(x)
        phase = TWO_PI * (x - lam * t)
        return np.stack([1.0 + eps * np.cos(phase), 1.0 + eps * np.sin(phase)], axis=-1)

    def source_terms(q):
        return [TWO_PI * q[0] * (q[0] - 1.0), -TWO_PI * (q[1] - 1.0)]

    def admissible(q):
        return np.asarray(q)[..., 0] > 0.0

    return SystemDescriptor(
        name="noncons-2x2",
        m=2,
        initial_condition=initial_condition,
        matrix_rows=lambda q: [[lam, q[0]], [1.0, lam]],
        source_terms=source_terms,
        exact_solution=exact_solution,
        admissible=admissible,
    )


# ---------------------------------------------------------------------------
# 1-D compressible Euler equations, ideal gas, conserved variables
# Q = (rho, rho u, E) with p = (gamma - 1)(E - rho u^2 / 2).
# ---------------------------------------------------------------------------

def primitive_to_conserved(rho, u, p, gamma: float = 1.4) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    energy = p / (gamma - 1.0) + 0.5 * rho * u**2
    return np.stack(np.broadcast_arrays(rho, rho * u, energy), axis=-1)


def conserved_to_primitive(q: np.ndarray, gamma: float = 1.4) -> np.ndarray:
    q = np.asarray(q)
    rho = q[..., 0]
    u = q[..., 1] / rho
    p = (gamma - 1.0) * (q[..., 2] - 0.5 * rho * u**2)
    return np.stack([rho, u, p], axis=-1)


def euler_ideal_gas(gamma: float = 1.4) -> SystemDescriptor:
    gamma = float(gamma)
    gm1 = gamma - 1.0

    def initial_condition(x):
        x = np.asarray(x)
        return primitive_to_conserved(1.0 + 0.2 * np.sin(TWO_PI * x), 1.0, 2.0, gamma)

    def exact_solution(x, t):
        # Advected density wave in a uniform (u, p) = (1, 2) background.
        x = np.asarray(x)
        return primitive_to_conserved(1.0 + 0.2 * np.sin(TWO_PI * (x - t)), 1.0, 2.0, gamma)

    def flux_terms(q):
        u = q[1] / q[0]
        momentum = q[1] * u
        p = gm1 * (q[2] - 0.5 * momentum)
        return [q[1], momentum + p, u * (q[2] + p)]

    def admissible(q):
        # At rho = 0 the velocity is not finite, so neither is the pressure:
        # such a state fails the test, with no floating-point warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            prim = conserved_to_primitive(np.asarray(q), gamma)
        return (prim[..., 0] > 0.0) & (prim[..., 2] > 0.0)

    return SystemDescriptor(
        name="euler-ideal-gas",
        m=3,
        initial_condition=initial_condition,
        flux_terms=flux_terms,
        exact_solution=exact_solution,
        admissible=admissible,
    )
