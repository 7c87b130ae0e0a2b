"""Time-derivative generation from spatial jets."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from aderfv import ckjet, series
from aderfv.ckjet import ck_time_derivatives
from aderfv.grid import Grid, RunConfig
from aderfv.predictor import predictor_residual, residual_and_jacobian, solve_derivative_chain
from aderfv.series import SeriesTape, TruncatedSeries, Workspace
from aderfv.solver import run
from aderfv.systems import (
    SystemDescriptor,
    euler_ideal_gas,
    leveque_yee,
    linear_ck_matrices,
    linear_system,
    noncons_system,
    scalar_advection_reaction,
)

TWO_PI = 2.0 * np.pi


def _scalar_binomial(lam, beta, d, k):
    """d_t^k for q_t + lam q_x = beta q, direct binomial expansion."""
    return sum(
        math.comb(k, j) * (-lam) ** j * beta ** (k - j) * d[j] for j in range(k + 1)
    )


def test_scalar_series_engine_against_binomial():
    # 1000 random draws of (lam, beta, derivative seeds) across orders.
    rng = np.random.default_rng(100)
    for trial in range(1000):
        order = 1 + trial % 4
        lam = rng.uniform(-3.0, 3.0)
        beta = rng.uniform(-5.0, 5.0)
        d = rng.standard_normal((order + 1, 1))
        system = scalar_advection_reaction(lam=lam, beta=beta)
        got = ck_time_derivatives(system, d, order)
        for k in range(1, order + 1):
            ref = _scalar_binomial(lam, beta, d[:, 0], k)
            assert abs(got[k - 1, 0] - ref) <= 1e-11 * (1.0 + abs(ref))


def test_scalar_closed_form_helper():
    # The scalar law's closed-form CK matrices are linear_ck_matrices of its
    # coefficients, and contracted with the stack they give the binomial
    # expansion of (beta - lam d_x)^k.
    rng = np.random.default_rng(5)
    for _ in range(200):
        lam, beta = rng.uniform(-3.0, 3.0, size=2)
        d = rng.standard_normal((5, 1))
        ck = scalar_advection_reaction(lam, beta).closed_ck(4)
        np.testing.assert_array_equal(ck, linear_ck_matrices(np.array([[lam]]), beta * np.eye(1), 4))
        got = np.einsum("kjab,jb->ka", ck, d)
        for k in range(1, 5):
            ref = _scalar_binomial(lam, beta, d[:, 0], k)
            assert got[k - 1, 0] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def _linear_chain_oracle(a, b, d):
    """Recursively apply q_t = b q - a q_x on the derivative chain."""
    levels = [d.copy()]
    for _ in range(d.shape[0] - 1):
        prev = levels[-1]
        nxt = np.zeros_like(prev)
        for j in range(prev.shape[0] - 1):
            nxt[j] = prev[j] @ b.T - prev[j + 1] @ a.T
        levels.append(nxt)
    return np.stack([levels[k][0] for k in range(1, d.shape[0])])


def test_linear_system_series_against_matrix_recursion():
    system = linear_system(lam=1.3, beta=-0.7)
    a = np.array([[0.0, 1.3], [1.3, 0.0]])
    b = -0.7 * np.eye(2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        order = rng.integers(1, 5)
        d = rng.standard_normal((order + 1, 2))
        got = ck_time_derivatives(system, d, order)
        ref = _linear_chain_oracle(a, b, d)
        np.testing.assert_allclose(got, ref, atol=1e-11 * (1 + np.max(np.abs(ref))))


def test_closed_form_matches_series_route():
    # The law's closed-form CK matrices, with linear_ck_matrices of its
    # coefficients as the oracle, give the series engine's time derivatives.
    system = linear_system()
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    ck = system.closed_ck(4)
    np.testing.assert_array_equal(ck, linear_ck_matrices(a, -np.eye(2), 4))
    rng = np.random.default_rng(8)
    d = rng.standard_normal((5, 2))
    np.testing.assert_allclose(
        np.einsum("kjab,jb->ka", ck, d), ck_time_derivatives(system, d, 4), atol=1e-12
    )


def _phi_derivative(y, j):
    # phi(y) = sin(2 pi y) + cos(2 pi y); derivatives cycle by phase shifts.
    arg = TWO_PI * y + j * np.pi / 2
    return TWO_PI**j * (np.sin(arg) + np.cos(arg))


def _psi_derivative(y, j):
    arg = TWO_PI * y + j * np.pi / 2
    return TWO_PI**j * (np.sin(arg) - np.cos(arg))


def test_jet_exact_on_linear_exact_solution():
    # Seed the jet with analytic spatial derivatives of the exact solution
    # at t = 0 and compare against analytic time derivatives.
    lam, beta = 1.0, -1.0
    system = linear_system(lam=lam, beta=beta)
    order = 4
    for x in (0.11, 0.48, 0.83):
        seeds = np.empty((order + 1, 2))
        for j in range(order + 1):
            seeds[j, 0] = 0.5 * (_phi_derivative(x, j) + _psi_derivative(x, j))
            seeds[j, 1] = 0.5 * (_phi_derivative(x, j) - _psi_derivative(x, j))
        got = ck_time_derivatives(system, seeds, order)
        for k in range(1, order + 1):
            ref = np.zeros(2)
            for i in range(k + 1):
                cmb = math.comb(k, i) * beta ** (k - i)
                ref[0] += 0.5 * cmb * (
                    (-lam) ** i * _phi_derivative(x, i) + lam**i * _psi_derivative(x, i)
                )
                ref[1] += 0.5 * cmb * (
                    (-lam) ** i * _phi_derivative(x, i) - lam**i * _psi_derivative(x, i)
                )
            np.testing.assert_allclose(got[k - 1], ref, atol=1e-9)


def _euler_rows(gamma):
    """Closed-form quasi-linear matrix rows of the ideal-gas Euler equations."""
    gm1 = gamma - 1.0

    def rows(q):
        u = q[1] / q[0]
        e_over_rho = q[2] / q[0]
        u2 = u * u
        return [
            [0.0, 1.0, 0.0],
            [0.5 * (gamma - 3.0) * u2, (3.0 - gamma) * u, gm1],
            [gm1 * u * u2 - gamma * u * e_over_rho,
             gamma * e_over_rho - 1.5 * gm1 * u2,
             gamma * u],
        ]

    return rows


def test_derived_euler_matrix_matches_closed_form_rows():
    # The matrix derived from the flux by complex-step differentiation.
    system = euler_ideal_gas()
    rows = _euler_rows(1.4)
    rng = np.random.default_rng(12)
    for q in np.array([1.0, 0.5, 2.0]) + 0.1 * rng.standard_normal((20, 3)):
        np.testing.assert_allclose(
            system.matrix(q), np.array(rows(q), dtype=float), rtol=0.0, atol=1e-13
        )


def test_conservative_flux_and_quasilinear_paths_agree():
    # For the Euler model, d_x F(q) and A(q) q_x must generate identical jets.
    flux_sys = euler_ideal_gas()
    rows_sys = dataclasses.replace(flux_sys, flux_terms=None, matrix_rows=_euler_rows(1.4))
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = rng.standard_normal((4, 3)) * 0.2
        d[0] = np.array([1.0, 0.5, 2.0]) + 0.1 * rng.standard_normal(3)
        a = ck_time_derivatives(flux_sys, d, 3)
        b = ck_time_derivatives(rows_sys, d, 3)
        np.testing.assert_allclose(a, b, atol=1e-10 * (1 + np.max(np.abs(a))))


def _noncons_stack(rng, batch, order):
    d = rng.standard_normal(batch + (order + 1, 2)) * 0.1
    d[..., 0, :] += 1.0
    return d


def _euler_stack(rng, batch, order):
    d = rng.standard_normal(batch + (order + 1, 3)) * 0.1
    d[..., 0, :] += np.array([1.0, 0.5, 6.0])
    return d


def test_batched_matches_loop():
    # 2-D batches such as (m, B) are what the complex-step Jacobian evaluates.
    cases = [
        (noncons_system, _noncons_stack, (6,)),
        (noncons_system, _noncons_stack, (5, 3)),
        (euler_ideal_gas, _euler_stack, (6,)),
        (euler_ideal_gas, _euler_stack, (7, 4)),
    ]
    rng = np.random.default_rng(21)
    for make, stack, batch in cases:
        system = make()
        d = stack(rng, batch, 3)
        batched = ck_time_derivatives(system, d, 3)
        assert batched.shape == batch + (3, system.m)
        for idx in np.ndindex(*batch):
            np.testing.assert_allclose(
                batched[idx], ck_time_derivatives(system, d[idx], 3),
                atol=1e-13,
            )


def test_euler_advected_wave_jet():
    # In the u = 1, p = 2 background every conserved variable is a function
    # of x - t, so d_t^k Q = (-1)^k d_x^k Q: a nonlinear oracle for the
    # triangularly truncated jet (flux with a division, all mixed terms).
    system = euler_ideal_gas()
    order = 4
    for x in (0.07, 0.31, 0.62, 0.9):
        d = np.empty((order + 1, 3))
        for j in range(order + 1):
            rho_j = 0.2 * TWO_PI**j * np.sin(TWO_PI * x + j * np.pi / 2)
            d[j] = [rho_j, rho_j, 0.5 * rho_j]
        d[0] += [1.0, 1.0, 5.5]  # rho = rho u = 1 + ..., E = p / 0.4 + rho / 2
        got = ck_time_derivatives(system, d, order)
        for k in range(1, order + 1):
            np.testing.assert_allclose(got[k - 1], (-1) ** k * d[k], rtol=0.0, atol=1e-12)


def test_non_finite_stack_comes_back_nan():
    system = noncons_system()
    d = np.zeros((3, 2))
    d[0] = [np.inf, 1.0]
    assert np.isnan(ck_time_derivatives(system, d, 2)).all()


def _inf_slope(d, p):
    d[p, 1, 0] = np.inf


def _zero_density(d, p):
    d[p, 0, 0] = 0.0


@pytest.mark.parametrize("make, stack, spoil, step", [
    (noncons_system, _noncons_stack, _inf_slope, 0.0),
    (noncons_system, _noncons_stack, _inf_slope, 1e-3),
    (euler_ideal_gas, _euler_stack, _zero_density, 0.0),
], ids=["real", "complex", "euler-zero-density"])
def test_failed_points_come_back_nan(monkeypatch, make, stack, spoil, step):
    # A point whose jet fails (``spoil``) is NaN in every row; the other
    # points are bit for bit those of a clean call, whichever block the
    # failures are in: two full blocks and a partial one, at whose lane 0 the
    # padding lanes fail too. A complex stack has imaginary parts of ``step``.
    monkeypatch.setattr(series, "_idle_workspaces", [])
    rng = np.random.default_rng(73)
    system = make()
    d = stack(rng, (2 * series.BLOCK + 5,), 3)
    if step:
        d = d + step * 1j * rng.standard_normal(d.shape)
    ref = ck_time_derivatives(system, d, 3)
    assert np.isfinite(ref).all()
    block = series.BLOCK
    for failing in ([3], [block + 17], [2 * block], [0, block - 1, block, 2 * block + 4]):
        bad = d.copy()
        for p in failing:
            spoil(bad, p)
        got = ck_time_derivatives(system, bad, 3)
        assert got.dtype == ref.dtype
        assert np.isnan(got[failing]).all()
        keep = np.setdiff1d(np.arange(len(d)), failing)
        assert np.array_equal(got[keep], ref[keep])
        assert np.array_equal(ck_time_derivatives(system, d, 3), ref)


def _per_level_jet(system, derivatives, order):
    """Reference jet: the whole law re-evaluated on every time level.

    Level k evaluates S(Q) - A(Q) dQ/dx on the series truncated to x-degrees
    j <= order - k and t-degrees <= k, and keeps only its t-degree-k
    coefficients, on one batch with no blocking and no workspace.
    """
    m, n = system.m, order + 1
    batch = derivatives.shape[:-2]
    c = np.zeros((m, n, n) + batch, dtype=np.result_type(derivatives, float))
    factorials = np.array([math.factorial(j) for j in range(n)])
    seeds = np.moveaxis(derivatives, (-1, -2), (0, 1))
    c[:, :, 0] = seeds / factorials.reshape((n,) + (1,) * len(batch))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for k in range(order):
            nx = order - k + 1
            comps = [TruncatedSeries(c[i, :nx, : k + 1]) for i in range(m)]
            rhs = ckjet._rhs_terms(system, comps)
            for i in range(m):
                c[i, : nx - 1, k + 1] = rhs[i].c[: nx - 1, k] / (k + 1)
    if not np.all(np.isfinite(c)):
        raise FloatingPointError("non-finite space-time jet coefficients")
    g = factorials[1:].reshape((-1,) + (1,) * len(batch)) * c[:, 0, 1:]
    return np.moveaxis(g, (0, 1), (-1, -2))


@pytest.mark.parametrize("make, centre", [
    (euler_ideal_gas, [1.0, 0.5, 6.0]),
    (noncons_system, [1.0, 1.0]),
    (leveque_yee, [0.5]),
])
def test_taylor_jet_equals_per_level_jet_exactly(make, centre):
    # Taylor mode fills one new t-column per level from stored columns, over
    # blocks of workspace storage; every coefficient block is summed in the
    # same order, so the time derivatives are bit-identical. Batch sizes
    # around the block size cover partial, full and one-point blocks.
    system = make()
    block = series.BLOCK
    rng = np.random.default_rng(71)
    for order in range(1, 6):
        for batch in [(1,), (block - 1,), (block,), (block + 1,), (3, 2178)]:
            for complex_stack in (False, True):
                d = 0.1 * rng.standard_normal(batch + (order + 1, system.m))
                d[..., 0, :] += centre
                if complex_stack:
                    d = d + 1e-3j * rng.standard_normal(d.shape)
                got = ck_time_derivatives(system, d, order)
                ref = _per_level_jet(system, d, order)
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert np.array_equal(got, ref), (order, batch, complex_stack)


def _toy_law():
    """A law whose tape holds the shapes the shipped laws miss.

    Component 0 has a constant flux and a Python-scalar source, so its whole
    right-hand side is a constant series off the tape; component 1 has a
    bare leaf for its flux; scalar / series and scalar - series record
    ``__rtruediv__`` and ``__rsub__``.
    """
    return SystemDescriptor(
        name="toy",
        m=3,
        initial_condition=lambda x: np.zeros(np.shape(x) + (3,)),
        flux_terms=lambda q: [2.5, q[0], 1.0 / (2.0 + q[1])],
        source_terms=lambda q: [0.5, 3.0 - q[2], q[0] * (1.5 - q[1])],
    )


def test_toy_law_jet_equals_per_level_jet_exactly():
    system = _toy_law()
    block = series.BLOCK
    rng = np.random.default_rng(76)
    for order in range(1, 6):
        for batch in [(1,), (block - 1,), (block,), (block + 1,)]:
            for complex_stack in (False, True):
                d = 0.1 * rng.standard_normal(batch + (order + 1, system.m))
                d[..., 0, :] += [0.5, 0.3, 0.2]
                if complex_stack:
                    d = d + 1e-3j * rng.standard_normal(d.shape)
                got = ck_time_derivatives(system, d, order)
                ref = _per_level_jet(system, d, order)
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref), (order, batch, complex_stack)


def _node_by_node_derivative(terms, q, v):
    """The x-coefficient of ``terms`` on the series q + x v, each operation
    evaluated as it is called: the reference for the compiled derivatives."""
    m, shape = q.shape[-1], np.broadcast(q, v).shape
    c = np.empty((2, 1) + shape, dtype=np.result_type(q, v))
    c[0, 0], c[1, 0] = q, v
    out = np.zeros(shape, dtype=c.dtype)
    for i, term in enumerate(terms([TruncatedSeries(c[..., i]) for i in range(m)])):
        if isinstance(term, TruncatedSeries):
            out[..., i] = term.c[1, 0]
    return out


_DERIVATIVE_LAWS = [
    (euler_ideal_gas, [1.0, 0.5, 6.0]),
    (noncons_system, [1.0, 1.0]),
    (leveque_yee, [0.5]),
    (linear_system, [0.1, 0.2]),
    (scalar_advection_reaction, [0.3]),
    (_toy_law, [0.5, 0.3, 0.2]),
]


@pytest.mark.parametrize("make, centre", _DERIVATIVE_LAWS, ids=lambda x: getattr(x, "__name__", ""))
def test_compiled_derivatives_at_complex_states_match_node_by_node_series(make, centre, monkeypatch):
    # At complex states a law's derivatives run a first-order series program
    # recorded once per terms callable and dtype. Its lanes give the values
    # of the series evaluated one operation at a time, bit for bit, for A,
    # A v and dS/dQ, at real and complex directions and across block sizes.
    # A second pass records and compiles no tape.
    monkeypatch.setattr(series, "_idle_workspaces", [])
    system = make()
    m, eye = system.m, np.eye(system.m)
    rng = np.random.default_rng(78)
    cases = []
    for points in (1, 7, 64, series.BLOCK + 1):
        q = centre + 0.1 * rng.standard_normal((points, m))
        dq = 1e-3 * rng.standard_normal((points, m))
        v = rng.standard_normal((points, m))
        dv = rng.standard_normal((points, m))
        cases += [(q + 1j * dq, v), (q + 1j * dq, v + 1j * dv), (q, v + 1j * dv)]
    recorded, compiled = [], []
    for check in range(2):
        for q, v in cases:
            if system.flux_terms is not None:
                flux = system.flux_terms
                got = system.matrix_product(q, v)
                assert got.tobytes() == _node_by_node_derivative(flux, q, v).tobytes()
            if not np.iscomplexobj(q):
                continue  # A and dS/dQ at a real state are one complex step
            if system.flux_terms is not None:
                want = _node_by_node_derivative(flux, q[:, None, :], eye).swapaxes(-1, -2)
                assert system.matrix(q).tobytes() == want.tobytes()
            if system.source_terms is not None:
                want = _node_by_node_derivative(system.source_terms, q[:, None, :], eye)
                assert system.source_jacobian(q).tobytes() == want.swapaxes(-1, -2).tobytes()
        if not check:
            tape, compile_tape = Workspace.tape, SeriesTape.compile
            monkeypatch.setattr(
                Workspace, "tape",
                lambda self, key, record: tape(self, key, lambda t: recorded.append(key) or record(t)),
            )
            monkeypatch.setattr(
                SeriesTape, "compile", lambda self: compiled.append(self) or compile_tape(self)
            )
    assert recorded == compiled == []


def test_failed_jet_leaves_next_result_unchanged(monkeypatch):
    # A jet with failed points leaves its law's tape kept, holding no
    # storage, and the next call on that tape repeats the first result.
    idle = []
    monkeypatch.setattr(series, "_idle_workspaces", idle)
    system = euler_ideal_gas()
    rng = np.random.default_rng(72)
    d = _euler_stack(rng, (700,), 4)
    ref = ck_time_derivatives(system, d, 4)
    tapes = list(idle[0].tapes.values())
    non_finite, zero_density = d.copy(), d.copy()
    non_finite[-1, 2, 1] = np.inf
    zero_density[350, 0, 0] = 0.0
    for bad, point in ((non_finite, 699), (zero_density, 350)):
        assert np.isnan(ck_time_derivatives(system, bad, 4)[point]).all()
        assert list(idle[0].tapes.values()) == tapes
        assert all(s.c.size == 0 for tape, _ in tapes for s in tape.series)
        assert np.array_equal(ck_time_derivatives(system, d, 4), ref)


def _fresh_jet(monkeypatch, system, d, order):
    """The jet on a new workspace, so on a newly recorded tape."""
    with monkeypatch.context() as patch:
        patch.setattr(series, "_idle_workspaces", [])
        return ck_time_derivatives(system, d, order)


def test_kept_tapes_match_fresh_tapes(monkeypatch):
    # Two laws with the same code and different constants, and Euler, in one
    # interleaved sequence: each call must match a jet on a fresh tape, so no
    # law is ever evaluated on another law's tape.
    monkeypatch.setattr(series, "_idle_workspaces", [])
    laws = [(leveque_yee(beta=-1000.0), [0.5]), (leveque_yee(beta=-10.0), [0.5]),
            (euler_ideal_gas(), [1.0, 0.5, 6.0])]
    rng = np.random.default_rng(75)
    block = series.BLOCK
    cases = []
    for order in range(1, 6):
        for batch in (1, 7, block, block + 1):
            for system, centre in laws:
                for complex_stack in (False, True):
                    d = 0.1 * rng.standard_normal((batch, order + 1, system.m))
                    d[:, 0] += centre
                    if complex_stack:
                        d = d + 1e-3j * rng.standard_normal(d.shape)
                    cases.append((system, d, order))
    refs = [_fresh_jet(monkeypatch, *case) for case in cases]
    for i in rng.permutation(2 * len(cases)) % len(cases):
        got = ck_time_derivatives(*cases[i])
        assert np.array_equal(got, refs[i]), (cases[i][0].name, cases[i][2], cases[i][1].shape)


def test_workspace_keeps_a_bounded_number_of_tapes(monkeypatch):
    idle = []
    monkeypatch.setattr(series, "_idle_workspaces", idle)
    limit = Workspace.TAPES
    d = np.full((40, 3, 1), 0.5)
    for beta in range(1, limit + 4):
        system = leveque_yee(beta=-float(beta))
        ck_time_derivatives(system, d, 2)
        ck_time_derivatives(system, d + 0j, 2)
    assert idle and all(len(w.tapes) <= limit for w in idle)
    assert len(idle[0].tapes) == limit
    for workspace in idle:
        for tape, _ in workspace.tapes.values():
            assert all(s.c.size == 0 for s in tape.series)


def test_workspace_storage_stays_bounded(monkeypatch):
    # Batch sizes from 1 to 5000 over more laws than a workspace keeps: the
    # kept tapes hold no storage, the bound programs stay within their limit,
    # and a second pass over the sizes grows no slot.
    idle = []
    monkeypatch.setattr(series, "_idle_workspaces", idle)
    laws = [leveque_yee(beta=-float(beta)) for beta in range(1, Workspace.TAPES + 3)]
    rng = np.random.default_rng(77)
    sizes = []
    for _ in range(2):
        for i, points in enumerate(range(1, 5001, 7)):
            d = 0.1 * rng.standard_normal((points, 3, 1)) + 0.5
            ck_time_derivatives(laws[i % len(laws)], d if i % 3 else d + 0j, 2)
            (workspace,) = idle
            assert len(workspace.programs) <= Workspace.PROGRAMS
            assert len(workspace.tapes) <= Workspace.TAPES
            for tape, _ in workspace.tapes.values():
                assert all(s.c.size == 0 for s in tape.series)
        sizes.append(workspace.nbytes)
    assert sizes[1] == sizes[0]


def test_stiff_episode_records_and_compiles_each_tape_once(monkeypatch):
    # One leveque-yee3-stiff episode: every tape, a jet per (law, order,
    # dtype) or a derivative program per (terms, dtype), is recorded once and
    # compiled once, however many batch sizes it serves.
    monkeypatch.setattr(series, "_idle_workspaces", [])
    recorded, compiled = [], []
    tape = Workspace.tape
    compile_tape = SeriesTape.compile

    def recording_tape(self, key, record):
        return tape(self, key, lambda t: recorded.append(key) or record(t))

    def counting_compile(self):
        compiled.append(self)
        return compile_tape(self)

    monkeypatch.setattr(Workspace, "tape", recording_tape)
    monkeypatch.setattr(SeriesTape, "compile", counting_compile)
    config = RunConfig(order=3, cfl=0.1, alpha=2.4, t_out=0.3, boundary="transmissive")
    system = leveque_yee(beta=-1000.0)
    report = run(system, Grid(0.0, 1.0, 100), config)
    assert report.n_steps > 100
    # The jet at real and complex stacks, and the complex-step chain's
    # derivatives of the flux (A v) and of the source (dS/dQ).
    jets = {(system.flux_terms, None, system.source_terms, 1, 2, np.dtype(dtype))
            for dtype in (float, complex)}
    derivatives = {(terms, 1, np.dtype(complex)) for terms in (system.flux_terms, system.source_terms)}
    assert len(recorded) == 4
    assert set(recorded) == jets | derivatives
    assert len(compiled) == len(set(map(id, compiled))) == 4


def test_repeated_jacobian_reuses_the_workspace(monkeypatch):
    # The jet's storage is a workspace borrowed from a pool: with the pool
    # empty, the first call allocates one, and a second call on the same
    # batch allocates none of it again.
    idle = []
    monkeypatch.setattr(series, "_idle_workspaces", idle)
    system = euler_ideal_gas()
    rng = np.random.default_rng(73)
    d0 = np.array([1.0, 0.5, 6.0]) + 0.1 * rng.standard_normal((2178, 3))
    w0 = d0 + 0.01 * rng.standard_normal((2178, 3))
    d_rest = 0.3 * rng.standard_normal((2178, 4, 3))
    tau = rng.uniform(0.0, 0.01, 2178)
    results, peaks, sizes = [], [], []
    for _ in range(2):
        tracemalloc.start()
        try:
            results.append(residual_and_jacobian(system, d0, d_rest, tau, w0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(idle) == 1
        sizes.append(idle[0].nbytes)
    workspace = sizes[0]
    assert workspace > 0 and sizes[1] == workspace
    assert peaks[1] < peaks[0] - 0.9 * workspace
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_concurrent_jets_match_serial_ones():
    # Jets and derivative programs running at once on several threads each
    # borrow a workspace of their own, so every thread gets the serial result.
    system = euler_ideal_gas()
    rng = np.random.default_rng(74)
    stacks = [_euler_stack(rng, (900,), 4) + 1e-3j * rng.standard_normal((900, 5, 3))
              for _ in range(6)]

    def both(d):
        # A jet, and A(Q) at the complex states D_0: a derivative program.
        return ck_time_derivatives(system, d, 4), system.matrix(d[:, 0])

    serial = [both(d) for d in stacks]
    got = [None] * len(stacks)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(i):
            for _ in range(3):
                got[i] = both(stacks[i])

        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(stacks))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for a, b in zip(got, serial):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_residual_at_zero_time_offset():
    # tau = 0 collapses the residual to d0 - w0 with identity gradient.
    system = linear_system()
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 2))
    d0 = rng.standard_normal(2)
    h, jac = residual_and_jacobian(system, d0, w[1:], np.array(0.0), w[0])
    np.testing.assert_allclose(h, d0 - w[0], atol=1e-14)
    np.testing.assert_allclose(jac, np.eye(2), atol=1e-14)


def _closed_form_jacobian(system, tau, order):
    """I + sum_k (-tau)^k / k! C[k, 0] from the closed-form CK matrices."""
    k = np.arange(1, order + 1)
    coef = (-tau[:, None]) ** k / np.array([math.factorial(i) for i in k])
    return np.eye(system.m) + np.einsum("pk,kab->pab", coef, system.closed_ck(order)[:, 0])


def _reduced_residual(system, d0, w_rest, tau, w0):
    """H(D_0, R(D_0)): predictor_residual at the derivative chain's solution."""
    rest = solve_derivative_chain(system, d0, w_rest, tau, w_rest.shape[-2])
    return predictor_residual(system, d0, rest, tau, w0)


def _central_difference_jacobian(system, d0, w_rest, tau, w0):
    """Fourth-order central differences of the reduced residual.

    The step is 1e-5 (1 + |d0_j|). Near a point where I - tau J is singular
    the chain makes the reduced residual steep and strongly curved, so the
    oracle is of fourth order with a small step to stay well inside the
    tolerance there.
    """
    jac = np.empty(d0.shape + (system.m,))
    for j in range(system.m):
        step = np.zeros_like(d0)
        step[:, j] = 1e-5 * (1.0 + np.abs(d0[:, j]))
        value = [_reduced_residual(system, d0 + s * step, w_rest, tau, w0) for s in (2, 1, -1, -2)]
        diff = 8.0 * (value[1] - value[2]) - (value[0] - value[3])
        jac[:, :, j] = diff / (12.0 * step[:, j : j + 1])
    return jac


def test_jacobian_matches_closed_form_and_central_differences():
    # Linear laws: the chain does not depend on D_0, so the complex-step
    # Jacobian equals the closed-form assembly. Nonlinear laws: it agrees
    # with central differences of the reduced residual H(D_0, R(D_0)).
    # Either way the residual is predictor_residual's at the chain's
    # solution. M = 0 is included.
    rng = np.random.default_rng(31)
    cases = [  # system, state centre, tau range
        (linear_system(), np.zeros(2), (0.01, 0.3)),
        (scalar_advection_reaction(lam=2.0, beta=-1.5), np.zeros(1), (0.01, 0.3)),
        (euler_ideal_gas(), np.array([1.0, 0.5, 2.5]), (0.01, 0.3)),
        (noncons_system(), np.array([1.0, 1.0]), (0.01, 0.3)),
        (leveque_yee(), np.array([0.5]), (1e-4, 2e-3)),  # beta = -1000
    ]
    for order in (0, 1, 3, 4):
        for system, centre, taus in cases:
            m = system.m
            d0 = centre + 0.1 * rng.standard_normal((6, m))
            w0 = d0 + 0.01 * rng.standard_normal((6, m))
            w_rest = 0.3 * rng.standard_normal((6, order, m))
            tau = rng.uniform(*taus, 6)
            h, jac = residual_and_jacobian(system, d0, w_rest, tau, w0)
            msg = f"{system.name}, M = {order}"
            np.testing.assert_allclose(
                h, _reduced_residual(system, d0, w_rest, tau, w0),
                rtol=0.0, atol=1e-13, err_msg=msg,
            )
            if system.constant_coefficients:
                oracle, tol = _closed_form_jacobian(system, tau, order), 1e-13
            else:
                oracle = _central_difference_jacobian(system, d0, w_rest, tau, w0)
                tol = 1e-6
            np.testing.assert_allclose(jac, oracle, rtol=0.0, atol=tol, err_msg=msg)


def test_predictor_residual_formula():
    # H = d0 - w0 + sum_k (-tau)^k / k! * G_k(d0, rest).
    system = scalar_advection_reaction(lam=2.0, beta=-1.5)
    rng = np.random.default_rng(41)
    d = rng.standard_normal((4, 1))
    w0 = rng.standard_normal(1)
    tau = np.array(0.17)
    h = predictor_residual(system, d[0], d[1:], tau, w0)
    g = ck_time_derivatives(system, d, 3)
    ref = d[0] - w0 + sum((-tau) ** k / math.factorial(k) * g[k - 1] for k in range(1, 4))
    np.testing.assert_allclose(h, ref, atol=1e-13)


@pytest.mark.parametrize(
    "make, order, centre, slope, taus",
    [
        # beta = -1000, tau beta down to -3, and front slopes: a unit jump
        # over a few cells of width 0.01.
        (leveque_yee, 2, [0.6], 30.0, [1e-4, 1e-3, 3e-3]),
        (leveque_yee, 3, [0.6], 30.0, [1e-4, 1e-3, 3e-3]),
        (noncons_system, 5, [1.0, 1.0], 0.3, [1e-3, 0.01, 0.05]),
        (euler_ideal_gas, 5, [1.0, 0.5, 2.5], 0.3, [1e-3, 0.01, 0.05]),
    ],
)
def test_jacobian_is_the_total_derivative_of_the_reduced_residual(make, order, centre, slope,
                                                                 taus):
    # dH/dD_0 follows D_1..D_M through the chain: it matches central
    # differences of D_0 -> H(D_0, R(D_0)) to 1e-6 relative, and at the
    # stiff front it differs from the Jacobian with D_1..D_M held.
    system = make()
    m, degree = system.m, order - 1
    rng = np.random.default_rng(order + m)
    n = 4
    for tau in taus:
        d0 = np.asarray(centre) + 0.1 * rng.standard_normal((n, m))
        w0 = d0 + 0.01 * rng.standard_normal((n, m))
        w_rest = slope * rng.standard_normal((n, degree, m))
        tau_p = np.full(n, tau)
        h, jac = residual_and_jacobian(system, d0, w_rest, tau_p, w0)
        oracle = _central_difference_jacobian(system, d0, w_rest, tau_p, w0)
        msg = f"{system.name}, order {order}, tau {tau}"
        np.testing.assert_allclose(jac, oracle, rtol=1e-6, atol=1e-6 * np.abs(oracle).max(),
                                   err_msg=msg)
        if system.name == "stiff-bistable-advection" and tau >= 1e-3:
            rest = solve_derivative_chain(system, d0, w_rest, tau_p, degree)
            _, dg = ckjet.ck_state_jacobian(system, np.concatenate([d0[:, None], rest], 1))
            coef = (-tau) ** np.arange(1, degree + 1) / np.array(
                [math.factorial(k) for k in range(1, degree + 1)]
            )
            held = 1.0 + np.einsum("k,pkab->pab", coef, dg)
            assert np.abs(jac - held).max() > 0.01 * np.abs(jac).max(), msg
