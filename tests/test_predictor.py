"""Implicit space-time predictor: chain solve, Newton iteration, tables."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from aderfv import predictor
from aderfv.grid import RunConfig
from aderfv.predictor import (
    PredictorError,
    build_predictor_tables,
    predictor_operators,
    residual_and_jacobian,
    solve_derivative_chain,
    solve_predictor_points,
    space_time_rules,
)
from aderfv.systems import (
    euler_ideal_gas,
    leveque_yee,
    linear_ck_matrices,
    linear_system,
    noncons_system,
    scalar_advection_reaction,
)
from aderfv import ckjet, weno
from aderfv.ckjet import ck_time_derivatives

TWO_PI = 2.0 * np.pi


def _poly_derivatives(coeffs, xi, dx, n):
    """Physical derivatives 0..n-1 of sum_l coeffs[:, l] theta_l at xi, shape (n, m)."""
    return np.stack([
        sum(coeffs[:, l] * weno.legendre_derivative(l, xi, k) for l in range(coeffs.shape[1]))
        / dx**k
        for k in range(n)
    ])


def _solve_point(system, w, tau):
    """State D_0 (m,) and sweep count of one predictor point."""
    (d0,), sizes = solve_predictor_points(
        system, [(np.asarray(w, dtype=float)[None, None], np.array([float(tau)]))]
    )
    return d0[0, 0, 0], len(sizes)


def _start(system, blocks):
    """``_explicit_start`` of node blocks (w, taus), as a solve hands it them."""
    w_nodes = np.concatenate([w.reshape((-1,) + w.shape[2:]) for w, _ in blocks])
    plan = predictor._point_plan(tuple([w.shape[:2] + np.shape(taus) for w, taus in blocks]))
    rows = predictor._taylor_coefficients(np.concatenate([taus for _, taus in blocks]), w_nodes.shape[1] - 1)
    return predictor._explicit_start(system, w_nodes, plan, rows)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_space_time_rules_layout(order):
    rules = space_time_rules(order)
    n = order  # = M + 1 interior nodes per direction
    assert rules.xi_rule.n == n and rules.tau_rule.n == n
    assert rules.trace_rule.n == max(n, 2)
    assert rules.trace_rule.nodes[0] == 0.0 and rules.trace_rule.nodes[-1] == 1.0
    # differentiation matrix is exact on the interpolating polynomial space
    nodes = rules.tau_rule.nodes
    for p in range(n):
        got = rules.diff_matrix @ nodes**p
        np.testing.assert_allclose(got, p * nodes ** max(p - 1, 0) * (p > 0), atol=1e-11)


def test_derivative_chain_hand_check():
    # Scalar, M = 2: D2 = w2/(1 - tau b); D1 = (w1 - tau l D2)/(1 - tau b).
    tau, lam, beta = 0.1, 1.0, -2.0
    system = scalar_advection_reaction(lam=lam, beta=beta)
    got = solve_derivative_chain(
        system, np.array([0.7]), np.array([[0.3], [0.2]]), np.array(tau), 2
    )
    d2 = 0.2 / (1 - tau * beta)
    d1 = (0.3 - tau * lam * d2) / (1 - tau * beta)
    np.testing.assert_allclose(got.ravel(), [d1, d2], atol=1e-14)


def test_zero_time_offset_returns_data():
    # At tau = 0 the Taylor rows vanish: the point starts at w_0 with the
    # chord I, its residual and step are zero, and it converges at once.
    system = scalar_advection_reaction()
    w = np.random.default_rng(0).normal(size=(4, 1))
    d0, sweeps = _solve_point(system, w, 0.0)
    np.testing.assert_array_equal(d0, w[0])
    assert sweeps == 1


@pytest.mark.parametrize("order", [1, 3])
def test_blocks_without_points_take_no_sweep(order):
    # A block without nodes, as a flux-form law's interior block, alone.
    w = np.zeros((3, 0, order, 1))
    (d0,), sizes = solve_predictor_points(leveque_yee(), [(w, np.array([0.1, 0.2]))])
    assert d0.shape == (3, 2, 0, 1) and sizes == ()


@pytest.mark.parametrize("order,degree", [(2, 1), (3, 2), (4, 2), (5, 2)])
def test_advection_of_low_degree_data_is_exact(order, degree):
    # With zero source the predictor shifts the data by lam tau. This is
    # exact whenever third and higher data derivatives vanish (the
    # derivative chain is a two-term backward series), hence degree <= 2.
    lam = 1.5
    system = scalar_advection_reaction(lam=lam, beta=0.0)
    cfg = RunConfig(order=order)
    rng = np.random.default_rng(order)
    coeffs = np.zeros((1, cfg.degree + 1))
    coeffs[0, : degree + 1] = rng.standard_normal(degree + 1)
    dx = 0.1
    tau = 0.02
    for xi in (0.0, 0.31, 1.0):
        w = _poly_derivatives(coeffs, xi, dx, cfg.degree + 1)
        d0, _ = _solve_point(system, w, tau)
        expect = _poly_derivatives(coeffs, xi - lam * tau / dx, dx, 1)[0]
        np.testing.assert_allclose(d0, expect, atol=1e-11)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_stiff_linear_reaction_closed_form(order):
    # Constant data, pure reaction: the update solves q T(-tau b) = w with
    # T the truncated exponential, so very stiff tau b is tamed.
    beta, tau, w0 = -1000.0, 0.05, 1.0
    system = scalar_advection_reaction(lam=1.0, beta=beta)
    w = np.zeros((order, 1))
    w[0, 0] = w0
    d0, sweeps = _solve_point(system, w, tau)
    t_poly = sum((-tau * beta) ** k / math.factorial(k) for k in range(order))
    assert d0[0] == pytest.approx(w0 / t_poly, rel=1e-10)
    assert sweeps <= predictor._SWEEP_LIMIT


def test_nonlinear_reaction_against_bisection():
    # Order 2 constant-data point problem is scalar root finding on
    # f(q) = q - w - tau S(q); compare against a bisection oracle.
    system = leveque_yee(beta=-1000.0)
    tau, w0 = 1e-3, 0.8
    w = np.array([[w0], [0.0]])
    d0, _ = _solve_point(system, w, tau)

    def f(q):
        return q - w0 - tau * system.source(np.array([q]))[0]

    lo, hi = 0.5, 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert d0[0] == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def _phi_derivative(y, j):
    arg = TWO_PI * y + j * np.pi / 2
    return TWO_PI**j * (np.sin(arg) + np.cos(arg))


def _psi_derivative(y, j):
    arg = TWO_PI * y + j * np.pi / 2
    return TWO_PI**j * (np.sin(arg) - np.cos(arg))


def _linear_exact_seeds(x, order):
    seeds = np.empty((order, 2))
    for j in range(order):
        seeds[j, 0] = 0.5 * (_phi_derivative(x, j) + _psi_derivative(x, j))
        seeds[j, 1] = 0.5 * (_phi_derivative(x, j) - _psi_derivative(x, j))
    return seeds


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_point_consistency_order_in_time(order):
    # Seed with analytic derivatives; the raw point value at t = tau is
    # limited by the second-order evolution of the derivative chain, so the
    # observed rate is min(M+1, 3). (The full update recovers order M+1
    # through the volume term; see the one-step sweep in test_solver.)
    system = linear_system()
    x = 0.37
    seeds = _linear_exact_seeds(x, order)
    errs = []
    for tau in (0.04, 0.02):
        d0, _ = _solve_point(system, seeds, tau)
        exact = system.exact_solution(np.array([x]), tau)[0]
        errs.append(np.max(np.abs(d0 - exact)))
    observed = np.log2(errs[0] / errs[1])
    assert observed >= min(order, 3) - 0.4


def test_admissibility_guard_raises():
    bad = dataclasses.replace(
        noncons_system(), admissible=lambda q: np.zeros(q.shape[:-1], dtype=bool)
    )
    w = np.zeros((3, 2))
    w[0] = [1.0, 1.0]
    w[1] = [0.3, 0.1]
    with pytest.raises(PredictorError):
        _solve_point(bad, w, 0.01)


def test_inadmissible_reconstruction_names_its_cell():
    # u <= 0 is outside the non-conservative system's admissible set; the
    # tau = 0 trace points of that cell fail without a Newton sweep.
    cfg = RunConfig(order=3)
    coeffs = np.zeros((6, 2, cfg.degree + 1))
    coeffs[:, :, 0] = 1.0
    coeffs[4, 0, 0] = -0.5
    with pytest.raises(PredictorError) as err:
        build_predictor_tables(noncons_system(), coeffs, dt=0.01, dx=0.1, config=cfg)
    details = err.value.details
    np.testing.assert_array_equal(details["cells"], [4, 4])
    np.testing.assert_array_equal(details["tau"], [0.0, 0.0])
    np.testing.assert_array_equal(details["states"], [[-0.5, 1.0]] * 2)


def test_newton_failure_names_its_trace_end(monkeypatch):
    # A singular chord at the right trace end of cell 4, at the last trace
    # time: the point's first sweep fails from its explicit start and again
    # from w_0, after the tau = 0 checks have passed. The failure names the
    # point by its place in the blocks' layout, its cell, tau and state; the
    # trace block holds the trace-rule times after 0.
    system = leveque_yee()
    cfg = RunConfig(order=3)
    dt, dx = 0.01, 0.1
    coeffs = np.zeros((6, 1, cfg.degree + 1))
    coeffs[:, 0, 0] = np.linspace(0.2, 0.8, 6)
    coeffs[:, 0, 1] = 0.05
    ref = build_predictor_tables(system, coeffs, dt=dt, dx=dx, config=cfg)
    rules = space_time_rules(cfg.order)
    n_tr = rules.trace_rule.n - 1
    # The interior block's points, then the trace block's, laid out (cells, T, 2).
    point = 6 * rules.tau_rule.n * rules.xi_rule.n + (4 * n_tr + n_tr - 1) * 2 + 1
    exact = predictor._explicit_start

    def patched(system, w_nodes, plan, rows):
        start, chord, has_jet = exact(system, w_nodes, plan, rows)
        # The interior block's 6 x 3 nodes come first, then (cells, 2) ends.
        right_end = 6 * rules.xi_rule.n + 4 * 2 + 1
        chord[(plan.node == right_end) & (plan.time == len(rows) - 1)] = 0.0
        return start, chord, has_jet

    monkeypatch.setattr(predictor, "_explicit_start", patched)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PredictorError) as err:
            build_predictor_tables(system, coeffs, dt=dt, dx=dx, config=cfg)
    details = err.value.details
    assert str(err.value) == "singular predictor Jacobian: Singular matrix"
    np.testing.assert_array_equal(details["points"], [point])
    np.testing.assert_array_equal(details["cells"], [4])
    np.testing.assert_array_equal(details["tau"], [dt])
    np.testing.assert_array_equal(details["states"], [ref.trace_right[4, 0]])


def test_iteration_cap_raises(monkeypatch):
    # One node in each of three cells, at tau = 0 and 0.05. The points at
    # tau = 0 and the two cells at an equilibrium of the source converge on
    # the first sweep and leave the batch; the cap then names the middle
    # cell's point at 0.05 by its place in the layout (cells, T, nodes).
    system = leveque_yee(beta=-1e7)
    monkeypatch.setattr(predictor, "_NEWTON_TOL", 1e-16)
    monkeypatch.setattr(predictor, "_SWEEP_LIMIT", 3)
    w = np.array([[[0.0], [0.0], [0.0]], [[0.75], [0.1], [0.0]], [[1.0], [0.0], [0.0]]])
    with pytest.raises(PredictorError) as err:
        solve_predictor_points(system, [(w[:, None], np.array([0.0, 0.05]))])
    assert str(err.value) == "predictor fixed point did not converge"
    details = err.value.details
    np.testing.assert_array_equal(details["points"], [3])
    np.testing.assert_array_equal(details["cells"], [1])
    np.testing.assert_array_equal(details["tau"], [0.05])


def _newton_failure(system, w, tau):
    # One block per point, a single node at a single time: the failure's
    # ``points`` then number the entries of ``w``.
    blocks = [(np.asarray(wi, float)[None, None], np.array([ti])) for wi, ti in zip(w, tau)]
    with pytest.raises(PredictorError) as err:
        solve_predictor_points(system, blocks)
    return err.value


def _euler_points(n, degree, bad, rho):
    w = np.zeros((n, degree + 1, 3))
    w[:, 0] = [1.0, 0.5, 6.0]
    w[:, 1] = 0.1
    w[bad, 0, 0] = rho
    return w


def test_jet_overflow_names_its_points():
    w = np.zeros((4, 3, 1))
    w[:, 0, 0] = [0.5, 1e110, 0.2, 1e110]
    err = _newton_failure(leveque_yee(), w, [0.01] * 4)
    assert str(err) == "CK jet failed: non-finite space-time jet coefficients"
    np.testing.assert_array_equal(err.details["points"], [1, 3])
    np.testing.assert_array_equal(err.details["tau"], [0.01, 0.01])
    np.testing.assert_array_equal(err.details["states"], [[1e110], [1e110]])


def test_jet_zero_division_names_its_points():
    # At M = 1 the derivative chain never uses A, so the zero density first
    # reaches the flux's division inside the CK jet. The complex step's
    # direction 0 sees density i h, so the residual stays finite and only
    # the Jacobian does not: the Newton iterate fails there.
    w = _euler_points(5, 1, [1, 4], 0.0)
    err = _newton_failure(euler_ideal_gas(), w, [0.01, 0.01, 0.0, 0.01, 0.02])
    assert str(err) == "non-finite predictor iterate"
    np.testing.assert_array_equal(err.details["points"], [1, 4])
    np.testing.assert_array_equal(err.details["tau"], [0.01, 0.02])
    np.testing.assert_array_equal(err.details["states"], w[[1, 4], 0])


def test_non_finite_chain_names_its_points():
    # At M = 2 the chain applies A(D_0) to D_2 = w_2 = 0 before any jet is
    # used, and at zero density the flux's velocity 0 / 0 makes that product
    # NaN. (A tiny density is no trigger: A(D_0) overflows there, but its
    # product with D_2 = 0 is exactly 0, and the CK jet fails instead.)
    w = _euler_points(3, 2, [2], 0.0)
    err = _newton_failure(euler_ideal_gas(), w, [0.01] * 3)
    assert str(err) == "non-finite derivative chain solution"
    np.testing.assert_array_equal(err.details["points"], [2])
    np.testing.assert_array_equal(err.details["tau"], [0.01])
    np.testing.assert_array_equal(err.details["states"], w[[2], 0])


@pytest.mark.parametrize("make", [scalar_advection_reaction, linear_system])
def test_singular_chain_names_its_points(make):
    # M = 1 and tau beta = 1: I - tau J is exactly zero at the third point.
    system = make(beta=2.0)
    w = np.full((3, 2, system.m), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _newton_failure(system, w, [0.1, 0.2, 0.5])
    assert str(err) == "singular derivative chain (I - tau J): Singular matrix"
    np.testing.assert_array_equal(err.details["points"], [2])
    np.testing.assert_array_equal(err.details["tau"], [0.5])
    np.testing.assert_array_equal(err.details["states"], w[[2], 0])


def test_failing_complex_chain_names_its_points(monkeypatch):
    # The total derivative runs the chain on the m stepped copies of the
    # batch; a failure there is named by its point in the whole batch. Every
    # node jet fails here, so all points refresh on their first sweep.
    system = noncons_system()
    exact_chain = predictor.solve_derivative_chain

    def chain(sys_, d0, w_rest, tau, order):
        if np.iscomplexobj(d0):
            bad = np.zeros(d0.shape[:-1], dtype=bool)
            bad[1, 2] = True  # direction 1 of the third point
            raise predictor._point_error("non-finite derivative chain solution", bad, tau, d0)
        return exact_chain(sys_, d0, w_rest, tau, order)

    exact_jet = ckjet.ck_state_jacobian

    def failing_jet(sys_, stacks):
        g, dg = exact_jet(sys_, stacks)
        return np.full_like(g, np.nan), np.full_like(dg, np.nan)

    monkeypatch.setattr(predictor, "solve_derivative_chain", chain)
    monkeypatch.setattr(ckjet, "ck_state_jacobian", failing_jet)
    w = np.zeros((4, 3, 2))
    w[:, 0] = [[1.0, 1.0], [1.1, 0.9], [1.2, 1.0], [0.9, 1.1]]
    w[:, 1] = 0.1
    err = _newton_failure(system, w, [0.0, 0.01, 0.02, 0.03])
    assert str(err) == "non-finite derivative chain solution"
    np.testing.assert_array_equal(err.details["points"], [2])
    np.testing.assert_array_equal(err.details["tau"], [0.02])
    np.testing.assert_array_equal(err.details["states"], w[[2], 0])


def _patched_jacobian(monkeypatch, value):
    """Newton sweeps whose Jacobian at point 1 is ``value``: the first sweep's
    chord and every fresh Jacobian."""
    exact = predictor.residual_and_jacobian
    exact_start = predictor._explicit_start

    def patched(*args, **kwargs):
        h, jac, *batch = exact(*args, **kwargs)
        jac[1] = value
        return (h, jac, *batch)

    def patched_start(*args):
        start, chord, has_jet = exact_start(*args)
        chord[1] = value
        return start, chord, has_jet

    monkeypatch.setattr(predictor, "residual_and_jacobian", patched)
    monkeypatch.setattr(predictor, "_explicit_start", patched_start)


def test_singular_newton_step_names_its_points(monkeypatch):
    _patched_jacobian(monkeypatch, 0.0)
    w = np.array([[[0.75], [0.1], [0.0]]] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _newton_failure(leveque_yee(), w, [0.01, 0.02, 0.03])
    assert str(err) == "singular predictor Jacobian: Singular matrix"
    np.testing.assert_array_equal(err.details["points"], [1])
    np.testing.assert_array_equal(err.details["tau"], [0.02])
    np.testing.assert_array_equal(err.details["states"], [[0.75]])


def test_non_finite_iterate_names_its_points(monkeypatch):
    # A subnormal Jacobian turns the Newton step into an overflow.
    _patched_jacobian(monkeypatch, 1e-320)
    w = np.array([[[0.75], [0.1], [0.0]]] * 3)
    err = _newton_failure(leveque_yee(), w, [0.01, 0.02, 0.03])
    assert str(err) == "non-finite predictor iterate"
    np.testing.assert_array_equal(err.details["points"], [1])
    np.testing.assert_array_equal(err.details["tau"], [0.02])
    np.testing.assert_array_equal(err.details["states"], [[0.75]])


def _factor_batch(m, rng, n=48):
    """Matrices (n, m, m) and right sides (n, m): well-conditioned ones, ones
    whose leading entry is tiny or (for m > 1) zero, so that LU must pivot,
    and rows permuted, so that any row may hold the pivot."""
    a = 2.0 * np.eye(m) + 0.5 * rng.normal(size=(n, m, m))
    a[: n // 4, 0, 0] = 0.0 if m > 1 else 1e-300
    a[n // 4 : n // 2, 0, 0] = 1e-14
    rows = rng.permuted(np.tile(np.arange(m), (n, 1)), axis=1)
    a = np.take_along_axis(a, rows[..., None], axis=1)
    return a, rng.normal(size=(n, m))


def _factor_solve(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = predictor._lu_factor(a)
        return predictor._lu_solve(factors, b), predictor._zero_pivots(factors)


def _close_to_numpy(x, a, b, rtol):
    # Norm-wise relative agreement per point; ``rtol`` may vary by point.
    ref = np.linalg.solve(a, b[..., None])[..., 0]
    err = np.abs(x - ref).max(axis=-1)
    assert np.all(err <= rtol * np.abs(ref).max(axis=-1))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_lu_matches_numpy_solve(m):
    # Partial pivoting, well-conditioned and near-singular: the solves agree
    # with LAPACK's to 1e-13 relative, times the condition number for the
    # near-singular ones, and none of them has an exact zero pivot.
    rng = np.random.default_rng(40 + m)
    a, b = _factor_batch(m, rng)
    x, singular = _factor_solve(a, b)
    assert not singular.any()
    _close_to_numpy(x, a, b, 1e-13)
    if m == 1:
        np.testing.assert_array_equal(x, b / a[..., 0])

    # A rank-one matrix plus a perturbation of 1e-9 relative.
    u, v = rng.normal(size=(2, 16, m))
    near = u[:, :, None] * v[:, None, :] + 1e-9 * rng.normal(size=(16, m, m))
    rhs = rng.normal(size=(16, m))
    x, singular = _factor_solve(near, rhs)
    assert not singular.any() and np.all(np.isfinite(x))
    _close_to_numpy(x, near, rhs, 1e-13 * np.linalg.cond(near))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_lu_zero_pivots_name_the_singular_points(m):
    # Exactly singular matrices (a zero column, two equal rows, zero) end
    # in an exact zero pivot: the points it names are exactly those, their
    # solves are non-finite, and every other point solves as on its own.
    rng = np.random.default_rng(50 + m)
    a, b = _factor_batch(m, rng, n=12)
    a[2, :, m - 1] = 0.0
    a[5] = 0.0
    if m > 1:
        a[7, m - 1] = a[7, 0]
    x, singular = _factor_solve(a, b)
    expect = np.isin(np.arange(12), [2, 5, 7] if m > 1 else [2, 5])
    np.testing.assert_array_equal(singular, expect)
    np.testing.assert_array_equal(singular, np.linalg.slogdet(a).sign == 0)
    assert not np.isfinite(x[expect]).all(axis=-1).any()
    regular = ~expect
    np.testing.assert_array_equal(x[regular], _factor_solve(a[regular], b[regular])[0])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_lu_nan_entry_is_non_finite_not_singular(m):
    # A NaN entry, wherever it sits, makes its point's solve non-finite
    # without a zero pivot; the other points solve as before.
    rng = np.random.default_rng(60 + m)
    a, b = _factor_batch(m, rng, n=12)
    clean, _ = _factor_solve(a, b)
    for point, (i, j) in zip([1, 4, 9], [(0, 0), (m - 1, 0), (0, m - 1)]):
        a[point, i, j] = np.nan
    x, singular = _factor_solve(a, b)
    assert not singular.any()
    bad = np.isin(np.arange(12), [1, 4, 9])
    assert not np.isfinite(x[bad]).all(axis=-1).any()
    np.testing.assert_array_equal(x[~bad], clean[~bad])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_lu_solve_broadcasts_against_the_factors_batch(m):
    # The right sides broadcast against the factors' batch either way: the
    # (T, K, m) sides of ``predictor_operators`` against factors of batch
    # (T, 1), sides (T, 1, m) against factors of batch (T, K), and sides of
    # the factors' own batch. Every point solves bit for bit as on its own.
    rng = np.random.default_rng(70 + m)
    t, k = 4, 3
    a, _ = _factor_batch(m, rng, n=t * k)
    a = a.reshape(t, k, m, m)
    b = rng.normal(size=(t, k, m))

    def alone(a_point, b_point):
        return _factor_solve(a_point[None], b_point[None])[0][0]

    cases = [(a[:, :1], b), (a, b[:, :1]), (a, b)]
    for a_case, b_case in cases:
        x, _ = _factor_solve(a_case, b_case)
        assert x.shape == (t, k, m)
        for i in range(t):
            for j in range(k):
                a_ij = a_case[i, min(j, a_case.shape[1] - 1)]
                b_ij = b_case[i, min(j, b_case.shape[1] - 1)]
                assert x[i, j].tobytes() == alone(a_ij, b_ij).tobytes()


def _reference_elimination(a, b):
    """LU with partial pivoting and one solve for one matrix a (m, m), b (m,).

    The pivot of column k is the first entry of largest |Re| from row k on.
    Every entry is a shape-(1,) array, and each step is the numpy operation
    that the batched factors take, so complex products round as theirs do.
    Returns U and the multipliers of L (rows of entries), the pivots counted
    from k, and x.
    """
    m = len(a)
    lu = [[a[i, j : j + 1].copy() for j in range(m)] for i in range(m)]
    y = [b[i : i + 1].copy() for i in range(m)]
    piv = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(m - 1):
            col = [abs(lu[i][k].real[0]) for i in range(k, m)]
            p = col.index(max(col))
            piv.append(p)
            lu[k], lu[k + p] = lu[k + p], lu[k]
            y[k], y[k + p] = y[k + p], y[k]
            for i in range(k + 1, m):
                lu[i][k] = lu[i][k] / lu[k][k]
                for j in range(k + 1, m):
                    lu[i][j] = lu[i][j] - lu[i][k] * lu[k][j]
        for i in range(1, m):
            for j in range(i):
                y[i] = y[i] - lu[i][j] * y[j]
        x = [None] * m
        for i in range(m - 1, -1, -1):
            for j in range(i + 1, m):
                y[i] = y[i] - lu[i][j] * x[j]
            x[i] = y[i] / lu[i][i]
    return lu, piv, x


@pytest.mark.parametrize("complex_step", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_lu_matches_a_reference_elimination_bit_for_bit(m, complex_step):
    # Each pivot is one argmax over its column and each row swap one gather:
    # the factors, pivots and solutions of every point equal those of the
    # elimination of its matrix alone, bit for bit. Small integer entries
    # make tied pivots (the first is taken) and exactly singular matrices,
    # whose exact zero pivot ``_zero_pivots`` names; a complex step keeps the
    # pivots of the real part.
    rng = np.random.default_rng(80 + m)
    n = 200
    a = rng.integers(-2, 3, size=(n, m, m)).astype(float)
    a[n // 2 :] += 0.25 * rng.normal(size=(n - n // 2, m, m))
    b = rng.normal(size=(n, m))
    if complex_step:
        # The integer matrices keep a zero imaginary part, so that some stay
        # exactly singular.
        a = a.astype(complex)
        a[n // 2 :] += 1j * 1e-3 * rng.normal(size=(n - n // 2, m, m))
        b = b + 1j * 1e-3 * rng.normal(size=(n, m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lu, piv = factors = predictor._lu_factor(a)
        x = predictor._lu_solve(factors, b)
        singular = predictor._zero_pivots(factors)
    ties = swaps = 0
    for i in range(n):
        ref_lu, ref_piv, ref_x = _reference_elimination(a[i], b[i])
        for r in range(m):
            for c in range(m):
                assert lu[r, c, i].tobytes() == ref_lu[r][c].tobytes()
            assert x[i, r].tobytes() == ref_x[r].tobytes()
        assert piv[:, i].tolist() == ref_piv
        assert singular[i] == any(ref_lu[k][k][0] == 0 for k in range(m))
        col = np.abs(a[i, :, 0].real)
        ties += int(np.sum(col == col.max()) > 1)
        swaps += any(ref_piv)
    if m > 1:
        assert ties and swaps and singular.any() and not singular.all()


def test_batch_table_matches_single_cell():
    system = scalar_advection_reaction(lam=1.0, beta=-2.0)
    cfg = RunConfig(order=3)
    rng = np.random.default_rng(2)
    windows = rng.normal(size=(6, 5, 1))
    coeffs = weno.reconstruct_batch(windows, cfg.degree)
    tables = build_predictor_tables(system, coeffs, dt=0.01, dx=0.1, config=cfg)
    assert tables.values.shape == (6, 3, 3, 1)
    for c in range(6):
        single = build_predictor_tables(
            system, weno.reconstruct_batch(windows[c : c + 1], cfg.degree),
            dt=0.01, dx=0.1, config=cfg,
        )
        np.testing.assert_allclose(single.values[0], tables.values[c], atol=1e-13)
        np.testing.assert_allclose(single.trace_left[0], tables.trace_left[c], atol=1e-13)
        np.testing.assert_allclose(single.trace_right[0], tables.trace_right[c], atol=1e-13)


def test_table_trace_layout():
    # One trace row per Lobatto node, and the tau = 0 rows are the
    # reconstructed end states, bit for bit, on the closed-form route and on
    # the Newton route.
    cfg = RunConfig(order=3)
    rules = space_time_rules(3)
    assert rules.trace_rule.nodes[0] == 0.0
    dt, dx = 0.004, 0.1
    # The non-conservative law's admissible states have u > 0.
    for system, centre, spread in ((linear_system(), 0.0, 1.0), (noncons_system(), 1.0, 0.1)):
        windows = centre + spread * np.random.default_rng(4).normal(size=(1, 5, 2))
        coeffs = weno.reconstruct_batch(windows, cfg.degree)
        t = build_predictor_tables(system, coeffs, dt=dt, dx=dx, config=cfg)
        assert t.trace_left.shape == t.trace_right.shape == (1, rules.trace_rule.n, 2)
        np.testing.assert_allclose(
            t.trace_left[0, 0], _poly_derivatives(coeffs[0], 0.0, dx, 1)[0], atol=1e-12
        )
        np.testing.assert_allclose(
            t.trace_right[0, 0], _poly_derivatives(coeffs[0], 1.0, dx, 1)[0], atol=1e-12
        )
        ends = predictor._node_derivatives(coeffs, rules.basis_trace, dx)[:, :, 0]
        np.testing.assert_array_equal(t.trace_left[:, 0], ends[:, 0])
        np.testing.assert_array_equal(t.trace_right[:, 0], ends[:, 1])


def test_equilibrium_table_is_constant():
    # Constant data at a source equilibrium: every table entry stays put.
    system = noncons_system()
    cfg = RunConfig(order=4)
    coeffs = np.zeros((3, 2, cfg.degree + 1))
    coeffs[:, 0, 0] = 1.0  # u = 1
    coeffs[:, 1, 0] = 1.0  # v = 1  -> S = 0
    t = build_predictor_tables(system, coeffs, dt=0.01, dx=0.05, config=cfg)
    np.testing.assert_allclose(t.values[..., 0], 1.0, atol=1e-13)
    np.testing.assert_allclose(t.values[..., 1], 1.0, atol=1e-13)
    np.testing.assert_allclose(t.x_derivative, 0.0, atol=1e-13)


@pytest.mark.parametrize("order", [3, 5])
def test_flux_form_tables_solve_only_the_traces(order):
    # Euler's update reads the traces alone, so its tables have no interior
    # nodes. Each point is solved on its own, so the traces are those of the
    # two-block solve, which also solves the interior nodes (bit for bit on a
    # 2-core x86 VM with numpy 2.4).
    system = euler_ideal_gas()
    cfg = RunConfig(order=order)
    rules = space_time_rules(order)
    x = np.linspace(0.0, 1.0, 6 * (2 * cfg.degree + 1)).reshape(6, -1)
    coeffs = weno.reconstruct_batch(system.initial_condition(x), cfg.degree)
    dt, dx = 0.004, 1.0 / 16
    table = build_predictor_tables(system, coeffs, dt=dt, dx=dx, config=cfg)
    assert table.values.shape == table.x_derivative.shape == (6, rules.tau_rule.n, 0, 3)
    assert table.dx == dx
    blocks = [
        (predictor._node_derivatives(coeffs, rules.basis_interior, dx), rules.tau_rule.nodes * dt),
        (predictor._node_derivatives(coeffs, rules.basis_trace, dx), rules.trace_rule.nodes * dt),
    ]
    (values, traces), sizes = solve_predictor_points(system, blocks)
    assert values.shape[2] == rules.xi_rule.n and table.iterations == len(sizes) >= 1
    for end, got in enumerate((table.trace_left, table.trace_right)):
        np.testing.assert_allclose(got, traces[:, :, end], rtol=0, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("make", [linear_system, scalar_advection_reaction])
def test_constant_coefficient_tables_match_newton(make, order):
    # The operator contraction against Newton on every node of the same law
    # run through the generic series engine. x_derivative is in physical
    # units; dx times it is on the scale of the values.
    system = make(lam=1.3, beta=-4.0)
    cfg = RunConfig(order=order)
    rules = space_time_rules(order)
    rng = np.random.default_rng(order)
    windows = rng.normal(size=(9, 2 * cfg.degree + 1, system.m))
    coeffs = weno.reconstruct_batch(windows, cfg.degree)
    dt, dx = 0.02, 0.05
    got = build_predictor_tables(system, coeffs, dt=dt, dx=dx, config=cfg)
    blocks = [
        (predictor._node_derivatives(coeffs, rules.basis_interior, dx), rules.tau_rule.nodes * dt),
        (predictor._node_derivatives(coeffs, rules.basis_trace, dx), rules.trace_rule.nodes * dt),
    ]
    (values, traces), sizes = solve_predictor_points(system, blocks)
    ref = {"values": values, "trace_left": traces[:, :, 0], "trace_right": traces[:, :, 1]}
    for name, want in ref.items():
        np.testing.assert_allclose(getattr(got, name), want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        dx * got.x_derivative, rules.diff_matrix @ values, rtol=0, atol=1e-13
    )
    # The operators are solved for directly: no Newton sweep.
    assert got.iterations == 0 and got.batch_sizes == () and len(sizes) >= 1


@pytest.mark.parametrize("order", [1, 3, 5])
def test_predictor_operators_are_unit_columns_at_zero_time(order):
    system = linear_system()
    ops = predictor_operators(system.closed_ck(order - 1), np.array([0.0, 0.0]))
    assert ops.shape == (2, system.m, order * system.m)
    expect = np.zeros((system.m, order * system.m))
    expect[:, : system.m] = np.eye(system.m)
    np.testing.assert_array_equal(ops, np.broadcast_to(expect, ops.shape))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("make", [scalar_advection_reaction, linear_system])
def test_predictor_operators_match_newton_probe(make, order):
    # Column p of P(tau) is the Newton predictor of the unit stack e_p on the
    # same law run through the generic series engine, over the stability
    # analyzer's range: tau up to 1 with r = tau * beta down to -10.
    n = order * make().m
    units = np.eye(n).reshape(n, order, -1)
    taus = np.array([0.0, 0.1, 0.37, 0.8, 1.0])
    for lam, beta in [(0.4, 0.0), (1.3, -4.0), (0.9, -10.0)]:
        system = make(lam=lam, beta=beta)
        ops = predictor_operators(system.closed_ck(order - 1), taus)
        # One cell whose n nodes hold the unit stacks, at every tau.
        (d0,), _ = solve_predictor_points(system, [(units[None], taus)])
        ref = d0[0].swapaxes(-1, -2)
        assert ops.shape == ref.shape == (taus.size, system.m, n)
        np.testing.assert_allclose(ops, ref, rtol=0, atol=1e-13 * np.abs(ops).max())


def test_predictor_operators_singular_chain_raises():
    # Order 2 at tau * r = 1: I - tau J vanishes at tau = 1 alone. The
    # operators are NaN there and those of a call without it elsewhere; the
    # solver's closed-form route raises, naming that node time.
    system = scalar_advection_reaction(lam=0.5, beta=1.0)
    ops = predictor_operators(system.closed_ck(1), np.array([0.5, 1.0]))
    assert np.isnan(ops[1]).all()
    alone = predictor_operators(system.closed_ck(1), np.array([0.5]))
    np.testing.assert_array_equal(ops[:1], alone)
    with pytest.raises(PredictorError, match="^singular linear predictor: ") as err:
        predictor._step_operators(system, 2, 1.0)  # times 0.211, 0.789 and 1
    np.testing.assert_array_equal(err.value.details["tau"], [1.0])
    # Order 1 has no chain: its operator there is the identity.
    ops = predictor_operators(system.closed_ck(0), np.array([1.0]))
    np.testing.assert_array_equal(ops, [[[1.0]]])


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_predictor_operators_of_a_stack_are_each_tables_own(order):
    # A (P, M, M+1, 1, 1) stack of the stability analyzer's tables, with a
    # singular one (tau r = 1 at tau = 1) among them: every table's operators
    # equal its own call, bit for bit, NaN where it is singular.
    degree = order - 1
    c = np.array([0.05, 0.4, 0.9, 1.2, 0.5, 0.7])
    r = np.array([0.0, -0.7, -6.0, 0.3, 1.0, -10.0])
    stack = linear_ck_matrices(c[:, None, None], r[:, None, None], degree)
    assert stack.shape == (6, degree, order, 1, 1)
    taus = np.array([0.0, 0.12, 0.5, 0.88, 1.0])
    ops = predictor_operators(stack, taus)
    assert ops.shape == (6, taus.size, 1, order)
    for p in range(6):
        own = predictor_operators(linear_ck_matrices([[c[p]]], [[r[p]]], degree), taus)
        np.testing.assert_array_equal(ops[p], own)
        assert ops[p].tobytes() == own.tobytes()
    assert np.isnan(ops[4, -1]).all() == (order > 1)
    assert np.isfinite(np.delete(ops, 4, axis=0)).all()


def test_linear_tables_and_amplitude_run_no_newton_or_jet(monkeypatch):
    from aderfv import vonneumann

    def forbidden(*args, **kwargs):
        raise AssertionError("constant-coefficient path reached the Newton solver or a jet")

    for module, name in [
        (predictor, "solve_predictor_points"),
        (predictor, "predictor_residual"),
        (predictor, "residual_and_jacobian"),
        (ckjet, "ck_time_derivatives"),
        (ckjet, "ck_state_jacobian"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    cfg = RunConfig(order=5)
    windows = np.random.default_rng(3).normal(size=(4, 2 * cfg.degree + 1, 2))
    coeffs = weno.reconstruct_batch(windows, cfg.degree)
    tables = build_predictor_tables(linear_system(), coeffs, dt=0.01, dx=0.1, config=cfg)
    assert tables.iterations == 0
    for kind in ("implicit", "explicit"):
        query = vonneumann.StabilityQuery(order=5, predictor=kind, n_theta=8, n_scenarios=3)
        amp = vonneumann.amplitude(vonneumann.theta_grid(8), 0.5, -2.0, query)
        assert np.all(np.isfinite(amp))


def test_predictor_operators_reject_nonlinear_laws():
    # The operators take a closed CK table, which only a law with constant
    # coefficients has.
    with pytest.raises(ValueError, match="constant coefficients"):
        leveque_yee().closed_ck(2)


@pytest.mark.parametrize("make", [euler_ideal_gas, noncons_system, leveque_yee])
def test_node_start_and_chord_come_from_one_jet_per_node(make):
    # Every point of a node starts from w_0 + sum_k tau^k / k! G_k(w), and its
    # first sweep's chord is the state equation's Jacobian at D = w, with
    # D_1..D_M held at w_1..w_M, taken here point by point.
    system = make()
    rng = np.random.default_rng(5)
    order = 4
    # Two blocks: 2 cells x 3 nodes at three times, 2 cells x 2 nodes at two.
    blocks = []
    for shape, taus in [((2, 3), [1e-3, 2e-3, 5e-4]), ((2, 2), [4e-3, 3e-3])]:
        w_nodes = 0.1 * rng.normal(size=shape + (order + 1, system.m))
        w_nodes[..., 0, :] += 0.6 + 0.3 * rng.random(shape + (system.m,))
        if system.m == 3:
            w_nodes[..., 0, 2] += 5.0  # positive pressure
        blocks.append((w_nodes, np.array(taus)))
    start, chord, has_jet = _start(system, blocks)
    assert has_jet.all()

    # Every point by itself, in the blocks' layout (cells, T, nodes).
    points = [
        (w_b[c, n], t_b[t])
        for w_b, t_b in blocks
        for c in range(len(w_b)) for t in range(t_b.size) for n in range(w_b.shape[1])
    ]
    w = np.array([w_p for w_p, _ in points])
    tau = np.array([t_p for _, t_p in points])
    g = ck_time_derivatives(system, w, order)
    fact = np.array([math.factorial(k) for k in range(1, order + 1)])
    expected = w[:, 0] + np.einsum("pk,pkm->pm", tau[:, None] ** np.arange(1, order + 1) / fact, g)
    np.testing.assert_allclose(start, expected, rtol=1e-13, atol=0)
    _, dg = ckjet.ck_state_jacobian(system, w)
    coef = (-tau[:, None]) ** np.arange(1, order + 1) / fact
    jac = np.eye(system.m) + np.einsum("pk,pkab->pab", coef, dg)
    np.testing.assert_allclose(chord, jac, rtol=1e-13, atol=1e-13 * np.abs(jac).max())


def test_node_jet_failure_names_its_cell():
    # One cell's state overflows its node jets: its points start from w_0
    # with a fresh Jacobian, whose jet fails there with today's message. The
    # build keeps the caller's error state, so no warning escapes.
    cfg = RunConfig(order=3)
    coeffs = np.zeros((6, 1, cfg.degree + 1))
    coeffs[:, 0, 0] = 0.2
    coeffs[3, 0, 0] = 1e110
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PredictorError) as err:
            build_predictor_tables(leveque_yee(), coeffs, dt=0.001, dx=0.1, config=cfg)
    assert str(err.value) == "CK jet failed: non-finite space-time jet coefficients"
    assert set(err.value.details["cells"]) == {3}
    np.testing.assert_array_equal(err.value.details["states"], 1e110)


@pytest.mark.parametrize("make, order, centre, tau, exact", [
    (leveque_yee, 3, [0.5], 2e-3, True),
    (noncons_system, 5, [1.0, 1.0], 2e-2, True),
    (euler_ideal_gas, 5, [1.0, 0.5, 6.0], 2e-2, False),
])
def test_refreshing_sweep_matches_the_two_jet_evaluation(make, order, centre, tau, exact, monkeypatch):
    # Every other node jet fails, so those points refresh on their first
    # sweep while the rest take their chords. A sweep that refreshes takes
    # the batch's residuals in the refreshed points' complex-step jet; the
    # two-jet evaluation takes them from ``predictor_residual`` over the
    # batch and the refreshed points' from ``residual_and_jacobian`` alone.
    # Laws that only add and multiply give the same new states, step sizes
    # and stored factors bit for bit. Euler's quotients
    # round otherwise in complex lanes, so its residuals can move in the last
    # bit (by up to 1.4e-17 on 500 random points at order 5); the largest
    # difference of its new states is bounded instead, and reads 0 here.
    system = make()
    rng = np.random.default_rng(13)
    w = 0.05 * rng.standard_normal((40, 3, order, system.m))
    w[..., 0, :] += np.asarray(centre) * (1.0 + 0.2 * rng.random((40, 3, 1)))
    blocks = [(w, tau * np.array([0.0, 0.3, 1.0, 0.7])), (w[:, :2], tau * np.array([0.5, 1.0]))]
    exact_jet, exact_sweep = ckjet.ck_state_jacobian, predictor._sweep
    exact_total = predictor.residual_and_jacobian

    def failing_jet(sys_, stacks):
        g, dg = exact_jet(sys_, stacks)
        g[::2], dg[::2] = np.nan, np.nan
        return g, dg

    def two_jets(sys_, d0, w_rest, tau, w0, taylor, batch):
        h, jac = exact_total(sys_, d0, w_rest, tau, w0, taylor)
        d0_b, rest_b, taylor_b, w0_b = batch
        return h, jac, predictor.predictor_residual(sys_, d0_b, rest_b, None, w0_b, taylor_b)

    compared, largest = [], 0.0

    def sweep(sys_, d0, w0, w_rest, tau, taylor, factors, refresh):
        stored = tuple(f.copy() for f in factors)
        with monkeypatch.context() as patch:
            patch.setattr(predictor, "residual_and_jacobian", two_jets)
            want = exact_sweep(sys_, d0, w0, w_rest, tau, taylor, stored, refresh)
        got = exact_sweep(sys_, d0, w0, w_rest, tau, taylor, factors, refresh)
        if refresh.any():
            compared.append(refresh.all())
            if exact:
                for a, b in zip(got + factors, want + stored):
                    assert a.tobytes() == b.tobytes()
            else:
                nonlocal largest
                scale = 1.0 + np.abs(d0).max()
                largest = max(largest, np.abs(got[0] - want[0]).max() / scale)
        return got

    monkeypatch.setattr(ckjet, "ck_state_jacobian", failing_jet)
    monkeypatch.setattr(predictor, "_sweep", sweep)
    solve_predictor_points(system, blocks)
    assert compared and not all(compared)  # some sweeps refresh only some points
    assert largest <= 1e-15


def test_points_of_a_failed_node_jet_start_from_data(monkeypatch):
    # A node jet that fails leaves its points the w_0 start and a fresh
    # Jacobian on their first sweep; every other point keeps its node's
    # start and chord, and the solution is unchanged. The large first step
    # from w_0 refreshes those points again, so they take two more sweeps.
    system = leveque_yee()
    rng = np.random.default_rng(12)
    w_nodes = np.zeros((4, 3, 1))
    w_nodes[:, 0, 0] = [0.2, 0.75, 0.6, 0.9]
    w_nodes[:, 1, 0] = 0.1 * rng.normal(size=4)
    # One block per node, each at its own times.
    taus = [[1e-3], [1e-3, 2e-3, 5e-4], [2e-3, 1e-3], [5e-4]]
    blocks = [(w[None, None], np.array(t)) for w, t in zip(w_nodes, taus)]
    ref, ref_sizes = solve_predictor_points(system, blocks)

    exact_jet = ckjet.ck_state_jacobian

    def failing_jet(sys_, stacks):
        # Only the node jets see node 1's whole stack; a point's Jacobian
        # pairs its state with the chain's derivatives.
        g, dg = exact_jet(sys_, stacks)
        failed = np.all(stacks == w_nodes[1], axis=(-2, -1))
        g[failed], dg[failed] = np.nan, np.nan
        return g, dg

    fresh = []
    exact_jacobian = predictor.residual_and_jacobian

    def recorded(*args, **kwargs):
        fresh.append(args[1].copy())
        return exact_jacobian(*args, **kwargs)

    monkeypatch.setattr(ckjet, "ck_state_jacobian", failing_jet)
    monkeypatch.setattr(predictor, "residual_and_jacobian", recorded)
    got, sizes = solve_predictor_points(system, blocks)
    np.testing.assert_array_equal(fresh[0], [[0.75]] * 3)
    for got_b, ref_b in zip(got, ref):
        np.testing.assert_allclose(got_b, ref_b, rtol=0, atol=1e-12)
    assert (len(ref_sizes), len(sizes)) == (4, 6)


@pytest.mark.parametrize("taus, cap", [([0.01], 20), ([0.01, 0.02, 0.03, 0.05], 60)])
def test_newton_guards_converge_a_front_state(taus, cap, monkeypatch):
    # A LeVeque-Yee state between the front's equilibria. With the descent
    # gate and a Jacobian refresh after each large step, Newton takes 12
    # sweeps at tau = 0.01 and 54 for the batch; without the gate it takes
    # 24 and 69, and without the refresh its jet fails. The explicit start
    # leads every point to the root near the upper equilibrium.
    system = leveque_yee()
    w = np.array([[[0.75], [0.1], [0.0]]])
    tau = np.array(taus)
    monkeypatch.setattr(predictor, "_SWEEP_LIMIT", cap)
    (d0,), sizes = solve_predictor_points(system, [(w[None], tau)])
    d0 = d0[0, :, 0]  # the node's points, along the time axis
    assert len(sizes) <= cap
    assert d0[0, 0] == pytest.approx(0.98492774, abs=1e-8)
    roots = {0.01: 0.984928, 0.02: 0.995727, 0.03: 0.997998, 0.05: 0.999242}
    np.testing.assert_allclose(d0[:, 0], [roots[t] for t in taus], rtol=0, atol=1e-6)
    rest = solve_derivative_chain(system, d0, w[0, 1:], tau, 2)
    h = predictor.predictor_residual(system, d0, rest, tau, w[0, 0])
    assert np.all(np.abs(h) <= 1e-10)


def test_failed_jet_at_a_trial_state_halves_the_step(monkeypatch):
    # The first Newton step from this front state's explicit start overshoots
    # to D_0 = 17.6. With the jet failing at every state above 10, that trial
    # state has a non-finite residual, so its step is halved, as a larger
    # residual would halve it, and the solve is unchanged. Had the sweep
    # failed, the point would have started again from w_0, on another path.
    system = leveque_yee()
    blocks = [(np.array([[[[0.75], [0.1], [0.0]]]]), np.array([0.01]))]
    (ref,), ref_sizes = solve_predictor_points(system, blocks)
    exact_jet = ckjet.ck_time_derivatives
    failed = []

    def jet(sys_, derivatives, order):
        d0, rest = derivatives
        beyond = d0.real > 10.0
        failed.extend(d0[beyond].real)
        return exact_jet(sys_, (np.where(beyond, np.inf, d0), rest), order)

    monkeypatch.setattr(ckjet, "ck_time_derivatives", jet)
    (got,), sizes = solve_predictor_points(system, blocks)
    assert failed and min(failed) > 17.0
    np.testing.assert_array_equal(got, ref)
    assert len(sizes) == len(ref_sizes) == 12


def test_inadmissible_explicit_start_starts_from_data(monkeypatch):
    # Here the explicit Taylor value overshoots the admissible set q < 0.9
    # that holds the root: the point starts from w_0 instead, and no residual
    # is evaluated at an inadmissible state.
    system = dataclasses.replace(leveque_yee(), admissible=lambda q: q[..., 0] < 0.9)
    w = np.array([[[0.75], [0.1], [0.0]]])
    blocks = [(w[None], np.array([0.003]))]
    start, _, has_jet = _start(system, blocks)
    assert has_jet.all() and start[0, 0] > 0.9
    seen = []

    def watched(f):
        # The states of a residual, and of the batch whose residuals ride in
        # a Jacobian's jet.
        def call(*args, **kwargs):
            seen.append(args[1])
            if "batch" in kwargs:
                seen.append(kwargs["batch"][0])
            return f(*args, **kwargs)
        return call

    for name in ("predictor_residual", "residual_and_jacobian"):
        monkeypatch.setattr(predictor, name, watched(getattr(predictor, name)))
    (d0,), _ = solve_predictor_points(system, blocks)
    assert np.all(np.concatenate(seen) < 0.9)
    (ref,), _ = solve_predictor_points(leveque_yee(), blocks)
    np.testing.assert_allclose(d0, ref, rtol=0, atol=1e-12)


def test_repeated_step_times_reuse_linear_operators(monkeypatch):
    # Steps with the same dt reuse the last operators of the law and order;
    # a new dt or order solves them again. The tables are unchanged.
    calls = []
    exact = predictor.predictor_operators

    def counted(*args):
        calls.append(args[1].copy())
        return exact(*args)

    monkeypatch.setattr(predictor, "predictor_operators", counted)
    system = linear_system(lam=0.7, beta=-3.0)
    cfg = RunConfig(order=4)
    rng = np.random.default_rng(8)
    coeffs = weno.reconstruct_batch(rng.normal(size=(5, 7, 2)), cfg.degree)
    first = build_predictor_tables(system, coeffs, dt=0.01, dx=0.1, config=cfg)
    again = build_predictor_tables(system, coeffs, dt=0.01, dx=0.1, config=cfg)
    assert len(calls) == 1
    np.testing.assert_array_equal(first.values, again.values)
    np.testing.assert_array_equal(first.trace_left, again.trace_left)
    build_predictor_tables(system, coeffs, dt=0.02, dx=0.1, config=cfg)
    build_predictor_tables(system, coeffs[..., :3], dt=0.02, dx=0.1, config=RunConfig(order=3))
    assert len(calls) == 3
    monkeypatch.setattr(predictor, "predictor_operators", exact)
    fresh = build_predictor_tables(
        linear_system(lam=0.7, beta=-3.0), coeffs, dt=0.01, dx=0.1, config=cfg
    )
    np.testing.assert_array_equal(first.values, fresh.values)
