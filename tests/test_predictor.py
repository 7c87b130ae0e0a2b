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


def _solve_point(system, w, tau, cfg):
    """Derivative stack (M+1, m) and sweep count of one predictor point."""
    stacks, sweeps = solve_predictor_points(
        system, np.asarray(w, dtype=float)[None], np.array([0]), np.array([float(tau)]), cfg
    )
    return stacks[0], sweeps


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_space_time_rules_layout(order):
    rules = space_time_rules(order)
    n = order  # = M + 1 interior nodes per direction
    assert rules.xi_rule.n == n and rules.tau_rule.n == n
    assert rules.trace_rule.n == max(n, 2)
    assert rules.trace_rule.nodes[0] == 0.0 and rules.trace_rule.nodes[-1] == 1.0
    assert rules.path_rule.n == 3
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
    system = scalar_advection_reaction()
    cfg = RunConfig(order=4)
    w = np.random.default_rng(0).normal(size=(4, 1))
    stack, sweeps = _solve_point(system, w, 0.0, cfg)
    np.testing.assert_allclose(stack, w, atol=1e-14)
    assert sweeps <= 2


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
        stack, _ = _solve_point(system, w, tau, cfg)
        expect = _poly_derivatives(coeffs, xi - lam * tau / dx, dx, 1)[0]
        np.testing.assert_allclose(stack[0], expect, atol=1e-11)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_stiff_linear_reaction_closed_form(order):
    # Constant data, pure reaction: the update solves q T(-tau b) = w with
    # T the truncated exponential, so very stiff tau b is tamed.
    beta, tau, w0 = -1000.0, 0.05, 1.0
    system = scalar_advection_reaction(lam=1.0, beta=beta)
    cfg = RunConfig(order=order)
    w = np.zeros((order, 1))
    w[0, 0] = w0
    stack, sweeps = _solve_point(system, w, tau, cfg)
    t_poly = sum((-tau * beta) ** k / math.factorial(k) for k in range(order))
    assert stack[0, 0] == pytest.approx(w0 / t_poly, rel=1e-10)
    assert sweeps <= cfg.fp_max_iter


def test_nonlinear_reaction_against_bisection():
    # Order 2 constant-data point problem is scalar root finding on
    # f(q) = q - w - tau S(q); compare against a bisection oracle.
    system = leveque_yee(beta=-1000.0)
    cfg = RunConfig(order=2)
    tau, w0 = 1e-3, 0.8
    w = np.array([[w0], [0.0]])
    stack, _ = _solve_point(system, w, tau, cfg)

    def f(q):
        return q - w0 - tau * system.source(np.array([q]))[0]

    lo, hi = 0.5, 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert stack[0, 0] == pytest.approx(0.5 * (lo + hi), abs=1e-9)


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
    cfg = RunConfig(order=order)
    x = 0.37
    seeds = _linear_exact_seeds(x, order)
    errs = []
    for tau in (0.04, 0.02):
        stack, _ = _solve_point(system, seeds, tau, cfg)
        exact = system.exact_solution(np.array([x]), tau)[0]
        errs.append(np.max(np.abs(stack[0] - exact)))
    observed = np.log2(errs[0] / errs[1])
    assert observed >= min(order, 3) - 0.4


def test_admissibility_guard_raises():
    bad = dataclasses.replace(
        noncons_system(), admissible=lambda q: np.zeros(q.shape[:-1], dtype=bool)
    )
    cfg = RunConfig(order=3)
    w = np.zeros((3, 2))
    w[0] = [1.0, 1.0]
    w[1] = [0.3, 0.1]
    with pytest.raises(PredictorError):
        _solve_point(bad, w, 0.01, cfg)


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


def test_iteration_cap_raises():
    system = leveque_yee(beta=-1e7)
    cfg = RunConfig(order=3, fp_tol=1e-16, fp_max_iter=3)
    w = np.array([[0.75], [0.1], [0.0]])
    with pytest.raises(PredictorError) as err:
        _solve_point(system, w, 0.05, cfg)
    assert err.value.details  # carries diagnostics for the caller


def _newton_failure(system, w, tau, order):
    with pytest.raises(PredictorError) as err:
        solve_predictor_points(system, np.asarray(w, float), np.arange(len(w)),
                               np.asarray(tau, float), RunConfig(order=order))
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
    with np.errstate(all="ignore"):
        err = _newton_failure(leveque_yee(), w, [0.01] * 4, 3)
    assert str(err) == "CK jet failed: non-finite space-time jet coefficients"
    np.testing.assert_array_equal(err.details["points"], [1, 3])
    np.testing.assert_array_equal(err.details["tau"], [0.01, 0.01])
    np.testing.assert_array_equal(err.details["states"], [[1e110], [1e110]])


def test_jet_zero_division_names_its_points():
    # At M = 1 the derivative chain never uses A, so the zero density first
    # reaches the flux's division inside the CK jet.
    w = _euler_points(5, 1, [1, 4], 0.0)
    with np.errstate(all="ignore"):
        err = _newton_failure(euler_ideal_gas(), w, [0.01, 0.01, 0.0, 0.01, 0.02], 2)
    assert str(err) == "CK jet failed: series division by zero constant term"
    np.testing.assert_array_equal(err.details["points"], [1, 4])
    np.testing.assert_array_equal(err.details["tau"], [0.01, 0.02])
    np.testing.assert_array_equal(err.details["states"], w[[1, 4], 0])


def test_non_finite_chain_names_its_points():
    w = _euler_points(3, 2, [2], 1e-300)
    with np.errstate(all="ignore"):
        err = _newton_failure(euler_ideal_gas(), w, [0.01] * 3, 3)
    assert str(err) == "non-finite derivative chain solution"
    np.testing.assert_array_equal(err.details["points"], [2])
    np.testing.assert_array_equal(err.details["tau"], [0.01])
    np.testing.assert_array_equal(err.details["states"], w[[2], 0])


@pytest.mark.parametrize("make", [scalar_advection_reaction, linear_system])
def test_singular_chain_names_its_points(make):
    # M = 1 and tau beta = 1: I - tau J is exactly zero at the third point.
    system = dataclasses.replace(make(beta=2.0), constant_coefficients=False)
    w = np.full((3, 2, system.m), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _newton_failure(system, w, [0.1, 0.2, 0.5], 2)
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
            bad[1, 1] = True  # direction 1 of the second active point
            raise predictor._point_error("non-finite derivative chain solution", bad, tau, d0)
        return exact_chain(sys_, d0, w_rest, tau, order)

    def failing_jet(sys_, stacks):
        raise FloatingPointError("non-finite space-time jet coefficients")

    monkeypatch.setattr(predictor, "solve_derivative_chain", chain)
    monkeypatch.setattr(ckjet, "ck_state_jacobian", failing_jet)
    w = np.zeros((4, 3, 2))
    w[:, 0] = [[1.0, 1.0], [1.1, 0.9], [1.2, 1.0], [0.9, 1.1]]
    w[:, 1] = 0.1
    err = _newton_failure(system, w, [0.0, 0.01, 0.02, 0.03], 3)
    assert str(err) == "non-finite derivative chain solution"
    np.testing.assert_array_equal(err.details["points"], [2])
    np.testing.assert_array_equal(err.details["tau"], [0.02])
    np.testing.assert_array_equal(err.details["states"], w[[2], 0])


def _patched_jacobian(monkeypatch, value):
    """Newton sweeps whose Jacobian at point 1 is ``value``: the first sweep's
    chord and every fresh Jacobian."""
    exact = predictor.residual_and_jacobian
    exact_start = predictor._explicit_start

    def patched(*args):
        h, jac = exact(*args)
        jac[1] = value
        return h, jac

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
        err = _newton_failure(leveque_yee(), w, [0.01, 0.02, 0.03], 3)
    assert str(err) == "singular predictor Jacobian: Singular matrix"
    np.testing.assert_array_equal(err.details["points"], [1])
    np.testing.assert_array_equal(err.details["tau"], [0.02])
    np.testing.assert_array_equal(err.details["states"], [[0.75]])


def test_non_finite_iterate_names_its_points(monkeypatch):
    # A subnormal Jacobian turns the Newton step into an overflow.
    _patched_jacobian(monkeypatch, 1e-320)
    w = np.array([[[0.75], [0.1], [0.0]]] * 3)
    err = _newton_failure(leveque_yee(), w, [0.01, 0.02, 0.03], 3)
    assert str(err) == "non-finite predictor iterate"
    np.testing.assert_array_equal(err.details["points"], [1])
    np.testing.assert_array_equal(err.details["tau"], [0.02])
    np.testing.assert_array_equal(err.details["states"], [[0.75]])


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
    # One trace row per Lobatto node, and the tau = 0 rows reproduce the
    # reconstruction endpoints exactly.
    system = linear_system()
    cfg = RunConfig(order=3)
    rng = np.random.default_rng(4)
    windows = rng.normal(size=(1, 5, 2))
    coeffs = weno.reconstruct_batch(windows, cfg.degree)
    dt, dx = 0.004, 0.1
    t = build_predictor_tables(system, coeffs, dt=dt, dx=dx, config=cfg)
    rules = space_time_rules(3)
    assert t.trace_left.shape == t.trace_right.shape == (1, rules.trace_rule.n, 2)
    assert rules.trace_rule.nodes[0] == 0.0
    np.testing.assert_allclose(
        t.trace_left[0, 0], _poly_derivatives(coeffs[0], 0.0, dx, 1)[0], atol=1e-12
    )
    np.testing.assert_allclose(
        t.trace_right[0, 0], _poly_derivatives(coeffs[0], 1.0, dx, 1)[0], atol=1e-12
    )


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


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("make", [linear_system, scalar_advection_reaction])
def test_constant_coefficient_tables_match_newton(make, order):
    # The operator contraction against Newton on every node of the same law
    # run through the generic series engine. x_derivative is in physical
    # units; dx times it is on the scale of the values.
    system = make(lam=1.3, beta=-4.0)
    newton = dataclasses.replace(system, constant_coefficients=False)
    cfg = RunConfig(order=order)
    rng = np.random.default_rng(order)
    windows = rng.normal(size=(9, 2 * cfg.degree + 1, system.m))
    coeffs = weno.reconstruct_batch(windows, cfg.degree)
    got = build_predictor_tables(system, coeffs, dt=0.02, dx=0.05, config=cfg)
    ref = build_predictor_tables(newton, coeffs, dt=0.02, dx=0.05, config=cfg)
    for name in ("values", "trace_left", "trace_right"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name), rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        0.05 * got.x_derivative, 0.05 * ref.x_derivative, rtol=0, atol=1e-13
    )
    # The operators are solved for directly: no Newton sweep.
    assert got.iterations == 0 and ref.iterations >= 1


@pytest.mark.parametrize("order", [1, 3, 5])
def test_predictor_operators_are_unit_columns_at_zero_time(order):
    system = linear_system()
    cfg = RunConfig(order=order)
    ops = predictor_operators(system, np.array([0.0, 0.0]), cfg)
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
    cfg = RunConfig(order=order)
    n = order * make().m
    units = np.eye(n).reshape(n, order, -1)
    taus = np.array([0.0, 0.1, 0.37, 0.8, 1.0])
    for lam, beta in [(0.4, 0.0), (1.3, -4.0), (0.9, -10.0)]:
        system = make(lam=lam, beta=beta)
        ops = predictor_operators(system, taus, cfg)
        newton = dataclasses.replace(system, constant_coefficients=False)
        stacks, _ = solve_predictor_points(
            newton, units, np.tile(np.arange(n), taus.size), np.repeat(taus, n), cfg
        )
        ref = stacks[:, 0].reshape(taus.size, n, -1).swapaxes(-1, -2)
        assert ops.shape == ref.shape == (taus.size, system.m, n)
        np.testing.assert_allclose(ops, ref, rtol=0, atol=1e-13 * np.abs(ops).max())


def test_predictor_operators_singular_chain_raises():
    # Order 2 at tau * r = 1: I - tau J vanishes.
    system = scalar_advection_reaction(lam=0.5, beta=1.0)
    with pytest.raises(PredictorError, match="singular"):
        predictor_operators(system, np.array([0.5, 1.0]), RunConfig(order=2))


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
    with pytest.raises(ValueError, match="constant coefficients"):
        predictor_operators(leveque_yee(), np.array([0.1]), RunConfig(order=3))


@pytest.mark.parametrize("make", [euler_ideal_gas, noncons_system, leveque_yee])
def test_node_start_and_chord_come_from_one_jet_per_node(make):
    # Every point of a node starts from w_0 + sum_k tau^k / k! G_k(w), and its
    # first sweep's chord is the state equation's Jacobian at D = w, with
    # D_1..D_M held at w_1..w_M, taken here point by point.
    system = make()
    rng = np.random.default_rng(5)
    order = 4
    w_nodes = 0.1 * rng.normal(size=(3, order + 1, system.m))
    w_nodes[:, 0] += 0.6 + 0.3 * rng.random((3, system.m))
    if system.m == 3:
        w_nodes[:, 0, 2] += 5.0  # positive pressure
    node = np.array([0, 2, 1, 2, 0, 1])
    tau = np.array([1e-3, 2e-3, 5e-4, 4e-3, 3e-3, 1e-3])
    start, chord, has_jet = predictor._explicit_start(system, w_nodes, node, tau)
    assert has_jet.all()

    w = w_nodes[node]
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
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(PredictorError) as err:
            build_predictor_tables(leveque_yee(), coeffs, dt=0.001, dx=0.1, config=cfg)
    assert str(err.value) == "CK jet failed: non-finite space-time jet coefficients"
    assert set(err.value.details["cells"]) == {3}
    np.testing.assert_array_equal(err.value.details["states"], 1e110)


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
    node = np.array([0, 1, 2, 3, 1, 2, 1])
    tau = np.array([1e-3, 1e-3, 2e-3, 5e-4, 2e-3, 1e-3, 5e-4])
    cfg = RunConfig(order=3)
    ref, ref_sweeps = solve_predictor_points(system, w_nodes, node, tau, cfg)

    exact_jet = ckjet.ck_state_jacobian

    def failing_jet(sys_, stacks):
        # Only the node jets see node 1's whole stack; a point's Jacobian
        # pairs its state with the chain's derivatives.
        if np.any(np.all(stacks == w_nodes[1], axis=(-2, -1))):
            raise FloatingPointError("non-finite space-time jet coefficients")
        return exact_jet(sys_, stacks)

    fresh = []
    exact_jacobian = predictor.residual_and_jacobian

    def recorded(*args):
        fresh.append(args[1].copy())
        return exact_jacobian(*args)

    monkeypatch.setattr(ckjet, "ck_state_jacobian", failing_jet)
    monkeypatch.setattr(predictor, "residual_and_jacobian", recorded)
    got, sweeps = solve_predictor_points(system, w_nodes, node, tau, cfg)
    np.testing.assert_array_equal(fresh[0], [[0.75]] * 3)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    assert (ref_sweeps, sweeps) == (4, 6)


@pytest.mark.parametrize("taus, cap", [([0.01], 20), ([0.01, 0.02, 0.03, 0.05], 60)])
def test_newton_guards_converge_a_front_state(taus, cap):
    # A LeVeque-Yee state between the front's equilibria. With the descent
    # gate and a Jacobian refresh after each large step, Newton takes 12
    # sweeps at tau = 0.01 and 54 for the batch; without the gate it takes
    # 24 and 69, and without the refresh its jet fails. The explicit start
    # leads every point to the root near the upper equilibrium.
    system = leveque_yee()
    w = np.array([[[0.75], [0.1], [0.0]]])
    tau = np.array(taus)
    stacks, sweeps = solve_predictor_points(
        system, w, np.zeros(tau.size, dtype=int), tau, RunConfig(order=3, fp_max_iter=cap)
    )
    assert sweeps <= cap
    assert stacks[0, 0, 0] == pytest.approx(0.98492774, abs=1e-8)
    roots = {0.01: 0.984928, 0.02: 0.995727, 0.03: 0.997998, 0.05: 0.999242}
    np.testing.assert_allclose(stacks[:, 0, 0], [roots[t] for t in taus], rtol=0, atol=1e-6)
    h = predictor.predictor_residual(system, stacks[:, 0], stacks[:, 1:], tau, w[0, 0])
    assert np.all(np.abs(h) <= 1e-10)


def test_inadmissible_explicit_start_starts_from_data(monkeypatch):
    # Here the explicit Taylor value overshoots the admissible set q < 0.9
    # that holds the root: the point starts from w_0 instead, and no residual
    # is evaluated at an inadmissible state.
    system = dataclasses.replace(leveque_yee(), admissible=lambda q: q[..., 0] < 0.9)
    w = np.array([[[0.75], [0.1], [0.0]]])
    node, tau = np.array([0]), np.array([0.003])
    start, _, has_jet = predictor._explicit_start(system, w, node, tau)
    assert has_jet.all() and start[0, 0] > 0.9
    seen = []
    for name in ("predictor_residual", "residual_and_jacobian"):
        exact = getattr(predictor, name)
        monkeypatch.setattr(predictor, name, lambda *a, f=exact: seen.append(a[1]) or f(*a))
    stacks, sweeps = solve_predictor_points(system, w, node, tau, RunConfig(order=3))
    assert np.all(np.concatenate(seen) < 0.9)
    ref, _ = solve_predictor_points(leveque_yee(), w, node, tau, RunConfig(order=3))
    np.testing.assert_allclose(stacks, ref, rtol=0, atol=1e-12)


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
