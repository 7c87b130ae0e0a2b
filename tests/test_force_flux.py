"""Centred fluctuation splitting and space-time averages."""

import dataclasses

import numpy as np
import pytest

from aderfv import ckjet, force_flux, predictor, solver
from aderfv.force_flux import interface_fluctuations, noncons_average, source_average
from aderfv.grid import Grid, RunConfig, gauss_legendre
from aderfv.predictor import PredictorTable, space_time_rules
from aderfv.solver import compute_dt, initial_field, step
from aderfv.systems import (
    SystemDescriptor,
    euler_ideal_gas,
    leveque_yee,
    linear_system,
    noncons_system,
    scalar_advection_reaction,
)


def _formed_path_average(system, ql, qr, points=3):
    """Atilde formed: A at the Gauss points of the segment qL -> qR, averaged."""
    rule = gauss_legendre(points)
    return sum(w * system.matrix(ql + s * (qr - ql)) for s, w in zip(rule.nodes, rule.weights))


def _constant_trace_fluctuations(system, ql, qr, alpha, dt, dx):
    """D+- of one interface whose traces hold ql and qr at every trace time."""
    rules = space_time_rules(3)
    n = rules.trace_rule.n
    fl = interface_fluctuations(
        system, np.tile(ql, (1, n, 1)), np.tile(qr, (1, n, 1)),
        rules.trace_rule.weights, alpha, dt, dx,
    )
    return fl.dplus[0], fl.dminus[0]


def test_path_average_constant_matrix():
    # Atilde = A = [[0, 2], [2, 0]] at every state, so D+ + D- = A (qR - qL).
    ql, qr = np.array([0.3, -0.1]), np.array([1.2, 0.8])
    dplus, dminus = _constant_trace_fluctuations(linear_system(lam=2.0), ql, qr, 2.0, 0.01, 0.1)
    np.testing.assert_allclose(dplus + dminus, [2.0 * 0.9, 2.0 * 0.9], rtol=0, atol=1e-14)


def test_path_average_linear_entry():
    # A(q)[0, 1] = u for the non-conservative model (here with lam = 0, so
    # A = [[0, u], [1, 0]]); along the segment the three-point rule
    # integrates the linear entry exactly: Atilde[0, 1] = (uL + uR) / 2, which
    # the first component of D+ + D- reads off a unit jump in v.
    ql, qr = np.array([0.7, 1.0]), np.array([1.9, 2.0])
    dplus, dminus = _constant_trace_fluctuations(noncons_system(lam=0.0), ql, qr, 2.0, 0.01, 0.1)
    assert (dplus + dminus)[0] == pytest.approx(0.5 * (0.7 + 1.9), abs=1e-14)
    assert (dplus + dminus)[1] == pytest.approx(1.9 - 0.7, abs=1e-14)


def test_split_reassembles_path_average():
    # D+ + D- = Atilde (qR - qL) for any alpha: the dissipation cancels.
    rng = np.random.default_rng(1)
    dt, dx = 0.01, 0.1
    system = noncons_system()
    for _ in range(50):
        ql, qr = rng.uniform(0.5, 1.5, (2, 2))
        alpha = rng.uniform(0.5, 3.0)
        dplus, dminus = _constant_trace_fluctuations(system, ql, qr, alpha, dt, dx)
        want = _formed_path_average(system, ql, qr) @ (qr - ql)
        np.testing.assert_allclose(dplus + dminus, want, rtol=0, atol=1e-13)


def test_split_upwind_limit_scalar():
    # alpha dt / dx = 1 / lam makes the scheme exactly upwind for scalar
    # advection: the left-going part vanishes, on the constant-coefficient
    # route (lam = 2) and on the path-average one (LeVeque-Yee, lam = 1).
    dt, dx = 0.05, 0.2
    for system, lam in [(scalar_advection_reaction(lam=2.0, beta=0.0), 2.0), (leveque_yee(), 1.0)]:
        alpha = dx / (lam * dt)
        dplus, dminus = _constant_trace_fluctuations(system, [0.2], [0.9], alpha, dt, dx)
        assert dminus[0] == pytest.approx(0.0, abs=1e-14)
        assert dplus[0] == pytest.approx(lam * 0.7, abs=1e-14)


def test_path_rule_default_is_three_point():
    # Euler's A is not polynomial along the segment, so the path rule shows in
    # the dissipation D+ - D- = 2 mu (Atilde^2 + lam^2 I) dq: it is the
    # three-point Gauss average's, and not the two- or four-point one's.
    system = euler_ideal_gas()
    ql, qr = np.array([1.0, 0.5, 2.0]), np.array([0.4, -0.3, 0.9])
    alpha, dt, dx = 2.0, 0.004, 0.05
    dplus, dminus = _constant_trace_fluctuations(system, ql, qr, alpha, dt, dx)
    mu, lam = alpha * dt / (4 * dx), dx / (alpha * dt)

    def dissipation(points):
        atilde = _formed_path_average(system, ql, qr, points)
        return 2 * mu * (atilde @ atilde + lam**2 * np.eye(3)) @ (qr - ql)

    scale = np.abs(dissipation(3)).max()
    np.testing.assert_allclose(dplus - dminus, dissipation(3), rtol=0, atol=1e-13 * scale)
    for points in (2, 4):
        assert np.abs(dplus - dminus - dissipation(points)).max() > 1e-6 * scale


def test_fluctuation_consistency_random_pairs():
    # Euler, taken in flux form: D+ + D- is the time-integrated flux jump.
    _check_fluctuation_consistency(euler_ideal_gas(), [1.0, 0.5, 2.0])


def test_fluctuation_consistency_random_pairs_path_average():
    # The non-conservative law: D+ + D- is the path average times qR - qL.
    _check_fluctuation_consistency(noncons_system(), [1.0, 1.0])


@pytest.mark.parametrize("make, base", [(linear_system, [1.0, 0.5]), (scalar_advection_reaction, [1.0])])
def test_fluctuation_consistency_random_pairs_constant_coefficients(make, base):
    # A constant-coefficient law applies its cached A twice to the trace-rule
    # average of the jumps: the per-node formed path average agrees.
    _check_fluctuation_consistency(make(), base)


def _check_fluctuation_consistency(system, base):
    # D+ - D- is the splitting's dissipation, 2 sum_j w_j mu (Atilde_j^2 +
    # lam^2 I) dq_j, for every law, checked against the path average formed
    # at each trace time. D+ + D- is the time-integrated jump, as the +-
    # dissipation parts cancel: the flux jump for a law taken in flux form
    # (Euler), the path average times qR - qL otherwise.
    rules = space_time_rules(3)
    weights = rules.trace_rule.weights
    rng = np.random.default_rng(42)
    dt, dx, alpha = 0.004, 0.05, 2.0
    mu, lam = alpha * dt / (4 * dx), dx / (alpha * dt)
    base = np.array(base)
    n_nodes = rules.trace_rule.n
    for _ in range(1000):
        ql = base * (1.0 + 0.3 * rng.standard_normal((n_nodes, system.m)))
        qr = base * (1.0 + 0.3 * rng.standard_normal((n_nodes, system.m)))
        fl = interface_fluctuations(
            system, ql[None], qr[None], weights, alpha, dt, dx
        )
        total, diss = np.zeros(system.m), np.zeros(system.m)
        for j in range(n_nodes):
            atilde, dq = _formed_path_average(system, ql[j], qr[j]), qr[j] - ql[j]
            diss += weights[j] * 2 * mu * ((atilde @ atilde + lam**2 * np.eye(system.m)) @ dq)
            if system.flux_form:
                jump = np.subtract(system.flux_terms(qr[j]), system.flux_terms(ql[j]))
            else:
                jump = atilde @ dq
            total += weights[j] * jump
        # D+ and D- each carry the dissipation, so their sum rounds at its scale.
        atol = 1e-13 * (1.0 + np.abs(diss).max())
        np.testing.assert_allclose(fl.dplus[0] + fl.dminus[0], total, rtol=0, atol=atol)
        np.testing.assert_allclose(fl.dplus[0] - fl.dminus[0], diss, rtol=0, atol=atol)


@pytest.mark.parametrize("make", [euler_ideal_gas, linear_system, noncons_system])
@pytest.mark.parametrize("alpha, dt", [(0.0, 0.01), (-1.0, 0.01), (2.0, 0.0), (2.0, -0.01)])
def test_fluctuations_validate_arguments(make, alpha, dt):
    # Each route (constant coefficients, path average with the centred half
    # in flux form or not) rejects a splitting without dissipation scale.
    system = make()
    rules = space_time_rules(3)
    q = np.ones((4, rules.trace_rule.n, system.m))
    with pytest.raises(ValueError, match="alpha > 0 and dt > 0"):
        interface_fluctuations(system, q, q, rules.trace_rule.weights, alpha, dt, 0.1)


def test_fluctuation_scalar_hand_formula():
    # Constant traces, scalar: D+- = A+- (qR - qL) with the explicit split.
    lam, alpha, dt, dx = 1.0, 2.0, 0.05, 0.25
    system = scalar_advection_reaction(lam=lam, beta=0.0)
    rules = space_time_rules(2)
    nn = rules.trace_rule.n
    ql = np.full((1, nn, 1), 1.0)
    qr = np.full((1, nn, 1), 3.0)
    fl = interface_fluctuations(
        system, ql, qr, rules.trace_rule.weights, alpha, dt, dx
    )
    mu = alpha * dt / (4 * dx)
    diss = mu * (lam**2 + (dx / (alpha * dt)) ** 2)
    jump = 2.0
    assert fl.dplus[0, 0] == pytest.approx((0.5 * lam + diss) * jump, rel=1e-13)
    assert fl.dminus[0, 0] == pytest.approx((0.5 * lam - diss) * jump, rel=1e-13)


def _table_from_function(fn, order, dx):
    """Predictor table whose entries sample fn(xi, tau_unit) directly."""
    rules = space_time_rules(order)
    xi = rules.xi_rule.nodes
    taus = rules.tau_rule.nodes
    vals = np.array([[fn(x, t) for x in xi] for t in taus])[None, ..., None]
    # analytic d/dxi of the sampled polynomial is supplied by the caller via
    # fn_x; here we fill x_derivative with the Lagrange differentiation of
    # the xi interpolant, mirroring the production layout.
    diff = np.array(
        [[_lagrange_dbasis(xi, l, xn) for l in range(len(xi))] for xn in xi]
    )
    x_der = np.einsum("pl,ctlm->ctpm", diff, vals) / dx
    ntr = rules.trace_rule.n
    tr = rules.trace_rule.nodes
    trace_left = np.array([fn(0.0, t) for t in tr])[None, :, None]
    trace_right = np.array([fn(1.0, t) for t in tr])[None, :, None]
    return PredictorTable(
        values=vals,
        x_derivative=x_der,
        trace_left=trace_left,
        trace_right=trace_right,
        dx=dx,
    )


def _lagrange_dbasis(nodes, l, x):
    total = 0.0
    for m in range(len(nodes)):
        if m == l:
            continue
        prod = 1.0 / (nodes[l] - nodes[m])
        for r in range(len(nodes)):
            if r not in (l, m):
                prod *= (x - nodes[r]) / (nodes[l] - nodes[r])
        total += prod
    return total


def test_source_average_linear_source():
    # For S = beta q and polynomial table entries, the double Gauss rule is
    # exact: average = beta * int int q.
    beta = -3.0
    system = scalar_advection_reaction(lam=1.0, beta=beta)
    order = 3
    rules = space_time_rules(order)
    fn = lambda x, t: 1.0 + 2.0 * x * t + x**2 - t**2
    table = _table_from_function(fn, order, dx=0.1)
    got = source_average(system, table, rules)
    exact = beta * (1.0 + 2.0 * 0.25 + 1.0 / 3.0 - 1.0 / 3.0)
    assert got[0, 0] == pytest.approx(exact, rel=1e-13)


def test_noncons_average_constant_matrix():
    # A = lam (scalar): the volume term is lam * avg of dq/dx.
    lam = 2.0
    system = scalar_advection_reaction(lam=lam, beta=0.0)
    order = 3
    rules = space_time_rules(order)
    dx = 0.1
    fn = lambda x, t: 0.3 + 0.7 * x + 0.1 * x**2 * t
    table = _table_from_function(fn, order, dx=dx)
    got = noncons_average(system, table, rules)
    # d/dx in physical units: (0.7 + 0.2 x t)/dx averaged over the square
    exact = lam * (0.7 + 0.2 * 0.5 * 0.5) / dx
    assert got[0, 0] == pytest.approx(exact, rel=1e-12)


def _first_step_tables(system, order, monkeypatch):
    """The arguments and predictor tables of a 16-cell run's first step."""
    calls = []
    exact = solver.build_predictor_tables
    monkeypatch.setattr(
        solver, "build_predictor_tables", lambda *args: calls.append(args) or exact(*args)
    )
    cfg = RunConfig(order=order, cfl=0.1, alpha=2.0, t_out=1.0, boundary="periodic")
    fld = initial_field(system, Grid(0.0, 1.0, 16), cfg)
    step(system, fld, cfg, compute_dt(system, fld, cfg))
    monkeypatch.setattr(solver, "build_predictor_tables", exact)
    (args,) = calls
    return args, exact(*args)


def _formed_volume_term(system, table, rules):
    """The volume term from the formed matrices A(Q): the reference for ``matrix_product``."""
    integrand = np.einsum("...ab,...b->...a", system.matrix(table.values), table.x_derivative)
    return force_flux._volume_average(integrand, rules)


@pytest.mark.parametrize(
    "make, order, atol",
    [(euler_ideal_gas, 5, 1e-14), (noncons_system, 5, 0.0), (linear_system, 5, 0.0),
     (leveque_yee, 3, 0.0), (scalar_advection_reaction, 3, 0.0)],
)
def test_noncons_average_matches_the_formed_matrix(make, order, atol, monkeypatch):
    # The volume term integrates A(Q) dQ/dx at the interior nodes. Laws whose
    # product is exact (constant A, rows of A, m = 1) give the formed
    # matrix's volume term bit for bit. Euler, taken in flux form, has no
    # interior nodes (``test_flux_form_volume_term_is_the_trace_flux_jump``);
    # given a zero source it keeps them, and its complex step of the flux in
    # one direction agrees to round-off of the term's scale.
    system = make()
    if system.flux_form:
        system = dataclasses.replace(system, source_terms=lambda q: [0.0 * c for c in q])
    assert not system.flux_form
    _, table = _first_step_tables(system, order, monkeypatch)
    rules = space_time_rules(order)
    got, want = noncons_average(system, table, rules), _formed_volume_term(system, table, rules)
    np.testing.assert_allclose(got, want, rtol=0, atol=atol * np.abs(want).max())


@pytest.mark.parametrize("order", [1, 3, 5])
def test_flux_form_volume_term_is_the_trace_flux_jump(order, monkeypatch):
    # Euler's volume term is the x-integral of dF/dx over the cell's own
    # traces, (1/dx) sum_j w_j (F(Q(1, tau_j)) - F(Q(0, tau_j))), and its
    # source average is zero; neither reads an interior node, as there are none.
    system = euler_ideal_gas()
    args, table = _first_step_tables(system, order, monkeypatch)
    rules, dx = space_time_rules(order), args[3]
    assert table.values.shape[2] == 0 and table.dx == dx
    want = np.zeros(table.trace_left.shape[:1] + (3,))
    for c, j in np.ndindex(want.shape[0], rules.trace_rule.n):
        jump = np.subtract(
            system.flux_terms(table.trace_right[c, j]), system.flux_terms(table.trace_left[c, j])
        )
        want[c] += rules.trace_rule.weights[j] * jump / dx
    got = noncons_average(system, table, rules)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
    np.testing.assert_array_equal(source_average(system, table, rules), 0.0)


@pytest.mark.parametrize("make", [euler_ideal_gas, noncons_system, leveque_yee])
@pytest.mark.parametrize("refresh", [False, True])
def test_predictor_and_volume_term_never_form_the_matrix(make, refresh, monkeypatch):
    # The derivative chain, the volume term and the interface fluctuations
    # only apply A(Q) to vectors (``matrix_product``), or take Euler's flux at
    # the traces: for a law without constant coefficients, A is formed only
    # for the CFL speed. Failing node jets make every point take the total
    # derivative on its first sweep, so the chain also runs under the
    # complex step. LeVeque-Yee runs at order 3, the others at order 5.
    system = make()
    order = 3 if make is leveque_yee else 5
    args, table = _first_step_tables(system, order, monkeypatch)
    rules = space_time_rules(order)
    want = noncons_average(system, table, rules)
    interface = (
        system, table.trace_right[:-1], table.trace_left[1:],
        rules.trace_rule.weights, args[4].alpha, args[2], args[3],
    )
    want_fl = interface_fluctuations(*interface)
    refreshed = []
    if refresh:
        exact_jet, exact_total = ckjet.ck_state_jacobian, predictor.residual_and_jacobian
        monkeypatch.setattr(
            ckjet, "ck_state_jacobian",
            lambda *a: tuple(np.full_like(x, np.nan) for x in exact_jet(*a)),
        )
        monkeypatch.setattr(
            predictor, "residual_and_jacobian",
            lambda *a, **k: refreshed.append(len(a[1])) or exact_total(*a, **k),
        )

    def formed(self, q):
        raise AssertionError("SystemDescriptor.matrix called")

    monkeypatch.setattr(SystemDescriptor, "matrix", formed)
    again = predictor.build_predictor_tables(*args)
    assert again.iterations >= 1 and bool(refreshed) == refresh
    assert again.values.shape[2] == (0 if system.flux_form else rules.xi_rule.n)
    for name in ("values", "trace_left", "trace_right"):
        np.testing.assert_allclose(getattr(again, name), getattr(table, name), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(noncons_average(system, table, rules), want)
    fl = interface_fluctuations(*interface)
    np.testing.assert_array_equal(fl.dplus, want_fl.dplus)
    np.testing.assert_array_equal(fl.dminus, want_fl.dminus)
