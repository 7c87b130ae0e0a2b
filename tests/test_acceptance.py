"""Acceptance gate: the headline results, each checked at its stated tolerance.

Every test prints one `ACCEPTANCE PASS/FAIL:` line (run with ``-s`` to see
them on passing runs). The suite repeats the reference configurations at desk
scale and takes a few minutes end to end; the unit suites cover the same
machinery piecewise and run in seconds.
"""
import math

import numpy as np

from aderfv.force_flux import interface_fluctuations
from aderfv.grid import CellField, Grid, RunConfig, error_norms, exact_cell_averages, gauss_legendre
from aderfv.ckjet import ck_time_derivatives
from aderfv.predictor import space_time_rules
from aderfv.solver import convergence_study, initial_field, run, step
from aderfv.systems import (
    euler_ideal_gas,
    leveque_yee,
    linear_system,
    noncons_system,
    scalar_advection_reaction,
)
from aderfv.vonneumann import (
    DEFAULT_C_GRID,
    DEFAULT_R_GRID,
    StabilityQuery,
    stability_fraction,
    stability_map,
)
from aderfv import weno


def _check(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


def _within_factor(value: float, reference: float, factor: float) -> bool:
    return reference / factor <= value <= reference * factor


# --------------------------------------------------------------------------
# 1. Convergence orders on the three smooth benchmarks
# --------------------------------------------------------------------------


def test_criterion_1a_linear_system_orders():
    system = linear_system(lam=1.0, beta=-1.0)
    base = dict(cfl=0.1, alpha=1.9, t_out=1.0, boundary="periodic")

    rows = convergence_study(system, RunConfig(order=3, **base), [64, 128])
    ord_l1, err128 = rows[-1].order_l1, rows[-1].l1
    _check(
        "linear system, order 3: L1 order at 64->128 within 3.00 +/- 0.2",
        abs(ord_l1 - 3.00) <= 0.2,
        f"observed {ord_l1:.3f}",
    )
    _check(
        "linear system, order 3: L1 error at 128 cells within 3x of 3.83e-5",
        _within_factor(err128, 3.83e-5, 3.0),
        f"observed {err128:.3e}",
    )

    rows = convergence_study(system, RunConfig(order=5, **base), [32, 64])
    ord_l1 = rows[-1].order_l1
    _check(
        "linear system, order 5: L1 order at 32->64 at least 4.6",
        ord_l1 >= 4.6,
        f"observed {ord_l1:.3f}",
    )


def test_criterion_1b_noncons_orders():
    system = noncons_system(lam=1.0, eps=0.02)
    base = dict(cfl=0.1, alpha=2.2, t_out=1.0, boundary="periodic")

    for order, target in ((4, 4.33), (5, 5.02)):
        rows = convergence_study(system, RunConfig(order=order, **base), [32, 64])
        ord_l1 = rows[-1].order_l1
        _check(
            f"non-conservative system, order {order}: L1 order at 64 within "
            f"{target} +/- 0.4",
            abs(ord_l1 - target) <= 0.4,
            f"observed {ord_l1:.3f}",
        )


def test_criterion_1c_euler_order_five():
    system = euler_ideal_gas(gamma=1.4)
    config = RunConfig(order=5, cfl=0.1, alpha=2.0, t_out=1.0, boundary="periodic")
    rows = convergence_study(system, config, [32, 64])
    err64, ord_l1 = rows[-1].l1, rows[-1].order_l1
    _check(
        "Euler, order 5: density L1 error at 64 cells within 5x of 8.68e-7",
        _within_factor(err64, 8.68e-7, 5.0),
        f"observed {err64:.3e}",
    )
    _check(
        "Euler, order 5: L1 order at 64 within 4.99 +/- 0.4",
        abs(ord_l1 - 4.99) <= 0.4,
        f"observed {ord_l1:.3f}",
    )


# --------------------------------------------------------------------------
# 2. Stiff reaction front position and plateaus
# --------------------------------------------------------------------------


def test_criterion_2_stiff_front():
    system = leveque_yee(beta=-1000.0, step_position=0.3)
    config = RunConfig(order=3, cfl=0.1, alpha=2.4, t_out=0.3, boundary="transmissive")
    grid = Grid(0.0, 1.0, 100)
    report = run(system, grid, config)
    q = report.field.interior[:, 0]
    x = grid.cell_centers
    dx = grid.dx

    above = np.flatnonzero(q >= 0.5)
    front = x[above.max()] if above.size else math.nan
    _check(
        "stiff front: last cell with q >= 0.5 within 2 dx of x = 0.6",
        above.size > 0 and abs(front - 0.6) <= 2.0 * dx,
        f"front at x = {front:.4f}, target 0.6 +/- {2 * dx}",
    )

    away = np.abs(x - 0.6) > 2.0 * dx
    dist = np.minimum(np.abs(q[away]), np.abs(q[away] - 1.0)).max()
    _check(
        "stiff front: plateaus within 1e-3 of {0, 1} away from the front",
        dist <= 1e-3,
        f"max plateau deviation {dist:.2e}",
    )


# --------------------------------------------------------------------------
# 3. Linear stability maps
# --------------------------------------------------------------------------


def test_criterion_3a_first_order_stability_boundary():
    query = StabilityQuery(order=1, predictor="explicit", alpha=1.0, n_scenarios=1)
    fractions = {c: stability_fraction(float(c), 0.0, query) for c in DEFAULT_C_GRID}
    low = all(f == 1.0 for c, f in fractions.items() if c <= 0.99)
    high = all(f == 0.0 for c, f in fractions.items() if c >= 1.01)
    _check(
        "first-order flux, r = 0: stable fraction 1 for c <= 0.99",
        low,
        "all default c grid points",
    )
    _check(
        "first-order flux, r = 0: stable fraction 0 for c >= 1.01",
        high,
        "all default c grid points",
    )


def test_criterion_3b_fifth_order_stable_at_low_courant():
    query = StabilityQuery(order=5, predictor="implicit", alpha=1.0)
    fractions = np.array(
        [stability_fraction(0.1, float(r), query) for r in DEFAULT_R_GRID]
    )
    _check(
        "fifth-order implicit, alpha = 1: stable fraction 1 at c = 0.1 for "
        "every r in [-10, 0]",
        bool((fractions == 1.0).all()),
        f"min fraction {fractions.min():.2f} over {fractions.size} r points",
    )


def test_criterion_3c_large_alpha_shrinks_stable_area():
    c_values = np.round(np.arange(1, 25) * 0.05, 10)
    r_values = np.round(np.linspace(-10.0, 0.0, 11), 10)
    areas = {}
    for alpha in (1.0, 100.0):
        query = StabilityQuery(order=5, predictor="implicit", alpha=alpha, n_scenarios=25)
        fractions = stability_map(query, c_values, r_values)
        areas[alpha] = int(np.sum(fractions == 1.0))
    _check(
        "fifth-order implicit: stable area at alpha = 100 below alpha = 1",
        areas[100.0] < areas[1.0],
        f"area(100) = {areas[100.0]}, area(1) = {areas[1.0]} of {c_values.size * r_values.size}",
    )


# --------------------------------------------------------------------------
# 4. Property suites
# --------------------------------------------------------------------------


def _formed_path_jump(system, ql, qr):
    """Atilde (qR - qL), Atilde formed as A averaged at the segment's three Gauss points."""
    rule = gauss_legendre(3)
    atilde = sum(w * system.matrix(ql + s * (qr - ql)) for s, w in zip(rule.nodes, rule.weights))
    return atilde @ (qr - ql)


def test_criterion_4a_flux_split_consistency():
    # D+ + D- is the time-integrated jump of the interface: the flux jump for
    # a source-free flux law, which is taken in flux form (Euler), and the
    # segment-path average of A times qR - qL for a path-conservative one.
    rules = space_time_rules(3)
    weights = rules.trace_rule.weights
    rng = np.random.default_rng(42)
    dt, dx, alpha = 0.004, 0.05, 2.0
    cases = [
        (euler_ideal_gas(), np.array([1.0, 0.5, 2.0]), lambda s, a, b: s.flux(b) - s.flux(a)),
        (noncons_system(), np.array([1.0, 1.0]), _formed_path_jump),
    ]
    worst = 0.0
    for system, base, jump in cases:
        for _ in range(1000):
            ql = base * (1.0 + 0.1 * rng.standard_normal((rules.trace_rule.n, system.m)))
            qr = base * (1.0 + 0.1 * rng.standard_normal((rules.trace_rule.n, system.m)))
            fl = interface_fluctuations(system, ql[None], qr[None], weights, alpha, dt, dx)
            total = sum(w * jump(system, a, b) for w, a, b in zip(weights, ql, qr))
            worst = max(worst, np.max(np.abs(fl.dplus[0] + fl.dminus[0] - total)))
    _check(
        "flux splitting: D+ + D- equals the time-integrated jump, F(qR) - F(qL) "
        "for Euler and the path average for the non-conservative law "
        "(1000 random trace pairs each, 1e-13)",
        worst <= 1e-13,
        f"worst residual {worst:.2e}",
    )


def test_criterion_4b_reconstruction_oracles():
    rng = np.random.default_rng(11)
    worst = 0.0
    for degree in (1, 2, 3, 4):
        beta = rng.standard_normal(degree + 1)
        poly = sum(
            b * np.polynomial.Polynomial(weno.legendre_coefficients(l))
            for l, b in enumerate(beta)
        )
        prim = poly.integ()
        offsets = range(-degree, degree + 1)
        averages = np.array([prim(u + 1.0) - prim(u) for u in offsets])
        coeffs = weno.reconstruct_batch(averages[None, :, None], degree)
        worst = max(worst, np.max(np.abs(coeffs[0, 0] - beta)))
    _check(
        "WENO: degree-M polynomial averages reproduce the polynomial (1e-12)",
        worst <= 1e-12,
        f"worst coefficient error {worst:.2e}",
    )

    w = weno.nonlinear_weights(np.zeros(3))
    rand = weno.nonlinear_weights(rng.uniform(0.0, 5.0, size=3))
    _check(
        "WENO: nonlinear weights normalized, including all-zero indices",
        abs(w.sum() - 1.0) <= 1e-15 and abs(rand.sum() - 1.0) <= 1e-15 and (w >= 0).all(),
        f"sums {w.sum():.16f}, {rand.sum():.16f}",
    )

    worst = 0.0
    for degree in (1, 2, 3, 4):
        for kind in ("left", "central", "right"):
            mat = weno.stencil_matrix(degree, kind)
            for i, off in enumerate(weno.stencil_offsets(degree, kind)):
                for l in range(degree + 1):
                    prim = np.polynomial.Polynomial(
                        weno.legendre_coefficients(l)
                    ).integ()
                    worst = max(worst, abs(mat[i, l] - (prim(off + 1.0) - prim(off))))
    _check(
        "WENO: stencil matrices match the integral oracle (1e-13)",
        worst <= 1e-13,
        f"worst entry error {worst:.2e}",
    )


def test_criterion_4c_time_derivative_oracles():
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(1000):
        order = 1 + trial % 4
        lam = rng.uniform(-3.0, 3.0)
        beta = rng.uniform(-5.0, 5.0)
        d = rng.standard_normal((order + 1, 1))
        system = scalar_advection_reaction(lam=lam, beta=beta)
        got = ck_time_derivatives(system, d, order)
        for k in range(1, order + 1):
            ref = sum(
                math.comb(k, j) * (-lam) ** j * beta ** (k - j) * d[j, 0]
                for j in range(k + 1)
            )
            worst = max(worst, abs(got[k - 1, 0] - ref) / (1.0 + abs(ref)))
    _check(
        "time derivatives: generic engine matches the scalar binomial oracle "
        "(1000 draws, 1e-11)",
        worst <= 1e-11,
        f"worst relative error {worst:.2e}",
    )

    system = linear_system(lam=1.3, beta=-0.7)
    a = np.array([[0.0, 1.3], [1.3, 0.0]])
    b = -0.7 * np.eye(2)
    worst = 0.0
    for _ in range(200):
        order = int(rng.integers(1, 5))
        d = rng.standard_normal((order + 1, 2))
        got = ck_time_derivatives(system, d, order)
        levels = [d.copy()]
        for _ in range(order):
            prev = levels[-1]
            nxt = np.zeros_like(prev)
            for j in range(prev.shape[0] - 1):
                nxt[j] = prev[j] @ b.T - prev[j + 1] @ a.T
            levels.append(nxt)
        ref = np.stack([levels[k][0] for k in range(1, order + 1)])
        worst = max(worst, np.max(np.abs(got - ref)) / (1.0 + np.max(np.abs(ref))))
    _check(
        "time derivatives: generic engine matches the matrix-recursion oracle "
        "(1e-11)",
        worst <= 1e-11,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_4d_equilibrium_and_conservation():
    worst = 0.0
    cases = [
        (leveque_yee(beta=-1000.0), np.array([1.0])),
        (noncons_system(), np.array([1.0, 1.0])),
        (euler_ideal_gas(), np.array([1.0, 0.0, 2.5])),
    ]
    for system, state in cases:
        config = RunConfig(order=4, cfl=0.5, alpha=2.0, t_out=1.0, boundary="periodic")
        grid = Grid(0.0, 1.0, 12)
        fld = CellField(grid, np.tile(state, (grid.n_cells, 1)))
        step(system, fld, config, dt=0.01)
        worst = max(worst, np.max(np.abs(fld.interior - state)))
    _check(
        "uniform equilibrium data is a fixed point of the full step (1e-13)",
        worst <= 1e-13,
        f"worst drift {worst:.2e}",
    )

    # Euler is a flux law without a source, so its update is taken in flux
    # form and telescopes: its totals move at round-off on any data, not only
    # on this density wave, along which the flux is linear
    # (``test_source_free_flux_laws_conserve_to_round_off``).
    system = euler_ideal_gas()
    config = RunConfig(order=3, cfl=0.1, alpha=2.0, t_out=1.0, boundary="periodic")
    grid = Grid(0.0, 1.0, 32)
    report = run(system, grid, config)
    totals = grid.dx * np.abs(report.field.interior.sum(axis=0))
    rel = np.max(np.abs(report.conservation_drift) / totals)
    _check(
        "Euler: periodic conservation drift at most 1e-9 relative over a full run",
        rel <= 1e-9,
        f"relative drift {rel:.2e}",
    )


def test_criterion_4e_one_step_consistency_order():
    system = linear_system()
    for order in (2, 3, 4, 5):
        errs = []
        for n in (32, 64):
            grid = Grid(0.0, 1.0, n)
            config = RunConfig(order=order, cfl=0.1, alpha=1.9, t_out=1.0,
                               boundary="periodic")
            fld = initial_field(system, grid, config)
            dt = config.cfl * grid.dx
            step(system, fld, config, dt)
            linf, _, _ = error_norms(fld, system.exact_solution, dt)
            errs.append(float(np.max(linf)))
        rate = math.log(errs[0] / errs[1], 2.0)
        _check(
            f"one-step error of the order-{order} scheme shrinks at least as "
            f"dt^{order} under dyadic refinement",
            rate >= order,
            f"observed rate {rate:.2f}",
        )


# --------------------------------------------------------------------------
# 5. Runtime columns are informational only
# --------------------------------------------------------------------------


def test_criterion_5_cpu_columns_informational():
    system = linear_system()
    config = RunConfig(order=2, cfl=0.1, alpha=1.9, t_out=0.25, boundary="periodic")
    rows = convergence_study(system, config, [8, 16])
    ok = all(r.cpu_seconds > 0.0 for r in rows)
    _check(
        "wall-clock columns emitted for information only (no timing baseline "
        "is reproduced)",
        ok,
        f"cpu_seconds present on {len(rows)} rows",
    )
