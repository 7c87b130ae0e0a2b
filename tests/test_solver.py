"""Full update loop: time stepping, equilibria, local order, bookkeeping."""

import numpy as np
import pytest

from aderfv.grid import CellField, Grid, RunConfig, error_norms, exact_cell_averages
from aderfv.solver import (
    compute_dt,
    convergence_study,
    format_convergence_table,
    initial_field,
    run,
    step,
)
from aderfv.systems import (
    euler_ideal_gas,
    leveque_yee,
    linear_system,
    noncons_system,
    scalar_advection_reaction,
)


def test_compute_dt_scalar():
    system = scalar_advection_reaction(lam=1.0)
    g = Grid(0.0, 1.0, 100)
    cfg = RunConfig(order=3, cfl=0.1)
    fld = initial_field(system, g, cfg)
    assert compute_dt(system, fld, cfg) == pytest.approx(1e-3)


def test_compute_dt_clipping():
    system = scalar_advection_reaction(lam=2.0)
    g = Grid(0.0, 1.0, 10)
    cfg = RunConfig(order=2, cfl=0.5, dt_max=1e-3)
    fld = initial_field(system, g, cfg)
    assert compute_dt(system, fld, cfg) == pytest.approx(1e-3)  # dt_max binds
    assert compute_dt(system, fld, cfg, t_remaining=2e-4) == pytest.approx(2e-4)


def test_compute_dt_zero_wave_speed():
    system = scalar_advection_reaction(lam=0.0, beta=-1.0)
    g = Grid(0.0, 1.0, 10)
    fld = initial_field(system, g, RunConfig(order=2))
    cfg = RunConfig(order=2, dt_max=0.01)
    assert compute_dt(system, fld, cfg) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        compute_dt(system, fld, RunConfig(order=2))


def test_first_order_upwind_hand_calculation():
    # lam = 1, c = dt/dx = 1/2 and alpha dt/dx = 1 make the centred split
    # exactly upwind; one step of data (1,2,3,4) gives (2.5, 1.5, 2.5, 3.5).
    system = scalar_advection_reaction(lam=1.0, beta=0.0)
    g = Grid(0.0, 1.0, 4)
    cfg = RunConfig(order=1, alpha=2.0)
    fld = CellField.from_cell_averages(g, np.array([1.0, 2.0, 3.0, 4.0])[:, None], ghost=1)
    step(system, fld, cfg, dt=0.125)
    np.testing.assert_allclose(fld.interior[:, 0], [2.5, 1.5, 2.5, 3.5], atol=1e-14)


@pytest.mark.parametrize(
    "factory,state",
    [
        (lambda: leveque_yee(beta=-1000.0), np.array([1.0])),
        (noncons_system, np.array([1.0, 1.0])),
        (euler_ideal_gas, np.array([1.0, 0.0, 2.5])),
    ],
)
def test_equilibrium_is_preserved(factory, state):
    # Constant data at S(Q*) = 0 must stay put to near machine precision.
    system = factory()
    g = Grid(0.0, 1.0, 12)
    cfg = RunConfig(order=4, alpha=2.0)
    fld = CellField.from_cell_averages(
        g, np.tile(state, (12, 1)), ghost=cfg.order
    )
    step(system, fld, cfg, dt=2e-3)
    np.testing.assert_allclose(fld.interior, np.tile(state, (12, 1)), atol=1e-13)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_one_step_local_order(order):
    # One step from exact cell averages, refining dx and dt together: the
    # defect after a single update shrinks at order >= M+1 (observed M+2).
    system = linear_system()
    errs = []
    for n in (32, 64):
        g = Grid(0.0, 1.0, n)
        cfg = RunConfig(order=order, cfl=0.1, alpha=1.9)
        fld = initial_field(system, g, cfg)
        dt = compute_dt(system, fld, cfg)
        step(system, fld, cfg, dt)
        linf, _, _ = error_norms(fld, system.exact_solution, dt)
        errs.append(np.max(linf))
    observed = np.log2(errs[0] / errs[1])
    assert observed >= order - 0.4


def test_run_zero_horizon_echoes_initial_data():
    system = linear_system()
    g = Grid(0.0, 1.0, 16)
    cfg = RunConfig(order=3, t_out=0.0)
    rep = run(system, g, cfg)
    assert rep.n_steps == 0 and rep.t_final == 0.0
    expect = exact_cell_averages(g, system.exact_solution, 0.0)
    np.testing.assert_allclose(rep.field.interior, expect, atol=1e-13)


def test_run_lands_on_requested_time():
    system = scalar_advection_reaction()
    g = Grid(0.0, 1.0, 20)
    cfg = RunConfig(order=2, t_out=0.0173)
    rep = run(system, g, cfg)
    assert rep.t_final == pytest.approx(0.0173, abs=1e-14)
    assert rep.n_steps == len(rep.steps) > 0
    # A constant-coefficient law solves its predictor without a Newton sweep.
    assert rep.max_sweeps == 0
    assert rep.wall_seconds > 0


def test_euler_conservation_drift():
    system = euler_ideal_gas()
    g = Grid(0.0, 1.0, 24)
    cfg = RunConfig(order=3, alpha=2.0, t_out=0.05)
    rep = run(system, g, cfg)
    initial = exact_cell_averages(g, system.exact_solution, 0.0).sum(axis=0)
    final = rep.field.interior.sum(axis=0)
    assert np.max(np.abs(final - initial) / np.abs(initial)) < 1e-12
    assert rep.conservation_drift is not None


def test_transmissive_run_moves_front():
    # Quick qualitative check: the stiff model pushes its front rightward.
    system = leveque_yee(beta=-1000.0)
    g = Grid(0.0, 1.0, 50)
    cfg = RunConfig(order=3, alpha=2.4, t_out=0.1, boundary="transmissive")
    rep = run(system, g, cfg)
    q = rep.field.interior[:, 0]
    front = g.cell_centers[q >= 0.5][-1]
    assert 0.35 < front < 0.55  # started at 0.3, speed 1
    assert np.all(q < 1.0 + 1e-6) and np.all(q > -1e-6)
    assert rep.max_sweeps >= 1  # the nonlinear source runs the Newton loop


def test_convergence_study_reports_orders():
    system = scalar_advection_reaction()
    cfg = RunConfig(order=2, t_out=0.2)
    rows = convergence_study(system, cfg, meshes=[8, 16, 32])
    assert [r.n_cells for r in rows] == [8, 16, 32]
    assert np.isnan(rows[0].order_l1)
    assert rows[-1].order_l1 > 1.5
    assert rows[-1].l1 < rows[0].l1
    table = format_convergence_table(rows)
    assert "l1" in table.lower() and "32" in table


def test_convergence_study_requires_exact_solution():
    system = leveque_yee()
    with pytest.raises(ValueError):
        convergence_study(system, RunConfig(order=2, t_out=0.1), meshes=[8, 16])


def test_threaded_stiff_run_is_bit_identical():
    # Each predictor thread borrows its own workspace, with the tapes kept
    # on it, so a threaded run repeats the serial one exactly.
    cfg = RunConfig(order=3, cfl=0.1, alpha=2.4, t_out=0.1, boundary="transmissive")
    serial = run(leveque_yee(), Grid(0.0, 1.0, 100), cfg)
    threaded = run(leveque_yee(), Grid(0.0, 1.0, 100), cfg, threads=2)
    assert threaded.n_steps == serial.n_steps == 100
    assert threaded.max_sweeps == serial.max_sweeps
    np.testing.assert_array_equal(threaded.field.interior, serial.field.interior)
