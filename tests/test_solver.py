"""Full update loop: time stepping, equilibria, local order, bookkeeping."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from aderfv.grid import CellField, Grid, RunConfig, error_norms, exact_cell_averages
from aderfv import ckjet, predictor, solver, systems
from aderfv.solver import (
    StepError,
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
    primitive_to_conserved,
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
    cfg = RunConfig(order=2, cfl=0.5)
    fld = initial_field(system, g, cfg)
    assert compute_dt(system, fld, cfg) == pytest.approx(0.025)
    assert compute_dt(system, fld, cfg, t_remaining=2e-4) == pytest.approx(2e-4)  # binds
    assert compute_dt(system, fld, cfg, t_remaining=1.0) == pytest.approx(0.025)


def test_compute_dt_zero_wave_speed():
    # With no wave speed the remaining time is the step; without one there is none.
    system = scalar_advection_reaction(lam=0.0, beta=-1.0)
    g = Grid(0.0, 1.0, 10)
    cfg = RunConfig(order=2)
    fld = initial_field(system, g, cfg)
    assert compute_dt(system, fld, cfg, t_remaining=0.01) == pytest.approx(0.01)
    with pytest.raises(ValueError, match="cannot pick a time step"):
        compute_dt(system, fld, cfg)


def test_compute_dt_rejects_a_non_finite_cell_average():
    # A NaN average has no wave speed, so there is no step to take.
    system = euler_ideal_gas()
    cfg = RunConfig(order=3, cfl=0.1)
    fld = initial_field(system, Grid(0.0, 1.0, 16), cfg)
    fld.interior[7] = np.nan
    with pytest.raises(ValueError, match="cannot pick a time step"):
        compute_dt(system, fld, cfg, t_remaining=0.5)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -1e-3, 0.0])
@pytest.mark.parametrize("make", [leveque_yee, euler_ideal_gas, linear_system])
def test_step_rejects_a_step_size_that_is_not_finite_and_positive(make, dt, monkeypatch):
    # The Newton route with a source, the flux-form Newton route and the
    # closed-form route: each names dt before any work, and no warning
    # escapes. The field is left unchanged.
    def forbidden(*args, **kwargs):
        raise AssertionError("a step with a bad dt did work")

    monkeypatch.setattr(solver, "reconstruct_batch", forbidden)
    monkeypatch.setattr(solver, "build_predictor_tables", forbidden)
    system = make()
    cfg = RunConfig(order=3, cfl=0.1, alpha=2.0, boundary="periodic")
    fld = initial_field(system, Grid(0.0, 1.0, 16), cfg)
    before = fld.interior.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            step(system, fld, cfg, dt)
    np.testing.assert_array_equal(fld.interior, before)


@pytest.mark.parametrize("boundary", ["periodic", "transmissive"])
@pytest.mark.parametrize("cell", [0, 32, 63])
def test_non_hyperbolic_initial_cell_stops_the_predictor_there(cell, boundary):
    # u < 0 gives the non-conservative law complex wave speeds lam +- sqrt(u).
    # The time step is still picked from |lambda|; the predictor rejects the
    # cell's inadmissible states at step 1 and names that cell, also where
    # the tables past an end of the grid hold it as an image or a copy.
    system = noncons_system()
    base = system.initial_condition

    def initial_condition(x):
        q = base(x)
        q[(x >= cell / 64) & (x < (cell + 1) / 64), 0] = -0.5
        return q

    system = dataclasses.replace(system, initial_condition=initial_condition)
    cfg = RunConfig(order=5, cfl=0.1, alpha=2.2, t_out=0.05, boundary=boundary)
    with pytest.raises(predictor.PredictorError) as err:
        run(system, Grid(0.0, 1.0, 64), cfg)
    details = err.value.details
    assert details["step"] == 1 and details["t"] == 0.0
    assert set(details["cells"]) == {cell}


@pytest.mark.parametrize("boundary", ["periodic", "transmissive"])
@pytest.mark.parametrize("cell", [0, 15])
def test_non_finite_reconstruction_at_an_end_names_grid_cells(cell, boundary):
    # A NaN average spoils every order-3 window within two cells of it; the
    # windows past an end of the grid are named by the cells at their centres.
    n = 16
    fld = CellField(Grid(0.0, 1.0, n), np.ones((n, 2)))
    fld.interior[cell] = np.nan
    cfg = RunConfig(order=3, boundary=boundary)
    with pytest.raises(StepError, match="non-finite reconstruction") as err:
        step(linear_system(), fld, cfg, dt=0.01)
    near = cell + np.arange(-2, 3)
    near = near % n if boundary == "periodic" else np.clip(near, 0, n - 1)
    assert set(err.value.details["cells"]) == set(near)


def test_first_order_upwind_hand_calculation():
    # lam = 1, c = dt/dx = 1/2 and alpha dt/dx = 1 make the centred split
    # exactly upwind; one step of data (1,2,3,4) gives (2.5, 1.5, 2.5, 3.5).
    system = scalar_advection_reaction(lam=1.0, beta=0.0)
    g = Grid(0.0, 1.0, 4)
    cfg = RunConfig(order=1, alpha=2.0)
    fld = CellField(g, np.array([1.0, 2.0, 3.0, 4.0])[:, None])
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
    fld = CellField(g, np.tile(state, (12, 1)))
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


def _three_primitive_wave(x):
    x = np.asarray(x)
    phase = 2.0 * np.pi * x
    return primitive_to_conserved(
        1.0 + 0.2 * np.sin(phase), 1.0 + 0.1 * np.sin(phase), 2.0 + 0.3 * np.cos(phase)
    )


_FLUX_FORM_LAWS = {
    # Euler on a wave in all three primitives, on the Newton route: before the
    # flux form its totals drifted by 7.2e-9, 3.4e-8, 7.1e-12 and 1.7e-12 at
    # orders 2-5, the flux being nonlinear along it.
    "euler-wave": lambda: dataclasses.replace(
        euler_ideal_gas(), initial_condition=_three_primitive_wave
    ),
    # A constant-coefficient law, on the closed-form route.
    "scalar-advection": lambda: dataclasses.replace(
        scalar_advection_reaction(), source_terms=None
    ),
}


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("law", list(_FLUX_FORM_LAWS))
def test_source_free_flux_laws_conserve_to_round_off(law, order):
    # The interface and volume terms both take the flux at the predictor
    # traces, so the update telescopes over a periodic grid.
    system = _FLUX_FORM_LAWS[law]()
    assert system.flux_form
    cfg = RunConfig(order=order, cfl=0.1, alpha=2.0, t_out=0.05, boundary="periodic")
    rep = run(system, Grid(0.0, 1.0, 64), cfg)
    assert np.max(np.abs(rep.conservation_drift)) <= 1e-14


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


@pytest.mark.parametrize("order", [3, 5])
def test_affine_source_with_an_offset_converges_on_newton(order):
    # u_t + u_x = 1 - u, exact u = 1 + exp(-t) sin 2 pi (x - t): its forms
    # are affine, but S(0) = 1, so the law is not constant-coefficient and
    # its tables take Newton sweeps. The L1 order reaches M + 1 - 1/2.
    two_pi = 2.0 * np.pi
    system = systems.SystemDescriptor(
        name="relaxing-wave",
        m=1,
        initial_condition=lambda x: (1.0 + np.sin(two_pi * np.asarray(x)))[..., None],
        flux_terms=lambda q: [q[0]],
        source_terms=lambda q: [1.0 - q[0]],
        exact_solution=lambda x, t: (1.0 + np.exp(-t) * np.sin(two_pi * (np.asarray(x) - t)))[..., None],
    )
    assert not system.constant_coefficients
    cfg = RunConfig(order=order, cfl=0.1, alpha=2.0, t_out=0.25, boundary="periodic")
    errors = []
    for n_cells in (16, 32, 64):
        rep = run(system, Grid(0.0, 1.0, n_cells), cfg)
        assert rep.max_sweeps >= 1
        errors.append(error_norms(rep.field, system.exact_solution, rep.t_final)[1][0])
    assert np.log2(errors[1] / errors[2]) >= order - 0.5


def test_convergence_study_requires_exact_solution():
    system = leveque_yee()
    with pytest.raises(ValueError):
        convergence_study(system, RunConfig(order=2, t_out=0.1), meshes=[8, 16])


@pytest.mark.parametrize("meshes", [[8.9], [True], [8, 0]])
def test_convergence_study_rejects_bad_meshes(meshes):
    # A mesh is a positive integer cell count; the check comes before any run.
    cfg = RunConfig(order=3, t_out=0.1, boundary="periodic")
    with pytest.raises(ValueError, match="meshes"):
        convergence_study(linear_system(), cfg, meshes=meshes)


@pytest.mark.parametrize("factory,alpha", [(linear_system, 1.9), (euler_ideal_gas, 2.0)])
@pytest.mark.parametrize("order", [1, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_periodic_run_on_few_cells_matches_the_tiled_run(factory, alpha, order, n):
    # Both initial conditions have period 1, so a periodic run on n cells of
    # [0, 1] is k copies of itself on k*n cells of [0, k]. The tiled grid is
    # wide enough that no stencil wraps onto its own cell, yet the n-cell run
    # wraps its stencils, the ones of n = 1 through one cell 2M+1 times.
    system = factory()
    cfg = RunConfig(order=order, cfl=0.1, alpha=alpha, t_out=0.1, boundary="periodic")
    k = -(-(2 * order - 1) // n)
    few = run(system, Grid(0.0, 1.0, n), cfg)
    tiled = run(system, Grid(0.0, float(k), k * n), cfg)
    assert few.n_steps == tiled.n_steps
    np.testing.assert_allclose(tiled.field.interior, np.tile(few.field.interior, (k, 1)),
                               rtol=0, atol=1e-14)


_SMOOTH_RUNS = {
    "euler5x64": (euler_ideal_gas, 64,
                  RunConfig(order=5, cfl=0.1, alpha=2.0, t_out=0.05, boundary="periodic")),
    "noncons5x64": (noncons_system, 64,
                    RunConfig(order=5, cfl=0.1, alpha=2.2, t_out=0.05, boundary="periodic")),
}
_STIFF_FRONT = RunConfig(order=3, cfl=0.1, alpha=2.4, t_out=0.3, boundary="transmissive")


# Each reference run: law, cells, configuration, step count, largest sweep
# count, and how far its final cell averages may lie from the recorded ones
# in ``data/reference_fields.npz`` (see ``data/record_reference_fields.py``).
# The LeVeque-Yee runs solve only 1 x 1 systems, by division, so they must
# agree exactly; the others may move at round-off.
REFERENCE_RUNS = {
    "euler5x64": (*_SMOOTH_RUNS["euler5x64"], 92, 2, 1e-12),
    "noncons5x64": (*_SMOOTH_RUNS["noncons5x64"], 65, 2, 1e-12),
    "leveque-yee3x100": (leveque_yee, 100, _STIFF_FRONT, 300, 7, 0.0),
    "leveque-yee3x100-beta2000": (
        lambda: leveque_yee(beta=-2000.0), 100, _STIFF_FRONT, 300, 8, 0.0
    ),
    "leveque-yee3x100-beta3000": (
        lambda: leveque_yee(beta=-3000.0), 100, _STIFF_FRONT, 300, 12, 0.0
    ),
}
_REFERENCE_FIELDS = Path(__file__).parent / "data" / "reference_fields.npz"


@pytest.mark.parametrize("name", list(REFERENCE_RUNS))
def test_reference_runs_keep_steps_and_sweeps(name):
    # The refreshed Jacobians are the total derivative through the derivative
    # chain, taken after every step larger than sqrt(fp_tol), so the stiff
    # front converges in a few sweeps: 7, 8 and 12 at beta = -1000, -2000
    # and -3000, against 12, 33 and an abort with D_1..D_M held.
    make, n_cells, cfg, n_steps, max_sweeps, atol = REFERENCE_RUNS[name]
    rep = run(make(), Grid(0.0, 1.0, n_cells), cfg)
    assert rep.n_steps == n_steps
    assert 1 <= rep.max_sweeps <= max_sweeps
    assert np.all(np.isfinite(rep.field.interior))
    with np.load(_REFERENCE_FIELDS) as recorded:
        np.testing.assert_allclose(rep.field.interior, recorded[name], rtol=0, atol=atol)


def test_stiff_reference_run_takes_one_jet_per_sweep(monkeypatch):
    # A step takes one jet over its node stacks for the explicit starts, and
    # each Newton sweep one CK jet: a sweep that refreshes Jacobians carries
    # its batch's residuals in the refreshed points' complex-step jet. No
    # descent check fires in this run, so there is no other jet. The
    # derivative chains and the law-derivative evaluations are counted too,
    # so a change that adds either shows here. Each step's interfaces take
    # two of the latter, the path average applied twice without forming it.
    jets, sweeps, chains, derivatives = [], [], [], []
    exact_jet, exact_sweep = ckjet.ck_time_derivatives, predictor._sweep
    exact_chain, exact_derivative = predictor.solve_derivative_chain, systems._terms_product
    monkeypatch.setattr(ckjet, "ck_time_derivatives", lambda *a: jets.append(1) or exact_jet(*a))
    monkeypatch.setattr(predictor, "_sweep", lambda *a: sweeps.append(1) or exact_sweep(*a))
    monkeypatch.setattr(
        predictor, "solve_derivative_chain", lambda *a: chains.append(1) or exact_chain(*a)
    )
    monkeypatch.setattr(
        systems, "_terms_product", lambda *a: derivatives.append(1) or exact_derivative(*a)
    )
    make, n_cells, cfg = REFERENCE_RUNS["leveque-yee3x100"][:3]
    rep = run(make(), Grid(0.0, 1.0, n_cells), cfg)
    assert (rep.n_steps, len(sweeps)) == (300, 1221)
    assert len(jets) == rep.n_steps + len(sweeps) == 1521
    assert (len(chains), len(derivatives)) == (1819, 4838)


def test_stiff_reference_run_reports_its_newton_batch_sizes(monkeypatch):
    # Each step reports the points entering each Newton sweep it counts: the
    # first is its Newton point count, 102 tables of 3 x 3 interior points
    # and 2 x 2 trace points off tau = 0, and the batch never grows. Over
    # the run they add up to the batches that ``_sweep`` is handed.
    seen = []
    exact_sweep = predictor._sweep
    monkeypatch.setattr(predictor, "_sweep", lambda *a: seen.append(len(a[1])) or exact_sweep(*a))
    make, n_cells, cfg = REFERENCE_RUNS["leveque-yee3x100"][:3]
    rep = run(make(), Grid(0.0, 1.0, n_cells), cfg)
    for s in rep.steps:
        assert len(s.batch_sizes) == s.predictor_sweeps >= 1
        assert s.batch_sizes[0] == 1326
        assert all(later <= earlier for earlier, later in zip(s.batch_sizes, s.batch_sizes[1:]))
    assert sum(sum(s.batch_sizes) for s in rep.steps) == sum(seen)


@pytest.mark.parametrize("name", list(_SMOOTH_RUNS))
def test_smooth_reference_runs_take_no_total_derivative(name, monkeypatch):
    # Every Newton step of a smooth run stays far inside the node chord's
    # quadratic range (below 1e-8 of the state scale on the first sweep),
    # so no point refreshes its Jacobian.
    calls = []
    exact = predictor.residual_and_jacobian
    monkeypatch.setattr(
        predictor, "residual_and_jacobian", lambda *a, **k: calls.append(1) or exact(*a, **k)
    )
    make, n_cells, cfg = _SMOOTH_RUNS[name]
    run(make(), Grid(0.0, 1.0, n_cells), cfg)
    assert not calls


@pytest.mark.parametrize(
    "name, steps", [("leveque-yee3x100", 30), ("euler5x64", 0), ("noncons5x64", 0)]
)
def test_predictor_tables_do_not_depend_on_the_batch_partition(name, steps, monkeypatch):
    # The tables of a step's cells solved as one batch, in two halves and one
    # cell at a time. Converged points leave the batch, so a point's sweeps
    # do not depend on the others. What is left is the BLAS product that
    # takes the reconstruction to the nodes: its last bit can follow the
    # number of cells (1.1e-16 in 43 of the 102 LeVeque-Yee cells alone).
    make, n_cells, cfg = REFERENCE_RUNS[name][:3]
    system = make()
    fld = initial_field(system, Grid(0.0, 1.0, n_cells), cfg)
    for _ in range(steps):
        step(system, fld, cfg, compute_dt(system, fld, cfg))
    calls = []
    exact = solver.build_predictor_tables
    monkeypatch.setattr(
        solver, "build_predictor_tables", lambda *args: calls.append(args) or exact(*args)
    )
    step(system, fld, cfg, compute_dt(system, fld, cfg))
    (_, coeffs, dt, dx, _), = calls
    whole = exact(system, coeffs, dt, dx, cfg)
    half = len(coeffs) // 2
    for parts in ([slice(0, half), slice(half, None)], [slice(c, c + 1) for c in range(len(coeffs))]):
        tables = [exact(system, coeffs[p], dt, dx, cfg) for p in parts]
        for field in ("values", "trace_left", "trace_right"):
            np.testing.assert_allclose(
                np.concatenate([getattr(t, field) for t in tables]), getattr(whole, field),
                rtol=0, atol=1e-14,
            )


def _blow_up_cell(monkeypatch, cell, value):
    """Interface fluctuations that put ``value`` into the update of ``cell``."""
    exact = solver.interface_fluctuations

    def patched(*args, **kwargs):
        fl = exact(*args, **kwargs)
        fl.dplus[cell] = value  # interface left of interior cell ``cell``
        return fl

    monkeypatch.setattr(solver, "interface_fluctuations", patched)


def test_non_finite_update_raises_at_once(monkeypatch):
    # The predictor succeeds; the update of cell 3 is infinite. The step
    # names that cell and its state, and leaves the field as it was.
    system = euler_ideal_gas()
    cfg = RunConfig(order=3, cfl=0.1, alpha=2.0, t_out=0.01, boundary="periodic")
    fld = initial_field(system, Grid(0.0, 1.0, 16), cfg)
    before = fld.interior.copy()
    _blow_up_cell(monkeypatch, 3, np.inf)
    with pytest.raises(StepError) as err:
        step(system, fld, cfg, compute_dt(system, fld, cfg))
    np.testing.assert_array_equal(err.value.details["cells"], [3])
    assert not np.all(np.isfinite(err.value.details["states"][0]))
    np.testing.assert_array_equal(fld.interior, before)


def test_inadmissible_update_in_a_run_names_step_and_time(monkeypatch):
    # A finite update that leaves Euler's admissible set (negative density)
    # stops the run at that step, with the step number and start time.
    system = euler_ideal_gas()
    cfg = RunConfig(order=3, cfl=0.1, alpha=2.0, t_out=0.01, boundary="periodic")
    _blow_up_cell(monkeypatch, 5, 1e6)
    with pytest.raises(StepError) as err:
        run(system, Grid(0.0, 1.0, 16), cfg)
    details = err.value.details
    assert details["step"] == 1 and details["t"] == 0.0
    np.testing.assert_array_equal(details["cells"], [5])
    assert details["states"][0, 0] < 0.0


def test_blown_up_field_stops_at_its_reconstruction():
    # At beta = -1e120 the first update is finite but astronomically large at
    # the front; the next reconstruction overflows there, and the run stops
    # naming those cells and their averages, not a predictor failure.
    cfg = RunConfig(order=3, cfl=0.1, alpha=2.4, t_out=0.01, boundary="transmissive")
    with pytest.raises(StepError) as err:
        run(leveque_yee(beta=-1e120), Grid(0.0, 1.0, 20), cfg)
    details = err.value.details
    assert str(err.value) == "non-finite reconstruction"
    assert details["step"] == 2 and details["t"] > 0.0
    np.testing.assert_array_equal(details["cells"], [6, 7])
    assert np.all(np.abs(details["states"]) > 1e30)
