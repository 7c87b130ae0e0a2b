"""One-step finite-volume update, time marching, and the convergence harness.

The fully discrete update of cell i over a step of size dt is

  Q_i^{n+1} = Q_i^n - dt/dx (D+_{i-1/2} + D-_{i+1/2}) + dt (S_i - A_i)

with the interface fluctuations D+- built from the predictor traces and the
centred alpha-splitting, S_i the space-time average of the source over the
predictor table, and A_i the space-time average of A(Q) dQ/dx (which reduces
to the flux-divergence average for conservative systems, so conservation is
kept to round-off).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .force_flux import interface_fluctuations, noncons_average, source_average
from .grid import (
    CellField,
    Grid,
    RunConfig,
    apply_boundary,
    error_norms,
    observed_order,
)
from .predictor import PredictorError, build_predictor_tables, space_time_rules
from .systems import SystemDescriptor
from .weno import reconstruct_batch

__all__ = [
    "StepReport",
    "RunReport",
    "ConvergenceRow",
    "initial_field",
    "compute_dt",
    "step",
    "run",
    "check_convergence_inputs",
    "convergence_study",
    "format_convergence_table",
]


@dataclass
class StepReport:
    dt: float
    predictor_sweeps: int
    wall_seconds: float
    mass_change: np.ndarray | None = None  # set for source-free systems


@dataclass
class RunReport:
    field: CellField
    t_final: float
    n_steps: int
    wall_seconds: float
    steps: list[StepReport] = field(default_factory=list)

    @property
    def max_sweeps(self) -> int:
        return max((s.predictor_sweeps for s in self.steps), default=0)

    @property
    def conservation_drift(self) -> np.ndarray | None:
        """Accumulated change of the conserved totals, when tracked."""
        changes = [s.mass_change for s in self.steps]
        if not changes or any(c is None for c in changes):
            return None
        return np.sum(changes, axis=0)


@dataclass
class ConvergenceRow:
    n_cells: int
    linf: float
    l1: float
    l2: float
    order_linf: float
    order_l1: float
    order_l2: float
    cpu_seconds: float


def initial_field(system: SystemDescriptor, grid: Grid, config: RunConfig) -> CellField:
    """Cell-average initial data with a ghost layer wide enough for the order."""
    return CellField.from_function(grid, system.initial_condition, ghost=config.order)


def compute_dt(
    system: SystemDescriptor,
    fld: CellField,
    config: RunConfig,
    t_remaining: float | None = None,
) -> float:
    """CFL time step from the fastest wave of the current interior averages."""
    speed = system.max_wave_speed(fld.interior)
    dt = np.inf if speed == 0.0 else config.cfl * fld.grid.dx / speed
    if config.dt_max is not None:
        dt = min(dt, config.dt_max)
    if t_remaining is not None:
        dt = min(dt, t_remaining)
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError(
            f"cannot pick a time step (wave speed {speed}, dt_max {config.dt_max})"
        )
    return float(dt)


def _reconstruction_windows(fld: CellField, degree: int) -> np.ndarray:
    """Sliding (2M+1)-cell windows for the interior cells plus one ghost each side."""
    g = fld.ghost
    if g < degree + 1:
        raise ValueError(f"ghost width {g} too narrow for degree {degree}")
    win = np.lib.stride_tricks.sliding_window_view(fld.data, 2 * degree + 1, axis=0)
    start = g - 1 - degree
    stop = start + fld.grid.n_cells + 2
    return np.moveaxis(win[start:stop], -1, 1)


def step(
    system: SystemDescriptor,
    fld: CellField,
    config: RunConfig,
    dt: float,
    threads: int = 1,
) -> StepReport:
    """Advance the cell averages in place by one step of size ``dt``."""
    t0 = time.perf_counter()
    dx = fld.grid.dx
    apply_boundary(fld, config.boundary)
    windows = _reconstruction_windows(fld, config.degree)
    coeffs = reconstruct_batch(windows, config.degree)

    rules = space_time_rules(config.order)
    try:
        tables = build_predictor_tables(system, coeffs, dt, dx, config, threads=threads)
    except PredictorError as exc:
        if "cells" in exc.details:
            exc.details["cells"] = exc.details["cells"] - 1  # table j covers cell j-1
        raise

    # Table j covers cell j-1 (tables include one ghost cell per side), so the
    # interface left of interior cell i sits between tables i and i+1.
    fl = interface_fluctuations(
        system,
        tables.trace_right[:-1],
        tables.trace_left[1:],
        rules.trace_rule.weights,
        config.alpha,
        dt,
        dx,
        rules.path_rule,
    )
    src = source_average(system, tables, rules)[1:-1]
    anc = noncons_average(system, tables, rules)[1:-1]

    old = fld.interior.copy() if system.source_free else None
    fld.interior[:] += -dt / dx * (fl.dplus[:-1] + fl.dminus[1:]) + dt * (src - anc)

    mass = None
    if old is not None:
        mass = dx * np.sum(fld.interior - old, axis=0)
    return StepReport(dt, tables.iterations, time.perf_counter() - t0, mass)


def run(
    system: SystemDescriptor,
    grid: Grid,
    config: RunConfig,
    threads: int = 1,
    keep_reports: bool = True,
) -> RunReport:
    """March the system from its initial condition to ``config.t_out``."""
    wall0 = time.perf_counter()
    fld = initial_field(system, grid, config)
    t = 0.0
    reports: list[StepReport] = []
    n_steps = 0
    t_out = config.t_out
    eps = 1e-12 * max(t_out, 1.0)
    while t_out - t > eps:
        dt = compute_dt(system, fld, config, t_remaining=t_out - t)
        rep = step(system, fld, config, dt, threads=threads)
        t += dt
        n_steps += 1
        if keep_reports:
            reports.append(rep)
    return RunReport(fld, t, n_steps, time.perf_counter() - wall0, reports)


def check_convergence_inputs(
    system: SystemDescriptor, meshes: list[int], variable: int
) -> None:
    """Raise ValueError, naming the input, unless a convergence study can run."""
    if system.exact_solution is None:
        raise ValueError(f"system {system.name!r} has no exact solution to compare to")
    if not 0 <= variable < system.m:
        raise ValueError(f"variable must be in 0..{system.m - 1}, got {variable}")
    bad = [n for n in meshes if int(n) < 1]
    if bad:
        raise ValueError(f"meshes must be positive cell counts, got {bad[0]}")


def convergence_study(
    system: SystemDescriptor,
    config: RunConfig,
    meshes: list[int],
    x_lo: float = 0.0,
    x_hi: float = 1.0,
    variable: int = 0,
    threads: int = 1,
) -> list[ConvergenceRow]:
    """Error norms and observed orders of one tracked variable over a mesh family."""
    check_convergence_inputs(system, meshes, variable)
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for n_cells in meshes:
        grid = Grid(x_lo, x_hi, int(n_cells))
        t0 = time.perf_counter()
        report = run(system, grid, config, threads=threads, keep_reports=False)
        cpu = time.perf_counter() - t0
        linf, l1, l2 = error_norms(report.field, system.exact_solution, report.t_final)
        row = ConvergenceRow(
            n_cells=int(n_cells),
            linf=float(linf[variable]),
            l1=float(l1[variable]),
            l2=float(l2[variable]),
            order_linf=observed_order(prev.linf, float(linf[variable])) if prev else float("nan"),
            order_l1=observed_order(prev.l1, float(l1[variable])) if prev else float("nan"),
            order_l2=observed_order(prev.l2, float(l2[variable])) if prev else float("nan"),
            cpu_seconds=cpu,
        )
        rows.append(row)
        prev = row
    return rows


def format_convergence_table(rows: list[ConvergenceRow]) -> str:
    header = (
        f"{'cells':>6} {'Linf':>12} {'ord':>6} {'L1':>12} {'ord':>6} "
        f"{'L2':>12} {'ord':>6} {'cpu[s]':>9}"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.n_cells:>6d} {r.linf:>12.4e} {r.order_linf:>6.2f} "
            f"{r.l1:>12.4e} {r.order_l1:>6.2f} "
            f"{r.l2:>12.4e} {r.order_l2:>6.2f} {r.cpu_seconds:>9.3f}"
        )
    return "\n".join(lines)
