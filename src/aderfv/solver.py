"""One-step finite-volume update, time marching, and the convergence harness.

The fully discrete update of cell i over a step of size dt is

  Q_i^{n+1} = Q_i^n - dt/dx (D+_{i-1/2} + D-_{i+1/2}) + dt (S_i - A_i)

with the interface fluctuations D+- built from the predictor traces and the
centred alpha-splitting, S_i the space-time average of the source over the
predictor table, and A_i the space-time average of A(Q) dQ/dx. A flux law
without a source (``SystemDescriptor.flux_form``, Euler among the bundled
laws) is taken in flux form: D+ + D- is the trace-rule average of the flux
jump at the interface, A_i that of the cell's own F(Q(1, tau)) - F(Q(0, tau))
over dx, and S_i = 0, so the update telescopes and the conserved totals are
kept to round-off on any data. Its predictor tables hold the traces alone.
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
    check_count,
    error_norms,
    observed_order,
)
from .predictor import PredictorError, build_predictor_tables, space_time_rules
from .systems import SystemDescriptor
from .weno import reconstruct_batch

__all__ = [
    "StepError",
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


class StepError(RuntimeError):
    """A step met values it cannot go on from, outside the predictor.

    Either its reconstruction is not finite, or its update leaves cell
    averages that are not finite or not admissible. ``details`` holds the
    ``cells`` (interior indices) and their ``states`` (the cell averages the
    reconstruction read, or the updated ones); ``run`` adds the ``step``
    number and the time ``t`` the step started at.
    """

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


@dataclass
class StepReport:
    dt: float
    wall_seconds: float
    mass_change: np.ndarray | None = None  # set for source-free systems
    # Points entering each of the predictor's Newton sweeps (``PredictorTable``).
    batch_sizes: tuple = ()

    @property
    def predictor_sweeps(self) -> int:
        """The predictor's Newton sweeps in this step."""
        return len(self.batch_sizes)


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
    """Cell averages of the system's initial condition on ``grid``."""
    return CellField.from_function(grid, system.initial_condition)


def compute_dt(
    system: SystemDescriptor,
    fld: CellField,
    config: RunConfig,
    t_remaining: float | None = None,
) -> float:
    """CFL time step from the fastest wave of the current cell averages."""
    speed = system.max_wave_speed(fld.interior)
    dt = np.inf if speed == 0.0 else config.cfl * fld.grid.dx / speed
    if t_remaining is not None:
        dt = min(dt, t_remaining)
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"cannot pick a time step (wave speed {speed})")
    return float(dt)


def step(
    system: SystemDescriptor,
    fld: CellField,
    config: RunConfig,
    dt: float,
) -> StepReport:
    """Advance the cell averages in place by one step of size ``dt``.

    A ``dt`` that is not finite and positive raises a ValueError before any
    work. A non-finite reconstruction, or an update whose cell averages are
    not finite or not admissible, raises a ``StepError`` naming those cells.
    Either way the field is left unchanged.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    t0 = time.perf_counter()
    n, deg, dx = fld.grid.n_cells, config.degree, fld.grid.dx
    # Window j is the (2M+1)-cell stencil of cell j-1, for j = 0..n+1: the
    # cells past either end are the periodic images or copies of the end cell.
    # A failure names table j by idx[j, M], the grid cell at its centre.
    idx = np.arange(-1 - deg, n + 1 - deg)[:, None] + np.arange(2 * deg + 1)
    idx = idx % n if config.boundary == "periodic" else np.clip(idx, 0, n - 1)
    windows = fld.interior[idx]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coeffs = reconstruct_batch(windows, deg)
    bad = np.flatnonzero(~np.isfinite(coeffs).all(axis=(1, 2)))
    if bad.size:
        raise StepError(
            "non-finite reconstruction",
            details={"cells": idx[bad, deg], "states": windows[bad, deg]},
        )

    rules = space_time_rules(config.order)
    try:
        tables = build_predictor_tables(system, coeffs, dt, dx, config)
    except PredictorError as exc:
        if "cells" in exc.details:
            exc.details["cells"] = idx[exc.details["cells"], deg]
        raise

    # Table j covers cell j-1 (one neighbour beyond each end), so the
    # interface left of cell i sits between tables i and i+1.
    fl = interface_fluctuations(
        system,
        tables.trace_right[:-1],
        tables.trace_left[1:],
        rules.trace_rule.weights,
        config.alpha,
        dt,
        dx,
    )
    src = source_average(system, tables, rules)[1:-1]
    anc = noncons_average(system, tables, rules)[1:-1]

    new = fld.interior + (-dt / dx * (fl.dplus[:-1] + fl.dminus[1:]) + dt * (src - anc))
    bad = ~np.isfinite(new).all(axis=-1)
    bad[~bad] = ~system.admissible(new[~bad])
    if np.any(bad):
        cells = np.flatnonzero(bad)
        raise StepError(
            "non-finite or inadmissible cell averages after the update",
            details={"cells": cells, "states": new[cells]},
        )

    mass = dx * np.sum(new - fld.interior, axis=0) if system.source_free else None
    fld.interior[:] = new
    return StepReport(dt, time.perf_counter() - t0, mass, tables.batch_sizes)


def run(system: SystemDescriptor, grid: Grid, config: RunConfig) -> RunReport:
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
        try:
            rep = step(system, fld, config, dt)
        except (PredictorError, StepError) as exc:
            exc.details.update(step=n_steps + 1, t=t)
            raise
        t += dt
        n_steps += 1
        reports.append(rep)
    return RunReport(fld, t, n_steps, time.perf_counter() - wall0, reports)


def check_convergence_inputs(system: SystemDescriptor, meshes: list[int], variable: int) -> None:
    """Raise ValueError, naming the input, unless a convergence study can run.

    Every mesh is a positive integer cell count; any count works for either
    boundary, since a step gathers its stencils through the boundary.
    """
    if system.exact_solution is None:
        raise ValueError(f"system {system.name!r} has no exact solution to compare to")
    if not 0 <= variable < system.m:
        raise ValueError(f"variable must be in 0..{system.m - 1}, got {variable}")
    for n_cells in meshes:
        check_count("meshes", n_cells, 1)


def convergence_study(
    system: SystemDescriptor,
    config: RunConfig,
    meshes: list[int],
    variable: int = 0,
) -> list[ConvergenceRow]:
    """Error norms and observed orders of one tracked variable over meshes of [0, 1]."""
    check_convergence_inputs(system, meshes, variable)
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for n_cells in meshes:
        grid = Grid(0.0, 1.0, int(n_cells))
        t0 = time.perf_counter()
        report = run(system, grid, config)
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
