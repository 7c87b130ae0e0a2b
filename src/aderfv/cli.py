"""Command-line front end: solve / converge / stability subcommands.

Each bundled test case is a named preset carrying the system and the run
parameters used for its reference results; any individual flag overrides the
preset value. All outputs are plain CSV with a header row so they can be fed
to any plotting tool.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, RunConfig, check_count, exact_cell_averages
from .predictor import PredictorError
from .solver import (
    StepError,
    check_convergence_inputs,
    convergence_study,
    format_convergence_table,
    run,
)
from .systems import (
    SystemDescriptor,
    euler_ideal_gas,
    leveque_yee,
    linear_system,
    noncons_system,
)
from .vonneumann import StabilityQuery, stability_map, write_raster_csv

__all__ = ["PRESETS", "main"]

DEFAULT_MESHES = (16, 32, 64, 128)
# Failing predictor points listed one by one on exit code 2.
_REPORTED_POINTS = 5


@dataclass(frozen=True)
class Preset:
    make_system: Callable[[], SystemDescriptor]
    order: int
    cells: int
    cfl: float
    alpha: float
    t_out: float
    boundary: str


PRESETS: dict[str, Preset] = {
    "leveque-yee": Preset(leveque_yee, 3, 100, 0.1, 2.4, 0.3, "transmissive"),
    "linear-system": Preset(linear_system, 3, 64, 0.1, 1.9, 1.0, "periodic"),
    "noncons": Preset(noncons_system, 3, 64, 0.1, 2.2, 1.0, "periodic"),
    "euler-smooth": Preset(euler_ideal_gas, 3, 64, 0.1, 2.0, 1.0, "periodic"),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="linear-system",
        help="named test case supplying the defaults below",
    )
    p.add_argument(
        "--order", type=int, default=None,
        help="scheme order (1..5; order 1 is the first-order diagnostic mode)",
    )
    p.add_argument("--cells", type=int, default=None, help="number of cells")
    p.add_argument("--cfl", type=float, default=None, help="CFL coefficient")
    p.add_argument("--alpha", type=float, default=None, help="flux-splitting alpha")
    p.add_argument("--t-out", type=float, default=None, help="output time")
    p.add_argument(
        "--boundary", choices=("periodic", "transmissive"), default=None
    )
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")


def _resolve(args) -> tuple[SystemDescriptor, RunConfig, int]:
    preset = PRESETS[args.preset]
    pick = lambda flag, fallback: fallback if flag is None else flag
    config = RunConfig(
        order=pick(args.order, preset.order),
        cfl=pick(args.cfl, preset.cfl),
        alpha=pick(args.alpha, preset.alpha),
        t_out=pick(getattr(args, "t_out"), preset.t_out),
        boundary=pick(args.boundary, preset.boundary),
    )
    return preset.make_system(), config, pick(args.cells, preset.cells)


@contextlib.contextmanager
def _open_output(path):
    """The CSV destination: the file at ``path``, or stdout when it is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def cmd_solve(args) -> int:
    system, config, cells = _resolve(args)
    check_count("--cells", cells, 1)
    grid = Grid(0.0, 1.0, cells)
    report = run(system, grid, config)

    with _open_output(args.out) as fh:
        writer = csv.writer(fh)
        header = ["x"] + [f"q_{k + 1}" for k in range(system.m)]
        exact = None
        if system.exact_solution is not None:
            header += [f"exact_{k + 1}" for k in range(system.m)]
            exact = exact_cell_averages(grid, system.exact_solution, report.t_final)
        writer.writerow(header)
        for i, x in enumerate(grid.cell_centers):
            row = [f"{x:.12g}"] + [f"{v:.12g}" for v in report.field.interior[i]]
            if exact is not None:
                row += [f"{v:.12g}" for v in exact[i]]
            writer.writerow(row)
    print(
        f"{args.preset}: order {config.order}, {cells} cells, "
        f"{report.n_steps} steps to t = {report.t_final:.6g} "
        f"({report.wall_seconds:.3f} s, max {report.max_sweeps} predictor sweeps)",
        file=sys.stderr,
    )
    return 0


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of the comma list ``text`` given to --{flag}."""
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise ValueError(f"--{flag} must be a comma list of integers, got {text!r}") from None


def cmd_converge(args) -> int:
    system, config, _ = _resolve(args)
    orders = _int_list("orders", args.orders) if args.orders else [config.order]
    meshes = _int_list("meshes", args.meshes) if args.meshes else list(DEFAULT_MESHES)
    # Rejected input must leave no output behind, not even the header row.
    configs = [replace(config, order=order) for order in orders]
    check_convergence_inputs(system, meshes, args.variable)

    with _open_output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["order", "mesh", "linf_err", "linf_ord", "l1_err", "l1_ord",
             "l2_err", "l2_ord", "cpu_s"]
        )
        for cfg in configs:
            rows = convergence_study(system, cfg, meshes, variable=args.variable)
            for r in rows:
                writer.writerow(
                    [cfg.order, r.n_cells, f"{r.linf:.6e}", f"{r.order_linf:.3f}",
                     f"{r.l1:.6e}", f"{r.order_l1:.3f}",
                     f"{r.l2:.6e}", f"{r.order_l2:.3f}", f"{r.cpu_seconds:.4f}"]
                )
            print(f"# {args.preset}, order {cfg.order}", file=sys.stderr)
            print(format_convergence_table(rows), file=sys.stderr)
    return 0


def _axis(flag: str, lo: float, hi: float, step: float) -> np.ndarray:
    """Raster values lo, lo + step, ..., hi of the --{flag}-min/-max/-step flags."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"--{flag}-step must be finite and positive, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"--{flag}-min {lo} and --{flag}-max {hi} give an empty range")
    # Adding 0.0 turns a rounded -0.0 into 0.0, so the CSV never prints "-0".
    return np.round(np.arange(lo, hi + 0.5 * step, step), 10) + 0.0


def cmd_stability(args) -> int:
    query = StabilityQuery(
        order=args.order,
        predictor=args.predictor,
        alpha=args.alpha,
        n_theta=args.n_theta,
        n_scenarios=args.scenarios,
        seed=args.seed,
        weight_model=args.weight_model,
    )
    c_values = _axis("c", args.c_min, args.c_max, args.c_step)
    r_values = _axis("r", args.r_min, args.r_max, args.r_step)

    fractions = stability_map(query, c_values, r_values)
    with _open_output(args.out) as fh:
        write_raster_csv(fh, c_values, r_values, fractions)
    area = float(np.mean(fractions == 1.0))
    print(
        f"order {query.order} {query.predictor} alpha={query.alpha}: "
        f"{area:.1%} of the raster fully stable",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aderfv",
        description="High-order one-step finite-volume solver for 1-D balance laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="march a preset to t_out, emit a profile CSV")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("converge", help="mesh-refinement error table")
    _add_common(p_conv)
    p_conv.add_argument("--orders", default=None, help="comma list, e.g. 2,3,4,5")
    p_conv.add_argument("--meshes", default=None, help="comma list, e.g. 16,32,64,128")
    p_conv.add_argument("--variable", type=int, default=0, help="tracked variable index")
    p_conv.set_defaults(func=cmd_converge)

    p_stab = sub.add_parser("stability", help="linear stability raster")
    p_stab.add_argument("--order", type=int, default=3)
    p_stab.add_argument("--predictor", choices=("implicit", "explicit"), default="implicit")
    p_stab.add_argument("--alpha", type=float, default=1.0)
    p_stab.add_argument("--n-theta", type=int, default=128)
    p_stab.add_argument("--scenarios", type=int, default=100)
    p_stab.add_argument("--seed", type=int, default=0)
    p_stab.add_argument(
        "--weight-model",
        choices=("weno-law", "uniform"),
        default="weno-law",
        help="scenario weights: the reconstruction's weight law on random "
        "smoothness indicators, or unconstrained convex triples",
    )
    p_stab.add_argument("--c-min", type=float, default=0.01)
    p_stab.add_argument("--c-max", type=float, default=1.2)
    p_stab.add_argument("--c-step", type=float, default=0.01)
    p_stab.add_argument("--r-min", type=float, default=-10.0)
    p_stab.add_argument("--r-max", type=float, default=0.0)
    p_stab.add_argument("--r-step", type=float, default=0.1)
    p_stab.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_stab.set_defaults(func=cmd_stability)
    return parser


def _print_failing_points(details: dict) -> None:
    """Step and time of a failed run, the count of failing points or cells,
    then cell, tau (for predictor points) and state of the first few."""
    if "step" in details:
        print(f"aderfv: at step {details['step']}, t = {details['t']:.6g}", file=sys.stderr)
    cells = details.get("cells")
    if cells is None:
        return
    taus = details.get("tau")
    what = "predictor point(s)" if taus is not None else "cell(s)"
    print(f"aderfv: {len(cells)} failing {what}", file=sys.stderr)
    for i, cell in enumerate(itertools.islice(cells, _REPORTED_POINTS)):
        state = np.array2string(np.asarray(details["states"][i]), precision=6)
        tau = f", tau {taus[i]:.6g}" if taus is not None else ""
        print(f"  cell {cell}{tau}, state {state}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PredictorError, StepError) as exc:
        kind = "predictor" if isinstance(exc, PredictorError) else "step"
        print(f"aderfv: {kind} failure: {exc}", file=sys.stderr)
        _print_failing_points(exc.details)
        return 2
    except (ValueError, OSError) as exc:
        print(f"aderfv: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
