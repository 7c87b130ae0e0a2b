"""Span tracing from outside the package.

The tracer replaces public functions under the names their calling module
looks them up by (``aderfv.solver.build_predictor_tables``,
``aderfv.predictor.predictor_residual``, ...), records one span per call
(name, start, end, parent) in memory, and restores every name on exit. A
span's self time is its duration minus the part its direct children cover;
calls are strictly nested because everything runs on one thread.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute path, span name): the names the calling module looks up.
WRAPPED = (
    ("aderfv.solver", "step", "solver.step"),
    ("aderfv.solver", "compute_dt", "solver.compute_dt"),
    ("aderfv.solver", "reconstruct_batch", "weno.reconstruct_batch"),
    ("aderfv.solver", "build_predictor_tables", "predictor.build_tables"),
    ("aderfv.solver", "interface_fluctuations", "force_flux.interface"),
    ("aderfv.solver", "source_average", "force_flux.source_average"),
    ("aderfv.solver", "noncons_average", "force_flux.noncons_average"),
    ("aderfv.predictor", "solve_derivative_chain", "predictor.chain"),
    ("aderfv.predictor", "predictor_residual", "ckjet.residual"),
    ("aderfv.predictor", "residual_and_jacobian", "ckjet.jacobian"),
    ("aderfv.ckjet", "ck_time_derivatives", "ckjet.time_derivatives"),
    ("aderfv.series", "TruncatedSeries.__mul__", "series.mul"),
    ("aderfv.series", "TruncatedSeries.__rmul__", "series.mul"),
    ("aderfv.vonneumann", "stability_map", "vonneumann.map"),
    ("aderfv.vonneumann", "stability_fraction", "vonneumann.fraction"),
    ("aderfv.vonneumann", "amplitude", "vonneumann.amplitude"),
)


def _batch_size(arr) -> int:
    size = 1
    for n in arr.shape[:-1]:
        size *= n
    return size


def _count(name: str, counts: dict, args: tuple, result) -> None:
    """Exact work counters taken from a wrapped call's arguments or result."""
    if name == "predictor.build_tables":
        cells, n_tau, n_xi = result.values.shape[:3]
        counts["predictor.points"] += cells * (n_tau * n_xi + 2 * result.trace_left.shape[1])
        counts["predictor.sweeps"] += result.iterations
    elif name in ("predictor.chain", "ckjet.residual", "ckjet.jacobian"):
        counts[name + "_points"] += _batch_size(args[1])
    elif name == "vonneumann.amplitude":
        theta = args[0]
        blends = args[4] if len(args) > 4 else None
        counts["vonneumann.modes"] += getattr(theta, "size", 1) * (
            1 if blends is None else len(blends)
        )


class Tracer:
    """Context manager that wraps the traced names and records spans."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: dict = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def _wrapper(self, original, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            _count(name, counts, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module, path, name in WRAPPED:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrapper(original, name))
            self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list[int]:
        """Per-span duration minus the time its direct children cover (ns)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self time (ns).

        Inclusive time counts only the outermost span of a name, so a name
        that nests inside itself is not counted twice.
        """
        own = self.self_times()
        out: dict = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_ns"] += own[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["incl_ns"] += end - start
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated name, start_ns, end_ns, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")


def layer_metrics(tracer: Tracer, n_ops: int, overhead: float, scale: float) -> dict[str, float]:
    """Per-layer metrics per traced operation (solver step or raster point).

    Times are multiplied by ``scale``, the machine-speed rescaling of the
    traced episode, so they compare with the end-to-end times.
    """
    tot = tracer.totals()
    counts = tracer.counts

    def ms(name: str, key: str = "incl_ns") -> float:
        return tot[name][key] * scale / 1e6 / n_ops if name in tot else 0.0

    res_points = counts["ckjet.residual_points"]
    return {
        "predictor.tables_ms": ms("predictor.build_tables"),
        "predictor.points": counts["predictor.points"] / n_ops,
        "predictor.chain_ms": ms("predictor.chain"),
        "predictor.chain_points": counts["predictor.chain_points"] / n_ops,
        "predictor.sweeps": counts["predictor.sweeps"] / n_ops,
        "predictor.self_ms": ms("predictor.build_tables", "self_ns"),
        "ckjet.residual_ms": ms("ckjet.residual"),
        "ckjet.residual_points": res_points / n_ops,
        "ckjet.us_per_residual_point": (
            tot["ckjet.residual"]["incl_ns"] * scale / 1e3 / res_points if res_points else 0.0
        ),
        "ckjet.jacobian_ms": ms("ckjet.jacobian"),
        "ckjet.jacobian_points": counts["ckjet.jacobian_points"] / n_ops,
        "ckjet.time_derivatives_ms": ms("ckjet.time_derivatives"),
        "series.mul_calls": tot["series.mul"]["calls"] / n_ops if "series.mul" in tot else 0.0,
        "series.mul_ms": ms("series.mul"),
        "weno.reconstruct_ms": ms("weno.reconstruct_batch"),
        "force_flux.interface_ms": ms("force_flux.interface"),
        "force_flux.volume_ms": ms("force_flux.source_average") + ms("force_flux.noncons_average"),
        "solver.compute_dt_ms": ms("solver.compute_dt"),
        "solver.self_ms": ms("solver.step", "self_ns"),
        "vonneumann.amplitude_ms": ms("vonneumann.amplitude"),
        "vonneumann.modes": counts["vonneumann.modes"] / n_ops,
        "vonneumann.fraction_self_ms": ms("vonneumann.fraction", "self_ns"),
        "trace.overhead": overhead,
    }
