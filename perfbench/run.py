"""Benchmark of the aderfv solver and stability analyzer.

Run from the repository root, which must hold ``src/aderfv``:

  python3 perfbench/run.py --workload euler5-smooth --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --seed 1 --seconds 20 [--trace 1]

With ``--workload`` one workload runs in this process, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Without it every workload runs in a process of
its own, a summary table follows, and the last line holds every workload's
result and the environment. With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json (from untraced runs), with ``--trace 1`` its
per-layer metrics (from one traced episode, next to an untraced run that
gives the tracing overhead). Times are rescaled to a reference machine
speed (see speed.py). The lines before it repeat the numbers under the
solver and analyzer names (cell-steps/s, step and raster-point
percentiles) with their sample counts, next to the unscaled times.
"""
import time

_T0 = time.perf_counter()  # start of a setup probe: before numpy is imported

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_package():
    """Import ``aderfv`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "aderfv", "__init__.py")):
        raise SystemExit(f"error: no aderfv package under {SRC}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import aderfv

    if not os.path.abspath(aderfv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported aderfv from {aderfv.__file__}, not {SRC}")
    import workloads

    return workloads


def environment() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def p90(values) -> float:
    """The 90th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure(wl, payload, info, seconds: float, speed) -> tuple[list, float]:
    """Whole episodes until ``seconds`` have passed; returns them and the wall time."""
    start = time.perf_counter()
    deadline = start + seconds
    episodes = []
    while not episodes or time.perf_counter() < deadline:
        episodes.append(wl.episode(payload, info, deadline, speed.sample))
    return episodes, time.perf_counter() - start


def probe_setup(args) -> tuple[list, list]:
    """Raw and rescaled set-up seconds of fresh processes.

    The first probe, which writes the bytecode caches, is dropped.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, rescaled = [], []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        r, s = proc.stdout.split()[-2:]
        raw.append(float(r))
        rescaled.append(float(s))
    return raw[1:], rescaled[1:]


def run_workload(args, spec: dict) -> dict:
    workloads = import_package()
    wl = workloads.WORKLOADS[args.workload]
    payload, info = wl.inputs(args.seed)
    from speed import REFERENCE_S, MachineSpeed

    if args.setup_probe:
        wl.warm_up(payload)
        elapsed = time.perf_counter() - _T0
        speed = MachineSpeed()
        kernel = statistics.median(speed.kernel() for _ in range(15))
        print(elapsed, elapsed * REFERENCE_S / kernel)
        return {}

    setup_raw, setup = ([], []) if args.trace else probe_setup(args)
    wl.warm_up(payload)
    speed = MachineSpeed()
    episodes, window = measure(wl, payload, info, args.seconds / 2 if args.trace else args.seconds,
                               speed)
    ops_raw = [op for e in episodes for op in e.ops]
    ops, wall = speed.rescale(ops_raw)
    if args.trace:
        from tracer import Tracer, layer_metrics

        traced_speed = MachineSpeed()
        with Tracer() as tracer:
            traced = wl.episode(payload, info, between=traced_speed.sample)
        episodes_all = episodes + [traced]
        _, traced_wall = traced_speed.rescale(traced.ops)
        overhead = (traced_wall / len(traced.ops)) / (wall / len(ops))
        scale = REFERENCE_S / statistics.median(traced_speed.durations)
        values = layer_metrics(tracer, traced.attempted, overhead, scale)
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write(spans_path)
        names = spec["per_layer"]
        notes = [f"traced ops {traced.attempted}, spans {len(tracer.spans)} -> "
                 + os.path.relpath(spans_path, ROOT)]
        if tracer.missing:
            notes.append("not found, not traced: " + ", ".join(tracer.missing))
    else:
        episodes_all = episodes
        work = len(ops) * wl.work_per_op
        values = {
            "throughput": work / wall,
            "op_ms_p50": statistics.median(ops) * 1e3,
            "op_ms_p90": p90(ops) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = spec["end_to_end"]
        raw = [t1 - t0 for t0, t1 in ops_raw]
        above = sum(t * 1e3 > values["op_ms_p90"] for t in ops)
        unit = "step" if wl.kind == "solver" else "raster_point"
        notes = [
            f"{'cell_steps' if wl.kind == 'solver' else 'raster_points'}_per_s "
            f"{values['throughput']:.6g} 1/s ({work} over {wall:.3f} s rescaled, "
            f"{window:.3f} s measured)",
            f"{unit}_ms_p50 {values['op_ms_p50']:.6g} ms, {unit}_ms_p90 "
            f"{values['op_ms_p90']:.6g} ms ({len(ops)} samples, {above} above p90)",
            f"unscaled: {unit}_ms_p50 {statistics.median(raw) * 1e3:.6g} ms, {unit}_ms_p90 "
            f"{p90(raw) * 1e3:.6g} ms; kernel median "
            f"{statistics.median(speed.durations) * 1e3:.4g} ms over {len(speed.durations)} runs "
            f"(reference {REFERENCE_S * 1e3:.4g} ms)",
            f"setup_s {values['setup_s']:.6g} s (median of {len(setup)}: "
            + ", ".join(f"{s:.4f}" for s in setup) + "; unscaled "
            + ", ".join(f"{s:.4f}" for s in setup_raw) + ")",
            f"peak_rss_mb {values['peak_rss_mb']:.6g} MB",
        ]

    attempted = sum(e.attempted for e in episodes_all)
    failed = sum(e.failed for e in episodes_all)
    last = episodes_all[-1].details
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: inputs {info}, "
          f"{len(episodes_all)} episodes, env {environment()}")
    for key in ("l1_error", "conservation_drift", "front_offset", "plateau_deviation"):
        if key in last:
            notes.append(f"{key} {last[key]:.12g} (last episode)")
    notes.append(f"failed_fraction {failed / attempted:.6g} ({failed} of {attempted})")
    for note in notes:
        print("  " + note)
    for e in episodes_all:
        for problem in e.problems:
            print("  FAILED CHECK: " + problem)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def run_all(args, spec: dict) -> dict:
    """Every workload in a process of its own, then a summary table."""
    results = {}
    for wl in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {wl['name']} exited with {proc.returncode}")
        results[wl["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])

    names = spec["per_layer" if args.trace else "end_to_end"]
    width = max(len(m["name"]) for m in names) + 2
    print("\n" + "metric".ljust(width) + "".join(f"{w:>22}" for w in results))
    for m in names:
        row = "".join(f"{r['metrics'][m['name']]['value']:>22.6g}" for r in results.values())
        print(f"{m['name']:<{width}}{row}  {m['unit']}")
    print("failed/attempted".ljust(width)
          + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>22}" for r in results.values()))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
        "environment": environment(),
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload:
        result = run_workload(args, spec)
        if args.setup_probe:
            return 0
    else:
        import_package()
        result = run_all(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
