"""Tests of the benchmark itself. From the repository root:

  python3 -m pytest perfbench
"""
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import run

workloads = run.import_package()
from tracer import WRAPPED, Tracer  # noqa: E402

SPEC = run.load_spec()
COUNTERS = ("predictor.points", "predictor.chain_points", "predictor.sweeps",
            "ckjet.residual_points", "ckjet.jacobian_points", "series.mul_calls",
            "vonneumann.modes")


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, run.__file__, *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wrapped_names() -> dict:
    out = {}
    for module, path, _ in WRAPPED:
        obj = sys.modules[module]
        for part in path.split("."):
            obj = getattr(obj, part)
        out[module, path] = obj
    return out


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_end_to_end_output_names_every_metric_with_its_unit():
    out = bench("--workload", "linear5-closed", "--seed", "2", "--seconds", "1")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert units(out["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counters_repeat_exactly(workload):
    first, second = (
        bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        for _ in range(2)
    )
    assert units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["correct"] and second["correct"]
    for name in COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    values = {k: v["value"] for k, v in first["metrics"].items()}
    if workload == "euler5-smooth":
        step = sum(values[k] for k in ("predictor.tables_ms", "weno.reconstruct_ms",
                                       "force_flux.interface_ms", "force_flux.volume_ms",
                                       "solver.self_ms"))
        assert values["predictor.tables_ms"] >= 0.9 * step
    if workload == "linear5-closed":
        assert values["series.mul_calls"] == 0
    if workload == "stability5-implicit":
        assert values["vonneumann.modes"] > 0 and values["predictor.points"] == 0
    else:
        assert values["predictor.points"] > 0 and values["vonneumann.modes"] == 0


def test_self_times_sum_to_each_span():
    wl = workloads.WORKLOADS["euler5-smooth"]
    system, _ = wl.inputs(0)
    originals = wrapped_names()
    with Tracer() as tracer:
        wl.warm_up(system)
    assert not tracer.missing
    assert wrapped_names() == originals

    spans = tracer.spans
    assert spans[0][0] == "solver.compute_dt" and spans[1][0] == "solver.step"
    assert any(name == "series.mul" for name, *_ in spans)
    subtree = tracer.self_times()
    # Children are recorded after their parent, so one reverse pass folds
    # every subtree's self time into its root.
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0:
            subtree[parent] += subtree[i]
    for (name, start, end, _), total in zip(spans, subtree):
        assert total == end - start, name
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    step_total = tracer.totals()["solver.step"]
    assert step_total["incl_ns"] == spans[1][2] - spans[1][1]


def test_l1_check_rejects_a_wrong_field():
    wl = workloads.WORKLOADS["linear5-closed"]
    system, info = wl.inputs(0)
    assert wl.episode(system, info).failed == 0
    exact = system.exact_solution
    late = dataclasses.replace(system, exact_solution=lambda x, t: exact(x, t + 1e-9))
    ep = wl.episode(late, info)
    assert ep.failed == ep.attempted > 0 and ep.problems
