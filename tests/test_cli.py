"""End-to-end command-line tests: CSV structure, determinism, exit codes."""
import csv
import dataclasses
import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import aderfv
from aderfv.cli import PRESETS, _axis, main
from aderfv.predictor import PredictorError
from aderfv.systems import leveque_yee
from aderfv.vonneumann import DEFAULT_C_GRID, DEFAULT_R_GRID


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_solve_profile_csv_structure(tmp_path):
    out = tmp_path / "profile.csv"
    rc = main(
        ["solve", "--preset", "linear-system", "--cells", "32",
         "--t-out", "0.25", "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["x", "q_1", "q_2", "exact_1", "exact_2"]
    assert len(rows) == 32
    data = np.array(rows, dtype=float)
    assert np.isfinite(data).all()
    # numerical and exact columns agree loosely on a smooth coarse run
    assert np.max(np.abs(data[:, 1] - data[:, 3])) < 1e-2


def test_solve_zero_time_echoes_initial_averages(tmp_path):
    out = tmp_path / "ic.csv"
    assert main(
        ["solve", "--preset", "linear-system", "--cells", "16",
         "--t-out", "0", "--out", str(out)]
    ) == 0
    _, rows = _read_csv(out)
    data = np.array(rows, dtype=float)
    # at t = 0 the numerical columns are exactly the projected initial data
    assert np.allclose(data[:, 1:3], data[:, 3:5], atol=1e-13)


def test_solve_euler_preset_positive_density(tmp_path):
    out = tmp_path / "euler.csv"
    assert main(
        ["solve", "--preset", "euler-smooth", "--cells", "32",
         "--t-out", "0.2", "--out", str(out)]
    ) == 0
    header, rows = _read_csv(out)
    assert header[:4] == ["x", "q_1", "q_2", "q_3"]
    data = np.array(rows, dtype=float)
    assert (data[:, 1] > 0.0).all()


def test_converge_table_rows(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(
        ["converge", "--preset", "linear-system", "--orders", "2",
         "--meshes", "8,16", "--t-out", "0.25", "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["order", "mesh", "linf_err", "linf_ord", "l1_err",
                      "l1_ord", "l2_err", "l2_ord", "cpu_s"]
    assert [r[:2] for r in rows] == [["2", "8"], ["2", "16"]]
    # refinement reduces the L1 error
    assert float(rows[1][4]) < float(rows[0][4])


_TINY_STABILITY = [
    "stability", "--order", "2", "--n-theta", "32", "--scenarios", "10",
    "--c-min", "0.3", "--c-max", "0.5", "--c-step", "0.1",
    "--r-min", "-1", "--r-max", "0", "--r-step", "0.5",
]


def test_stability_csv_shape_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_TINY_STABILITY + ["--out", str(a)]) == 0
    assert main(_TINY_STABILITY + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = _read_csv(a)
    assert header == ["c", "r", "stable_fraction"]
    assert len(rows) == 3 * 3
    fracs = np.array([float(r[2]) for r in rows])
    assert ((0.0 <= fracs) & (fracs <= 1.0)).all()


def test_stability_weight_model_flag(tmp_path):
    """Unconstrained triples flag order-5 advection as unstable; the law does not."""
    base = ["stability", "--order", "5", "--n-theta", "64", "--scenarios", "10",
            "--c-min", "0.1", "--c-max", "0.1", "--c-step", "0.1",
            "--r-min", "0", "--r-max", "0", "--r-step", "0.1"]
    law, uni = tmp_path / "law.csv", tmp_path / "uni.csv"
    assert main(base + ["--out", str(law)]) == 0
    assert main(base + ["--weight-model", "uniform", "--out", str(uni)]) == 0
    assert float(_read_csv(law)[1][0][2]) == 1.0
    assert float(_read_csv(uni)[1][0][2]) < 0.5


def _run_module(args, cwd):
    """``python -m aderfv`` in a child process, with this package importable."""
    src = os.path.dirname(os.path.dirname(aderfv.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "aderfv", *args], capture_output=True, text=True,
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


def test_python_m_aderfv_returns_main_exit_codes(tmp_path):
    ok = _run_module(_TINY_STABILITY + ["--out", "raster.csv"], tmp_path)
    assert ok.returncode == 0, ok.stderr
    assert _read_csv(tmp_path / "raster.csv")[0] == ["c", "r", "stable_fraction"]
    rejected = _run_module(["stability", "--seed", "-1"], tmp_path)
    assert rejected.returncode == 1
    assert rejected.stderr.startswith("aderfv:") and "seed" in rejected.stderr


def test_preset_table_is_complete():
    assert set(PRESETS) == {"leveque-yee", "linear-system", "noncons", "euler-smooth"}
    for preset in PRESETS.values():
        assert preset.order >= 2
        assert preset.cfl > 0


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "solve" in capsys.readouterr().out


def test_unknown_preset_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--preset", "kelvin-helmholtz"])
    assert exc.value.code != 0


def test_bad_order_exits_one(capsys):
    rc = main(["solve", "--preset", "linear-system", "--order", "9"])
    assert rc == 1
    assert "aderfv:" in capsys.readouterr().err


def test_non_finite_run_setting_exits_one(capsys):
    # An infinite output time used to run 0 steps and exit 0 at t = 0.
    rc = main(["solve", "--preset", "linear-system", "--cells", "8", "--t-out", "inf"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("aderfv:") and "t_out" in err


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--order", "6"], "order"),
        (["--n-theta", "0"], "n_theta"),
        (["--scenarios", "0"], "n_scenarios"),
        (["--alpha", "0"], "alpha"),
        (["--alpha", "inf"], "alpha"),
        (["--c-step", "0"], "--c-step"),
        (["--r-step", "0"], "--r-step"),
        (["--c-step", "-0.1"], "--c-step"),
        (["--r-step", "nan"], "--r-step"),
        (["--c-step", "inf"], "--c-step"),
        (["--c-min", "0.9", "--c-max", "0.1"], "--c-min"),
        (["--r-min", "0", "--r-max", "-1"], "--r-min"),
        (["--c-max", "nan"], "--c-max"),
        (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ],
)
def test_bad_stability_query_exits_one(flags, field, capsys):
    rc = main(["stability", "--c-min", "0.5", "--c-max", "0.5", "--r-min", "0"] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("aderfv:") and field in err


@pytest.mark.parametrize("variable", ["2", "-1"])
def test_converge_rejects_out_of_range_variable(variable, tmp_path, capsys):
    # The linear system has two variables; the check comes before any run.
    rc = main(["converge", "--preset", "linear-system", "--orders", "2", "--meshes", "8",
               "--variable", variable, "--out", str(tmp_path / "table.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("aderfv:") and "variable" in err


@pytest.mark.parametrize("flags, name", [
    (["--variable", "2"], "variable"),
    (["--orders", "2,7"], "order"),
    (["--meshes", "8,0"], "meshes"),
    (["--preset", "leveque-yee"], "exact solution"),
    (["--orders", "3", "--meshes", "8,2"], "meshes"),
])
def test_rejected_converge_writes_nothing(flags, name, tmp_path, capsys):
    # Inputs are checked before the output is opened: no file, no header row.
    out = tmp_path / "table.csv"
    base = ["converge", "--preset", "linear-system", "--orders", "2", "--meshes", "8"]
    assert main(base + flags + ["--out", str(out)]) == 1
    assert not out.exists()
    assert main(base + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and name in captured.err


def test_stability_max_flags_apply_without_min(tmp_path):
    # --c-max and --r-min alone narrow the raster; the default axes are the
    # default grids to the bit, with no -0.0 that would print as "-0".
    out = tmp_path / "raster.csv"
    assert main(["stability", "--c-max", "0.02", "--r-min", "-0.1", "--n-theta", "4",
                 "--scenarios", "2", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert [(row[0], row[1]) for row in rows] == [
        ("0.01", "-0.1"), ("0.01", "0"), ("0.02", "-0.1"), ("0.02", "0")]
    for axis, grid in ((_axis("c", 0.01, 1.2, 0.01), DEFAULT_C_GRID),
                       (_axis("r", -10.0, 0.0, 0.1), DEFAULT_R_GRID)):
        assert np.array_equal(axis, grid) and np.array_equal(np.signbit(axis), np.signbit(grid))


def test_stability_stdout_matches_out_file(tmp_path, capsys):
    flags = ["stability", "--order", "2", "--n-theta", "8", "--scenarios", "3",
             "--c-min", "0.2", "--c-max", "0.6", "--c-step", "0.2",
             "--r-min", "-0.5", "--r-max", "0", "--r-step", "0.5"]
    assert main(flags) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "raster.csv"
    assert main(flags + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode() == out.read_bytes()
    assert len(printed.splitlines()) == 1 + 3 * 2


def test_unwritable_output_exits_one(tmp_path, capsys):
    rc = main(
        ["solve", "--preset", "linear-system", "--cells", "8", "--t-out", "0",
         "--out", str(tmp_path / "no" / "such" / "dir.csv")]
    )
    assert rc == 1


def test_predictor_failure_exits_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise PredictorError("synthetic non-convergence")

    monkeypatch.setattr("aderfv.cli.run", boom)
    rc = main(["solve", "--preset", "linear-system", "--cells", "8", "--t-out", "0.1"])
    assert rc == 2
    assert "predictor failure" in capsys.readouterr().err


def test_predictor_failure_prints_details(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise PredictorError(
            "synthetic inadmissible state",
            details={
                "points": np.arange(7),
                "cells": np.array([11, 11, 12, 12, 12, 13, 40]),
                "tau": np.linspace(0.0, 0.006, 7),
                "states": np.array([[-0.25, 1.5]] * 7),
            },
        )

    monkeypatch.setattr("aderfv.cli.run", boom)
    rc = main(["solve", "--preset", "linear-system", "--cells", "8", "--t-out", "0.1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "synthetic inadmissible state" in err
    assert "7 failing predictor point(s)" in err
    assert "cell 11, tau 0, state [-0.25  1.5 ]" in err
    assert "cell 12, tau 0.004" in err
    assert "cell 13" not in err  # only the first few points are listed


def test_jet_failure_in_a_run_names_its_cells(monkeypatch, capsys):
    # At beta = -1e200 the CK jets overflow where the stencils see the front
    # between cells 5 and 6; the run stops with those cells named, not with a
    # traceback.
    stiff = functools.partial(leveque_yee, beta=-1e200)
    monkeypatch.setitem(PRESETS, "leveque-yee",
                        dataclasses.replace(PRESETS["leveque-yee"], make_system=stiff))
    with np.errstate(all="ignore"):
        rc = main(["solve", "--preset", "leveque-yee", "--cells", "20", "--t-out", "0.01"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "predictor failure: CK jet failed: non-finite space-time jet coefficients" in err
    assert "cell 4, tau " in err


def test_update_failure_exits_two_naming_step_and_cells(monkeypatch, capsys):
    # The predictor succeeds but the update of cell 2 is infinite: the run
    # stops at once, on the step that made it.
    from aderfv import solver

    exact = solver.interface_fluctuations

    def patched(*args, **kwargs):
        fl = exact(*args, **kwargs)
        fl.dplus[2] = np.inf
        return fl

    monkeypatch.setattr(solver, "interface_fluctuations", patched)
    rc = main(["solve", "--preset", "euler-smooth", "--cells", "8", "--t-out", "0.01"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "step failure: non-finite or inadmissible cell averages after the update" in err
    assert "at step 1, t = 0" in err
    assert "1 failing cell(s)" in err
    assert "cell 2, state [-inf" in err
