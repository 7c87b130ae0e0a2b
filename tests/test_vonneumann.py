"""Stability-analysis tests: amplification oracles, regions, determinism."""
import csv
import math

import numpy as np
import pytest
from numpy.polynomial import Legendre, Polynomial

from aderfv import solver
from aderfv.ckjet import ck_time_derivatives
from aderfv.grid import CellField, Grid, RunConfig
from aderfv.predictor import PredictorError, predictor_operators, space_time_rules
from aderfv.systems import scalar_advection_reaction
from aderfv.vonneumann import (
    DEFAULT_R_GRID,
    StabilityQuery,
    _scenario_blends,
    amplitude,
    blend_matrix,
    max_amplitude,
    stability_fraction,
    stability_map,
    theta_grid,
    write_raster_csv,
)
from aderfv.weno import window_candidate_matrix


def _first_order_amp(theta: np.ndarray, c: float, r: float, alpha: float) -> np.ndarray:
    """Three-point-stencil amplification of the first-order centred scheme.

    q_i^{n+1} = q_i - (c/2)(q_{i+1} - q_{i-1})
                + ((alpha c^2 + 1/alpha)/4)(q_{i+1} - 2 q_i + q_{i-1}) + r q_i,
    written directly from the two-state flux of a piecewise-constant predictor.
    """
    z = np.exp(1j * np.asarray(theta))
    diff = 0.25 * (alpha * c * c + 1.0 / alpha)
    return 1.0 - 0.5 * c * (z - 1.0 / z) + diff * (z - 2.0 + 1.0 / z) + r


def test_theta_grid_layout():
    th = theta_grid(8)
    assert th.shape == (8,)
    assert th[0] == 0.0
    assert np.allclose(np.diff(th), np.pi / 4)
    assert th[-1] < 2 * np.pi  # endpoint excluded (same mode as 0)
    assert np.pi in th  # even count hits the odd-even mode


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("predictor", ["explicit", "implicit"])
def test_constant_mode_preserved(order, predictor):
    """A(theta=0) = 1 exactly when r = 0: constant data must pass through."""
    query = StabilityQuery(order=order, predictor=predictor, alpha=1.9)
    for c in (0.05, 0.4, 1.1):
        amp = amplitude(np.array([0.0]), c, 0.0, query)
        assert amp.shape == (1,)
        assert amp[0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("c,r", [(0.5, 0.0), (0.8, -0.75), (0.3, -2.0)])
def test_first_order_matches_three_point_oracle(alpha, c, r):
    # With M=0 the predictor is the cell constant, both traces equal it, and
    # the source average is the constant itself, so the full machinery must
    # collapse to the classic three-point update.
    th = theta_grid(64)
    for predictor in ("explicit", "implicit"):
        query = StabilityQuery(order=1, predictor=predictor, alpha=alpha)
        amp = amplitude(th, c, r, query)
        assert np.allclose(amp, _first_order_amp(th, c, r, alpha), atol=1e-12)


def test_first_order_force_stability_boundary():
    """Classical FORCE (alpha=1) on pure advection is stable exactly for c <= 1."""
    query = StabilityQuery(order=1, predictor="explicit", alpha=1.0)
    assert max_amplitude(0.9, 0.0, query) <= 1.0 + 1e-12
    assert max_amplitude(1.0, 0.0, query) <= 1.0 + 1e-12
    assert max_amplitude(1.05, 0.0, query) > 1.0 + 1e-9
    assert max_amplitude(1.5, 0.0, query) > 1.0 + 1e-9


def test_small_c_is_stable_but_dissipative():
    # The centred flux keeps an O(1/alpha) smoothing term as c -> 0, so the
    # amplitude drops below one at nonzero angles instead of returning to it.
    query = StabilityQuery(order=1, predictor="explicit", alpha=1.0)
    amp = np.abs(amplitude(theta_grid(64), 1e-8, 0.0, query))
    assert np.all(amp <= 1.0 + 1e-12)
    assert amp[32] == pytest.approx(0.0, abs=1e-6)  # theta=pi: full smoothing


@pytest.mark.parametrize("order", [2, 3])
def test_explicit_and_implicit_agree_without_source(order):
    """For M <= 2 the derivative chain is exact, so at r=0 the implicit
    backward series resums to the explicit forward one."""
    th = theta_grid(32)
    for c in (0.2, 0.7):
        a_ex = amplitude(th, c, 0.0, StabilityQuery(order=order, predictor="explicit"))
        a_im = amplitude(th, c, 0.0, StabilityQuery(order=order, predictor="implicit"))
        assert np.allclose(a_ex, a_im, atol=1e-13)


def test_reconstruction_blend_against_integral_oracle():
    """Pure-candidate blends must reproduce the mode averages on their stencils.

    The degree-2 candidates each interpolate three cell averages; feeding the
    complex mode e^{i theta u} through blend_matrix and integrating the
    resulting polynomial over the stencil cells must return those averages.
    """
    degree = 2
    theta = 0.7
    offsets = np.arange(-degree, degree + 1)
    data = np.exp(1j * theta * offsets)
    stencil_cells = {"left": (-2, -1, 0), "central": (-1, 0, 1), "right": (0, 1, 2)}
    # Shifted Legendre basis on [0,1], built independently of the package.
    basis = [
        Legendre.basis(l).convert(kind=Polynomial)(Polynomial([-1.0, 2.0]))
        for l in range(degree + 1)
    ]
    for kind, weights in (("left", (1, 0, 0)), ("central", (0, 1, 0)), ("right", (0, 0, 1))):
        coeffs = blend_matrix(degree, weights) @ data
        poly = sum(c * b for c, b in zip(coeffs, basis))
        anti = poly.integ()
        for u in stencil_cells[kind]:
            avg = anti(u + 1.0) - anti(u + 0.0)
            assert avg == pytest.approx(np.exp(1j * theta * u), abs=1e-12)


def test_blend_matrix_endpoints_and_convexity():
    for degree in (1, 2, 3):
        left = window_candidate_matrix(degree, "left")
        central = window_candidate_matrix(degree, "central")
        assert np.allclose(blend_matrix(degree, (1, 0, 0)), left, atol=1e-15)
        assert np.allclose(blend_matrix(degree, (0, 1, 0)), central, atol=1e-15)
        mix = blend_matrix(degree, (0.5, 0.5, 0.0))
        assert np.allclose(mix, 0.5 * (left + central), atol=1e-15)


def test_fifth_order_implicit_stable_at_low_courant():
    """Order-5 implicit scheme with alpha=1 stays stable at c=0.1 down to r=-10."""
    query = StabilityQuery(order=5, predictor="implicit", alpha=1.0, n_scenarios=25)
    for r in (0.0, -2.5, -5.0, -10.0):
        assert stability_fraction(0.1, r, query) == 1.0


def test_weno_law_scenarios_concentrate_near_central():
    """The weight law's central preference caps the side weights near 1e-4."""
    query = StabilityQuery(order=4, n_scenarios=50)
    rng = np.random.default_rng(np.random.SeedSequence([3]))
    blends = _scenario_blends(query, rng)
    central = blend_matrix(3, np.array([0.0, 1.0, 0.0]))
    spread = np.abs(blends - central).max(axis=(1, 2))
    assert spread.max() < 1e-3
    assert spread.min() > 0.0  # still genuinely random


def test_uniform_model_reports_one_sided_instability():
    """Frozen arbitrary blends amplify at every Courant number for orders >= 3.

    A permanently one-sided degree-4 extrapolation of an oscillatory mode
    grows faster than the centred flux dissipates, independently of c, so the
    unconstrained model is pessimistic even in the c -> 0 limit. This pins
    the behavior that makes "uniform" unsuitable as the default verdict.
    """
    query = StabilityQuery(order=5, weight_model="uniform", n_scenarios=25)
    for c in (0.01, 0.1):
        assert stability_fraction(c, 0.0, query) < 0.5
    # One-sided blends are the extreme case: unstable by a wide margin.
    left = blend_matrix(4, np.array([1.0, 0.0, 0.0]))[None]
    amp = max_amplitude(0.1, 0.0, query, left)
    assert amp[0] > 2.0
    # The same draw is comfortably damped once the reaction kicks in.
    assert stability_fraction(0.1, -5.0, query) == 1.0


def test_unknown_weight_model_rejected():
    with pytest.raises(ValueError, match="weight model"):
        StabilityQuery(order=3, weight_model="dirichlet")


def test_first_order_fraction_is_binary():
    # No data-driven weights at M=0, so every scenario gives the same verdict.
    query = StabilityQuery(order=1, predictor="explicit", alpha=1.0, n_scenarios=10)
    assert stability_fraction(0.5, 0.0, query) == 1.0
    assert stability_fraction(1.5, 0.0, query) == 0.0
    assert stability_fraction(0.01, 0.0, query) == 1.0


def test_stability_fraction_deterministic_under_seed():
    query = StabilityQuery(order=3, predictor="implicit", alpha=2.0, n_scenarios=40)
    assert stability_fraction(0.6, -1.0, query) == stability_fraction(0.6, -1.0, query)


def test_stability_map_matches_pointwise_fractions():
    """Each raster point draws from its own seed substream: the map equals
    pointwise calls and is independent of grid slicing."""
    query = StabilityQuery(order=2, predictor="implicit", n_theta=32, n_scenarios=15)
    c_values = np.array([0.3, 0.9])
    r_values = np.array([-1.0, 0.0])
    frac = stability_map(query, c_values, r_values)
    assert frac.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            rng = np.random.default_rng(np.random.SeedSequence([query.seed, i, j]))
            assert frac[i, j] == stability_fraction(
                float(c_values[i]), float(r_values[j]), query, rng
            )
    assert np.array_equal(frac, stability_map(query, c_values, r_values))


def test_stability_map_degenerate_grid():
    query = StabilityQuery(order=1, predictor="explicit", n_theta=16, n_scenarios=5)
    frac = stability_map(query, np.array([0.5]), np.array([0.0]))
    assert frac.shape == (1, 1)
    assert frac[0, 0] == 1.0


def test_default_r_grid_covers_reaction_range():
    assert DEFAULT_R_GRID[0] == -10.0
    assert DEFAULT_R_GRID[-1] == 0.0
    assert np.allclose(np.diff(DEFAULT_R_GRID), 0.1)


def test_write_raster_csv_roundtrip(tmp_path):
    c_values = np.array([0.25, 0.5])
    r_values = np.array([-0.5, 0.0])
    frac = np.array([[1.0, 0.52], [0.0, 1.0]])
    for name in ("raster.csv", "again.csv"):
        with open(tmp_path / name, "w", newline="") as fh:
            write_raster_csv(fh, c_values, r_values, frac)
    with open(tmp_path / "raster.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["c", "r", "stable_fraction"]
    assert len(rows) == 5
    got = np.array([float(row[2]) for row in rows[1:]]).reshape(2, 2)
    assert np.allclose(got, frac)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "raster.csv").read_bytes()


def test_query_validation():
    with pytest.raises(ValueError):
        StabilityQuery(order=3, predictor="semi")
    with pytest.raises(ValueError):
        StabilityQuery(order=0)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"order": 6}, "order"),
        ({"order": 3, "n_theta": 0}, "n_theta"),
        ({"order": 3, "n_scenarios": 0}, "n_scenarios"),
        ({"order": 3, "alpha": 0.0}, "alpha"),
        ({"order": 3, "alpha": math.inf}, "alpha"),
        ({"order": 3, "tol": math.nan}, "tol"),
        ({"order": 3, "tol": -1.0}, "tol"),
        ({"order": 3, "tol": math.inf}, "tol"),
        ({"order": 3, "seed": -1}, "seed must be >= 0, got -1"),
        ({"order": 3.0}, "order"),
        ({"order": True}, "order"),
        ({"order": 3, "n_theta": 8.0}, "n_theta"),
        ({"order": 3, "n_scenarios": 10.0}, "n_scenarios"),
    ],
)
def test_query_rejects_out_of_range_sizes(kwargs, field):
    with pytest.raises(ValueError, match=field):
        StabilityQuery(**kwargs)


def _central_reconstruction(windows, degree):
    return np.einsum("kw,cwm->cmk", window_candidate_matrix(degree, "central"), windows)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("c,r,alpha", [(0.3, 0.0, 1.0), (0.7, -2.0, 1.5), (0.5, -0.5, 2.0),
                                       (0.9, -8.0, 1.0), (0.2, 0.4, 1.0)])
def test_analyzer_matches_solver_step(order, c, r, alpha, monkeypatch):
    # One solver step on cos(theta i) with the central reconstruction: the DFT
    # ratio at theta is the amplification factor of the scheme the solver
    # runs. The volume term makes the two agree for r != 0 too.
    monkeypatch.setattr(solver, "reconstruct_batch", _central_reconstruction)
    n = 32
    dx = 1.0 / n
    dt = c * dx
    system = scalar_advection_reaction(lam=1.0, beta=r / dt)
    config = RunConfig(order=order, alpha=alpha)
    query = StabilityQuery(order=order, alpha=alpha)
    for k in (1, 3, 7, 12, 16):
        theta = 2.0 * np.pi * k / n
        q0 = np.cos(theta * np.arange(n))
        fld = CellField.from_cell_averages(Grid(0.0, 1.0, n), q0[:, None], ghost=order)
        solver.step(system, fld, config, dt)
        ratio = np.fft.fft(fld.interior[:, 0])[k] / np.fft.fft(q0)[k]
        assert abs(ratio - amplitude(np.array([theta]), c, r, query)[0]) <= 1e-13


def test_singular_predictor_counts_as_unstable():
    # At order 2 and r = 1 the derivative chain's 1 - tau r vanishes at the
    # trace time tau = 1: the point is unstable, not an error.
    query = StabilityQuery(order=2, n_theta=16, n_scenarios=5)
    amp = amplitude(theta_grid(16), 0.5, 1.0, query)
    assert not np.any(np.isfinite(amp))
    assert np.all(max_amplitude(0.5, 1.0, query) == np.inf)
    assert stability_fraction(0.5, 1.0, query) == 0.0


def _tensor_amplitude(theta, c, r, query, blends):
    """Reference amplitude: every mode pushed through the predictor tensors.

    The reconstruction coefficients of all (scenario, angle) modes, their
    interior and trace derivative stacks, and the predictor values at every
    space-time node are formed one tensor at a time before the quadratures.
    """
    degree = query.order - 1
    n_s = blends.shape[0]
    offsets = np.arange(-degree, degree + 1)
    phases = np.exp(1j * np.outer(offsets, theta))
    beta = np.einsum("slw,wn->lsn", blends, phases).reshape(degree + 1, n_s * theta.size)
    rules = space_time_rules(query.order)
    w_int = np.einsum("jxl,lk->jxk", rules.basis_interior, beta)
    w_tr = np.einsum("jxl,lk->jxk", rules.basis_trace, beta)
    system = scalar_advection_reaction(lam=c, beta=r)
    taus = np.concatenate([rules.tau_rule.nodes, rules.trace_rule.nodes])
    units = np.eye(degree + 1)
    if query.predictor == "explicit":
        g = ck_time_derivatives(system, units[..., None], degree)[..., 0]
        rows = units[0] + np.cumprod(taus[:, None] / np.arange(1, degree + 1), axis=1) @ g.T
    else:
        try:
            rows = predictor_operators(system, taus, RunConfig(order=query.order))[:, 0]
        except PredictorError:
            rows = np.full((taus.size, degree + 1), np.nan)
    n_tau = rules.tau_rule.n
    q_int = np.einsum("tj,jxk->txk", rows[:n_tau], w_int)
    q_tr = np.einsum("tj,jxk->txk", rows[n_tau:], w_tr)
    s_hat = np.einsum("t,x,txk->k", rules.tau_rule.weights, rules.xi_rule.weights, q_int)
    q_left = np.einsum("t,tk->k", rules.trace_rule.weights, q_tr[:, 0])
    q_right = np.einsum("t,tk->k", rules.trace_rule.weights, q_tr[:, 1])
    a_hat = np.einsum(
        "t,y,tyk->k", rules.tau_rule.weights, rules.xi_rule.weights @ rules.diff_matrix, q_int
    )
    ph = np.tile(np.exp(1j * theta), n_s)
    centred = 0.5 * c * ((q_right + ph * q_left) - (q_left + q_right / ph))
    spread = (ph * q_left - q_right) - (q_left - q_right / ph)
    diss = 0.25 * (query.alpha * c * c + 1.0 / query.alpha) * spread
    amp = 1.0 - centred + diss + r * s_hat - c * (a_hat - (q_right - q_left))
    return amp.reshape(n_s, theta.size)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("predictor", ["explicit", "implicit"])
@pytest.mark.parametrize("weight_model", ["weno-law", "uniform"])
def test_amplitude_matches_tensor_oracle(order, predictor, weight_model):
    # The four functionals reorder the same sums, so the two agree to
    # round-off; r = 1 puts tau r = 1 on the trace time tau = 1.
    query = StabilityQuery(order=order, predictor=predictor, alpha=1.3, n_scenarios=6,
                           weight_model=weight_model)
    blends = _scenario_blends(query, np.random.default_rng(order))
    th = theta_grid(24)
    for c, r in [(0.05, 0.0), (0.4, -0.7), (0.9, -6.0), (1.15, 0.3), (0.5, 1.0)]:
        got = amplitude(th, c, r, query, blends)
        ref = _tensor_amplitude(th, c, r, query, blends)
        assert got.shape == ref.shape == (6, 24)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), finite), (c, r)
        err = np.abs(got[finite] - ref[finite])
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ref[finite]))), (c, r, err.max())
    if order > 1 and predictor == "implicit":
        assert not np.isfinite(amplitude(th, 0.5, 1.0, query, blends)).any()


# Stable scenarios (out of 8) on the _PIN_C x _PIN_R raster: one string per
# (order, predictor), one digit group per c, one digit per r. Recorded from the
# tensor-by-tensor amplitude; the raster straddles the c and r boundaries.
_PIN_C = np.array([0.2, 0.4, 0.75, 1.0, 1.05, 1.15])
_PIN_R = np.array([-10.0, -6.0, -2.0, -1.0, -0.3, 0.0])
_PINNED = {
    (2, "implicit"): "008888 008888 000888 000008 000000 000000",
    (2, "explicit"): "000888 000888 000888 000888 000800 000800",
    (3, "implicit"): "888888 888888 888888 888808 888000 880000",
    (3, "explicit"): "008888 008888 008888 000888 000880 000080",
    (4, "implicit"): "888888 888880 888880 888800 888000 888000",
    (4, "explicit"): "008888 008888 008888 008888 008800 008000",
    (5, "implicit"): "888888 888880 888880 880000 880000 810000",
    (5, "explicit"): "008888 008888 008888 008888 008880 008000",
}


@pytest.mark.parametrize("order, predictor", sorted(_PINNED))
def test_stability_map_verdicts_pinned(order, predictor):
    query = StabilityQuery(order=order, predictor=predictor, n_theta=32, n_scenarios=8)
    expected = np.array([[int(d) for d in row] for row in _PINNED[order, predictor].split()])
    assert np.array_equal(stability_map(query, _PIN_C, _PIN_R) * 8, expected)
