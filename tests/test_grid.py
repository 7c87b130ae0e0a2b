"""Mesh, quadrature and norm plumbing."""

import numpy as np
import pytest

from aderfv import solver
from aderfv.grid import (
    CellField,
    Grid,
    RunConfig,
    error_norms,
    exact_cell_averages,
    gauss_legendre,
    gauss_lobatto,
    observed_order,
)
from aderfv.systems import linear_system


@pytest.mark.parametrize("n", range(1, 7))
def test_gauss_legendre_exactness(n):
    # n-point Gauss-Legendre on [0, 1] integrates monomials up to degree 2n-1.
    rule = gauss_legendre(n)
    assert rule.n == n
    assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))
    for k in range(2 * n):
        got = np.sum(rule.weights * rule.nodes**k)
        assert got == pytest.approx(1.0 / (k + 1), abs=1e-14)


@pytest.mark.parametrize("n", range(2, 7))
def test_gauss_lobatto_exactness(n):
    rule = gauss_lobatto(n)
    assert rule.nodes[0] == 0.0 and rule.nodes[-1] == 1.0
    for k in range(2 * n - 2):
        got = np.sum(rule.weights * rule.nodes**k)
        assert got == pytest.approx(1.0 / (k + 1), abs=1e-13)


def test_lobatto_four_interior_nodes():
    # Interior Lobatto-4 nodes on [0, 1] sit at (5 +- sqrt(5)) / 10.
    rule = gauss_lobatto(4)
    expect = np.array([0.0, (5 - np.sqrt(5)) / 10, (5 + np.sqrt(5)) / 10, 1.0])
    np.testing.assert_allclose(rule.nodes, expect, atol=1e-14)


def test_gauss_legendre_two_point_nodes():
    rule = gauss_legendre(2)
    expect = 0.5 + np.array([-1.0, 1.0]) / (2 * np.sqrt(3.0))
    np.testing.assert_allclose(rule.nodes, expect, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


def test_quadrature_integrate_axis():
    rule = gauss_legendre(3)
    samples = np.stack([rule.nodes**2, rule.nodes**3])  # (2, n)
    out = samples @ rule.weights
    np.testing.assert_allclose(out, [1.0 / 3.0, 0.25], atol=1e-15)


def test_grid_geometry():
    g = Grid(-1.0, 3.0, 8)
    assert g.dx == pytest.approx(0.5)
    np.testing.assert_allclose(g.interfaces, -1.0 + 0.5 * np.arange(9))
    np.testing.assert_allclose(g.cell_centers, -0.75 + 0.5 * np.arange(8))


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 4)
    for n_cells in (16.0, True):
        with pytest.raises(ValueError, match="n_cells"):
            Grid(0.0, 1.0, n_cells)


def test_from_function_matches_analytic_averages():
    # Cell averages of sin(2 pi x) have the closed form
    # (cos(2 pi x_l) - cos(2 pi x_r)) / (2 pi dx).
    g = Grid(0.0, 1.0, 16)
    fld = CellField.from_function(g, lambda x: np.sin(2 * np.pi * x)[..., None])
    xl, xr = g.interfaces[:-1], g.interfaces[1:]
    expect = (np.cos(2 * np.pi * xl) - np.cos(2 * np.pi * xr)) / (2 * np.pi * g.dx)
    np.testing.assert_allclose(fld.interior[:, 0], expect, atol=1e-13)


def test_cell_field_holds_its_own_copy_of_one_row_per_cell():
    g = Grid(0.0, 1.0, 4)
    values = np.arange(8.0).reshape(4, 2)
    fld = CellField(g, values)
    values[0] = -1.0
    np.testing.assert_array_equal(fld.interior, np.arange(8.0).reshape(4, 2))
    for shape in ((4,), (3, 2), (4, 2, 1)):
        with pytest.raises(ValueError, match="cell averages of shape"):
            CellField(g, np.zeros(shape))


def test_exact_cell_averages_polynomial():
    g = Grid(0.0, 2.0, 5)
    avg = exact_cell_averages(g, lambda x, t: (x**2 + t)[..., None], t=3.0)
    xl, xr = g.interfaces[:-1], g.interfaces[1:]
    expect = (xr**3 - xl**3) / (3 * g.dx) + 3.0
    np.testing.assert_allclose(avg[:, 0], expect, atol=1e-13)


class _Windows(Exception):
    """Stops a step at its reconstruction, carrying the windows it gathered."""


def _step_windows(monkeypatch, n, order, boundary):
    def capture(windows, degree):
        raise _Windows(windows)

    monkeypatch.setattr(solver, "reconstruct_batch", capture)
    values = np.arange(1.0, 2 * n + 1).reshape(n, 2) ** 1.5
    fld = CellField(Grid(0.0, 1.0, n), values)
    with pytest.raises(_Windows) as caught:
        solver.step(linear_system(), fld, RunConfig(order=order, boundary=boundary), 1e-3)
    return values, caught.value.args[0]


def _assert_windows_match_padding(monkeypatch, boundary, mode):
    # Window j of a step is the (2M+1)-cell stencil of cell j-1, j = 0..n+1:
    # the cells of the averages padded by M+1 on each side, as np.pad fills
    # them, slid over. Any n works, fewer cells than the stencil included.
    for n in range(1, 13):
        for order in range(1, 6):
            deg = order - 1
            values, windows = _step_windows(monkeypatch, n, order, boundary)
            padded = np.pad(values, ((deg + 1, deg + 1), (0, 0)), mode=mode)
            win = np.lib.stride_tricks.sliding_window_view(padded, 2 * deg + 1, axis=0)
            np.testing.assert_array_equal(windows, np.moveaxis(win, -1, 1))


def test_periodic_boundary_fill(monkeypatch):
    _assert_windows_match_padding(monkeypatch, "periodic", "wrap")


def test_transmissive_boundary_fill(monkeypatch):
    _assert_windows_match_padding(monkeypatch, "transmissive", "edge")


def test_error_norms_constructed_defect():
    g = Grid(0.0, 1.0, 10)
    exact = lambda x, t: np.zeros(x.shape + (1,))
    delta = np.linspace(-0.3, 0.5, 10)[:, None]
    fld = CellField(g, delta)
    linf, l1, l2 = error_norms(fld, exact, t=0.0)
    assert linf[0] == pytest.approx(np.max(np.abs(delta)))
    assert l1[0] == pytest.approx(np.sum(np.abs(delta)) * g.dx)
    assert l2[0] == pytest.approx(np.sqrt(np.sum(delta**2) * g.dx))


def test_observed_order_halving():
    assert observed_order(8e-3, 1e-3) == pytest.approx(3.0)
    assert observed_order(1e-4, 1e-4) == pytest.approx(0.0)


def test_run_config_validation():
    assert RunConfig(order=3).degree == 2
    for kwargs in (
        {"order": 0},
        {"order": 6},
        {"order": 3.0},
        {"order": True},
        {"order": 3, "t_out": -1.0},
        {"order": 3, "t_out": float("nan")},
        {"order": 3, "t_out": float("inf")},
        {"order": 3, "cfl": 0.0},
        {"order": 3, "cfl": float("nan")},
        {"order": 3, "cfl": float("inf")},
        {"order": 3, "alpha": -1.0},
        {"order": 3, "alpha": float("nan")},
        {"order": 3, "alpha": float("inf")},
        {"order": 3, "boundary": "weird"},
    ):
        # Rejected when built, naming the field, not later in the run.
        with pytest.raises(ValueError, match=list(kwargs)[-1]):
            RunConfig(**kwargs)

