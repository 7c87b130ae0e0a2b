"""Uniform 1-D grids, cell-average storage, quadrature rules and error norms."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "QuadratureRule",
    "gauss_legendre",
    "gauss_lobatto",
    "CellField",
    "apply_boundary",
    "error_norms",
    "observed_order",
    "RunConfig",
]

# Cell-averaging / error-norm quadrature: 5 Gauss-Legendre points per cell is
# exact through degree 9, well beyond the highest scheme order supported here.
_AVERAGING_POINTS = 5


def check_count(name: str, value, low: int, high: int | None = None) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer in low..high.

    Python and numpy integers count; ``bool`` and floats, even integral ones,
    do not.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and low <= value and (high is None or value <= high)):
        span = f"in {low}..{high}" if high is not None else f">= {low}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n_cells`` cells covering ``[x_lo, x_hi]``."""

    x_lo: float
    x_hi: float
    n_cells: int

    def __post_init__(self) -> None:
        check_count("n_cells", self.n_cells, 1)
        if not self.x_hi > self.x_lo:
            raise ValueError(f"empty domain [{self.x_lo}, {self.x_hi}]")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def cell_centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def interfaces(self) -> np.ndarray:
        return self.x_lo + np.arange(self.n_cells + 1) * self.dx


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the unit interval [0, 1]; weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape:
            raise ValueError("nodes/weights shape mismatch")

    @property
    def n(self) -> int:
        return self.nodes.size


def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` points mapped to [0, 1] (1 <= n <= 6)."""
    if not 1 <= n <= 6:
        raise ValueError(f"gauss_legendre supports 1..6 points, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule((x + 1.0) / 2.0, w / 2.0)


def gauss_lobatto(n: int) -> QuadratureRule:
    """Gauss-Lobatto rule with ``n`` points mapped to [0, 1] (2 <= n <= 6).

    Endpoints are always nodes; the interior nodes are the roots of P'_{n-1}
    and the weights follow 2 / (n (n-1) P_{n-1}(x)^2) on [-1, 1].
    """
    if not 2 <= n <= 6:
        raise ValueError(f"gauss_lobatto supports 2..6 points, got {n}")
    if n == 2:
        x = np.array([-1.0, 1.0])
    else:
        interior = np.polynomial.legendre.Legendre.basis(n - 1).deriv().roots()
        x = np.concatenate([[-1.0], np.sort(interior.real), [1.0]])
    p = np.polynomial.legendre.Legendre.basis(n - 1)(x)
    w = 2.0 / (n * (n - 1) * p**2)
    return QuadratureRule((x + 1.0) / 2.0, w / 2.0)


class CellField:
    """Cell-average data on a grid, padded with a ghost layer on each side."""

    def __init__(self, grid: Grid, m: int, ghost: int, data: np.ndarray | None = None):
        if ghost < 1:
            raise ValueError("ghost width must be >= 1")
        self.grid = grid
        self.m = int(m)
        self.ghost = int(ghost)
        shape = (grid.n_cells + 2 * ghost, m)
        if data is None:
            data = np.zeros(shape)
        data = np.ascontiguousarray(data, dtype=float)
        if data.shape != shape:
            raise ValueError(f"data shape {data.shape} != {shape}")
        self.data = data

    @property
    def interior(self) -> np.ndarray:
        """View of the non-ghost cell averages, shape (n_cells, m)."""
        return self.data[self.ghost : self.ghost + self.grid.n_cells]

    def copy(self) -> "CellField":
        return CellField(self.grid, self.m, self.ghost, self.data.copy())

    @classmethod
    def from_cell_averages(cls, grid: Grid, values: np.ndarray, ghost: int) -> "CellField":
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] == 1 and grid.n_cells != 1:
            values = values.T
        field = cls(grid, values.shape[1], ghost)
        field.interior[:] = values
        return field

    @classmethod
    def from_function(
        cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray], ghost: int
    ) -> "CellField":
        """Initialize with per-cell averages of ``fn`` (5-point Gauss-Legendre)."""
        averages = exact_cell_averages(grid, lambda x, t: fn(x), 0.0)
        return cls.from_cell_averages(grid, averages, ghost)


def apply_boundary(field: CellField, kind: str) -> CellField:
    """Fill the ghost layer in place; ``kind`` is 'periodic' or 'transmissive'."""
    g, n = field.ghost, field.grid.n_cells
    if g > n and kind == "periodic":
        raise ValueError("periodic ghost layer wider than the interior")
    if kind == "periodic":
        field.data[:g] = field.data[n : n + g]
        field.data[n + g :] = field.data[g : 2 * g]
    elif kind == "transmissive":
        field.data[:g] = field.data[g]
        field.data[n + g :] = field.data[n + g - 1]
    else:
        raise ValueError(f"unknown boundary kind {kind!r}")
    return field


def exact_cell_averages(
    grid: Grid, exact: Callable[[np.ndarray, float], np.ndarray], t: float
) -> np.ndarray:
    """Cell averages of ``exact(x, t)`` via the 5-point Gauss-Legendre rule."""
    rule = gauss_legendre(_AVERAGING_POINTS)
    x = grid.x_lo + (np.arange(grid.n_cells)[:, None] + rule.nodes[None, :]) * grid.dx
    samples = np.asarray(exact(x, t), dtype=float)  # (n_cells, nq, m)
    return np.einsum("q,cqm->cm", rule.weights, samples)


def error_norms(
    field: CellField, exact: Callable[[np.ndarray, float], np.ndarray], t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-variable (L_inf, L_1, L_2) cell-average error norms against ``exact``."""
    err = field.interior - exact_cell_averages(field.grid, exact, t)
    dx = field.grid.dx
    linf = np.max(np.abs(err), axis=0)
    l1 = dx * np.sum(np.abs(err), axis=0)
    l2 = np.sqrt(dx * np.sum(err**2, axis=0))
    return linf, l1, l2


def observed_order(err_coarse: float, err_fine: float) -> float:
    """log2 ratio of errors under mesh doubling; nan when not measurable."""
    if err_coarse <= 0.0 or err_fine <= 0.0 or not np.isfinite(err_coarse + err_fine):
        return float("nan")
    return float(np.log2(err_coarse / err_fine))


@dataclass
class RunConfig:
    """Scheme parameters for a solver run.

    ``order`` is the nominal accuracy order M+1. Orders 2..5 are the supported
    production range; order 1 (M=0, piecewise-constant) is kept as a
    diagnostic mode for first-order cross-checks.
    """

    order: int
    cfl: float = 0.1
    alpha: float = 1.0
    t_out: float = 1.0
    boundary: str = "periodic"
    fp_tol: float = 1e-12
    fp_max_iter: int = 50
    dt_max: float | None = None

    def __post_init__(self) -> None:
        check_count("order", self.order, 1, 5)
        if not (math.isfinite(self.cfl) and self.cfl > 0.0):
            raise ValueError(f"cfl must be finite and positive, got {self.cfl}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not (math.isfinite(self.t_out) and self.t_out >= 0.0):
            raise ValueError(f"t_out must be finite and non-negative, got {self.t_out}")
        if self.boundary not in ("periodic", "transmissive"):
            raise ValueError(f"unknown boundary kind {self.boundary!r}")
        check_count("fp_max_iter", self.fp_max_iter, 1)
        if not (math.isfinite(self.fp_tol) and self.fp_tol >= 0.0):
            raise ValueError(f"fp_tol must be finite and non-negative, got {self.fp_tol}")
        if self.dt_max is not None and not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")

    @property
    def degree(self) -> int:
        """Polynomial degree M of the reconstruction/predictor."""
        return self.order - 1
