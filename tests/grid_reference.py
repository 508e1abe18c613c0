"""Whole-grid views of fields, and cut-cell quadrature weights.

Reference for the tests, kept out of the package, which samples no
field on a whole grid:
- node coordinates and indices of a ``fields.Grid`` (``meshgrid``,
  ``points``, ``nearest_index``, ``node``);
- ``ScalarField`` holds samples at every node of a grid with a node
  mask, and takes their central-difference Hessians;
- ``solution_field`` evaluates a solve's solution at every node of a
  grid in one batch, and writes it with the reference writer (the
  oracle of ``cli._write_solution_csv``);
- the finite-difference oracle of ``tests/test_solver.py`` sums its
  energies over cut cells, exact area fractions of the node-centred
  cells inside a disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from airy_defects.core import DiskDomain, ValidationError
from airy_defects.fields import CORE, INTERIOR, OUTSIDE, Grid, check_core_resolution
from field_reference import write_csv


def meshgrid(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates X, Y indexed [i, j]."""
    return np.meshgrid(grid.xs, grid.ys, indexing="ij")


def nearest_index(grid: Grid, p) -> tuple[int, int]:
    """Index [i, j] of the node nearest the point p."""
    p = np.asarray(p, dtype=float)
    i = int(round((p[0] - grid.x0) / grid.delta))
    j = int(round((p[1] - grid.y0) / grid.delta))
    return i, j


def node(grid: Grid, i: int, j: int) -> np.ndarray:
    """Coordinates of node [i, j]."""
    return np.array([grid.x0 + i * grid.delta, grid.y0 + j * grid.delta])


def points(grid: Grid) -> np.ndarray:
    """All nodes as an (nx*ny, 2) array, row-major."""
    X, Y = meshgrid(grid)
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def build_mask(grid: Grid, domain: DiskDomain, cores=()) -> np.ndarray:
    """Node classification: OUTSIDE / INTERIOR / CORE.

    Core punctures must pass ``check_core_resolution``, otherwise
    construction fails loudly.
    """
    X, Y = meshgrid(grid)
    cx, cy = domain.center
    mask = np.full((grid.nx, grid.ny), OUTSIDE, dtype=np.int8)
    mask[np.hypot(X - cx, Y - cy) < domain.radius_R] = INTERIOR
    for site, eps in cores:
        check_core_resolution(eps, grid.delta)
        inside = np.hypot(X - site[0], Y - site[1]) <= eps
        mask[inside & (mask == INTERIOR)] = CORE
    return mask


@dataclass(frozen=True)
class ScalarField:
    """Scalar samples on a grid with a domain mask (immutable)."""

    grid: Grid
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.mask, dtype=np.int8)
        if v.shape != (self.grid.nx, self.grid.ny) or m.shape != v.shape:
            raise ValidationError("field/mask shape does not match the grid")
        v = v.copy()
        m = m.copy()
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @classmethod
    def sample(cls, fn, grid: Grid, mask: np.ndarray | None = None) -> "ScalarField":
        """Sample a callable fn(points)->values (points of shape (N, 2))."""
        vals = np.asarray(fn(points(grid)), dtype=float).reshape(grid.nx, grid.ny)
        if mask is None:
            mask = np.full((grid.nx, grid.ny), INTERIOR, dtype=np.int8)
        return cls(grid=grid, values=vals, mask=mask)

    def stencil_ok(self) -> np.ndarray:
        """Nodes whose full 3x3 neighborhood lies inside the mask."""
        inside = self.mask != OUTSIDE
        ok = np.zeros_like(inside)
        ok[1:-1, 1:-1] = inside[1:-1, 1:-1]
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ok[1:-1, 1:-1] &= inside[1 + di : self.grid.nx - 1 + di,
                                         1 + dj : self.grid.ny - 1 + dj]
        return ok

    def central_hessian(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw central differences (v_xx, v_xy, v_yy) over the whole array.

        NaN on the array rim only: unlike :meth:`hessian_fd` this reads
        values at masked-out nodes, where the finite-difference oracle
        of ``tests/test_solver.py`` carries ghost values that
        boundary-adjacent cells need.
        """
        v = self.values
        h = self.grid.delta
        vxx = np.full_like(v, np.nan)
        vyy = np.full_like(v, np.nan)
        vxy = np.full_like(v, np.nan)
        vxx[1:-1, :] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / h**2
        vyy[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / h**2
        vxy[1:-1, 1:-1] = (
            v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]
        ) / (4.0 * h**2)
        return vxx, vxy, vyy

    def hessian_fd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Second-order central-difference Hessian.

        Returns (v_xx, v_xy, v_yy, ok) where ``ok`` flags nodes with a
        full stencil; values elsewhere are NaN, never extrapolated.
        """
        vxx, vxy, vyy = self.central_hessian()
        ok = self.stencil_ok()
        bad = ~ok
        vxx[bad] = np.nan
        vyy[bad] = np.nan
        vxy[bad] = np.nan
        return vxx, vxy, vyy, ok


@dataclass(frozen=True)
class SolutionGrid:
    """A solve's solution at every node of a grid: its value and exact
    Hessian (v_xx, v_xy, v_yy) inside the disk, 0 and NaN outside, and
    the node mask."""

    grid: Grid
    values: np.ndarray
    hessians: np.ndarray
    mask: np.ndarray

    def to_csv(self, path) -> None:
        """Header ``x,y,v,v_xx,v_xy,v_yy,mask``, row-major, 17 digits,
        by the reference writer."""
        X, Y = meshgrid(self.grid)
        write_csv(path, "x,y,v,v_xx,v_xy,v_yy,mask",
                  [a.ravel() for a in (X, Y, self.values, *np.moveaxis(self.hessians, -1, 0),
                                       self.mask)])


def solution_field(solution, domain: DiskDomain, grid: Grid) -> SolutionGrid:
    """A solve's ``solution`` at the nodes of ``grid`` inside the disk,
    all in one ``derivatives`` batch, with 0 and NaN Hessians outside;
    masked CORE on the solution's core balls."""
    mask = build_mask(grid, domain)
    inside = mask != OUTSIDE
    X, Y = meshgrid(grid)
    for site, eps in solution.cores:
        mask[np.hypot(X - site[0], Y - site[1]) <= eps] = CORE
    values, hessians = np.zeros(X.shape), np.full(X.shape + (3,), np.nan)
    v, H = solution.derivatives(points(grid)[inside.ravel()], ("value", "hessian"))
    values[inside], hessians[inside] = v, H[:, [0, 0, 1], [0, 1, 1]]
    return SolutionGrid(grid=grid, values=values, hessians=hessians, mask=mask)


def _corner_area(X: float, Y: float, r: float) -> float:
    """Area of {x <= X, y <= Y, x^2 + y^2 <= r^2} (circle centered at 0)."""

    def F(x: float) -> float:
        # antiderivative of sqrt(r^2 - x^2)
        x = min(max(x, -r), r)
        return 0.5 * (x * math.sqrt(max(r * r - x * x, 0.0)) + r * r * math.asin(x / r))

    Xc = min(max(X, -r), r)
    if Xc <= -r:
        return 0.0
    quarter = F(r)  # = pi r^2 / 4
    lower = F(Xc) + quarter  # integral of w over [-r, Xc]
    if Y >= r:
        clip = lower
    elif Y <= -r:
        clip = -lower
    else:
        q = math.sqrt(r * r - Y * Y)
        clip = 0.0
        if Y >= 0.0:
            t1 = min(Xc, -q)
            if t1 > -r:
                clip += F(t1) + quarter
            t2 = min(max(Xc, -q), q)
            if t2 > -q:
                clip += Y * (t2 + q)
            if Xc > q:
                clip += F(Xc) - F(q)
        else:
            t1 = min(Xc, -q)
            if t1 > -r:
                clip -= F(t1) + quarter
            t2 = min(max(Xc, -q), q)
            if t2 > -q:
                clip += Y * (t2 + q)
            if Xc > q:
                clip -= F(Xc) - F(q)
    return max(clip + lower, 0.0)


def circle_rect_area(cx: float, cy: float, r: float,
                     xlo: float, xhi: float, ylo: float, yhi: float) -> float:
    """Exact area of the intersection of B_r((cx, cy)) with a rectangle."""
    a = _corner_area(xhi - cx, yhi - cy, r)
    b = _corner_area(xlo - cx, yhi - cy, r)
    c = _corner_area(xhi - cx, ylo - cy, r)
    d = _corner_area(xlo - cx, ylo - cy, r)
    return max(a - b - c + d, 0.0)


def disk_cell_fractions(grid: Grid, center, radius: float) -> np.ndarray:
    """Per-node fraction of the node-centered cell covered by the disk."""
    cx, cy = float(center[0]), float(center[1])
    X, Y = meshgrid(grid)
    d = np.hypot(X - cx, Y - cy)
    h = grid.delta
    half_diag = h * math.sqrt(0.5)
    frac = np.zeros_like(d)
    frac[d <= radius - half_diag] = 1.0
    cut = (d > radius - half_diag) & (d < radius + half_diag)
    cell_area = h * h
    for i, j in zip(*np.nonzero(cut)):
        x = grid.x0 + i * h
        y = grid.y0 + j * h
        frac[i, j] = circle_rect_area(
            cx, cy, radius, x - h / 2, x + h / 2, y - h / 2, y + h / 2
        ) / cell_area
    return frac


def region_weights(grid: Grid, domain: DiskDomain, cores=()) -> np.ndarray:
    """Cut-cell quadrature weights (area fractions) of the disk minus cores.

    ``cores`` is a sequence of (site, radius) pairs, pairwise disjoint
    and inside the disk.
    """
    w = disk_cell_fractions(grid, domain.center, domain.radius_R)
    for site, eps in cores:
        w = w - disk_cell_fractions(grid, site, eps)
    return np.clip(w, 0.0, 1.0)
