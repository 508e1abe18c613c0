"""Cut-cell quadrature weights and a bicubic view of grid fields.

Reference for the tests: the finite-difference oracle of
``tests/test_solver.py`` sums its energies over cut cells, exact area
fractions of the node-centred cells inside a disk, and
``tests/test_boundary.py`` reads a solver's grid field through a
bicubic spline, so that the boundary checks can take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from airy_defects.core import DiskDomain
from airy_defects.fields import Grid, ScalarField


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
    X, Y = grid.meshgrid()
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


@dataclass(frozen=True)
class SplineField:
    """C^2 bicubic view of a grid field over its whole rectangle.

    Gives value, gradient, Hessian and Laplacian over (N, 2) points, as
    the closed forms do.
    """

    base: ScalarField

    def __post_init__(self) -> None:
        g = self.base.grid
        object.__setattr__(self, "_sp", RectBivariateSpline(
            g.xs, g.ys, self.base.values, kx=3, ky=3))

    def _split(self, x):
        p = np.asarray(x, dtype=float).reshape(-1, 2)
        return p[:, 0], p[:, 1]

    def value(self, x):
        px, py = self._split(x)
        return self._sp.ev(px, py)

    def gradient(self, x):
        px, py = self._split(x)
        sp = self._sp
        return np.stack([sp.ev(px, py, dx=1), sp.ev(px, py, dy=1)], axis=-1)

    def hessian(self, x):
        px, py = self._split(x)
        sp = self._sp
        H = np.empty((px.shape[0], 2, 2))
        H[:, 0, 0] = sp.ev(px, py, dx=2)
        H[:, 1, 1] = sp.ev(px, py, dy=2)
        H[:, 0, 1] = sp.ev(px, py, dx=1, dy=1)
        H[:, 1, 0] = H[:, 0, 1]
        return H

    def laplacian(self, x):
        H = self.hessian(x)
        return H[:, 0, 0] + H[:, 1, 1]
