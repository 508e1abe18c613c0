"""Minimization of the defect functionals on a disk.

The pure-trace problems (the split clamped disclination and the elastic
correction of the renormalized energy) need a biharmonic field on the
whole disk with prescribed value and normal derivative on r = R. Mode
by mode it has Almansi's closed form ``a_k r^|k| + b_k r^(|k|+2)``
(Michell 1899): an FFT of the two traces and a 2x2 solve per mode give
the coefficients, the plate energies are exact sums over modes, and the
reported grid field is the summed series.

The core-constrained problem lives on a punctured disk and is solved by
sparse finite differences: the clamped-plate energy on a disk is
written as the Laplacian Gram form
``(1 - nu^2)/(2E) * sum_c w_c (L v)_c^2 dx`` over cut cells, where L is
the 5-point Laplacian and w_c exact area fractions. Squaring L yields
the 13-point bilaplacian stencil. Boundary traces (value and normal
derivative) are imposed through two layers of ghost nodes whose values
are quadratic extrapolations along the boundary normal; this pins both
traces with third-order consistency and keeps the system symmetric
positive definite. Core constraints eliminate core nodes in favor of
three affine parameters per core; the singular closed-form part of the
minimizer is subtracted analytically so the grid only carries a smooth
correction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import (
    DiskDomain,
    Dislocation,
    ElasticConstants,
    NumericalError,
    ValidationError,
    min_separation_D,
    rotate_burgers,
)
from .closedform import (
    DislocationCoreAiry,
    DislocationLimitAiry,
    FundamentalAiry,
    ScaledField,
    ShiftedField,
    SumField,
)
from .energy import _pair_energy_boundary
from .fields import (
    OUTSIDE,
    ScalarField,
    build_mask,
    circle_nodes,
    grid_for_disk,
    region_weights,
)


@dataclass(frozen=True)
class SolveReport:
    """Minimizer, functional value and solve diagnostics."""

    field: ScalarField
    value: float
    residual: float
    method: str
    grid_n: int
    delta: float
    iterations: int
    assemble_seconds: float
    solve_seconds: float
    extras: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "method": self.method,
            "grid_n": self.grid_n,
            "delta": self.delta,
            "iterations": self.iterations,
            "assemble_seconds": self.assemble_seconds,
            "solve_seconds": self.solve_seconds,
            "extras": dict(self.extras),
        }


def _lagrange_weights(t: float) -> np.ndarray:
    """Quadratic Lagrange weights on offsets (-1, 0, 1) at position t."""
    return np.array([0.5 * t * (t - 1.0), (1.0 - t) * (1.0 + t), 0.5 * t * (t + 1.0)])


class _Discretization:
    """Shared assembly: node roles, ghost elimination, Laplacian rows.

    The unknown vector ``u`` stacks the values of free inside nodes and
    then three affine parameters per core (value and two slopes in
    site-centered coordinates). ``P`` and ``q`` express all node values
    as ``v = P u + q``. Ghost rows carry the negated traces of
    ``trace_field`` on r = R and core nodes its negated values, so
    ``trace_field + v`` is affine on every core.
    """

    def __init__(self, domain: DiskDomain, n: int, trace_field, cores=()):
        self.domain = domain
        self.grid = grid_for_disk(domain, n)
        g = self.grid
        self.mask = build_mask(g, domain, cores)
        self.weights = region_weights(g, domain)
        self.cores = list(cores)

        nx, ny = g.nx, g.ny
        n_nodes = nx * ny
        flat_mask = self.mask.ravel()
        inside = flat_mask != OUTSIDE

        w_flat = self.weights.ravel()
        self.cell_ids = np.nonzero(w_flat > 0.0)[0]
        self.cell_w = w_flat[self.cell_ids]

        # nodes appearing in any 3x3 neighborhood of a weighted cell
        ci, cj = np.unravel_index(self.cell_ids, (nx, ny))
        if ci.min() < 2 or cj.min() < 2 or ci.max() > nx - 3 or cj.max() > ny - 3:
            raise NumericalError("ghost padding too small for the weighted region")
        needed = np.zeros(n_nodes, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                needed[(ci + di) * ny + (cj + dj)] = True
        # also cover the 13-point bilaplacian footprint of every inside
        # node: the field carries ghost values there, and the pointwise
        # 13-point equation can be assembled on the same unknowns
        ii, jj = np.unravel_index(np.nonzero(inside)[0], (nx, ny))
        if ii.min() < 2 or jj.min() < 2 or ii.max() > nx - 3 or jj.max() > ny - 3:
            raise NumericalError("ghost padding too small for the inside region")
        for di, dj in (
            (2, 0), (-2, 0), (0, 2), (0, -2),
            (1, 1), (1, -1), (-1, 1), (-1, -1),
            (1, 0), (-1, 0), (0, 1), (0, -1),
        ):
            needed[(ii + di) * ny + (jj + dj)] = True
        self.ghost_ids = np.nonzero(needed & ~inside)[0]

        # unknown numbering: free inside nodes, then 3 DOFs per core
        core_of = np.full(n_nodes, -1, dtype=int)
        X, Y = g.meshgrid()
        for k, (site, eps) in enumerate(self.cores):
            sel = (np.hypot(X - site[0], Y - site[1]) <= eps).ravel() & inside
            core_of[sel] = k
        free = inside & (core_of < 0)
        self.free_ids = np.nonzero(free)[0]
        self.n_free = len(self.free_ids)
        self.n_unknowns = self.n_free + 3 * len(self.cores)
        unk_of = np.full(n_nodes, -1, dtype=int)
        unk_of[self.free_ids] = np.arange(self.n_free)
        self.unk_of = unk_of
        self.core_of = core_of

        xs = X.ravel()
        ys = Y.ravel()
        self.node_x, self.node_y = xs, ys

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        q = np.zeros(n_nodes)

        # free inside nodes: identity
        rows.extend(self.free_ids.tolist())
        cols.extend(unk_of[self.free_ids].tolist())
        vals.extend([1.0] * self.n_free)

        # core nodes: affine parametrization minus the trace field
        core_nodes = np.nonzero(core_of >= 0)[0]
        for node in core_nodes:
            k = core_of[node]
            site = self.cores[k][0]
            base = self.n_free + 3 * k
            rows.extend([node, node, node])
            cols.extend([base, base + 1, base + 2])
            vals.extend([1.0, xs[node] - site[0], ys[node] - site[1]])
        if len(core_nodes):
            pts = np.stack([xs[core_nodes], ys[core_nodes]], axis=-1)
            q[core_nodes] = -trace_field.value(pts)

        # row cache for ghost composition
        row_cache: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}

        def node_row(node: int):
            if node in row_cache:
                return row_cache[node]
            if unk_of[node] >= 0:
                entry = (np.array([unk_of[node]]), np.array([1.0]), 0.0)
            elif core_of[node] >= 0:
                k = core_of[node]
                site = self.cores[k][0]
                base = self.n_free + 3 * k
                entry = (
                    np.array([base, base + 1, base + 2]),
                    np.array([1.0, xs[node] - site[0], ys[node] - site[1]]),
                    float(q[node]),
                )
            else:
                raise NumericalError("ghost interpolation touched an outside node")
            row_cache[node] = entry
            return entry

        cx, cy = domain.center
        R = domain.radius_R
        h = g.delta
        t_probe = 1.5 * h
        for gid in self.ghost_ids:
            px, py = xs[gid], ys[gid]
            r = math.hypot(px - cx, py - cy)
            nhat = np.array([(px - cx) / r, (py - cy) / r])
            t_g = r - R
            if t_g < -1e-12 * R:
                raise NumericalError("ghost node classified inside the disk")
            bpt = np.array([cx, cy]) + R * nhat

            # probe point on the inward normal with an all-inside 3x3 block
            t_m = t_probe
            for _ in range(16):
                m = bpt - t_m * nhat
                bi, bj = g.nearest_index(m)
                block = self.mask[bi - 1 : bi + 2, bj - 1 : bj + 2]
                if block.shape == (3, 3) and np.all(block != OUTSIDE):
                    break
                t_m += 0.5 * h
            else:
                raise NumericalError(f"no interior stencil for ghost node {gid}")

            tx = (m[0] - (g.x0 + bi * h)) / h
            ty = (m[1] - (g.y0 + bj * h)) / h
            wx = _lagrange_weights(tx)
            wy = _lagrange_weights(ty)
            rho = (t_g / t_m) ** 2

            g_D = -float(trace_field.value(bpt)[0])
            g_N = -float(trace_field.gradient(bpt)[0] @ nhat)
            offset = g_D * (1.0 - rho) + g_N * (t_g + rho * t_m)

            acc = 0.0
            for a in range(3):
                for b in range(3):
                    c = wx[a] * wy[b]
                    if c == 0.0:
                        continue
                    node = (bi + a - 1) * ny + (bj + b - 1)
                    rcols, rvals, roff = node_row(node)
                    rows.extend([gid] * len(rcols))
                    cols.extend(rcols.tolist())
                    vals.extend((rho * c * rvals).tolist())
                    acc += c * roff
            q[gid] = rho * acc + offset

        self.P = sp.csr_matrix(
            (vals, (rows, cols)), shape=(n_nodes, self.n_unknowns)
        )
        self.q = q

        # 5-point Laplacian rows at weighted cells
        n_cells = len(self.cell_ids)
        lr = np.repeat(np.arange(n_cells), 5)
        lc = np.stack(
            [
                self.cell_ids,
                self.cell_ids + ny,
                self.cell_ids - ny,
                self.cell_ids + 1,
                self.cell_ids - 1,
            ],
            axis=-1,
        ).ravel()
        lv = np.tile(np.array([-4.0, 1.0, 1.0, 1.0, 1.0]) / h**2, n_cells)
        self.L = sp.csr_matrix((lv, (lr, lc)), shape=(n_cells, n_nodes))
        self.M = (self.L @ self.P).tocsr()
        self.Lq = self.L @ q

    def node_values(self, u: np.ndarray) -> np.ndarray:
        return self.P @ u + self.q


# Largest relative residual a solve may leave: the stationarity residual
# of the factored system, or the trace-fit residual of a mode sum.
_RESIDUAL_BOUND = 1e-8

# trapezoid nodes on each circle of the boundary pairings
_N_QUAD = 512


def _minimize(disc: _Discretization, factor: float, load: np.ndarray):
    """Minimize (factor/2) sum w (M u + L q)^2 dx + load . u."""
    h2 = disc.grid.delta**2
    W = sp.diags(disc.cell_w)
    A = (factor * h2) * (disc.M.T @ (W @ disc.M))
    A = A.tocsc()
    b = -(factor * h2) * (disc.M.T @ (disc.cell_w * disc.Lq)) - load

    t0 = time.perf_counter()
    try:
        u = splu(A).solve(b)
    except RuntimeError as exc:
        raise NumericalError(f"sparse factorization failed: {exc}") from exc
    solve_time = time.perf_counter() - t0

    bnorm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(A @ u - b)) / (bnorm if bnorm > 0.0 else 1.0)
    if residual > _RESIDUAL_BOUND:
        raise NumericalError(f"stationarity residual too large: {residual}")

    r = disc.Lq + disc.M @ u
    value = 0.5 * factor * h2 * float(np.sum(disc.cell_w * r * r)) + float(load @ u)
    return u, value, residual, solve_time


def _gram_factor(elastic: ElasticConstants) -> float:
    return (1.0 - elastic.poisson_nu**2) / elastic.young_E


# The trace fit doubles the sample count M from _FIRST_SAMPLES until the
# traces are reproduced to _FIT_TARGET between the samples; the cap keeps
# the samples a few MB and still resolves a singular site at 0.999 R.
_FIRST_SAMPLES = 64
_MAX_SAMPLES = 2**16
_FIT_TARGET = 1e-13


def _almansi_sum(A: np.ndarray, B: np.ndarray, w: np.ndarray,
                 floor: float) -> np.ndarray:
    """Re sum_k c_k (A_k + B_k |w|^2) w^k at points |w| <= 1, where c_0 = 1
    and c_k = 2 for k >= 1 (the conjugate modes k < 0). Points go by
    growing |w| in chunks; a chunk sums only the modes whose bound
    (|A_k| + |B_k|) |w|^k exceeds ``floor``, so deep nodes cost few."""
    c = np.where(np.arange(len(A)) > 0, 2.0, 1.0)
    A, B = c * A, c * B
    bound = np.abs(A) + np.abs(B)
    out = np.empty(len(w))
    order = np.argsort(np.abs(w))
    for idx in np.array_split(order, max(1, len(w) // 8192)):
        wc = w[idx]
        live = np.nonzero(bound * np.abs(wc).max() ** np.arange(len(A)) > floor)[0]
        sa = sb = 0.0
        for j in range(live[-1] if len(live) else 0, -1, -1):  # Horner
            sa, sb = sa * wc + A[j], sb * wc + B[j]
        out[idx] = (sa + np.abs(wc) ** 2 * sb).real
    return out


class _AlmansiSeries:
    """Biharmonic z on the disk whose value and normal derivative on
    r = R are those of ``-trace_field``.

    With rho = r / R, z = Re sum_{k >= 0} c_k (A_k rho^k + B_k rho^(k+2))
    e^{ik theta} (c as in ``_almansi_sum``). The FFT coefficients F_k of
    the value trace and G_k of R times the normal-derivative trace fix
    A_k + B_k = F_k and k A_k + (k + 2) B_k = G_k (determinant 2).
    """

    def __init__(self, domain: DiskDomain, trace_field):
        R = domain.radius_R

        def traces(m: int, shift: float):
            pts, nhat, _ = circle_nodes(domain.center, R, m, shift)
            # an empty SumField evaluates to the scalar 0
            f = np.zeros(m) - trace_field.value(pts)
            return f, -R * (trace_field.gradient(pts) * nhat).sum(axis=-1)

        # a residual scale that does not vanish with the traces (those of
        # a centered dislocation are roundoff): the field on r = R / 2
        pts, _, _ = circle_nodes(domain.center, R, _FIRST_SAMPLES)
        with np.errstate(all="ignore"):
            inner = np.abs(np.zeros(_FIRST_SAMPLES) + trace_field.value(
                0.5 * (pts + np.asarray(domain.center))))
        inner_scale = float(inner[np.isfinite(inner)].max(initial=0.0))

        m = _FIRST_SAMPLES
        f, g = traces(m, 0.0)
        while True:
            F, G = np.fft.rfft(f) / m, np.fft.rfft(g) / m
            F[-1] = G[-1] = 0.0  # the Nyquist mode has no shifted value
            # the interpolated traces against new samples half-way between
            fs, gs = traces(m, 0.5)
            phase = m * np.exp(1j * math.pi * np.arange(len(F)) / m)
            miss = max(np.abs(np.fft.irfft(F * phase, m) - fs).max(),
                       np.abs(np.fft.irfft(G * phase, m) - gs).max())
            scale = max(inner_scale, np.abs(f).max(), np.abs(g).max())
            residual = float(miss / scale if scale > 0.0 else miss)
            if not residual > _FIT_TARGET or m >= _MAX_SAMPLES:
                break
            f, g = np.stack([f, fs], -1).ravel(), np.stack([g, gs], -1).ravel()
            m *= 2
        if not residual <= _RESIDUAL_BOUND:
            raise NumericalError(f"trace fit residual {residual} with {m} samples")
        k = np.arange(len(F))
        self.A, self.B = 0.5 * ((k + 2.0) * F - G), 0.5 * (G - k * F)
        self.samples, self.residual = m, residual
        self.floor = np.finfo(float).eps * scale
        self.domain = domain

    def squares(self) -> tuple[float, float]:
        """Integrals over the disk of (Delta z)^2 and |4 d_z^2 z|^2, d_z
        the complex derivative. Mode k of Delta z is 4 (k + 1) B_k rho^k
        / R^2; for k >= 1 only, 4 d_z^2 z has 4 (k (k - 1) A_k rho^(k-2)
        + k (k + 1) B_k rho^k) / R^2 in mode k - 2."""
        k = np.arange(len(self.A), dtype=float)
        A, B = self.A, self.B
        lap = np.where(k > 0, 2.0, 1.0) * (k + 1.0) * np.abs(B) ** 2
        wirt = k * (k * (k - 1.0) * np.abs(A) ** 2 + k * (k + 1.0) * np.abs(B) ** 2
                    + 2.0 * (k * k - 1.0) * (A * np.conj(B)).real)
        scale = 16.0 * math.pi / self.domain.radius_R**2
        return scale * float(np.sum(lap)), scale * float(np.sum(wirt))

    def sample(self, n: int):
        """Grid, mask, live nodes and values of z on the grid of size n.

        Inside nodes carry the series. Ghost nodes (outside, within two
        cells of an inside node) carry its second-order Taylor extension
        along the normal from r = R: the series itself diverges outside
        once a singular site is close to the circle.
        """
        grid = grid_for_disk(self.domain, n)
        mask = build_mask(grid, self.domain)
        inside = mask != OUTSIDE
        ghost = np.zeros_like(inside)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                ghost |= np.roll(inside, (di, dj), axis=(0, 1))
        ghost &= ~inside
        X, Y = grid.meshgrid()
        cx, cy = self.domain.center
        w = ((X - cx) + 1j * (Y - cy)) / self.domain.radius_R
        values = np.zeros(X.shape)
        values[inside] = _almansi_sum(self.A, self.B, w[inside], self.floor)
        t = np.abs(w[ghost]) - 1.0
        unit = w[ghost] / (1.0 + t)
        k, A, B = np.arange(len(self.A)), self.A, self.B
        for order, (ca, cb) in enumerate(
            ((1, 1), (k, k + 2), (k * (k - 1), (k + 2) * (k + 1)))
        ):
            # d^order z / d rho^order on r = R, times t^order / order!
            values[ghost] += t**order / math.factorial(order) * _almansi_sum(
                ca * A + cb * B, 0.0 * A, unit, self.floor)
        return grid, mask, inside | ghost, values


def _series_report(series: _AlmansiSeries, n: int, value: float,
                   fit_seconds: float, extras: dict,
                   singular=None) -> SolveReport:
    """Report with the field ``singular + z`` sampled on the grid."""
    t0 = time.perf_counter()
    grid, mask, live, values = series.sample(n)
    if singular is not None:
        values[live] += singular.value(grid.points()[live.ravel()])
    sample_seconds = time.perf_counter() - t0
    return SolveReport(
        field=ScalarField(grid=grid, values=values, mask=mask), value=value,
        residual=series.residual, method="fourier", grid_n=n,
        delta=grid.delta, iterations=0, assemble_seconds=fit_seconds,
        solve_seconds=sample_seconds,
        extras={**extras, "modes": series.samples,
                "trace_fit_residual": series.residual},
    )


def solve_clamped_disclination(elastic: ElasticConstants, domain: DiskDomain,
                               disclinations, n: int = 256) -> SolveReport:
    """Minimize G(v) + sum_k s_k v(y_k) over clamped fields on the disk.

    The fundamental potential of each charge is subtracted analytically:
    the point loads then cancel exactly against the cross term of the
    Gram form, leaving closed-form constants (pairwise potential values
    and circle integrals) plus a pure quadratic problem for a smooth
    biharmonic correction with prescribed boundary traces, solved
    exactly in Fourier modes. The value does not depend on ``n``, which
    only sets the grid of the reported field.
    """
    disclinations = list(disclinations)
    fl = _gram_factor(elastic)
    sites = [np.asarray(d.site, dtype=float) for d in disclinations]
    charges = [float(d.frank_angle_s) for d in disclinations]
    for p in sites:
        if domain.boundary_distance(p) <= 0.0:
            raise ValidationError(f"disclination site {tuple(p)} outside the domain")
    fund = FundamentalAiry(elastic)
    v_sing = SumField(tuple(ScaledField(-s, ShiftedField(tuple(p), fund))
                            for s, p in zip(charges, sites)))

    # closed-form constant: -(1/2) sum_ij s_i s_j [vbar(y_i - y_j)
    #   + f oint (Delta vbar_i d_n vbar_j - (d_n Delta vbar_i) vbar_j)]
    bpts, nhat, ring = circle_nodes(domain.center, domain.radius_R, _N_QUAD)
    m = len(sites)
    lap = np.empty((m, bpts.shape[0]))
    dnlap = np.empty_like(lap)
    val = np.empty_like(lap)
    dn = np.empty_like(lap)
    for i, p in enumerate(sites):
        rel = bpts - p
        lap[i] = fund.laplacian(rel)
        dnlap[i] = (fund.grad_laplacian(rel) * nhat).sum(axis=-1)
        val[i] = fund.value(rel)
        dn[i] = (fund.gradient(rel) * nhat).sum(axis=-1)
    constant = 0.0
    for i in range(m):
        for j in range(m):
            pair_pot = float(fund.value((sites[i] - sites[j])[None, :])[0])
            Q_ij = ring * float(np.mean(lap[i] * dn[j] - dnlap[i] * val[j]))
            constant += -0.5 * charges[i] * charges[j] * (pair_pot + fl * Q_ij)

    t0 = time.perf_counter()
    series = _AlmansiSeries(domain, v_sing)
    gram_value = 0.5 * fl * series.squares()[0]
    fit_seconds = time.perf_counter() - t0
    return _series_report(
        series, n, constant + gram_value, fit_seconds,
        {"scheme": "split", "closed_form_constant": constant,
         "gram_objective": gram_value},
        singular=v_sing,
    )


def _core_plastic_field(elastic: ElasticConstants, domain: DiskDomain,
                        dislocations, eps: float) -> SumField:
    return SumField(
        tuple(
            DislocationCoreAiry(
                elastic=elastic, burgers_b=d.burgers_b, eps=eps,
                radius_R=domain.radius_R, site=d.site,
            )
            for d in dislocations
        )
    )


def solve_core_constrained(elastic: ElasticConstants, domain: DiskDomain,
                           dislocations, eps: float, n: int = 256) -> SolveReport:
    """Minimize the core-regularized dislocation functional.

    The unknown is split as w = W_p + z, where W_p sums the closed-form
    single-dislocation profiles (exact for one centered core) and the
    grid carries only the smooth correction z. Since each profile is
    biharmonic off its core, every coupling of W_p with z reduces by the
    Green identity to circle integrals of closed-form kernels against
    the traces of z, which are pinned: the negated profile traces on
    the outer boundary and the affine core parameters on the core
    circles. The grid therefore only carries the pure Gram form of z,
    and the exact solution of the single centered core is reproduced up
    to quadrature roundoff. The core-circle load reduces exactly to
    <slope of the core affine part, Pi(b_j)> on the admissible class.
    """
    dislocations = list(dislocations)
    if not dislocations:
        raise ValidationError("need at least one dislocation")
    D = min_separation_D([d.site for d in dislocations], domain)
    if not (0.0 < eps < D):
        raise ValidationError(f"core radius eps={eps} must lie in (0, D={D})")

    t0 = time.perf_counter()
    fl = _gram_factor(elastic)
    W_p = _core_plastic_field(elastic, domain, dislocations, eps)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]

    # pair2(f; g) = oint_dOmega [Df d_n g - (d_n Df) g]
    #            - sum_k oint_circle_k [same], ball-outward normals,
    # valid for f biharmonic on the annular region; all kernels analytic.
    def pair2(term, rings):
        acc = 0.0
        for sign, pts_r, nhat_r, ring_r in rings:
            lap_f = term.laplacian_smooth(pts_r)
            dnlap_f = (term.grad_laplacian_smooth(pts_r) * nhat_r).sum(axis=-1)
            g_val = W_p.value(pts_r)
            g_dn = (W_p.gradient(pts_r) * nhat_r).sum(axis=-1)
            acc += sign * ring_r * float(np.mean(lap_f * g_dn - dnlap_f * g_val))
        return acc

    rings = [(1.0, *circle_nodes(domain.center, domain.radius_R, _N_QUAD))]
    for p in sites:
        rings.append((-1.0, *circle_nodes(p, eps, _N_QUAD)))

    C0 = 0.5 * fl * sum(pair2(term, rings) for term in W_p.terms)

    cores = [(d.site, eps) for d in dislocations]
    disc = _Discretization(domain, n, W_p, cores=cores)
    if eps < 4.0 * disc.grid.delta:
        raise ValidationError(
            f"core radius eps={eps} unresolved: needs eps >= 4*delta"
        )

    # linear coupling of the core affine parameters through the circle
    # integrals, plus the slope load <grad a_k, Pi(b_k)>
    load = np.zeros(disc.n_unknowns)
    for k, d in enumerate(dislocations):
        _, cpts, nh, ring = rings[k + 1]  # core circles follow the outer one
        lap_p = sum(t.laplacian_smooth(cpts) for t in W_p.terms)
        dnlap_p = sum(
            (t.grad_laplacian_smooth(cpts) * nh).sum(axis=-1) for t in W_p.terms
        )
        base = disc.n_free + 3 * k
        load[base] += fl * ring * float(np.mean(dnlap_p))
        load[base + 1] += -fl * ring * float(
            np.mean(lap_p * nh[:, 0] - dnlap_p * eps * nh[:, 0])
        )
        load[base + 2] += -fl * ring * float(
            np.mean(lap_p * nh[:, 1] - dnlap_p * eps * nh[:, 1])
        )
        Pi = rotate_burgers(d.burgers_b)
        load[base + 1] += Pi[0]
        load[base + 2] += Pi[1]
    assemble = time.perf_counter() - t0

    u, value, residual, solve_s = _minimize(disc, fl, load)
    value -= C0

    g = disc.grid
    z_nodes = disc.node_values(u)
    live = np.zeros(g.nx * g.ny, dtype=bool)
    live[np.nonzero(disc.mask.ravel() != OUTSIDE)[0]] = True
    live[disc.ghost_ids] = True
    w_nodes = np.zeros(g.nx * g.ny)
    pts_live = np.stack([disc.node_x[live], disc.node_y[live]], axis=-1)
    w_nodes[live] = W_p.value(pts_live) + z_nodes[live]
    sf = ScalarField(grid=g, values=w_nodes.reshape(g.nx, g.ny), mask=disc.mask)

    affine = {}
    for k, d in enumerate(dislocations):
        base = disc.n_free + 3 * k
        affine[f"core_{k}"] = [float(u[base]), float(u[base + 1]), float(u[base + 2])]
    return SolveReport(
        field=sf, value=value, residual=residual, method="direct", grid_n=n,
        delta=g.delta, iterations=0, assemble_seconds=assemble,
        solve_seconds=solve_s,
        extras={"eps": eps, "core_affine": affine, "separation_D": D},
    )


def solve_dipole_core(elastic: ElasticConstants, domain: DiskDomain,
                      dipoles, eps: float, n: int = 256) -> SolveReport:
    """Minimize the finite-h dipole functional on the affine-core class.

    On that class the pair load is a difference quotient of an affine
    function, hence exactly the slope load of the zero-h functional for
    every 0 < h < eps; the discrete problem is therefore identical to
    the core-constrained one and is delegated to it.
    """
    dipoles = list(dipoles)
    for dip in dipoles:
        if not (dip.spacing_h < eps):
            raise ValidationError(
                f"dipole spacing h={dip.spacing_h} must stay below eps={eps}"
            )
    dislocations = [
        Dislocation(site=dip.center, burgers_b=dip.burgers_b) for dip in dipoles
    ]
    report = solve_core_constrained(elastic, domain, dislocations, eps, n)
    extras = dict(report.extras)
    extras["spacing_h"] = [dip.spacing_h for dip in dipoles]
    extras["load_h_independent"] = True
    return replace(report, extras=extras)


def solve_elastic_correction(elastic: ElasticConstants, domain: DiskDomain,
                             dislocations, n: int = 256) -> SolveReport:
    """Biharmonic boundary-relaxation solve.

    The correction is the biharmonic field whose boundary traces cancel
    those of the summed zero-core dislocation profiles, solved exactly
    in Fourier modes, with its plate energy as an exact mode sum; the
    reported value adds the analytic boundary pairing terms, i.e. it is
    the elastic part of the renormalized energy. The value does not
    depend on ``n``, which only sets the grid of the reported field.
    """
    dislocations = list(dislocations)
    if not dislocations:
        raise ValidationError("need at least one dislocation")
    W0_terms = [
        DislocationLimitAiry(elastic=elastic, burgers_b=d.burgers_b,
                             radius_R=domain.radius_R, site=d.site)
        for d in dislocations
    ]
    W0 = SumField(tuple(W0_terms))

    t0 = time.perf_counter()
    series = _AlmansiSeries(domain, W0)
    # Hessian-form energy of the (non-clamped) correction, with
    # |D^2 v|^2 = ((Delta v)^2 + |4 d_z^2 v|^2) / 2
    nu, E = elastic.poisson_nu, elastic.young_E
    lap_square, wirt_square = series.squares()
    G_hess = (1.0 + nu) / (2.0 * E) * ((0.5 - nu) * lap_square + 0.5 * wirt_square)
    gram_value = 0.5 * _gram_factor(elastic) * lap_square
    fit_seconds = time.perf_counter() - t0

    # analytic boundary pairing on the admissible set: traces equal the
    # negated profile traces, so every term is a closed-form circle
    # integral
    outer = [(1.0, *circle_nodes(domain.center, domain.radius_R, _N_QUAD))]
    boundary = -sum(_pair_energy_boundary(term, W0, outer, elastic)
                    for term in W0_terms)

    return _series_report(
        series, n, G_hess + boundary, fit_seconds,
        {"gram_objective": gram_value, "hessian_energy": G_hess,
         "boundary_pairing": boundary},
    )
