import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import michell_reference
from grid_reference import (
    ScalarField,
    build_mask,
    meshgrid,
    nearest_index,
    points,
    region_weights,
    solution_field,
)

from airy_defects.core import (
    Disclination,
    DisclinationDipole,
    Dislocation,
    DiskDomain,
    ElasticConstants,
    NumericalError,
    ValidationError,
    min_separation_D,
)
from airy_defects import closedform, solver
from airy_defects.asymptotics import expansion_check, renormalized_energy
from airy_defects.closedform import (
    DislocationCoreAiry,
    DislocationLimitAiry,
    FundamentalAiry,
    ScaledField,
    ShiftedField,
    SingleDisclinationClamped,
    SumField,
)
from airy_defects.energy import single_dislocation_min_value
from airy_defects.fields import OUTSIDE, circle_nodes, grid_for_disk
from airy_defects.solver import (
    solve_clamped_disclination,
    solve_core_constrained,
    solve_dipole_core,
    solve_elastic_correction,
)

CENTERED = [Disclination((0.0, 0.0), 1.0)]

# ---------------------------------------------------------------------------
# finite-difference reference implementation
# ---------------------------------------------------------------------------
#
# The grid discretization the series solvers replaced, kept as an
# independent oracle: the clamped-plate energy on the disk is the
# Laplacian Gram form ``(1 - nu^2)/(2E) * sum_c w_c (L v)_c^2 dx`` over cut
# cells (5-point L, exact area fractions w_c). Boundary traces are imposed
# through two layers of ghost nodes whose values are quadratic
# extrapolations along the boundary normal, and core nodes are tied to
# three affine parameters per core.


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
        X, Y = meshgrid(g)
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
                bi, bj = nearest_index(g, m)
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


_BIHARMONIC_STENCIL = (
    ((0, 0), 20.0),
    ((1, 0), -8.0), ((-1, 0), -8.0), ((0, 1), -8.0), ((0, -1), -8.0),
    ((1, 1), 2.0), ((1, -1), 2.0), ((-1, 1), 2.0), ((-1, -1), 2.0),
    ((2, 0), 1.0), ((-2, 0), 1.0), ((0, 2), 1.0), ((0, -2), 1.0),
)


def _fd_oracle(elastic, domain, trace_field, n):
    """Finite-difference oracle of the pure-trace problems.

    Solves the 13-point bilaplacian equation at every inside node for
    the field z whose traces on r = R are those of ``-trace_field``
    (ghost rows of ``_Discretization`` carry the trace data) and
    returns its cut-cell Gram objective (1 - nu^2)/(2E) int (Delta z)^2
    and its central-difference Hessian energy
    (1 + nu)/(2E) int |D^2 z|^2 - nu (Delta z)^2, both second order.
    """
    disc = _Discretization(domain, n, trace_field)
    g = disc.grid
    free = disc.free_ids
    rows, cols, vals = [], [], []
    for (di, dj), c in _BIHARMONIC_STENCIL:
        rows.append(np.arange(len(free)))
        cols.append(free + di * g.ny + dj)
        vals.append(np.full(len(free), c / g.delta**4))
    B = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(free), g.nx * g.ny),
    )
    u = spla.splu((B @ disc.P).tocsc()).solve(-B @ disc.q)
    h = g.delta
    lap = disc.Lq + disc.M @ u
    gram = 0.5 * (1.0 - elastic.poisson_nu**2) / elastic.young_E * h * h * float(
        np.sum(disc.cell_w * lap * lap)
    )
    v = ScalarField(grid=g, values=disc.node_values(u).reshape(g.nx, g.ny),
                    mask=disc.mask)
    vxx, vxy, vyy = v.central_hessian()
    nu, E = elastic.poisson_nu, elastic.young_E
    dens = (1.0 + nu) / (2.0 * E) * (
        vxx**2 + 2.0 * vxy**2 + vyy**2 - nu * (vxx + vyy) ** 2
    )
    return gram, float(np.sum(dens.ravel()[disc.cell_ids] * disc.cell_w)) * h * h


def _fd_core_value(elastic, domain, dislocations, eps, n):
    """Finite-difference value of the core-constrained functional.

    Same split w = W_p + z, constant and core loads as the series solve
    (``solver._core_problem``); the Gram form of z over the disk is the
    cut-cell sum, minimized by one sparse LU solve of the SPD normal
    equations. First order: the cores are staircases on the grid.
    """
    W_p, _, C0, load = solver._core_problem(elastic, domain, dislocations, eps)
    disc = _Discretization(domain, n, W_p,
                           cores=[(d.site, eps) for d in dislocations])
    full = np.zeros(disc.n_unknowns)
    full[disc.n_free:] = load
    factor = solver._gram_factor(elastic) * disc.grid.delta**2
    A = factor * (disc.M.T @ (sp.diags(disc.cell_w) @ disc.M))
    b = -factor * (disc.M.T @ (disc.cell_w * disc.Lq)) - full
    u = spla.splu(A.tocsc()).solve(b)
    r = disc.Lq + disc.M @ u
    return 0.5 * factor * float(np.sum(disc.cell_w * r * r)) + float(full @ u) - C0


def _singular_part(elastic, disclinations):
    """Subtracted singular field of the split disclination problem."""
    fund = FundamentalAiry(elastic)
    return SumField(tuple(
        ScaledField(-d.frank_angle_s, ShiftedField(d.site, fund))
        for d in disclinations
    ))


def _inside_nodes(domain, n):
    """The nodes of the grid of size n inside the disk, cores included."""
    grid = grid_for_disk(domain, n)
    return points(grid)[build_mask(grid, domain).ravel() != OUTSIDE]


def _grid_field(report, domain, n):
    """The report's solution on the grid of size n (``solution_field``)."""
    return solution_field(report.solution, domain, grid_for_disk(domain, n))


def _limit_profiles(elastic, domain, dislocations):
    """Summed zero-core profiles whose traces the elastic correction cancels."""
    return SumField(tuple(
        DislocationLimitAiry(elastic=elastic, burgers_b=d.burgers_b,
                             radius_R=domain.radius_R, site=d.site)
        for d in dislocations
    ))


class TestDisclinationSolve:
    def test_centered_split_is_near_exact(self, elastic, unit_disk):
        report = solve_clamped_disclination(elastic, unit_disk, CENTERED, n=128)
        K = elastic.plane_prefactor
        exact = -K / (32.0 * math.pi)
        assert abs(report.value - exact) / abs(exact) < 1e-10

    def test_field_matches_closed_form(self, elastic, unit_disk):
        report = solve_clamped_disclination(elastic, unit_disk, CENTERED, n=128)
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        pts = _inside_nodes(unit_disk, 128)
        num = report.solution.value(pts)
        ref = v.value(pts)
        denom = math.sqrt(float(np.sum(ref**2)))
        assert math.sqrt(float(np.sum((num - ref) ** 2))) / denom < 1e-8

    def test_off_center_converges(self, elastic, unit_disk):
        # the Fourier value is exact, so n only sets the reported grid; the
        # 13-point oracle converges to it at second order (error / 4 per
        # doubling, at least / 3 required)
        disc = [Disclination((0.3, -0.2), 1.0)]
        pair = [Dislocation((x, 0.0), (0.0, 1.0)) for x in (0.3, -0.3)]
        for solve, defects, key, trace, oracle_key in (
            (solve_clamped_disclination, disc, "gram_objective",
             _singular_part(elastic, disc), 0),
            (solve_elastic_correction, pair, "hessian_energy",
             _limit_profiles(elastic, unit_disk, pair), 1),
        ):
            exact = [
                solve(elastic, unit_disk, defects, n=n).extras[key]
                for n in (64, 128, 256)
            ]
            assert max(abs(v - exact[0]) for v in exact) <= 1e-14 * abs(exact[0])
            errors = [
                abs(_fd_oracle(elastic, unit_disk, trace, n)[oracle_key] - exact[0])
                for n in (64, 128, 256)
            ]
            assert errors[0] > 3.0 * errors[1] > 9.0 * errors[2] > 0.0

    def test_superposition_of_charges(self, elastic, unit_disk):
        # the minimizer is linear in the charges; the value is quadratic,
        # and for charges at the same site it scales as s^2
        one = solve_clamped_disclination(elastic, unit_disk, CENTERED, n=96)
        two = solve_clamped_disclination(
            elastic, unit_disk, [Disclination((0.0, 0.0), 2.0)], n=96
        )
        assert two.value == pytest.approx(4.0 * one.value, rel=1e-10)

    def test_report_dict(self, elastic, unit_disk):
        report = solve_clamped_disclination(elastic, unit_disk, CENTERED, n=64)
        d = report.to_dict()
        for key in ("value", "residual", "method", "grid_n", "delta"):
            assert key in d

    def test_report_says_what_ran(self, elastic, unit_disk):
        report = solve_clamped_disclination(elastic, unit_disk, CENTERED, n=64)
        assert report.method == "fourier"
        assert report.residual < 1e-13

    def test_empty_configuration_is_zero(self, elastic, unit_disk):
        report = solve_clamped_disclination(elastic, unit_disk, [], n=64)
        assert report.value == 0.0
        assert not np.any(_grid_field(report, unit_disk, 64).values)

    def test_exact_traces_stop_at_first_fit(self, elastic, unit_disk):
        # the centered charge has a constant normal-derivative trace and a
        # roundoff value trace; the centered dislocation has roundoff
        # traces only
        disc = solve_clamped_disclination(elastic, unit_disk, CENTERED, n=64)
        corr = solve_elastic_correction(
            elastic, unit_disk, [Dislocation((0.0, 0.0), (0.0, 1.0))], n=64
        )
        for report in (disc, corr):
            assert report.extras["modes"] == solver._FIRST_SAMPLES

    def test_site_near_boundary_has_bounded_ghosts(self, elastic, unit_disk):
        report = solve_clamped_disclination(
            elastic, unit_disk, [Disclination((0.99, 0.0), 1.0)], n=256
        )
        field = _grid_field(report, unit_disk, 256)
        v = field.values
        assert np.all(np.isfinite(v))
        inside = field.mask != 0
        assert np.abs(v[~inside]).max() <= np.abs(v[inside]).max()

    @pytest.mark.parametrize("r, expected", [
        (0.97, -3.817980609755606e-05),
        (0.99, -4.328773970718736e-06),
        (0.995, -1.0876384827981922e-06),
    ])
    def test_site_near_the_circle(self, r, expected, elastic, unit_disk):
        # the closed-form constant's circle sum settles however near the
        # site; references from fixed rules of 8192 and 32768 nodes,
        # which agree to 1e-15 (512 nodes were 32% off at r = 0.995)
        report = solve_clamped_disclination(
            elastic, unit_disk, [Disclination((r, 0.0), 1.0)])
        assert report.value == pytest.approx(expected, rel=1e-10)

    def test_unresolvable_traces_raise(self, elastic, unit_disk, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_SAMPLES", 128)
        with pytest.raises(NumericalError, match="trace fit residual"):
            solve_clamped_disclination(
                elastic, unit_disk, [Disclination((0.99, 0.0), 1.0)], n=64
            )

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_trace_fit_stops_on_its_roundoff_floor(self, h, elastic,
                                                   unit_disk, monkeypatch):
        # the residual of a close +-1 pair floors just above _FIT_TARGET;
        # the fit stops once a doubling fails to halve it, with the value
        # of the fit that doubles up to the sample cap
        pair = [Disclination((0.5 * h, 0.0), 1.0),
                Disclination((-0.5 * h, 0.0), -1.0)]
        report = solve_clamped_disclination(elastic, unit_disk, pair, n=64)
        assert report.extras["modes"] <= 128
        monkeypatch.setattr(solver, "_keeps_doubling",
                            lambda residual, previous, target: residual > target)
        capped = solve_clamped_disclination(elastic, unit_disk, pair, n=64)
        assert capped.extras["modes"] == solver._MAX_SAMPLES
        assert report.value == pytest.approx(capped.value, rel=1e-12)

    def test_trace_solvers_do_not_factor(self, elastic, unit_disk, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sparse factorization on a trace problem")

        monkeypatch.setattr(solver, "splu", refuse)
        solve_clamped_disclination(
            elastic, unit_disk, [Disclination((0.3, -0.2), 1.0)], n=64
        )
        solve_elastic_correction(
            elastic, unit_disk, [Dislocation((0.4, 0.0), (0.0, 1.0))], n=64
        )


def _spy_rungs(monkeypatch) -> list:
    """Record the mode counts of every ``_MichellSeries`` rung fitted."""
    rungs, series = [], solver._MichellSeries

    def spy(domain, sites, eps, W_p, m_inner, m_core):
        rungs.append((m_inner, m_core))
        return series(domain, sites, eps, W_p, m_inner, m_core)

    monkeypatch.setattr(solver, "_MichellSeries", spy)
    return rungs


PAIR_SAME = [Dislocation((x, 0.0), (0.0, 1.0)) for x in (0.3, -0.3)]
PAIR_OPPOSITE = [Dislocation((0.3, 0.0), (0.0, 1.0)),
                 Dislocation((-0.3, 0.0), (0.0, -1.0))]
# one core 0.2 from the circle, eps 0.2 D, and its value at modes (512, 256)
NEAR_CIRCLE = [Dislocation((0.8, 0.0), (0.0, 1.0))]
NEAR_CIRCLE_VALUE = float.fromhex("-0x1.4903bc218afd7p-4")
# defects, eps, value and the final mode counts; the counts are pinned
# only where the residuals of the last two fits lie 5x or more from
# _SERIES_TARGET (the pairs at eps 0.1 end their (32, 16) fit at 1.0e-12)
REFERENCE_CASES = [
    ([Dislocation((0.0, 0.0), (0.0, 1.0))], 0.1, -0.057819900928390, [16, 8]),
    ([Dislocation((0.3, 0.0), (0.0, 1.0))], 0.1, -0.057631009552692, [32, 16]),
    (PAIR_SAME, 0.1, -0.073563461626869, None),
    (PAIR_OPPOSITE, 0.1, -0.153772978797308, None),
    # outer-circle residuals 3.1e-7 then 1.1e-13 at (16, 8), (32, 16);
    # core-circle residuals 5.8e-7 then 1.1e-13 at (32, 16), (32, 32);
    # and 9.5e-8 then 1.2e-13 at (16, 8), (32, 16)
    (PAIR_SAME, 0.2, -0.0252260928470686, [32, 32]),
    (PAIR_SAME, 0.05, -0.130657023839609, [32, 16]),
]
REFERENCE_IDS = ["centered", "single", "same", "opposite", "same-eps0.2",
                 "same-eps0.05"]


class TestCoreConstrainedSolve:
    def test_centered_matches_closed_form(self, elastic, unit_disk):
        defects = [Dislocation((0.0, 0.0), (0.0, 1.0))]
        report = solve_core_constrained(elastic, unit_disk, defects, 0.1, n=128)
        exact = single_dislocation_min_value(elastic, 1.0, 1.0, 0.1)
        assert abs(report.value - exact) / abs(exact) < 1e-10

    def test_minimizer_matches_profile_l2(self, elastic, unit_disk):
        defects = [Dislocation((0.0, 0.0), (0.0, 1.0))]
        report = solve_core_constrained(elastic, unit_disk, defects, 0.1, n=128)
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        )
        pts = _inside_nodes(unit_disk, 128)
        num = report.solution.value(pts)
        ref = w.value(pts)
        denom = math.sqrt(float(np.sum(ref**2)))
        assert math.sqrt(float(np.sum((num - ref) ** 2))) / denom < 2e-3

    def test_unresolved_core_rejected(self, elastic, unit_disk):
        # a core ball that reaches the circle (eps >= D) is rejected
        with pytest.raises(ValidationError):
            solve_core_constrained(
                elastic, unit_disk, [Dislocation((0.95, 0.0), (0.0, 1.0))],
                0.06, n=64,
            )
        # a core narrower than the report grid is not: the grid only
        # samples the series
        report = solve_core_constrained(
            elastic, unit_disk, [Dislocation((0.0, 0.0), (0.0, 1.0))], 0.01,
            n=64,
        )
        exact = single_dislocation_min_value(elastic, 1.0, 1.0, 0.01)
        assert report.value == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("R, site, eps", [
        (1.0, 0.95, 0.05),  # D = 0.05000000000000004
        (2.0, 1.9, 0.1),  # D = 0.10000000000000009
    ])
    def test_touching_core_rejected_before_the_fit(self, R, site, eps, elastic,
                                                   monkeypatch):
        # eps < D by roundoff only: the ball touches the circle
        def no_fit(*args):
            raise AssertionError("the series was fitted")

        monkeypatch.setattr(solver, "_MichellSeries", no_fit)
        with pytest.raises(ValidationError, match="gap"):
            solve_core_constrained(
                elastic, DiskDomain((0.0, 0.0), R),
                [Dislocation((site, 0.0), (0.0, 1.0))], eps, n=64,
            )

    def test_report_says_what_ran(self, elastic, unit_disk):
        defects = [Dislocation((0.2, 0.0), (0.0, 1.0))]
        report = solve_core_constrained(elastic, unit_disk, defects, 0.2, n=64)
        assert report.method == "series"
        assert report.residual <= solver._RESIDUAL_BOUND
        m_inner, m_core = report.extras["modes"]
        assert m_inner >= solver._FIRST_MODES and 2 * m_core >= solver._FIRST_MODES
        for key in ("eps", "core_affine", "separation_D", "value_change"):
            assert key in report.extras
        assert 1.0 <= report.extras["fit_condition"] < 1e6

    def test_unresolved_series_fit_raises(self, elastic, unit_disk,
                                          monkeypatch):
        # a core near the circle needs hundreds of interior modes; the cap
        # holds both blocks at the first rung
        monkeypatch.setattr(solver, "_MAX_MODES", solver._FIRST_MODES)
        rungs = _spy_rungs(monkeypatch)
        with pytest.raises(NumericalError, match="core series fit residual"):
            solve_core_constrained(
                elastic, unit_disk, [Dislocation((0.9, 0.0), (0.0, 1.0))],
                0.05, n=64,
            )
        assert rungs == [(solver._FIRST_MODES, solver._FIRST_MODES // 2)]

    def test_blocks_double_on_their_own_residuals(self, elastic, unit_disk):
        # (the eps 0.2 pair of REFERENCE_CASES needs more core modes only,
        # and ends at M_e = M_i.) A core at distance 0.2 from the circle
        # needs hundreds of interior modes but few core modes; the value is
        # the coupled ladder's, which ended at (512, 256)
        one = solve_core_constrained(elastic, unit_disk, NEAR_CIRCLE, 0.04, n=64)
        m_inner, m_core = one.extras["modes"]
        assert m_core < m_inner / 2
        assert one.value == pytest.approx(NEAR_CIRCLE_VALUE, rel=1e-14)

    def test_no_rung_starts_above_the_memory_budget(self, elastic, unit_disk,
                                                    monkeypatch):
        rungs = _spy_rungs(monkeypatch)
        # the (128, 16) fit is within _RESIDUAL_BOUND (1.6e-11) but above
        # the target, and (256, 16) is over the budget: the ladder stops
        monkeypatch.setattr(solver, "_MAX_RUNG_BYTES", solver._rung_bytes(128, 16, 1))
        report = solve_core_constrained(elastic, unit_disk, NEAR_CIRCLE, 0.04, n=64)
        assert rungs == [(16, 8), (32, 16), (64, 16), (128, 16)]
        assert report.extras["modes"] == [128, 16]
        assert report.value == pytest.approx(NEAR_CIRCLE_VALUE, rel=1e-13)
        # the (16, 8) fit is far from resolved when the budget ends the
        # ladder, and no rung at all fits a 1-byte budget
        for budget, fitted in ((solver._rung_bytes(16, 8, 1), 1), (1, 0)):
            rungs.clear()
            monkeypatch.setattr(solver, "_MAX_RUNG_BYTES", budget)
            with pytest.raises(NumericalError, match="memory budget"):
                solve_core_constrained(elastic, unit_disk, NEAR_CIRCLE, 0.04, n=64)
            assert rungs == [(16, 8)][:fitted]

    def test_one_block_doubles_when_both_do_not_fit(self, elastic, unit_disk,
                                                    monkeypatch):
        # at (64, 32) the outer residual is 1.3e-6 and the core one
        # 2.0e-12, so both blocks would double, but (128, 64) is over a
        # budget of the (128, 32) rung: the outer block doubles alone and
        # the fit settles on its roundoff floor (2.8e-12); the value is
        # within 2e-13 of that of (256, 64), where the ladder ends
        # without the budget
        rungs = _spy_rungs(monkeypatch)
        monkeypatch.setattr(solver, "_MAX_RUNG_BYTES", solver._rung_bytes(128, 32, 2))
        defects = [Dislocation((x, 0.0), (0.0, 1.0)) for x in (0.7, -0.7)]
        report = solve_core_constrained(elastic, unit_disk, defects, 0.2, n=64)
        assert rungs == [(16, 8), (32, 16), (64, 32), (128, 32)]
        assert report.residual <= 10.0 * solver._SERIES_TARGET
        assert report.value == pytest.approx(-0.01974457228198591, rel=1e-12)

    @pytest.mark.parametrize("cores", [1, 2, 4, 8])
    def test_rung_bytes_bound_the_traced_peak(self, cores, elastic, unit_disk):
        # cores on r = 0.5 with eps 0.2 D; the estimate adds the arrays of
        # a rung's largest stage to the temporaries of the earlier ones, so
        # it bounds the traced peak and stays within 1.5 times it
        angles = 0.3 + 2.0 * math.pi * np.arange(cores) / cores
        sites = [0.5 * np.array([math.cos(t), math.sin(t)]) for t in angles]
        eps = 0.2 * min_separation_D(sites, unit_disk)
        defects = [Dislocation(tuple(y), (0.0, 1.0)) for y in sites]
        W_p, *_ = solver._core_problem(elastic, unit_disk, defects, eps)
        for modes in ((32, 16), (128, 16)):
            tracemalloc.start()
            try:
                solver._MichellSeries(unit_disk, sites, eps, W_p, *modes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= solver._rung_bytes(*modes, cores) <= 1.5 * peak

    def test_circles_fit_their_low_frequencies(self, elastic, unit_disk):
        # the misses of the value and the radius-scaled d_n traces vanish
        # to roundoff below M_i on the outer circle and below M_e on each
        # core circle, for every data set
        eps, (m_inner, m_core) = 0.2, (32, 16)
        sites = [np.asarray(d.site, dtype=float) for d in PAIR_SAME]
        W_p, *_ = solver._core_problem(elastic, unit_disk, PAIR_SAME, eps)
        series = solver._MichellSeries(unit_disk, sites, eps, W_p,
                                       m_inner, m_core)
        for k, (y, radius, count) in enumerate(
                [((0.0, 0.0), 1.0, m_inner)] + [(y, eps, m_core) for y in sites]):
            pts, nhat, _ = circle_nodes(y, radius, 4 * count)
            z, dz = series.fields(pts, nhat)[:2]
            val, der = np.zeros((2, *z.shape))
            value, gradient = W_p.value_and_gradient(pts)
            val[:, 0], der[:, 0] = -value, -radius * (gradient * nhat).sum(axis=-1)
            if k:
                val[:, 3 * k - 2], val[:, 3 * k - 1:3 * k + 1] = 1.0, pts - y
                der[:, 3 * k - 1:3 * k + 1] = eps * nhat
            for miss in (z - val, radius * dz - der):
                low = np.fft.rfft(miss, axis=0)[:count] / len(pts)
                assert np.all(np.abs(low) <= 1e-13 * series.size)

    def test_four_cores_near_the_circle(self, elastic, unit_disk):
        # four cores on r = 0.8, eps 0.04: the ladder that fitted every
        # core circle at its nodes ended at (512, 128) with this value
        # (float.hex); the last two core residuals (8.9e-13, 8.0e-13) lie
        # within 5x of _SERIES_TARGET, so M_e is bounded, not pinned
        burgers = [(0.0, 1.0), (1.0, 0.0), (0.6, -0.8), (-0.28, 0.96)]
        defects = [Dislocation((0.8 * math.cos(t), 0.8 * math.sin(t)), b)
                   for t, b in zip(0.5 * math.pi * np.arange(4), burgers)]
        report = solve_core_constrained(elastic, unit_disk, defects, 0.04, n=64)
        assert report.value == pytest.approx(
            float.fromhex("-0x1.0da82d7568df4p-2"), rel=1e-13)
        assert report.extras["modes"][1] <= 32

    @pytest.mark.parametrize("defects, eps, expected, modes", REFERENCE_CASES,
                             ids=REFERENCE_IDS)
    def test_reference_values(self, defects, eps, expected, modes, elastic,
                              unit_disk):
        report = solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        assert report.value == pytest.approx(expected, rel=1e-12)
        if modes is not None:
            assert report.extras["modes"] == modes

    @pytest.mark.parametrize("defects", [c[0] for c in REFERENCE_CASES[:4]],
                             ids=REFERENCE_IDS[:4])
    def test_fit_matches_pivoted_lstsq(self, defects, elastic, unit_disk,
                                       monkeypatch):
        # every fit of the doubling, against LAPACK's column-pivoted
        # least squares on the same scaled columns
        from scipy.linalg import lstsq

        fits, least_squares = [], solver._least_squares

        def spy(system, n):
            # the fit scales the system in place: copy it first
            A, B = system[:, :n].copy(), system[:, n:].copy()
            X, condition = least_squares(system, n)
            fits.append((A, B, X))
            return X, condition

        monkeypatch.setattr(solver, "_least_squares", spy)
        solve_core_constrained(elastic, unit_disk, defects, 0.1, n=64)
        assert fits
        for A, B, X in fits:
            scale = np.abs(A).max(axis=0)
            ref = lstsq(A / scale, B, lapack_driver="gelsy")[0] / scale[:, None]
            assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_repeated_mode_column_raises(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 7))
        B = rng.standard_normal((7, 2))
        X, condition = solver._least_squares(np.hstack([A, B]), 7)
        assert np.allclose(A @ X, B, atol=1e-12)
        assert 1.0 <= condition <= np.linalg.cond(A / np.abs(A).max(axis=0), 1)
        # a column that repeats another to roundoff, and a zero column,
        # which LAPACK finds exactly singular
        for column in (3.0 * A[:, 2:3], np.zeros((7, 1))):
            with pytest.raises(NumericalError, match="rank deficient"):
                solver._least_squares(np.hstack([A[:, :6], column, B]), 7)

    @pytest.mark.parametrize("defects, eps", [c[:2] for c in REFERENCE_CASES],
                             ids=REFERENCE_IDS)
    def test_fit_condition_bounds_kappa(self, defects, eps, elastic, unit_disk,
                                        monkeypatch):
        # on every rung the probe estimate lies within [kappa_1 / 10,
        # kappa_1] of the scaled square system, and is at least 1
        fits, least_squares = [], solver._least_squares

        def spy(system, n):
            A = system[:, :n].copy()
            X, condition = least_squares(system, n)
            fits.append((A / np.abs(A).max(axis=0), condition))
            return X, condition

        monkeypatch.setattr(solver, "_least_squares", spy)
        solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        assert fits
        for A, condition in fits:
            kappa = np.linalg.cond(A, 1)
            assert 1.0 <= condition and kappa / 10.0 <= condition <= kappa

    @pytest.mark.parametrize("defects, eps", [c[:2] for c in REFERENCE_CASES[:5]],
                             ids=REFERENCE_IDS[:5])
    def test_fit_in_place_matches_stacked_qr(self, defects, eps, elastic,
                                             unit_disk, monkeypatch):
        # every fit of the doubling: the system built in LAPACK's layout
        # and scaled in place gives the LU solution and the condition
        # estimate of the stacked copies bit for bit
        fits, least_squares = [], solver._least_squares

        def spy(system, n):
            assert system.flags.f_contiguous
            A, B = system[:, :n].copy(), system[:, n:].copy()
            X, condition = least_squares(system, n)
            fits.append((A, B, X, condition))
            return X, condition

        monkeypatch.setattr(solver, "_least_squares", spy)
        solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        assert fits
        for A, B, X, condition in fits:
            ref, ref_condition = michell_reference.stacked_least_squares(A, B)
            assert np.array_equal(X, ref) and condition == ref_condition

    @pytest.mark.parametrize("defects", [REFERENCE_CASES[0][0], PAIR_SAME],
                             ids=["centered", "pair"])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_rings_in_one_pass_match_per_ring(self, defects, eps, elastic,
                                              unit_disk, monkeypatch):
        nodes, rule = [], solver.circle_sums

        def spy(*args):
            sums, n = rule(*args)
            nodes.append(n)
            return sums, n

        monkeypatch.setattr(solver, "circle_sums", spy)
        _, ball, C0, load = solver._core_problem(elastic, unit_disk, defects,
                                                 eps)
        ref_ball, ref_C0, ref_load = michell_reference.core_problem_per_ring(
            elastic, unit_disk, defects, eps, *nodes)
        assert ball == ref_ball and C0 == ref_C0
        assert np.array_equal(load, ref_load)

    @pytest.mark.parametrize("defects, eps, expected, modes",
                             REFERENCE_CASES[1:], ids=REFERENCE_IDS[1:])
    def test_value_change_of_a_doubling(self, defects, eps, expected, modes,
                                        elastic, unit_disk):
        # same-eps0.2 moves by 4.5e-14 at |value| 0.0252 (1.8e-12
        # relative) over its last doubling; the bound is 100 times that
        report = solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        change = report.extras["value_change"]
        assert change is not None
        assert change <= 1.8e-10 * abs(report.value)

    def test_value_does_not_depend_on_n(self, elastic, unit_disk):
        values = [
            solve_core_constrained(elastic, unit_disk, PAIR_OPPOSITE, 0.1,
                                   n=n).value
            for n in (64, 128, 512)
        ]
        assert max(values) - min(values) <= 1e-14 * abs(values[0])

    @pytest.mark.parametrize("defects", [PAIR_SAME, PAIR_OPPOSITE],
                             ids=["same", "opposite"])
    def test_value_settles_over_the_last_doubling(self, defects, elastic,
                                                  unit_disk):
        for eps in (0.2, 0.1, 0.05):
            report = solve_core_constrained(elastic, unit_disk, defects, eps,
                                            n=64)
            # the change bounds the error of the coarser fit: at eps 0.2
            # its residual is 6e-7 and the change 1.8e-12 |value|
            change = report.extras["value_change"]
            assert change is not None
            assert change <= 1e-11 * abs(report.value)

    def test_green_identity_matches_area_quadrature(self, elastic, unit_disk):
        # Q from circle integrals against a polar quadrature of the
        # Laplacians over the punctured disk, about the core centre: Gauss
        # in r from eps to the circle along each ray, trapezoid in theta
        site, eps = np.array([0.3, 0.0]), 0.1
        defects = [Dislocation(tuple(site), (0.0, 1.0))]
        W_p, *_ = solver._core_problem(elastic, unit_disk, defects, eps)
        series = solver._MichellSeries(unit_disk, [site], eps, W_p, 32, 16)
        _, rays, _ = circle_nodes((0.0, 0.0), 1.0, 128)
        along = rays @ site
        r_max = -along + np.sqrt(along**2 + 1.0 - site @ site)
        x, w = np.polynomial.legendre.leggauss(64)
        half = 0.5 * (r_max - eps)[:, None]
        r = eps + half * (x + 1.0)
        weights = (half * w * r * (2.0 * math.pi / len(rays))).ravel()
        pts = (site + r[..., None] * rays[:, None, :]).reshape(-1, 2)
        normals = np.repeat(rays, len(x), axis=0)
        lap = series.fields(pts, normals)[2]
        area = lap.T @ (weights[:, None] * lap)
        assert np.abs(area - series.Q).max() <= 1e-11 * np.abs(series.Q).max()

    def test_core_near_the_circle(self, elastic, unit_disk):
        report = solve_core_constrained(
            elastic, unit_disk, [Dislocation((0.9, 0.0), (0.0, 1.0))], 0.05,
            n=64,
        )
        assert report.value == pytest.approx(-0.0484659109469, rel=1e-9)

    def test_fd_oracle_converges_at_first_order(self, elastic, unit_disk):
        # staircase cores make the grid solve first order (error / 2 per
        # doubling, at least / 1.5 required)
        defects = [Dislocation((0.3, 0.0), (0.0, 1.0))]
        exact = solve_core_constrained(elastic, unit_disk, defects, 0.1,
                                       n=64).value
        errors = [
            abs(_fd_core_value(elastic, unit_disk, defects, 0.1, n) - exact)
            for n in (128, 256)
        ]
        assert errors[0] >= 1.5 * errors[1] > 0.0

    def test_dipole_solve_delegates(self, elastic, unit_disk):
        dipoles = [DisclinationDipole((0.0, 0.0), (0.0, 1.0), 0.02)]
        dip = solve_dipole_core(elastic, unit_disk, dipoles, 0.1, n=128)
        core = solve_core_constrained(
            elastic, unit_disk, [Dislocation((0.0, 0.0), (0.0, 1.0))], 0.1,
            n=128,
        )
        assert dip.value == pytest.approx(core.value, rel=1e-12)


class TestSeriesTraces:
    """The trace evaluations of the core fit against the five-potential
    Goursat evaluation of ``michell_reference``, at random coefficients
    and points: agreement to roundoff, column by column."""

    @staticmethod
    def _assert_columns_agree(got, ref):
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            assert np.all(np.abs(g - r) <= 1e-13 * np.abs(r).max(axis=0))

    @staticmethod
    def _unit(rng, n):
        return np.exp(2j * math.pi * rng.uniform(size=(n, 1)))

    def test_interior_traces_and_laplacians(self, rng):
        m, columns, R = 24, 5, 1.7
        A, B = (rng.standard_normal((m, columns))
                + 1j * rng.standard_normal((m, columns)) for _ in range(2))
        w = np.sqrt(rng.uniform(size=(60, 1))) * self._unit(rng, 60)
        nu = self._unit(rng, 60)
        X = solver._interior_rows(w, nu, m)
        got = (*solver._interior_traces(X, R, A, B),
               *solver._interior_laplacians(X, R, B))
        self._assert_columns_agree(got, michell_reference.interior_fields(
            w, nu, R, A, B))

    def test_paired_exterior_matches_rotated_potentials(self, rng):
        m_core, eps = 12, 0.13
        zeta = (1.0 + 2.0 * rng.uniform(size=(60, 1))) * self._unit(rng, 60)
        nu = self._unit(rng, 60)
        got = np.empty((4, 60, 4 * m_core - 2))
        solver._michell_traces(zeta, nu, eps, m_core, got)
        self._assert_columns_agree(got, michell_reference.michell_fields(
            zeta, nu, eps, m_core))


class TestElasticCorrection:
    def test_centered_single_vanishes(self, elastic, unit_disk):
        defects = [Dislocation((0.0, 0.0), (0.0, 1.0))]
        report = solve_elastic_correction(elastic, unit_disk, defects, n=128)
        # centered single dislocation: the limit profile already matches
        # its own boundary data, so the relaxation energy is zero
        assert abs(report.value) < 1e-12

    def test_off_center_positive(self, elastic, unit_disk):
        defects = [Dislocation((0.4, 0.0), (0.0, 1.0))]
        report = solve_elastic_correction(elastic, unit_disk, defects, n=128)
        assert report.value < 0.0 or report.value >= 0.0  # finite
        assert np.isfinite(report.value)

    def test_huge_modulus_scales(self, unit_disk):
        # fitted at E = 1 and scaled: at E = 1e308 the squared mode
        # coefficients of the fit would overflow although the result
        # does not
        unit, big = (
            solve_elastic_correction(ElasticConstants(E, 0.3), unit_disk,
                                     PAIR_SAME, n=32)
            for E in (1.0, 1e308))
        assert unit.value == 0.007976596603220951
        assert big.value / 1e308 == pytest.approx(unit.value, rel=1e-15)
        for key in ("gram_objective", "hessian_energy", "boundary_pairing"):
            assert big.extras[key] / 1e308 == pytest.approx(unit.extras[key],
                                                            rel=1e-15)
        big_values, unit_values = (_grid_field(r, unit_disk, 32).values
                                   for r in (big, unit))
        assert np.all(np.isfinite(big_values))
        np.testing.assert_allclose(big_values / 1e308, unit_values,
                                   rtol=1e-15, atol=0.0)

    def test_profiles_build_one_frame_and_meet_the_circle_once(
            self, elastic, unit_disk, monkeypatch):
        # each profile builds its frame once, and each level of the
        # circle rule evaluates each trace of each profile once on the
        # outer circle: one evaluation serves every pairing
        frames, calls, inside = [], [], []
        build, rule = closedform.dipole_frame, solver.circle_sums

        def counted_frame(b):
            frames.append(b)
            return build(b)

        def in_rule(*args):
            inside.append(True)
            try:
                return rule(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(closedform, "dipole_frame", counted_frame)
        monkeypatch.setattr(solver, "circle_sums", in_rule)
        names = ("value", "gradient", "hessian", "laplacian", "grad_laplacian")
        # the traces each method evaluates
        traces = {name: (name,) for name in names}
        traces["value_and_gradient"] = ("value", "gradient")
        for name, evaluated in traces.items():
            def counted(self, x, _method=getattr(DislocationLimitAiry, name),
                        _evaluated=evaluated):
                if inside:
                    calls.extend((id(self), trace, np.array(x, dtype=float))
                                 for trace in _evaluated)
                return _method(self, x)

            monkeypatch.setattr(DislocationLimitAiry, name, counted)
        three = [Dislocation((0.4 * math.cos(a), 0.4 * math.sin(a)),
                             (math.cos(2 * a), math.sin(2 * a)))
                 for a in (0.3, 2.4, 4.5)]
        solve_elastic_correction(elastic, unit_disk, three, n=32)
        assert len(frames) == 3
        profiles = {i for i, _, _ in calls}
        assert len(profiles) == 3
        for _, _, x in calls:
            ring = circle_nodes(unit_disk.center, unit_disk.radius_R, len(x))[0]
            assert np.array_equal(x, ring)
        levels = {len(x) for _, _, x in calls}
        on_ring = Counter((i, name, len(x)) for i, name, x in calls)
        assert on_ring == {(i, name, n): 1 for i in profiles for name in names
                           for n in levels}


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran")

    return refuse


OFF_CENTRE = [Disclination((0.3, -0.2), 1.0)]
DIPOLE = [DisclinationDipole((0.2, 0.0), (0.0, 1.0), 0.02)]
# every solver, with its defects and its core radius (if any)
SOLVES = [
    (solve_clamped_disclination, OFF_CENTRE, ()),
    (solve_core_constrained, PAIR_OPPOSITE, (0.1,)),
    (solve_dipole_core, DIPOLE, (0.1,)),
    (solve_elastic_correction, PAIR_SAME, ()),
]
SOLVE_IDS = ["disclination", "core", "dipole", "correction"]


class TestLazyField:
    def test_values_sample_no_grid(self, elastic, unit_disk, monkeypatch):
        monkeypatch.setattr(solver._AlmansiSeries, "value", _refuse("sampling"))
        monkeypatch.setattr(solver.SeriesSolution, "value", _refuse("sampling"))
        for solve, defects, eps in SOLVES:
            report = solve(elastic, unit_disk, defects, *eps, n=256)
            assert np.isfinite(report.value)
            assert report.solve_seconds == 0.0
            assert report.delta == 2.0 / 256
        single = [Dislocation((0.3, 0.0), (0.0, 1.0))]
        expansion_check(single, elastic, unit_disk, [0.2, 0.1], fit_tail=2)
        renormalized_energy(PAIR_OPPOSITE, elastic, unit_disk)

    @pytest.mark.parametrize("solve, defects, eps", SOLVES, ids=SOLVE_IDS)
    def test_field_is_sampled_once(self, solve, defects, eps, elastic,
                                   unit_disk, monkeypatch):
        # the series is fitted once, by the solve; its solution then
        # gives every node the same value in any batch, so a dump may
        # evaluate it block by block of grid lines
        report = solve(elastic, unit_disk, defects, *eps, n=64)
        monkeypatch.setattr(solver._AlmansiSeries, "fit", _refuse("the fit"))
        monkeypatch.setattr(solver, "_MichellSeries", _refuse("the fit"))
        assert report.solution is report.solution
        grid = grid_for_disk(unit_disk, 64)
        X, Y = meshgrid(grid)
        whole = report.solution.value(points(grid)).reshape(X.shape)
        assert np.all(np.isfinite(whole)) and whole.shape == (64 + 9, 64 + 9)
        for line in range(grid.nx):
            got = report.solution.value(np.stack([X[line], Y[line]], axis=-1))
            assert np.array_equal(got, whole[line])
        assert np.array_equal(report.solution.value(np.zeros((0, 2))), [])

    def test_dipole_field_is_the_core_field(self, elastic, unit_disk):
        dip = solve_dipole_core(elastic, unit_disk, DIPOLE, 0.1, n=64)
        core = solve_core_constrained(
            elastic, unit_disk, [Dislocation((0.2, 0.0), (0.0, 1.0))], 0.1,
            n=64,
        )
        assert dip.delta == core.delta
        pts = points(grid_for_disk(unit_disk, 64))
        for a, b in zip(dip.solution.cores, core.solution.cores):
            assert np.array_equal(a[0], b[0]) and a[1] == b[1]
        assert np.array_equal(dip.solution.value(pts), core.solution.value(pts))

    @pytest.mark.parametrize("n", [4, 4088])  # below 8, above the node cap
    @pytest.mark.parametrize("solve, defects, eps", SOLVES, ids=SOLVE_IDS)
    def test_bad_grid_n_raises_before_the_fit(self, solve, defects, eps, n,
                                              elastic, unit_disk,
                                              monkeypatch):
        monkeypatch.setattr(solver._AlmansiSeries, "fit", _refuse("the fit"))
        monkeypatch.setattr(solver, "_MichellSeries", _refuse("the fit"))
        with pytest.raises(ValidationError, match="grid resolution"):
            solve(elastic, unit_disk, defects, *eps, n=n)
