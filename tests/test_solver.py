import math
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import michell_reference
from test_closedform import _green_mp
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
    rotate_burgers,
)
from airy_defects import closedform, energy, solver
from airy_defects.asymptotics import expansion_check, renormalized_energy
from airy_defects.closedform import (
    DislocationCoreAiry,
    DislocationLimitAiry,
    FundamentalAiry,
    ScaledField,
    ShiftedField,
    SingleDisclinationClamped,
    SumField,
    clamped_green,
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

    Same split w = W_p + z and constant as the series solve had before
    C0 cancelled (``michell_reference.profile_problem``), with no load on
    the core parameters; the Gram form of z over the disk is the cut-cell
    sum, minimized by one sparse LU solve of the SPD normal equations.
    First order: the cores are staircases on the grid.
    """
    W_p, C0 = michell_reference.profile_problem(elastic, domain, dislocations, eps)
    disc = _Discretization(domain, n, W_p,
                           cores=[(d.site, eps) for d in dislocations])
    factor = solver._gram_factor(elastic) * disc.grid.delta**2
    A = factor * (disc.M.T @ (sp.diags(disc.cell_w) @ disc.M))
    b = -factor * (disc.M.T @ (disc.cell_w * disc.Lq))
    u = spla.splu(A.tocsc()).solve(b)
    r = disc.Lq + disc.M @ u
    return 0.5 * factor * float(np.sum(disc.cell_w * r * r)) - C0


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

    @pytest.mark.parametrize("solve, defects", [
        (solve_clamped_disclination, [Disclination((0.9, 0.6), 1.0)]),
        (solve_elastic_correction, [Dislocation((0.9, 0.6), (0.6, 0.8))]),
    ], ids=["disclination", "correction"])
    def test_trace_fit_evaluates_each_level_once(self, solve, defects, elastic,
                                                 monkeypatch):
        # the first level's three point sets (the ring at R / 2, the
        # nodes, the nodes half-way) in one call, then one call of the new
        # half-way nodes per doubling, value and gradient each time
        domain = DiskDomain((0.1, -0.2), 1.5)
        calls, evaluate = [], SumField.derivatives

        def spy(self, x, names):
            calls.append((tuple(names), np.array(x, dtype=float)))
            return evaluate(self, x, names)

        monkeypatch.setattr(SumField, "derivatives", spy)
        report = solve(elastic, domain, defects, n=32)
        m = solver._FIRST_SAMPLES
        nodes = circle_nodes(domain.center, domain.radius_R, m)[0]
        first = np.vstack([0.5 * (nodes + np.asarray(domain.center)), nodes,
                           circle_nodes(domain.center, domain.radius_R, m, 0.5)[0]])
        later = [circle_nodes(domain.center, domain.radius_R, 2**k * m, 0.5)[0]
                 for k in range(1, report.extras["modes"].bit_length()
                                - m.bit_length() + 1)]
        assert len(later) >= 2
        assert [names for names, _ in calls] == [("value", "gradient")] * (1 + len(later))
        assert all(np.array_equal(x, want) for (_, x), want in zip(calls, [first, *later]))

    @pytest.mark.parametrize("r, expected", [
        (0.97, -3.817980609755606e-05),
        (0.99, -4.328773970718736e-06),
        (0.995, -1.0876384827981922e-06),
    ])
    def test_site_near_the_circle(self, r, expected, elastic, unit_disk):
        # references: the Green-identity circle sums of the split
        # solution, from fixed rules of 8192 and 32768 nodes, which agree
        # to 1e-15 (512 nodes were 32% off at r = 0.995)
        report = solve_clamped_disclination(
            elastic, unit_disk, [Disclination((r, 0.0), 1.0)])
        assert report.value == pytest.approx(expected, rel=1e-10)

    def test_boggio_value_near_the_circle(self, elastic, unit_disk):
        # -(K/2) G_B(y, y) = -K (1 - r^2)^2 / 32 pi at r = 0.99, as the
        # 40-digit value -4.3287739707295043e-06 reads it
        report = solve_clamped_disclination(
            elastic, unit_disk, [Disclination((0.99, 0.0), 1.0)])
        assert report.value == pytest.approx(-4.328773970729509e-06, rel=1e-14)

    @pytest.mark.parametrize("R", [1.0, 1.5])
    @pytest.mark.parametrize("charges", [
        [((0.3, -0.2), 1.0)],
        [((0.3, 0.2), 1.0), ((-0.4, -0.1), -0.5)],
        [((0.3, 0.2), 1.0), ((-0.4, -0.1), -0.5), ((0.0, 0.7), 2.0)],
    ], ids=["one", "two", "three"])
    def test_value_is_half_the_loads_of_the_field(self, charges, R, elastic):
        # at the minimum G(v) = -(1/2) sum_k s_k v(y_k), so the value is
        # (1/2) sum_k s_k v(y_k) of the series field, found independently
        # of the closed-form value
        domain = DiskDomain((0.1, -0.2), R)
        defects = [Disclination((0.1 + R * x, -0.2 + R * y), s)
                   for (x, y), s in charges]
        report = solve_clamped_disclination(elastic, domain, defects)
        loads = report.solution.value(np.array([d.site for d in defects]))
        assert report.value == pytest.approx(
            0.5 * sum(d.frank_angle_s * v for d, v in zip(defects, loads)),
            rel=1e-13)
        assert report.value == pytest.approx(
            report.extras["closed_form_constant"] + report.extras["gram_objective"],
            rel=1e-15)

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
    """Record the per-core mode count of every ``_MichellSeries`` rung
    fitted."""
    rungs, series = [], solver._MichellSeries

    def spy(domain, sites, eps, m_core):
        rungs.append(m_core)
        return series(domain, sites, eps, m_core)

    monkeypatch.setattr(solver, "_MichellSeries", spy)
    return rungs


PAIR_SAME = [Dislocation((x, 0.0), (0.0, 1.0)) for x in (0.3, -0.3)]
PAIR_OPPOSITE = [Dislocation((0.3, 0.0), (0.0, 1.0)),
                 Dislocation((-0.3, 0.0), (0.0, -1.0))]
# one core 0.2 from the circle, eps 0.2 D, and its value at modes (512,
# 256) of the two-block fit (interior, per core) that the clamped modes
# replaced
NEAR_CIRCLE = [Dislocation((0.8, 0.0), (0.0, 1.0))]
NEAR_CIRCLE_VALUE = float.fromhex("-0x1.4903bc218afd7p-4")
# defects, eps, value and the final per-core mode count; the counts are
# pinned only where the residuals of the last two fits lie 5x or more from
# _SERIES_TARGET (the pairs at eps 0.1 end their M_e = 16 fit at 1.0e-12)
REFERENCE_CASES = [
    ([Dislocation((0.0, 0.0), (0.0, 1.0))], 0.1, -0.057819900928390, 8),
    ([Dislocation((0.3, 0.0), (0.0, 1.0))], 0.1, -0.057631009552692, 16),
    (PAIR_SAME, 0.1, -0.073563461626869, None),
    (PAIR_OPPOSITE, 0.1, -0.153772978797308, None),
    # residuals 5.8e-7 then 1.1e-13 at M_e = 16, 32; and 8.7e-9 then
    # 7.0e-15 at 8, 16
    (PAIR_SAME, 0.2, -0.0252260928470686, 32),
    (PAIR_SAME, 0.05, -0.130657023839609, 16),
]
REFERENCE_IDS = ["centered", "single", "same", "opposite", "same-eps0.2",
                 "same-eps0.05"]


def _rotated(p, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (c * p[0] - s * p[1], s * p[0] + c * p[1])


# eight cores on r = 0.5, as in test_rung_bytes_bound_the_traced_peak
RING_OF_EIGHT = [Dislocation(_rotated((0.5, 0.0), 0.3 + 0.25 * math.pi * k), (0.0, 1.0))
                 for k in range(8)]


def _rotated_pair(seed: int) -> list:
    """The +-0.3 pair turned and signed as seed ``seed`` (>= 1) of the
    core_sweep benchmark draws it."""
    rng = np.random.default_rng(seed)
    theta, sign = rng.uniform(0.0, 0.5 * math.pi, size=2)[0], rng.choice([-1.0, 1.0], size=2)[0]
    b = tuple(sign * v for v in _rotated((0.0, 1.0), theta))
    return [Dislocation(_rotated((x, 0.0), theta), b) for x in (0.3, -0.3)]


ROTATED_PAIRS = [_rotated_pair(seed) for seed in range(1, 10)]
# the core problems whose ball energy and C0 are checked against the
# per-ring sums: domain, defects, eps and two node counts per ring at
# which the sums have settled (the core at (0.97, 0) has its profile's
# pole 0.03 from the outer circle)
_UNIT = DiskDomain((0.0, 0.0), 1.0)
_PAIR_DISK = DiskDomain((0.1, -0.2), 1.5)
CORE_PROBLEMS = [
    (_UNIT, [Dislocation((0.0, 0.0), (0.0, 1.0))], eps, (64, 128)) for eps in (0.05, 0.1, 0.2)
] + [(_UNIT, PAIR_SAME, eps, (64, 128)) for eps in (0.05, 0.1, 0.2)] + [
    (_UNIT, PAIR_OPPOSITE, eps, (64, 128)) for eps in (0.05, 0.1, 0.2)] + [
    (_UNIT, [Dislocation((0.3, 0.0), (0.0, 1.0))], 0.1, (64, 128)),
    (_UNIT, [Dislocation((0.97, 0.0), (0.0, 1.0))], 0.012, (2048, 4096)),
    (_UNIT, [Dislocation((0.2, 0.1), (1.0, 0.3)), Dislocation((-0.3, 0.25), (-0.4, 0.8)),
             Dislocation((0.05, -0.4), (0.6, -0.8))], 0.05, (64, 128)),
    (_UNIT, RING_OF_EIGHT, 0.07, (64, 128)),
    (_PAIR_DISK, [Dislocation((0.4, -0.1), (0.0, 1.0)), Dislocation((-0.3, 0.2), (1.0, 0.5))],
     0.1, (64, 128)),
]
CORE_PROBLEM_IDS = [f"{eps}-{name}" for name in ("centered", "pair", "opposite")
                    for eps in (0.05, 0.1, 0.2)] + [
    "single", "at-0.97", "oblique-triple", "ring-8", "off-centre-R1.5"]


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
        assert report.extras["modes"] >= solver._FIRST_MODES
        for key in ("eps", "core_affine", "separation_D", "value_change"):
            assert key in report.extras
        assert 1.0 <= report.extras["fit_condition"] < 1e6

    def test_unresolved_series_fit_raises(self, elastic, unit_disk,
                                          monkeypatch):
        # a core near the circle needs 32 modes (residual 1.3e-4 at 8); the
        # cap holds the ladder at the first rung
        monkeypatch.setattr(solver, "_MAX_MODES", solver._FIRST_MODES)
        rungs = _spy_rungs(monkeypatch)
        with pytest.raises(NumericalError, match="core series fit residual"):
            solve_core_constrained(
                elastic, unit_disk, [Dislocation((0.9, 0.0), (0.0, 1.0))],
                0.05, n=64,
            )
        assert rungs == [solver._FIRST_MODES]

    def test_near_circle_fit_stays_small(self, elastic, unit_disk):
        # a core at distance 0.2 from the circle: the clamped modes need no
        # interior block, and the ladder ends at M_e = 16 (residual 2.8e-15)
        # with the value of the two-block ladder, which ended at (512, 256)
        # and traced 74 MiB when its interior rows were dense
        tracemalloc.start()
        try:
            report = solve_core_constrained(elastic, unit_disk, NEAR_CIRCLE, 0.04,
                                            n=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert report.extras["modes"] == 16
        assert report.value == pytest.approx(NEAR_CIRCLE_VALUE, rel=1e-14)

    def test_core_at_0_97_solves(self, elastic, unit_disk):
        # its Kelvin image lies 0.031 R beyond the circle: the two-block fit
        # needed about 900 interior modes and raised at its cap (residual
        # 8.3e-5 at (512, 32)); the clamped modes settle at M_e = 32
        report = solve_core_constrained(
            elastic, unit_disk, [Dislocation((0.97, 0.0), (0.0, 1.0))], 0.012,
            n=64)
        assert report.residual <= solver._SERIES_TARGET
        assert report.extras["modes"] == 32
        assert report.value == pytest.approx(-0.06553292372215871, rel=1e-13)

    def test_value_converges_over_the_core_doublings(self, elastic, unit_disk,
                                                     monkeypatch):
        # a value that is not exact by construction: the eps 0.2 pair at
        # M_e = 8, 16 and 32, where a cap on the modes ends the ladder,
        # against the converged fit. Each doubling cuts the error 100-fold
        # or brings it within 1e-12 relative (1.1e-6, 3.4e-13 and 0)
        monkeypatch.setattr(solver, "_RESIDUAL_BOUND", math.inf)
        defects, eps, converged, _ = REFERENCE_CASES[4]
        errors = []
        for cap in (8, 16, 32):
            monkeypatch.setattr(solver, "_MAX_MODES", cap)
            report = solve_core_constrained(elastic, unit_disk, defects, eps,
                                            n=64)
            assert report.extras["modes"] == cap
            errors.append(abs(report.value / converged - 1.0))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= max(coarse / 100.0, 1e-12)

    def test_no_rung_starts_above_the_memory_budget(self, elastic, unit_disk,
                                                    monkeypatch):
        rungs = _spy_rungs(monkeypatch)
        defects, eps = [Dislocation((0.97, 0.0), (0.0, 1.0))], 0.012
        # rho = eps / d = 0.197 (d the gap to the Kelvin image) predicts
        # M_e = 32, and rung 8 is skipped: rho^8 = 2.2e-6 against a
        # residual of 1.7e-5
        solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        assert rungs == [32]
        rungs.clear()
        # the M_e = 16 fit is within _RESIDUAL_BOUND (5.1e-11) but above
        # the target, and 32 is over the budget: the ladder stops
        monkeypatch.setattr(solver, "_MAX_RUNG_BYTES", solver._rung_bytes(16, 1))
        report = solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        assert rungs == [16]
        assert report.extras["modes"] == 16
        assert report.value == pytest.approx(-0.06553292372215871, rel=1e-9)
        # the M_e = 8 fit is far from resolved (1.7e-5) when the budget
        # ends the ladder, and no rung at all fits a 1-byte budget
        for budget, fitted in ((solver._rung_bytes(8, 1), 1), (1, 0)):
            rungs.clear()
            monkeypatch.setattr(solver, "_MAX_RUNG_BYTES", budget)
            with pytest.raises(NumericalError, match="memory budget"):
                solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
            assert rungs == [8][:fitted]

    @pytest.mark.parametrize("defects, eps", [c[:2] for c in REFERENCE_CASES] + [
        (NEAR_CIRCLE, 0.04),
        ([Dislocation((0.97, 0.0), (0.0, 1.0))], 0.012),
        ([Dislocation((0.995, 0.0), (0.0, 1.0))], 0.002),
        ([Dislocation((0.5, 0.0), (0.0, 1.0))], 0.45),
        (RING_OF_EIGHT, 0.2 * min_separation_D([d.site for d in RING_OF_EIGHT],
                                               DiskDomain((0.0, 0.0), 1.0))),
    ] + [(pair, eps) for pair in ROTATED_PAIRS for eps in (0.2, 0.1, 0.05)],
        ids=REFERENCE_IDS + ["near-circle", "at-0.97", "at-0.995", "wide-core", "ring-8"]
        + [f"seed{s}-eps{eps}" for s in range(1, 10) for eps in (0.2, 0.1, 0.05)])
    def test_prediction_never_skips_a_useful_rung(self, defects, eps, elastic,
                                                  unit_disk, monkeypatch):
        # the ladder from the predicted rung ends where the ladder from
        # _FIRST_MODES ends, with the same value to the last bit
        report = solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        monkeypatch.setattr(solver, "_first_modes", lambda *args: solver._FIRST_MODES)
        full = solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        assert report.extras["modes"] == full.extras["modes"]
        assert report.value.hex() == full.value.hex()
        assert math.isfinite(report.extras["value_change"])

    @pytest.mark.parametrize("defects, eps", [
        (PAIR_SAME, 0.2), ([Dislocation((0.97, 0.0), (0.0, 1.0))], 0.012)],
        ids=["same-eps0.2", "at-0.97"])
    @pytest.mark.parametrize("m_core", [16, 32])
    def test_half_fit_tracks_the_half_rung(self, defects, eps, m_core, elastic,
                                           unit_disk):
        # the fit of the modes below M_e / 2 inside rung M_e, against rung
        # M_e / 2 itself: they differ only by the frequencies that alias
        # onto the half rung's fewer nodes
        ball = solver._core_problem(elastic, unit_disk, defects, eps)
        sites = [np.asarray(d.site, dtype=float) for d in defects]
        series, coarse = (solver._MichellSeries(unit_disk, sites, eps, m)
                          for m in (m_core, m_core // 2))

        def value(Q):
            return solver._core_minimum(Q, defects, solver._gram_factor(elastic), ball)[1]

        full, half, rung = value(series.Q), value(series.half_Q), value(coarse.Q)
        change = abs(full - half)
        if change > 1e-12 * abs(full):
            assert abs(half - rung) <= 1e-3 * change
        else:
            assert abs(half - rung) <= 1e-13 * abs(full)

    @pytest.mark.parametrize("cores", [1, 2, 4, 8])
    def test_rung_bytes_bound_the_traced_peak(self, cores, elastic, unit_disk):
        # cores on r = 0.5 with eps 0.2 D; the estimate adds the arrays of
        # a rung's largest stage to the temporaries of the earlier ones, so
        # it bounds the traced peak and stays within 1.5 times it
        angles = 0.3 + 2.0 * math.pi * np.arange(cores) / cores
        sites = [0.5 * np.array([math.cos(t), math.sin(t)]) for t in angles]
        eps = 0.2 * min_separation_D(sites, unit_disk)
        # a small rung first: its lazy imports of numpy.fft and
        # numpy.linalg (0.13 MiB) are not the rung's arrays, and a first
        # rung in a fresh interpreter would trace them
        solver._MichellSeries(unit_disk, sites, eps, 8)
        for m_core in (16, 32):
            tracemalloc.start()
            try:
                solver._MichellSeries(unit_disk, sites, eps, m_core)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= solver._rung_bytes(m_core, cores) <= 1.5 * peak

    def test_circles_fit_their_low_frequencies(self, unit_disk):
        # the misses of the value and the radius-scaled d_n traces vanish
        # to roundoff below M_e on each core circle, and on the outer
        # circle (the clamped modes vanish there), for every data set
        eps, m_core = 0.2, 16
        sites = [np.asarray(d.site, dtype=float) for d in PAIR_SAME]
        series = solver._MichellSeries(unit_disk, sites, eps, m_core)
        for k, (y, radius) in enumerate([((0.0, 0.0), 1.0)] + [(y, eps) for y in sites]):
            pts, nhat, _ = circle_nodes(y, radius, 4 * m_core)
            z, dz = (series._rows(pts, nhat) @ series.coef)[:2]
            val, der = np.zeros((2, *z.shape))
            if k:
                val[:, 3 * k - 3], val[:, 3 * k - 2:3 * k] = 1.0, pts - y
                der[:, 3 * k - 2:3 * k] = eps * nhat
            for miss in (z - val, radius * dz - der):
                low = np.fft.rfft(miss, axis=0)[:m_core] / len(pts)
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
        assert report.extras["modes"] <= 32

    @pytest.mark.parametrize("case, m_inner, m_core", [(1, 32, 16), (3, 32, 32), (4, 32, 32)],
                             ids=[REFERENCE_IDS[i] for i in (1, 3, 4)])
    def test_matches_the_two_block_fit(self, case, m_inner, m_core, elastic,
                                       unit_disk):
        # the clamped fit against the interior-plus-exterior fit it
        # replaced, kept as an oracle (agreement 1e-15 .. 7e-14)
        defects, eps, _, _ = REFERENCE_CASES[case]
        report = solve_core_constrained(elastic, unit_disk, defects, eps, n=64)
        assert report.value == pytest.approx(michell_reference.two_block_value(
            elastic, unit_disk, defects, eps, m_inner, m_core), rel=1e-12)

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

    @pytest.mark.parametrize("domain, defects, eps, nodes", CORE_PROBLEMS,
                             ids=CORE_PROBLEM_IDS)
    def test_rings_in_one_pass_match_per_ring(self, domain, defects, eps, nodes,
                                              elastic):
        # the ball energy and C0 in closed form, every ring at once,
        # against the trapezoid sums ring by ring at two node counts, and
        # the load the rings give, which the closed forms drop: it
        # vanishes to roundoff
        ball = solver._core_problem(elastic, domain, defects, eps)
        _, C0 = michell_reference.profile_problem(elastic, domain, defects, eps)
        b = max(math.hypot(*d.burgers_b) for d in defects)
        for n in nodes:
            ref_ball, ref_C0, load = michell_reference.core_problem_per_ring(
                elastic, domain, defects, eps, n)
            assert abs(C0 - ref_C0) <= 1e-13 * abs(C0)
            assert abs(ball - ref_ball) <= 1e-13 * abs(C0)
            assert np.abs(load).max() <= 1e-14 * b

    def test_core_solve_sums_no_circle(self, elastic, unit_disk, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("circle sum in a core solve")

        monkeypatch.setattr(solver, "circle_sums", refuse)
        monkeypatch.setattr(energy, "circle_sums", refuse)
        for defects in (REFERENCE_CASES[0][0], PAIR_OPPOSITE, RING_OF_EIGHT):
            solve_core_constrained(elastic, unit_disk, defects, 0.05, n=64)

    def test_core_solve_fits_no_profile(self, elastic, unit_disk, monkeypatch):
        # the profiles' data set is -W_p in closed form: no outer series
        # is fitted, no profile is built, and the solution has no
        # interior series and no closed part
        monkeypatch.setattr(solver._AlmansiSeries, "fit", _refuse("the outer fit"))
        monkeypatch.setattr(DislocationCoreAiry, "__post_init__", _refuse("a profile build"))
        monkeypatch.setattr(DislocationCoreAiry, "derivatives", _refuse("a profile"))
        for defects in (REFERENCE_CASES[0][0], PAIR_OPPOSITE, RING_OF_EIGHT):
            solution = solve_core_constrained(elastic, unit_disk, defects, 0.05, n=64).solution
            assert solution.interior is None and solution.closed is None

    @pytest.mark.parametrize("domain, defects, eps", [
        (_UNIT, defects, eps) for defects, eps, *_ in REFERENCE_CASES] + [
        (_UNIT, [Dislocation((0.97, 0.0), (0.0, 1.0))], 0.012),
        (_UNIT, RING_OF_EIGHT, 0.07), CORE_PROBLEMS[-1][:3]],
        ids=REFERENCE_IDS + ["at-0.97", "ring-8", "off-centre-R1.5"])
    def test_profile_gram_entries_are_closed_forms(self, domain, defects, eps, elastic):
        # the profiles' data set fitted as before its closed form, at the
        # solve's mode count: (fl/2) int (Delta z_0)^2 is C0, and its row
        # against core k's data sets is 0 on the constant and Pi(b_k) / fl
        # on the slopes, each entry to 1e-13 of its Cauchy-Schwarz bound
        # sqrt(Q_00 Q_jj) (the constant's entry is 0; at 0.97 the fit
        # leaves 7.6e-13 on it, 6e-15 of the bound)
        fl, modes = solver._gram_factor(elastic), solve_core_constrained(
            elastic, domain, defects, eps).extras["modes"]
        square, row, C0, series = michell_reference.profile_gram(
            elastic, domain, defects, eps, modes)
        assert abs(0.5 * fl * square - C0) <= 1e-13 * abs(C0)
        q = np.ravel([(0.0, *rotate_burgers(d.burgers_b)) for d in defects]) / fl
        assert np.all(np.abs(row - q) <= 1e-13 * np.sqrt(square * np.diag(series.Q)))

    @pytest.mark.parametrize("R", [1.0, 1.5])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_centred_constant_is_the_polar_integral(self, R, eps, elastic):
        # Delta W_p = 8 C cos(theta) (gamma r + 1 / r) on the annulus, so
        # C0 = (fl/2) 64 C^2 pi int_eps^R (gamma r + 1/r)^2 r dr, a sum of
        # three terms. At R = 1, eps 0.5 they cancel 27-fold (0.60 + 0.69
        # - 1.20 = 0.093), and the closed form, summing its own terms, is
        # 2.4e-15 relative off a 40-digit value (the three-term sum
        # 1.9e-16): the bound is 1e-15 of the terms' magnitudes
        domain, defects = DiskDomain((0.0, 0.0), R), [Dislocation((0.0, 0.0), (0.6, -0.8))]
        W_p, C0 = michell_reference.profile_problem(elastic, domain, defects, eps)
        ball = solver._core_problem(elastic, domain, defects, eps)
        (profile,) = W_p.terms
        C, gamma = profile._profile[0], profile.coeffs.gamma
        terms = np.array([gamma**2 * (R**4 - eps**4) / 4.0, math.log(R / eps),
                          gamma * (R * R - eps * eps)])
        scale = 32.0 * math.pi * solver._gram_factor(elastic) * C * C
        assert ball == 0.0
        assert abs(C0 - scale * terms.sum()) <= 1e-15 * scale * np.abs(terms).sum()

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

    def test_green_identity_matches_area_quadrature(self, unit_disk):
        # Q from circle integrals against a polar quadrature of the
        # Laplacians over the punctured disk, about the core centre: Gauss
        # in r from eps to the circle along each ray, trapezoid in theta
        site, eps = np.array([0.3, 0.0]), 0.1
        series = solver._MichellSeries(unit_disk, [site], eps, 16)
        _, rays, _ = circle_nodes((0.0, 0.0), 1.0, 128)
        along = rays @ site
        r_max = -along + np.sqrt(along**2 + 1.0 - site @ site)
        x, w = np.polynomial.legendre.leggauss(64)
        half = 0.5 * (r_max - eps)[:, None]
        r = eps + half * (x + 1.0)
        weights = (half * w * r * (2.0 * math.pi / len(rays))).ravel()
        pts = (site + r[..., None] * rays[:, None, :]).reshape(-1, 2)
        normals = np.repeat(rays, len(x), axis=0)
        lap = (series._rows(pts, normals) @ series.coef)[2]
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

    def _core_points(self, rng):
        zeta = (1.0 + 2.0 * rng.uniform(size=(60, 1))) * self._unit(rng, 60)
        return zeta, self._unit(rng, 60)

    def test_paired_exterior_matches_rotated_potentials(self, rng):
        m_core, eps = 12, 0.13
        (zeta, nu), got = self._core_points(rng), np.empty((4, 60, 4 * m_core - 2))
        solver._michell_traces(zeta, nu, eps, m_core, got)
        self._assert_columns_agree(got[:2], michell_reference.michell_fields(
            zeta, nu, eps, m_core)[:2])

    def test_exterior_laplacians_from_coefficients(self, rng):
        # the Laplacians of random coefficient columns against the
        # reference's Laplacian planes times the same columns
        m_core, eps = 12, 0.13
        (zeta, nu), got = self._core_points(rng), np.empty((4, 60, 4 * m_core - 2))
        c = rng.standard_normal((4 * m_core - 2, 5))
        solver._michell_traces(zeta, nu, eps, m_core, got)
        ref = michell_reference.michell_fields(zeta, nu, eps, m_core)[2:]
        self._assert_columns_agree(got[2:] @ c, [plane @ c for plane in ref])


class TestClampedModes:
    """The image parts that clamp the exterior modes on r = R: each mode
    plus its image vanishes with its normal derivative on the circle, the
    rho^2 log rho mode is Boggio's Green's function, and the Laplacians of
    the fit match second differences of the summed field."""

    @staticmethod
    def _traces(pts, nhat, site, eps, R, centre, m_core):
        """The four planes of the Michell modes, then of the clamped
        modes."""
        nu = (nhat[:, 0] + 1j * nhat[:, 1])[:, None]
        zeta = ((pts[:, 0] - site[0]) + 1j * (pts[:, 1] - site[1]))[:, None] / eps
        Z = ((pts[:, 0] - centre[0]) + 1j * (pts[:, 1] - centre[1]))[:, None, None] / R
        W = np.reshape(complex(site[0] - centre[0], site[1] - centre[1]) / R, (1, 1))
        out = np.empty((4, len(pts), 1, 4 * m_core - 2))
        solver._michell_traces(zeta, nu, eps, m_core, out[:, :, 0])
        michell = out[:, :, 0].copy()
        solver._image_traces(Z, nu[:, None], W, eps / R, R, m_core, out)
        return michell, out[:, :, 0]

    @pytest.mark.parametrize("site, eps, R, centre", [
        ((0.3, 0.1), 0.1, 1.0, (0.0, 0.0)), ((0.97, 0.0), 0.012, 1.0, (0.0, 0.0)),
        ((0.597, 0.796), 0.004, 1.0, (0.0, 0.0)), ((1.2, -0.5), 0.2, 1.7, (0.3, -0.2)),
    ])
    def test_modes_vanish_on_the_circle(self, site, eps, R, centre):
        # to roundoff of each mode's size on its core circle and on r = R,
        # for M_e = 64 and cores at 0.32, 0.97 and 0.995 R
        m_core = 64
        core = self._traces(*circle_nodes(site, eps, 4 * m_core)[:2], site, eps, R,
                            centre, m_core)[1]
        michell, rim = self._traces(*circle_nodes(centre, R, 512)[:2], site, eps,
                                    R, centre, m_core)
        scale = np.maximum(*(np.maximum(np.abs(t[0]), eps * np.abs(t[1])).max(axis=0)
                             for t in (core, michell)))
        assert np.all(np.abs(rim[0]).max(axis=0) <= 1e-13 * scale)
        assert np.all(eps * np.abs(rim[1]).max(axis=0) <= 1e-13 * scale)

    def test_rho2_log_mode_is_the_green_function(self, rng):
        # rho^2 log rho plus its image is 8 pi G_B(x, y) / eps^2
        site, eps, R, centre, m_core = (0.9, -0.3), 0.05, 1.5, (0.2, 0.1), 8
        angle, radius = 2.0 * math.pi * rng.uniform(size=50), R * np.sqrt(rng.uniform(size=50))
        pts = np.add(centre, np.column_stack([np.cos(angle), np.sin(angle)]) * radius[:, None])
        pts = pts[np.hypot(pts[:, 0] - site[0], pts[:, 1] - site[1]) > eps]
        got = self._traces(pts, np.tile([1.0, 0.0], (len(pts), 1)), site, eps, R,
                           centre, m_core)[1][0][:, 1]
        y = np.tile(np.subtract(site, centre), (len(pts), 1))
        want = 8.0 * math.pi * clamped_green(pts - centre, y, R) / eps**2
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_laplacians_match_second_differences(self, rng):
        # the Laplacian planes of the clamped modes and their normal
        # derivatives, at random coefficients, against centred differences
        # of the point sums (``_clamped_sum``); h^2 error
        site, eps, R, centre, m_core = (0.6, 0.2), 0.1, 1.3, (0.1, 0.0), 10
        c = rng.normal(size=4 * m_core - 2)
        W = complex(site[0] - centre[0], site[1] - centre[1]) / R
        pts = np.array([[0.2, -0.5], [-0.6, 0.3], [0.9, 0.6], [0.6, 0.45]])
        nhat = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 1.0], [-0.8, 0.6]])

        def value(p):
            zeta = ((p[:, 0] - site[0]) + 1j * (p[:, 1] - site[1])) / eps
            return solver._clamped_sum(c, zeta, W, eps / R, m_core)

        def laplacians(p):
            planes = self._traces(p, nhat, site, eps, R, centre, m_core)[1]
            return planes[2] @ c, planes[3] @ c

        h = 1e-3
        shifts = h * np.array([[1.0, 0.0], [0.0, 1.0]])
        fd_lap = sum(value(pts + d) + value(pts - d) for d in shifts) - 4.0 * value(pts)
        lap, dlap = laplacians(pts)
        assert np.abs(fd_lap / h**2 - lap).max() <= 1e-4 * np.abs(lap).max()
        fd_dlap = (laplacians(pts + h * nhat)[0] - laplacians(pts - h * nhat)[0]) / (2 * h)
        assert np.abs(fd_dlap - dlap).max() <= 1e-4 * np.abs(dlap).max()

    @pytest.mark.parametrize("site, eps, R, centre", [
        ((0.6, 0.2), 0.1, 1.3, (0.1, 0.0)), ((0.92, -0.3), 0.05, 1.0, (0.0, 0.0))])
    def test_hessian_matches_fourth_differences(self, site, eps, R, centre, rng):
        # every column at random coefficients, the head columns and
        # their images included, against the point sums' fourth
        # differences (``_difference_hessian``) of step eps / 1000; bound
        # 10 times the miss, 1.7e-9
        m_core = 10
        c = rng.normal(size=4 * m_core - 2)
        W = complex(site[0] - centre[0], site[1] - centre[1]) / R
        pts = np.add(site, 0.25 * eps * np.array([[9.0, 1.0], [-6.0, 5.0], [2.0, -7.0]]))

        def parts(p, hessian=False):
            zeta = ((p[:, 0] - site[0]) + 1j * (p[:, 1] - site[1])) / eps
            return solver._clamped_sum(c, zeta, W, eps / R, m_core, hessian)

        value, lap, dd = parts(pts, True)
        assert np.array_equal(value, parts(pts))
        H = np.empty((len(pts), 2, 2))
        H[:, 0, 0], H[:, 1, 1] = 0.5 * (lap + dd.real) / R**2, 0.5 * (lap - dd.real) / R**2
        H[:, 0, 1] = H[:, 1, 0] = -0.5 * dd.imag / R**2
        want = _difference_hessian(parts, 1e-3 * eps)(pts)
        assert np.abs(H - want).max() <= 1.7e-8 * np.abs(want).max()


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
        # circle rule evaluates each profile once on the outer circle, all
        # five traces in one call: one evaluation serves every pairing
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
        evaluate = DislocationLimitAiry.derivatives

        def counted(self, x, names):
            if inside:
                calls.append((id(self), tuple(names), np.array(x, dtype=float)))
            return evaluate(self, x, names)

        monkeypatch.setattr(DislocationLimitAiry, "derivatives", counted)
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
        five = {"value", "gradient", "hessian", "laplacian", "grad_laplacian"}
        assert all(len(names) == 5 and set(names) == five for _, names, _ in calls)
        on_ring = Counter((i, len(x)) for i, _, x in calls)
        assert on_ring == {(i, n): 1 for i in profiles for n in levels}


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
        monkeypatch.setattr(solver, "clamped_regular", _refuse("sampling"))
        monkeypatch.setattr(solver.SeriesSolution, "derivatives", _refuse("sampling"))
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
        # gives every node the same value and Hessian in any batch and
        # any request order, so a dump may evaluate it block by block of
        # grid lines
        report = solve(elastic, unit_disk, defects, *eps, n=64)
        monkeypatch.setattr(solver._AlmansiSeries, "fit", _refuse("the fit"))
        monkeypatch.setattr(solver, "_MichellSeries", _refuse("the fit"))
        assert report.solution is report.solution
        grid = grid_for_disk(unit_disk, 64)
        X, Y = meshgrid(grid)
        whole = report.solution.value(points(grid)).reshape(X.shape)
        value, hessian = report.solution.derivatives(points(grid), ("value", "hessian"))
        assert np.array_equal(value.reshape(X.shape), whole, equal_nan=True)
        inside = build_mask(grid, unit_disk) != OUTSIDE
        assert np.all(np.isfinite(whole[inside])) and whole.shape == (64 + 9, 64 + 9)
        hessian = hessian.reshape(X.shape + (2, 2))
        for line in range(grid.nx):
            pts = np.stack([X[line], Y[line]], axis=-1)
            got = report.solution.value(pts)
            assert np.array_equal(got, whole[line], equal_nan=True)
            H, v = report.solution.derivatives(pts, ("hessian", "value"))
            assert np.array_equal(v, whole[line], equal_nan=True)
            assert np.array_equal(H, hessian[line], equal_nan=True)
        for node in np.argwhere(inside)[::97]:  # batches of one point
            v, H = report.solution.derivatives(points(grid)[[np.ravel_multi_index(
                node, X.shape)]], ("value", "hessian"))
            assert v[0] == whole[tuple(node)]
            assert np.array_equal(H[0], hessian[tuple(node)])
        assert np.array_equal(report.solution.value(np.zeros((0, 2))), [])

    @pytest.mark.parametrize("solve, defects", [
        (solve_clamped_disclination, [Disclination((0.3, 0.2), 1.0),
                                      Disclination((-0.4, -0.1), -0.5)]),
        (solve_elastic_correction, PAIR_OPPOSITE),
    ], ids=["disclinations", "correction"])
    def test_large_batches_round_as_small_ones(self, solve, defects, elastic,
                                               unit_disk):
        # numpy writes a complex product into a temporary operand of 256
        # KiB or more in place, and into a right one with the operands
        # swapped, which rounds otherwise: the 51k inside nodes of a 256
        # grid in one call give every node the numbers of a batch of seven
        solution = solve(elastic, unit_disk, defects).solution
        pts = _inside_nodes(unit_disk, 256)
        value, hessian = solution.derivatives(pts, ("value", "hessian"))
        for i in range(0, len(pts), 997):
            v, H = solution.derivatives(pts[i:i + 7], ("value", "hessian"))
            assert np.array_equal(v, value[i:i + 7])
            assert np.array_equal(H, hessian[i:i + 7])

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
        assert np.array_equal(dip.solution.value(pts), core.solution.value(pts),
                              equal_nan=True)

    @pytest.mark.parametrize("n", [4, 4088])  # below 8, above the node cap
    @pytest.mark.parametrize("solve, defects, eps", SOLVES, ids=SOLVE_IDS)
    def test_bad_grid_n_raises_before_the_fit(self, solve, defects, eps, n,
                                              elastic, unit_disk,
                                              monkeypatch):
        monkeypatch.setattr(solver._AlmansiSeries, "fit", _refuse("the fit"))
        monkeypatch.setattr(solver, "_MichellSeries", _refuse("the fit"))
        with pytest.raises(ValidationError, match="grid resolution"):
            solve(elastic, unit_disk, defects, *eps, n=n)


# every solver's case of ``SOLVES``, a core 0.03 R from the circle and a
# ring of eight cores, with the bound of the Hessian test: 10 times the
# miss measured, which the fourth differences' h^4 term sets
HESSIAN_SOLVES = [
    (*case, bound) for case, bound in zip(SOLVES, (1.2e-7, 6.7e-7, 4.1e-7, 1.5e-9))
] + [
    (solve_core_constrained, [Dislocation((0.97, 0.0), (0.0, 1.0))], (0.012,), 4e-5),
    (solve_core_constrained, [
        Dislocation((0.5 * math.cos(t), 0.5 * math.sin(t)), (-math.sin(t), math.cos(t)))
        for t in np.arange(8) * math.pi / 4], (0.1,), 1.2e-6),
]


def _hessian_miss(field, reference, pts) -> float:
    """Largest |entry| of the difference of the Hessians of ``field`` and
    ``reference`` at the points, relative to the largest of the latter."""
    ref = reference(pts)
    return float(np.abs(field.hessian(pts) - ref).max() / np.abs(ref).max())


def _disk_points(rng, domain, count, avoid=(), gap=0.0):
    """``count`` random points of the disk at least ``gap`` from r = R and
    from each circle (centre, radius) of ``avoid``."""
    pts = np.asarray(domain.center) + rng.uniform(-1.0, 1.0, (40 * count, 2)) * domain.radius_R
    keep = np.hypot(*(pts - domain.center).T) < domain.radius_R - gap
    for y, r in avoid:
        keep &= np.abs(np.hypot(*(pts - y).T) - r) > gap
    return pts[keep][:count]


def _difference_hessian(value, h: float):
    """The Hessian of ``value`` by fourth-order central differences of
    step h."""
    def d(f, step):
        return lambda p: (f(p - 2 * step) - 8.0 * f(p - step) + 8.0 * f(p + step)
                          - f(p + 2 * step)) / (12.0 * h)

    def hessian(p):
        H = np.empty((len(p), 2, 2))
        for i, step in enumerate(h * np.eye(2)):
            H[:, i, i] = (16.0 * (value(p + step) + value(p - step)) - 30.0 * value(p)
                          - value(p + 2 * step) - value(p - 2 * step)) / (12.0 * h * h)
        H[:, 0, 1] = H[:, 1, 0] = d(d(value, h * np.eye(2)[0]), h * np.eye(2)[1])(p)
        return H

    return hessian


class TestSolutionHessian:
    @pytest.mark.parametrize("solve, defects, eps, bound", HESSIAN_SOLVES,
                             ids=SOLVE_IDS + ["core-near-circle", "ring"])
    def test_matches_fourth_order_differences(self, solve, defects, eps, bound,
                                              elastic, unit_disk, rng):
        # at points 3 h or more from r = R and from every core circle
        solution, h = solve(elastic, unit_disk, defects, *eps).solution, 1e-3
        pts = _disk_points(rng, unit_disk, 200, solution.cores, 3.0 * h)
        assert _hessian_miss(solution, _difference_hessian(solution.value, h), pts) < bound

    def test_centred_fields_are_the_closed_forms(self, elastic, unit_disk, rng):
        # the centred core's solution is its profile, the centred
        # disclination's the clamped closed form; bounds 10 times the
        # misses, 5.9e-16 and 7.7e-15
        pts = _disk_points(rng, unit_disk, 500, [((0.0, 0.0), 0.15)], 1e-9)
        for field, report, bound in (
                (DislocationCoreAiry(elastic=elastic, burgers_b=(0.6, -0.8), eps=0.15,
                                     radius_R=1.0),
                 solve_core_constrained(elastic, unit_disk, [
                     Dislocation((0.0, 0.0), (0.6, -0.8))], 0.15), 5.9e-15),
                (SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0),
                 solve_clamped_disclination(elastic, unit_disk, CENTERED), 7.7e-14)):
            assert _hessian_miss(report.solution, field.hessian, pts) < bound

    def test_disclinations_match_the_green_function(self, elastic, rng):
        # against the Hessian of -K sum_k s_k G_B(., y_k) at 40 digits;
        # bound 10 times the miss, 4.6e-14
        domain = DiskDomain((0.1, -0.2), 1.5)
        charges = [((0.55, 0.1), 1.0), ((-0.5, -0.35), -0.5)]
        report = solve_clamped_disclination(
            elastic, domain, [Disclination(y, s) for y, s in charges])
        K, centre = elastic.plane_prefactor, np.asarray(domain.center)

        def exact(p):
            H = np.empty((len(p), 2, 2))
            with mpmath.workdps(40):
                for n, x in enumerate(p - centre):
                    for i, j in ((0, 0), (0, 1), (1, 1)):
                        H[n, i, j] = H[n, j, i] = float(-K / (16 * mpmath.pi) * sum(
                            s * mpmath.diff(lambda a, b: _green_mp(
                                (a, b), np.subtract(y, centre), domain.radius_R),
                                tuple(x), (int(i == 0) + int(j == 0), int(i == 1) + int(j == 1)))
                            for y, s in charges))
            return H

        assert _hessian_miss(report.solution, exact, _disk_points(rng, domain, 6)) < 4.6e-13

    def test_nan_off_the_closed_disk(self, elastic):
        # circle nodes round up to 2.2e-16 R past r = R and count as on it
        domain = DiskDomain((0.1, -0.2), 1.5)
        solution = solve_core_constrained(
            elastic, domain, [Dislocation((0.5, -0.1), (0.0, 1.0))], 0.1).solution
        on = circle_nodes(domain.center, domain.radius_R, 512)[0]
        off = np.add(domain.center, [[1.5015, 0.0], [0.0, -2.0], [1.2, 1.2]])
        value, hessian = solution.derivatives(np.vstack([on, off]), ("value", "hessian"))
        assert np.all(np.isfinite(value[:512])) and np.all(np.isfinite(hessian[:512]))
        assert np.all(np.isnan(value[512:])) and np.all(np.isnan(hessian[512:]))
        with pytest.raises(ValidationError, match="value and hessian"):
            solution.derivatives(off, ("gradient",))


def _exact_trace_minimizer(domain, defects, K):
    """The minimizer of a pure-trace solve at 40 digits, a function of
    mpf coordinates relative to the disk centre: -K sum_k s_k G_B(., y_k)
    for disclinations, and for dislocations sum_k K (Jb_k . grad_y)
    G_B(., y_k) less the zero-core profiles (K / 8 pi) (1 - log R^2 -
    |d|^2 / R^2 + log|d|^2) Pi(b_k) . d, d = x - y_k."""
    R = mpmath.mpf(domain.radius_R)
    c = [mpmath.mpf(v) for v in domain.center]

    def term(defect):
        y = [mpmath.mpf(v) - cv for v, cv in zip(defect.site, c)]
        if isinstance(defect, Disclination):
            s = mpmath.mpf(defect.frank_angle_s)
            return lambda x1, x2: -K * s * _green_mp((x1, x2), y, R) / (16 * mpmath.pi)
        b1, b2 = (mpmath.mpf(v) for v in defect.burgers_b)

        def clamped_less_profile(x1, x2):
            grad = [mpmath.diff(lambda u: _green_mp((x1, x2), (u, y[1]), R), y[0]),
                    mpmath.diff(lambda u: _green_mp((x1, x2), (y[0], u), R), y[1])]
            d1, d2 = x1 - y[0], x2 - y[1]
            u = d1**2 + d2**2
            profile = K / (8 * mpmath.pi) * (1 - mpmath.log(R**2) - u / R**2
                                             + mpmath.log(u)) * (b2 * d1 - b1 * d2)
            return K * (b1 * grad[1] - b2 * grad[0]) / (16 * mpmath.pi) - profile

        return clamped_less_profile

    terms = [term(d) for d in defects]
    return lambda x1, x2: sum(t(x1, x2) for t in terms)


class TestTraceSolutionsExact:
    # the solutions of both pure-trace solves, value and Hessian, against
    # 40-digit values at random points and at r = 0.9999 R (two on the
    # axes, one oblique), to 1e-14 of the largest |entry| of each; seen:
    # at most 3.6e-15 on values (an ulp of the singular part, which the
    # smooth part cancels at the rim) and 5e-16 on Hessians
    @pytest.mark.parametrize("domain", [_UNIT, _PAIR_DISK], ids=["unit", "shifted"])
    @pytest.mark.parametrize("kind, defects", [
        (Disclination, [((0.0, 0.0), 1.0)]),
        (Disclination, [((0.55, 0.1), 1.0), ((-0.5, -0.35), -0.5)]),
        (Dislocation, [((0.4, 0.3), (0.6, -0.8)), ((-0.2, -0.5), (-1.5, 0.4))]),
    ], ids=["centred-charge", "mixed-charges", "oblique-pair"])
    def test_matches_40_digits(self, kind, defects, domain, elastic, rng):
        c, R = np.asarray(domain.center), domain.radius_R
        defects = [kind(tuple(c + R * np.asarray(p)), q) for p, q in defects]
        solve = (solve_clamped_disclination if kind is Disclination
                 else solve_elastic_correction)
        solution = solve(elastic, domain, defects).solution
        r, t = np.sqrt(rng.uniform(0.0, 0.9, 6)), rng.uniform(0.0, 2.0 * math.pi, 6)
        rim = 0.9999 * np.array([(1.0, 0.0), (0.0, -1.0), (math.cos(2.0), math.sin(2.0))])
        pts = c + R * np.vstack([np.stack([r * np.cos(t), r * np.sin(t)], -1), rim])
        value, hessian = solution.derivatives(pts, ("value", "hessian"))
        exact = np.empty((len(pts), 4))
        with mpmath.workdps(40):
            f = _exact_trace_minimizer(domain, defects, mpmath.mpf(elastic.plane_prefactor))
            for n, x in enumerate(pts):
                x = [mpmath.mpf(v) - mpmath.mpf(cv) for v, cv in zip(x, domain.center)]
                exact[n] = [float(f(*x)), *(float(mpmath.diff(f, x, order))
                                            for order in ((2, 0), (1, 1), (0, 2)))]
        got = np.stack([hessian[:, 0, 0], hessian[:, 0, 1], hessian[:, 1, 1]], -1)
        assert np.array_equal(hessian[:, 0, 1], hessian[:, 1, 0])
        assert np.abs(value - exact[:, 0]).max() <= 1e-14 * np.abs(exact[:, 0]).max()
        assert np.abs(got - exact[:, 1:]).max() <= 1e-14 * np.abs(exact[:, 1:]).max()
