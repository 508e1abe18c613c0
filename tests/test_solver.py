import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from airy_defects.core import (
    Disclination,
    DisclinationDipole,
    Dislocation,
    DiskDomain,
    NumericalError,
    ValidationError,
)
from airy_defects import solver
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
from airy_defects.fields import ScalarField
from airy_defects.solver import (
    solve_clamped_disclination,
    solve_core_constrained,
    solve_dipole_core,
    solve_elastic_correction,
)

CENTERED = [Disclination((0.0, 0.0), 1.0)]

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
    (ghost rows of ``solver._Discretization`` carry the trace data) and
    returns its cut-cell Gram objective (1 - nu^2)/(2E) int (Delta z)^2
    and its central-difference Hessian energy
    (1 + nu)/(2E) int |D^2 z|^2 - nu (Delta z)^2, both second order.
    """
    disc = solver._Discretization(domain, n, trace_field)
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


def _singular_part(elastic, disclinations):
    """Subtracted singular field of the split disclination problem."""
    fund = FundamentalAiry(elastic)
    return SumField(tuple(
        ScaledField(-d.frank_angle_s, ShiftedField(d.site, fund))
        for d in disclinations
    ))


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
        assert report.extras["scheme"] == "split"

    def test_field_matches_closed_form(self, elastic, unit_disk):
        report = solve_clamped_disclination(elastic, unit_disk, CENTERED, n=128)
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        pts = report.field.grid.points()
        inside = report.field.mask.ravel() != 0
        num = report.field.values.ravel()[inside]
        ref = v.value(pts[inside])
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
        assert report.method == "fourier" and report.iterations == 0
        assert report.extras["trace_fit_residual"] == report.residual < 1e-13

    def test_empty_configuration_is_zero(self, elastic, unit_disk):
        report = solve_clamped_disclination(elastic, unit_disk, [], n=64)
        assert report.value == 0.0
        assert not np.any(report.field.values)

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
        v = report.field.values
        assert np.all(np.isfinite(v))
        inside = report.field.mask != 0
        assert np.abs(v[~inside]).max() <= np.abs(v[inside]).max()

    def test_unresolvable_traces_raise(self, elastic, unit_disk, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_SAMPLES", 128)
        with pytest.raises(NumericalError, match="trace fit residual"):
            solve_clamped_disclination(
                elastic, unit_disk, [Disclination((0.99, 0.0), 1.0)], n=64
            )

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
        pts = report.field.grid.points()
        inside = report.field.mask.ravel() != 0
        num = report.field.values.ravel()[inside]
        ref = w.value(pts[inside])
        denom = math.sqrt(float(np.sum(ref**2)))
        assert math.sqrt(float(np.sum((num - ref) ** 2))) / denom < 2e-3

    def test_unresolved_core_rejected(self, elastic, unit_disk):
        defects = [Dislocation((0.0, 0.0), (0.0, 1.0))]
        with pytest.raises(ValidationError):
            solve_core_constrained(elastic, unit_disk, defects, 0.01, n=64)

    def test_report_says_what_ran(self, elastic, unit_disk):
        defects = [Dislocation((0.2, 0.0), (0.0, 1.0))]
        report = solve_core_constrained(elastic, unit_disk, defects, 0.2, n=64)
        assert report.method == "direct" and report.iterations == 0
        assert report.residual <= solver._RESIDUAL_BOUND

    def test_failed_factorization_raises(self, elastic, unit_disk,
                                         monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver, "splu", singular)
        with pytest.raises(NumericalError, match="factorization failed"):
            solve_core_constrained(
                elastic, unit_disk, [Dislocation((0.0, 0.0), (0.0, 1.0))],
                0.1, n=96,
            )

    def test_dipole_solve_delegates(self, elastic, unit_disk):
        dipoles = [DisclinationDipole((0.0, 0.0), (0.0, 1.0), 0.02)]
        dip = solve_dipole_core(elastic, unit_disk, dipoles, 0.1, n=128)
        core = solve_core_constrained(
            elastic, unit_disk, [Dislocation((0.0, 0.0), (0.0, 1.0))], 0.1,
            n=128,
        )
        assert dip.value == pytest.approx(core.value, rel=1e-12)


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
