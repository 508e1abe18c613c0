import math

import numpy as np
import pytest

from airy_defects.core import (
    DisclinationDipole,
    Dislocation,
    DiskDomain,
    ElasticConstants,
    NumericalError,
    ValidationError,
    rotate_burgers,
)
from airy_defects.closedform import DislocationLimitAiry
from airy_defects.energy import (
    _pair_energy_boundary,
    polar_energy,
    single_dislocation_min_value,
)
from airy_defects.fields import circle_nodes
from airy_defects.asymptotics import (
    _fit_log_expansion,
    angular_quartic_integral,
    annulus_energy_closed_form,
    appendix_b_integrals,
    diagonal_dipole_limit,
    dipole_scaling_sweep,
    expansion_check,
    renormalized_energy,
    sweep_to_csv,
    vanishing_core_limit_constant,
)

SINGLE = [Dislocation((0.0, 0.0), (0.0, 1.0))]

OFF_CENTER_CASES = {
    "single": [Dislocation((0.3, 0.0), (0.0, 1.0))],
    "same-sign pair": [
        Dislocation((0.3, 0.0), (0.0, 1.0)),
        Dislocation((-0.3, 0.0), (0.0, 1.0)),
    ],
    "opposite-sign pair": [
        Dislocation((0.3, 0.0), (0.0, 1.0)),
        Dislocation((-0.3, 0.0), (0.0, -1.0)),
    ],
}


class TestClosedForms:
    def test_annulus_formula_at_full_annulus(self, elastic):
        # r = R reduces the general annulus value to the simple form
        K = elastic.plane_prefactor
        for eps in (0.05, 0.1, 0.2):
            G, combined, f_eps = annulus_energy_closed_form(1.0, eps, 1.0, 1.0, elastic)
            simple = K / (8.0 * math.pi) * (
                math.log(1.0 / eps) - (1.0 - eps**2) / (1.0 + eps**2)
            )
            assert G == pytest.approx(simple, rel=1e-13)
            assert combined == pytest.approx(
                single_dislocation_min_value(elastic, 1.0, 1.0, eps), rel=1e-13
            )

    def test_quadrature_agrees_with_formula(self, elastic):
        from airy_defects.closedform import DislocationCoreAiry

        for eps in (0.1, 0.2):
            w = DislocationCoreAiry(
                elastic=elastic, burgers_b=(0.0, 1.0), eps=eps, radius_R=1.0
            )
            for r in (0.5, 1.0):
                G, _, _ = annulus_energy_closed_form(1.0, eps, r, 1.0, elastic)
                quadrature = polar_energy(
                    w, elastic, (0.0, 0.0), r, r_inner=eps
                ).energy
                assert quadrature == pytest.approx(G, rel=1e-8)

    def test_core_correction_vanishes_quadratically(self, elastic):
        f_limit = vanishing_core_limit_constant(0.5, 1.0, 1.0, elastic)
        gaps = []
        for eps in (1e-2, 1e-3):
            _, _, f_eps = annulus_energy_closed_form(1.0, eps, 0.5, 1.0, elastic)
            gaps.append(abs(f_eps - f_limit))
        ratio = gaps[0] / gaps[1]
        assert ratio == pytest.approx(100.0, rel=0.1)

    def test_angular_quartic_integral_exact(self):
        assert angular_quartic_integral() == pytest.approx(math.pi / 8.0, abs=1e-12)


class TestDipoleSweep:
    def test_rows_and_monotone_trend(self, elastic):
        rows = dipole_scaling_sweep(elastic, 1.0, 1.0, [1e-2, 3e-3, 1e-3])
        assert [set(r) >= {"param", "value", "normalized", "analytic_limit",
                           "rel_err"} for r in rows]
        normalized = [r["normalized"] for r in rows]
        assert normalized == sorted(normalized, reverse=True)
        K = elastic.plane_prefactor
        assert rows[-1]["analytic_limit"] == pytest.approx(K / (8.0 * math.pi))
        assert rows[-1]["rel_err"] < 0.10

    def test_increasing_h_rejected(self, elastic):
        with pytest.raises(ValidationError):
            dipole_scaling_sweep(elastic, 1.0, 1.0, [1e-3, 1e-2])

    def test_csv_header(self, elastic, tmp_path):
        rows = dipole_scaling_sweep(elastic, 1.0, 1.0, [1e-2, 3e-3])
        path = tmp_path / "sweep.csv"
        sweep_to_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "param,value,normalized,analytic_limit,rel_err"
        assert len(text) == 3


class TestPairFieldIntegrals:
    def test_annulus_limits(self):
        res = appendix_b_integrals(1e-3, 1.0)
        limits = (4.0 * math.pi, math.pi / 8.0, math.pi / 2.0)
        for got, ref in zip(res["annulus_normalized"], limits):
            assert abs(got - ref) / ref < 0.05
        assert tuple(res["limits"]) == pytest.approx(limits)

    def test_ball_contributions_decay(self):
        # the core-ball share dies like 1/log(R/h): test the trend
        small = appendix_b_integrals(1e-3, 1.0)["ball_normalized"]
        large = appendix_b_integrals(1e-1, 1.0)["ball_normalized"]
        for s, l in zip(small, large):
            assert s < l


class TestRenormalizedEnergy:
    def test_centered_single_decomposition(self, elastic, unit_disk):
        ren = renormalized_energy(SINGLE, elastic, unit_disk, n=128)
        K = elastic.plane_prefactor
        assert ren.separation_D == pytest.approx(1.0)
        assert abs(ren.F_self) < 1e-12
        assert abs(ren.F_int) < 1e-12
        assert abs(ren.F_elastic) < 1e-10
        assert ren.expansion_constant == pytest.approx(K / (8.0 * math.pi), rel=1e-10)

    def test_self_plus_geometry_term_is_separation_invariant(self, elastic, unit_disk):
        # the self part and the geometric constant both move with the
        # separation radius; only their sum is an invariant of the defect
        a = renormalized_energy(SINGLE, elastic, unit_disk, D_override=1.0, n=128)
        b = renormalized_energy(SINGLE, elastic, unit_disk, D_override=0.5, n=128)
        assert abs(a.F_self - b.F_self) > 1e-4  # each part genuinely moves
        assert a.F_self + a.f_DR == pytest.approx(b.F_self + b.f_DR, abs=1e-10)

    def test_self_energy_against_quadrature(self, elastic, unit_disk):
        # boundary-pairing route vs direct annulus quadrature of the bulk
        D = 0.5
        ren = renormalized_energy(SINGLE, elastic, unit_disk, D_override=D, n=128)
        w = DislocationLimitAiry(elastic=elastic, burgers_b=(0.0, 1.0), radius_R=1.0)
        K = elastic.plane_prefactor
        bulk = polar_energy(w, elastic, (0.0, 0.0), 1.0, r_inner=D).energy
        assert ren.F_self == pytest.approx(
            bulk + K / (8.0 * math.pi) * math.log(D), abs=1e-9
        )

    def test_interaction_symmetry(self, elastic, unit_disk):
        pair = [
            Dislocation((0.3, 0.0), (0.0, 1.0)),
            Dislocation((-0.3, 0.0), (0.0, 1.0)),
        ]
        fwd = renormalized_energy(pair, elastic, unit_disk, n=128)
        rev = renormalized_energy(list(reversed(pair)), elastic, unit_disk, n=128)
        assert fwd.F_int == pytest.approx(rev.F_int, rel=1e-10)
        assert fwd.renormalized == pytest.approx(rev.renormalized, rel=1e-10)

    def test_self_term_ignores_partner_cores(self, elastic, unit_disk):
        # each profile is paired over the disk minus its own D-ball only,
        # so the pair's self term is the sum of the lone-defect ones
        pair = OFF_CENTER_CASES["opposite-sign pair"]
        both = renormalized_energy(pair, elastic, unit_disk, n=64)
        alone = [
            renormalized_energy([d], elastic, unit_disk,
                                D_override=both.separation_D, n=64)
            for d in pair
        ]
        assert both.F_self == pytest.approx(sum(a.F_self for a in alone),
                                            abs=1e-12)

    def test_interaction_is_cross_energy_plus_cross_loads(self, elastic,
                                                          unit_disk):
        # whole-disk cross energy from the boundary pairing with small
        # circles of radius rho around both sites (within ~3e-9 of its
        # limit at rho = 1e-4), plus the core load of each profile at the
        # other site
        pair = OFF_CENTER_CASES["same-sign pair"]
        tj, tk = (
            DislocationLimitAiry(elastic=elastic, burgers_b=d.burgers_b,
                                 radius_R=1.0, site=d.site)
            for d in pair
        )
        rho = 1e-4
        rings = [(1.0, *circle_nodes((0.0, 0.0), 1.0, 512))] + [
            (-1.0, *circle_nodes(d.site, rho, 512)) for d in pair
        ]
        cross = _pair_energy_boundary(tj, tk, rings, elastic)
        loads = sum(
            float(t.gradient(np.array([d.site]))[0] @ rotate_burgers(d.burgers_b))
            for t, d in ((tj, pair[1]), (tk, pair[0]))
        )
        ren = renormalized_energy(pair, elastic, unit_disk, n=64)
        assert ren.F_int == pytest.approx(cross + loads, abs=1e-7)

    def test_to_dict(self, elastic, unit_disk):
        d = renormalized_energy(SINGLE, elastic, unit_disk, n=128).to_dict()
        for key in ("F_self", "F_int", "F_elastic", "f_DR", "renormalized",
                    "expansion_constant", "separation_D"):
            assert key in d


class TestExpansionFits:
    def test_single_dislocation_fit_structure(self, elastic, unit_disk):
        fit = expansion_check(
            SINGLE, elastic, unit_disk, [0.2, 0.1], n=128, fit_tail=2
        )
        K = elastic.plane_prefactor
        assert fit.analytic_slope == pytest.approx(-K / (8.0 * math.pi))
        assert fit.predicted_constant is not None
        # two samples leave no room for the eps^2 remainder
        assert fit.eps2_coeff is None
        d = fit.to_dict()
        assert "slope" in d and "constant" in d
        assert "eps2_coeff" not in d

    def test_three_term_fit_recovers_exact_single_expansion(self, elastic):
        # exact minima -c (log(1/eps) - (1 - eps^2)/(1 + eps^2)) have
        # slope -c and constant c; the two-term fit misses them by 5% / 15%
        eps = [0.2, 0.1, 0.05]
        values = [single_dislocation_min_value(elastic, 1.0, 1.0, e) for e in eps]
        c = elastic.plane_prefactor / (8.0 * math.pi)
        slope, constant, *_, d = _fit_log_expansion(eps, values, 3,
                                                    eps2_term=True)
        assert slope == pytest.approx(-c, rel=5e-3)
        assert constant == pytest.approx(c, rel=5e-3)
        assert d is not None

    @pytest.mark.parametrize("name", sorted(OFF_CENTER_CASES))
    def test_fitted_constant_matches_renormalized_energy(
        self, name, elastic, unit_disk
    ):
        fit = expansion_check(
            OFF_CENTER_CASES[name], elastic, unit_disk, [0.2, 0.1, 0.07], n=128
        )
        assert fit.eps2_coeff is not None
        assert "eps2_coeff" in fit.to_dict()
        assert abs(fit.constant - fit.predicted_constant) < 0.01

    def test_solver_values_are_exact_closed_forms(self, elastic, unit_disk):
        fit = expansion_check(
            SINGLE, elastic, unit_disk, [0.2, 0.1], n=128, fit_tail=2
        )
        for eps, value in zip(fit.params, fit.values):
            ref = single_dislocation_min_value(elastic, 1.0, 1.0, eps)
            assert value == pytest.approx(ref, rel=1e-10)

    def test_diagonal_skips_unresolved_spacings(self, elastic, unit_disk):
        dipoles = [DisclinationDipole((0.0, 0.0), (0.0, 1.0), 1e-2)]
        # eps(h) = min(sqrt(h), 0.95 D) = 0.95 is not above h = 1.2 and
        # 0.97, which leaves one sample
        with pytest.raises(NumericalError):
            diagonal_dipole_limit(
                dipoles, elastic, unit_disk, [1.2, 0.97, 1e-2], n=64
            )

    def test_diagonal_tracks_slope(self, elastic, unit_disk):
        dipoles = [DisclinationDipole((0.0, 0.0), (0.0, 1.0), 1e-2)]
        fit = diagonal_dipole_limit(
            dipoles, elastic, unit_disk, [1e-2, 2.5e-3], n=256, fit_tail=2
        )
        K = elastic.plane_prefactor
        rel = abs(abs(fit.slope) - K / (8.0 * math.pi)) / (K / (8.0 * math.pi))
        assert rel < 0.05
