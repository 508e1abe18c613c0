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
from airy_defects.closedform import DipoleAiry, DislocationLimitAiry
from airy_defects.energy import (
    _pairing_means,
    _pairing_traces,
    _boundary_integral,
    circle_sums,
    energy_density,
    polar_energy,
    single_dislocation_min_value,
)
from airy_defects.fields import circle_nodes, radial_nodes
from airy_defects.asymptotics import (
    _dipole_energy,
    _fit_log_expansion,
    angular_quartic_integral,
    annulus_energy_closed_form,
    appendix_b_integrals,
    diagonal_dipole_limit,
    dipole_scaling_sweep,
    expansion_check,
    renormalized_energy,
    sweep_to_csv,
)
from airy_defects.solver import solve_core_constrained
from renormalized_reference import (
    renormalized_decomposition,
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

    def test_energy_matches_area_quadrature(self, elastic):
        # ring means over 16384 angles resolve the poles at r = h/2 to
        # about 4e-8; over 512 angles they are 4e-6 off
        h = 1e-2
        field = DipoleAiry(elastic=elastic, burgers_b=(0.0, 1.0), spacing_h=h)
        _, ring, _ = circle_nodes((0.0, 0.0), 1.0, 16384)
        r, w = radial_nodes(0.0, 1.0, (0.5 * h,))
        means = np.array([
            np.mean(energy_density(field.hessian(ri * ring), elastic)) for ri in r
        ])
        area = float(w @ (2.0 * math.pi * r * means))
        assert _dipole_energy(elastic, 1.0, 1.0, h) == pytest.approx(area, rel=1e-7)

    def test_solver_value_of_a_close_pair_keeps_its_digits(self, elastic):
        # the +-s pair at (+-h/2, 0): -(K/2) sum s_i s_j G_B(y_i, y_j) is
        # -K s^2 h^2 log1p(a^2 / h^2) / 16 pi, a = 1 - h^2/4, here at 40
        # digits; summed as the matrix of G_B it lost 1.0e-12 and 2.6e-4
        mpmath = pytest.importorskip("mpmath")
        rows = dipole_scaling_sweep(elastic, 1.0, 1.0, [1e-3, 1e-7], include_solver=True)
        with mpmath.workdps(40):
            K = mpmath.mpf(1) / (1 - mpmath.mpf("0.3") ** 2)
            for row in rows:
                h = mpmath.mpf(row["param"])
                exact = -K * h**2 * mpmath.log1p((1 - h**2 / 4) ** 2 / h**2) / (16 * mpmath.pi)
                assert abs(row["solver_value"] / exact - 1) <= 1e-14

    @pytest.mark.parametrize("E, nu, s", [(1.0, 0.3, 2.0), (2.5, 0.1, -1.0)])
    def test_energy_quadratic_in_charge(self, E, nu, s):
        elastic = ElasticConstants(E, nu)
        for h in (1e-2, 1e-3):
            assert _dipole_energy(elastic, s, 1.0, h) == pytest.approx(
                s**2 * _dipole_energy(elastic, 1.0, 1.0, h), rel=1e-12)

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

    def test_values_held(self):
        # adaptive per-radius quadrature of the same 512-angle ring means
        held = {
            1e-3: ((8.68274803912198e-05, 2.668855070417037e-06,
                    1.0675420281668148e-05),
                   (1.254663301136423e-05, 2.0743295924136412e-07,
                    1.0915367692569923e-06)),
            1e-1: ((0.2895720289129358, 0.008608991789884404,
                    0.03443596715953762),
                   (0.12546632688683504, 0.0020743382337424167,
                    0.010915346765430082)),
        }
        for h, (annulus, ball) in held.items():
            res = appendix_b_integrals(h, 1.0)
            assert res["annulus"] == pytest.approx(annulus, rel=1e-5)
            assert res["ball"] == pytest.approx(ball, rel=1e-5)

    def test_quarter_fold_matches_full_ring(self):
        # the even integrands are summed over a quarter of the ring; the
        # means over the whole ring, on the same radial nodes, agree to
        # roundoff
        h, R = 1e-2, 1.0
        _, ring, _ = circle_nodes((0.0, 0.0), 1.0, 512)

        def full_ring(lo, hi, breaks=()):
            r, w = radial_nodes(lo, hi, breaks)
            x1 = r[:, None] * ring[:, 0]
            x2 = r[:, None] * ring[:, 1]
            qm = (x1 - 0.5 * h) ** 2 + x2**2
            qp = (x1 + 0.5 * h) ** 2 + x2**2
            den = (qp * qm) ** 2
            terms = (np.log(qm / qp) ** 2, h**2 * x2**4 * x1**2 / den,
                     h**2 * x2**2 * (0.25 * h**2 + x2**2 - x1**2) ** 2 / den)
            return [float((2.0 * math.pi * r * f.mean(axis=1)) @ w)
                    for f in terms]

        res = appendix_b_integrals(h, R)
        assert res["annulus"] == pytest.approx(full_ring(h, R), rel=1e-13)
        assert res["ball"] == pytest.approx(full_ring(0.0, h, (0.5 * h,)),
                                            rel=1e-13)

    def test_ball_contributions_decay(self):
        # the core-ball share dies like 1/log(R/h): test the trend
        small = appendix_b_integrals(1e-3, 1.0)["ball_normalized"]
        large = appendix_b_integrals(1e-1, 1.0)["ball_normalized"]
        for s, l in zip(small, large):
            assert s < l


def near_circle_pair(r):
    """A site at (r, 0), b = (0, 1), and a partner at (-0.3, 0.2), b =
    (1, 0)."""
    return [Dislocation((r, 0.0), (0.0, 1.0)), Dislocation((-0.3, 0.2), (1.0, 0.0))]


# the closed form against the three-term decomposition: R, E, the
# domain centre and the dislocations, off-centre, oblique and unequal
CLOSED_FORM_CASES = [
    (R, E, centre, [Dislocation((centre[0] + R * x, centre[1] + R * y), b)
                    for (x, y), b in sites])
    for R, E, centre, sites in [
        (1.0, 1.0, (0.0, 0.0), [((0.3, 0.1), (0.0, 1.0))]),
        (1.5, 0.5, (0.0, 0.0), [((0.3, 0.1), (0.0, 1.0))]),
        (2.0, 2.0, (0.0, 0.0), [((0.3, 0.1), (0.0, 1.0))]),
        (1.0, 1.0, (0.0, 0.0), [((0.3, 0.0), (0.0, 1.0)),
                                ((-0.3, 0.0), (0.0, -1.0))]),
        (1.5, 1.0, (0.0, 0.0), [((0.3, 0.0), (0.0, 1.0)),
                                ((-0.3, 0.0), (0.0, 1.0))]),
        (2.0, 0.5, (0.0, 0.0), [((0.3, 0.0), (0.0, 1.0)),
                                ((-0.3, 0.0), (0.0, -1.0))]),
        (1.0, 2.0, (0.0, 0.0), [((0.2, -0.4), (0.6, 0.8)),
                                ((-0.5, 0.1), (1.0, 0.3))]),
        (1.0, 1.0, (0.0, 0.0), [((0.2, -0.4), (0.6, 0.8)),
                                ((-0.5, 0.1), (1.0, 0.3)),
                                ((0.1, 0.6), (-0.4, 2.0))]),
        (1.5, 2.0, (0.0, 0.0), [((0.2, -0.4), (0.6, 0.8)),
                                ((-0.5, 0.1), (1.0, 0.3)),
                                ((0.1, 0.6), (-0.4, 2.0))]),
        (2.0, 1.0, (0.0, 0.0), [((0.2, -0.4), (0.6, 0.8)),
                                ((-0.5, 0.1), (1.0, 0.3)),
                                ((0.1, 0.6), (-0.4, 2.0))]),
        (1.5, 0.5, (0.1, -0.2), [((0.2, -0.4), (0.6, 0.8)),
                                 ((-0.5, 0.1), (1.0, 0.3))]),
        (1.0, 1.0, (0.0, 0.0), [((0.8, 0.0), (0.3, -1.0)),
                                ((-0.1, 0.5), (2.0, 0.5))]),
    ]
]


class TestRenormalizedEnergy:
    @pytest.mark.parametrize("r, expected", [
        (0.97, 0.1756270692222002),
        (0.99, 0.22064063142383927),
        (0.995, 0.2501852293071966),
        (0.999, 0.31994410263669304),
    ])
    def test_site_near_the_circle(self, r, expected, elastic, unit_disk):
        # references: the three-term decomposition's circle sums, settled
        # by fixed rules of 8192 and 32768 nodes, which agree to 1e-15
        # (512 nodes gave 0.28403 at r = 0.995); the closed form needs none
        ren = renormalized_energy(near_circle_pair(r), elastic, unit_disk)
        assert ren.expansion_constant == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("case", range(len(CLOSED_FORM_CASES)))
    def test_closed_form_matches_the_decomposition(self, case):
        R, E, centre, dislocations = CLOSED_FORM_CASES[case]
        elastic, domain = ElasticConstants(E, 0.3), DiskDomain(centre, R)
        ren = renormalized_energy(dislocations, elastic, domain)
        ref = renormalized_decomposition(dislocations, elastic, domain)
        assert ren.expansion_constant == pytest.approx(ref.expansion_constant,
                                                       rel=1e-13)

    @pytest.mark.parametrize("R", [1.0, 1.5, 2.0])
    def test_centred_dislocation(self, R, elastic):
        # the constant of the closed-form minimum -(K |b|^2 / 8 pi)
        # (log(R / eps) - (R^2 - eps^2) / (R^2 + eps^2)); no pair term
        b = (0.6, -0.8)
        ren = renormalized_energy([Dislocation((0.0, 0.0), b)], elastic,
                                  DiskDomain((0.0, 0.0), R))
        K = elastic.plane_prefactor
        assert ren.interaction == 0.0
        assert ren.expansion_constant == pytest.approx(
            K * (1.0 - math.log(R)) / (8.0 * math.pi), rel=1e-15, abs=1e-17)

    def test_coincident_and_outside_sites_raise(self, elastic, unit_disk):
        for sites in ([(0.3, 0.0), (0.3, 0.0)], [(0.3, 0.0), (1.0, 0.0)]):
            with pytest.raises(ValidationError):
                renormalized_energy([Dislocation(y, (0.0, 1.0)) for y in sites],
                                    elastic, unit_disk)

    def test_centered_single_decomposition(self, elastic, unit_disk):
        ren = renormalized_decomposition(SINGLE, elastic, unit_disk)
        K = elastic.plane_prefactor
        assert ren.separation_D == pytest.approx(1.0)
        assert abs(ren.F_self) < 1e-12
        assert abs(ren.F_int) < 1e-12
        assert abs(ren.F_elastic) < 1e-10
        assert ren.expansion_constant == pytest.approx(K / (8.0 * math.pi), rel=1e-10)

    def test_self_plus_geometry_term_is_separation_invariant(self, elastic, unit_disk):
        # the self part and the geometric constant both move with the
        # separation radius; only their sum is an invariant of the defect
        a = renormalized_decomposition(SINGLE, elastic, unit_disk, D=1.0)
        b = renormalized_decomposition(SINGLE, elastic, unit_disk, D=0.5)
        assert abs(a.F_self - b.F_self) > 1e-4  # each part genuinely moves
        assert a.F_self + a.f_DR == pytest.approx(b.F_self + b.f_DR, abs=1e-10)

    def test_self_energy_against_quadrature(self, elastic, unit_disk):
        # boundary-pairing route vs direct annulus quadrature of the bulk
        D = 0.5
        ren = renormalized_decomposition(SINGLE, elastic, unit_disk, D=D)
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
        fwd = renormalized_decomposition(pair, elastic, unit_disk)
        rev = renormalized_decomposition(list(reversed(pair)), elastic, unit_disk)
        assert fwd.F_int == pytest.approx(rev.F_int, rel=1e-10)
        assert fwd.renormalized == pytest.approx(rev.renormalized, rel=1e-10)
        fwd, rev = (renormalized_energy(p, elastic, unit_disk)
                    for p in (pair, list(reversed(pair))))
        assert fwd.interaction == pytest.approx(rev.interaction, rel=1e-15)

    def test_self_term_ignores_partner_cores(self, elastic, unit_disk):
        # each profile is paired over the disk minus its own D-ball only,
        # so the pair's self term is the sum of the lone-defect ones
        pair = OFF_CENTER_CASES["opposite-sign pair"]
        both = renormalized_decomposition(pair, elastic, unit_disk)
        alone = [renormalized_decomposition([d], elastic, unit_disk,
                                            D=both.separation_D)
                 for d in pair]
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
        circles = [((0.0, 0.0), 1.0)] + [(d.site, rho) for d in pair]
        nu, E = elastic.poisson_nu, elastic.young_E
        cross, _ = circle_sums(
            circles, lambda pts, nhat: np.array(
                [_pairing_traces(t, pts, nhat, nu) for t in (tj, tk)]),
            lambda x: (1.0 + nu) / E * _boundary_integral(
                _pairing_means(x[0, 0], x[1, 1]), circles))
        loads = sum(
            float(t.gradient(np.array([d.site]))[0] @ rotate_burgers(d.burgers_b))
            for t, d in ((tj, pair[1]), (tk, pair[0]))
        )
        ren = renormalized_decomposition(pair, elastic, unit_disk)
        assert ren.F_int == pytest.approx(cross + loads, abs=1e-7)

    def test_to_dict(self, elastic, unit_disk):
        d = renormalized_energy(OFF_CENTER_CASES["same-sign pair"], elastic,
                                unit_disk).to_dict()
        assert set(d) == {"self_energy", "interaction", "expansion_constant"}
        assert d["expansion_constant"] == d["self_energy"] + d["interaction"]


class TestExpansionFits:
    @pytest.mark.parametrize("defects, ratio", [
        ([Dislocation((0.3, 0.0), (0.0, 1.0))], -0.0874),
        ([Dislocation((x, 0.0), (0.0, 1.0)) for x in (0.3, -0.3)], -0.491),
    ], ids=["one", "pair"])
    def test_constant_is_the_expansion_constant(self, defects, ratio, elastic,
                                                unit_disk):
        # value - slope |log eps| - expansion_constant falls like eps^2:
        # each halving of eps divides it by 4 within 2%, and rem / eps^2
        # reads -0.0874 and -0.491 at eps 0.0125
        slope = -elastic.plane_prefactor * sum(
            math.hypot(*d.burgers_b) ** 2 for d in defects) / (8.0 * math.pi)
        constant = renormalized_energy(defects, elastic, unit_disk).expansion_constant
        rem = [solve_core_constrained(elastic, unit_disk, defects, eps).value
               - slope * abs(math.log(eps)) - constant for eps in (0.05, 0.025, 0.0125)]
        for coarse, fine in zip(rem, rem[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.02)
        assert rem[-1] / 0.0125**2 == pytest.approx(ratio, rel=2e-3)

    def test_single_dislocation_fit_structure(self, elastic, unit_disk):
        fit = expansion_check(
            SINGLE, elastic, unit_disk, [0.2, 0.1], fit_tail=2
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
            OFF_CENTER_CASES[name], elastic, unit_disk, [0.2, 0.1, 0.07]
        )
        assert fit.eps2_coeff is not None
        assert "eps2_coeff" in fit.to_dict()
        assert abs(fit.constant - fit.predicted_constant) < 0.01

    # relative slope and constant errors of the 3-term fit at sharp core
    # radii: 10x the errors measured at these radii
    @pytest.mark.parametrize("case, eps_list, slope_tol, constant_tol", [
        ("one", [0.05, 0.025, 0.0125], 4.2e-5, 2.0e-4),
        ("two", [0.05, 0.025, 0.0125], 4.3e-4, 1.3e-3),
        ("opp", [0.05, 0.025, 0.0125], 6.7e-4, 6.3e-3),
        ("one", [0.0125, 0.00625, 0.003125], 1.7e-7, 1.0e-6),
        ("two", [0.0125, 0.00625, 0.003125], 1.7e-6, 6.7e-6),
        ("opp", [0.0125, 0.00625, 0.003125], 2.6e-6, 3.2e-5),
    ])
    def test_expansion_sharp_at_small_cores(self, case, eps_list, slope_tol,
                                            constant_tol, elastic, unit_disk):
        dislocations = {"one": SINGLE,
                        "two": OFF_CENTER_CASES["same-sign pair"],
                        "opp": OFF_CENTER_CASES["opposite-sign pair"]}[case]
        fit = expansion_check(dislocations, elastic, unit_disk, eps_list)
        assert abs(fit.slope / fit.analytic_slope - 1.0) < slope_tol
        assert abs(fit.constant / fit.predicted_constant - 1.0) < constant_tol

    def test_solver_values_are_exact_closed_forms(self, elastic, unit_disk):
        fit = expansion_check(
            SINGLE, elastic, unit_disk, [0.2, 0.1], fit_tail=2
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
                dipoles, elastic, unit_disk, [1.2, 0.97, 1e-2]
            )

    def test_diagonal_tracks_slope(self, elastic, unit_disk):
        dipoles = [DisclinationDipole((0.0, 0.0), (0.0, 1.0), 1e-2)]
        fit = diagonal_dipole_limit(
            dipoles, elastic, unit_disk, [1e-2, 2.5e-3], fit_tail=2
        )
        K = elastic.plane_prefactor
        rel = abs(abs(fit.slope) - K / (8.0 * math.pi)) / (K / (8.0 * math.pi))
        assert rel < 0.05

    def test_diagonal_predicts_the_core_expansion_constant(self, elastic,
                                                          unit_disk):
        # the samples are the core-radius expansion at eps = sqrt(h),
        # whose constant the two-term fit meets to 8.0e-4 at these h
        dipoles = [DisclinationDipole((0.3, 0.0), (0.0, 1.0), 1e-2)]
        h = [1e-4, 2.5e-5, 6.25e-6]
        fit = diagonal_dipole_limit(dipoles, elastic, unit_disk, h)
        target = [Dislocation((0.3, 0.0), (0.0, 1.0))]
        core = expansion_check(target, elastic, unit_disk,
                               [math.sqrt(x) for x in h])
        assert fit.predicted_constant == core.predicted_constant
        assert fit.to_dict()["predicted_constant"] == fit.predicted_constant
        assert fit.values == core.values
        assert abs(fit.constant / fit.predicted_constant - 1.0) < 8e-3
