import math

import numpy as np
import pytest
from scipy.integrate import quad

from airy_defects.core import (
    Disclination,
    ElasticConstants,
    NumericalError,
    ValidationError,
)
from airy_defects.closedform import (
    DislocationCoreAiry,
    SingleDisclinationClamped,
)
from airy_defects.fields import circle_nodes
from airy_defects.energy import (
    EnergyBreakdown,
    QuadraticTerms,
    affine_core_defect,
    circle_sums,
    clamped_energy_density,
    disclination_functional_I,
    dipole_core_functional_J,
    dislocation_core_functional_J0,
    energy_density,
    inner_product_density,
    polar_energy,
    single_dislocation_min_value,
    stress_energy_density,
)


class TestCircleSums:
    def test_constant_and_harmonics(self):
        # a trigonometric polynomial of degree below 32 is exact at the
        # first level, on every circle at once
        circles = [((0.0, 0.0), 2.0), ((0.3, -0.1), 0.5)]

        def integrands(pts, nhat):
            x = pts[:, 0]
            return np.stack([np.ones(len(pts)), nhat[:, 0], nhat[:, 0] ** 2,
                             np.cos(31.0 * np.arctan2(nhat[:, 1], nhat[:, 0])), x])

        means, n = circle_sums(circles, integrands)
        assert n == 64
        assert means.shape == (5, 2)
        assert np.allclose(means[:4], [[1.0], [0.0], [0.5], [0.0]], rtol=0.0,
                           atol=1e-15)
        assert np.allclose(means[4], [0.0, 0.3], rtol=0.0, atol=1e-15)

    @staticmethod
    def poisson(rho):
        """The Poisson kernel (1 - rho^2) / (1 - 2 rho cos(t - pi/2) +
        rho^2) of the pole rho e^{i pi/2}, written (1 - rho)(1 + rho) /
        |e^{it} - i rho|^2, which does not cancel for rho near 1. The pole
        faces away from t = 0, where the node angles 2 pi k / n meet the
        rounding of 2 pi: with the peak there the sum misses by 1.6e-14
        (relative) at rho = 0.995."""
        def kernel(pts, nhat):
            return (1.0 - rho) * (1.0 + rho) / (nhat[:, 0] ** 2 + (nhat[:, 1] - rho) ** 2)

        return kernel

    @pytest.mark.parametrize("rho", [0.99, 0.995])
    def test_poisson_kernel_near_the_circle(self, rho):
        # the kernel has mean 1; its trapezoid sum converges like rho^n,
        # so the rule doubles far past its first level
        mean, n = circle_sums([((0.0, 0.0), 1.0)], self.poisson(rho))
        assert n > 1024
        assert abs(2.0 * math.pi * float(mean[0]) - 2.0 * math.pi) <= 1e-13

    def test_unsettled_sums_raise_at_the_cap(self):
        with pytest.raises(NumericalError, match="did not settle"):
            circle_sums([((0.0, 0.0), 1.0)], self.poisson(0.9999))

    def test_gates(self):
        for radius in (-1.0, 0.0, math.nan):
            with pytest.raises(ValidationError):
                circle_sums([((0.0, 0.0), radius)], lambda pts, nhat: pts[:, 0])


class TestDensities:
    def test_energy_vs_stress_density(self, elastic, rng):
        from airy_defects.closedform import airy_to_stress

        H = rng.standard_normal((100, 2, 2))
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        d1 = energy_density(H, elastic)
        d2 = stress_energy_density(airy_to_stress(H), elastic)
        assert np.allclose(d1, d2, atol=1e-13)

    def test_polarization(self, elastic, rng):
        H = rng.standard_normal((20, 2, 2))
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        assert np.allclose(
            inner_product_density(H, H, elastic),
            2.0 * energy_density(H, elastic),
            atol=1e-13,
        )

    def test_clamped_vs_full_when_norm_equals_trace(self, elastic):
        # diag(a, 0) Hessians satisfy |H|^2 = (tr H)^2, both densities agree
        H = np.array([[[2.0, 0.0], [0.0, 0.0]]])
        assert clamped_energy_density(2.0, elastic) == pytest.approx(
            energy_density(H, elastic)[0], rel=1e-14
        )


class TestQuadraticTerms:
    def test_energy_formulas(self, elastic):
        qt = QuadraticTerms(hessian_sq=3.0, laplacian_sq=2.0,
                            elastic_constants=elastic)
        nu, E = 0.3, 1.0
        assert qt.energy == pytest.approx((1 + nu) / (2 * E) * (3 - nu * 2))
        assert qt.clamped_energy == pytest.approx((1 - nu**2) / (2 * E) * 2)
        d = qt.to_dict()
        assert set(d) == {"hessian_sq", "laplacian_sq", "energy", "clamped_energy"}


class TestQuadratureRoutes:
    def test_polar_gate(self, elastic):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        with pytest.raises(ValidationError):
            polar_energy(v, elastic, (0.0, 0.0), 0.5, r_inner=0.5)


def _polar_energy_adaptive(field, elastic, n_theta=256):
    """Reference: the same 256-angle ring means over the unit disk,
    integrated by adaptive quadrature one radius at a time."""
    _, ring, _ = circle_nodes((0.0, 0.0), 1.0, n_theta)

    def shell(r):
        return float(np.mean(energy_density(field.hessian(r * ring), elastic))) \
            * 2.0 * math.pi * r

    return quad(shell, 0.0, 1.0, limit=200)[0]


class TestOffCenterSingularity:
    @pytest.mark.parametrize("site", [(0.3, 0.0), (0.0, 0.7)])
    def test_break_needed_and_sufficient(self, elastic, site):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0,
                                      charge_s=1.0, center=site)
        with pytest.raises(NumericalError):
            polar_energy(v, elastic, (0.0, 0.0), 1.0)
        got = polar_energy(v, elastic, (0.0, 0.0), 1.0,
                           breaks=(math.hypot(*site),)).energy
        assert got == pytest.approx(_polar_energy_adaptive(v, elastic), rel=1e-6)

    def test_functional_flags_its_sites(self, elastic, unit_disk):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0,
                                      charge_s=1.0, center=(0.3, 0.0))
        br = disclination_functional_I(
            v, [Disclination((0.3, 0.0), 1.0)], elastic, domain=unit_disk
        )
        assert br.bulk_G == pytest.approx(_polar_energy_adaptive(v, elastic),
                                          rel=1e-6)


class TestEnergyBreakdown:
    def test_total_and_dict(self):
        br = EnergyBreakdown(bulk_G=2.0, charge_term=-3.0, region="disk R=1")
        assert br.total == -1.0
        d = br.to_dict(grid={"delta": 0.1, "n": 10})
        assert set(d) == {"bulk_G", "charge", "total", "region", "grid"}
        assert "grid" not in br.to_dict()

    def test_negative_bulk_rejected(self):
        with pytest.raises(NumericalError):
            EnergyBreakdown(bulk_G=-1.0, charge_term=0.0, region="x")


class TestDisclinationFunctional:
    def test_closed_form_minimum(self, elastic, unit_disk):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        br = disclination_functional_I(
            v, [Disclination((0.0, 0.0), 1.0)], elastic, domain=unit_disk
        )
        K = elastic.plane_prefactor
        assert br.total == pytest.approx(-K / (32.0 * math.pi), rel=1e-8)
        assert br.bulk_G == pytest.approx(K / (32.0 * math.pi), rel=1e-8)

class TestCoreFunctionals:
    def test_minimizer_value_exact(self, elastic):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        )
        val = dislocation_core_functional_J0(w, 1.0, 0.1, 1.0, elastic)
        ref = single_dislocation_min_value(elastic, 1.0, 1.0, 0.1)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_pair_functional_spacing_independent(self, elastic):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        )
        j0 = dislocation_core_functional_J0(w, 1.0, 0.1, 1.0, elastic)
        for h in (0.05, 0.01, 0.002):
            jh = dipole_core_functional_J(w, 1.0, h, 0.1, 1.0, elastic)
            # affine core: the pair load is exactly the slope load
            assert jh == pytest.approx(j0, rel=1e-10)

    def test_affine_core_gate(self, elastic):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        assert affine_core_defect(v, (0.0, 0.0), 0.1) > 1.0
        with pytest.raises(ValidationError):
            dislocation_core_functional_J0(v, 1.0, 0.1, 1.0, elastic)
