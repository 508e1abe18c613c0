import math

import numpy as np
import pytest
from scipy.integrate import quad

from airy_defects.core import (
    Disclination,
    DiskDomain,
    Dislocation,
    ElasticConstants,
    NumericalError,
    ValidationError,
)
from airy_defects.closedform import (
    DislocationCoreAiry,
    SingleDisclinationClamped,
    strain_to_stress,
)
from airy_defects.fields import (
    ScalarField,
    TensorField,
    build_mask,
    circle_nodes,
    grid_for_disk,
    region_weights,
)
from airy_defects.energy import (
    EnergyBreakdown,
    QuadraticTerms,
    affine_core_defect,
    airy_energy_G,
    airy_inner_product,
    clamped_energy_density,
    disclination_functional_I,
    dipole_core_functional_J,
    dislocation_core_functional_J0,
    energy_density,
    grid_energy,
    grid_energy_fd,
    inner_product_density,
    polar_energy,
    single_dislocation_min_value,
    strain_energy,
    stress_energy,
    stress_energy_density,
    system_functional_I0,
)


def _smooth_grid_field(grid, domain, fn):
    mask = build_mask(grid, domain)
    return ScalarField.sample(fn, grid, mask)


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
    def test_polar_vs_grid_on_disclination(self, elastic, unit_disk):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        polar = polar_energy(v, elastic, (0.0, 0.0), 1.0, r_inner=0.05)
        grid = grid_for_disk(unit_disk, 256)
        w = region_weights(grid, unit_disk, cores=(((0.0, 0.0), 0.05),))
        cart = grid_energy(v, grid, w, elastic)
        assert cart.energy == pytest.approx(polar.energy, rel=2e-3)

    def test_grid_fd_matches_analytic_route(self, elastic, unit_disk):
        grid = grid_for_disk(unit_disk, 128)

        def fn(p):
            return p[:, 0] ** 2 * p[:, 1] + 0.3 * p[:, 1] ** 3

        sf = _smooth_grid_field(grid, unit_disk, fn)
        inner = DiskDomain((0.0, 0.0), 0.8)
        w = region_weights(grid, inner)

        class Cubic:
            def hessian(self, p):
                H = np.empty((p.shape[0], 2, 2))
                H[:, 0, 0] = 2.0 * p[:, 1]
                H[:, 0, 1] = 2.0 * p[:, 0]
                H[:, 1, 0] = H[:, 0, 1]
                H[:, 1, 1] = 1.8 * p[:, 1]
                return H

        fd = grid_energy_fd(sf, w, elastic)
        an = grid_energy(Cubic(), grid, w, elastic)
        assert fd.energy == pytest.approx(an.energy, rel=1e-10)

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

    def test_grid_path(self, elastic, unit_disk):
        grid = grid_for_disk(unit_disk, 128)
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        sf = _smooth_grid_field(grid, unit_disk, lambda p: v.value(p))
        br = disclination_functional_I(
            sf, [Disclination((0.0, 0.0), 1.0)], elastic
        )
        K = elastic.plane_prefactor
        # FD through the log singularity converges slowly; coarse check only
        assert br.total == pytest.approx(-K / (32.0 * math.pi), rel=0.1)

    def test_closed_form_needs_domain(self, elastic):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        with pytest.raises(ValidationError):
            disclination_functional_I(v, [Disclination((0.0, 0.0), 1.0)], elastic)


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

    def test_system_functional_matches_single(self, elastic, unit_disk):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        )
        val = system_functional_I0(
            w, [Dislocation((0.0, 0.0), (0.0, 1.0))], 0.1, elastic, unit_disk,
            n=256,
        )
        ref = single_dislocation_min_value(elastic, 1.0, 1.0, 0.1)
        # cut cells across the core circle see the Hessian jump: O(delta)
        assert val == pytest.approx(ref, rel=1e-2)

    def test_system_separation_gate(self, elastic, unit_disk):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        )
        with pytest.raises(ValidationError):
            system_functional_I0(
                w, [Dislocation((0.95, 0.0), (0.0, 1.0))], 0.1, elastic,
                unit_disk,
            )


class TestBilinearStructure:
    def _two_fields(self, unit_disk):
        grid = grid_for_disk(unit_disk, 96)
        u = _smooth_grid_field(
            grid, unit_disk, lambda p: np.sin(p[:, 0]) * p[:, 1] ** 2
        )
        w = _smooth_grid_field(
            grid, unit_disk, lambda p: np.cos(p[:, 1]) + p[:, 0] ** 3
        )
        return grid, u, w

    def test_polarization_and_superposition(self, elastic, unit_disk):
        grid, u, w = self._two_fields(unit_disk)
        both = ScalarField(grid=grid, values=u.values + w.values, mask=u.mask)
        Gu = airy_energy_G(u, elastic)
        Gw = airy_energy_G(w, elastic)
        cross = airy_inner_product(u, w, elastic)
        assert airy_energy_G(both, elastic) == pytest.approx(
            Gu + 2.0 * cross + Gw, rel=1e-12
        )
        assert airy_inner_product(u, u, elastic) == pytest.approx(Gu, rel=1e-13)

    def test_cauchy_schwarz(self, elastic, unit_disk):
        _, u, w = self._two_fields(unit_disk)
        cross = airy_inner_product(u, w, elastic)
        Gu = airy_energy_G(u, elastic)
        Gw = airy_energy_G(w, elastic)
        assert cross**2 <= Gu * Gw * (1.0 + 1e-12)

    def test_grid_mismatch(self, elastic, unit_disk):
        _, u, _ = self._two_fields(unit_disk)
        other = grid_for_disk(unit_disk, 48)
        w2 = _smooth_grid_field(other, unit_disk, lambda p: p[:, 0] ** 2)
        with pytest.raises(ValidationError):
            airy_inner_product(u, w2, elastic)


class TestTensorEnergies:
    def test_strain_stress_round_trip_energy(self, elastic, unit_disk, rng):
        grid = grid_for_disk(unit_disk, 32)
        e11 = rng.standard_normal((grid.nx, grid.ny))
        e12 = rng.standard_normal((grid.nx, grid.ny))
        e22 = rng.standard_normal((grid.nx, grid.ny))
        eps = TensorField(grid=grid, c11=e11, c12=e12, c22=e22)
        E = np.zeros((grid.nx, grid.ny, 2, 2))
        E[..., 0, 0], E[..., 0, 1] = e11, e12
        E[..., 1, 0], E[..., 1, 1] = e12, e22
        S = strain_to_stress(E, elastic)
        sigma = TensorField(
            grid=grid, c11=S[..., 0, 0], c12=S[..., 0, 1], c22=S[..., 1, 1]
        )
        assert stress_energy(sigma, elastic) == pytest.approx(
            strain_energy(eps, elastic), rel=1e-12
        )
