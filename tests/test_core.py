import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from airy_defects.core import (
    DefectConfiguration,
    Disclination,
    DisclinationDipole,
    Dislocation,
    DiskDomain,
    ElasticConstants,
    ValidationError,
    lame_from_young_poisson,
    min_separation_D,
    rotate_burgers,
    young_poisson_from_lame,
)


class TestElasticConstants:
    def test_plane_prefactor(self):
        c = ElasticConstants(1.0, 0.3)
        assert c.plane_prefactor == pytest.approx(1.0 / 0.91, rel=1e-15)

    @pytest.mark.parametrize("E,nu", [(0.0, 0.3), (-1.0, 0.3),
                                      (1.0, -1.0), (1.0, 0.5), (1.0, 0.7)])
    def test_admissibility_open_intervals(self, E, nu):
        with pytest.raises(ValidationError):
            ElasticConstants(E, nu)

    def test_near_boundary_admissible(self):
        ElasticConstants(1e-12, 0.3)
        ElasticConstants(1.0, 0.4999999)
        ElasticConstants(1.0, -0.9999999)

    @given(st.floats(0.1, 100.0), st.floats(-0.9, 0.45))
    def test_lame_round_trip(self, E, nu):
        lam, mu = lame_from_young_poisson(E, nu)
        E2, nu2 = young_poisson_from_lame(lam, mu)
        assert E2 == pytest.approx(E, rel=1e-12)
        assert nu2 == pytest.approx(nu, abs=1e-12)

    def test_lame_values(self):
        lam, mu = lame_from_young_poisson(1.0, 0.25)
        assert mu == pytest.approx(0.4, rel=1e-14)
        assert lam == pytest.approx(0.4, rel=1e-14)


class TestRotateBurgers:
    def test_quarter_turn(self):
        assert tuple(rotate_burgers((1.0, 0.0))) == (0.0, -1.0)
        assert tuple(rotate_burgers((0.0, 1.0))) == (1.0, 0.0)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_isometry_and_involution_sign(self, b1, b2):
        b = np.array([b1, b2])
        r = rotate_burgers(b)
        assert np.hypot(*r) == pytest.approx(np.hypot(*b), abs=1e-14)
        assert np.allclose(rotate_burgers(r), -b, atol=1e-14)


class TestDefects:
    def test_zero_charge_rejected(self):
        with pytest.raises(ValidationError):
            Disclination((0.0, 0.0), 0.0)
        with pytest.raises(ValidationError):
            Dislocation((0.0, 0.0), (0.0, 0.0))

    def test_dipole_geometry(self):
        dip = DisclinationDipole((0.0, 0.0), (0.0, 1.0), 0.01)
        assert dip.charge_s == pytest.approx(1.0)
        p, m = dip.poles()
        # poles sit along the rotated Burgers direction, spacing h apart
        assert np.hypot(p[0] - m[0], p[1] - m[1]) == pytest.approx(0.01)
        with pytest.raises(ValidationError):
            DisclinationDipole((0.0, 0.0), (0.0, 1.0), 0.0)


def _loop_min_separation_D(sites, domain):
    """The site-by-site loop that ``min_separation_D`` replaced, kept as
    its reference."""
    pts = [np.asarray(p, dtype=float) for p in sites]
    dists = []
    for p in pts:
        d_bdry = domain.boundary_distance(p)
        if d_bdry <= 0.0:
            raise ValidationError(f"site {tuple(p)} lies outside the domain")
        dists.append(d_bdry)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dists.append(0.5 * float(np.hypot(*(pts[i] - pts[j]))))
    return min(dists)


class TestSeparation:
    @pytest.mark.parametrize("domain", [DiskDomain((0.0, 0.0), 1.0),
                                        DiskDomain((0.1, -0.2), 1.3)])
    def test_matches_the_site_loop(self, domain):
        # the same D bit for bit on random sites, up to 300 of them
        rng = np.random.default_rng(7)
        r = domain.radius_R * 0.999 * np.sqrt(rng.uniform(size=300))
        t = rng.uniform(0.0, 2.0 * math.pi, size=300)
        sites = np.asarray(domain.center) + np.column_stack([r * np.cos(t), r * np.sin(t)])
        for count in (1, 2, 3, 8, 300):
            got = min_separation_D(sites[:count], domain)
            assert got.hex() == _loop_min_separation_D(sites[:count], domain).hex()

    @pytest.mark.parametrize("sites", [
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0.3, 0.0), (0.0, -1.5)],
        [(0.95, 0.0), (1.0000000000000002, 0.0)]])
    def test_first_site_outside_is_named_as_by_the_loop(self, sites, unit_disk):
        with pytest.raises(ValidationError) as want:
            _loop_min_separation_D(sites, unit_disk)
        with pytest.raises(ValidationError) as got:
            min_separation_D(sites, unit_disk)
        assert str(got.value) == str(want.value)

    def test_pair_and_boundary(self, unit_disk):
        sites = [(0.3, 0.0), (-0.3, 0.0)]
        assert min_separation_D(sites, unit_disk) == pytest.approx(0.3)
        sites = [(0.9, 0.0), (-0.9, 0.0)]
        assert min_separation_D(sites, unit_disk) == pytest.approx(0.1)

    def test_needs_sites(self, unit_disk):
        with pytest.raises(ValidationError):
            min_separation_D([], unit_disk)


class TestConfiguration:
    def _config(self, **kw):
        base = dict(
            elastic=ElasticConstants(1.0, 0.3),
            domain=DiskDomain((0.0, 0.0), 1.0),
        )
        base.update(kw)
        return DefectConfiguration(**base)

    def test_json_round_trip(self):
        cfg = self._config(
            dislocations=(Dislocation((0.2, -0.1), (0.0, 1.0)),),
            dipoles=(DisclinationDipole((-0.4, 0.3), (1.0, 0.0), 0.01),),
            core_radius=0.05,
        )
        again = DefectConfiguration.from_json(cfg.to_json())
        assert again == cfg

    def test_core_radius_separation_gate(self):
        with pytest.raises(ValidationError):
            self._config(
                dislocations=(Dislocation((0.9, 0.0), (0.0, 1.0)),),
                core_radius=0.2,
            )

    def test_dipole_spacing_gate(self):
        with pytest.raises(ValidationError):
            self._config(
                dipoles=(DisclinationDipole((0.0, 0.0), (0.0, 1.0), 0.2),),
                core_radius=0.1,
            )

    def test_malformed_document(self):
        with pytest.raises(ValidationError):
            DefectConfiguration.from_dict({"nu": 0.3})
        with pytest.raises(ValidationError):
            DefectConfiguration.from_json("{not json")

    def test_sites_outside_domain_rejected(self):
        with pytest.raises(ValidationError):
            self._config(
                disclinations=(Disclination((1.5, 0.0), 1.0),),
            )
