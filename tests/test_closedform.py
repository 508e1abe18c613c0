import hashlib
import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import field_reference
from airy_defects.core import ElasticConstants, ValidationError
from airy_defects.closedform import (
    CoreCoefficients,
    DipoleAiry,
    DipoleDerivativeAiry,
    DislocationCoreAiry,
    DislocationLimitAiry,
    FundamentalAiry,
    Poly2D,
    ScaledField,
    ShiftedField,
    SingleDisclinationClamped,
    SumField,
    airy_to_stress,
    clamped_green,
    clamped_green_mixed,
    dipole_frame,
    strain_to_stress,
    stress_to_strain,
)


def _fd_check(field, pts, h=1e-5):
    """Gradient/Hessian of a closed form against central differences."""
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    g_fd = np.stack(
        [
            (field.value(pts + e1) - field.value(pts - e1)) / (2 * h),
            (field.value(pts + e2) - field.value(pts - e2)) / (2 * h),
        ],
        axis=-1,
    )
    assert np.allclose(field.gradient(pts), g_fd, atol=1e-7)
    H_fd = np.stack(
        [
            (field.gradient(pts + e1) - field.gradient(pts - e1)) / (2 * h),
            (field.gradient(pts + e2) - field.gradient(pts - e2)) / (2 * h),
        ],
        axis=1,
    )
    assert np.allclose(field.hessian(pts), H_fd, atol=1e-6)
    lap = field.hessian(pts)[:, 0, 0] + field.hessian(pts)[:, 1, 1]
    assert np.allclose(field.laplacian(pts), lap, atol=1e-10)


def _grad_laplacian_fd_check(field, pts, h=1e-5):
    """grad_laplacian of a closed form against central differences of
    its laplacian."""
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    g_fd = np.stack(
        [
            (field.laplacian(pts + e1) - field.laplacian(pts - e1)) / (2 * h),
            (field.laplacian(pts + e2) - field.laplacian(pts - e2)) / (2 * h),
        ],
        axis=-1,
    )
    g = field.grad_laplacian(pts)
    assert np.allclose(g, g_fd, rtol=1e-6, atol=1e-6 * np.abs(g).max())


SAMPLE = np.array([[0.31, 0.12], [-0.44, 0.27], [0.05, -0.61], [0.52, 0.49]])


class TestFundamental:
    def test_value_formula(self, elastic):
        f = FundamentalAiry(elastic)
        K = elastic.plane_prefactor
        p = np.array([[0.5, 0.0]])
        expected = K * 0.25 * math.log(0.25) / (16.0 * math.pi)
        assert f.value(p)[0] == pytest.approx(expected, rel=1e-14)

    def test_derivative_consistency(self, elastic):
        _fd_check(FundamentalAiry(elastic), SAMPLE)

    def test_biharmonic_off_origin(self, elastic):
        # the laplacian is harmonic away from the source
        f = FundamentalAiry(elastic)
        h = 1e-4
        p = np.array([[0.3, 0.2]])
        stencil = sum(
            f.laplacian(p + h * np.array([d]))[0]
            for d in ((1, 0), (-1, 0), (0, 1), (0, -1))
        ) - 4.0 * f.laplacian(p)[0]
        assert stencil / h**2 == pytest.approx(0.0, abs=1e-5)


class TestSingleDisclination:
    def test_clamped_traces(self, elastic):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        th = np.linspace(0.0, 2.0 * math.pi, 65)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        assert np.max(np.abs(v.value(ring))) < 1e-14
        assert np.max(np.abs(v.gradient(ring))) < 1e-13

    def test_min_energy_constant(self, elastic):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        K = elastic.plane_prefactor
        assert v.min_energy() == pytest.approx(K / (32.0 * math.pi), rel=1e-15)

    def test_derivative_consistency(self, elastic):
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        _fd_check(v, SAMPLE)

    def test_grad_laplacian(self, elastic):
        v = SingleDisclinationClamped(
            elastic=elastic, radius_R=1.0, charge_s=-1.5, center=(0.3, -0.2)
        )
        _grad_laplacian_fd_check(v, SAMPLE)

    def test_center_shift_equivariance(self, elastic):
        v0 = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        v1 = SingleDisclinationClamped(
            elastic=elastic, radius_R=1.0, charge_s=1.0, center=(0.2, -0.1)
        )
        shift = np.array([0.2, -0.1])
        assert np.allclose(v1.value(SAMPLE), v0.value(SAMPLE - shift), atol=1e-15)


class TestDipole:
    def test_derivative_consistency(self, elastic):
        dip = DipoleAiry(elastic=elastic, burgers_b=(0.0, 1.0), spacing_h=0.05)
        _fd_check(dip, SAMPLE)
        der = DipoleDerivativeAiry(elastic=elastic, burgers_b=(0.3, 0.7))
        _fd_check(der, SAMPLE)

    def test_spacing_limit(self, elastic):
        der = DipoleDerivativeAiry(elastic=elastic, burgers_b=(0.0, 1.0))
        target = der.value(SAMPLE)
        errs = []
        for h in (1e-2, 1e-3):
            dip = DipoleAiry(elastic=elastic, burgers_b=(0.0, 1.0), spacing_h=h)
            errs.append(np.max(np.abs(dip.value(SAMPLE) / h - target)))
        # second-order difference quotient: error drops by ~100 per decade
        assert errs[1] < 2e-2 * errs[0]

    def test_frame_orthonormal(self):
        Q = dipole_frame((0.3, -0.4))
        assert np.allclose(Q @ Q.T, np.eye(2), atol=1e-15)
        assert np.allclose(Q[1], (0.6, -0.8), atol=1e-15)


class TestDislocationCore:
    def test_matches_value_across_core_circle(self, elastic):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        )
        th = np.linspace(0.0, 2.0 * math.pi, 33)
        inner = 0.1 * (1.0 - 1e-9) * np.stack([np.cos(th), np.sin(th)], axis=-1)
        outer = 0.1 * (1.0 + 1e-9) * np.stack([np.cos(th), np.sin(th)], axis=-1)
        assert np.allclose(w.value(inner), w.value(outer), atol=1e-9)
        assert np.allclose(w.gradient(inner), w.gradient(outer), atol=1e-7)

    def test_affine_inside_core(self, elastic):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        )
        pts = 0.05 * SAMPLE
        assert np.max(np.abs(w.hessian(pts))) < 1e-12

    def test_clamped_traces(self, elastic):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        )
        th = np.linspace(0.0, 2.0 * math.pi, 65)
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        assert np.max(np.abs(w.value(ring))) < 1e-13
        assert np.max(np.abs(w.gradient(ring))) < 1e-12

    def test_derivative_consistency(self, elastic):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.2, 0.9), eps=0.1, radius_R=1.0,
            site=(0.1, -0.2),
        )
        _fd_check(w, SAMPLE)

    def test_grad_laplacian(self, elastic):
        w = DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.2, 0.9), eps=0.1, radius_R=1.0,
            site=(0.1, -0.2),
        )
        _grad_laplacian_fd_check(w, SAMPLE)
        # zero on the affine core
        inside = np.asarray(w.site) + 0.05 * SAMPLE
        assert np.all(w.grad_laplacian(inside) == 0.0)
        # on the core circle, where r^2 < eps^2 rounds either way, the
        # annulus branch is the one returned, with its one-sided limits
        th = 2.0 * math.pi * np.arange(16) / 16
        circle = np.asarray(w.site) + 0.1 * np.stack(
            [np.cos(th), np.sin(th)], axis=-1)
        a = replace(w, annulus_branch=True)
        _grad_laplacian_fd_check(a, circle)
        outside = np.asarray(w.site) + (1.0 + 1e-9) * (circle - w.site)
        for branch, limit in ((a.laplacian, w.laplacian),
                              (a.grad_laplacian, w.grad_laplacian)):
            got, ref = branch(circle), limit(outside)
            assert np.allclose(got, ref, rtol=1e-7, atol=1e-7 * np.abs(ref).max())
        H = a.hessian(circle)
        assert np.allclose(H[:, 0, 0] + H[:, 1, 1], a.laplacian(circle),
                           atol=1e-12)
        assert np.all(np.abs(H).max(axis=(1, 2)) > 0.1)
        # value and gradient are continuous across the circle
        assert np.allclose(a.value(circle), w.value(circle), atol=1e-14)
        assert np.allclose(a.gradient(circle), w.gradient(circle), atol=1e-12)
        _fd_check(a, circle)

    def test_core_coefficients_gate(self):
        with pytest.raises(ValidationError):
            CoreCoefficients.for_annulus(0.5, 0.3)

    def test_limit_field(self, elastic):
        lim = DislocationLimitAiry(elastic=elastic, burgers_b=(0.0, 1.0), radius_R=1.0)
        _fd_check(lim, SAMPLE)
        # outside the core the regularized field approaches the limit field
        errs = []
        for eps in (0.1, 0.01):
            w = DislocationCoreAiry(
                elastic=elastic, burgers_b=(0.0, 1.0), eps=eps, radius_R=1.0
            )
            errs.append(np.max(np.abs(w.value(SAMPLE) - lim.value(SAMPLE))))
        assert errs[1] < 0.1 * errs[0]


class TestCombinators:
    def test_sum_scale_shift(self, elastic):
        f = FundamentalAiry(elastic)
        combo = SumField((ScaledField(2.0, f), ShiftedField((0.1, 0.0), f)))
        expect = 2.0 * f.value(SAMPLE) + f.value(SAMPLE - np.array([0.1, 0.0]))
        assert np.allclose(combo.value(SAMPLE), expect, atol=1e-15)
        _fd_check(combo, SAMPLE)

    def test_poly(self):
        p = Poly2D(coeffs=((0, 0, 1.0), (2, 0, 0.5), (1, 1, -0.25)))
        _fd_check(p, SAMPLE)


_EL = ElasticConstants(1.0, 0.3)
# fields whose constants are built once per instance, each with
# replacements of the fields those constants read
CACHED = [
    (DislocationCoreAiry(_EL, (0.3, -0.4), 0.1, 1.0, (0.2, 0.1)),
     [{"burgers_b": (0.0, 1.0)}, {"site": (-0.3, 0.2)}, {"eps": 0.05},
      {"annulus_branch": True}]),
    (DislocationLimitAiry(_EL, (0.3, -0.4), 1.0, (0.2, 0.1)),
     [{"burgers_b": (0.0, 1.0)}, {"site": (-0.3, 0.2)}]),
    (DipoleDerivativeAiry(_EL, (0.3, -0.4), (0.2, 0.1)),
     [{"burgers_b": (0.0, 1.0)}, {"site": (-0.3, 0.2)}]),
    (DipoleAiry(_EL, (0.3, -0.4), 0.02, (0.2, 0.1)),
     [{"burgers_b": (0.0, 1.0)}, {"center": (-0.3, 0.2)}]),
]
CACHED_IDS = ["core", "limit", "derivative", "dipole"]
# points off every site, some inside the cores of radius 0.1
CACHED_POINTS = np.vstack([SAMPLE, [[0.25, 0.12], [-0.27, 0.18], [0.5, -0.5]]])


def _evaluations(field):
    methods = ("value", "gradient", "hessian", "laplacian", "grad_laplacian")
    return [getattr(field, m)(CACHED_POINTS) for m in methods if hasattr(field, m)]


def _fresh(field, **changes):
    return type(field)(**{**{f.name: getattr(field, f.name) for f in fields(field)},
                          **changes})


class TestCachedConstants:
    @pytest.mark.parametrize("field, changes", CACHED, ids=CACHED_IDS)
    def test_replace_after_evaluation_matches_a_fresh_field(self, field,
                                                            changes):
        before = _evaluations(field)
        for change in changes:
            moved = replace(field, **change)
            after = _evaluations(moved)
            assert all(np.array_equal(a, b) for a, b in
                       zip(after, _evaluations(_fresh(field, **change))))
            assert not all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("field, changes", CACHED, ids=CACHED_IDS)
    def test_equality_and_hash_ignore_evaluation(self, field, changes):
        fresh = _fresh(field)
        key, text = hash(fresh), repr(fresh)
        _evaluations(fresh)
        assert fresh == _fresh(field) and hash(fresh) == key == hash(_fresh(field))
        assert repr(fresh) == text
        assert len({fresh, _fresh(field)}) == 1

    @pytest.mark.parametrize("field", [f for f, _ in CACHED] + [
        FundamentalAiry(_EL),
        SumField(tuple(f for f, _ in CACHED)),
    ], ids=CACHED_IDS + ["fundamental", "sum"])
    def test_fused_evaluations_match_the_separate_calls(self, field):
        value = field.value(CACHED_POINTS)
        for second in ("gradient", "hessian"):
            got = field.derivatives(CACHED_POINTS, ("value", second))
            assert np.array_equal(got[0], value)
            assert np.array_equal(got[1], getattr(field, second)(CACHED_POINTS))


_OBLIQUE, _SITE = (0.3, -0.4), (0.2, 0.1)
KERNEL_FIELDS = [
    FundamentalAiry(_EL),
    SingleDisclinationClamped(_EL, 1.7, 0.8, _SITE),
    DipoleDerivativeAiry(_EL, _OBLIQUE, _SITE),
    DislocationCoreAiry(_EL, _OBLIQUE, 0.1, 1.7, _SITE),
    DislocationLimitAiry(_EL, _OBLIQUE, 1.7, _SITE),
]
KERNEL_IDS = ["fundamental", "single", "derivative", "core", "limit"]
nan = math.nan
# each closed form at its own singular site: value, gradient, Hessian
SINGULAR_SITES = [
    (FundamentalAiry(_EL), (0.0, 0.0),
     0.0, [0.0, 0.0], [[nan, nan], [nan, nan]]),
    (SingleDisclinationClamped(_EL, 1.7, 0.8, _SITE), _SITE,
     -0.05054481159731621, [-0.0, -0.0], [[nan, nan], [nan, nan]]),
    (DipoleDerivativeAiry(_EL, _OBLIQUE, _SITE), _SITE,
     0.0, [nan, nan], [[nan, nan], [nan, nan]]),
    (DislocationCoreAiry(_EL, _OBLIQUE, 0.1, 1.7, _SITE), _SITE,
     -0.0, [0.06436540346060564, 0.04827405259545422], [[0.0, 0.0], [0.0, 0.0]]),
    (DislocationCoreAiry(_EL, _OBLIQUE, 0.1, 1.7, _SITE, True), _SITE,
     -0.0, [nan, nan], [[nan, nan], [nan, nan]]),
    (DislocationLimitAiry(_EL, _OBLIQUE, 1.7, _SITE), _SITE,
     0.0, [nan, nan], [[nan, nan], [nan, nan]]),
]


class TestKernels:
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_derivatives_match_differences(self, field):
        _fd_check(field, SAMPLE)
        _grad_laplacian_fd_check(field, SAMPLE)

    @pytest.mark.parametrize("field, site, value, gradient, hessian", SINGULAR_SITES,
                             ids=KERNEL_IDS[:4] + ["annulus", "limit"])
    def test_singular_site(self, field, site, value, gradient, hessian):
        p = np.array([site])
        with np.errstate(all="ignore"):
            got = field.value(p)[0], field.gradient(p)[0], field.hessian(p)[0]
        for g, want in zip(got, (value, gradient, hessian)):
            np.testing.assert_allclose(g, want, rtol=1e-15, atol=0.0)


def _negated(field):
    """``field`` with its prefactor C negated, which no elastic constants
    give: the zeroed core rows of its Hessian become -0.0."""
    C, *rest = field._profile
    field.__dict__["_profile"] = (-C, *rest)
    return field


# frame fields and whether their Hessians at FRAME_POINTS hold a -0.0
FRAME_FIELDS = [
    (DislocationCoreAiry(_EL, _OBLIQUE, 0.1, 1.7, _SITE), False),
    (_negated(DislocationCoreAiry(_EL, _OBLIQUE, 0.1, 1.7, _SITE)), True),
    (DislocationLimitAiry(_EL, _OBLIQUE, 1.7, _SITE), False),
    (DipoleDerivativeAiry(_EL, _OBLIQUE, _SITE), False),
]
# points across the disk, points in and around the core ball of radius
# 0.1 at _SITE, and the site itself
_rng = np.random.default_rng(11)
FRAME_POINTS = np.concatenate([_rng.uniform(-1.0, 1.0, (300, 2)),
                               _SITE + _rng.uniform(-0.12, 0.12, (300, 2)), [_SITE]])


class TestFrameHessianBits:
    @pytest.mark.parametrize("field, negative_zeros", FRAME_FIELDS,
                             ids=["core", "core-negated", "limit", "derivative"])
    def test_hessian_matches_the_reference_bit_for_bit(self, field,
                                                       negative_zeros):
        # every bit, the sign of each zero and nan included
        with np.errstate(all="ignore"):
            got = field.hessian(FRAME_POINTS)
            want = field_reference.frame_hessian(field, FRAME_POINTS)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.signbit(got[got == 0.0]).any() == negative_zeros


class TestWrappers:
    """One point or a few through the field classes, as the module-level
    wrapper functions (now removed) took them."""

    def test_scalar_and_array_forms(self, elastic):
        x = (0.3, 0.2)
        arr = np.array([x, (0.1, -0.4)])
        fund = FundamentalAiry(elastic)
        assert fund.value(x).shape == (1,)
        assert fund.value(arr).shape == (2,)
        assert fund.value(x)[0] == fund.value(arr)[0]
        ref = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        assert ref.hessian(x).shape == (1, 2, 2)
        assert np.array_equal(ref.hessian(x)[0], ref.hessian(arr)[0])

    def test_domain_gates(self, elastic):
        with pytest.raises(ValidationError):
            FundamentalAiry(elastic).value(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            SingleDisclinationClamped(elastic=elastic, radius_R=0.0, charge_s=1.0)
        with pytest.raises(ValidationError):
            DipoleAiry(elastic=elastic, burgers_b=(0.0, 1.0), spacing_h=0.0)
        with pytest.raises(ValidationError):
            DipoleDerivativeAiry(elastic=elastic, burgers_b=(0.0, 0.0)).value((0.3, 0.1))

    def test_dipole_wrapper_matches_class(self, elastic):
        # poles -+|b|/2 h Pi(b)/|b| about the centre carry charges +-|b|
        # of K |x|^2 log|x|^2 / (16 pi)
        b, h, c, x = np.array([0.6, -0.8]), 0.02, np.array([0.1, 0.2]), np.array([0.3, 0.1])
        axis = np.array([b[1], -b[0]])

        def fund(p):
            u = float(p @ p)
            return elastic.plane_prefactor * u * math.log(u) / (16.0 * math.pi)

        ref = -(fund(x - c - 0.5 * h * axis) - fund(x - c + 0.5 * h * axis))
        val = DipoleAiry(elastic=elastic, burgers_b=tuple(b), spacing_h=h,
                         center=tuple(c)).value(x)[0]
        assert val == pytest.approx(ref, rel=1e-13)

    def test_derivative_wrapper_triple(self, elastic):
        # the value, gradient and Hessian of the dipole at spacing h,
        # over h, tend to those of the limit field like h^2
        p = np.array([(0.3, 0.1)])
        limit = DipoleDerivativeAiry(elastic=elastic, burgers_b=(0.0, 1.0))
        for name in ("value", "gradient", "hessian"):
            ref = getattr(limit, name)(p)
            gaps = [np.abs(getattr(DipoleAiry(elastic=elastic, burgers_b=(0.0, 1.0),
                                              spacing_h=h), name)(p) / h - ref).max()
                    / np.abs(ref).max() for h in (1e-2, 5e-3)]
            assert gaps[0] < 1e-2 and 3.5 < gaps[0] / gaps[1] < 4.5

    def test_core_wrapper_matches_class(self, elastic):
        # a core at a site is the centred core at shifted points
        site = np.array([0.2, -0.1])
        pts = np.array([(0.3, 0.1), (0.25, -0.05), (-0.4, 0.5)])
        shifted, centred = (
            DislocationCoreAiry(elastic=elastic, burgers_b=(0.6, 0.8), eps=0.1,
                                radius_R=1.0, site=tuple(y))
            for y in (site, (0.0, 0.0)))
        assert np.allclose(shifted.value(pts), centred.value(pts - site),
                           rtol=1e-13, atol=0.0)


# every member, with its shape at one point
SHAPES = {"value": (), "gradient": (2,), "hessian": (2, 2), "laplacian": (),
          "grad_laplacian": (2,)}
MEMBERS = tuple(SHAPES)
_POLY = Poly2D(((0, 0, 0.7), (1, 0, -0.2), (2, 1, 0.5), (3, 0, 1.0), (1, 3, -0.3)))


def _every_field(b, site, eps, h):
    """The five closed forms (the cored one with and without its annulus
    branch), ``Poly2D`` and each combinator, by name. The sum moves the
    fundamental potential off the site, where the Laplacians of two
    radial fields of opposite signs would add -inf and inf."""
    kernels = {
        "fundamental": FundamentalAiry(_EL),
        "single": SingleDisclinationClamped(_EL, 1.7, 0.8, site),
        "derivative": DipoleDerivativeAiry(_EL, b, site),
        "core": DislocationCoreAiry(_EL, b, eps, 1.7, site),
        "annulus": DislocationCoreAiry(_EL, b, eps, 1.7, site, True),
        "limit": DislocationLimitAiry(_EL, b, 1.7, site),
    }
    return {**kernels, "poly": _POLY,
            "sum": SumField((ShiftedField((site[0] + 0.3, site[1]),
                                          kernels["fundamental"]),
                             *list(kernels.values())[1:])),
            "scaled": ScaledField(-1.3, kernels["core"]),
            "shifted": ShiftedField(site, kernels["fundamental"]),
            "dipole": DipoleAiry(_EL, b, h, site),
            "empty": SumField(())}


def _same(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# sha256 (first 16 hex digits) of the float.hex of value, gradient,
# Hessian, Laplacian and its gradient (no gradient of the Laplacian for
# Poly2D), first at the singular site (0.2, 0.1), then on the core circle
# of radius 0.1 about it at angle 0.7, recorded before ``derivatives``
# replaced the per-member methods
RECORDED = {
    "fundamental": "2931589131aecdf9",
    "single": "475dcb7628554519",
    "derivative": "cfc6f7ce5ddd7527",
    "core": "1705893450bd4681",
    "annulus": "9338d3e68748ce86",
    "limit": "b145ea0e01a9f66a",
    "poly": "8f867859a2e0317e",
    "sum": "7b1e21db00e238d9",
    "scaled": "268610de86431277",
    "shifted": "f819a25592f4fcf6",
    "dipole": "1055b628c6e46aae",
}


class TestOneEvaluation:
    """``derivatives`` gives every member with the bits of a request of
    that member alone, whatever else it is asked for."""

    @settings(max_examples=60, deadline=None)
    @given(angle=st.floats(0.0, 2.0 * math.pi),
           size=st.floats(0.1, 2.0),
           site=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           eps=st.floats(0.01, 0.5),
           h=st.floats(1e-3, 0.2),
           offsets=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
                                      st.floats(0.0, 2.0 * math.pi)),
                            min_size=1, max_size=6),
           names=st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=5,
                          unique=True))
    def test_any_request_matches_one_member_at_a_time(self, angle, size, site,
                                                      eps, h, offsets, names):
        # points at the site, on its core circle and about it (none within
        # 1e-3 of it but the site itself: nearer, the b / u^2 of g' overflows)
        b = (size * math.cos(angle), size * math.sin(angle))
        pts = np.array(site) + np.array(
            [[r * math.cos(t), r * math.sin(t)] for r, t in [*offsets, (eps, angle)]])
        for name, field in _every_field(b, site, eps, h).items():
            together = field.derivatives(pts, tuple(names))
            alone = [getattr(field, member)(pts) for member in names]
            assert len(together) == len(names)
            for member, got, want in zip(names, together, alone):
                assert got.shape == (len(pts),) + SHAPES[member]
                assert _same(got, want), (name, member)

    @pytest.mark.parametrize("name", list(RECORDED))
    def test_singular_site_and_core_circle_keep_their_bits(self, name):
        field = _every_field(_OBLIQUE, _SITE, 0.1, 0.02)[name]
        members = MEMBERS[:4] if name == "poly" else MEMBERS
        site = np.array([_SITE])
        circle = site + 0.1 * np.array([[math.cos(0.7), math.sin(0.7)]])
        text = []
        for p in (site, circle):
            for got in field.derivatives(p, members):
                text += [float(v).hex() for v in np.ravel(got)]
        digest = hashlib.sha256(" ".join(text).encode()).hexdigest()[:16]
        assert digest == RECORDED[name], " ".join(text)

    def test_empty_sum_is_zero_of_every_shape(self):
        got = SumField(()).derivatives(SAMPLE, MEMBERS)
        assert [g.shape for g in got] == [(4,) + SHAPES[m] for m in MEMBERS]
        assert not any(g.any() for g in got)

    def test_poly_grad_laplacian_matches_differences(self):
        _grad_laplacian_fd_check(_POLY, SAMPLE)


def _green_mp(x, y, R):
    """16 pi G_B at 40 digits, from the defining formula at exact inputs."""
    x1, x2, y1, y2, R = (mpmath.mpf(v) for v in (*x, *y, R))
    A = (R**2 - x1**2 - x2**2) * (R**2 - y1**2 - y2**2) / R**2
    d2 = (x1 - y1) ** 2 + (x2 - y2) ** 2
    return A if d2 == 0 else A - d2 * mpmath.log(1 + A / d2)


def _mixed_mp(x, y, a, c, R):
    """16 pi (a . grad_x)(c . grad_y) G_B at 40 digits."""
    point = [mpmath.mpf(v) for v in (*x, *y)]
    return sum(a[i] * c[j] * mpmath.diff(
        lambda *p: _green_mp(p[:2], p[2:], R), point,
        tuple(int(k in (i, 2 + j)) for k in range(4)))
        for i in range(2) for j in range(2))


def _green_pairs(R):
    """Point pairs in the disk of radius R about the origin: random ones,
    a point at 0.9999 R with a far one, and close pairs in the interior
    and at the circle. Near the circle the points lie on an axis, where
    |x| is exact; elsewhere the rounding of |x| alone moves 1 - |x|^2 by
    1e-12 of itself at 0.9999 R."""
    rng = np.random.default_rng(31)
    r, t = R * np.sqrt(rng.uniform(0.0, 1.0, (2, 6))), rng.uniform(0.0, 6.3, (2, 6))
    pairs = [(p, q) for p, q in zip(*(np.stack([r[k] * np.cos(t[k]),
                                                 r[k] * np.sin(t[k])], -1)
                                       for k in (0, 1)))]
    return pairs + [(np.array(p) * R, np.array(q) * R) for p, q in [
        ((0.9999, 0.0), (0.2, -0.3)), ((0.0, -0.9999), (0.0, 0.9)),
        ((0.9999, 0.0), (0.9998, 0.0)), ((0.3, 0.1), (0.300001, 0.1))]]


class TestClampedGreen:
    @pytest.mark.parametrize("R", [1.0, 1.5])
    def test_against_mpmath(self, R):
        # errors in units of the terms: R^2 / 16 pi for G_B, and
        # (1 + |log(|d|^2 / R^2)|) / 16 pi for the mixed derivative, whose
        # terms cancel to O(A) near the circle
        a, c = np.array([0.3, 1.0]), np.array([-0.7, 0.2])
        with mpmath.workdps(40):
            for x, y in _green_pairs(R):
                for p, q in ((x, y), (y, y)):
                    got = 16.0 * math.pi * clamped_green(p, q, R)[0]
                    assert abs(got - float(_green_mp(p, q, R))) <= 1e-15 * R**2
                scale = 1.0 + abs(math.log(float(np.sum((x - y) ** 2)) / R**2))
                got = 16.0 * math.pi * clamped_green_mixed(x, y, a, c, R)[0]
                assert abs(got - float(_mixed_mp(x, y, a, c, R))) <= 1e-13 * scale

    @pytest.mark.parametrize("R", [1.0, 1.5])
    def test_mixed_near_the_circle_at_roundoff(self, R):
        # on an axis, where |x| is exact, a value of order A at x within
        # 1e-4 R of the circle comes out to roundoff of itself: every term
        # carries the factor A
        a, c = np.array([0.3, 1.0]), np.array([-0.7, 0.2])
        with mpmath.workdps(40):
            for x, y in (((0.9999, 0.0), (0.2, -0.3)), ((0.0, 0.9999), (0.2, -0.3)),
                         ((0.0, -0.9999), (0.0, 0.9))):
                x, y = R * np.array(x), R * np.array(y)
                want = float(_mixed_mp(x, y, a, c, R))
                got = 16.0 * math.pi * clamped_green_mixed(x, y, a, c, R)[0]
                assert abs(got - want) <= 1e-15 * abs(want)

    def test_symmetric_in_the_points(self, rng):
        x, y = (rng.uniform(-0.7, 0.7, (20, 2)) for _ in range(2))
        a, c = rng.normal(size=(2, 20, 2))
        np.testing.assert_allclose(clamped_green(x, y, 1.5), clamped_green(y, x, 1.5),
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(clamped_green_mixed(x, y, a, c, 1.5),
                                   clamped_green_mixed(y, x, c, a, 1.5),
                                   rtol=1e-12, atol=1e-15)

    def test_clamped_on_the_circle(self):
        # G_B(., y) vanishes on the circle with its normal derivative, and
        # so does every y-derivative of both: the mixed derivative is zero
        # there along any direction of x
        R, y = 1.5, np.array([[0.4, -0.3], [-1.2, 0.5]])
        t = np.linspace(0.0, 2.0 * math.pi, 7)
        on = np.repeat(R * np.stack([np.cos(t), np.sin(t)], -1), 2, axis=0)
        y = np.tile(y, (len(t), 1))
        assert np.abs(clamped_green(on, y, R)).max() < 1e-16
        for a in (on / R, np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            assert np.abs(clamped_green_mixed(on, y, a, (0.6, 0.8), R)).max() < 1e-15
        with mpmath.workdps(40):
            for angle, q in zip(t[:4], y[:4]):
                # d/dr of 16 pi G_B along the ray at the angle: zero at
                # r = R, of order one inside
                def ray(r):
                    return _green_mp((r * mpmath.cos(angle), r * mpmath.sin(angle)), q, R)

                assert abs(mpmath.diff(ray, R)) < 1e-30
                assert abs(mpmath.diff(ray, 0.9 * R)) > 1e-3

    def test_biharmonic_off_the_pole(self):
        # the 13-point stencil of the bilaplacian tends to zero at second
        # order away from y (the error falls by 4 per halving of h)
        R, y = 1.5, np.array([[0.4, -0.3]])
        stencil = [((0, 0), 20.0)] + [
            (o, w) for w, offsets in (
                (-8.0, [(1, 0), (-1, 0), (0, 1), (0, -1)]),
                (2.0, [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
                (1.0, [(2, 0), (-2, 0), (0, 2), (0, -2)])) for o in offsets]
        for x in ([0.9, 0.5], [-0.7, 0.2], [1.4, 0.0]):
            bilap = [sum(w * clamped_green(np.asarray(x) + h * np.asarray(o), y, R)[0]
                         for o, w in stencil) / h**4 for h in (2e-2, 1e-2)]
            assert abs(bilap[1]) < 1e-4
            assert abs(bilap[0]) > 3.5 * abs(bilap[1])


class TestConstitutiveMaps:
    def test_airy_to_stress_layout(self):
        H = np.array([[[1.0, 2.0], [2.0, 3.0]]])
        s = airy_to_stress(H)
        assert s[0, 0, 0] == 3.0  # sigma_11 = v_yy
        assert s[0, 0, 1] == -2.0  # sigma_12 = -v_xy
        assert s[0, 1, 1] == 1.0  # sigma_22 = v_xx

    def test_round_trip(self, elastic, rng):
        a = rng.standard_normal((50, 2, 2))
        sym = 0.5 * (a + np.swapaxes(a, -1, -2))
        back = strain_to_stress(stress_to_strain(sym, elastic), elastic)
        assert np.allclose(back, sym, atol=1e-13)
