import math

import numpy as np
import pytest

from airy_defects.core import Disclination, ValidationError
from airy_defects.closedform import (
    DislocationCoreAiry,
    Poly2D,
    SingleDisclinationClamped,
)
from airy_defects.boundary import (
    AffineTraceReport,
    BoundaryCurve,
    _tangential_ode_track,
    affine_trace_check,
    tangential_hessian_residual,
)
from airy_defects.solver import solve_clamped_disclination

THRESHOLD = 1e-6


def _derivative_data(field, curve):
    """(tangential, normal) derivatives of a field at the curve samples."""
    grads = field.gradient(curve.positions)
    return ((grads * curve.tangents).sum(axis=-1),
            (grads * curve.normals).sum(axis=-1))


def _corpus(elastic):
    """Fields with known traction status on the unit circle."""
    free = [
        SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0),
        DislocationCoreAiry(
            elastic=elastic, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        ),
        Poly2D(coeffs=((0, 0, 0.7), (1, 0, -0.2), (0, 1, 0.5))),
    ]
    loaded = [
        Poly2D(coeffs=((2, 0, 1.0), (0, 2, 1.0))),  # |x|^2
        Poly2D(coeffs=((3, 0, 1.0),)),  # x_1^3
    ]
    return free, loaded


class TestBoundaryCurve:
    def test_circle_geometry(self):
        c = BoundaryCurve.circle((0.2, -0.1), 0.5, 256)
        rad = c.positions - np.array([0.2, -0.1])
        assert np.allclose(np.hypot(rad[:, 0], rad[:, 1]), 0.5, atol=1e-14)
        # outward normals point along the radius; tangents are the
        # normals turned counterclockwise by a quarter turn
        assert np.allclose((c.normals * rad).sum(axis=-1), 0.5, atol=1e-13)
        assert np.array_equal(c.tangents[:, 0], -c.normals[:, 1])
        assert np.array_equal(c.tangents[:, 1], c.normals[:, 0])

    def test_radius_gate(self):
        with pytest.raises(ValidationError):
            BoundaryCurve.circle(radius=0.0)


class TestClassificationEquivalence:
    def test_corpus_bidirectional(self, elastic):
        curve = BoundaryCurve.circle()
        free, loaded = _corpus(elastic)
        for field in free + loaded:
            tangential = tangential_hessian_residual(field, curve)
            report = affine_trace_check(field, curve)
            affine = max(report.trace_residual, report.normal_residual)
            assert (tangential < THRESHOLD) == (affine < THRESHOLD)
        for field in free:
            assert tangential_hessian_residual(field, curve) < THRESHOLD
        for field in loaded:
            assert tangential_hessian_residual(field, curve) > 0.1

    def test_isotropic_field_needs_normal_residual(self, elastic):
        # |x|^2 has a constant trace on the circle, which an affine fit
        # absorbs; only the normal derivative betrays the traction
        curve = BoundaryCurve.circle()
        report = affine_trace_check(Poly2D(coeffs=((2, 0, 1.0), (0, 2, 1.0))), curve)
        assert report.trace_residual < 1e-12
        assert report.normal_residual > 1.0
        assert report.ode_track_residual > 1.0


class TestAffineRecovery:
    def test_coefficients_and_ode_track(self):
        curve = BoundaryCurve.circle()
        field = Poly2D(coeffs=((0, 0, 0.7), (1, 0, -0.2), (0, 1, 0.5)))
        report = affine_trace_check(field, curve)
        assert report.coefficients == pytest.approx((0.7, -0.2, 0.5), abs=1e-12)
        assert report.trace_residual < 1e-12
        assert report.normal_residual < 1e-12
        assert report.ode_track_residual < 1e-9

    def test_rotation_system_oracle(self):
        # for a(x) = c1 x1 + c2 x2 on the unit circle the tangential and
        # normal derivatives are (-c1 sin + c2 cos, c1 cos + c2 sin)
        curve = BoundaryCurve.circle(n_samples=512)
        field = Poly2D(coeffs=((1, 0, 0.3), (0, 1, -0.8)))
        th = 2.0 * math.pi * np.arange(512) / 512
        grads = field.gradient(curve.positions)
        v_t = (grads * curve.tangents).sum(axis=-1)
        v_n = (grads * curve.normals).sum(axis=-1)
        assert np.allclose(v_t, -0.3 * np.sin(th) - 0.8 * np.cos(th), atol=1e-12)
        assert np.allclose(v_n, 0.3 * np.cos(th) - 0.8 * np.sin(th), atol=1e-12)

    def test_report_dict(self, elastic):
        report = affine_trace_check(
            Poly2D(coeffs=((0, 0, 1.0),)), BoundaryCurve.circle()
        )
        d = report.to_dict()
        for key in ("affine", "trace_residual", "normal_residual",
                    "ode_track_residual"):
            assert key in d


class TestOdeTrack:
    """The rotation track z0 e^{i theta} of the derivative pair."""

    def test_corpus_fields(self, elastic):
        # against the rotation written with the angles themselves
        curve = BoundaryCurve.circle(n_samples=512)
        th = 2.0 * math.pi * np.arange(512) / 512
        free, loaded = _corpus(elastic)
        for field in free + loaded:
            v_t, v_n = _derivative_data(field, curve)
            z = (v_t[0] + 1j * v_n[0]) * np.exp(1j * th)
            ref = max(np.abs(z.real - v_t).max(), np.abs(z.imag - v_n).max())
            track = _tangential_ode_track(curve, v_t, v_n)
            assert abs(track - ref) < 1e-14

    @pytest.mark.parametrize("n", [3, 7, 256])
    def test_affine_fields_at_roundoff(self, n):
        curve = BoundaryCurve.circle((0.2, -0.1), 0.5, n)
        for coeffs in (((0, 0, 0.7), (1, 0, -0.2), (0, 1, 0.5)),
                       ((1, 0, 0.3), (0, 1, -0.8))):
            report = affine_trace_check(Poly2D(coeffs=coeffs), curve)
            assert report.ode_track_residual < 1e-15
            assert report.trace_residual < 1e-14
            assert report.normal_residual < 1e-14

    def test_isotropic_track(self):
        # |x|^2 has (v_t, v_n) = (0, 2) on the unit circle; the rotation
        # from the first node reaches (0, -2) half-way round
        curve = BoundaryCurve.circle()
        field = Poly2D(coeffs=((2, 0, 1.0), (0, 2, 1.0)))
        track = _tangential_ode_track(curve, *_derivative_data(field, curve))
        assert track == pytest.approx(4.0, abs=1e-12)

    def test_cubic_track_is_order_one(self):
        curve = BoundaryCurve.circle()
        field = Poly2D(coeffs=((3, 0, 1.0),))
        track = _tangential_ode_track(curve, *_derivative_data(field, curve))
        assert 0.5 < track < 10.0


class TestGridFieldPath:
    def test_solver_output_is_traction_free_inside(self, elastic, unit_disk):
        report = solve_clamped_disclination(
            elastic, unit_disk, [Disclination((0.0, 0.0), 1.0)], n=128
        )
        # the solution's exact Hessian, inside and on the circle, where
        # the closed form is traction-free to roundoff
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        for radius in (0.9, 1.0):
            curve = BoundaryCurve.circle(radius=radius, n_samples=512)
            num = tangential_hessian_residual(report.solution, curve)
            ref = tangential_hessian_residual(v, curve)
            # 10 times the largest miss, 2.2e-15 at r = R
            assert abs(num - ref) < 2.2e-14
