import math

import numpy as np
import pytest

from grid_reference import SplineField

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


def _rk4_track_loop(curve, v_t, v_n, n_steps=1024):
    """Reference implementation of the ODE track: the step-by-step RK4
    loop on z' = kappa (-z2, z1), with scalar interpolation per stage.
    Returns (closure defect, track residual)."""
    s_grid = curve.arc_length
    L = curve.length

    def interp(s, data):
        return np.interp(np.mod(s, L), s_grid, data, period=L)

    def rhs(s, z):
        k = interp(s, curve.curvature)
        return np.array([-k * z[1], k * z[0]])

    z = np.array([v_t[0], v_n[0]])
    hstep = L / n_steps
    s = 0.0
    track = 0.0
    for _ in range(n_steps):
        k1 = rhs(s, z)
        k2 = rhs(s + 0.5 * hstep, z + 0.5 * hstep * k1)
        k3 = rhs(s + 0.5 * hstep, z + 0.5 * hstep * k2)
        k4 = rhs(s + hstep, z + hstep * k3)
        z = z + hstep / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += hstep
        track = max(track, abs(z[0] - interp(s, v_t)), abs(z[1] - interp(s, v_n)))
    return float(np.hypot(z[0] - v_t[0], z[1] - v_n[0])), float(track)


def _derivative_data(field, curve):
    """(tangential, normal) derivatives of a field at the curve samples."""
    grads = field.gradient(curve.positions)
    return ((grads * curve.tangents).sum(axis=-1),
            (grads * curve.normals()).sum(axis=-1))


def _varying_curvature_curve(m=1024):
    """Closed curve of length 2 pi with kappa(s) = 1 + 0.5 cos 2s.

    Its tangent angle is s + sin(2s) / 4, and the integral of
    exp(i(s + sin(2s) / 4)) over one period vanishes (no Bessel mode
    of e^{i sin(2s)/4} has frequency -1), so the curve closes. The ODE
    track reads only the tangents and curvature; the positions are a
    trapezoidal integral of the tangents.
    """
    s = 2.0 * math.pi * np.arange(m) / m
    theta = s + 0.25 * np.sin(2.0 * s)
    tangents = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    h = 2.0 * math.pi / m
    steps = 0.5 * h * (tangents + np.roll(tangents, -1, axis=0))
    positions = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)[:-1]])
    return BoundaryCurve(arc_length=s, positions=positions, tangents=tangents,
                         curvature=1.0 + 0.5 * np.cos(2.0 * s),
                         length=2.0 * math.pi)


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
        assert c.length == pytest.approx(math.pi)
        rad = c.positions - np.array([0.2, -0.1])
        assert np.allclose(np.hypot(rad[:, 0], rad[:, 1]), 0.5, atol=1e-14)
        # outward normals point along the radius
        n = c.normals()
        assert np.allclose((n * rad).sum(axis=-1), 0.5, atol=1e-13)

    def test_arc_length_gate(self):
        c = BoundaryCurve.circle()
        with pytest.raises(ValidationError):
            BoundaryCurve(
                arc_length=c.arc_length,
                positions=c.positions,
                tangents=2.0 * c.tangents,
                curvature=c.curvature,
                length=c.length,
            )

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
        assert report.ode_closure_defect < 1e-9
        assert report.ode_track_residual < 1e-9

    def test_rotation_system_oracle(self):
        # for a(x) = c1 x1 + c2 x2 on the unit circle the tangential and
        # normal derivatives are (-c1 sin + c2 cos, c1 cos + c2 sin)
        curve = BoundaryCurve.circle(n_samples=512)
        field = Poly2D(coeffs=((1, 0, 0.3), (0, 1, -0.8)))
        th = 2.0 * math.pi * np.arange(512) / 512
        grads = field.gradient(curve.positions)
        v_t = (grads * curve.tangents).sum(axis=-1)
        v_n = (grads * curve.normals()).sum(axis=-1)
        assert np.allclose(v_t, -0.3 * np.sin(th) - 0.8 * np.cos(th), atol=1e-12)
        assert np.allclose(v_n, 0.3 * np.cos(th) - 0.8 * np.sin(th), atol=1e-12)

    def test_report_dict(self, elastic):
        report = affine_trace_check(
            Poly2D(coeffs=((0, 0, 1.0),)), BoundaryCurve.circle()
        )
        d = report.to_dict()
        for key in ("affine", "trace_residual", "normal_residual",
                    "ode_closure_defect", "ode_track_residual"):
            assert key in d


class TestOdeTrack:
    """The vectorized RK4 track against the reference loop."""

    def _assert_matches_loop(self, curve, v_t, v_n):
        closure, track = _tangential_ode_track(curve, v_t, v_n)
        ref_closure, ref_track = _rk4_track_loop(curve, v_t, v_n)
        assert abs(closure - ref_closure) < 1e-13
        assert abs(track - ref_track) < 1e-13

    def test_corpus_fields(self, elastic):
        curve = BoundaryCurve.circle()
        free, loaded = _corpus(elastic)
        for field in free + loaded:
            self._assert_matches_loop(curve, *_derivative_data(field, curve))

    def test_varying_curvature(self):
        curve = _varying_curvature_curve()
        # the derivatives of an affine field solve the system exactly; what
        # the track leaves is the linear interpolation of the curvature
        # at the half steps, O(h^2) = 4e-5
        affine = Poly2D(coeffs=((1, 0, 0.3), (0, 1, -0.8)))
        v_t, v_n = _derivative_data(affine, curve)
        closure, track = _tangential_ode_track(curve, v_t, v_n)
        assert closure < 1e-9 and track < 1e-5
        self._assert_matches_loop(curve, v_t, v_n)
        # data off the system's solutions: an O(1) track residual
        s = curve.arc_length
        v_t, v_n = np.cos(3.0 * s), 0.5 + np.sin(s)
        assert _tangential_ode_track(curve, v_t, v_n)[1] > 0.1
        self._assert_matches_loop(curve, v_t, v_n)


class TestGridFieldPath:
    def test_solver_output_is_traction_free_inside(self, elastic, unit_disk):
        report = solve_clamped_disclination(
            elastic, unit_disk, [Disclination((0.0, 0.0), 1.0)], n=128
        )
        # check on an interior circle, where the bicubic view is clean
        curve = BoundaryCurve.circle(radius=0.9, n_samples=512)
        v = SingleDisclinationClamped(elastic=elastic, radius_R=1.0, charge_s=1.0)
        num = tangential_hessian_residual(SplineField(report.field), curve)
        ref = tangential_hessian_residual(v, curve)
        assert abs(num - ref) < 1e-2
