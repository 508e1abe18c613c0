"""Traction-free / affine-trace equivalence checks on closed curves.

A field is traction-free on a curve when its Hessian annihilates the
tangent; equivalently its Dirichlet data (value, normal derivative)
agree with those of a single affine function. Both characterizations
are evaluated numerically here, on any field that gives its value,
gradient and Hessian at points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiskDomain, ValidationError

# RK4 steps of the tangential ODE track over one circuit
_ODE_STEPS = 1024


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed curve sampled at equispaced arc length.

    Stores positions, unit tangents and curvature per sample; the
    parametrization must be arc length (|gamma'| = 1).
    """

    arc_length: np.ndarray
    positions: np.ndarray
    tangents: np.ndarray
    curvature: np.ndarray
    length: float

    def __post_init__(self) -> None:
        t = np.asarray(self.tangents, dtype=float)
        speed = np.hypot(t[:, 0], t[:, 1])
        if np.any(np.abs(speed - 1.0) > 1e-10):
            raise ValidationError("curve parametrization is not arc length")
        p = np.asarray(self.positions, dtype=float)
        if p.shape[0] < 3:
            raise ValidationError("need at least 3 curve samples")

    @classmethod
    def circle(cls, center=(0.0, 0.0), radius: float = 1.0,
               n_samples: int = 1024) -> "BoundaryCurve":
        if not (radius > 0.0):
            raise ValidationError(f"circle radius must be positive, got {radius}")
        th = 2.0 * math.pi * np.arange(n_samples) / n_samples
        c = np.asarray(center, dtype=float)
        pos = c + radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
        tan = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        return cls(
            arc_length=radius * th,
            positions=pos,
            tangents=tan,
            curvature=np.full(n_samples, 1.0 / radius),
            length=2.0 * math.pi * radius,
        )

    @classmethod
    def for_domain(cls, domain: DiskDomain, n_samples: int = 1024,
                   ) -> "BoundaryCurve":
        return cls.circle(domain.center, domain.radius_R, n_samples)

    def normals(self) -> np.ndarray:
        """Outward normals (tangent rotated -90 degrees)."""
        t = self.tangents
        return np.stack([t[:, 1], -t[:, 0]], axis=-1)


def tangential_hessian_residual(v, curve: BoundaryCurve) -> float:
    """max over curve samples of |hess(v) . tangent|.

    Zero certifies the zero-traction boundary condition in the discrete
    sense.
    """
    H = v.hessian(curve.positions)
    Ht = np.einsum("nij,nj->ni", H, curve.tangents)
    return float(np.hypot(Ht[:, 0], Ht[:, 1]).max())


@dataclass(frozen=True)
class AffineTraceReport:
    """Joint affine fit to the Dirichlet data of a field on a curve."""

    coefficients: tuple[float, float, float]
    trace_residual: float
    normal_residual: float
    ode_closure_defect: float
    ode_track_residual: float

    def to_dict(self) -> dict:
        return {
            "affine": list(self.coefficients),
            "trace_residual": self.trace_residual,
            "normal_residual": self.normal_residual,
            "ode_closure_defect": self.ode_closure_defect,
            "ode_track_residual": self.ode_track_residual,
        }


def _tangential_ode_track(curve: BoundaryCurve, v_t: np.ndarray,
                          v_n: np.ndarray) -> tuple[float, float]:
    """Integrate the curvature-rotation system along the curve.

    For a traction-free field the pair z = (tangential, normal)
    derivative satisfies z' = kappa (-z2, z1) along arc length. The
    integrated solution started from the sampled initial data is
    compared with the sampled data everywhere (track residual) and with
    its own start after one circuit (closure defect). Integration is
    classical 4th-order one-step with ``_ODE_STEPS`` steps.

    With z = z1 + i z2 the system reads z' = i kappa z, so one RK4 step
    multiplies z by 1 + h/6 (a1 + 2 a2 + 2 a3 + a4), where
    a1 = i kappa(s), a2 = i kappa(s + h/2) (1 + h a1/2),
    a3 = i kappa(s + h/2) (1 + h a2/2), a4 = i kappa(s + h) (1 + h a3):
    the trajectory is the cumulative product of these factors.
    """
    L = curve.length
    h = L / _ODE_STEPS
    s = h * np.arange(_ODE_STEPS + 1)

    def interp(x, data):
        return np.interp(np.mod(x, L), curve.arc_length, data, period=L)

    ik = 1j * interp(np.concatenate([s, s[:-1] + 0.5 * h]), curve.curvature)
    k_start, k_end, k_mid = ik[:_ODE_STEPS], ik[1:_ODE_STEPS + 1], ik[_ODE_STEPS + 1:]
    a2 = k_mid * (1.0 + 0.5 * h * k_start)
    a3 = k_mid * (1.0 + 0.5 * h * a2)
    a4 = k_end * (1.0 + h * a3)
    z0 = v_t[0] + 1j * v_n[0]
    z = z0 * np.cumprod(1.0 + h / 6.0 * (k_start + 2.0 * a2 + 2.0 * a3 + a4))
    track = max(np.abs(z.real - interp(s[1:], v_t)).max(),
                np.abs(z.imag - interp(s[1:], v_n)).max())
    return float(abs(z[-1] - z0)), float(track)


def affine_trace_check(v, curve: BoundaryCurve) -> AffineTraceReport:
    """Best affine match of the Dirichlet data plus the ODE closure test.

    Fits a(x) = c0 + c1 x1 + c2 x2 jointly to the sampled values and
    normal derivatives and reports both misfits; additionally integrates
    the tangential curvature-rotation system from the data and reports
    how far it fails to close after one circuit.
    """
    pos = curve.positions
    nrm = curve.normals()
    vals = v.value(pos)
    grads = v.gradient(pos)
    v_n = (grads * nrm).sum(axis=-1)
    v_t = (grads * curve.tangents).sum(axis=-1)

    m = pos.shape[0]
    A = np.zeros((2 * m, 3))
    A[:m, 0] = 1.0
    A[:m, 1] = pos[:, 0]
    A[:m, 2] = pos[:, 1]
    A[m:, 1] = nrm[:, 0]
    A[m:, 2] = nrm[:, 1]
    y = np.concatenate([vals, v_n])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    trace_res = float(np.abs(fit[:m] - vals).max())
    normal_res = float(np.abs(fit[m:] - v_n).max())
    closure, track = _tangential_ode_track(curve, v_t, v_n)
    return AffineTraceReport(
        coefficients=(float(coef[0]), float(coef[1]), float(coef[2])),
        trace_residual=trace_res,
        normal_residual=normal_res,
        ode_closure_defect=closure,
        ode_track_residual=track,
    )
