"""Traction-free / affine-trace equivalence checks on the disk's circle.

A field is traction-free on the boundary circle when its Hessian
annihilates the tangent; equivalently its Dirichlet data (value, normal
derivative) agree with those of a single affine function. Both
characterizations are evaluated numerically here, at the equispaced
nodes of the circle (``fields.circle_nodes``), on any field that gives
its value, gradient and Hessian at points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ValidationError
from .fields import circle_nodes

# Node count range of a boundary check. The cap keeps the node arrays and
# the field evaluations on them a few tens of MB; its node spacing, 1e-4 R,
# still resolves a singular site at 0.999 R.
MIN_SAMPLES = 3
MAX_SAMPLES = 2**16


@dataclass(frozen=True)
class BoundaryCurve:
    """Equispaced nodes of a circle, node j at angle 2 pi j / n, with
    their unit tangents (counterclockwise) and outward unit normals."""

    positions: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray

    @classmethod
    def circle(cls, center=(0.0, 0.0), radius: float = 1.0,
               n_samples: int = 1024) -> "BoundaryCurve":
        if not (radius > 0.0):
            raise ValidationError(f"circle radius must be positive, got {radius}")
        if not MIN_SAMPLES <= n_samples <= MAX_SAMPLES:
            raise ValidationError(
                f"need {MIN_SAMPLES} to {MAX_SAMPLES} circle samples, "
                f"got {n_samples}")
        pos, nhat, _ = circle_nodes(center, radius, n_samples)
        tan = np.stack([-nhat[:, 1], nhat[:, 0]], axis=-1)
        return cls(positions=pos, tangents=tan, normals=nhat)


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
    ode_track_residual: float

    def to_dict(self) -> dict:
        return {
            "affine": list(self.coefficients),
            "trace_residual": self.trace_residual,
            "normal_residual": self.normal_residual,
            "ode_track_residual": self.ode_track_residual,
        }


def _tangential_ode_track(curve: BoundaryCurve, v_t: np.ndarray,
                          v_n: np.ndarray) -> float:
    """The rotation track of the (tangential, normal) derivative pair.

    For a traction-free field the pair z = v_t + i v_n satisfies
    z' = i z / R along the arc length of a circle of radius R, whose
    exact solution from the first node is z0 e^{i theta}; e^{i theta_j}
    is the outward normal at node j read as a complex number. Returns
    the track residual, the largest miss of the rotation against the
    sampled (v_t, v_n) at the nodes.
    """
    z0 = v_t[0] + 1j * v_n[0]
    z = z0 * (curve.normals[:, 0] + 1j * curve.normals[:, 1])
    track = max(np.abs(z.real - v_t).max(), np.abs(z.imag - v_n).max())
    return float(track)


def affine_trace_check(v, curve: BoundaryCurve) -> AffineTraceReport:
    """Best affine match of the Dirichlet data plus the rotation track.

    Fits a(x) = c0 + c1 x1 + c2 x2 jointly to the sampled values and
    normal derivatives and reports both misfits; additionally reports
    how far the derivative data miss the exact rotation that a
    traction-free field's data follow around the circle.
    """
    pos = curve.positions
    nrm = curve.normals
    vals, grads = v.derivatives(pos, ("value", "gradient"))
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
    track = _tangential_ode_track(curve, v_t, v_n)
    return AffineTraceReport(
        coefficients=(float(coef[0]), float(coef[1]), float(coef[2])),
        trace_residual=trace_res,
        normal_residual=normal_res,
        ode_track_residual=track,
    )
