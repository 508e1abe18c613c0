"""Closed-form Airy potentials for disk-domain defects.

Every field exposes vectorized ``value``, ``gradient`` and ``hessian``
over (N, 2) point arrays; fields that need them also provide
``laplacian`` and ``grad_laplacian``. ``value_and_gradient`` and
``value_and_hessian`` give two of them at the same points, which the
dislocation and dipole-limit fields map to their canonical frame once.
All potentials carry the common prefactor K = E / (1 - nu^2).

What does not depend on the points (K, |b|, the frame, the core
coefficients) is computed once per field, on first use, and kept in the
instance: fields are frozen, so equality, hashing and
``dataclasses.replace`` still see only their declared fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    ElasticConstants,
    ValidationError,
    rotate_burgers,
)


def _pts(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 1:
        p = p.reshape(1, 2)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValidationError(f"expected (N, 2) points, got shape {p.shape}")
    return p


class AiryField:
    """Protocol base: value/gradient/hessian plus sampling sugar."""

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray:
        return self.value(x)

    def laplacian(self, x) -> np.ndarray:
        H = self.hessian(x)
        return H[:, 0, 0] + H[:, 1, 1]

    def value_and_gradient(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``(value(x), gradient(x))``; frame fields share one frame
        transform between the two."""
        return self.value(x), self.gradient(x)

    def value_and_hessian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``(value(x), hessian(x))``, as ``value_and_gradient``."""
        return self.value(x), self.hessian(x)


@dataclass(frozen=True)
class SumField(AiryField):
    """Pointwise sum of fields (superposition)."""

    terms: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def value(self, x):
        x = _pts(x)
        return sum(t.value(x) for t in self.terms)

    def gradient(self, x):
        x = _pts(x)
        return sum(t.gradient(x) for t in self.terms)

    def hessian(self, x):
        x = _pts(x)
        return sum(t.hessian(x) for t in self.terms)

    def laplacian(self, x):
        x = _pts(x)
        return sum(t.laplacian(x) for t in self.terms)

    def grad_laplacian(self, x):
        x = _pts(x)
        return sum(t.grad_laplacian(x) for t in self.terms)

    def value_and_gradient(self, x):
        x = _pts(x)
        parts = [t.value_and_gradient(x) for t in self.terms]
        return sum(v for v, _ in parts), sum(g for _, g in parts)

    def value_and_hessian(self, x):
        x = _pts(x)
        parts = [t.value_and_hessian(x) for t in self.terms]
        return sum(v for v, _ in parts), sum(H for _, H in parts)


@dataclass(frozen=True)
class ScaledField(AiryField):
    factor: float
    base: AiryField

    def value(self, x):
        return self.factor * self.base.value(x)

    def gradient(self, x):
        return self.factor * self.base.gradient(x)

    def hessian(self, x):
        return self.factor * self.base.hessian(x)

    def laplacian(self, x):
        return self.factor * self.base.laplacian(x)

    def grad_laplacian(self, x):
        return self.factor * self.base.grad_laplacian(x)


@dataclass(frozen=True)
class ShiftedField(AiryField):
    """base evaluated at x - shift."""

    shift: tuple[float, float]
    base: AiryField

    def _rel(self, x):
        return _pts(x) - np.asarray(self.shift, dtype=float)

    def value(self, x):
        return self.base.value(self._rel(x))

    def gradient(self, x):
        return self.base.gradient(self._rel(x))

    def hessian(self, x):
        return self.base.hessian(self._rel(x))

    def laplacian(self, x):
        return self.base.laplacian(self._rel(x))

    def grad_laplacian(self, x):
        return self.base.grad_laplacian(self._rel(x))


@dataclass(frozen=True)
class Poly2D(AiryField):
    """Polynomial sum c_{ij} x^i y^j from a {(i, j): c} coefficient map."""

    coeffs: tuple

    @classmethod
    def from_dict(cls, d: dict) -> "Poly2D":
        return cls(tuple(sorted((int(i), int(j), float(c)) for (i, j), c in d.items())))

    def value(self, x):
        p = _pts(x)
        out = np.zeros(p.shape[0])
        for i, j, c in self.coeffs:
            out += c * p[:, 0] ** i * p[:, 1] ** j
        return out

    def gradient(self, x):
        p = _pts(x)
        g = np.zeros_like(p)
        for i, j, c in self.coeffs:
            if i > 0:
                g[:, 0] += c * i * p[:, 0] ** (i - 1) * p[:, 1] ** j
            if j > 0:
                g[:, 1] += c * j * p[:, 0] ** i * p[:, 1] ** (j - 1)
        return g

    def hessian(self, x):
        p = _pts(x)
        H = np.zeros((p.shape[0], 2, 2))
        for i, j, c in self.coeffs:
            if i > 1:
                H[:, 0, 0] += c * i * (i - 1) * p[:, 0] ** (i - 2) * p[:, 1] ** j
            if j > 1:
                H[:, 1, 1] += c * j * (j - 1) * p[:, 0] ** i * p[:, 1] ** (j - 2)
            if i > 0 and j > 0:
                H[:, 0, 1] += c * i * j * p[:, 0] ** (i - 1) * p[:, 1] ** (j - 1)
        H[:, 1, 0] = H[:, 0, 1]
        return H


# ---------------------------------------------------------------------------
# fundamental potential of the plane bilaplacian with elastic prefactor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalAiry(AiryField):
    """K |x|^2 log|x|^2 / (16 pi): unit point source of the scaled
    bilaplacian ((1 - nu^2)/E) Delta^2, normalized to vanish at 0."""

    elastic: ElasticConstants

    @cached_property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    def value(self, x):
        p = _pts(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u > 0.0, u * np.log(np.where(u > 0.0, u, 1.0)), 0.0)
        return self.K / (16.0 * math.pi) * out

    def gradient(self, x):
        p = _pts(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        with np.errstate(divide="ignore"):
            f = np.log(u) + 1.0
        return self.K / (8.0 * math.pi) * f[:, None] * p

    def hessian(self, x):
        p = _pts(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.log(u) + 1.0
            H = 2.0 * p[:, :, None] * p[:, None, :] / u[:, None, None]
        H[:, 0, 0] += f
        H[:, 1, 1] += f
        return self.K / (8.0 * math.pi) * H

    def laplacian(self, x):
        p = _pts(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        with np.errstate(divide="ignore"):
            return self.K / (4.0 * math.pi) * (np.log(u) + 2.0)

    def grad_laplacian(self, x):
        p = _pts(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.K / (2.0 * math.pi) * p / u[:, None]


# ---------------------------------------------------------------------------
# single clamped disclination on a centered disk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleDisclinationClamped(AiryField):
    """Minimizer for one disclination of charge s at the center of B_R,
    clamped on the boundary.

    v(x) = -(s K / 16 pi) (r^2 log r^2 + R^2 - r^2 (1 + log R^2)); both
    traces vanish on r = R, and the total energy is s^2 K R^2 / (32 pi).
    """

    elastic: ElasticConstants
    radius_R: float
    charge_s: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (self.radius_R > 0.0):
            raise ValidationError(f"radius must be positive, got {self.radius_R}")

    @cached_property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    def _rel(self, x):
        return _pts(x) - np.asarray(self.center, dtype=float)

    def value(self, x):
        p = self._rel(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        R2 = self.radius_R**2
        with np.errstate(divide="ignore", invalid="ignore"):
            core = np.where(u > 0.0, u * np.log(np.where(u > 0.0, u, 1.0)), 0.0)
        return (
            -self.charge_s
            * self.K
            / (16.0 * math.pi)
            * (core + R2 - u * (1.0 + math.log(R2)))
        )

    def gradient(self, x):
        p = self._rel(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        R2 = self.radius_R**2
        # radial derivative of the bracket is 2 r log(r^2/R^2)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(u > 0.0, np.log(np.where(u > 0.0, u, 1.0) / R2), 0.0)
        return -self.charge_s * self.K / (8.0 * math.pi) * f[:, None] * p

    def hessian(self, x):
        p = self._rel(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        R2 = self.radius_R**2
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.log(u / R2)
            H = 2.0 * p[:, :, None] * p[:, None, :] / u[:, None, None]
        H[:, 0, 0] += f
        H[:, 1, 1] += f
        return -self.charge_s * self.K / (8.0 * math.pi) * H

    def laplacian(self, x):
        p = self._rel(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        R2 = self.radius_R**2
        with np.errstate(divide="ignore"):
            return -self.charge_s * self.K / (4.0 * math.pi) * (np.log(u / R2) + 1.0)

    def grad_laplacian(self, x):
        p = self._rel(x)
        u = p[:, 0] ** 2 + p[:, 1] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return -self.charge_s * self.K / (2.0 * math.pi) * p / u[:, None]

    def min_energy(self) -> float:
        """Energy of the minimizer, s^2 K R^2 / (32 pi)."""
        return self.charge_s**2 * self.K * self.radius_R**2 / (32.0 * math.pi)


# ---------------------------------------------------------------------------
# disclination dipole and its h -> 0 derivative field
# ---------------------------------------------------------------------------


def dipole_frame(b) -> np.ndarray:
    """Rows of the rotation Q mapping lab to canonical dipole/dislocation
    coordinates: xi_1 along Pi(b)/|b|, xi_2 along b/|b|."""
    b = np.asarray(b, dtype=float)
    nb = float(np.hypot(b[0], b[1]))
    if nb == 0.0:
        raise ValidationError("Burgers vector must be nonzero")
    return np.stack([rotate_burgers(b) / nb, b / nb])


@dataclass(frozen=True)
class DipoleAiry(AiryField):
    """Plane potential of a +-s disclination pair split by h along
    Pi(b)/|b|: the difference of two fundamental potentials."""

    elastic: ElasticConstants
    burgers_b: tuple[float, float]
    spacing_h: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (self.spacing_h > 0.0):
            raise ValidationError(f"spacing must be positive, got {self.spacing_h}")

    @cached_property
    def _parts(self):
        b = np.asarray(self.burgers_b, dtype=float)
        s = float(np.hypot(b[0], b[1]))
        axis = rotate_burgers(b) / s
        c = np.asarray(self.center, dtype=float)
        fund = FundamentalAiry(self.elastic)
        plus = ShiftedField(tuple(c + 0.5 * self.spacing_h * axis), fund)
        minus = ShiftedField(tuple(c - 0.5 * self.spacing_h * axis), fund)
        return s, plus, minus

    def value(self, x):
        s, plus, minus = self._parts
        return -s * (plus.value(x) - minus.value(x))

    def gradient(self, x):
        s, plus, minus = self._parts
        return -s * (plus.gradient(x) - minus.gradient(x))

    def hessian(self, x):
        s, plus, minus = self._parts
        return -s * (plus.hessian(x) - minus.hessian(x))

    def laplacian(self, x):
        s, plus, minus = self._parts
        return -s * (plus.laplacian(x) - minus.laplacian(x))

    def grad_laplacian(self, x):
        s, plus, minus = self._parts
        return -s * (plus.grad_laplacian(x) - minus.grad_laplacian(x))


def _radial_hessian(xi, d1, d2) -> np.ndarray:
    """Rows H_11, H_12, H_21, H_22 of the Hessian of f(u) xi_1, u =
    |xi|^2, from d1 = f'(u) and d2 = f''(u): 4 f'' xi_i xi_j xi_1 +
    2 f' (xi_1 delta_ij + delta_i1 xi_j + xi_i delta_j1). H_12 and H_21
    round differently."""
    e1, e2 = 2.0 * d1 * xi
    H = 4.0 * d2 * xi[[0, 0, 1, 1]] * xi[[0, 1, 0, 1]] * xi[0]
    H += (e1 + 2.0 * e1, e2, e2, e1)
    return H


class _FrameField(AiryField):
    """Mixin: canonical-frame field composed with xi = Q (x - site).

    The frame (Q, site) is built once per instance from the fields
    ``burgers_b`` and ``site``. The canonical kernels take xi as a (2, N)
    array, whose rows xi_1 and xi_2 are contiguous; ``_c_hessian``
    returns the rows H_11, H_12, H_21, H_22 of a (4, N) array.
    """

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        Q, site = dipole_frame(self.burgers_b), np.array(self.site, dtype=float)
        Q.flags.writeable = site.flags.writeable = False
        return Q, site

    @cached_property
    def _rotation(self) -> tuple[np.ndarray, np.ndarray]:
        """The factors Q[a, i] and Q[b, j] of the terms Q[a, i] H_ab
        Q[b, j] of (Q^T H Q)_ij, ab running over 11, 12, 21, 22 as the
        rows of ``_c_hessian`` do, shaped to broadcast as [i, ab, n] and
        [i, j, ab, n]."""
        Q = self._frame[0]
        return Q[[0, 0, 1, 1]].T[:, :, None], Q[[0, 1, 0, 1]].T[None, :, :, None]

    def _c_value(self, xi):
        raise NotImplementedError

    def _c_gradient(self, xi):
        raise NotImplementedError

    def _c_hessian(self, xi):
        raise NotImplementedError

    def _xi(self, x) -> np.ndarray:
        """xi as Q (x - site)^T, the transpose of (x - site) Q^T."""
        Q, site = self._frame
        return Q @ (_pts(x) - site).T

    def _lab_hessian(self, H) -> np.ndarray:
        # Q^T H Q, each sum in the order and association of
        # np.einsum("ai,nab,bj->nij"), whose values it keeps bit for bit
        # at a small fraction of the cost
        left, right = self._rotation
        terms = (left * H)[:, None] * right
        out = np.empty((H.shape[1], 2, 2))
        out.reshape(-1, 4).T[:] = (
            terms[:, :, 0] + terms[:, :, 1] + terms[:, :, 2] + terms[:, :, 3]
        ).reshape(4, -1)
        return out

    def value(self, x):
        return self._c_value(self._xi(x))

    def gradient(self, x):
        return self._c_gradient(self._xi(x)) @ self._frame[0]

    def hessian(self, x):
        return self._lab_hessian(self._c_hessian(self._xi(x)))

    def value_and_gradient(self, x):
        xi = self._xi(x)
        return self._c_value(xi), self._c_gradient(xi) @ self._frame[0]

    def value_and_hessian(self, x):
        xi = self._xi(x)
        return self._c_value(xi), self._lab_hessian(self._c_hessian(xi))


@dataclass(frozen=True)
class DipoleDerivativeAiry(_FrameField):
    """h -> 0 derivative of the dipole potential, exact derivatives.

    Canonical form (s K / 8 pi)(xi_1 log|xi|^2 + xi_1); composed with the
    frame (Pi(b)/|b|, b/|b|) anchored at the site. The Hessian has
    |.|^2 = K^2 s^2 / (8 pi^2 |xi|^2) pointwise.
    """

    elastic: ElasticConstants
    burgers_b: tuple[float, float]
    site: tuple[float, float] = (0.0, 0.0)

    @cached_property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    @cached_property
    def charge_s(self) -> float:
        return float(np.hypot(*self.burgers_b))

    def _c_value(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        c = self.K * self.charge_s / (8.0 * math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(u > 0.0, np.log(np.where(u > 0.0, u, 1.0)), 0.0)
        return c * (x1 * lg + x1)

    def _c_gradient(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        c = self.K * self.charge_s / (8.0 * math.pi)
        g = np.empty((len(x1), 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            g[:, 0] = c * (np.log(u) + 1.0 + 2.0 * x1**2 / u)
            g[:, 1] = c * (2.0 * x1 * x2 / u)
        return g

    def _c_hessian(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        c = self.K * self.charge_s / (4.0 * math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            h11 = c * (x1**3 + 3.0 * x1 * x2**2) / u**2
            h22 = c * (x1**3 - x1 * x2**2) / u**2
            h12 = c * (x2**3 - x1**2 * x2) / u**2
        return np.stack([h11, h12, h12, h22])


# ---------------------------------------------------------------------------
# core-regularized and limiting dislocation potentials on B_R
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreCoefficients:
    """Radial coefficients of the core-regularized annulus potential."""

    alpha: float
    beta: float
    gamma: float
    eps: float
    radius_R: float

    @classmethod
    def for_annulus(cls, eps: float, radius_R: float) -> "CoreCoefficients":
        if not (0.0 < eps < radius_R):
            raise ValidationError(
                f"need 0 < eps < R, got eps={eps}, R={radius_R}"
            )
        R2, e2 = radius_R**2, eps**2
        alpha = 2.0 * (R2 - e2) / (R2 + e2) - 2.0 * math.log(R2)
        beta = 2.0 * e2 * R2 / (R2 + e2)
        gamma = -2.0 / (R2 + e2)
        return cls(alpha=alpha, beta=beta, gamma=gamma, eps=eps, radius_R=radius_R)

    @cached_property
    def core_slope(self) -> float:
        """Coefficient of xi_1 inside the core: alpha + beta/eps^2 +
        gamma eps^2 + 4 log eps (the annulus profile frozen at r = eps)."""
        e2 = self.eps**2
        return self.alpha + self.beta / e2 + self.gamma * e2 + 4.0 * math.log(self.eps)


@dataclass(frozen=True)
class DislocationCoreAiry(_FrameField):
    """Core-regularized minimizer for one dislocation on a centered B_R:
    radial profile times xi_1 on the annulus, affine inside the core ball.

    Canonical form (|b| K / 16 pi) phi(r^2) xi_1 with
    phi(u) = alpha + beta/u + gamma u + 2 log u for eps <= r, and the
    constant phi(eps^2) for r < eps.

    With ``annulus_branch`` set, every method evaluates the annulus
    branch at every point but the site, on and inside the core circle
    too. Circle integrals over the core circle need that branch, the
    limit from the annulus side: on points of the circle the test
    r^2 < eps^2 rounds either way, and the Hessian jumps there.
    """

    elastic: ElasticConstants
    burgers_b: tuple[float, float]
    eps: float
    radius_R: float
    site: tuple[float, float] = (0.0, 0.0)
    annulus_branch: bool = False

    def __post_init__(self) -> None:
        self.coeffs  # builds eagerly to validate 0 < eps < R

    @cached_property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    @cached_property
    def coeffs(self) -> CoreCoefficients:
        return CoreCoefficients.for_annulus(self.eps, self.radius_R)

    @cached_property
    def magnitude(self) -> float:
        return float(np.hypot(*self.burgers_b))

    @cached_property
    def _c0(self) -> float:
        return self.magnitude * self.K / (16.0 * math.pi)

    @cached_property
    def _c3(self) -> float:
        """Prefactor of the Laplacian, (|b| K / 2 pi)."""
        return self.magnitude * self.K / (2.0 * math.pi)

    def _core(self, u):
        """Where the affine core branch applies, at squared radii ``u``."""
        if self.annulus_branch:
            return np.zeros(u.shape, dtype=bool)
        return u < self.eps**2

    def _phi(self, u):
        c = self.coeffs
        with np.errstate(divide="ignore", invalid="ignore"):
            return c.alpha + c.beta / u + c.gamma * u + 2.0 * np.log(u)

    def _c_value(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        core = self._core(u)
        phi = np.where(core, self.coeffs.core_slope, self._phi(np.where(u > 0, u, 1.0)))
        return self._c0 * phi * x1

    def _c_gradient(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        core = self._core(u)
        cc = self.coeffs
        safe = np.where(u > 0, u, 1.0)
        phi = self._phi(safe)
        dphi = -cc.beta / safe**2 + cc.gamma + 2.0 / safe
        g = np.empty((len(x1), 2))
        g[:, 0] = 2.0 * dphi * x1**2 + phi
        g[:, 1] = 2.0 * dphi * x1 * x2
        g[core, 0] = cc.core_slope
        g[core, 1] = 0.0
        return self._c0 * g

    def _c_hessian(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        core = self._core(u)
        cc = self.coeffs
        safe = np.where(u > 0, u, 1.0)
        dphi = -cc.beta / safe**2 + cc.gamma + 2.0 / safe
        d2phi = 2.0 * cc.beta / safe**3 - 2.0 / safe**2
        H = _radial_hessian(xi, dphi, d2phi)
        H[:, core] = 0.0
        return self._c0 * H

    def canonical_laplacian(self, u: np.ndarray) -> np.ndarray:
        """Laplacian over xi_1 at squared radius u (annulus branch):
        Delta W = (|b| K / 2 pi)(gamma + 1/u) xi_1, returned per unit xi_1."""
        return self._c3 * (self.coeffs.gamma + 1.0 / u)

    def laplacian(self, x):
        x1, x2 = self._xi(x)
        u = x1**2 + x2**2
        out = self.canonical_laplacian(np.where(u > 0, u, 1.0)) * x1
        out[self._core(u)] = 0.0
        return out

    def grad_laplacian(self, x):
        x1, x2 = self._xi(x)
        u = x1**2 + x2**2
        safe = np.where(u > 0, u, 1.0)
        g = np.empty((len(x1), 2))
        g[:, 0] = self.coeffs.gamma + 1.0 / safe - 2.0 * x1**2 / safe**2
        g[:, 1] = -2.0 * x1 * x2 / safe**2
        out = self._c3 * (g @ self._frame[0])
        out[self._core(u)] = 0.0
        return out


@dataclass(frozen=True)
class DislocationLimitAiry(_FrameField):
    """Zero-core limit potential of one dislocation on B_R, recentered
    at its site.

    Canonical form (|b| K / 8 pi) f(r^2) xi_1 with
    f(u) = (1 - log R^2) - u / R^2 + log u; biharmonic away from the
    site, and both clamped traces vanish on the centered circle r = R.
    """

    elastic: ElasticConstants
    burgers_b: tuple[float, float]
    radius_R: float
    site: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (self.radius_R > 0.0):
            raise ValidationError(f"radius must be positive, got {self.radius_R}")

    @cached_property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    @cached_property
    def magnitude(self) -> float:
        return float(np.hypot(*self.burgers_b))

    @cached_property
    def _c0(self) -> float:
        return self.magnitude * self.K / (8.0 * math.pi)

    def _f(self, u):
        R2 = self.radius_R**2
        with np.errstate(divide="ignore", invalid="ignore"):
            return (1.0 - math.log(R2)) - u / R2 + np.log(u)

    def _c_value(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        f = self._f(np.where(u > 0, u, 1.0))
        out = self._c0 * f * x1
        return np.where(u > 0.0, out, 0.0)

    def _c_gradient(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        safe = np.where(u > 0, u, 1.0)
        f = self._f(safe)
        df = -1.0 / self.radius_R**2 + 1.0 / safe
        g = np.empty((len(x1), 2))
        g[:, 0] = 2.0 * df * x1**2 + f
        g[:, 1] = 2.0 * df * x1 * x2
        return self._c0 * g

    def _c_hessian(self, xi):
        x1, x2 = xi
        u = x1**2 + x2**2
        safe = np.where(u > 0, u, 1.0)
        df = -1.0 / self.radius_R**2 + 1.0 / safe
        d2f = -1.0 / safe**2
        return self._c0 * _radial_hessian(xi, df, d2f)

    def laplacian(self, x):
        x1, x2 = self._xi(x)
        u = x1**2 + x2**2
        safe = np.where(u > 0, u, 1.0)
        return self._c0 * x1 * (4.0 / safe - 8.0 / self.radius_R**2)

    def grad_laplacian(self, x):
        x1, x2 = self._xi(x)
        u = x1**2 + x2**2
        safe = np.where(u > 0, u, 1.0)
        g = np.empty((len(x1), 2))
        g[:, 0] = 4.0 / safe - 8.0 / self.radius_R**2 - 8.0 * x1**2 / safe**2
        g[:, 1] = -8.0 * x1 * x2 / safe**2
        return self._c0 * (g @ self._frame[0])


# ---------------------------------------------------------------------------
# stress / strain maps
# ---------------------------------------------------------------------------


def airy_to_stress(hessian: np.ndarray) -> np.ndarray:
    """sigma = (v_yy, -v_xy; -v_xy, v_xx) from Airy Hessians (N, 2, 2)."""
    H = np.asarray(hessian, dtype=float)
    S = np.empty_like(H)
    S[..., 0, 0] = H[..., 1, 1]
    S[..., 1, 1] = H[..., 0, 0]
    S[..., 0, 1] = -H[..., 0, 1]
    S[..., 1, 0] = -H[..., 1, 0]
    return S


def stress_to_strain(stress: np.ndarray, elastic: ElasticConstants) -> np.ndarray:
    """Plane-strain inverse Hooke law applied componentwise."""
    S = np.asarray(stress, dtype=float)
    E, nu = elastic.young_E, elastic.poisson_nu
    pref = (1.0 + nu) / E
    eps = np.empty_like(S)
    eps[..., 0, 0] = pref * ((1.0 - nu) * S[..., 0, 0] - nu * S[..., 1, 1])
    eps[..., 1, 1] = pref * ((1.0 - nu) * S[..., 1, 1] - nu * S[..., 0, 0])
    eps[..., 0, 1] = pref * S[..., 0, 1]
    eps[..., 1, 0] = pref * S[..., 1, 0]
    return eps


def strain_to_stress(strain: np.ndarray, elastic: ElasticConstants) -> np.ndarray:
    """Hooke law sigma = lambda tr(eps) I + 2 mu eps."""
    e = np.asarray(strain, dtype=float)
    lam, mu = elastic.lame_lambda, elastic.lame_mu
    tr = e[..., 0, 0] + e[..., 1, 1]
    S = 2.0 * mu * e
    S[..., 0, 0] += lam * tr
    S[..., 1, 1] += lam * tr
    return S
