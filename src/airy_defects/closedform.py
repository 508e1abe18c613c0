"""Closed-form Airy potentials for disk-domain defects.

Every field exposes vectorized ``value``, ``gradient`` and ``hessian``
over (N, 2) point arrays; fields that need them also provide
``laplacian`` and ``grad_laplacian``. All potentials carry the common
prefactor K = E / (1 - nu^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
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

    @property
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
        s, plus, minus = self._parts()
        return -s * (plus.value(x) - minus.value(x))

    def gradient(self, x):
        s, plus, minus = self._parts()
        return -s * (plus.gradient(x) - minus.gradient(x))

    def hessian(self, x):
        s, plus, minus = self._parts()
        return -s * (plus.hessian(x) - minus.hessian(x))

    def laplacian(self, x):
        s, plus, minus = self._parts()
        return -s * (plus.laplacian(x) - minus.laplacian(x))

    def grad_laplacian(self, x):
        s, plus, minus = self._parts()
        return -s * (plus.grad_laplacian(x) - minus.grad_laplacian(x))


class _FrameField(AiryField):
    """Mixin: canonical-frame field composed with xi = Q (x - site)."""

    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _c_value(self, xi):
        raise NotImplementedError

    def _c_gradient(self, xi):
        raise NotImplementedError

    def _c_hessian(self, xi):
        raise NotImplementedError

    def value(self, x):
        Q, site = self._frame()
        xi = (_pts(x) - site) @ Q.T
        return self._c_value(xi)

    def gradient(self, x):
        Q, site = self._frame()
        xi = (_pts(x) - site) @ Q.T
        return self._c_gradient(xi) @ Q

    def hessian(self, x):
        Q, site = self._frame()
        xi = (_pts(x) - site) @ Q.T
        H = self._c_hessian(xi)
        # Q^T H Q componentwise, each sum in the order and association
        # of np.einsum("ai,nab,bj->nij"), whose values it keeps bit for
        # bit at a small fraction of the cost
        out = np.empty_like(H)
        for i in range(2):
            for j in range(2):
                out[:, i, j] = (Q[0, i] * H[:, 0, 0] * Q[0, j]
                                + Q[0, i] * H[:, 0, 1] * Q[1, j]
                                + Q[1, i] * H[:, 1, 0] * Q[0, j]
                                + Q[1, i] * H[:, 1, 1] * Q[1, j])
        return out


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

    @property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    @property
    def charge_s(self) -> float:
        return float(np.hypot(*self.burgers_b))

    def _frame(self):
        return dipole_frame(self.burgers_b), np.asarray(self.site, dtype=float)

    def _c_value(self, xi):
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        c = self.K * self.charge_s / (8.0 * math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(u > 0.0, np.log(np.where(u > 0.0, u, 1.0)), 0.0)
        return c * (xi[:, 0] * lg + xi[:, 0])

    def _c_gradient(self, xi):
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        c = self.K * self.charge_s / (8.0 * math.pi)
        g = np.empty_like(xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            g[:, 0] = c * (np.log(u) + 1.0 + 2.0 * xi[:, 0] ** 2 / u)
            g[:, 1] = c * (2.0 * xi[:, 0] * xi[:, 1] / u)
        return g

    def _c_hessian(self, xi):
        x1, x2 = xi[:, 0], xi[:, 1]
        u = x1**2 + x2**2
        c = self.K * self.charge_s / (4.0 * math.pi)
        H = np.empty((xi.shape[0], 2, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            H[:, 0, 0] = c * (x1**3 + 3.0 * x1 * x2**2) / u**2
            H[:, 1, 1] = c * (x1**3 - x1 * x2**2) / u**2
            H[:, 0, 1] = c * (x2**3 - x1**2 * x2) / u**2
        H[:, 1, 0] = H[:, 0, 1]
        return H


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

    @property
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
        # constructs eagerly to validate 0 < eps < R
        CoreCoefficients.for_annulus(self.eps, self.radius_R)

    @property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    @property
    def coeffs(self) -> CoreCoefficients:
        return CoreCoefficients.for_annulus(self.eps, self.radius_R)

    @property
    def magnitude(self) -> float:
        return float(np.hypot(*self.burgers_b))

    def _frame(self):
        return dipole_frame(self.burgers_b), np.asarray(self.site, dtype=float)

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
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        core = self._core(u)
        phi = np.where(core, self.coeffs.core_slope, self._phi(np.where(u > 0, u, 1.0)))
        return self.magnitude * self.K / (16.0 * math.pi) * phi * xi[:, 0]

    def _c_gradient(self, xi):
        c0 = self.magnitude * self.K / (16.0 * math.pi)
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        core = self._core(u)
        cc = self.coeffs
        safe = np.where(u > 0, u, 1.0)
        phi = self._phi(safe)
        dphi = -cc.beta / safe**2 + cc.gamma + 2.0 / safe
        g = np.empty_like(xi)
        g[:, 0] = 2.0 * dphi * xi[:, 0] ** 2 + phi
        g[:, 1] = 2.0 * dphi * xi[:, 0] * xi[:, 1]
        g[core, 0] = cc.core_slope
        g[core, 1] = 0.0
        return c0 * g

    def _c_hessian(self, xi):
        c0 = self.magnitude * self.K / (16.0 * math.pi)
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        core = self._core(u)
        cc = self.coeffs
        safe = np.where(u > 0, u, 1.0)
        dphi = -cc.beta / safe**2 + cc.gamma + 2.0 / safe
        d2phi = 2.0 * cc.beta / safe**3 - 2.0 / safe**2
        x1 = xi[:, 0]
        H = 4.0 * d2phi[:, None, None] * xi[:, :, None] * xi[:, None, :] * x1[:, None, None]
        ey = 2.0 * dphi[:, None] * xi
        H[:, 0, 0] += 2.0 * dphi * x1 + 2.0 * ey[:, 0]
        H[:, 1, 1] += 2.0 * dphi * x1
        H[:, 0, 1] += ey[:, 1]
        H[:, 1, 0] += ey[:, 1]
        H[core] = 0.0
        return c0 * H

    def canonical_laplacian(self, u: np.ndarray) -> np.ndarray:
        """Laplacian over xi_1 at squared radius u (annulus branch):
        Delta W = (|b| K / 2 pi)(gamma + 1/u) xi_1, returned per unit xi_1."""
        cc = self.coeffs
        return self.magnitude * self.K / (2.0 * math.pi) * (cc.gamma + 1.0 / u)

    def laplacian(self, x):
        Q, site = self._frame()
        xi = (_pts(x) - site) @ Q.T
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        out = self.canonical_laplacian(np.where(u > 0, u, 1.0)) * xi[:, 0]
        out[self._core(u)] = 0.0
        return out

    def grad_laplacian(self, x):
        Q, site = self._frame()
        xi = (_pts(x) - site) @ Q.T
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        safe = np.where(u > 0, u, 1.0)
        c3 = self.magnitude * self.K / (2.0 * math.pi)
        g = np.empty_like(xi)
        g[:, 0] = self.coeffs.gamma + 1.0 / safe - 2.0 * xi[:, 0] ** 2 / safe**2
        g[:, 1] = -2.0 * xi[:, 0] * xi[:, 1] / safe**2
        out = c3 * (g @ Q)
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

    @property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    @property
    def magnitude(self) -> float:
        return float(np.hypot(*self.burgers_b))

    def _frame(self):
        return dipole_frame(self.burgers_b), np.asarray(self.site, dtype=float)

    def _c0(self) -> float:
        return self.magnitude * self.K / (8.0 * math.pi)

    def _f(self, u):
        R2 = self.radius_R**2
        with np.errstate(divide="ignore", invalid="ignore"):
            return (1.0 - math.log(R2)) - u / R2 + np.log(u)

    def _c_value(self, xi):
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        f = self._f(np.where(u > 0, u, 1.0))
        out = self._c0() * f * xi[:, 0]
        return np.where(u > 0.0, out, 0.0)

    def _c_gradient(self, xi):
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        safe = np.where(u > 0, u, 1.0)
        f = self._f(safe)
        df = -1.0 / self.radius_R**2 + 1.0 / safe
        g = np.empty_like(xi)
        g[:, 0] = 2.0 * df * xi[:, 0] ** 2 + f
        g[:, 1] = 2.0 * df * xi[:, 0] * xi[:, 1]
        return self._c0() * g

    def _c_hessian(self, xi):
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        safe = np.where(u > 0, u, 1.0)
        df = -1.0 / self.radius_R**2 + 1.0 / safe
        d2f = -1.0 / safe**2
        x1 = xi[:, 0]
        H = 4.0 * d2f[:, None, None] * xi[:, :, None] * xi[:, None, :] * x1[:, None, None]
        ey = 2.0 * df[:, None] * xi
        H[:, 0, 0] += 2.0 * df * x1 + 2.0 * ey[:, 0]
        H[:, 1, 1] += 2.0 * df * x1
        H[:, 0, 1] += ey[:, 1]
        H[:, 1, 0] += ey[:, 1]
        return self._c0() * H

    def laplacian(self, x):
        Q, site = self._frame()
        xi = (_pts(x) - site) @ Q.T
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        safe = np.where(u > 0, u, 1.0)
        return self._c0() * xi[:, 0] * (4.0 / safe - 8.0 / self.radius_R**2)

    def grad_laplacian(self, x):
        Q, site = self._frame()
        p = _pts(x) - site
        xi = p @ Q.T
        u = xi[:, 0] ** 2 + xi[:, 1] ** 2
        safe = np.where(u > 0, u, 1.0)
        g = np.empty_like(xi)
        g[:, 0] = 4.0 / safe - 8.0 / self.radius_R**2 - 8.0 * xi[:, 0] ** 2 / safe**2
        g[:, 1] = -8.0 * xi[:, 0] * xi[:, 1] / safe**2
        return self._c0() * (g @ Q)


# ---------------------------------------------------------------------------
# stress / strain maps
# ---------------------------------------------------------------------------


def _scalar_or_array(x, out: np.ndarray):
    """Single-point inputs come back as plain floats."""
    if np.asarray(x, dtype=float).ndim == 1:
        return float(out[0])
    return out


def fundamental_airy(x, c: ElasticConstants):
    """K |x|^2 log|x|^2 / (16 pi) with the removable singularity at 0."""
    return _scalar_or_array(x, FundamentalAiry(c).value(x))


def single_disclination_clamped(x, s: float, xi, R: float, c: ElasticConstants):
    """Clamped single-charge potential on B_R(xi); errors outside the ball."""
    field = SingleDisclinationClamped(elastic=c, radius_R=R, charge_s=s,
                                      center=tuple(np.asarray(xi, dtype=float)))
    p = _pts(x) - np.asarray(xi, dtype=float)
    if np.any(np.hypot(p[:, 0], p[:, 1]) > R * (1.0 + 1e-12)):
        raise ValidationError("evaluation point outside the clamping ball")
    return _scalar_or_array(x, field.value(x))


def dipole_airy(x, s: float, h: float, c: ElasticConstants):
    """Opposite-charge pair split by h along e_1 (poles +-(h/2, 0))."""
    return _scalar_or_array(
        x, DipoleAiry(elastic=c, burgers_b=(0.0, s), spacing_h=h).value(x)
    )


def dipole_derivative_airy(x, s: float, c: ElasticConstants):
    """Zero-spacing limit field: (value, gradient, hessian); errors at 0."""
    p = _pts(x)
    if np.any(p[:, 0] ** 2 + p[:, 1] ** 2 == 0.0):
        raise ValidationError("limit dipole field is singular at the origin")
    field = DipoleDerivativeAiry(elastic=c, burgers_b=(0.0, s))
    val = field.value(x)
    grad = field.gradient(x)
    hess = field.hessian(x)
    if np.asarray(x, dtype=float).ndim == 1:
        return float(val[0]), grad[0], hess[0]
    return val, grad, hess


def dislocation_core_airy(x, b, site, eps: float, R: float, c: ElasticConstants):
    """Core-regularized single-dislocation potential (affine inside B_eps)."""
    return _scalar_or_array(
        x,
        DislocationCoreAiry(elastic=c, burgers_b=tuple(np.asarray(b, dtype=float)),
                            eps=eps, radius_R=R,
                            site=tuple(np.asarray(site, dtype=float))).value(x),
    )


def dislocation_limit_airy(x, b, site, R: float, c: ElasticConstants):
    """Zero-core limit potential; errors at the site."""
    p = _pts(x) - np.asarray(site, dtype=float)
    if np.any(p[:, 0] ** 2 + p[:, 1] ** 2 == 0.0):
        raise ValidationError("limit dislocation field is singular at its site")
    return _scalar_or_array(
        x,
        DislocationLimitAiry(elastic=c, burgers_b=tuple(np.asarray(b, dtype=float)),
                             radius_R=R,
                             site=tuple(np.asarray(site, dtype=float))).value(x),
    )


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
