"""Closed-form Airy potentials for disk-domain defects.

Every field exposes vectorized ``value``, ``gradient`` and ``hessian``
over (N, 2) point arrays; fields that need them also provide
``laplacian`` and ``grad_laplacian``. ``value_and_gradient`` and
``value_and_hessian`` give two of them at the same points, which the
dislocation and dipole-limit fields map to their canonical frame once.
All potentials carry the common prefactor K = E / (1 - nu^2).

Two derivative kernels serve the five closed forms, which declare only
their coefficients: ``_RadialField`` differentiates C (u log u + p u + q)
and ``_FrameField`` C g(u) xi_1, g(u) = a + b/u + c u + d log u.

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
    """Protocol base: value, gradient and Hessian at points."""

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

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
# radial family: the fundamental potential, the clamped disclination and
# the disclination dipole, a difference of two fundamental potentials
# ---------------------------------------------------------------------------


class _RadialField(AiryField):
    """C (u log u + p u + q) with u = |y|^2, y = x - centre: the derivative
    tower of the radial closed forms.

    Subclasses give ``_profile`` = (C, p, q) and, about a centre other
    than the origin, ``_rel``. At the centre, where log u is singular,
    the value is C q and the gradient 2 C (log u + 1 + p) y its limit 0
    (its log taken at u = 1, where y = 0); the Hessian and its traces
    keep the singular log.
    """

    @cached_property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    def _rel(self, x):
        return _pts(x)

    def _local(self, x):
        y = self._rel(x)
        return y, y[:, 0] ** 2 + y[:, 1] ** 2

    def value(self, x):
        y, u = self._local(x)
        C, p, q = self._profile
        out = u * np.log(np.where(u > 0.0, u, 1.0))
        if p or q:
            out = out + p * u + q
        return C * out

    def gradient(self, x):
        y, u = self._local(x)
        C, p, _ = self._profile
        f = np.log(np.where(u > 0.0, u, 1.0)) + (1.0 + p)
        return 2.0 * C * f[:, None] * y

    def hessian(self, x):
        y, u = self._local(x)
        C, p, _ = self._profile
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.log(u) + (1.0 + p)
            H = 2.0 * y[:, :, None] * y[:, None, :] / u[:, None, None]
        H[:, 0, 0] += f
        H[:, 1, 1] += f
        return 2.0 * C * H

    def laplacian(self, x):
        _, u = self._local(x)
        C, p, _ = self._profile
        with np.errstate(divide="ignore"):
            return 4.0 * C * (np.log(u) + (2.0 + p))

    def grad_laplacian(self, x):
        y, u = self._local(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 8.0 * self._profile[0] * y / u[:, None]


@dataclass(frozen=True)
class FundamentalAiry(_RadialField):
    """K |x|^2 log|x|^2 / (16 pi): unit point source of the scaled
    bilaplacian ((1 - nu^2)/E) Delta^2, normalized to vanish at 0."""

    elastic: ElasticConstants

    @cached_property
    def _profile(self):
        return self.K / (16.0 * math.pi), 0.0, 0.0


@dataclass(frozen=True)
class SingleDisclinationClamped(_RadialField):
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
    def _profile(self):
        R2 = self.radius_R**2
        return -self.charge_s * self.K / (16.0 * math.pi), -(1.0 + math.log(R2)), R2

    def _rel(self, x):
        return _pts(x) - np.asarray(self.center, dtype=float)

    def min_energy(self) -> float:
        """Energy of the minimizer, s^2 K R^2 / (32 pi)."""
        return self.charge_s**2 * self.K * self.radius_R**2 / (32.0 * math.pi)


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


# ---------------------------------------------------------------------------
# xi_1 family: the dipole's h -> 0 derivative and the dislocation
# potentials on B_R, core-regularized and limiting
# ---------------------------------------------------------------------------


def dipole_frame(b) -> np.ndarray:
    """Rows of the rotation Q mapping lab to canonical dipole/dislocation
    coordinates: xi_1 along Pi(b)/|b|, xi_2 along b/|b|."""
    b = np.asarray(b, dtype=float)
    nb = float(np.hypot(b[0], b[1]))
    if nb == 0.0:
        raise ValidationError("Burgers vector must be nonzero")
    return np.stack([rotate_burgers(b) / nb, b / nb])


class _FrameField(AiryField):
    """C g(u) xi_1 with g(u) = a + b/u + c u + d log u, in the canonical
    frame xi = Q (x - site), u = |xi|^2: the derivative tower of the
    xi_1 closed forms. Its Laplacian is C (8 c + 4 d / u) xi_1.

    The frame (Q, site) is built once per instance from the fields
    ``burgers_b`` and ``site``. Subclasses give ``_profile`` = (C, a, b,
    c, d); a cored profile gives ``_core`` = (eps^2, g_core), and where
    u < eps^2, g is frozen at g_core: the field is affine there, with
    zero curvature. Zero coefficients cost nothing. At the site, where g
    is singular, the value is 0 and the derivatives are NaN (they take g
    at u = NaN), unless a core freezes them.

    The canonical tower takes xi as a (2, N) array, whose rows xi_1 and
    xi_2 are contiguous; its Hessian has the rows H_11, H_12, H_21, H_22
    of a (4, N) array.
    """

    _core = None

    @cached_property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    @cached_property
    def magnitude(self) -> float:
        return float(np.hypot(*self.burgers_b))

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        Q, site = dipole_frame(self.burgers_b), np.array(self.site, dtype=float)
        Q.flags.writeable = site.flags.writeable = False
        return Q, site

    @cached_property
    def _rotation(self) -> tuple[np.ndarray, np.ndarray]:
        """The factors Q[a, i] and Q[b, j] of the terms Q[a, i] H_ab
        Q[b, j] of (Q^T H Q)_ij, ab running over 11, 12, 21, 22 as the
        rows of the canonical Hessian do, shaped to broadcast as
        [i, ab, n] and [i, j, ab, n]."""
        Q = self._frame[0]
        return Q[[0, 0, 1, 1]].T[:, :, None], Q[[0, 1, 0, 1]].T[None, :, :, None]

    def _local(self, x):
        """xi as Q (x - site)^T, the transpose of (x - site) Q^T, u =
        |xi|^2 and s, the u at which the derivatives take g."""
        Q, site = self._frame
        xi = Q @ (_pts(x) - site).T
        u = xi[0] ** 2 + xi[1] ** 2
        return xi, u, np.where(u > 0, u, math.nan)

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

    def _g(self, s):
        _, a, b, c, d = self._profile
        g = a + b / s if b else a
        if c:
            g = g + c * s
        return g + d * np.log(s)

    def _dg(self, s):
        _, _, b, c, d = self._profile
        return -b / s**2 + c + d / s if b else c + d / s

    def _zero_core(self, out, u):
        if self._core is not None:
            out[u < self._core[0]] = 0.0
        return out

    def _value(self, xi, u, s):
        g = self._g(np.where(u > 0, u, 1.0))
        if self._core is not None:
            g = np.where(u < self._core[0], self._core[1], g)
        return self._profile[0] * g * xi[0]

    def _gradient(self, xi, u, s):
        x1, x2 = xi
        e = 2.0 * self._dg(s)
        g = np.empty((len(x1), 2))
        g[:, 0] = e * x1**2 + self._g(s)
        g[:, 1] = e * x1 * x2
        if self._core is not None:
            g[u < self._core[0]] = self._core[1], 0.0
        return (self._profile[0] * g) @ self._frame[0]

    def _hessian(self, xi, u, s):
        # rows H_11, H_12, H_21, H_22 of the Hessian of g(u) xi_1:
        # 4 g'' xi_i xi_j xi_1 + 2 g' (xi_1 delta_ij + delta_i1 xi_j +
        # xi_i delta_j1); H_12 and H_21 round differently
        C, _, b, _, d = self._profile
        d2g = 2.0 * b / s**3 - d / s**2 if b else -d / s**2
        e1, e2 = 2.0 * self._dg(s) * xi
        H = ((4.0 * d2g * xi)[:, None] * xi).reshape(4, -1)
        H *= xi[0]
        H[0] += e1 + 2.0 * e1
        H[1] += e2
        H[2] += e2
        H[3] += e1
        self._zero_core(H.T, u)
        H *= C
        return self._lab_hessian(H)

    def value(self, x):
        return self._value(*self._local(x))

    def gradient(self, x):
        return self._gradient(*self._local(x))

    def hessian(self, x):
        return self._hessian(*self._local(x))

    def value_and_gradient(self, x):
        local = self._local(x)
        return self._value(*local), self._gradient(*local)

    def value_and_hessian(self, x):
        local = self._local(x)
        return self._value(*local), self._hessian(*local)

    def laplacian(self, x):
        xi, u, s = self._local(x)
        C, _, _, c, d = self._profile
        return self._zero_core(C * (8.0 * c + 4.0 * d / s) * xi[0], u)

    def grad_laplacian(self, x):
        (x1, x2), u, s = self._local(x)
        C, _, _, c, d = self._profile
        g = np.empty((len(x1), 2))
        g[:, 0] = 8.0 * c + 4.0 * d / s - 8.0 * d * x1**2 / s**2
        g[:, 1] = -8.0 * d * x1 * x2 / s**2
        return self._zero_core(C * (g @ self._frame[0]), u)


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
    def charge_s(self) -> float:
        return float(np.hypot(*self.burgers_b))

    @cached_property
    def _profile(self):
        return self.K * self.charge_s / (8.0 * math.pi), 1.0, 0.0, 0.0, 1.0


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
        # the core slope divides by eps^2
        if not (0.0 < eps < radius_R
                and min(eps, eps / radius_R) ** 2 >= np.finfo(float).tiny):
            raise ValidationError(
                f"need 0 < eps < R, eps^2 and (eps/R)^2 normal, got {eps}, {radius_R}")
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
    def coeffs(self) -> CoreCoefficients:
        return CoreCoefficients.for_annulus(self.eps, self.radius_R)

    @cached_property
    def _profile(self):
        c = self.coeffs
        return self.magnitude * self.K / (16.0 * math.pi), c.alpha, c.beta, c.gamma, 2.0

    @cached_property
    def _core(self):
        return None if self.annulus_branch else (self.eps**2, self.coeffs.core_slope)


@dataclass(frozen=True)
class DislocationLimitAiry(_FrameField):
    """Zero-core limit potential of one dislocation on B_R, recentered
    at its site.

    Canonical form (|b| K / 8 pi) f(r^2) xi_1 with
    f(u) = (1 - log R^2) - u / R^2 + log u; biharmonic away from the
    site, and both clamped traces vanish on the centered circle r = R.
    It is the cored profile's eps -> 0 limit, with no core: alpha = 2 -
    2 log R^2, beta = 0, gamma = -2/R^2 at the prefactor |b| K / 16 pi.
    """

    elastic: ElasticConstants
    burgers_b: tuple[float, float]
    radius_R: float
    site: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (self.radius_R > 0.0):
            raise ValidationError(f"radius must be positive, got {self.radius_R}")

    @cached_property
    def _profile(self):
        R2 = self.radius_R**2
        return (self.magnitude * self.K / (16.0 * math.pi),
                2.0 - 2.0 * math.log(R2), 0.0, -2.0 / R2, 2.0)


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
