"""Closed-form Airy potentials for disk-domain defects.

Every field evaluates through one method, ``derivatives(x, names)``:
at (N, 2) points it returns the requested members of value (N,),
gradient (N, 2), Hessian (N, 2, 2), Laplacian (N,) and gradient of the
Laplacian (N, 2) -- the names "value", "gradient", "hessian",
"laplacian" and "grad_laplacian" -- in request order. A closed form
maps the points to its own frame once per call and computes only the
members requested; a sum, scaling, shift or dipole makes one request of
each part. ``value``, ``gradient``, ``hessian``, ``laplacian`` and
``grad_laplacian`` are one-member requests. All potentials carry the
common prefactor K = E / (1 - nu^2).

Two derivative kernels serve the five closed forms, which declare only
their coefficients: ``_RadialField`` differentiates C (u log u + p u + q)
and ``_FrameField`` C g(u) xi_1, g(u) = a + b/u + c u + d log u.

What does not depend on the points (K, |b|, the frame, the core
coefficients) is computed once per field, on first use, and cached in
the instance: fields are frozen, so equality, hashing and
``dataclasses.replace`` still see only their declared fields. Nothing
else is cached between calls.
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
from .fields import _SPLIT


def _pts(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 1:
        p = p.reshape(1, 2)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValidationError(f"expected (N, 2) points, got shape {p.shape}")
    return p


# the members a field evaluates, by name, and the shape of each at one point
_SHAPES = {"value": (), "gradient": (2,), "hessian": (2, 2),
           "laplacian": (), "grad_laplacian": (2,)}


class AiryField:
    """Protocol base: the derivatives of a field at points."""

    def derivatives(self, x, names) -> tuple:
        """The members ``names`` (keys of ``_SHAPES``) at the (N, 2)
        points ``x``, in request order."""
        raise NotImplementedError

    def value(self, x) -> np.ndarray:
        return self.derivatives(x, ("value",))[0]

    def gradient(self, x) -> np.ndarray:
        return self.derivatives(x, ("gradient",))[0]

    def hessian(self, x) -> np.ndarray:
        return self.derivatives(x, ("hessian",))[0]

    def laplacian(self, x) -> np.ndarray:
        return self.derivatives(x, ("laplacian",))[0]

    def grad_laplacian(self, x) -> np.ndarray:
        return self.derivatives(x, ("grad_laplacian",))[0]


class _Kernel(AiryField):
    """A closed form: ``_local`` maps the points once per call, and
    member ``name`` is ``_name`` of that map."""

    def derivatives(self, x, names):
        local = self._local(x)
        return tuple(getattr(self, "_" + name)(*local) for name in names)


@dataclass(frozen=True)
class SumField(AiryField):
    """Pointwise sum of fields (superposition); zero with no terms."""

    terms: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def derivatives(self, x, names):
        x = _pts(x)
        sums = [np.zeros((len(x),) + _SHAPES[name]) for name in names]
        for t in self.terms:
            for total, part in zip(sums, t.derivatives(x, names)):
                total += part
        return tuple(sums)


@dataclass(frozen=True)
class ScaledField(AiryField):
    factor: float
    base: AiryField

    def derivatives(self, x, names):
        return tuple(self.factor * m for m in self.base.derivatives(x, names))


@dataclass(frozen=True)
class ShiftedField(AiryField):
    """base evaluated at x - shift."""

    shift: tuple[float, float]
    base: AiryField

    def derivatives(self, x, names):
        return self.base.derivatives(_pts(x) - np.asarray(self.shift, dtype=float),
                                     names)


@dataclass(frozen=True)
class Poly2D(_Kernel):
    """Polynomial sum c_{ij} x^i y^j from a {(i, j): c} coefficient map."""

    coeffs: tuple

    def _local(self, x):
        return (_pts(x),)

    def _d(self, p, dx, dy):
        """d^dx/dx^dx d^dy/dy^dy of the polynomial at the points p."""
        out = np.zeros(p.shape[0])
        for i, j, c in self.coeffs:
            if i >= dx and j >= dy:
                for k in range(dx):
                    c = c * (i - k)
                for k in range(dy):
                    c = c * (j - k)
                out += c * p[:, 0] ** (i - dx) * p[:, 1] ** (j - dy)
        return out

    def _value(self, p):
        return self._d(p, 0, 0)

    def _gradient(self, p):
        return np.stack([self._d(p, 1, 0), self._d(p, 0, 1)], axis=-1)

    def _hessian(self, p):
        H = np.empty((p.shape[0], 2, 2))
        H[:, 0, 0], H[:, 1, 1] = self._d(p, 2, 0), self._d(p, 0, 2)
        H[:, 0, 1] = H[:, 1, 0] = self._d(p, 1, 1)
        return H

    def _laplacian(self, p):
        return self._d(p, 2, 0) + self._d(p, 0, 2)

    def _grad_laplacian(self, p):
        return np.stack([self._d(p, 3, 0) + self._d(p, 1, 2),
                         self._d(p, 2, 1) + self._d(p, 0, 3)], axis=-1)


# ---------------------------------------------------------------------------
# radial family: the fundamental potential, the clamped disclination and
# the disclination dipole, a difference of two fundamental potentials
# ---------------------------------------------------------------------------


class _RadialField(_Kernel):
    """C (u log u + p u + q) with u = |y|^2, y = x - centre: the derivative
    tower of the radial closed forms.

    Subclasses give ``_profile`` = (C, p, q) and, about a centre other
    than the origin, ``_rel``. The points map to y, u and log u once. At
    the centre, where log u is singular, the value is C q and the
    gradient 2 C (log u + 1 + p) y its limit 0 (log u taken as 0 there,
    where y = 0); the Hessian and its traces keep the singular log.
    """

    @cached_property
    def K(self) -> float:
        return self.elastic.plane_prefactor

    def _rel(self, x):
        return _pts(x)

    def _local(self, x):
        y = self._rel(x)
        u = y[:, 0] ** 2 + y[:, 1] ** 2
        with np.errstate(divide="ignore"):
            return y, u, np.log(u)

    def _value(self, y, u, log_u):
        C, p, q = self._profile
        out = u * np.where(u > 0.0, log_u, 0.0)
        if p or q:
            out = out + p * u + q
        return C * out

    def _gradient(self, y, u, log_u):
        C, p, _ = self._profile
        f = np.where(u > 0.0, log_u, 0.0) + (1.0 + p)
        return 2.0 * C * f[:, None] * y

    def _hessian(self, y, u, log_u):
        C, p, _ = self._profile
        with np.errstate(divide="ignore", invalid="ignore"):
            H = 2.0 * y[:, :, None] * y[:, None, :] / u[:, None, None]
        f = log_u + (1.0 + p)
        H[:, 0, 0] += f
        H[:, 1, 1] += f
        return 2.0 * C * H

    def _laplacian(self, y, u, log_u):
        C, p, _ = self._profile
        return 4.0 * C * (log_u + (2.0 + p))

    def _grad_laplacian(self, y, u, log_u):
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

    def derivatives(self, x, names):
        s, plus, minus = self._parts
        return tuple(-s * (a - b) for a, b in zip(plus.derivatives(x, names),
                                                  minus.derivatives(x, names)))


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


class _FrameField(_Kernel):
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

    def _laplacian(self, xi, u, s):
        C, _, _, c, d = self._profile
        return self._zero_core(C * (8.0 * c + 4.0 * d / s) * xi[0], u)

    def _grad_laplacian(self, xi, u, s):
        x1, x2 = xi
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

    With ``annulus_branch`` set, every member evaluates the annulus
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
# the clamped Green's function of the disk
# ---------------------------------------------------------------------------


def clamped_green(x, y, R: float) -> np.ndarray:
    """Boggio's clamped biharmonic Green's function G_B of the disk of
    radius R at the (N, 2) point pairs x, y, taken relative to the disk
    centre: Delta_x^2 G_B = delta_y, and G_B and its normal derivative
    vanish on the circle (Boggio 1905; Gazzola, Grunau & Sweers,
    Polyharmonic Boundary Value Problems, 2010).

    With A = (R^2 - |x|^2)(R^2 - |y|^2) / R^2 and d = x - y,
    16 pi G_B = A - |d|^2 log1p(A / |d|^2), and G_B(y, y) = A / 16 pi.
    G_B is homogeneous of degree 2 in (x, y, R), so it is evaluated in
    units of R, 1 - |x|^2 as (1 - |x|)(1 + |x|)."""
    x, y = _pts(x), _pts(y)
    d = (x - y) / R  # the difference first: close points keep its direction
    rx, ry = (np.hypot(*(p / R).T) for p in (x, y))
    A, d2 = (1.0 - rx) * (1.0 + rx) * ((1.0 - ry) * (1.0 + ry)), d[:, 0] ** 2 + d[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(d2 > 0.0, d2 * np.log1p(A / d2), 0.0)
    return R * R * (A - tail) / (16.0 * math.pi)


def _square(a):
    """h + l = a^2 exactly, h = fl(a^2) (Dekker's product)."""
    c = _SPLIT * a
    hi = c - (c - a)
    lo = a - hi
    h = a * a
    return h, ((hi * hi - h) + 2.0 * hi * lo) + lo * lo


def _two_sum(a, b):
    """s + e = a + b exactly, s = fl(a + b) (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _circle_gap(p: np.ndarray, R: float) -> np.ndarray:
    """1 - |p|^2 / R^2 at (N, 2) points p to about an ulp of itself: the
    squares of R, p_1 and p_2 are split exactly, and their leading parts
    are subtracted with the rounding errors kept (Knuth's two-sum), so
    a point near the circle loses no digits to the rounding of |p|."""
    (r, r_lo), (h1, l1), (h2, l2) = _square(float(R)), _square(p[:, 0]), _square(p[:, 1])
    s, e1 = _two_sum(r, -h1)
    s, e2 = _two_sum(s, -h2)
    return (s + ((e1 + e2) + r_lo - l1 - l2)) / r


def clamped_green_mixed(x, y, a, c, R: float) -> np.ndarray:
    """(a . grad_x)(c . grad_y) G_B(x, y) at (N, 2) distinct point pairs
    x, y relative to the disk centre, for (N, 2) or (2,) directions a, c.

    In units of R, with p_x = 1 - |x|^2, p_y = 1 - |y|^2, A = p_x p_y, d
    = x - y, S = |d|^2 + A and q = A / S, 16 pi times it is 2 (a.c)
    log1p(A / |d|^2) + (4 (a.x)(c.y) - 2 (a.c)) q - 4 (a.d)(c.d) q^2 /
    |d|^2 + 4 ((a.d)(c.y) p_x - (c.d)(a.x) p_y) q / S + 4 (a.x)(c.y)
    |d|^2 q / S: every term carries a factor of A, so a value of order A
    near the circle is no difference of terms of order one. p_x is
    formed as (R^2 - x_1^2 - x_2^2) / R^2 from error-free squares
    (``_circle_gap``), before any scaling; the derivative does not scale
    with R."""
    x, y = _pts(x), _pts(y)
    px, py, d = _circle_gap(x, R), _circle_gap(y, R), (x - y) / R
    x, y = x / R, y / R
    a, c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)

    def dot(u, v):
        return (u * v).sum(axis=-1)

    d2, A = d[:, 0] ** 2 + d[:, 1] ** 2, px * py
    S = d2 + A
    q, ac, ad, cd, axcy = A / S, dot(a, c), dot(a, d), dot(c, d), 4.0 * dot(a, x) * dot(c, y)
    return (2.0 * ac * np.log1p(A / d2) + (axcy - 2.0 * ac) * q - 4.0 * ad * cd * q * q / d2
            + 4.0 * (ad * dot(c, y) * px - cd * dot(a, x) * py) * q / S
            + axcy * d2 * q / S) / (16.0 * math.pi)


def clamped_regular(z, w, s=None, alpha=None, log_R2: float = 0.0, hessian: bool = False):
    """Smooth part of a pure-trace minimizer in units of the radius R, at
    z = (x - c) / R (1-D complex): the sum over the sources w_k = (y_k -
    c) / R of s_k 16 pi H(x, y_k) / R^2 (charges) and of 16 pi / K R times
    K (Jb . grad_y) G_B less ``DislocationLimitAiry`` (dislocations, Jb =
    (Re, Im) alpha_k); with ``hessian`` also its Laplacian and dd = 4
    d_z^2 in z (H_xx, H_yy = (Delta +- Re dd) / 2, H_xy = -Im dd / 2).

    H = G_B - Phi (``clamped_green``, Phi = |x - y|^2 log|x - y|^2 / 16 pi)
    is R^2 H_1(z, w) - |x - y|^2 log R^2 / 16 pi. With D = z - w, P = 1 -
    z conj(w), l = log|P|^2, 1 - |z|^2 as (1 - |z|)(1 + |z|) and Q = 2 / P
    + D conj(w) / P^2, 16 pi H_1 = (1 - |z|^2)(1 - |w|^2) - |D|^2 l has
    Delta = 4 (2 Re(D conj(w) / P) - (1 - |w|^2) - l), dd = 4 conj(D w) Q.
    As (a . grad_y) R^2 H_1 = R (a . grad_w) H_1, whose log R^2 term
    cancels the profile's, a dislocation member is (a . grad_w) 16 pi H_1
    - 2 (a . D) |D|^2, a . D = Re(conj(alpha) D); a real f has (a . grad_w)
    f = 2 Re(alpha d_w f), and dd takes alpha d_w dd + conj(alpha) d_wbar dd:
      d_w 16 pi H_1 = conj(D) l + |D|^2 conj(z / P) - conj(w) (1 - |z|^2),
      d_w Delta 16 pi H_1 = 4 conj(w + (z + D) / P + D conj(w) z / P^2 - w / conj(P)),
      d_w dd = -4 conj(D) conj(w)^2 / P^2,
      d_wbar dd = 4 ((conj(D) - conj(w)) Q + conj(D w) (2 z + D) / P^2
                     + 2 |D|^2 conj(w)^2 z / P^3),
    and (a . D) |D|^2 has Delta = 8 a . D and dd = 4 conj(alpha D)."""
    # numpy rounds a lone complex product, or one into a large temporary on
    # its right (operands swapped), otherwise: two points, temporaries left
    n, z, w = len(z), np.resize(z, max(len(z), 2))[:, None], np.asarray(w)
    D, cw, cz, r, rw = z - w, np.conj(w), np.conj(z), np.abs(z), np.abs(w)
    P, D2, gz, gw = 1.0 - z * cw, np.abs(D) ** 2, (1.0 - r) * (1.0 + r), (1.0 - rw) * (1.0 + rw)
    iP, cD, log, value, lap, dd = 1.0 / P, np.conj(D), np.log(np.abs(P) ** 2), 0.0, 0.0, 0.0
    Q, iP2 = ((2.0 + D * cw * iP) * iP, iP * iP) if hessian else (None, None)
    if s is not None:
        value = s * (gz * gw - D2 * (log + log_R2))
        if hessian:
            lap, dd = 4.0 * s * (2.0 * (D * cw * iP).real - gw - log - log_R2), 4.0 * s * cD * cw * Q
    if alpha is not None:
        dot, icP = (np.conj(alpha) * D).real, np.conj(iP)
        value = value + 2.0 * ((cD * log + D2 * cz * icP - cw * gz) * alpha).real - 2.0 * dot * D2
        if hessian:
            lap = lap + 8.0 * ((cw + (cz + cD + cD * w * cz * icP) * icP - cw * iP)
                               * alpha).real - 16.0 * dot
            dd = dd + ((cD - cw) * Q - 2.0 * cD + cD * cw * iP2 * (2.0 * z + D + 2.0 * D * cw
                       * z * iP)) * (4.0 * np.conj(alpha)) - 4.0 * alpha * cD * cw**2 * iP2
    return [np.broadcast_to(t, D.shape).sum(axis=-1)[:n] for t in (value, lap, dd)[:1 + 2 * hessian]]


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
