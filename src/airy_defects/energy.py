"""Elastic energy functionals built from Airy potentials.

The quadratic form is
``G(v) = (1 + nu)/(2E) * integral(|hess v|^2 - nu (lap v)^2)``; for
globally clamped fields it collapses to the Laplacian-only form
``(1 - nu^2)/(2E) * integral (lap v)^2``. Defect functionals add point
loads (disclinations), core-circle gradient loads (dislocations) or
finite-difference pair loads (dipoles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DiskDomain,
    ElasticConstants,
    NumericalError,
    ValidationError,
    rotate_burgers,
)
from .fields import circle_nodes, radial_integral


# ---------------------------------------------------------------------------
# pointwise densities
# ---------------------------------------------------------------------------


def energy_density(hessian: np.ndarray, elastic: ElasticConstants) -> np.ndarray:
    """(1 + nu)/(2E) (|hess|^2 - nu (tr hess)^2) for (..., 2, 2) input."""
    H = np.asarray(hessian, dtype=float)
    nu, E = elastic.poisson_nu, elastic.young_E
    norm_sq = (H**2).sum(axis=(-2, -1))
    tr = H[..., 0, 0] + H[..., 1, 1]
    return (1.0 + nu) / (2.0 * E) * (norm_sq - nu * tr**2)


def clamped_energy_density(laplacian: np.ndarray, elastic: ElasticConstants) -> np.ndarray:
    """(1 - nu^2)/(2E) (lap v)^2; equals the full density only after
    integration over a domain where v is globally clamped."""
    nu, E = elastic.poisson_nu, elastic.young_E
    lap = np.asarray(laplacian, dtype=float)
    return (1.0 - nu**2) / (2.0 * E) * lap**2


def stress_energy_density(stress: np.ndarray, elastic: ElasticConstants) -> np.ndarray:
    """(1 + nu)/(2E) (|sigma|^2 - nu (tr sigma)^2); coincides with the
    strain form under the plane Hooke law."""
    S = np.asarray(stress, dtype=float)
    nu, E = elastic.poisson_nu, elastic.young_E
    tr = S[..., 0, 0] + S[..., 1, 1]
    return (1.0 + nu) / (2.0 * E) * ((S**2).sum(axis=(-2, -1)) - nu * tr**2)


def inner_product_density(h1: np.ndarray, h2: np.ndarray,
                          elastic: ElasticConstants) -> np.ndarray:
    """Polarization of the energy density: (1 + nu)/E (<H1, H2> - nu tr H1 tr H2)."""
    H1 = np.asarray(h1, dtype=float)
    H2 = np.asarray(h2, dtype=float)
    nu, E = elastic.poisson_nu, elastic.young_E
    dot = (H1 * H2).sum(axis=(-2, -1))
    tr1 = H1[..., 0, 0] + H1[..., 1, 1]
    tr2 = H2[..., 0, 0] + H2[..., 1, 1]
    return (1.0 + nu) / E * (dot - nu * tr1 * tr2)


# ---------------------------------------------------------------------------
# integrated energies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticTerms:
    """Integrated |hessian|^2 and |laplacian|^2 of one field, with the
    elastic constants needed to turn them into energies."""

    hessian_sq: float
    laplacian_sq: float
    elastic_constants: ElasticConstants

    @property
    def energy(self) -> float:
        nu, E = self.elastic_constants.poisson_nu, self.elastic_constants.young_E
        return (1.0 + nu) / (2.0 * E) * (self.hessian_sq - nu * self.laplacian_sq)

    @property
    def clamped_energy(self) -> float:
        """(1 - nu^2)/(2E) times the Laplacian square; equals ``energy``
        only for globally clamped fields."""
        nu, E = self.elastic_constants.poisson_nu, self.elastic_constants.young_E
        return (1.0 - nu**2) / (2.0 * E) * self.laplacian_sq

    def to_dict(self) -> dict:
        return {
            "hessian_sq": self.hessian_sq,
            "laplacian_sq": self.laplacian_sq,
            "energy": self.energy,
            "clamped_energy": self.clamped_energy,
        }


def polar_energy(field, elastic: ElasticConstants, center,
                 r_outer: float, r_inner: float = 0.0,
                 n_theta: int = 256, breaks=()) -> QuadraticTerms:
    """|hess|^2 and (lap)^2 integrated over an annulus about ``center``.

    Ring means over ``n_theta`` equispaced angles (exact for
    trigonometric integrands of degree below ``n_theta``), integrated in
    the radius by :func:`fields.radial_integral`, both terms from one
    batch of Hessians. Its panels shrink toward r = 0 and toward every
    radius in ``breaks``, which must hold the distance from ``center``
    of each singular point of the field inside the annulus; an
    unflagged one raises ``NumericalError``.
    """
    if not (0.0 <= r_inner < r_outer):
        raise ValidationError(
            f"need 0 <= r_inner < r_outer, got {r_inner}, {r_outer}"
        )
    c = np.asarray(center, dtype=float)
    _, ring, _ = circle_nodes(c, 1.0, n_theta)

    def ring_terms(r):
        pts = (c + r[:, None, None] * ring).reshape(-1, 2)
        H = field.hessian(pts).reshape(len(r), n_theta, 2, 2)
        norm_sq = (H**2).sum(axis=(2, 3)).mean(axis=1)
        tr_sq = ((H[..., 0, 0] + H[..., 1, 1]) ** 2).mean(axis=1)
        return 2.0 * math.pi * r * np.stack([norm_sq, tr_sq])

    hess_sq, lap_sq = radial_integral(ring_terms, r_inner, r_outer, breaks)
    return QuadraticTerms(
        hessian_sq=float(hess_sq), laplacian_sq=float(lap_sq),
        elastic_constants=elastic,
    )


def _pairing_traces(field, pts, nhat, nu: float) -> np.ndarray:
    """(2, 4, N) moments (hess f nhat, -nu lap f, -(1 - nu) d_n lap f)
    and values (grad f, d_n f, f) of ``field`` f at the (N, 2) points
    with unit normals ``nhat``, from one evaluation. The energy cross
    term of closed forms f, g biharmonic in a region is (1 + nu)/E times
    the boundary integral (region-outward) of f's moments times g's values."""
    H, lap, dlap, value, gradient = field.derivatives(
        pts, ("hessian", "laplacian", "grad_laplacian", "value", "gradient"))
    out = np.empty((2, 4, len(pts)))
    out[0, :2] = np.einsum("nij,nj->ni", H, nhat).T
    out[0, 2] = -nu * lap
    out[0, 3] = -(1.0 - nu) * (dlap * nhat).sum(axis=-1)
    out[1] = [*gradient.T, (gradient * nhat).sum(axis=-1), value]
    return out


def _pairing_means(moments, values):
    """Node means of the pairing integrand of ``_pairing_traces`` moments
    with values: components on the third axis from the end, nodes last."""
    return (moments * values).sum(axis=-3).mean(axis=-1)


def _boundary_integral(means, circles):
    """Trapezoid integral, from its node ``means`` (last axis: circle),
    over the first of the (center, radius) ``circles`` minus the others,
    summed in their order: the boundary of the disk minus core balls."""
    total = 0.0
    for k, ((_, r), mean) in enumerate(zip(circles, np.moveaxis(means, -1, 0))):
        total = total + (-1.0 if k else 1.0) * (2.0 * math.pi * r) * mean
    return total


# Largest relative residual a solve may leave: the collocation residual
# of a series fit, or the last change of a boundary energy.
_RESIDUAL_BOUND = 1e-8


def _keeps_doubling(residual: float, previous: float | None,
                    target: float) -> bool:
    """Refinement rule of the series fits and circle sums: double the
    count while the residual is above ``target``, except once it is
    within ``_RESIDUAL_BOUND`` and the last doubling failed to halve it.
    Such a residual sits on its roundoff floor, and more modes only cost
    time; above the bound a stalled residual is still pre-asymptotic (a
    site near the circle needs hundreds of modes before its decay
    shows)."""
    return residual > target and (
        previous is None or residual > _RESIDUAL_BOUND
        or residual <= 0.5 * previous)


# Nodes per circle of every Green-identity circle sum (``circle_sums``),
# doubled from _FIRST_NODES up to _MAX_NODES. A trapezoid sum converges
# geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014), by e^-a per
# node for a singular point at log-radius distance a from the circle; the
# gap _MIN_GAP of ``green_bulk_energy`` keeps that at most e^-65 at the cap.
_FIRST_NODES = 64
_MAX_NODES = 2**16
_CIRCLE_TARGET = 1e-12
_MIN_GAP = 1e-3


def circle_sums(circles, integrands, sums=lambda x: x.mean(axis=-1),
                scale: float = 0.0):
    """Trapezoid sums on the (center, radius) ``circles`` that settle,
    and the nodes per circle they took.

    ``integrands(pts, nhat)`` maps the (C n, 2) nodes of all circles, n
    on each, stacked circle by circle, and their outward unit normals to
    an array whose last axis runs over (some of) them; ``sums`` maps it,
    that axis split into blocks of n, to the sums (by default, the mean
    of each block). Each level evaluates once, and its n-node sums are
    checked against the n/2-node sums over every second node: n doubles
    while ``_keeps_doubling`` asks for ``_CIRCLE_TARGET`` of the largest
    |sum| (or of ``scale``, for sums that may all vanish to roundoff).
    Sums unsettled at ``_MAX_NODES`` raise ``NumericalError``; non-finite
    ones are returned, for the caller to judge."""
    if not all(r > 0.0 for _, r in circles):
        raise ValidationError(f"circle radii must be positive, got {circles}")
    n, previous = _FIRST_NODES, None
    while True:
        pts, nhat = (np.vstack(a) for a in zip(*[circle_nodes(c, r, n)[:2]
                                                  for c, r in circles]))
        x = np.asarray(integrands(pts, nhat))
        x = x.reshape(x.shape[:-1] + (x.shape[-1] // n, n))
        full, half = np.asarray(sums(x)), np.asarray(sums(x[..., ::2]))
        residual = float(np.abs(full - half).max(initial=0.0) / max(
            np.abs(full).max(initial=0.0), scale, np.finfo(float).tiny))
        if not _keeps_doubling(residual, previous, _CIRCLE_TARGET):
            return full, n
        if n >= _MAX_NODES:
            raise NumericalError(
                f"circle sums did not settle: relative change {residual:.3e} "
                f"at {n} nodes per circle")
        previous, n = residual, 2 * n


def green_bulk_energy(field, elastic: ElasticConstants, domain: DiskDomain,
                      charges=(), cores=()) -> tuple[float, int]:
    """Bulk energy G of ``field`` v over ``domain`` minus the core balls,
    and the nodes per circle it took.

    v must be biharmonic off its point ``charges``, (site, s) pairs with
    (1/K) Delta^2 v = -sum_k s_k delta_{y_k}, and off the ``cores``,
    (site, eps) balls; on its own core circle each cored term must give
    its annulus branch, the limit from the region. Green's identity then
    turns G into half the pairing of ``_pairing_traces`` over the outer
    circle minus the core circles, less s_k v(y_k)/2 for each charge
    outside the cores, summed by :func:`circle_sums`.

    A charge or core site within ``_MIN_GAP`` of a circle, in
    |log(distance to its center / radius)|, raises ``ValidationError``:
    no node count up to the cap resolves it.
    """
    circles = [(domain.center, domain.radius_R)] + list(cores)
    for y in [y for y, _ in charges] + [site for site, _ in cores]:
        for c, r in circles:
            rho = math.dist(y, c)
            if rho > 0.0 and abs(math.log(rho / r)) < _MIN_GAP:
                raise ValidationError(
                    f"singular point {tuple(map(float, y))} lies within a "
                    f"relative distance {_MIN_GAP} of the circle of radius "
                    f"{r} about {tuple(map(float, c))}, which the circle "
                    f"quadrature does not resolve")
    outside = [(y, s) for y, s in charges
               if all(math.dist(y, c) > eps for c, eps in cores)]
    vk = field.value(np.reshape([y for y, _ in outside], (-1, 2)))
    pole_term = -0.5 * sum(s * float(x) for (_, s), x in zip(outside, vk))
    nu, E = elastic.poisson_nu, elastic.young_E
    G, n = circle_sums(
        circles, lambda pts, nhat: _pairing_traces(field, pts, nhat, nu),
        lambda x: 0.5 * ((1.0 + nu) / E * _boundary_integral(
            _pairing_means(*x), circles)) + pole_term)
    return float(G), n


# ---------------------------------------------------------------------------
# defect loads
# ---------------------------------------------------------------------------


def core_gradient_load(field, site, burgers_b, eps: float) -> float:
    """Mean of <grad w, Pi(b)> over the core circle."""
    Pi = rotate_burgers(burgers_b)
    mean, _ = circle_sums([(site, eps)], lambda pts, _: field.gradient(pts) @ Pi)
    return float(mean[0])


def dipole_pair_load(field, site, burgers_b, eps: float, h: float) -> float:
    """Finite-h dipole load: |b| times the circle average over radius
    eps - h of the symmetric difference quotient along Pi(b)/|b|."""
    b = np.asarray(burgers_b, dtype=float)
    nb = float(np.hypot(b[0], b[1]))
    if not (0.0 < h < eps):
        raise ValidationError(f"need 0 < h < eps, got h={h}, eps={eps}")
    axis = rotate_burgers(b) / nb
    shift = 0.5 * h * axis

    def integrand(pts, _):
        return (field.value(pts + shift) - field.value(pts - shift)) / h

    mean, _ = circle_sums([(site, eps - h)], integrand)
    return nb * float(mean[0])


# radii and angles of the core-ball samples of affine_core_defect
_AFFINE_SAMPLES = 64


def affine_core_defect(field, site, eps: float) -> float:
    """Max |hess w| over the open core ball: certifies membership in the
    affine-core admissible class (should be ~0 for admissible fields)."""
    rng_r = np.sqrt(np.linspace(0.0, 0.9, _AFFINE_SAMPLES)) * eps
    th = np.linspace(0.0, 2.0 * math.pi, _AFFINE_SAMPLES, endpoint=False)
    Rg, Tg = np.meshgrid(rng_r, th, indexing="ij")
    pts = np.stack(
        [site[0] + Rg.ravel() * np.cos(Tg.ravel()),
         site[1] + Rg.ravel() * np.sin(Tg.ravel())], axis=-1
    )
    H = field.hessian(pts)
    if not np.all(np.isfinite(H)):
        return math.inf
    return float(np.abs(H).max())


# ---------------------------------------------------------------------------
# defect functionals
# ---------------------------------------------------------------------------


def single_dislocation_min_value(elastic: ElasticConstants, radius_R: float,
                                 magnitude: float, eps: float) -> float:
    """Minimal core functional value for one centered dislocation:
    -(|b|^2 / 8 pi) K (log(R/eps) - (R^2 - eps^2)/(R^2 + eps^2))."""
    if not (0.0 < eps < radius_R):
        raise ValidationError(f"need 0 < eps < R, got eps={eps}, R={radius_R}")
    K = elastic.plane_prefactor
    g = (radius_R**2 - eps**2) / (radius_R**2 + eps**2)
    return -(magnitude**2 / (8.0 * math.pi)) * K * (math.log(radius_R / eps) - g)


# ---------------------------------------------------------------------------
# defect-functional reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBreakdown:
    """Bulk energy plus defect charge/load term of one functional value."""

    bulk_G: float
    charge_term: float
    region: str

    def __post_init__(self) -> None:
        if self.bulk_G < -1e-12 * max(1.0, abs(self.charge_term)):
            raise NumericalError(f"bulk energy came out negative: {self.bulk_G}")

    @property
    def total(self) -> float:
        return self.bulk_G + self.charge_term

    def to_dict(self, grid: dict | None = None) -> dict:
        doc = {
            "bulk_G": self.bulk_G,
            "charge": self.charge_term,
            "total": self.total,
            "region": self.region,
        }
        if grid is not None:
            doc["grid"] = dict(grid)
        return doc


def disclination_functional_I(v, disclinations, elastic: ElasticConstants,
                              domain: DiskDomain) -> EnergyBreakdown:
    """I(v) = G(v) + sum_k s_k v(y_k) of a closed-form field on ``domain``."""
    c = np.asarray(domain.center, dtype=float)
    breaks = [math.dist(d.site, c) for d in disclinations]
    bulk = polar_energy(v, elastic, c, domain.radius_R, breaks=breaks).energy
    charge = sum(
        d.frank_angle_s * float(v.value(np.asarray(d.site))[0])
        for d in disclinations
    )
    return EnergyBreakdown(bulk_G=bulk, charge_term=charge,
                           region=f"disk R={domain.radius_R}")


AFFINE_CORE_TOL = 1e-8


def _require_affine_core(field, site, eps: float) -> None:
    defect = affine_core_defect(field, site, eps)
    if defect > AFFINE_CORE_TOL:
        raise ValidationError(
            f"field is not affine on the core ball (max |hess| = {defect})"
        )


def dipole_core_functional_J(w, s: float, h: float, eps: float, R: float,
                             elastic: ElasticConstants,
                             site=(0.0, 0.0)) -> float:
    """Finite-spacing pair functional on the affine-core class.

    Canonical axis e_1 (charge split along e_1, target Burgers vector
    s e_2); the circle term averages the symmetric difference quotient
    over the shrunken circle of radius eps - h.
    """
    if not (0.0 < h < eps):
        raise ValidationError(f"need 0 < h < eps, got h={h}, eps={eps}")
    if not (eps < R):
        raise ValidationError(f"need eps < R, got eps={eps}, R={R}")
    _require_affine_core(w, site, eps)
    G = polar_energy(w, elastic, site, R, r_inner=eps).energy
    return G + dipole_pair_load(w, site, (0.0, s), eps, h)


def dislocation_core_functional_J0(w, s: float, eps: float, R: float,
                                   elastic: ElasticConstants,
                                   site=(0.0, 0.0)) -> float:
    """Zero-spacing core functional: annulus energy plus the x_1-slope load."""
    if not (0.0 < eps < R):
        raise ValidationError(f"need 0 < eps < R, got eps={eps}, R={R}")
    _require_affine_core(w, site, eps)
    G = polar_energy(w, elastic, site, R, r_inner=eps).energy
    return G + core_gradient_load(w, site, (0.0, s), eps)
