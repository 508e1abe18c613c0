"""Scaling-law sweeps, annulus closed forms and the renormalized energy.

Sweeps drive the closed-form energies and the series solvers over
decreasing spacing/core-radius samples and fit the leading |log eps|
expansion; the renormalized-energy decomposition provides the constant
term the fits are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .core import (
    DiskDomain,
    Disclination,
    Dislocation,
    ElasticConstants,
    NumericalError,
    ValidationError,
    min_separation_D,
    rotate_burgers,
)
from .closedform import DipoleAiry, DislocationLimitAiry
from .energy import green_bulk_energy
from .fields import circle_nodes, radial_integral, write_csv
from .solver import (
    _elastic_correction,
    _profile_pairings,
    solve_clamped_disclination,
    solve_core_constrained,
    solve_dipole_core,
)


# ---------------------------------------------------------------------------
# expansion fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionFit:
    """Least-squares fit of functional values against |log eps|.

    The model is ``value = slope * |log eps| + constant`` plus, when
    ``eps2_coeff`` is set, the finite-core remainder ``eps2_coeff * eps^2``.
    """

    param_name: str
    params: tuple
    values: tuple
    slope: float
    constant: float
    slope_stderr: float
    constant_stderr: float
    residual: float
    analytic_slope: float
    predicted_constant: float | None = None
    skipped: tuple = ()
    eps2_coeff: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "param": self.param_name,
            "samples": [
                {self.param_name: p, "value": v}
                for p, v in zip(self.params, self.values)
            ],
            "slope": self.slope,
            "constant": self.constant,
            "slope_stderr": self.slope_stderr,
            "constant_stderr": self.constant_stderr,
            "residual": self.residual,
            "analytic_slope": self.analytic_slope,
        }
        if self.eps2_coeff is not None:
            doc["eps2_coeff"] = self.eps2_coeff
        if self.predicted_constant is not None:
            doc["predicted_constant"] = self.predicted_constant
        if self.skipped:
            doc["skipped"] = list(self.skipped)
        return doc


def _fit_log_expansion(eps_values, values, fit_tail: int,
                       eps2_term: bool = False):
    """LS fit value = slope * |log eps| + constant [+ d * eps^2] on the
    tail samples.

    With ``eps2_term`` and at least three tail samples the O(eps^2)
    finite-core remainder is fitted as a free coefficient ``d``
    (returned last, ``None`` when not fitted); with two samples there is
    no room for it and the two-term fit is used. Standard errors vanish
    up to roundoff when the samples determine the fit exactly.

    The values are fitted divided by the power of two just above their
    largest magnitude, and the results multiplied back: an exact scaling
    that keeps the squared residuals finite when the values are near
    the largest double (the energies scale with E, up to 1e308).
    """
    if len(eps_values) < 2:
        raise ValidationError("need at least two samples to fit")
    k = min(fit_tail, len(eps_values)) if fit_tail > 0 else len(eps_values)
    eps = np.asarray(eps_values[-k:], dtype=float)
    x = np.abs(np.log(eps))
    y = np.asarray(values[-k:], dtype=float)
    shift = int(np.frexp(np.abs(y).max())[1])
    y = np.ldexp(y, -shift)
    columns = [x, np.ones_like(x)]
    with_eps2 = eps2_term and k >= 3
    if with_eps2:
        columns.append(eps**2)
    A = np.stack(columns, axis=-1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    r = y - A @ coef
    residual = float(np.sqrt(np.sum(r**2)))
    dof = max(len(x) - len(columns), 1)
    cov = np.linalg.inv(A.T @ A) * (np.sum(r**2) / dof)
    return (
        float(np.ldexp(coef[0], shift)),
        float(np.ldexp(coef[1], shift)),
        float(np.ldexp(np.sqrt(cov[0, 0]), shift)),
        float(np.ldexp(np.sqrt(cov[1, 1]), shift)),
        float(np.ldexp(residual, shift)),
        float(np.ldexp(coef[2], shift)) if with_eps2 else None,
    )


def _check_decreasing(seq, name: str) -> list[float]:
    vals = [float(v) for v in seq]
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValidationError(f"{name} list must be strictly decreasing: {vals}")
    return vals


# ---------------------------------------------------------------------------
# dipole spacing sweep (exact closed-form energy, optional solver column)
# ---------------------------------------------------------------------------

def _dipole_energy(elastic: ElasticConstants, s: float, R: float,
                   h: float) -> float:
    """Bulk energy G of the finite-spacing pair field w on B_R.

    w is biharmonic off its poles y+- with (1/K) Delta^2 w = -|s|
    (delta_+ - delta_-), so ``green_bulk_energy`` gives G exactly from
    the outer-circle pairing and the pole values.

    G is exactly E s^2 times its value at E = 1, |s| = 1 (same nu), so
    the pairing runs at unit size and is scaled last: at a large E the
    squares of Hessian-size terms would overflow although G does not.
    """
    unit = ElasticConstants(1.0, elastic.poisson_nu)
    field = DipoleAiry(elastic=unit, burgers_b=(0.0, 1.0), spacing_h=h)
    mag, plus, minus = field._parts
    G, _ = green_bulk_energy(field, unit, DiskDomain((0.0, 0.0), R),
                             [(plus.shift, mag), (minus.shift, -mag)])
    # ((G E) s) s: s^2 alone can overflow where G E s^2 does not
    return G * elastic.young_E * s * s


def _pair_norm(h: float, R: float) -> float:
    """h^2 log(R/h), a pair field's energy scale, if a normal double."""
    norm = h * h * math.log(R / h)
    if not np.finfo(float).tiny <= norm < math.inf:
        raise ValidationError(
            f"h^2 log(R/h) = {norm} at h={h}, R={R} is not a normal double")
    return norm


def dipole_scaling_sweep(elastic: ElasticConstants, s: float, R: float,
                         h_list, include_solver: bool = False) -> list[dict]:
    """Normalized pair-field energies over decreasing spacings.

    Each row reports the exact G(pair field; B_R) of ``_dipole_energy``,
    and G / (h^2 log(R/h)) against its limit K s^2 / (8 pi); with
    ``include_solver`` the minimizer value of the two-charge functional
    is added, normalized by h^2 |log h| against -K s^2 / (8 pi). The
    solver value is an exact mode sum at every spacing. A scale K s^2 /
    (8 pi) that overflows or is 0 (s = 0, or an underflow) raises
    ``ValidationError``.
    """
    h_values = _check_decreasing(h_list, "spacing")
    if any(not (0.0 < h < R) for h in h_values):
        raise ValidationError(f"spacings must lie in (0, R): {h_values}")
    norms = [_pair_norm(h, R) for h in h_values]
    K = elastic.plane_prefactor
    try:
        limit = K * s**2 / (8.0 * math.pi)
    except OverflowError:  # s**2 itself
        limit = math.inf
    # a zero scale (s = 0, or K s^2 underflowing) leaves no error to report
    if not (math.isfinite(limit) and limit > 0.0):
        raise ValidationError(
            f"the energy scale K s^2 / 8 pi is {limit}, not finite and positive "
            f"(K={K}, s={s})")
    rows = []
    for h, norm in zip(h_values, norms):
        G = _dipole_energy(elastic, s, R, h)
        normalized = G / norm
        row = {
            "param": h,
            "value": G,
            "normalized": normalized,
            "analytic_limit": limit,
            "rel_err": abs(normalized - limit) / limit,
        }
        if include_solver:
            domain = DiskDomain(center=(0.0, 0.0), radius_R=R)
            charges = [
                Disclination(site=(0.5 * h, 0.0), frank_angle_s=s),
                Disclination(site=(-0.5 * h, 0.0), frank_angle_s=-s),
            ]
            rep = solve_clamped_disclination(elastic, domain, charges)
            row["solver_value"] = rep.value
            row["solver_normalized"] = rep.value / (h**2 * abs(math.log(h)))
            row["solver_limit"] = -limit
        rows.append(row)
    return rows


def sweep_to_csv(rows, path) -> None:
    """CSV dump `param,value,normalized,analytic_limit,rel_err`."""
    keys = ("param", "value", "normalized", "analytic_limit", "rel_err")
    write_csv(path, ",".join(keys),
              [np.array([float(row[k]) for row in rows]) for k in keys])


# ---------------------------------------------------------------------------
# pair-field integrand family on annuli and core balls
# ---------------------------------------------------------------------------


# trapezoid nodes of angular_quartic_integral; any count above 6 is exact
_QUARTIC_NODES = 64


def angular_quartic_integral() -> float:
    """Trapezoidal value of the full-circle integral of sin^4 cos^2
    (equals pi/8)."""
    th = 2.0 * math.pi * np.arange(_QUARTIC_NODES) / _QUARTIC_NODES
    return float(np.mean(np.sin(th) ** 4 * np.cos(th) ** 2)) * 2.0 * math.pi


# Angles of the appendix-B ring means. Every integrand is even in x_2,
# and in x_1 too: that flip swaps q+ and q-, and log(q-/q+) enters
# squared. So the mean over the _RING_ANGLES angles is a weighted sum
# over the quarter 0 <= theta <= pi/2, whose two end angles stand for 2
# of them and the others for 4.
_RING_ANGLES = 512


def appendix_b_integrals(h: float, R: float) -> dict:
    """The three pair-field integrals on the annulus and the core ball.

    Ring means over ``_RING_ANGLES`` angles of the three integrands, all
    from one batch of points, integrated in the radius by
    :func:`fields.radial_integral` over the annulus h < r < R and over
    the ball r < h with the pole radius h/2 as a break. Returns raw and
    normalized (by h^2 log(R/h)) values; the normalized annulus triple
    tends to (4 pi, pi/8, pi/2) and the core-ball triple to zero as
    h -> 0.
    """
    if not (0.0 < h < R):
        raise ValidationError(f"need 0 < h < R, got h={h}, R={R}")
    norm = _pair_norm(h, R)
    quarter = _RING_ANGLES // 4
    _, ring, _ = circle_nodes((0.0, 0.0), 1.0, _RING_ANGLES)
    ring = ring[:quarter + 1]
    weights = np.full(quarter + 1, 4.0 / _RING_ANGLES)
    weights[[0, -1]] = 2.0 / _RING_ANGLES

    def ring_terms(r):
        x1 = r[:, None] * ring[:, 0]
        x2 = r[:, None] * ring[:, 1]
        qm = (x1 - 0.5 * h) ** 2 + x2**2
        qp = (x1 + 0.5 * h) ** 2 + x2**2
        with np.errstate(divide="ignore"):
            f1 = np.log(qm / qp) ** 2
        den = (qp * qm) ** 2
        f2 = h**2 * x2**4 * x1**2 / den
        f3 = h**2 * x2**2 * (0.25 * h**2 + x2**2 - x1**2) ** 2 / den
        means = np.stack([f1 @ weights, f2 @ weights, f3 @ weights])
        return 2.0 * math.pi * r * means

    annulus = tuple(float(v) for v in radial_integral(ring_terms, h, R))
    ball = tuple(float(v) for v in radial_integral(ring_terms, 0.0, h, (0.5 * h,)))
    return {
        "annulus": annulus,
        "ball": ball,
        "annulus_normalized": tuple(a / norm for a in annulus),
        "ball_normalized": tuple(b / norm for b in ball),
        "limits": (4.0 * math.pi, math.pi / 8.0, math.pi / 2.0),
    }


# ---------------------------------------------------------------------------
# annulus energy closed forms
# ---------------------------------------------------------------------------


def annulus_energy_closed_form(s: float, eps: float, r: float, R: float,
                               c: ElasticConstants) -> tuple[float, float, float]:
    """Closed-form (G on A_{eps,r}, combined value, vanishing-core error).

    The combined value is the bulk energy plus the core-circle load,
    rewritten as -(s^2/8 pi) K log(1/eps) + (s^2/8 pi) K log r + f_eps.
    """
    if not (0.0 < eps < r <= R):
        raise ValidationError(f"need 0 < eps < r <= R, got {eps}, {r}, {R}")
    K = c.plane_prefactor
    E, nu = c.young_E, c.poisson_nu
    c1 = s**2 / (8.0 * math.pi) * K
    c2 = s**2 / (32.0 * math.pi) * E / ((1.0 - nu) ** 2 * (1.0 + nu))
    e2, r2, R2 = eps**2, r**2, R**2
    shell = (r2 - e2) / (R2 + e2)
    second = c2 * shell * (R2 / r2 - 1.0) * (
        (r2 + e2) / (R2 + e2) * (R2 / r2 + 1.0) - 2.0
    )
    G = c1 * math.log(r / eps) + c1 * shell * ((r2 + e2) / (R2 + e2) - 2.0) + second
    f_eps = c1 * (
        2.0 * (R2 - e2) / (R2 + e2)
        + shell * ((r2 + e2) / (R2 + e2) - 2.0)
        - 2.0 * math.log(R)
    ) + second
    combined = -c1 * math.log(1.0 / eps) + c1 * math.log(r) + f_eps
    return G, combined, f_eps


def vanishing_core_limit_constant(r: float, R: float, magnitude: float,
                                  c: ElasticConstants) -> float:
    """eps -> 0 limit of the per-defect expansion constant f_eps(r, R)."""
    t = r**2 / R**2 if 0.0 < r <= R else math.nan
    # the second term divides by t
    if not t >= np.finfo(float).tiny:
        raise ValidationError(f"need 0 < r <= R, r^2 / R^2 normal, got r={r}, R={R}")
    K = c.plane_prefactor
    E, nu = c.young_E, c.poisson_nu
    first = magnitude**2 / (8.0 * math.pi) * K * (
        2.0 + t * (t - 2.0) - 2.0 * math.log(R)
    )
    second = magnitude**2 / (32.0 * math.pi) * E / ((1.0 - nu) ** 2 * (1.0 + nu)) \
        * t * (1.0 / t - 1.0) * (t * (1.0 / t + 1.0) - 2.0)
    return first + second


# ---------------------------------------------------------------------------
# renormalized energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenormalizedEnergy:
    """Decomposition of the expansion constant for a dislocation system."""

    F_self: float
    F_int: float
    F_elastic: float
    f_DR: float
    separation_D: float

    @property
    def renormalized(self) -> float:
        return self.F_self + self.F_int + self.F_elastic

    @property
    def expansion_constant(self) -> float:
        """Constant term of the |log eps| expansion: F + f(D, R)."""
        return self.renormalized + self.f_DR

    def to_dict(self) -> dict:
        return {
            "F_self": self.F_self,
            "F_int": self.F_int,
            "F_elastic": self.F_elastic,
            "f_DR": self.f_DR,
            "renormalized": self.renormalized,
            "expansion_constant": self.expansion_constant,
            "separation_D": self.separation_D,
        }


def renormalized_energy(dislocations, elastic: ElasticConstants,
                        domain: DiskDomain, D_override: float | None = None,
                        ) -> RenormalizedEnergy:
    """Self/interaction/elastic decomposition plus the geometry constant.

    The core-constrained minimum is evaluated on W = sum_j t_j + z, with
    t_j the zero-core profile of dislocation j and z the elastic
    correction, up to an error that vanishes with eps. The bulk energy
    over the punctured disk plus the core loads <grad w(y_k), Pi(b_k)>
    then splits as follows.

    - Self: inside B_D(y_j) the profile is the centered single-core
      solution, whose energy plus own core load is
      -c_j |log eps| + c_j log D + f(D, R) (``f_DR``). ``F_self`` adds the
      energy of t_j on the disk with only its own ball B_D(y_j) removed,
      and c_j log D.
    - Interaction: for j < k, the cross energy a(t_j, t_k) over the whole
      disk plus both cross core loads. Green's identity for t_j, which is
      biharmonic off y_j, reduces a(t_j, t_k) to the outer-circle pairing
      minus the small-circle limit at y_j; by the minimality of t_j that
      limit is the core load <grad t_k(y_j), Pi(b_j)>, so the pair term is
      the outer-circle pairing plus <grad t_j(y_k), Pi(b_k)>.
    - Elastic: G(z) plus the pairings of the profiles with z on the outer
      circle, from the boundary-relaxation solve. The loads of z at the
      cores cancel the small-circle limits of a(t_j, z) in the same way.

    Every bulk integral is thus reduced exactly to signed circle
    integrals of analytic kernels and point values of profile gradients.
    The circle integrals are trapezoid sums that settle
    (``solver._profile_pairings``, :func:`energy.circle_sums`), and the
    elastic correction's pairing is the sum of the outer-circle pairings
    that the other terms use.

    Every term is exactly E times its value at E = 1 (same nu), so the
    terms are evaluated at E = 1 and scaled last: at a large E the
    squares of Hessian-size terms would overflow although the terms do
    not.
    """
    dislocations = list(dislocations)
    if not dislocations:
        raise ValidationError("need at least one dislocation")
    E = elastic.young_E
    elastic = ElasticConstants(1.0, elastic.poisson_nu)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]
    D_min = min_separation_D([d.site for d in dislocations], domain)
    D = D_min if D_override is None else float(D_override)
    if not (0.0 < D <= D_min):
        raise ValidationError(
            f"separation radius D={D} must lie in (0, {D_min}]"
        )
    R = domain.radius_R
    K = elastic.plane_prefactor
    f_DR = sum(
        vanishing_core_limit_constant(D, R, math.hypot(*d.burgers_b), elastic)
        for d in dislocations
    )

    terms = [
        DislocationLimitAiry(elastic=elastic, burgers_b=d.burgers_b,
                             radius_R=R, site=d.site)
        for d in dislocations
    ]
    # the outer pairings serve all three terms
    P, S = _profile_pairings(elastic, domain, terms, D)
    F_self = 0.0
    for j, d in enumerate(dislocations):
        F_self += 0.5 * (P[j, j] - S[j])
        F_self += K * math.hypot(*d.burgers_b) ** 2 / (8.0 * math.pi) * math.log(D)

    F_int = 0.0
    for j, k in combinations(range(len(terms)), 2):
        load_k = float(
            terms[j].gradient(sites[k][None, :])[0]
            @ rotate_burgers(dislocations[k].burgers_b)
        )
        F_int += P[j, k] + load_k

    _, _, F_elastic, _ = _elastic_correction(elastic, domain, terms,
                                             -float(P.sum()))
    return RenormalizedEnergy(F_self=E * float(F_self), F_int=E * float(F_int),
                              F_elastic=E * F_elastic, f_DR=E * f_DR,
                              separation_D=D)


# ---------------------------------------------------------------------------
# expansion sweeps against the solver
# ---------------------------------------------------------------------------


def _analytic_slope(dislocations, elastic: ElasticConstants) -> float:
    K = elastic.plane_prefactor
    return -K * sum(
        math.hypot(*d.burgers_b) ** 2 for d in dislocations
    ) / (8.0 * math.pi)


def expansion_check(dislocations, elastic: ElasticConstants,
                    domain: DiskDomain, eps_list,
                    fit_tail: int = 3) -> ExpansionFit:
    """Solver values over a decreasing core-radius list, fitted against
    |log eps| and compared with the renormalized-energy constant.

    The fit is ``slope * |log eps| + constant + eps2_coeff * eps^2``: the
    core-constrained minimum carries an O(eps^2) remainder (for one
    centered core it is the (R^2 - eps^2)/(R^2 + eps^2) term of the
    closed form), which at core radii of a tenth of R and more biases a
    two-term fit by several percent. With only two tail samples there is
    no room for the remainder and the two-term fit is used.
    """
    dislocations = list(dislocations)
    if not dislocations:
        raise ValidationError("need at least one dislocation")
    eps_values = _check_decreasing(eps_list, "core radius")
    values = [solve_core_constrained(elastic, domain, dislocations, eps).value
              for eps in eps_values]
    slope, constant, s_err, c_err, residual, eps2 = _fit_log_expansion(
        eps_values, values, fit_tail, eps2_term=True
    )
    renorm = renormalized_energy(dislocations, elastic, domain)
    return ExpansionFit(
        param_name="eps", params=tuple(eps_values), values=tuple(values),
        slope=slope, constant=constant, slope_stderr=s_err,
        constant_stderr=c_err, residual=residual,
        analytic_slope=_analytic_slope(dislocations, elastic),
        predicted_constant=renorm.expansion_constant, eps2_coeff=eps2,
    )


def diagonal_dipole_limit(dipoles, elastic: ElasticConstants,
                          domain: DiskDomain, h_list,
                          fit_tail: int = 3) -> ExpansionFit:
    """Joint spacing/core limit: per spacing h the core radius is
    eps(h) = sqrt(h), clipped below the separation radius; samples whose
    eps is not above h are skipped with a flag.

    A dipole of spacing h < eps loads the core as its dislocation does
    (``solve_dipole_core``), so the samples are the core-radius
    expansion at eps = sqrt(h), and ``predicted_constant`` is that
    expansion's constant: the target dislocations'
    ``renormalized_energy(...).expansion_constant``, as in
    :func:`expansion_check`.
    """
    dipoles = list(dipoles)
    if not dipoles:
        raise ValidationError("need at least one dipole")
    h_values = _check_decreasing(h_list, "spacing")
    D = min_separation_D([dip.center for dip in dipoles], domain)
    eps_used = []
    values = []
    skipped = []
    for h in h_values:
        eps = min(math.sqrt(h), 0.95 * D)
        if not (h < eps):
            skipped.append({"h": h, "eps": eps, "reason": "h >= eps"})
            continue
        sized = [replace(dip, spacing_h=h) for dip in dipoles]
        eps_used.append(eps)
        values.append(solve_dipole_core(elastic, domain, sized, eps).value)
    if len(values) < 2:
        raise NumericalError("too few resolved samples for the diagonal fit")
    slope, constant, s_err, c_err, residual, _ = _fit_log_expansion(
        eps_used, values, fit_tail
    )
    targets = [
        Dislocation(site=dip.center, burgers_b=dip.burgers_b) for dip in dipoles
    ]
    return ExpansionFit(
        param_name="eps", params=tuple(eps_used), values=tuple(values),
        slope=slope, constant=constant, slope_stderr=s_err,
        constant_stderr=c_err, residual=residual,
        analytic_slope=_analytic_slope(targets, elastic),
        predicted_constant=renormalized_energy(
            targets, elastic, domain).expansion_constant,
        skipped=tuple(skipped),
    )
