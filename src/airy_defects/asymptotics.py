"""Scaling-law sweeps, annulus closed forms and the renormalized energy.

Sweeps drive the closed-form energies and the series solvers over
decreasing spacing/core-radius samples and fit the leading |log eps|
expansion; the renormalized energy, a closed form in the clamped
Green's function of the disk, provides the constant term the fits are
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from .closedform import DipoleAiry, clamped_green_mixed
from .energy import green_bulk_energy
from .fields import circle_nodes, radial_integral, write_csv
from .solver import (
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
    solver value is the closed form of the clamped Green's function at
    every spacing. A scale K s^2 /
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


# ---------------------------------------------------------------------------
# renormalized energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenormalizedEnergy:
    """The expansion constant of a dislocation system, split into the
    sum of the self terms and the pair interactions."""

    self_energy: float
    interaction: float

    @property
    def expansion_constant(self) -> float:
        """Constant term of the |log eps| expansion."""
        return self.self_energy + self.interaction

    def to_dict(self) -> dict:
        return {
            "self_energy": self.self_energy,
            "interaction": self.interaction,
            "expansion_constant": self.expansion_constant,
        }


def renormalized_energy(dislocations, elastic: ElasticConstants,
                        domain: DiskDomain) -> RenormalizedEnergy:
    """The constant C of the core-constrained minimum's expansion
    -(K sum_k |b_k|^2 / 8 pi) |log eps| + C + o(1), in closed form from
    Boggio's clamped Green's function G_B of the disk of radius R
    (``closedform.clamped_green``).

    As eps -> 0, the zero-core profile of dislocation k plus its share
    of the elastic correction is K (Jb_k . grad_y) G_B(., y_k), Jb =
    (-b_2, b_1): an edge dislocation's field is the y-derivative of a
    disclination's. Split G_B = Phi + H, with Phi(d) = |d|^2 log|d|^2 /
    16 pi the fundamental solution and H regular on the closed disk.
    Green's identity on the disk minus the core balls turns the energy
    plus the core loads into point values:
    - each pair i != j gives -(K/2) (Jb_i.grad_x)(Jb_j.grad_y)
      G_B(y_i, y_j), and so does (j, i);
    - dislocation k gives the core part of Phi, -(K |b_k|^2 / 8 pi)
      |log eps| + C_0(b_k), where C_0 depends on neither y_k nor R (Phi
      knows neither), plus -(K/2) (Jb_k.grad_x)(Jb_k.grad_y) H(y_k, y_k).
    One centred dislocation fixes C_0(b) = K |b|^2 / 8 pi: its
    closed-form minimum -(K |b|^2 / 8 pi)(log(R / eps) - (R^2 - eps^2)
    / (R^2 + eps^2)) has the constant K |b|^2 (1 - log R) / 8 pi, and
    16 pi (a.grad_x)(a.grad_y) H(0, 0) = 4 |a|^2 log R.

    At x = y, the mixed derivative of 16 pi H = A - |d|^2 log S
    (``closedform.clamped_green_mixed``) is 4 (a.y)(c.y) / R^2 + 2 (a.c)
    log A, with A = S = (R^2 - |y|^2)^2 / R^2. So the self term of
    dislocation k is

      (K / 8 pi) [|b_k|^2 (1 - log((R^2 - |y_k|^2) / R)) - (Jb_k.y_k)^2 / R^2],

    and C = sum_k self_k - K sum_{i<j} (Jb_i.grad_x)(Jb_j.grad_y)
    G_B(y_i, y_j). R^2 - |y|^2 is taken as (R - |y|)(R + |y|), so a
    site near the circle loses no digits.

    Sites outside the disk (``min_separation_D``) and coincident sites
    raise ``ValidationError``. Both parts are E times their values at
    E = 1 (same nu); they are evaluated there and scaled last.
    """
    dislocations = list(dislocations)
    if not dislocations:
        raise ValidationError("need at least one dislocation")
    if not min_separation_D([d.site for d in dislocations], domain) > 0.0:
        raise ValidationError("dislocation sites must be pairwise distinct")
    R = domain.radius_R
    K = ElasticConstants(1.0, elastic.poisson_nu).plane_prefactor
    y = np.array([d.site for d in dislocations]) - np.asarray(domain.center)
    r = np.hypot(y[:, 0], y[:, 1]) / R
    # Pi(b) = -Jb: every term is a product of two of them
    Pi = np.array([rotate_burgers(d.burgers_b) for d in dislocations])
    self_terms = K / (8.0 * math.pi) * (
        (Pi**2).sum(axis=-1) * (1.0 - math.log(R) - np.log((1.0 - r) * (1.0 + r)))
        - ((Pi * y).sum(axis=-1) / R) ** 2)
    i, j = np.triu_indices(len(y), 1)
    # 0.0 - keeps the +0.0 of a lone dislocation
    interaction = 0.0 - K * float(clamped_green_mixed(y[i], y[j], Pi[i], Pi[j], R).sum())
    return RenormalizedEnergy(self_energy=elastic.young_E * float(self_terms.sum()),
                              interaction=elastic.young_E * interaction)


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
