"""The three-term decomposition of the renormalized energy, a reference
for ``renormalized_energy``'s closed form in ``tests/test_asymptotics.py``.

The core-constrained minimum is evaluated on W = sum_j t_j + z, with
t_j the zero-core profile of dislocation j and z the elastic
correction, up to an error that vanishes with eps. The bulk energy over
the punctured disk plus the core loads <grad w(y_k), Pi(b_k)> then
splits as follows, around a separation radius D.

- Self: inside B_D(y_j) the profile is the centered single-core
  solution, whose energy plus own core load is -c_j |log eps| + c_j log
  D + f(D, R) (``f_DR``, from ``vanishing_core_limit_constant``).
  ``F_self`` adds the energy of t_j on the disk with only its own ball
  B_D(y_j) removed, and c_j log D.
- Interaction: for j < k, the cross energy a(t_j, t_k) over the whole
  disk plus both cross core loads. Green's identity for t_j, which is
  biharmonic off y_j, reduces a(t_j, t_k) to the outer-circle pairing
  minus the small-circle limit at y_j; by the minimality of t_j that
  limit is the core load <grad t_k(y_j), Pi(b_j)>, so the pair term is
  the outer-circle pairing plus <grad t_j(y_k), Pi(b_k)>.
- Elastic: G(z) plus the pairings of the profiles with z on the outer
  circle, from the boundary-relaxation solve (``solve_elastic_correction``).
  The loads of z at the cores cancel the small-circle limits of a(t_j,
  z) in the same way.

Every bulk integral is thus reduced to signed circle integrals of
analytic kernels, trapezoid sums that settle (``energy.circle_sums``),
and point values of profile gradients. Each term is E times its value
at E = 1 (same nu), where it is evaluated.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from airy_defects.closedform import DislocationLimitAiry
from airy_defects.core import (
    ElasticConstants,
    ValidationError,
    min_separation_D,
    rotate_burgers,
)
from airy_defects.energy import _pairing_means, _pairing_traces, circle_sums
from airy_defects.solver import solve_elastic_correction


def vanishing_core_limit_constant(r: float, R: float, magnitude: float,
                                  c: ElasticConstants) -> float:
    """eps -> 0 limit of the per-defect expansion constant f_eps(r, R) of
    ``asymptotics.annulus_energy_closed_form``."""
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


@dataclass(frozen=True)
class Decomposition:
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
        return self.renormalized + self.f_DR


def profile_pairings(elastic: ElasticConstants, domain, terms, D: float):
    """Boundary pairings of the zero-core profiles ``terms``, each
    profile evaluated once per level: P[j, k] of j's moments with k's
    values on the outer circle, and S[j] of j with itself on its circle
    of radius D."""
    R, T = domain.radius_R, len(terms)
    circles = [(domain.center, R)] + [(t.site, D) for t in terms]
    factor = 2.0 * math.pi * (1.0 + elastic.poisson_nu) / elastic.young_E

    def traces(pts, nhat):
        n = len(pts) // len(circles)
        own = [np.r_[:n, (j + 1) * n:(j + 2) * n] for j in range(T)]
        return np.array([_pairing_traces(t, pts[i], nhat[i], elastic.poisson_nu)
                         for t, i in zip(terms, own)])

    def sums(x):  # x[j]: profile j's moments and values, (2, 4, circle, node)
        P = [R * _pairing_means(x[j, 0, :, :1], x[:, 1, :, :1])[:, 0] for j in range(T)]
        S = [D * _pairing_means(x[j, 0, :, 1:], x[j, 1, :, 1:])[0] for j in range(T)]
        return factor * np.concatenate([np.ravel(P), S])

    pairs, _ = circle_sums(circles, traces, sums,
                           max(t.K * t.magnitude**2 for t in terms) / (8.0 * math.pi))
    return pairs[:T * T].reshape(T, T), pairs[T * T:]


def renormalized_decomposition(dislocations, elastic: ElasticConstants,
                               domain, D: float | None = None) -> Decomposition:
    """Self, interaction and elastic terms and the geometry constant,
    about the separation radius ``D`` (by default ``min_separation_D``)."""
    dislocations = list(dislocations)
    E = elastic.young_E
    elastic = ElasticConstants(1.0, elastic.poisson_nu)
    D_min = min_separation_D([d.site for d in dislocations], domain)
    D = D_min if D is None else float(D)
    if not (0.0 < D <= D_min):
        raise ValidationError(f"separation radius D={D} must lie in (0, {D_min}]")
    R, K = domain.radius_R, elastic.plane_prefactor
    f_DR = sum(
        vanishing_core_limit_constant(D, R, math.hypot(*d.burgers_b), elastic)
        for d in dislocations)
    terms = [DislocationLimitAiry(elastic=elastic, burgers_b=d.burgers_b,
                                  radius_R=R, site=d.site) for d in dislocations]
    P, S = profile_pairings(elastic, domain, terms, D)
    F_self = 0.0
    for j, d in enumerate(dislocations):
        F_self += 0.5 * (P[j, j] - S[j])
        F_self += K * math.hypot(*d.burgers_b) ** 2 / (8.0 * math.pi) * math.log(D)
    F_int = 0.0
    for j, k in combinations(range(len(terms)), 2):
        load_k = float(terms[j].gradient(np.array([dislocations[k].site]))[0]
                       @ rotate_burgers(dislocations[k].burgers_b))
        F_int += P[j, k] + load_k
    # the correction's boundary pairing is minus the profiles' own
    F_elastic = (solve_elastic_correction(elastic, domain, dislocations)
                 .extras["hessian_energy"] - float(P.sum()))
    return Decomposition(F_self=E * float(F_self), F_int=E * float(F_int),
                         F_elastic=E * F_elastic, f_DR=E * f_DR, separation_D=D)
