"""References of the Michell series fit for ``tests/test_solver.py``.

- The five-potential Goursat evaluation of the series traces: every
  trace of a mode comes from its Goursat potentials (phi, phi', phi'',
  chi, chi'), zero ones included, and the sine part of each Michell
  family from potentials rotated by -i. The solver evaluates the same
  traces with fewer operations; both must agree to roundoff.
- The LU solve of the core fit on a system stacked from copies
  (``stacked_least_squares``) and the core problem's circle integrals
  with the closed forms evaluated ring by ring
  (``core_problem_per_ring``): the solver builds the one in place and
  evaluates the other on all rings at once, at the node count its
  circle rule settles on, and both must agree bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from airy_defects.closedform import DislocationCoreAiry, SumField
from airy_defects.core import NumericalError, rotate_burgers
from airy_defects.fields import circle_nodes
from airy_defects.solver import _gram_factor, _powers


def goursat_fields(zeta, nu, L: float, potentials):
    """Value, normal derivative, Laplacian and normal derivative of the
    Laplacian of f = Re(conj(zeta) phi(zeta) + chi(zeta)), zeta = (x - p)
    / L, along the complex unit normals nu, from the potentials
    (phi, phi', phi'', chi, chi'): grad f = phi + zeta conj(phi') +
    conj(chi') and Delta f = 4 Re phi' in units of L."""
    phi, dphi, ddphi, chi, dchi = potentials
    grad = (phi + zeta * np.conj(dphi) + np.conj(dchi)) / L  # d_x + i d_y
    return ((np.conj(zeta) * phi + chi).real, (grad * np.conj(nu)).real,
            4.0 * dphi.real / L**2, 4.0 * (ddphi * nu).real / L**3)


def interior_potentials(w, A: np.ndarray, B: np.ndarray):
    """Goursat potentials of Re sum_k c_k (A_k + B_k |w|^2) w^k (c_0 = 1,
    c_k = 2 for k >= 1) at the (N, 1) column w, one column per
    coefficient column: chi = sum c_k A_k w^k and phi = sum c_k B_k
    w^(k+1)."""
    k = np.arange(len(A))[:, None]
    c = np.where(k > 0, 2.0, 1.0)
    cA, cB = c * A, c * B
    P = _powers(w, len(A))
    dP = np.zeros_like(P)
    dP[:, 1:] = P[:, :-1] * k[1:, 0]
    return (w * (P @ cB), P @ ((k + 1) * cB), dP @ ((k + 1) * cB),
            P @ cA, dP @ cA)


def michell_potentials(zeta, m_core: int):
    """Goursat potentials of the exterior Michell modes about one core,
    family by family, at the (N, 1) column zeta = (x - y) / eps: log rho,
    rho^2 log rho, rho log rho cos theta and sin theta, then the cosine
    and the sine parts of rho^-m (1 <= m < M_e) and rho^(2-m)
    (2 <= m < M_e) times e^{im theta}."""
    log, inv = np.log(zeta), 1.0 / zeta
    zero = np.zeros_like(zeta)
    yield zero, zero, zero, log, inv
    yield zeta * log, log + 1.0, inv, zero, zero
    # rho log rho (cos, sin) theta = Re(conj(zeta) phi + chi) with
    # (phi, chi) = (log zeta, zeta log zeta) / 2 times (1, 1) and (i, -i)
    half = (0.5 * log, 0.5 * inv, -0.5 * inv**2, 0.5 * zeta * log,
            0.5 * (log + 1.0))
    yield half
    yield tuple(s * p for s, p in zip((1j, 1j, 1j, -1j, -1j), half))
    m = np.arange(1, m_core)
    t = _powers(inv, m_core)[:, 1:]  # zeta^-m
    none = np.zeros_like(t)
    for rot in (1.0, -1j):  # Re(rot F) is the cosine, then the sine part
        yield none, none, none, rot * t, -rot * m * t * inv
        # |zeta|^2 zeta^-m: phi = zeta^(1-m)
        yield (rot * zeta * t[:, 1:], rot * (1 - m[1:]) * t[:, 1:],
               rot * m[1:] * (m[1:] - 1) * t[:, 1:] * inv,
               none[:, 1:], none[:, 1:])


def interior_fields(w, nu, R: float, A, B):
    """The four traces of the interior Almansi modes, as columns."""
    return goursat_fields(w, nu, R, interior_potentials(w, A, B))


def michell_fields(zeta, nu, eps: float, m_core: int):
    """The four traces of the exterior modes of one core, as columns."""
    parts = [goursat_fields(zeta, nu, eps, p)
             for p in michell_potentials(zeta, m_core)]
    return [np.hstack(q) for q in zip(*parts)]


def stacked_least_squares(A: np.ndarray, B: np.ndarray):
    """``solver._least_squares`` of the square system [A B] on copies:
    the scaled A is a new C-ordered array, and B and the two probes of
    the condition estimate are stacked into another, which one LU
    (``np.linalg.solve``) solves."""
    n = A.shape[1]
    scale = np.abs(A).max(axis=0)
    scale[scale == 0.0] = 1.0
    A = A / scale
    probes = np.array([[1.0, (-1.0) ** k * x]
                       for k, x in enumerate(np.linspace(1.0, 2.0, n))])
    try:
        X = np.linalg.solve(A, np.hstack([B, probes]))
    except np.linalg.LinAlgError:
        raise NumericalError("core series fit is rank deficient") from None
    norm = max(float(np.sum(np.abs(A[:, j]))) for j in range(n))
    condition = norm * float(np.max(
        np.abs(X[:, -2:]).sum(axis=0) / np.abs(probes).sum(axis=0)))
    if not condition < 1.0 / (n * np.finfo(float).eps):
        raise NumericalError("core series fit is rank deficient")
    return X[:, :-2] / scale[:, None], condition


def core_problem_per_ring(elastic, domain, dislocations, eps: float, n: int):
    """(ball, C0, load) of ``solver._core_problem`` at ``n`` nodes per
    ring, every closed form evaluated once per ring (the outer circle,
    then the core circles)."""
    fl = _gram_factor(elastic)
    W_p = SumField(tuple(
        DislocationCoreAiry(elastic=elastic, burgers_b=d.burgers_b, eps=eps,
                            radius_R=domain.radius_R, site=d.site)
        for d in dislocations))
    branches = [replace(t, annulus_branch=True) for t in W_p.terms]
    rings = [(1.0, *circle_nodes(domain.center, domain.radius_R, n))] + [
        (-1.0, *circle_nodes(d.site, eps, n)) for d in dislocations]
    traces = []
    for _, pts, nhat, _ in rings:
        value, gradient = W_p.value_and_gradient(pts)
        traces.append(([t.laplacian(pts) for t in branches],
                       [(t.grad_laplacian(pts) * nhat).sum(axis=-1) for t in branches],
                       value, (gradient * nhat).sum(axis=-1)))
    C0 = 0.5 * fl * sum(
        sum(sign * ring * float(np.mean(lap[i] * g_dn - dnlap[i] * g_val))
            for (sign, _, _, ring), (lap, dnlap, g_val, g_dn) in zip(rings, traces))
        for i in range(len(branches)))
    load, ball = np.zeros(3 * len(dislocations)), 0.0
    for k, d in enumerate(dislocations):
        (_, _, nh, ring), (lap, dnlap, _, _) = rings[k + 1], traces[k + 1]
        lap_p, dnlap_p, Pi = sum(lap), sum(dnlap), rotate_burgers(d.burgers_b)
        load[3 * k] = fl * ring * float(np.mean(dnlap_p))
        for a in (0, 1):
            load[3 * k + 1 + a] = Pi[a] - fl * ring * float(
                np.mean(lap_p * nh[:, a] - dnlap_p * eps * nh[:, a]))
        H = np.fft.rfft(np.zeros(len(nh)) + sum(
            f for j, f in enumerate(lap) if j != k)) / len(nh)
        m = np.arange(1, len(H))
        ball += math.pi * eps**2 * (
            H[0].real ** 2 + float(np.sum(2.0 * np.abs(H[1:]) ** 2 / (m + 1.0))))
    return ball, C0, load
