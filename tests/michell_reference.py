"""References of the Michell series fit for ``tests/test_solver.py``.

- The five-potential Goursat evaluation of the series traces: every
  trace of a mode comes from its Goursat potentials (phi, phi', phi'',
  chi, chi'), zero ones included, and the sine part of each Michell
  family from potentials rotated by -i. The solver evaluates the same
  traces with fewer operations; both must agree to roundoff.
- The LU solve of the core fit on a system stacked from copies
  (``stacked_least_squares``): the solver builds it in place, and both
  must agree bit for bit.
- The core problem's circle integrals, with the closed forms evaluated
  ring by ring (``core_problem_per_ring``), and the load on the affine
  core data they give: the solver takes the ball energy and C0 in
  closed form and no load, and must agree with the rings to roundoff.
- The two-block core fit the solver used before its modes were clamped
  (``two_block_value``): Almansi modes about the disk centre and
  unclamped Michell modes about each core, fitted to the traces on every
  circle, the outer one included, by least squares. Its value must agree
  with the clamped fit's.
"""

import math
from dataclasses import replace

import numpy as np

from airy_defects.closedform import DislocationCoreAiry, SumField
from airy_defects.core import NumericalError, rotate_burgers
from airy_defects.fields import circle_nodes
from airy_defects.solver import _core_problem, _gram_factor, _powers


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
    """The four traces of the exterior modes of one core, as columns in
    the solver's order: the heads, then the cosine and the sine part of
    each power mode side by side."""
    parts = [goursat_fields(zeta, nu, eps, p)
             for p in michell_potentials(zeta, m_core)]
    powers = 2 * m_core - 3
    order = np.r_[0:4, np.stack([4 + np.arange(powers), 4 + powers + np.arange(powers)],
                                -1).ravel()]
    return [np.hstack(q)[:, order] for q in zip(*parts)]


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
    """The ball energy and C0 of ``solver._core_problem`` and the load
    on the affine core data (value and two slopes per core), which
    vanishes, by trapezoid sums at ``n`` nodes per ring, every closed
    form evaluated once per ring (the outer circle, then the core
    circles): C0 = (fl/2) sum over profiles f of the boundary integral
    of Delta f d_n W_p - (d_n Delta f) W_p, the load the slope load
    Pi(b_k) less the circle coupling of the affine data with Delta
    W_p, and the ball energy the FFT of the other profiles' Laplacian
    on each core circle, pi eps^2 (a_0^2 + sum_m (a_m^2 + b_m^2) / (2m
    + 2))."""
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
        value, gradient = W_p.derivatives(pts, ("value", "gradient"))
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


def two_block_value(elastic, domain, dislocations, eps: float, m_inner: int,
                    m_core: int) -> float:
    """The core-constrained minimum with the smooth correction z as Almansi
    modes k < m_inner about the centre (real and imaginary parts of A_k
    and B_k) plus the exterior Michell modes below m_core about every
    core, each data set fitted by least squares to its value and radius d_n
    traces at 4 m_inner nodes of r = R and 4 m_core of each core circle,
    and the plate energy from Green's identity on all circles against the
    data traces, as the solver's ``minimum`` takes it."""
    fl = _gram_factor(elastic)
    W_p, ball, C0 = _core_problem(elastic, domain, dislocations, eps)
    (cx, cy), R, K = domain.center, domain.radius_R, len(dislocations)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]
    circles = [(domain.center, R, 4 * m_inner, 1.0)] + [
        (y, eps, 4 * m_core, -1.0) for y in sites]
    eye, zero = np.eye(m_inner), np.zeros((m_inner, m_inner))
    A, B = np.hstack([eye, 1j * eye, zero, zero]), np.hstack([zero, zero, eye, 1j * eye])
    planes, data, weights = [], [], []
    for k, (centre, radius, n, sign) in enumerate(circles):
        pts, nhat, _ = circle_nodes(centre, radius, n)
        nu = (nhat[:, 0] + 1j * nhat[:, 1])[:, None]
        w = ((pts[:, 0] - cx) + 1j * (pts[:, 1] - cy))[:, None] / R
        columns = [interior_fields(w, nu, R, A, B)] + [michell_fields(
            ((pts[:, 0] - y[0]) + 1j * (pts[:, 1] - y[1]))[:, None] / eps, nu, eps, m_core)
            for y in sites]
        planes.append([np.hstack(q) for q in zip(*columns)])
        val, der = np.zeros((2, n, 1 + 3 * K))
        value, gradient = W_p.derivatives(pts, ("value", "gradient"))
        val[:, 0], der[:, 0] = -value, -(gradient * nhat).sum(axis=-1)
        if k:
            val[:, 3 * k - 2], val[:, 3 * k - 1:3 * k + 1] = 1.0, pts - centre
            der[:, 3 * k - 1:3 * k + 1] = nhat
        data.append((val, der, radius))
        weights.append(sign * 2.0 * math.pi * radius / n)
    rows = np.vstack([np.vstack([p[0], r * p[1]]) for p, (_, _, r) in zip(planes, data)])
    rhs = np.vstack([np.vstack([v, r * d]) for v, d, r in data])
    coef = np.linalg.lstsq(rows, rhs, rcond=1e-14)[0]
    Q = sum(w * ((p[2] @ coef).T @ d - (p[3] @ coef).T @ v)
            for p, (v, d, _), w in zip(planes, data, weights))
    Q = 0.5 * (Q + Q.T)
    u = np.linalg.solve(Q[1:, 1:], -Q[1:, 0])
    energy = Q[0, 0] + 2.0 * Q[0, 1:] @ u + u @ Q[1:, 1:] @ u + ball
    return float(0.5 * fl * energy - C0)
