"""References of the Michell series fit for ``tests/test_solver.py``.

- The five-potential Goursat evaluation of the series traces: every
  trace of a mode comes from its Goursat potentials (phi, phi', phi'',
  chi, chi'), zero ones included, and the sine part of each Michell
  family from potentials rotated by -i. The solver evaluates the same
  traces with fewer operations; both must agree to roundoff.
- The LU solve of the core fit on a system stacked from copies
  (``stacked_least_squares``): the solver builds it in place, and both
  must agree bit for bit.
- The profiles W_p and the constant C0 of the core functional, whose
  residue sums (``profile_problem``) the solver no longer needs: C0
  cancels against the plate energy of the profiles' own correction
  -W_p. The core problem's circle integrals, with the closed forms
  evaluated ring by ring (``core_problem_per_ring``), and the load on
  the affine core data they give: the ball energy and C0 in closed form
  and no load must agree with the rings to roundoff.
- The fit of the profiles' data set (``profile_gram``), the traces of
  -W_p on every circle, by the outer Almansi series and the clamped
  modes: its Gram entries must be the closed forms the solver takes,
  2 C0 / fl with itself and (0, Pi(b_k) / fl) with core k's data sets.
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
from airy_defects.solver import (
    _AlmansiSeries,
    _MichellSeries,
    _core_problem,
    _gram_factor,
    _powers,
)


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


def profile_problem(elastic, domain, dislocations, eps: float):
    """The summed profiles W_p and the constant C0 = (fl/2) int (Delta
    W_p)^2 over the disk less the core balls, by residue sums.

    With z = x_1 + i x_2 and the sites y_j taken from the disk centre,
    Delta W_p = Re f off the cores, f = sum_j A_j (z - y_j) + a_j / (z -
    y_j), a_j = -i K b_j / 2 pi, A_j = gamma conj(a_j). About y_k, f =
    a_k / w + c0_k + c1_k w + ..., w = z - y_k: with d_kj = y_k - y_j, A
    = sum A_j, B = -sum A_j y_j and S = sum a_j, c0_k = sum_{j != k} A_j
    d_kj + a_j / d_kj and c1_k = A - sum_{j != k} a_j / d_kj^2. Let G_k =
    sum_{j,l != k} a_j conj(a_l) g(eps^2 / (d_kj conj(d_kl))), g(x) =
    -log1p(-x) - x - x^2 / 2. C0 = (fl/4) Re(I_sq + I_abs): each area
    integral over the disk less the balls is (1/2i) oint F dz of a
    d_zbar-primitive F, summed by residues with zbar = R^2 / z on r = R
    and conj(y_k) + eps^2 / w on core circle k. F = f^2 zbar gives I_sq
    = int f^2 = pi R^2 (B^2 + 2 A S) - pi sum_k 2 conj(y_k) a_k c0_k +
    eps^2 (2 a_k c1_k + c0_k^2). F = f Psi, Psi = conj(A) zbar^2 / 2 +
    conj(B) zbar + sum_l conj(a_l) log|z - y_l|^2 (single-valued), gives
    Re I_abs = Re int |f|^2 = pi [|A|^2 R^4 / 2 + |B|^2 R^2 + sum_{j,l}
    a_j conj(a_l) L_jl] - pi sum_k 2 Re conj(a_k) (A y_k^2 / 2 + B y_k) +
    eps^2 |c0_k|^2 + eps^4 |c1_k|^2 / 2 + Re G_k, with L_jl = log(1 - y_j
    conj(y_l) / R^2) + log(R^2 / |d_jl|^2), |d_jj| = eps, and 1 - |y_j|^2
    / R^2 taken as (1 - |y_j| / R)(1 + |y_j| / R)."""
    fl = _gram_factor(elastic)
    W_p = SumField(tuple(
        DislocationCoreAiry(elastic=elastic, burgers_b=d.burgers_b, eps=eps,
                            radius_R=domain.radius_R, site=d.site)
        for d in dislocations))
    R, e2, eye = domain.radius_R, eps * eps, np.eye(len(dislocations))
    y = np.array([complex(*d.site) for d in dislocations]) - complex(*domain.center)
    a = -0.5j / math.pi * elastic.plane_prefactor * np.array(
        [complex(*d.burgers_b) for d in dislocations])
    A = W_p.terms[0].coeffs.gamma * a.conj()
    sA, B, S, d = A.sum(), -A @ y, a.sum(), y[:, None] - y
    inv = 1.0 / (d + eye) - eye  # 1 / d_kj, 0 on the diagonal
    c0, c1 = d @ A + inv @ a, sA - inv**2 @ a
    x = e2 * inv[:, :, None] * inv[:, None, :].conj()
    G = (a[:, None] * a.conj() * (-np.log1p(-x) - x - 0.5 * x * x)).sum(axis=(1, 2)).real
    rho = np.abs(y) / R
    L = np.log(1.0 - y[:, None] * y.conj() / R**2)
    np.fill_diagonal(L, np.log((1.0 - rho) * (1.0 + rho)))
    L += 2.0 * np.log(R / (np.abs(d) + eps * eye))
    I_abs = 0.5 * abs(sA * R * R)**2 + abs(B * R)**2 + (a @ L @ a.conj()).real - np.sum(
        2.0 * (a.conj() * (0.5 * sA * y * y + B * y)).real + e2 * np.abs(c0)**2
        + 0.5 * e2 * e2 * np.abs(c1)**2 + G)
    I_sq = (R * R * (B * B + 2.0 * sA * S) - np.sum(
        2.0 * y.conj() * a * c0 + e2 * (2.0 * a * c1 + c0 * c0))).real
    return W_p, float(0.25 * math.pi * fl * (I_abs + I_sq))


def profile_gram(elastic, domain, dislocations, eps: float, m_core: int):
    """The profiles' data set fitted as the solver fitted it before its
    closed form: z_0 is the Almansi series with the traces of -W_p on r
    = R (``_AlmansiSeries.fit``) plus the clamped modes below ``m_core``
    about every core, fitted by least squares to the rest of -W_p's
    traces at the 4 ``m_core`` nodes of each core circle. Returns the
    integral of (Delta z_0)^2 over the disk less the core balls (the
    series' disk integral less its balls, and its pairing with the modes
    and the modes' own square, on the core circles by Green's identity),
    the row of integrals of Delta z_0 Delta z_j against the affine data
    sets (Green's identity against their traces; each z_j is clamped on
    r = R), C0 and the solver's ``_MichellSeries``."""
    W_p, C0 = profile_problem(elastic, domain, dislocations, eps)
    outer = _AlmansiSeries.fit(domain, W_p)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]
    series = _MichellSeries(domain, sites, eps, m_core)
    nc, (cx, cy), R = 4 * m_core, domain.center, domain.radius_R
    circles = [circle_nodes(y, eps, nc) for y in sites]
    pts, nhat = (np.vstack([c[i] for c in circles]) for i in (0, 1))
    nu = (nhat[:, 0] + 1j * nhat[:, 1])[:, None]
    w = ((pts[:, 0] - cx) + 1j * (pts[:, 1] - cy))[:, None] / R
    s_val, s_dn, s_lap, s_dlap = (f[:, 0] for f in interior_fields(
        w, nu, R, outer.A[:, None], outer.B[:, None]))
    value, gradient = W_p.derivatives(pts, ("value", "gradient"))
    v0, d0 = -value - s_val, -(gradient * nhat).sum(axis=-1) - s_dn
    ext = series._rows(pts, nhat)
    rows = np.vstack([ext[0], eps * ext[1]])
    scale = np.abs(rows).max(axis=0)
    coef = np.linalg.lstsq(rows / scale, np.concatenate([v0, eps * d0]), rcond=None)[0] / scale
    m_lap, m_dlap = ext[2] @ coef, ext[3] @ coef
    val, der = np.zeros((2, len(pts), 3 * len(sites)))
    for k, y in enumerate(sites):
        on = slice(k * nc, (k + 1) * nc)
        val[on, 3 * k], val[on, 3 * k + 1:3 * k + 3] = 1.0, pts[on] - y
        der[on, 3 * k + 1:3 * k + 3] = nhat[on]
    weight = -2.0 * math.pi * eps / nc  # the outward normal is -nhat
    square = outer.squares[0] + weight * (
        s_lap @ s_dn - s_dlap @ s_val + 2.0 * (s_lap @ d0 - s_dlap @ v0) + m_lap @ d0 - m_dlap @ v0)
    row = weight * ((s_lap + m_lap) @ der - (s_dlap + m_dlap) @ val)
    return square, row, C0, series


def core_problem_per_ring(elastic, domain, dislocations, eps: float, n: int):
    """The ball energy of ``solver._core_problem``, C0 of
    ``profile_problem`` and the load on the affine core data (value and
    two slopes per core), which vanishes, by trapezoid sums at ``n``
    nodes per ring, every closed form evaluated once per ring (the outer
    circle, then the core circles): C0 = (fl/2) sum over profiles f of the boundary integral
    of Delta f d_n W_p - (d_n Delta f) W_p, the load the slope load
    Pi(b_k) less the circle coupling of the affine data with Delta
    W_p, and the ball energy the FFT of the other profiles' Laplacian
    on each core circle, pi eps^2 (a_0^2 + sum_m (a_m^2 + b_m^2) / (2m
    + 2))."""
    fl = _gram_factor(elastic)
    W_p, _ = profile_problem(elastic, domain, dislocations, eps)
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
    W_p, C0 = profile_problem(elastic, domain, dislocations, eps)
    ball = _core_problem(elastic, domain, dislocations, eps)
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
