"""Spectral reference for the pure-trace disk problems of ``trace_ladder``.

A biharmonic function on the disk r < R is, mode by mode, the Almansi
pair ``a_k r^|k| + b_k r^(|k|+2)`` times ``e^{ik theta}``. Its value and
normal derivative on r = R fix each pair through a 2x2 solve on the FFT
coefficients of the two traces, and the plate-energy integrals of the
series are then exact sums over modes. Nothing here calls the package:
the boundary traces of the singular fields are restated from the
closed forms documented in ``airy_defects.closedform``, so the reference
is independent of both the finite-difference solver and the program's
closed-form code.
"""

from __future__ import annotations

import math

import numpy as np

# Fourier modes of the boundary traces. The singular sites of the
# benchmark inputs stay at least 0.6 R inside the circle, so the trace
# coefficients decay like 0.4^k and 256 modes reach roundoff.
N_MODES = 256


def _boundary(center, R: float, m: int = N_MODES):
    th = 2.0 * math.pi * np.arange(m) / m
    nhat = np.stack([np.cos(th), np.sin(th)], axis=-1)
    return np.asarray(center, dtype=float) + R * nhat, nhat


def almansi_modes(value: np.ndarray, normal_derivative: np.ndarray, R: float):
    """Mode numbers k and the Almansi coefficients (a_k, b_k) of the
    biharmonic function with the given equispaced traces on r = R."""
    m_pts = len(value)
    F = np.fft.fft(value) / m_pts
    G = np.fft.fft(normal_derivative) / m_pts
    k = np.rint(np.fft.fftfreq(m_pts, 1.0 / m_pts)).astype(int)
    m = np.abs(k).astype(float)
    # a R^m + b R^(m+2) = F,  m a R^(m-1) + (m+2) b R^(m+1) = G;
    # the determinant is 2 R^(2m+1)
    det = 2.0 * R ** (2.0 * m + 1.0)
    a = (F * (m + 2.0) * R ** (m + 1.0) - G * R ** (m + 2.0)) / det
    b = (G * R**m - F * m * R ** (m - 1.0)) / det
    return k, a, b


def laplacian_square(k, b, R: float) -> float:
    """Integral of (Laplacian z)^2 over the disk: Delta of
    b r^(m+2) e^{ik theta} is 4 (m+1) b r^m e^{ik theta}."""
    m = np.abs(k).astype(float)
    return float(np.sum(16.0 * math.pi * (m + 1.0) * np.abs(b) ** 2 * R ** (2.0 * m + 2.0)))


def wirtinger_square(k, a, b, R: float) -> float:
    """Integral of |4 d_z^2 z|^2 over the disk.

    Only modes k >= 1 contribute: 4 d_z^2 of (a + b |z|^2) z^k is
    alpha r^j + beta r^(j+2) in angular mode j = k - 2, with
    alpha = 4 a k (k-1) and beta = 4 b k (k+1).
    """
    pos = k >= 1
    kk = k[pos].astype(float)
    j = kk - 2.0
    alpha = 4.0 * a[pos] * kk * (kk - 1.0)
    beta = 4.0 * b[pos] * kk * (kk + 1.0)
    # |alpha|^2 vanishes for k = 1, where its radial integral would diverge
    with np.errstate(divide="ignore", invalid="ignore"):
        aa = np.where(kk >= 2.0, np.abs(alpha) ** 2 * R ** (2.0 * j + 2.0) / (2.0 * j + 2.0), 0.0)
    ab = 2.0 * (alpha * np.conj(beta)).real * R ** (2.0 * j + 4.0) / (2.0 * j + 4.0)
    bb = np.abs(beta) ** 2 * R ** (2.0 * j + 6.0) / (2.0 * j + 6.0)
    return float(2.0 * math.pi * np.sum(aa + ab + bb))


def _fundamental_traces(K: float, site, bpts, nhat):
    """Value and normal derivative of K |x - y|^2 log|x - y|^2 / (16 pi)."""
    rel = bpts - np.asarray(site, dtype=float)
    u = (rel**2).sum(axis=-1)
    value = K / (16.0 * math.pi) * u * np.log(u)
    dn = K / (8.0 * math.pi) * (np.log(u) + 1.0) * (rel * nhat).sum(axis=-1)
    return value, dn


def _limit_dislocation_traces(K: float, R: float, site, burgers, bpts, nhat):
    """Value and normal derivative of the zero-core dislocation profile
    (|b| K / 8 pi) f(|xi|^2) xi_1, f(u) = 1 - log R^2 - u / R^2 + log u,
    in the frame xi = Q (x - y) whose rows are Pi(b)/|b| and b/|b|,
    with Pi(b) = (b2, -b1)."""
    b = np.asarray(burgers, dtype=float)
    nb = math.hypot(b[0], b[1])
    Q = np.array([[b[1], -b[0]], [b[0], b[1]]]) / nb
    xi = (bpts - np.asarray(site, dtype=float)) @ Q.T
    u = (xi**2).sum(axis=-1)
    c0 = nb * K / (8.0 * math.pi)
    f = 1.0 - math.log(R * R) - u / (R * R) + np.log(u)
    df = 1.0 / u - 1.0 / (R * R)
    grad_xi = np.stack([2.0 * df * xi[:, 0] ** 2 + f, 2.0 * df * xi[:, 0] * xi[:, 1]], axis=-1)
    value = c0 * f * xi[:, 0]
    dn = c0 * (grad_xi * (nhat @ Q.T)).sum(axis=-1)
    return value, dn


def clamped_disclination_gram(E: float, nu: float, center, R: float,
                              sites, charges) -> float:
    """Gram part (1 - nu^2)/(2E) * int (Delta z)^2 of the split clamped
    disclination problem: z is biharmonic with the traces of
    sum_i s_i F(x - y_i), which cancel those of the subtracted
    singular part -sum_i s_i F(x - y_i)."""
    K = E / (1.0 - nu * nu)
    bpts, nhat = _boundary(center, R)
    value = np.zeros(len(bpts))
    dn = np.zeros(len(bpts))
    for site, s in zip(sites, charges):
        v, d = _fundamental_traces(K, site, bpts, nhat)
        value += s * v
        dn += s * d
    k, _, b = almansi_modes(value, dn, R)
    return 0.5 * (1.0 - nu * nu) / E * laplacian_square(k, b, R)


def elastic_correction_hessian_energy(E: float, nu: float, center, R: float,
                                      sites, burgers) -> float:
    """Hessian-form energy (1 + nu)/(2E) * int |D^2 v|^2 - nu (Delta v)^2
    of the biharmonic v whose traces are minus those of the summed
    zero-core dislocation profiles. Uses |D^2 v|^2 =
    ((Delta v)^2 + |4 d_z^2 v|^2) / 2."""
    K = E / (1.0 - nu * nu)
    bpts, nhat = _boundary(center, R)
    value = np.zeros(len(bpts))
    dn = np.zeros(len(bpts))
    for site, bv in zip(sites, burgers):
        v, d = _limit_dislocation_traces(K, R, site, bv, bpts, nhat)
        value -= v
        dn -= d
    k, a, b = almansi_modes(value, dn, R)
    lap2 = laplacian_square(k, b, R)
    wirt2 = wirtinger_square(k, a, b, R)
    return (1.0 + nu) / (2.0 * E) * ((0.5 - nu) * lap2 + 0.5 * wirt2)
