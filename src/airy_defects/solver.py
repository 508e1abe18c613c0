"""Minimization of the defect functionals on a disk.

The pure-trace problems (the split clamped disclination and the elastic
correction of the renormalized energy) need a biharmonic field on the
whole disk with prescribed value and normal derivative on r = R. Mode
by mode it has Almansi's closed form ``a_k r^|k| + b_k r^(|k|+2)``
(Michell 1899): an FFT of the two traces and a 2x2 solve per mode give
the coefficients, the plate energies are exact sums over modes, and the
reported grid field is the summed series.

The core-constrained problem lives on the punctured disk, B_R minus the
core balls. Its smooth correction is biharmonic there, so it is a
multi-centre Michell series: the Almansi modes about the disk centre
plus, about each core, the exterior modes log r, r^2 log r, r log r
(cos, sin) theta, r^-m and r^(2-m) (cos, sin) m theta. The interior
coefficients follow from the outer-circle traces by the same FFT; the
core coefficients are fitted by least squares at collocation nodes on
the core circles and at the outer-circle frequencies the interior modes
cannot reach. Green's identity on the circles turns the plate energy
into exact circle integrals, which leave one 3K x 3K system for the
affine parameters of the K cores. Mode counts double until the fit
residual meets its target or stops falling, so the value does not
depend on the report grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field, replace
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .core import (
    DiskDomain,
    Dislocation,
    ElasticConstants,
    NumericalError,
    ValidationError,
    min_separation_D,
    rotate_burgers,
)
from .closedform import (
    DislocationCoreAiry,
    DislocationLimitAiry,
    FundamentalAiry,
    ScaledField,
    ShiftedField,
    SumField,
)
from .energy import _pair_energy_boundary
from .fields import (
    CORE,
    OUTSIDE,
    ScalarField,
    build_mask,
    circle_nodes,
    grid_for_disk,
)


def splu(A, *args, **kwargs):
    """``scipy.sparse.linalg.splu``, imported only when called.

    Nothing in the package factors a sparse matrix. The name stays
    only because ``bench/tracing.py`` wraps it, until the benchmark
    drops its ``splu`` layer (ROADMAP item 4).
    """
    from scipy.sparse.linalg import splu as factor

    return factor(A, *args, **kwargs)


@dataclass(frozen=True)
class SolveReport:
    """Functional value, solve diagnostics and the minimizer on the grid.

    ``field`` is sampled on the grid of size ``grid_n`` the first time it
    is read (by calling ``sampler``) and kept; a report whose field is
    never read costs no grid work. ``assemble_seconds`` is the time of
    the series fit, and ``solve_seconds`` is 0.0: the solve samples
    nothing.
    """

    value: float
    residual: float
    method: str
    grid_n: int
    delta: float
    iterations: int
    assemble_seconds: float
    sampler: Callable[[], ScalarField] = dataclass_field(repr=False,
                                                         compare=False)
    extras: dict = dataclass_field(default_factory=dict)
    solve_seconds: ClassVar[float] = 0.0

    @cached_property
    def field(self) -> ScalarField:
        return self.sampler()

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "method": self.method,
            "grid_n": self.grid_n,
            "delta": self.delta,
            "iterations": self.iterations,
            "assemble_seconds": self.assemble_seconds,
            "solve_seconds": self.solve_seconds,
            "extras": dict(self.extras),
        }


# Largest relative residual a solve may leave: the collocation residual
# of a series fit.
_RESIDUAL_BOUND = 1e-8

# trapezoid nodes on each circle of the boundary pairings
_N_QUAD = 512


def _gram_factor(elastic: ElasticConstants) -> float:
    return (1.0 - elastic.poisson_nu**2) / elastic.young_E


def _keeps_doubling(residual: float, previous: float | None,
                    target: float) -> bool:
    """Refinement rule of the series fits: double the mode count while
    the fit residual is above ``target``, except once it is within
    ``_RESIDUAL_BOUND`` and the last doubling failed to halve it. Such a
    residual sits on its roundoff floor, and more modes only cost time;
    above the bound a stalled residual is still pre-asymptotic (a site
    near the circle needs hundreds of modes before its decay shows)."""
    return residual > target and (
        previous is None or residual > _RESIDUAL_BOUND
        or residual <= 0.5 * previous)


# The trace fit doubles the sample count M from _FIRST_SAMPLES until the
# traces are reproduced to _FIT_TARGET between the samples; the cap keeps
# the samples a few MB and still resolves a singular site at 0.999 R.
_FIRST_SAMPLES = 64
_MAX_SAMPLES = 2**16
_FIT_TARGET = 1e-13


def _almansi_sum(A: np.ndarray, B: np.ndarray, w: np.ndarray,
                 floor: float) -> np.ndarray:
    """Re sum_k c_k (A_k + B_k |w|^2) w^k at points |w| <= 1, where c_0 = 1
    and c_k = 2 for k >= 1 (the conjugate modes k < 0). Points go by
    growing |w| in chunks; a chunk sums only the modes whose bound
    (|A_k| + |B_k|) |w|^k exceeds ``floor``, so deep nodes cost few."""
    c = np.where(np.arange(len(A)) > 0, 2.0, 1.0)
    A, B = c * A, c * B
    bound = np.abs(A) + np.abs(B)
    out = np.empty(len(w))
    order = np.argsort(np.abs(w))
    for idx in np.array_split(order, max(1, len(w) // 8192)):
        wc = w[idx]
        live = np.nonzero(bound * np.abs(wc).max() ** np.arange(len(A)) > floor)[0]
        sa = sb = 0.0
        for j in range(live[-1] if len(live) else 0, -1, -1):  # Horner
            sa, sb = sa * wc + A[j], sb * wc + B[j]
        out[idx] = (sa + np.abs(wc) ** 2 * sb).real
    return out


def _almansi_modes(F: np.ndarray, G: np.ndarray):
    """Coefficients (A_k, B_k) of the modes whose value trace on r = R
    has FFT coefficient F_k and whose R d_n trace has G_k: they solve
    A_k + B_k = F_k and k A_k + (k + 2) B_k = G_k (determinant 2).
    Mode k is row k; further axes are independent traces."""
    k = np.arange(len(F)).reshape((-1,) + (1,) * (F.ndim - 1))
    return 0.5 * ((k + 2.0) * F - G), 0.5 * (G - k * F)


class _AlmansiSeries:
    """Biharmonic z on the disk, z = Re sum_{k >= 0} c_k (A_k rho^k +
    B_k rho^(k+2)) e^{ik theta} with rho = r / R (c as in
    ``_almansi_sum``). ``floor`` is the size below which ``sample`` drops
    the tail of the sum."""

    def __init__(self, domain: DiskDomain, A: np.ndarray, B: np.ndarray,
                 floor: float, samples: int = 0, residual: float = 0.0):
        self.domain, self.A, self.B, self.floor = domain, A, B, floor
        self.samples, self.residual = samples, residual

    @classmethod
    def fit(cls, domain: DiskDomain, trace_field) -> "_AlmansiSeries":
        """The series whose value and normal derivative on r = R are
        those of ``-trace_field``, from the FFT of the two traces."""
        R = domain.radius_R

        def traces(m: int, shift: float):
            pts, nhat, _ = circle_nodes(domain.center, R, m, shift)
            # an empty SumField evaluates to the scalar 0
            f = np.zeros(m) - trace_field.value(pts)
            return f, -R * (trace_field.gradient(pts) * nhat).sum(axis=-1)

        # a residual scale that does not vanish with the traces (those of
        # a centered dislocation are roundoff): the field on r = R / 2
        pts, _, _ = circle_nodes(domain.center, R, _FIRST_SAMPLES)
        with np.errstate(all="ignore"):
            inner = np.abs(np.zeros(_FIRST_SAMPLES) + trace_field.value(
                0.5 * (pts + np.asarray(domain.center))))
        inner_scale = float(inner[np.isfinite(inner)].max(initial=0.0))

        m = _FIRST_SAMPLES
        f, g = traces(m, 0.0)
        previous = None
        while True:
            F, G = np.fft.rfft(f) / m, np.fft.rfft(g) / m
            F[-1] = G[-1] = 0.0  # the Nyquist mode has no shifted value
            # the interpolated traces against new samples half-way between
            fs, gs = traces(m, 0.5)
            phase = m * np.exp(1j * math.pi * np.arange(len(F)) / m)
            miss = max(np.abs(np.fft.irfft(F * phase, m) - fs).max(),
                       np.abs(np.fft.irfft(G * phase, m) - gs).max())
            scale = max(inner_scale, np.abs(f).max(), np.abs(g).max())
            residual = float(miss / scale if scale > 0.0 else miss)
            if (not _keeps_doubling(residual, previous, _FIT_TARGET)
                    or m >= _MAX_SAMPLES):
                break
            previous = residual
            f, g = np.stack([f, fs], -1).ravel(), np.stack([g, gs], -1).ravel()
            m *= 2
        if not residual <= _RESIDUAL_BOUND:
            raise NumericalError(f"trace fit residual {residual} with {m} samples")
        A, B = _almansi_modes(F, G)
        return cls(domain, A, B, np.finfo(float).eps * scale, m, residual)

    def squares(self) -> tuple[float, float]:
        """Integrals over the disk of (Delta z)^2 and |4 d_z^2 z|^2, d_z
        the complex derivative. Mode k of Delta z is 4 (k + 1) B_k rho^k
        / R^2; for k >= 1 only, 4 d_z^2 z has 4 (k (k - 1) A_k rho^(k-2)
        + k (k + 1) B_k rho^k) / R^2 in mode k - 2."""
        k = np.arange(len(self.A), dtype=float)
        A, B = self.A, self.B
        lap = np.where(k > 0, 2.0, 1.0) * (k + 1.0) * np.abs(B) ** 2
        wirt = k * (k * (k - 1.0) * np.abs(A) ** 2 + k * (k + 1.0) * np.abs(B) ** 2
                    + 2.0 * (k * k - 1.0) * (A * np.conj(B)).real)
        scale = 16.0 * math.pi / self.domain.radius_R**2
        return scale * float(np.sum(lap)), scale * float(np.sum(wirt))

    def sample(self, n: int):
        """Grid, mask, live nodes and values of z on the grid of size n.

        Inside nodes carry the series. Ghost nodes (outside, within two
        cells of an inside node) carry its second-order Taylor extension
        along the normal from r = R: the series itself diverges outside
        once a singular site is close to the circle.
        """
        grid = grid_for_disk(self.domain, n)
        mask = build_mask(grid, self.domain)
        inside = mask != OUTSIDE
        ghost = np.zeros_like(inside)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                ghost |= np.roll(inside, (di, dj), axis=(0, 1))
        ghost &= ~inside
        X, Y = grid.meshgrid()
        cx, cy = self.domain.center
        w = ((X - cx) + 1j * (Y - cy)) / self.domain.radius_R
        values = np.zeros(X.shape)
        values[inside] = _almansi_sum(self.A, self.B, w[inside], self.floor)
        t = np.abs(w[ghost]) - 1.0
        unit = w[ghost] / (1.0 + t)
        k, A, B = np.arange(len(self.A)), self.A, self.B
        for order, (ca, cb) in enumerate(
            ((1, 1), (k, k + 2), (k * (k - 1), (k + 2) * (k + 1)))
        ):
            # d^order z / d rho^order on r = R, times t^order / order!
            values[ghost] += t**order / math.factorial(order) * _almansi_sum(
                ca * A + cb * B, 0.0 * A, unit, self.floor)
        return grid, mask, inside | ghost, values


def _series_report(series: _AlmansiSeries, n: int, delta: float,
                   value: float, fit_seconds: float, extras: dict,
                   singular=None) -> SolveReport:
    """Report whose field ``singular + z`` is sampled on first read."""
    def sample() -> ScalarField:
        grid, mask, live, values = series.sample(n)
        if singular is not None:
            values[live] += singular.value(grid.points()[live.ravel()])
        return ScalarField(grid=grid, values=values, mask=mask)

    return SolveReport(
        value=value, residual=series.residual, method="fourier", grid_n=n,
        delta=delta, iterations=0, assemble_seconds=fit_seconds,
        sampler=sample,
        extras={**extras, "modes": series.samples,
                "trace_fit_residual": series.residual},
    )


def solve_clamped_disclination(elastic: ElasticConstants, domain: DiskDomain,
                               disclinations, n: int = 256) -> SolveReport:
    """Minimize G(v) + sum_k s_k v(y_k) over clamped fields on the disk.

    The fundamental potential of each charge is subtracted analytically:
    the point loads then cancel exactly against the cross term of the
    Gram form, leaving closed-form constants (pairwise potential values
    and circle integrals) plus a pure quadratic problem for a smooth
    biharmonic correction with prescribed boundary traces, solved
    exactly in Fourier modes. The value does not depend on ``n``, which
    only sets the grid of the reported field.
    """
    disclinations = list(disclinations)
    delta = grid_for_disk(domain, n).delta
    fl = _gram_factor(elastic)
    sites = [np.asarray(d.site, dtype=float) for d in disclinations]
    charges = [float(d.frank_angle_s) for d in disclinations]
    for p in sites:
        if domain.boundary_distance(p) <= 0.0:
            raise ValidationError(f"disclination site {tuple(p)} outside the domain")
    fund = FundamentalAiry(elastic)
    v_sing = SumField(tuple(ScaledField(-s, ShiftedField(tuple(p), fund))
                            for s, p in zip(charges, sites)))

    # closed-form constant: -(1/2) sum_ij s_i s_j [vbar(y_i - y_j)
    #   + f oint (Delta vbar_i d_n vbar_j - (d_n Delta vbar_i) vbar_j)]
    bpts, nhat, ring = circle_nodes(domain.center, domain.radius_R, _N_QUAD)
    m = len(sites)
    lap = np.empty((m, bpts.shape[0]))
    dnlap = np.empty_like(lap)
    val = np.empty_like(lap)
    dn = np.empty_like(lap)
    for i, p in enumerate(sites):
        rel = bpts - p
        lap[i] = fund.laplacian(rel)
        dnlap[i] = (fund.grad_laplacian(rel) * nhat).sum(axis=-1)
        val[i] = fund.value(rel)
        dn[i] = (fund.gradient(rel) * nhat).sum(axis=-1)
    constant = 0.0
    for i in range(m):
        for j in range(m):
            pair_pot = float(fund.value((sites[i] - sites[j])[None, :])[0])
            Q_ij = ring * float(np.mean(lap[i] * dn[j] - dnlap[i] * val[j]))
            constant += -0.5 * charges[i] * charges[j] * (pair_pot + fl * Q_ij)

    t0 = time.perf_counter()
    series = _AlmansiSeries.fit(domain, v_sing)
    gram_value = 0.5 * fl * series.squares()[0]
    fit_seconds = time.perf_counter() - t0
    return _series_report(
        series, n, delta, constant + gram_value, fit_seconds,
        {"scheme": "split", "closed_form_constant": constant,
         "gram_objective": gram_value},
        singular=v_sing,
    )


def _core_plastic_field(elastic: ElasticConstants, domain: DiskDomain,
                        dislocations, eps: float) -> SumField:
    return SumField(
        tuple(
            DislocationCoreAiry(
                elastic=elastic, burgers_b=d.burgers_b, eps=eps,
                radius_R=domain.radius_R, site=d.site,
            )
            for d in dislocations
        )
    )


# The core fit doubles the interior and per-core mode counts (M_i, M_e)
# from (_FIRST_MODES, _FIRST_MODES / 2) under the rule of
# ``_keeps_doubling`` with target _SERIES_TARGET, up to M_i = _MAX_MODES.
_FIRST_MODES = 16
_MAX_MODES = 512
_SERIES_TARGET = 1e-12
# smallest gap D - eps, relative to R, that the core fit accepts
_TOUCH_GAP = 1e-12


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """z^k for k = 0 .. count - 1 of an (N, 1) column, as (N, count)."""
    out = np.ones((len(z), count), dtype=complex)
    out[:, 1:] = np.cumprod(np.broadcast_to(z, (len(z), count - 1)), axis=1)
    return out


def _goursat_fields(zeta, nu, L: float, potentials):
    """Value, normal derivative, Laplacian and normal derivative of the
    Laplacian of f = Re(conj(zeta) phi(zeta) + chi(zeta)), zeta = (x - p)
    / L, along the complex unit normals nu, from the potentials
    (phi, phi', phi'', chi, chi'): grad f = phi + zeta conj(phi') +
    conj(chi') and Delta f = 4 Re phi' in units of L."""
    phi, dphi, ddphi, chi, dchi = potentials
    grad = (phi + zeta * np.conj(dphi) + np.conj(dchi)) / L  # d_x + i d_y
    return ((np.conj(zeta) * phi + chi).real, (grad * np.conj(nu)).real,
            4.0 * dphi.real / L**2, 4.0 * (ddphi * nu).real / L**3)


def _interior_potentials(w, A: np.ndarray, B: np.ndarray):
    """Goursat potentials of Re sum_k c_k (A_k + B_k |w|^2) w^k (c as in
    ``_almansi_sum``) at the (N, 1) column w, one column per coefficient
    column: chi = sum c_k A_k w^k and phi = sum c_k B_k w^(k+1)."""
    k = np.arange(len(A))[:, None]
    c = np.where(k > 0, 2.0, 1.0)
    cA, cB = c * A, c * B
    P = _powers(w, len(A))
    dP = np.zeros_like(P)
    dP[:, 1:] = P[:, :-1] * k[1:, 0]
    return (w * (P @ cB), P @ ((k + 1) * cB), dP @ ((k + 1) * cB),
            P @ cA, dP @ cA)


def _michell_potentials(zeta, m_core: int):
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


def _michell_sum(c: np.ndarray, zeta: np.ndarray, m_core: int,
                 floor: float) -> np.ndarray:
    """Value at the points zeta (1-D, |zeta| > 1) of the exterior modes
    of one core with coefficients ``c`` in the order of
    ``_michell_potentials``; the power modes are Almansi sums in 1/zeta."""
    rho2 = np.abs(zeta) ** 2
    log = 0.5 * np.log(rho2)
    head = (c[0] + c[1] * rho2 + c[2] * zeta.real + c[3] * zeta.imag) * log
    cos_h, cos_b, sin_h, sin_b = np.split(
        c[4:], np.cumsum([m_core - 1, m_core - 2, m_core - 1]))
    harm = np.zeros(m_core, dtype=complex)
    harm[1:] = 0.5 * (cos_h - 1j * sin_h)
    bih = np.zeros(m_core, dtype=complex)
    bih[2:] = 0.5 * (cos_b - 1j * sin_b)
    zero = np.zeros(m_core)
    return (head + _almansi_sum(harm, zero, 1.0 / zeta, floor)
            + rho2 * _almansi_sum(bih, zero, 1.0 / zeta, floor / rho2.max()))


def _least_squares(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solution X of A X = B, one column per column of B,
    and the ratio max|r_kk| / min|r_kk| of the triangular factor.

    The columns of A are scaled to unit largest entry; one Householder
    QR of [A B] gives R = [[R11, R12], [0, R22]] with R12 = Q1^T B, so X
    solves R11 X = R12. The QR neither pivots nor truncates rank, so a
    column the others span to roundoff (min|r_kk| <= n eps max|r_kk|)
    raises ``NumericalError`` instead of fitting noise.
    """
    n = A.shape[1]
    scale = np.abs(A).max(axis=0)
    scale[scale == 0.0] = 1.0
    R = np.linalg.qr(np.hstack([A / scale, B]), mode="r")
    diag = np.abs(np.diag(R[:, :n]))
    if not diag.min() > n * np.finfo(float).eps * diag.max():
        raise NumericalError(
            f"core series fit is rank deficient: min|r_kk| {diag.min():.3g} "
            f"against max|r_kk| {diag.max():.3g} over {n} modes")
    X = np.linalg.solve(R[:n, :n], R[:n, n:]) / scale[:, None]
    return X, float(diag.max() / diag.min())


class _MichellSeries:
    """Biharmonic fields z on the punctured disk, B_R minus the core
    balls B_eps(y_k), with given value and normal derivative on every
    circle, for 1 + 3K data sets at once.

    Data set 0 is the traces of -W_p on all circles. Data set 1 + 3k + a
    is the traces of 1, x_1 - y_k1 and x_2 - y_k2 (a = 0, 1, 2) on core k,
    and zero elsewhere. z sums the Almansi modes k < M_i about the disk
    centre and the exterior Michell modes of order below M_e about every
    core. For given core coefficients the interior ones are the FFT fit
    (``_almansi_modes``) of the outer traces the core modes leave, at
    4 M_i nodes. The core coefficients then solve one least-squares
    problem: the traces at 4 M_e nodes on every core circle, and the
    outer-trace frequencies M_i .. 2 M_i, which no interior mode reaches.

    ``residual`` is the largest miss of either trace at the nodes of all
    circles, relative to the largest datum; ``condition`` is the
    triangular-factor ratio of the fit (``_least_squares``). ``Q[i, j]``
    is the integral of Delta z_i Delta z_j over the punctured disk, from
    Green's identity on the circles against the data traces,
    symmetrized.
    """

    def __init__(self, domain: DiskDomain, sites, eps: float, W_p,
                 m_inner: int, m_core: int):
        R = domain.radius_R
        self.domain, self.sites, self.eps = domain, sites, eps
        self.modes = (m_inner, m_core)
        n_data = 1 + 3 * len(sites)
        circles = []
        for j, (center, radius, nodes) in enumerate(
            [(domain.center, R, 4 * m_inner)]
            + [(y, eps, 4 * m_core) for y in sites]
        ):
            pts, nhat, ring = circle_nodes(center, radius, nodes)
            val, der = np.zeros((nodes, n_data)), np.zeros((nodes, n_data))
            val[:, 0] = -W_p.value(pts)
            der[:, 0] = -radius * (W_p.gradient(pts) * nhat).sum(axis=-1)
            if j:
                col = 3 * j - 2
                val[:, col] = 1.0
                val[:, col + 1:col + 3] = pts - center
                der[:, col + 1:col + 3] = radius * nhat
            circles.append((pts, nhat, ring, radius, val, der,
                            self._exterior(pts, nhat)))

        # every column: the core modes, then the data sets
        pts, nhat, ring, radius, val, der, ext = circles[0]
        n_ext = ext[0].shape[1]
        F = np.fft.rfft(np.hstack([ext[0], val]), axis=0) / len(pts)
        G = np.fft.rfft(np.hstack([R * ext[1], der]), axis=0) / len(pts)
        A, B = _almansi_modes(F[:m_inner], G[:m_inner])
        # the high frequencies, weighted as their share of the nodal 2-norm
        rows = [math.sqrt(2.0 * len(pts)) * np.vstack(
            [F[m_inner:].real, F[m_inner:].imag,
             G[m_inner:].real, G[m_inner:].imag])]
        for pts, nhat, ring, radius, val, der, ext in circles[1:]:
            inner = self._interior(pts, nhat, A, B)
            rows.append(np.hstack([ext[0], val]) - inner[0])
            rows.append(radius * (np.hstack([ext[1], der / radius]) - inner[1]))
        system = np.vstack(rows)
        coef, self.condition = _least_squares(system[:, :n_ext],
                                              system[:, n_ext:])
        self.coef = coef
        self.A = A[:, n_ext:] - A[:, :n_ext] @ coef
        self.B = B[:, n_ext:] - B[:, :n_ext] @ coef

        Q = np.zeros((n_data, n_data))
        miss = size = np.zeros(n_data)
        for j, (pts, nhat, ring, radius, val, der, ext) in enumerate(circles):
            z, dz, lap, dlap = self.fields(pts, nhat, ext)
            miss = np.maximum.reduce([miss, np.abs(z - val).max(axis=0),
                                      np.abs(radius * dz - der).max(axis=0)])
            size = np.maximum.reduce([size, np.abs(val).max(axis=0),
                                      np.abs(der).max(axis=0)])
            # the outward normal of the punctured disk is -nhat on a core
            sign = 1.0 if j == 0 else -1.0
            Q += sign * ring / len(pts) * (lap.T @ (der / radius) - dlap.T @ val)
        self.Q = 0.5 * (Q + Q.T)
        self.size = size
        self.residual = float(np.max(miss / np.where(size > 0.0, size, 1.0)))

    def _exterior(self, pts, nhat):
        nu = (nhat[:, 0] + 1j * nhat[:, 1])[:, None]
        parts = []
        for y in self.sites:
            zeta = ((pts[:, 0] - y[0]) + 1j * (pts[:, 1] - y[1]))[:, None]
            zeta = zeta / self.eps
            parts.extend(_goursat_fields(zeta, nu, self.eps, p)
                         for p in _michell_potentials(zeta, self.modes[1]))
        return [np.hstack(q) for q in zip(*parts)]

    def _interior(self, pts, nhat, A, B):
        cx, cy = self.domain.center
        R = self.domain.radius_R
        w = ((pts[:, 0] - cx) + 1j * (pts[:, 1] - cy))[:, None] / R
        nu = (nhat[:, 0] + 1j * nhat[:, 1])[:, None]
        return _goursat_fields(w, nu, R, _interior_potentials(w, A, B))

    def fields(self, pts, nhat, ext=None):
        """Value, normal derivative along ``nhat``, Laplacian and normal
        derivative of the Laplacian of every z (one column per data
        set) at points of the punctured disk; ``ext`` is
        ``_exterior(pts, nhat)`` when already at hand."""
        ext = self._exterior(pts, nhat) if ext is None else ext
        return [i + e @ self.coef
                for i, e in zip(self._interior(pts, nhat, self.A, self.B), ext)]

    def sample(self, n: int, u: np.ndarray, W_p):
        """Grid, mask and values of W_p + z on the grid of size n, for
        z = z_0 + sum_j u_j z_j: the series at inside nodes, the affine
        part on core nodes (masked CORE) and, at ghost nodes, W_p plus
        the core modes plus the normal Taylor extension of the interior
        modes (``_AlmansiSeries.sample``)."""
        weights = np.concatenate([[1.0], u])
        floor = np.finfo(float).eps * float(self.size @ np.abs(weights))
        interior = _AlmansiSeries(self.domain, self.A @ weights,
                                  self.B @ weights, floor)
        grid, mask, live, values = interior.sample(n)
        X, Y = grid.meshgrid()
        core = np.zeros_like(live)
        for k, y in enumerate(self.sites):
            ball = np.hypot(X - y[0], Y - y[1]) <= self.eps
            a, s1, s2 = u[3 * k:3 * k + 3]
            values[ball] = a + s1 * (X[ball] - y[0]) + s2 * (Y[ball] - y[1])
            core |= ball
        mask[core] = CORE
        off = live & ~core
        values[off] += W_p.value(np.stack([X[off], Y[off]], axis=-1))
        coef = np.split(self.coef @ weights, len(self.sites))
        for c, y in zip(coef, self.sites):
            zeta = ((X[off] - y[0]) + 1j * (Y[off] - y[1])) / self.eps
            values[off] += _michell_sum(c, zeta, self.modes[1], floor)
        return grid, mask, values


def _core_problem(elastic: ElasticConstants, domain: DiskDomain,
                  dislocations, eps: float):
    """Data of the core-constrained functional for w = W_p + z: the
    profiles W_p, the quadrature circles (outer, then one per core), the
    constant C0 and the load on the affine core parameters u (value and
    two slopes per core), so that the functional is
    (fl/2) int_{B_R} (Delta z)^2 + load . u - C0."""
    fl = _gram_factor(elastic)
    W_p = _core_plastic_field(elastic, domain, dislocations, eps)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]

    # pair2(f; g) = oint_dOmega [Df d_n g - (d_n Df) g]
    #            - sum_k oint_circle_k [same], ball-outward normals,
    # valid for f biharmonic on the annular region; all kernels analytic.
    def pair2(term, rings):
        acc = 0.0
        for sign, pts_r, nhat_r, ring_r in rings:
            lap_f = term.laplacian_smooth(pts_r)
            dnlap_f = (term.grad_laplacian_smooth(pts_r) * nhat_r).sum(axis=-1)
            g_val = W_p.value(pts_r)
            g_dn = (W_p.gradient(pts_r) * nhat_r).sum(axis=-1)
            acc += sign * ring_r * float(np.mean(lap_f * g_dn - dnlap_f * g_val))
        return acc

    rings = [(1.0, *circle_nodes(domain.center, domain.radius_R, _N_QUAD))]
    for p in sites:
        rings.append((-1.0, *circle_nodes(p, eps, _N_QUAD)))

    C0 = 0.5 * fl * sum(pair2(term, rings) for term in W_p.terms)

    # linear coupling of the core affine parameters through the circle
    # integrals, plus the slope load <grad a_k, Pi(b_k)>
    load = np.zeros(3 * len(dislocations))
    for k, d in enumerate(dislocations):
        _, cpts, nh, ring = rings[k + 1]  # core circles follow the outer one
        lap_p = sum(t.laplacian_smooth(cpts) for t in W_p.terms)
        dnlap_p = sum(
            (t.grad_laplacian_smooth(cpts) * nh).sum(axis=-1) for t in W_p.terms
        )
        base = 3 * k
        load[base] += fl * ring * float(np.mean(dnlap_p))
        load[base + 1] += -fl * ring * float(
            np.mean(lap_p * nh[:, 0] - dnlap_p * eps * nh[:, 0])
        )
        load[base + 2] += -fl * ring * float(
            np.mean(lap_p * nh[:, 1] - dnlap_p * eps * nh[:, 1])
        )
        Pi = rotate_burgers(d.burgers_b)
        load[base + 1] += Pi[0]
        load[base + 2] += Pi[1]
    return W_p, rings, C0, load


def solve_core_constrained(elastic: ElasticConstants, domain: DiskDomain,
                           dislocations, eps: float, n: int = 256) -> SolveReport:
    """Minimize the core-regularized dislocation functional.

    The unknown is split as w = W_p + z, where W_p sums the closed-form
    single-dislocation profiles (exact for one centered core) and z is a
    smooth correction. Since each profile is biharmonic off its core,
    every coupling of W_p with z reduces by the Green identity to circle
    integrals of closed-form kernels against the traces of z, which are
    pinned: the negated profile traces on the outer boundary and the
    affine core parameters on the core circles. The core-circle load
    reduces exactly to <slope of the core affine part, Pi(b_j)> on the
    admissible class. What is left is the plate energy of z: z is
    biharmonic on the punctured disk and linear in the affine
    parameters u, so with Q the Gram matrix of the Laplacians of the
    data-set solutions (``_MichellSeries``) the energy is quadratic in
    u, and u solves one 3K x 3K system. On the core balls z is the
    affine part minus W_p, whose energy is that of the other profiles'
    Laplacians there.

    The value does not depend on ``n``, which only sets the grid of the
    reported field. ``extras`` gives the mode counts (interior, per
    core), the fit residual, ``fit_condition`` (max|r_kk| / min|r_kk| of
    the fit's triangular factor) and ``value_change``, the change in value
    over the last doubling of the mode counts (``None`` when the first
    fit met its target).
    """
    dislocations = list(dislocations)
    if not dislocations:
        raise ValidationError("need at least one dislocation")
    D = min_separation_D([d.site for d in dislocations], domain)
    # a gap D - eps at roundoff level is a touching core, which no
    # series resolves
    if not (0.0 < eps and D - eps > _TOUCH_GAP * domain.radius_R):
        raise ValidationError(
            f"core radius eps={eps} must lie in (0, D={D}) with a gap "
            f"D - eps above {_TOUCH_GAP} R"
        )
    delta = grid_for_disk(domain, n).delta

    t0 = time.perf_counter()
    fl = _gram_factor(elastic)
    W_p, rings, C0, load = _core_problem(elastic, domain, dislocations, eps)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]

    # On core ball k, Delta z = -Delta W_p is the Laplacian of the other
    # profiles: harmonic there, so the FFT of its trace integrates its
    # square exactly (pi eps^2 (a_0^2 + sum_m (a_m^2 + b_m^2) / (2m + 2))).
    ball_energy = 0.0
    for k, (_, cpts, _, _) in enumerate(rings[1:]):
        lap_other = np.zeros(len(cpts)) + sum(
            t.laplacian_smooth(cpts) for j, t in enumerate(W_p.terms) if j != k)
        H = np.fft.rfft(lap_other) / len(cpts)
        m = np.arange(1, len(H))
        ball_energy += math.pi * eps**2 * (
            H[0].real ** 2 + float(np.sum(2.0 * np.abs(H[1:]) ** 2 / (m + 1.0))))

    def minimum(series: _MichellSeries):
        Q = series.Q
        u = np.linalg.solve(Q[1:, 1:], -(Q[1:, 0] + load / fl))
        energy = Q[0, 0] + 2.0 * Q[0, 1:] @ u + u @ Q[1:, 1:] @ u + ball_energy
        return u, float(0.5 * fl * energy + load @ u - C0)

    m_inner, last = _FIRST_MODES, None
    while True:
        series = _MichellSeries(domain, sites, eps, W_p, m_inner, m_inner // 2)
        u, value = minimum(series)
        if (not _keeps_doubling(series.residual, None if last is None else last[0],
                                _SERIES_TARGET) or m_inner >= _MAX_MODES):
            break
        last = (series.residual, value)
        m_inner *= 2
    if not series.residual <= _RESIDUAL_BOUND:
        raise NumericalError(f"core series fit residual {series.residual} "
                             f"with modes {series.modes}")
    fit_seconds = time.perf_counter() - t0

    affine = {f"core_{k}": [float(c) for c in u[3 * k:3 * k + 3]]
              for k in range(len(dislocations))}

    def sample() -> ScalarField:
        grid, mask, values = series.sample(n, u, W_p)
        return ScalarField(grid=grid, values=values, mask=mask)

    return SolveReport(
        value=value, residual=series.residual, method="series", grid_n=n,
        delta=delta, iterations=0, assemble_seconds=fit_seconds,
        sampler=sample,
        extras={"eps": eps, "core_affine": affine, "separation_D": D,
                "modes": list(series.modes),
                "fit_residual": series.residual,
                "fit_condition": series.condition,
                "value_change": None if last is None else abs(value - last[1])},
    )


def solve_dipole_core(elastic: ElasticConstants, domain: DiskDomain,
                      dipoles, eps: float, n: int = 256) -> SolveReport:
    """Minimize the finite-h dipole functional on the affine-core class.

    On that class the pair load is a difference quotient of an affine
    function, hence exactly the slope load of the zero-h functional for
    every 0 < h < eps; the minimum problem is therefore identical to
    the core-constrained one and is delegated to it.
    """
    dipoles = list(dipoles)
    for dip in dipoles:
        if not (dip.spacing_h < eps):
            raise ValidationError(
                f"dipole spacing h={dip.spacing_h} must stay below eps={eps}"
            )
    dislocations = [
        Dislocation(site=dip.center, burgers_b=dip.burgers_b) for dip in dipoles
    ]
    report = solve_core_constrained(elastic, domain, dislocations, eps, n)
    extras = dict(report.extras)
    extras["spacing_h"] = [dip.spacing_h for dip in dipoles]
    extras["load_h_independent"] = True
    return replace(report, extras=extras)


def solve_elastic_correction(elastic: ElasticConstants, domain: DiskDomain,
                             dislocations, n: int = 256) -> SolveReport:
    """Biharmonic boundary-relaxation solve.

    The correction is the biharmonic field whose boundary traces cancel
    those of the summed zero-core dislocation profiles, solved exactly
    in Fourier modes, with its plate energy as an exact mode sum; the
    reported value adds the analytic boundary pairing terms, i.e. it is
    the elastic part of the renormalized energy. The value does not
    depend on ``n``, which only sets the grid of the reported field.
    """
    dislocations = list(dislocations)
    if not dislocations:
        raise ValidationError("need at least one dislocation")
    delta = grid_for_disk(domain, n).delta
    W0_terms = [
        DislocationLimitAiry(elastic=elastic, burgers_b=d.burgers_b,
                             radius_R=domain.radius_R, site=d.site)
        for d in dislocations
    ]
    W0 = SumField(tuple(W0_terms))

    t0 = time.perf_counter()
    series = _AlmansiSeries.fit(domain, W0)
    # Hessian-form energy of the (non-clamped) correction, with
    # |D^2 v|^2 = ((Delta v)^2 + |4 d_z^2 v|^2) / 2
    nu, E = elastic.poisson_nu, elastic.young_E
    lap_square, wirt_square = series.squares()
    G_hess = (1.0 + nu) / (2.0 * E) * ((0.5 - nu) * lap_square + 0.5 * wirt_square)
    gram_value = 0.5 * _gram_factor(elastic) * lap_square
    fit_seconds = time.perf_counter() - t0

    # analytic boundary pairing on the admissible set: traces equal the
    # negated profile traces, so every term is a closed-form circle
    # integral
    outer = [(1.0, *circle_nodes(domain.center, domain.radius_R, _N_QUAD))]
    boundary = -sum(_pair_energy_boundary(term, W0, outer, elastic)
                    for term in W0_terms)

    return _series_report(
        series, n, delta, G_hess + boundary, fit_seconds,
        {"gram_objective": gram_value, "hessian_energy": G_hess,
         "boundary_pairing": boundary},
    )
