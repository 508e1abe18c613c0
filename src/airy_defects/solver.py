"""Minimization of the defect functionals on a disk.

The pure-trace problems (the split clamped disclination and the elastic
correction of the renormalized energy) need a biharmonic field on the
whole disk with prescribed value and normal derivative on r = R. Mode
by mode it has Almansi's closed form ``a_k r^|k| + b_k r^(|k|+2)``
(Michell 1899): an FFT of the two traces and a 2x2 solve per mode give
the coefficients, the plate energies are exact sums over modes, and the
reported solution is the summed series.

The core-constrained problem lives on the punctured disk, B_R minus the
core balls. Its smooth correction is biharmonic there, so it is a
multi-centre Michell series: the Almansi modes about the disk centre
plus, about each core, the exterior modes log r, r^2 log r, r log r
(cos, sin) theta, r^-m and r^(2-m) (cos, sin) m theta. Each circle is
fitted by its low frequencies: the interior coefficients match those of
the outer-circle traces by the same FFT, and the core coefficients solve
one square system that matches those of each core circle's traces.
Green's identity on the circles turns the plate energy
into exact circle integrals, which leave one 3K x 3K system for the
affine parameters of the K cores.

Every solve samples nothing: its report carries the minimizer as a
``SeriesSolution``, which sums the series at any points, and the value
does not depend on the resolution ``n`` of a field dump.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field, replace
from typing import ClassVar

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
from .energy import (
    _RESIDUAL_BOUND,
    _keeps_doubling,
    _pairing_means,
    _pairing_traces,
    _boundary_integral,
    circle_sums,
)
from .fields import circle_nodes, grid_for_disk


def splu(A, *args, **kwargs):
    """``scipy.sparse.linalg.splu``, imported only when called.

    Nothing in the package factors a sparse matrix. The name stays
    only because ``bench/tracing.py`` wraps it, until the benchmark
    drops its ``splu`` layer (ROADMAP item 5).
    """
    from scipy.sparse.linalg import splu as factor

    return factor(A, *args, **kwargs)


@dataclass(frozen=True)
class SolveReport:
    """Functional value, solve diagnostics and the minimizer.

    ``solution`` evaluates the minimizer at any points; ``grid_n`` and
    ``delta`` are the resolution a field dump of it takes. The times are
    attributes, not report keys, so that a report's JSON is the same on
    every run: ``assemble_seconds`` is the time of the series fit, and
    ``solve_seconds`` is 0.0, since the solve samples nothing.
    """

    value: float
    residual: float
    method: str
    grid_n: int
    delta: float
    assemble_seconds: float
    solution: "SeriesSolution" = dataclass_field(repr=False, compare=False)
    extras: dict = dataclass_field(default_factory=dict)
    solve_seconds: ClassVar[float] = 0.0

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "method": self.method,
            "grid_n": self.grid_n,
            "delta": self.delta,
            "extras": dict(self.extras),
        }


def _gram_factor(elastic: ElasticConstants) -> float:
    return (1.0 - elastic.poisson_nu**2) / elastic.young_E


# The trace fit doubles the sample count M from _FIRST_SAMPLES until the
# traces are reproduced to _FIT_TARGET between the samples; the cap keeps
# the samples a few MB and still resolves a singular site at 0.999 R.
_FIRST_SAMPLES = 64
_MAX_SAMPLES = 2**16
_FIT_TARGET = 1e-13


# A point's series sum inside the disk drops the modes past the last
# whose term exceeds floor / _TAIL_MARGIN: at |w| near 1 the dropped
# tail holds many terms just under the cut, and the margin keeps their
# sum near the floor. The Taylor sums on r = R cut at the floor itself.
_TAIL_MARGIN = 16.0


def _mode_counts(bound: np.ndarray, r: np.ndarray, floor: float,
                 power: int) -> np.ndarray:
    """Per radius r, the last mode k whose term bound_k r^(k - power)
    exceeds ``floor`` (0 when none does). Mode k > power is live where
    log r passes its threshold (log floor - log bound_k) / (k - power),
    a mode up to ``power`` where its bound passes ``floor``; the last
    live mode is the last whose least threshold from it on lies below
    log r."""
    k = np.arange(len(bound))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = math.log(floor) if floor > 0.0 else -math.inf
        threshold = np.where(k > power,
                             (gap - np.log(bound)) / np.maximum(k - power, 1),
                             np.where(bound > floor, -np.inf, np.inf))
        threshold[np.isnan(threshold)] = np.inf
        least = np.minimum.accumulate(threshold[::-1])[::-1]
        return np.maximum(np.searchsorted(least, np.log(r)) - 1, 0)


def _almansi_sum(A: np.ndarray, B: np.ndarray, w: np.ndarray,
                 floor: float, power: int = 0) -> np.ndarray:
    """Re sum_k c_k (A_k + B_k |w|^2) w^k at points |w| <= 1, where c_0 = 1
    and c_k = 2 for k >= 1 (the conjugate modes k < 0). Each point sums,
    by Horner's rule, the modes up to the last whose bound (|A_k| +
    |B_k|) |w|^(k - power) exceeds ``floor`` (``_mode_counts``), so deep
    points cost few modes and no value depends on the other points.
    Points go by growing count: the step of mode j takes those that
    sum it, which all sum the modes below it too."""
    c = np.where(np.arange(len(A)) > 0, 2.0, 1.0)
    A, B = c * A, c * B
    out = np.empty(len(w))
    if not len(w):
        return out
    count = _mode_counts(np.abs(A) + np.abs(B), np.abs(w), floor, power)
    order = np.argsort(count, kind="stable")
    w, count = w[order], count[order]
    first = np.searchsorted(count, np.arange(count[-1] + 1))

    def horner(C):
        s = np.zeros(len(w), dtype=complex)
        for j in range(count[-1], -1, -1):
            at = slice(first[j], None)
            np.multiply(s[at], w[at], out=s[at])
            s[at] += C[j]
        return s

    total = horner(A)
    if B.any():
        total += np.abs(w) ** 2 * horner(B)
    out[order] = total.real
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
    ``_almansi_sum``). ``floor`` is the size below which ``value`` drops
    the tail of the sum (see ``_TAIL_MARGIN``)."""

    def __init__(self, domain: DiskDomain, A: np.ndarray, B: np.ndarray,
                 floor: float, samples: int = 0, residual: float = 0.0):
        self.domain, self.A, self.B, self.floor = domain, A, B, floor
        self.samples, self.residual = samples, residual

    @classmethod
    def fit(cls, domain: DiskDomain, trace_field) -> "_AlmansiSeries":
        """The series whose value and normal derivative on r = R are
        those of ``-trace_field``, from the FFT of the two traces."""
        R = domain.radius_R

        def traces(pts, nhat):
            value, gradient = trace_field.value_and_gradient(pts)
            # an empty SumField evaluates to the scalar 0
            f = np.zeros(len(pts)) - value
            return f, -R * (gradient * nhat).sum(axis=-1)

        # a residual scale that does not vanish with the traces (those of
        # a centered dislocation are roundoff): the field on r = R / 2
        pts, nhat, _ = circle_nodes(domain.center, R, _FIRST_SAMPLES)
        with np.errstate(all="ignore"):
            inner = np.abs(np.zeros(_FIRST_SAMPLES) + trace_field.value(
                0.5 * (pts + np.asarray(domain.center))))
        inner_scale = float(inner[np.isfinite(inner)].max(initial=0.0))

        m = _FIRST_SAMPLES
        f, g = traces(pts, nhat)
        previous = None
        while True:
            F, G = np.fft.rfft(f) / m, np.fft.rfft(g) / m
            F[-1] = G[-1] = 0.0  # the Nyquist mode has no shifted value
            # the interpolated traces against new samples half-way between
            fs, gs = traces(*circle_nodes(domain.center, R, m, 0.5)[:2])
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

    def value(self, pts: np.ndarray) -> np.ndarray:
        """z at the (N, 2) points: the series inside the disk (hypot < R),
        and outside it the second-order Taylor extension along the
        normal from r = R, which the dump's ghost nodes take: the series
        itself diverges outside once a singular site is close to the
        circle."""
        (cx, cy), R = self.domain.center, self.domain.radius_R
        dx, dy = pts[:, 0] - cx, pts[:, 1] - cy
        inside = np.hypot(dx, dy) < R
        w = (dx + 1j * dy) / R
        values = np.zeros(len(pts))
        values[inside] = _almansi_sum(self.A, self.B, w[inside],
                                      self.floor / _TAIL_MARGIN)
        out = ~inside
        t = np.abs(w[out]) - 1.0
        unit = w[out] / (1.0 + t)
        k, A, B = np.arange(len(self.A)), self.A, self.B
        for order, (ca, cb) in enumerate(
            ((1, 1), (k, k + 2), (k * (k - 1), (k + 2) * (k + 1)))
        ):
            # d^order z / d rho^order on r = R, times t^order / order!
            values[out] += t**order / math.factorial(order) * _almansi_sum(
                ca * A + cb * B, 0.0 * A, unit, self.floor)
        return values


class SeriesSolution:
    """The minimizer of a solve as a field: ``scale`` times the interior
    series (``_AlmansiSeries.value``) plus, off the core balls, the
    closed-form part ``closed`` and the exterior Michell modes of each
    core; on core ball k (|x - y_k| <= eps_k) it is the affine part.

    ``cores`` holds (site, eps) per core. ``value`` gives each point a
    value that depends on that point alone.
    """

    def __init__(self, interior: _AlmansiSeries, scale: float = 1.0,
                 closed=None, cores=(), affine=(), modes=(), m_core: int = 0):
        self.interior, self.scale, self.closed = interior, scale, closed
        self.cores, self._affine = tuple(cores), tuple(affine)
        self._modes, self._m_core = tuple(modes), m_core

    def value(self, pts) -> np.ndarray:
        """The minimizer at the (N, 2) points."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        values = self.interior.value(pts)
        off = np.ones(len(pts), dtype=bool)
        for (y, eps), (a, s1, s2) in zip(self.cores, self._affine):
            dx, dy = pts[:, 0] - y[0], pts[:, 1] - y[1]
            ball = np.hypot(dx, dy) <= eps
            values[ball] = a + s1 * dx[ball] + s2 * dy[ball]
            off &= ~ball
        if self.closed is not None:
            values[off] += self.closed.value(pts[off])
        for (y, eps), c in zip(self.cores, self._modes):
            zeta = ((pts[off, 0] - y[0]) + 1j * (pts[off, 1] - y[1])) / eps
            values[off] += _michell_sum(c, zeta, self._m_core,
                                        self.interior.floor / _TAIL_MARGIN)
        return self.scale * values


def _series_report(series: _AlmansiSeries, n: int, delta: float,
                   value: float, fit_seconds: float, extras: dict,
                   singular=None, scale: float = 1.0) -> SolveReport:
    """Report whose solution is ``scale (singular + z)``."""
    return SolveReport(
        value=value, residual=series.residual, method="fourier", grid_n=n,
        delta=delta, assemble_seconds=fit_seconds,
        solution=SeriesSolution(series, scale, singular),
        extras={**extras, "modes": series.samples},
    )


def solve_clamped_disclination(elastic: ElasticConstants, domain: DiskDomain,
                               disclinations, n: int = 256) -> SolveReport:
    """Minimize G(v) + sum_k s_k v(y_k) over clamped fields on the disk.

    The fundamental potential of each charge is subtracted analytically:
    the point loads then cancel exactly against the cross term of the
    Gram form, leaving closed-form constants (pairwise potential values
    and circle integrals) plus a pure quadratic problem for a smooth
    biharmonic correction with prescribed boundary traces, solved
    exactly in Fourier modes. The value does not depend on ``n``, the
    resolution of a field dump.
    """
    disclinations = list(disclinations)
    delta = grid_for_disk(domain, n).delta
    # solved at E = 1 and max|s_k| = 1, where the plate energy (squared
    # mode coefficients) cannot overflow, then scaled: the value by
    # E max|s_k|^2, the field by E max|s_k|
    E = elastic.young_E
    s_max = max((abs(d.frank_angle_s) for d in disclinations), default=1.0)
    elastic = ElasticConstants(1.0, elastic.poisson_nu)
    fl = _gram_factor(elastic)
    sites = [np.asarray(d.site, dtype=float) for d in disclinations]
    charges = [float(d.frank_angle_s) / s_max for d in disclinations]
    for p in sites:
        if domain.boundary_distance(p) <= 0.0:
            raise ValidationError(f"disclination site {tuple(p)} outside the domain")
    fund = FundamentalAiry(elastic)
    shifted = [ShiftedField(tuple(p), fund) for p in sites]
    v_sing = SumField(tuple(ScaledField(-s, f) for s, f in zip(charges, shifted)))

    # closed-form constant: -(1/2) sum_ij s_i s_j [vbar(y_i - y_j)
    #   + f oint (Delta vbar_i d_n vbar_j - (d_n Delta vbar_i) vbar_j)]
    def kernels(pts, nhat):
        lap = [(f.laplacian(pts), (f.grad_laplacian(pts) * nhat).sum(axis=-1))
               for f in shifted]
        val = [(f.value(pts), (f.gradient(pts) * nhat).sum(axis=-1)) for f in shifted]
        return np.reshape([[l * dn - dl * v for v, dn in val] for l, dl in lap],
                          (len(sites), len(sites), len(pts)))

    means, _ = circle_sums([(domain.center, domain.radius_R)], kernels)
    Q = 2.0 * math.pi * domain.radius_R * means[..., 0]
    constant = 0.0
    for i in range(len(sites)):
        for j in range(len(sites)):
            pair_pot = float(fund.value((sites[i] - sites[j])[None, :])[0])
            constant += -0.5 * charges[i] * charges[j] * (pair_pot + fl * Q[i, j])

    t0 = time.perf_counter()
    series = _AlmansiSeries.fit(domain, v_sing)
    gram_value = 0.5 * fl * series.squares()[0]
    fit_seconds = time.perf_counter() - t0

    def energy(x: float) -> float:
        return x * E * s_max * s_max  # s_max^2 alone can overflow

    return _series_report(
        series, n, delta, energy(constant + gram_value), fit_seconds,
        {"closed_form_constant": energy(constant),
         "gram_objective": energy(gram_value)},
        singular=v_sing, scale=E * s_max,
    )


# The core fit starts at the interior and per-core mode counts (M_i, M_e)
# = (_FIRST_MODES, _FIRST_MODES / 2) and doubles each on its own block
# residual (outer circle, core circles) under the rule of
# ``_keeps_doubling`` with target _SERIES_TARGET, up to M_i = _MAX_MODES
# and M_e = _MAX_MODES / 2; no rung above _MAX_RUNG_BYTES is started.
_FIRST_MODES = 16
_MAX_MODES = 512
_SERIES_TARGET = 1e-12
_MAX_RUNG_BYTES = 2**30
# smallest gap D - eps, relative to R, that the core fit accepts
_TOUCH_GAP = 1e-12


def _powers(z: np.ndarray, count: int, out=None) -> np.ndarray:
    """z^k for k = 0 .. count - 1 of an (N, 1) column, as (N, count)."""
    out = np.empty((len(z), count), dtype=complex) if out is None else out
    out[:, 0] = 1.0
    np.cumprod(np.broadcast_to(z, (len(z), count - 1)), axis=1, out=out[:, 1:])
    return out


def _real_product(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Re(X @ C) for a complex X with a contiguous last axis, as one real
    product: the float view of X interleaves Re X and Im X, so the rows
    of C take Re C, -Im C."""
    return X.view(float) @ np.stack([C.real, -C.imag], 1).reshape(2 * len(C), -1)


def _interior_rows(w, nu, count: int) -> np.ndarray:
    """The (2N, 2 count) complex X whose products give the traces of the
    interior modes k < count at the (N, 1) column w = (x - centre) / R
    with complex unit normals nu: rows N of the value, then N of R d_n.
    With phi = sum c_k B_k w^(k+1) and chi = sum c_k A_k w^k, z =
    Re(conj(w) phi + chi) and R d_n z = Re(phi conj(nu) + conj(w) phi' nu
    + chi' nu) are both Re(X (c A; c B)); the first ``count`` columns,
    w^k over nu d(w^k)/dw, also give the Laplacian traces."""
    n, k1 = len(w), np.arange(1.0, count + 1.0)
    X = np.empty((2 * n, 2 * count), dtype=complex)
    # every block in place: P = w^k, nu dP/dw, |w|^2 P, then the d_n rows
    P = _powers(w, count, X[:n, :count])
    X[n:, 0] = 0.0
    np.multiply(nu, P[:, :-1], out=X[n:, 1:count])
    X[n:, 1:count] *= k1[:-1]
    np.multiply(np.abs(w) ** 2, P, out=X[:n, count:])
    d = np.multiply(np.conj(w) * nu, k1, out=X[n:, count:])
    d += w * np.conj(nu)
    d *= P
    return X


def _interior_traces(X: np.ndarray, R: float, A: np.ndarray, B: np.ndarray,
                     nodes=slice(None)):
    """Value and normal derivative of z = Re sum_k c_k (A_k + B_k |w|^2)
    w^k (c as in ``_almansi_sum``) at the ``nodes`` of the rows X of
    ``_interior_rows``, a column per coefficient column."""
    n, c = len(X) // 2, np.where(np.arange(len(A)) > 0, 2.0, 1.0)[:, None]
    C = np.vstack([c * A, c * B])
    dn = _real_product(X[n:][nodes], C)
    dn /= R  # in place: the product at the core nodes is the largest array
    return _real_product(X[:n][nodes], C), dn


def _interior_laplacians(X: np.ndarray, R: float, B: np.ndarray):
    """Laplacian and its normal derivative of the z of
    ``_interior_traces``, from B alone: 4 Re phi' / R^2 and 4 Re(phi''
    nu) / R^3."""
    n, k1 = len(X) // 2, np.arange(1.0, len(B) + 1.0)
    out = _real_product(X[:, :len(B)],
                        (4.0 * np.where(k1 > 1.0, 2.0, 1.0) * k1)[:, None] * B)
    return out[:n] / R**2, out[n:] / R**3


def _michell_traces(zeta, nu, L: float, m_core: int, out: np.ndarray):
    """Fill the (4, N, modes) ``out`` with the value, normal derivative
    along the complex unit normals nu, Laplacian and its normal
    derivative of the exterior Michell modes about one core at the (N, 1)
    column zeta = (x - y) / L: log rho, rho^2 log rho, rho log rho (cos,
    sin) theta, then the cosine and the sine parts of rho^-m (1 <= m <
    M_e) and rho^(2-m) (2 <= m < M_e) times e^{im theta}. Those of
    Re(conj(zeta) phi + chi) are the real parts of conj(zeta) phi + chi,
    (phi conj(nu) + conj(zeta) phi' nu + chi' nu) / L, 4 phi' / L^2 and
    4 phi'' nu / L^3; the sine part of a family, from potentials times
    -i, is their imaginary part."""
    log, inv, cz, r2 = np.log(zeta), 1.0 / zeta, np.conj(zeta), np.abs(zeta) ** 2
    # the factors 1 / L, 4 / L^2 and 4 / L^3 of the last three traces
    nu1, cnu1, lap, nu3 = nu / L, np.conj(nu) / L, 4.0 / L**2, 4.0 * nu / L**3
    for j, (f, g, u) in enumerate(zip(
            (log, inv * nu1, 0.0, 0.0),  # chi = log zeta
            (r2 * log, zeta * log * cnu1 + cz * (log + 1.0) * nu1,
             lap * (log + 1.0), inv * nu3),  # phi = zeta log zeta
            # rho log rho (cos, sin) theta: Re and Im of zeta log rho
            (zeta * log.real, (log.real + 0.5) * nu1 + 0.5 * zeta / cz * cnu1,
             0.5 * lap / cz, -0.5 * lap * cnu1 / cz**2))):
        out[j, :, 0:1], out[j, :, 1:2] = np.real(f), np.real(g)
        out[j, :, 2:3], out[j, :, 3:4] = np.real(u), np.imag(u)
    t, m = _powers(inv, m_core)[:, 1:], np.arange(1.0, m_core)  # zeta^-m
    tb, mb = t[:, 1:], m[1:]
    h, b = slice(0, m_core - 1), slice(m_core - 1, None)
    cos, sin = np.split(out[..., 4:], 2, axis=-1)
    cos[2:, :, h] = sin[2:, :, h] = 0.0

    def put(j, cols, trace):  # each family as it is computed
        cos[j, :, cols], sin[j, :, cols] = trace.real, trace.imag
    put(0, h, t)  # chi = zeta^-m
    put(1, h, -m * t * (inv * nu1))
    put(0, b, r2 * tb)  # phi = zeta^(1-m)
    put(1, b, tb * (zeta * cnu1 + (1.0 - mb) * (cz * nu1)))
    put(2, b, lap * (1.0 - mb) * tb)
    put(3, b, mb * (mb - 1.0) * tb * (inv * nu3))


def _michell_sum(c: np.ndarray, zeta: np.ndarray, m_core: int,
                 floor: float) -> np.ndarray:
    """Value at the points zeta (1-D, |zeta| > 1) of the exterior modes
    of one core with coefficients ``c`` in the order of
    ``_michell_traces``; the power modes are Almansi sums in 1/zeta, and
    a rho^(2-m) mode is cut by its whole term, factor rho^2 included
    (``power`` 2)."""
    rho2 = np.abs(zeta) ** 2
    log = 0.5 * np.log(rho2)
    head = (c[0] + c[1] * rho2 + c[2] * zeta.real + c[3] * zeta.imag) * log
    cos, sin = np.split(c[4:], 2)
    harm, bih = np.zeros((2, m_core), dtype=complex)
    harm[1:], bih[2:] = np.split(0.5 * (cos - 1j * sin), [m_core - 1])
    zero = np.zeros(m_core)
    return (head + _almansi_sum(harm, zero, 1.0 / zeta, floor)
            + rho2 * _almansi_sum(bih, zero, 1.0 / zeta, floor, power=2))


def _rung_bytes(m_inner: int, m_core: int, cores: int) -> int:
    """Bytes a ``_MichellSeries`` rung holds at most, in floats of its N
    nodes, n exterior modes and c = n + d columns (d = 1 + 3K data sets):
    N (4 n + 8 M_i + 4 M_e + 2 d + 32) for the traces, rows, scratch and
    node columns, and (14 M_i + 8 M_e K + n) c for the coefficients, the
    core-circle misses and the system, whose LU comes after the misses."""
    nodes, n_ext = 4 * (m_inner + m_core * cores), (4 * m_core - 2) * cores
    data = 1 + 3 * cores
    return 8 * (nodes * (4 * n_ext + 8 * m_inner + 4 * m_core + 2 * data + 32)
                + (14 * m_inner + 8 * m_core * cores + n_ext) * (n_ext + data))


def _least_squares(system: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Solution X of the square system A X = B for the columns [A B] of
    ``system``, A its first ``n`` (scaled in place to unit largest entry
    per column), and a lower bound on the 1-norm condition number of the
    scaled A: ||A||_1 max ||A^-1 p||_1 / ||p||_1 over the probes p of
    LAPACK's ``dlacn2`` (Higham 1988), all ones and (-1)^k (1 + k / (n -
    1)), which the same LU solves. At 1 / (n eps) or above, as for a
    singular A, a column the others span to roundoff raises
    ``NumericalError`` instead of fitting noise."""
    # the largest |entry| of each column, with no |A| temporary
    A = system[:, :n]
    scale = np.maximum(A.max(axis=0), -A.min(axis=0))
    scale[scale == 0.0] = 1.0
    A /= scale
    probes = np.stack([np.ones(n), (-1.0) ** np.arange(n) * np.linspace(1, 2, n)], 1)
    try:
        X = np.linalg.solve(A, np.hstack([system[:, n:], probes]))
    except np.linalg.LinAlgError:
        condition = math.inf
    else:
        condition = float(np.abs(A).sum(axis=0).max() * (
            np.abs(X[:, -2:]).sum(axis=0) / np.abs(probes).sum(axis=0)).max())
    if not condition < 1.0 / (n * np.finfo(float).eps):
        raise NumericalError(f"core series fit is rank deficient: condition "
                             f"{condition:.3g} over {n} modes")
    return X[:, :-2] / scale[:, None], condition


class _MichellSeries:
    """Biharmonic fields z on the punctured disk, B_R minus the core
    balls B_eps(y_k), with given value and normal derivative on every
    circle, for 1 + 3K data sets at once.

    Data set 0 is the traces of -W_p on all circles; data set 1 + 3k + a
    those of 1, x_1 - y_k1 and x_2 - y_k2 (a = 0, 1, 2) on core k, and
    zero elsewhere. z sums the Almansi modes k < M_i about the disk
    centre and the exterior Michell modes of order below M_e about every
    core. For given core coefficients the interior ones are the FFT fit
    (``_almansi_modes``) of the outer traces the core modes leave, at
    4 M_i nodes, which leave no miss below frequency M_i. The core
    coefficients leave none below M_e at the 4 M_e nodes of each core
    circle: 2 (2 M_e - 1) conditions per core, one per exterior mode.
    This square system is written core by core into one column-major
    array (``_system``) and solved by one LU (``_least_squares``). The
    nodes of all circles are stacked, and one set of their rows
    (``_rows``) gives the core-circle misses and, after the fit, the
    traces and Laplacians at all nodes.

    ``block_residuals`` are the largest misses of either trace, relative
    to the largest datum, at the outer circle's nodes and at the core
    circles' nodes, and ``residual`` is the larger; ``condition`` is the
    fit's 1-norm condition estimate (``_least_squares``). ``Q[i, j]`` is
    the integral of Delta z_i Delta z_j over the punctured disk, from
    Green's identity on the circles against the data traces, symmetrized.
    """

    def __init__(self, domain: DiskDomain, sites, eps: float, W_p,
                 m_inner: int, m_core: int):
        R = domain.radius_R
        self.domain, self.sites, self.eps = domain, sites, eps
        self.modes = (m_inner, m_core)
        # the nodes of all circles, the outer one first, in one stack
        n0, nc = 4 * m_inner, 4 * m_core
        counts = [n0, nc * len(sites)]
        circles = [circle_nodes(domain.center, R, n0)] + [
            circle_nodes(y, eps, nc) for y in sites]
        pts, nhat = (np.vstack([c[i] for c in circles]) for i in (0, 1))
        radius = np.repeat([R, eps], counts)[:, None]
        val, der = np.zeros((2, len(pts), 1 + 3 * len(sites)))
        value, gradient = W_p.value_and_gradient(pts)
        val[:, 0] = -value
        der[:, 0] = -radius[:, 0] * (gradient * nhat).sum(axis=-1)
        for k, y in enumerate(sites):
            on, col = slice(n0 + k * nc, n0 + (k + 1) * nc), 3 * k + 1
            val[on, col], val[on, col + 1:col + 3] = 1.0, pts[on] - y
            der[on, col + 1:col + 3] = eps * nhat[on]
        ext, X = self._rows(pts, nhat)
        n_ext = ext.shape[-1]
        A, B, system = self._system(ext, X, val, der)
        self.coef, self.condition = _least_squares(system, n_ext)
        self.A = A[:, n_ext:] - A[:, :n_ext] @ self.coef
        self.B = B[:, n_ext:] - B[:, :n_ext] @ self.coef

        z, dz, lap, dlap = self._fields(ext, X)
        self.size = size = np.maximum(np.abs(val), np.abs(der)).max(axis=0)
        miss = np.maximum(np.abs(z - val), np.abs(radius * dz - der)) / np.where(
            size > 0.0, size, 1.0)
        self.block_residuals = (float(miss[:n0].max()), float(miss[n0:].max()))
        self.residual = max(self.block_residuals)
        # trapezoid weights, negative on the cores, where the outward
        # normal of the punctured disk is -nhat
        weight = np.repeat([2.0 * math.pi * R / n0, -2.0 * math.pi * eps / nc],
                           counts)[:, None]
        Q = lap.T @ (weight * der / radius) - dlap.T @ (weight * val)
        self.Q = 0.5 * (Q + Q.T)

    def _system(self, ext, X, val, der):
        """The interior coefficients (A, B) of every column, the core
        modes' then the data sets', for zero core coefficients, and the
        square system of the core coefficients, in LAPACK's column-major
        order: on each core circle in turn, the real parts of the
        frequencies 0 .. M_e - 1 and the imaginary parts of 1 .. M_e - 1
        of the misses of the value, then of the eps d_n traces.
        ``ext`` and ``X`` are the exterior traces and the interior rows
        at the nodes, the outer circle's 4 M_i first."""
        R, eps, (m_inner, m_core) = self.domain.radius_R, self.eps, self.modes
        n0, cores, n_ext = 4 * m_inner, len(self.sites), ext.shape[-1]
        A, B = _almansi_modes(*(
            np.fft.rfft(np.hstack(t), axis=0)[:m_inner] / n0 for t in (
                [ext[0, :n0], val[:n0]], [R * ext[1, :n0], der[:n0]])))
        system = np.empty((n_ext, A.shape[1]), order="F")
        # a view: splitting the row axis of a column-major array needs no copy
        rows = system.reshape(cores, 2, 2 * m_core - 1, -1)
        H = np.empty((2 * m_core + 1, A.shape[1]), dtype=complex)
        low = H[:m_core]
        for j, (miss, ext_j, data) in enumerate(zip(
                _interior_traces(X, R, A, B, slice(n0, None)),
                ext[:2, n0:], (val[n0:], der[n0:] / eps))):
            # the misses overwrite the interior traces
            np.subtract(ext_j, miss[:, :n_ext], out=miss[:, :n_ext])
            np.subtract(data, miss[:, n_ext:], out=miss[:, n_ext:])
            for k, part in enumerate(np.split(miss, cores)):
                np.fft.rfft(part, axis=0, out=H)
                rows[k, j, :m_core], rows[k, j, m_core:] = low.real, low[1:].imag
        rows[:, 1] *= eps
        return A, B, system

    def _rows(self, pts, nhat):
        """The exterior traces and the interior rows at the points."""
        nu, (m_inner, m_core) = (nhat[:, 0] + 1j * nhat[:, 1])[:, None], self.modes
        ext = np.empty((4, len(pts), (4 * m_core - 2) * len(self.sites)))
        for y, part in zip(self.sites, np.split(ext, len(self.sites), axis=-1)):
            zeta = ((pts[:, 0] - y[0]) + 1j * (pts[:, 1] - y[1]))[:, None] / self.eps
            _michell_traces(zeta, nu, self.eps, m_core, part)
        (cx, cy), R = self.domain.center, self.domain.radius_R
        w = ((pts[:, 0] - cx) + 1j * (pts[:, 1] - cy))[:, None] / R
        return ext, _interior_rows(w, nu, m_inner)

    def fields(self, pts, nhat):
        """Value, normal derivative along ``nhat``, Laplacian and normal
        derivative of the Laplacian of every z (one column per data
        set) at points of the punctured disk."""
        return self._fields(*self._rows(pts, nhat))

    def _fields(self, ext, X):
        """``fields`` from the exterior traces and the interior rows."""
        R = self.domain.radius_R
        inner = (*_interior_traces(X, R, self.A, self.B),
                 *_interior_laplacians(X, R, self.B))
        return [i + e @ self.coef for i, e in zip(inner, ext)]

    def solution(self, u: np.ndarray, W_p, scale: float) -> SeriesSolution:
        """``scale`` (W_p + z) for z = z_0 + sum_j u_j z_j, affine on the
        core balls."""
        weights = np.concatenate([[1.0], u])
        floor = np.finfo(float).eps * float(self.size @ np.abs(weights))
        interior = _AlmansiSeries(self.domain, self.A @ weights,
                                  self.B @ weights, floor)
        return SeriesSolution(
            interior, scale, W_p, [(y, self.eps) for y in self.sites],
            np.split(u, len(self.sites)),
            np.split(self.coef @ weights, len(self.sites)), self.modes[1])


def _core_problem(elastic: ElasticConstants, domain: DiskDomain,
                  dislocations, eps: float):
    """Data of the core-constrained functional for w = W_p + z: the
    profiles W_p, the integral of (Delta z)^2 over the core balls, the
    constant C0 and the load on the affine core parameters u (value and
    two slopes per core), so that the functional is
    (fl/2) int_{B_R} (Delta z)^2 + load . u - C0.

    All three are sums of one :func:`energy.circle_sums` on the outer
    and the core circles: each level evaluates every closed form once."""
    fl = _gram_factor(elastic)
    W_p = SumField(tuple(
        DislocationCoreAiry(elastic=elastic, burgers_b=d.burgers_b, eps=eps,
                            radius_R=domain.radius_R, site=d.site)
        for d in dislocations))
    # the profiles' annulus branches, which the Laplacian traces on the
    # core circles take: the limit from the annulus side
    branches = [replace(t, annulus_branch=True) for t in W_p.terms]
    K, circles = len(dislocations), [(domain.center, domain.radius_R)] + [
        (d.site, eps) for d in dislocations]

    def traces(pts, nhat):  # rows: W_p and d_n W_p, nhat, the Laplacians, d_n
        value, gradient = W_p.value_and_gradient(pts)
        return np.array([value, (gradient * nhat).sum(axis=-1), *nhat.T,
                         *[t.laplacian(pts) for t in branches],
                         *[(t.grad_laplacian(pts) * nhat).sum(axis=-1)
                           for t in branches]])

    def sums(x):
        g_val, g_dn, nh, lap, dnlap = x[0], x[1], x[2:4], x[4:4 + K], x[4 + K:]
        # C0 = (fl/2) sum over profiles f of the boundary integral of Df
        # d_n W_p - (d_n Df) W_p, valid for f biharmonic on the annular
        # region
        C0 = 0.5 * fl * sum(_boundary_integral(
            (lap[i] * g_dn - dnlap[i] * g_val).mean(axis=-1), circles)
            for i in range(K))
        # linear coupling of the core affine parameters through the
        # circle integrals, plus the slope load <grad a_k, Pi(b_k)>. On
        # core ball k, Delta z = -Delta W_p is the Laplacian of the other
        # profiles, both branches alike: harmonic, so the FFT of its
        # trace integrates its square exactly, pi eps^2 (a_0^2 + sum_m
        # (a_m^2 + b_m^2) / (2m + 2))
        load, ball, ring, n = np.zeros(3 * K), 0.0, 2.0 * math.pi * eps, x.shape[-1]
        for k, d in enumerate(dislocations):
            lap_p, dnlap_p = sum(lap[:, k + 1]), sum(dnlap[:, k + 1])
            Pi = rotate_burgers(d.burgers_b)
            load[3 * k] = fl * ring * float(np.mean(dnlap_p))
            for a in (0, 1):
                load[3 * k + 1 + a] = Pi[a] - fl * ring * float(np.mean(
                    lap_p * nh[a, k + 1] - dnlap_p * eps * nh[a, k + 1]))
            H = np.fft.rfft(np.zeros(n) + sum(
                f for j, f in enumerate(lap[:, k + 1]) if j != k)) / n
            m = np.arange(1, len(H))
            ball += math.pi * eps**2 * (
                H[0].real ** 2 + float(np.sum(2.0 * np.abs(H[1:]) ** 2 / (m + 1.0))))
        return np.concatenate([[C0, ball], load])

    (C0, ball, *load), _ = circle_sums(circles, traces, sums)
    return W_p, float(ball), float(C0), np.array(load)


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

    The value does not depend on ``n``, the resolution of a field dump.
    ``extras`` gives the mode counts (interior, per core),
    ``fit_condition`` (a lower bound on the 1-norm condition number of
    the fit's square system, ``_least_squares``) and ``value_change``,
    the change in value over the last rung, which doubled the interior
    count, the core count or both (``None`` when the first fit met its
    target). A rung whose arrays would exceed ``_MAX_RUNG_BYTES`` is not
    started; when doubling both blocks would, only the block with the
    larger residual doubles. The last fit stands if its residual is
    within ``_RESIDUAL_BOUND``, and otherwise ``NumericalError`` names
    the budget.
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
    # fitted at E = 1, where the squared mode coefficients cannot
    # overflow, then scaled: the value, the affine parameters and the
    # field by E
    E = elastic.young_E
    elastic = ElasticConstants(1.0, elastic.poisson_nu)

    t0 = time.perf_counter()
    fl = _gram_factor(elastic)
    W_p, ball_energy, C0, load = _core_problem(elastic, domain, dislocations, eps)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]

    def minimum(series: _MichellSeries):
        Q = series.Q
        u = np.linalg.solve(Q[1:, 1:], -(Q[1:, 0] + load / fl))
        energy = Q[0, 0] + 2.0 * Q[0, 1:] @ u + u @ Q[1:, 1:] @ u + ball_energy
        return u, float(0.5 * fl * energy + load @ u - C0)

    modes, rungs = (_FIRST_MODES, _FIRST_MODES // 2), []
    while (need := _rung_bytes(*modes, len(sites))) <= _MAX_RUNG_BYTES:
        series = _MichellSeries(domain, sites, eps, W_p, *modes)
        previous = rungs[-1][0].block_residuals if rungs else (None, None)
        rungs = rungs[-1:] + [(series, *minimum(series))]
        grow = [m < cap and _keeps_doubling(r, p, _SERIES_TARGET) for m, cap, r, p
                in zip(modes, (_MAX_MODES, _MAX_MODES // 2),
                       series.block_residuals, previous)]
        if not any(grow):
            break
        if all(grow) and (_rung_bytes(*(2 * m for m in modes), len(sites))
                          > _MAX_RUNG_BYTES):
            worse = series.block_residuals[1] > series.block_residuals[0]
            grow = [not worse, worse]
        modes = tuple(2 * m if g else m for m, g in zip(modes, grow))
    else:
        if not (rungs and rungs[-1][0].residual <= _RESIDUAL_BOUND):
            raise NumericalError(
                f"core series rung {modes} needs about {need / 2**20:.0f} MiB, "
                f"above the memory budget of {_MAX_RUNG_BYTES / 2**20:.0f} MiB")
    series, u, value = rungs[-1]
    if not series.residual <= _RESIDUAL_BOUND:
        raise NumericalError(f"core series fit residual {series.residual} "
                             f"with modes {series.modes}")
    fit_seconds = time.perf_counter() - t0

    affine = {f"core_{k}": [E * float(c) for c in u[3 * k:3 * k + 3]]
              for k in range(len(dislocations))}

    return SolveReport(
        value=E * value, residual=series.residual, method="series", grid_n=n,
        delta=delta, assemble_seconds=fit_seconds,
        solution=series.solution(u, W_p, E),
        extras={"eps": eps, "core_affine": affine, "separation_D": D,
                "modes": list(series.modes),
                "fit_condition": series.condition,
                "value_change": None if len(rungs) < 2
                else E * abs(value - rungs[0][2])},
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
    return replace(report, extras=extras)


def solve_elastic_correction(elastic: ElasticConstants, domain: DiskDomain,
                             dislocations, n: int = 256) -> SolveReport:
    """Biharmonic boundary-relaxation solve.

    The correction is the biharmonic field whose boundary traces cancel
    those of the summed zero-core dislocation profiles, solved exactly
    in Fourier modes, with its plate energy as an exact mode sum; the
    reported value adds the analytic boundary pairing terms, i.e. it is
    the elastic part of the renormalized energy. The value does not
    depend on ``n``, the resolution of a field dump.
    """
    dislocations = list(dislocations)
    if not dislocations:
        raise ValidationError("need at least one dislocation")
    delta = grid_for_disk(domain, n).delta
    # fitted at E = 1, where the squared mode coefficients cannot
    # overflow, then scaled: the value, the energies and the field by E
    E = elastic.young_E
    elastic = ElasticConstants(1.0, elastic.poisson_nu)
    terms = [
        DislocationLimitAiry(elastic=elastic, burgers_b=d.burgers_b,
                             radius_R=domain.radius_R, site=d.site)
        for d in dislocations
    ]
    P, _ = _profile_pairings(elastic, domain, terms)
    series, fit_seconds, value, energies = _elastic_correction(
        elastic, domain, terms, -float(P.sum()))
    return _series_report(series, n, delta, E * value, fit_seconds,
                          {k: E * v for k, v in energies.items()}, scale=E)


def _profile_pairings(elastic: ElasticConstants, domain: DiskDomain, terms,
                      D: float | None = None):
    """Boundary pairings of the zero-core profiles ``terms`` by
    :func:`energy.circle_sums`, each profile evaluated once per level:
    P[j, k] of j's moments with k's values on the outer circle and,
    given ``D``, S[j] of j with itself on its circle of radius D. A
    centred profile's P vanishes, so they settle against K |b|^2 / 8 pi."""
    R, T = domain.radius_R, len(terms)
    circles = [(domain.center, R)] + [(t.site, D) for t in terms if D is not None]
    factor = 2.0 * math.pi * (1.0 + elastic.poisson_nu) / elastic.young_E

    def traces(pts, nhat):
        n = len(pts) // len(circles)
        own = [np.r_[:n, (j + 1) * n:(j + 2) * n] if D else slice(None)
               for j in range(T)]
        return np.array([_pairing_traces(t, pts[i], nhat[i], elastic.poisson_nu)
                         for t, i in zip(terms, own)])

    def sums(x):  # x[j]: profile j's moments and values, (2, 4, circle, node)
        P = [R * _pairing_means(x[j, 0, :, :1], x[:, 1, :, :1])[:, 0] for j in range(T)]
        S = [D * _pairing_means(x[j, 0, :, 1:], x[j, 1, :, 1:])[0]
             for j in range(len(circles) - 1)]
        return factor * np.concatenate([np.ravel(P), S])

    pairs, _ = circle_sums(circles, traces, sums,
                           max(t.K * t.magnitude**2 for t in terms) / (8.0 * math.pi))
    return pairs[:T * T].reshape(T, T), pairs[T * T:]


def _elastic_correction(elastic: ElasticConstants, domain: DiskDomain, terms,
                        boundary: float):
    """``solve_elastic_correction`` at E = 1 (``elastic``) for the
    zero-core profiles ``terms`` and their ``boundary`` pairing with the
    correction (whose traces on the admissible set are the negated
    profile traces): minus the sum of ``_profile_pairings``' P. Returns
    the fitted series, the fit time, the value and the energies by name."""
    W0 = SumField(tuple(terms))

    t0 = time.perf_counter()
    series = _AlmansiSeries.fit(domain, W0)
    # Hessian-form energy of the (non-clamped) correction, with
    # |D^2 v|^2 = ((Delta v)^2 + |4 d_z^2 v|^2) / 2
    nu = elastic.poisson_nu
    lap_square, wirt_square = series.squares()
    G_hess = (1.0 + nu) / 2.0 * ((0.5 - nu) * lap_square + 0.5 * wirt_square)
    gram_value = 0.5 * _gram_factor(elastic) * lap_square
    fit_seconds = time.perf_counter() - t0
    return series, fit_seconds, G_hess + boundary, {
        "gram_objective": gram_value, "hessian_energy": G_hess,
        "boundary_pairing": boundary}
