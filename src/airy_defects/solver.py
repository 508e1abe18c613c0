"""Minimization of the defect functionals on a disk.

The pure-trace problems (the field of the split clamped disclination,
whose value is a closed form, and the elastic correction of the
zero-core dislocation profiles) need a biharmonic field on the whole
disk with prescribed value and normal derivative on r = R. Mode
by mode it has Almansi's closed form ``a_k r^|k| + b_k r^(|k|+2)``
(Michell 1899): an FFT of the two traces and a 2x2 solve per mode give
the coefficients, the plate energies are exact sums over modes, and the
reported solution is the summed series.

The core-constrained problem lives on the punctured disk, B_R minus the
core balls. Its smooth correction is one such series, fitted once to the
outer traces, plus clamped modes about each core: source-point
derivatives of the clamped Green's function of the disk (Boggio 1905),
each a Michell mode log r, r^2 log r, r log r (cos, sin) theta, r^-m or
r^(2-m) (cos, sin) m theta plus its rational image part (Cheng &
Greengard 1998), so that it vanishes with its normal derivative on r =
R. One square system matches the low frequencies of each core circle's
traces, and Green's identity on the circles turns the plate energy
into exact circle integrals, which leave one 3K x 3K system for the
affine parameters of the K cores.

Every solve samples nothing: its report carries the minimizer as a
``SeriesSolution``, an ``AiryField`` whose ``derivatives`` give its
value and exact Hessian at any points of the closed disk (NaN off it),
and the value does not depend on the resolution ``n`` of a field dump.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

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
    AiryField,
    DislocationCoreAiry,
    DislocationLimitAiry,
    FundamentalAiry,
    ScaledField,
    ShiftedField,
    SumField,
    _pts,
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

    ``solution`` gives the minimizer's value and exact Hessian at any
    points of the closed disk (``SeriesSolution``); ``grid_n`` and
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


# A point's series sum drops the modes past the last whose term exceeds
# floor / _TAIL_MARGIN: at |w| near 1 the dropped tail holds many terms
# just under the cut, and the margin keeps their sum near the floor.
_TAIL_MARGIN = 16.0
# points within this distance of r = R, relative to R, count as on it
_ON_CIRCLE = 1e-15


def _mode_counts(bound: np.ndarray, r: np.ndarray, floor: float) -> np.ndarray:
    """Per radius r, the last mode k whose term bound_k r^k exceeds
    ``floor`` (0 when none does). Mode k > 0 is live where log r passes
    its threshold (log floor - log bound_k) / k, mode 0 where its bound
    passes ``floor``; the last live mode is the last whose least
    threshold from it on lies below log r."""
    k = np.arange(len(bound))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = math.log(floor) if floor > 0.0 else -math.inf
        threshold = np.where(k > 0, (gap - np.log(bound)) / np.maximum(k, 1),
                             np.where(bound > floor, -np.inf, np.inf))
        threshold[np.isnan(threshold)] = np.inf
        least = np.minimum.accumulate(threshold[::-1])[::-1]
        return np.maximum(np.searchsorted(least, np.log(r)) - 1, 0)


def _almansi_sum(A: np.ndarray, B: np.ndarray, w: np.ndarray,
                 floor: float) -> np.ndarray:
    """sum_k (A_k + B_k |w|^2) w^k, complex, at points |w| <= 1. Each
    point sums, by Horner's rule, the modes up to the last whose bound
    (|A_k| + |B_k|) |w|^k exceeds ``floor`` (``_mode_counts``), so deep
    points cost few modes and no value depends on the other points.
    Points go by growing count: the step of mode j takes those that
    sum it, which all sum the modes below it too."""
    out = np.empty(len(w), dtype=complex)
    if not len(w):
        return out
    count = _mode_counts(np.abs(A) + np.abs(B), np.abs(w), floor)
    order = np.argsort(count, kind="stable")
    w, count = w[order], count[order]
    first = np.searchsorted(count, np.arange(count[-1] + 1))

    def horner(C):
        s = np.zeros(len(w), dtype=complex)
        for j in range(count[-1], -1, -1):
            # not in place: numpy rounds an in-place complex product of
            # one element otherwise than that of two or more
            at = slice(first[j], None)
            s[at] = s[at] * w[at] + C[j]
        return s

    total = horner(A)
    if B.any():
        total += np.abs(w) ** 2 * horner(B)
    out[order] = total
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
    B_k rho^(k+2)) e^{ik theta} with rho = r / R, c_0 = 1 and c_k = 2
    for k >= 1 (the conjugate modes k < 0). ``floor`` is the size below
    which its point sums drop the tail of the series (see
    ``_TAIL_MARGIN``)."""

    def __init__(self, domain: DiskDomain, A: np.ndarray, B: np.ndarray,
                 floor: float, samples: int = 0, residual: float = 0.0):
        self.domain, self.A, self.B, self.floor = domain, A, B, floor
        self.samples, self.residual = samples, residual

    @classmethod
    def fit(cls, domain: DiskDomain, trace_field) -> "_AlmansiSeries":
        """The series whose value and normal derivative on r = R are
        those of ``-trace_field``, from the FFT of the two traces."""
        R, m, members = domain.radius_R, _FIRST_SAMPLES, ("value", "gradient")

        def traces(value, gradient, nhat):  # 0.0 - value keeps a zero +0.0
            return 0.0 - value, -R * (gradient * nhat).sum(axis=-1)

        # the first level's three point sets in one evaluation: the field
        # on r = R / 2, a residual scale that does not vanish with the
        # traces (those of a centered dislocation are roundoff), the
        # nodes and the nodes half-way between them
        pts, nhat, _ = circle_nodes(domain.center, R, m)
        half, half_nhat, _ = circle_nodes(domain.center, R, m, 0.5)
        with np.errstate(all="ignore"):
            value, gradient = trace_field.derivatives(np.vstack(
                [0.5 * (pts + np.asarray(domain.center)), pts, half]), members)
        inner = np.abs(value[:m])
        inner_scale = float(inner[np.isfinite(inner)].max(initial=0.0))
        f, g = traces(value[m:2 * m], gradient[m:2 * m], nhat)
        fs, gs = traces(value[2 * m:], gradient[2 * m:], half_nhat)
        previous = None
        while True:
            F, G = np.fft.rfft(f) / m, np.fft.rfft(g) / m
            F[-1] = G[-1] = 0.0  # the Nyquist mode has no shifted value
            # the interpolated traces against the samples half-way between
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
            half, half_nhat, _ = circle_nodes(domain.center, R, m, 0.5)
            fs, gs = traces(*trace_field.derivatives(half, members), half_nhat)
        if not residual <= _RESIDUAL_BOUND:
            raise NumericalError(f"trace fit residual {residual} with {m} samples")
        A, B = _almansi_modes(F, G)
        return cls(domain, A, B, np.finfo(float).eps * scale, m, residual)

    @cached_property
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

    @cached_property
    def _potentials(self) -> np.ndarray:
        """Columns of the coefficients in powers of w of the Goursat
        potentials of ``fields``: chi, phi / w, phi', chi' and phi''."""
        k = np.arange(len(self.A))
        cA, cB = (np.where(k > 0, 2.0, 1.0) * c for c in (self.A, self.B))
        T = np.zeros((len(k), 5), dtype=complex)
        T[:, 0], T[:, 1], T[:, 2] = cA, cB, (k + 1) * cB
        T[:-1, 3], T[:-1, 4] = (k * cA)[1:], (k * (k + 1) * cB)[1:]
        return T

    def fields(self, pts: np.ndarray, nhat: np.ndarray):
        """Value, normal derivative along ``nhat``, Laplacian and its
        normal derivative at (N, 2) points of the disk, from the Goursat
        potentials chi = sum c_k A_k w^k and phi = sum c_k B_k w^(k+1) of
        z = Re(conj(w) phi + chi), w = (x - centre) / R: R d_n z = Re(phi
        conj(nu) + (conj(w) phi' + chi') nu), Delta z = 4 Re phi' / R^2
        and d_n Delta z = 4 Re(phi'' nu) / R^3."""
        (cx, cy), R = self.domain.center, self.domain.radius_R
        w = ((pts[:, 0] - cx) + 1j * (pts[:, 1] - cy)) / R
        nu, cw = nhat[:, 0] + 1j * nhat[:, 1], np.conj(w)
        chi, psi, dphi, dchi, ddphi = (
            _powers(w[:, None], len(self.A)) @ self._potentials).T
        phi = w * psi
        return (np.real(cw * phi + chi),
                np.real(phi * np.conj(nu) + (cw * dphi + dchi) * nu) / R,
                4.0 * dphi.real / R**2, 4.0 * np.real(ddphi * nu) / R**3)

    def value(self, w: np.ndarray) -> np.ndarray:
        """z at the points w = (x - centre) / R of the closed disk."""
        T = self._potentials
        return _almansi_sum(T[:, 0], T[:, 1], w, self.floor / _TAIL_MARGIN).real

    def hessian(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """R^2 Delta z and R^2 (z_xx - z_yy - 2i z_xy) at the points w of
        the closed disk, by Kolosov-Muskhelishvili: 4 Re phi' and 2
        (conj(w) phi'' + chi''), from ``_potentials``, each summed as
        ``value`` is, with the bound of its own coefficients."""
        T, j, floor = self._potentials, np.arange(1, len(self.A)), self.floor / _TAIL_MARGIN
        return (_almansi_sum(4.0 * T[:, 2], 0.0 * T[:, 2], w, floor).real,
                _almansi_sum(2.0 * j * T[1:, 3], 2.0 * T[1:, 4], w, floor)
                + 2.0 * T[0, 4] * np.conj(w))


class SeriesSolution(AiryField):
    """The minimizer of a solve as a field on the closed disk: ``scale``
    times the interior series (``_AlmansiSeries``) plus, off the core
    balls, the closed-form part ``closed`` and the clamped modes of each
    core; on core ball k (|x - y_k| <= eps_k) it is the affine part.

    ``derivatives`` gives "value" and "hessian" (any other name raises),
    each part differentiated in its own form: the series and the clamped
    modes by Kolosov-Muskhelishvili (``_AlmansiSeries.hessian``,
    ``_clamped_sum``), the closed part by its own ``derivatives``, an
    affine part as a zero Hessian. Off the disk both are NaN; points
    within ``_ON_CIRCLE`` R of r = R count as on it. ``cores`` holds
    (site, eps) per core. Each point's numbers depend on that point
    alone.
    """

    def __init__(self, interior: _AlmansiSeries, scale: float = 1.0,
                 closed=None, cores=(), affine=(), modes=(), m_core: int = 0):
        self.interior, self.scale, self.closed = interior, scale, closed
        self.cores, self._affine = tuple(cores), tuple(affine)
        self._modes, self._m_core = tuple(modes), m_core

    def derivatives(self, x, names):
        if not set(names) <= {"value", "hessian"}:
            raise ValidationError(f"a solution gives value and hessian, not {tuple(names)}")
        pts, hessian = _pts(x), "hessian" in names
        (cx, cy), R = self.interior.domain.center, self.interior.domain.radius_R
        disk = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) <= R * (1.0 + _ON_CIRCLE)
        pts, Z = pts[disk], ((pts[disk, 0] - cx) + 1j * (pts[disk, 1] - cy)) / R
        # the value, then R^2 Delta and R^2 (d_xx - d_yy - 2i d_xy)
        sums = [self.interior.value(Z), *(self.interior.hessian(Z) if hessian else ())]
        off = np.ones(len(pts), dtype=bool)
        for (y, eps), (a, s1, s2) in zip(self.cores, self._affine):
            dx, dy = pts[:, 0] - y[0], pts[:, 1] - y[1]
            ball = np.hypot(dx, dy) <= eps
            sums[0][ball] = a + s1 * dx[ball] + s2 * dy[ball]
            off &= ~ball
        if self.closed is not None:
            closed = self.closed.derivatives(pts[off], ("value", "hessian")[:1 + hessian])
            sums[0][off] += closed[0]
        # numpy rounds complex products of one element otherwise than of
        # more, so a lone point is summed twice over
        at = np.resize(np.flatnonzero(off), 2) if off.sum() == 1 else np.flatnonzero(off)
        for (y, eps), c in zip(self.cores, self._modes):
            zeta = ((pts[at, 0] - y[0]) + 1j * (pts[at, 1] - y[1])) / eps
            parts = _clamped_sum(c, zeta, complex(y[0] - cx, y[1] - cy) / R, eps / R,
                                 self._m_core, hessian)
            for total, part in zip(sums, parts if hessian else [parts]):
                total[at] += part
        out = {"value": np.full(len(disk), np.nan), "hessian": np.full((len(disk), 2, 2), np.nan)
               if hessian else None}
        out["value"][disk] = self.scale * sums[0]
        if hessian:
            lap, dd = sums[1:]
            H = np.stack([lap + dd.real, -dd.imag, -dd.imag, lap - dd.real], -1) / (2.0 * R * R)
            if self.closed is not None:
                H[off] += closed[1].reshape(-1, 4)
            H[~off] = 0.0
            out["hessian"][disk] = self.scale * H.reshape(-1, 2, 2)
        return tuple(out[name] for name in names)


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

    The minimizer is v = -K sum_k s_k G_B(., y_k), with G_B Boggio's
    clamped Green's function (``closedform.clamped_green``), so the
    minimum is -(K/2) sum_ij s_i s_j G_B(y_i, y_j); its A parts sum to
    (sum_i s_i (R^2 - |y_i|^2))^2 / R^2, which a close +- pair cancels
    exactly, and the rest is the log1p tail of the pairs. The field
    splits v as the fundamental potentials of the charges plus a smooth
    biharmonic correction with the negated boundary traces, solved
    exactly in Fourier modes; ``gram_objective`` is the correction's
    plate energy (1 - nu^2)/(2E) int (Delta z)^2, and
    ``closed_form_constant`` the rest of the value. The value does not
    depend on ``n``, the resolution of a field dump.
    """
    disclinations = list(disclinations)
    delta = grid_for_disk(domain, n).delta
    # solved at E = 1 and max|s_k| = 1, where the plate energy (squared
    # mode coefficients) cannot overflow, then scaled: the value by
    # E max|s_k|^2, the field by E max|s_k|
    E = elastic.young_E
    s_max = max((abs(d.frank_angle_s) for d in disclinations), default=1.0)
    elastic = ElasticConstants(1.0, elastic.poisson_nu)
    sites = np.array([d.site for d in disclinations], dtype=float).reshape(-1, 2)
    charges = np.array([d.frank_angle_s for d in disclinations], dtype=float) / s_max
    for p in sites:
        if domain.boundary_distance(p) <= 0.0:
            raise ValidationError(f"disclination site {tuple(p)} outside the domain")
    R, r = domain.radius_R, np.hypot(*(sites - np.asarray(domain.center)).T) / domain.radius_R
    a, d2 = (1.0 - r) * (1.0 + r), (((sites[:, None] - sites) / R) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(d2 > 0.0, d2 * np.log1p(np.outer(a, a) / d2), 0.0)
    value = 0.0 - elastic.plane_prefactor * R * R / (32.0 * math.pi) * (
        float(charges @ a) ** 2 - float(charges @ tail @ charges))
    fund = FundamentalAiry(elastic)
    v_sing = SumField(tuple(ScaledField(-s, ShiftedField(tuple(p), fund))
                            for s, p in zip(charges, sites)))

    t0 = time.perf_counter()
    series = _AlmansiSeries.fit(domain, v_sing)
    gram_value = 0.5 * _gram_factor(elastic) * series.squares[0]
    fit_seconds = time.perf_counter() - t0

    def energy(x: float) -> float:
        return x * E * s_max * s_max  # s_max^2 alone can overflow

    return _series_report(
        series, n, delta, energy(value), fit_seconds,
        {"closed_form_constant": energy(value - gram_value),
         "gram_objective": energy(gram_value)},
        singular=v_sing, scale=E * s_max,
    )


# The core fit doubles the per-core mode count M_e on its core-circle
# residual under the rule of ``_keeps_doubling`` with target
# _SERIES_TARGET, up to _MAX_MODES, from the rung that ``_first_modes``
# predicts (at least _FIRST_MODES); no rung above _MAX_RUNG_BYTES is
# started. Each rung also fits its own modes of order below M_e / 2 to
# its frequencies below M_e / 2, and the value of that half-size fit
# gives the report's ``value_change``.
_FIRST_MODES = 8
_MAX_MODES = 256
_SERIES_TARGET = 1e-12
_MAX_RUNG_BYTES = 2**30
# smallest gap D - eps, relative to R, that the core fit accepts
_TOUCH_GAP = 1e-12


def _first_modes(domain: DiskDomain, sites, eps: float) -> int:
    """The M_e the core ladder starts at: the least power of two from
    _FIRST_MODES (capped at _MAX_MODES) with rho^M_e <= _SERIES_TARGET.
    The core coefficients decay like rho^m, rho = eps / d, d the least
    distance from a core to another core or to a core's Kelvin image
    (Cheng & Greengard 1998), so the rungs below it miss the target; one
    skipped by mistake costs a doubling, never a worse fit. In units of R, with W the cores about the centre, core
    k's distance to the image 1 / conj(W_j) is |1 - W_k conj(W_j)| /
    |W_j|, never 0 in the disk; so rho is the larger of e |W_j| / |1 -
    W_k conj(W_j)|, which a centred core makes 0, and e / |W_k - W_j|."""
    W = (np.array([complex(*y) for y in sites]) - complex(*domain.center)) / domain.radius_R
    e, (k, j) = eps / domain.radius_R, np.triu_indices(len(W), 1)
    rho = float(max((e * np.abs(W) / np.abs(1.0 - W[:, None] * np.conj(W))).max(),
                    (e / np.abs(W[k] - W[j])).max(initial=0.0)))
    m_core = _FIRST_MODES
    while m_core < _MAX_MODES and rho**m_core > _SERIES_TARGET:
        m_core *= 2
    return m_core


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """z^k for k = 0 .. count - 1 of (..., N, 1) columns, as (..., N, count)."""
    out = np.empty(z.shape[:-1] + (count,), dtype=complex)
    out[..., 0] = 1.0
    np.cumprod(np.broadcast_to(z, z.shape[:-1] + (count - 1,)), axis=-1, out=out[..., 1:])
    return out


def _michell_traces(zeta, nu, L: float, m_core: int, out: np.ndarray):
    """Fill the (4, N, modes) ``out`` with the value, the normal
    derivative along the complex unit normals nu, the Laplacian and its
    normal derivative of the exterior Michell modes about one core at
    the (N, 1) column zeta = (x - y) / L (or, for K cores at once, (4, N,
    K, modes) at the (N, K, 1) zeta): log rho, rho^2 log rho, rho log rho
    (cos, sin) theta, then the cosine and the sine parts, side by side,
    of rho^-m (1 <= m < M_e) and of rho^(2-m) (2 <= m < M_e) times
    e^{im theta}. So ``out`` viewed as complex holds log rho + i rho^2
    log rho, zeta log rho and the complex modes. Those of Re(conj(zeta)
    phi + chi) are the real parts of conj(zeta) phi + chi, (phi conj(nu)
    + conj(zeta) phi' nu + chi' nu) / L, 4 phi' / L^2 and 4 phi'' nu /
    L^3; the sine part of a family, from potentials times -i, is their
    imaginary part."""
    log, inv, cz, r2 = np.log(zeta), 1.0 / zeta, np.conj(zeta), np.abs(zeta) ** 2
    nu1, cnu1 = nu / L, np.conj(nu) / L  # the factor 1 / L of d_n
    value, dn, lap, dlap = out.view(complex)
    # chi = log zeta, phi = zeta log zeta, and zeta log rho
    value[..., 0:1] = log.real * (1.0 + 1j * r2)
    dn[..., 0:1] = (inv * nu1).real + 1j * (zeta * log * cnu1 + cz * (log + 1.0) * nu1).real
    lap[..., 0:1], dlap[..., 0:1] = 4j / L**2 * (log.real + 1.0), 4j / L**2 * (inv * nu1).real
    value[..., 1:2] = zeta * log.real
    dn[..., 1:2] = (log.real + 0.5) * nu1 + 0.5 * zeta / cz * cnu1
    lap[..., 1:2], dlap[..., 1:2] = 2.0 / L**2 / cz, -2.0 / L**2 * cnu1 / cz**2
    t, m = _powers(inv, m_core)[..., 1:], np.arange(1.0, m_core)  # zeta^-m
    h, b = slice(2, m_core + 1), slice(m_core + 1, None)
    # in place, each family with no temporary of its size
    value[..., h] = t  # chi = zeta^-m, harmonic
    np.multiply(t, inv * nu1, out=dn[..., h])
    dn[..., h] *= -m
    lap[..., h] = dlap[..., h] = 0.0
    np.multiply(t[..., 1:], r2, out=value[..., b])  # phi = zeta^(1-m)
    np.multiply(cz * nu1, 1.0 - m[1:], out=dn[..., b])
    dn[..., b] += zeta * cnu1
    dn[..., b] *= t[..., 1:]
    np.multiply(t[..., 1:], 4.0 / L**2 * (1.0 - m[1:]), out=lap[..., b])
    np.multiply(t[..., 1:], inv * nu1, out=dlap[..., b])
    dlap[..., b] *= 4.0 / L**2 * m[1:] * (m[1:] - 1.0)


def _image_frame(Z, W, e: float, m_core: int):
    """The factors of the image parts of the modes about the cores at W =
    (y - centre) / R ((K, 1)), e = eps / R, at Z = (x - centre) / R ((N,
    1, 1)): zeta = (Z - W) / e, s = 1 / (1 - Z conj(W)), T = e s^2 =
    dV/dZ, L = log|1 - Z conj(W)| and the powers V^k (k <= M_e) of V = e
    Z s, singular at the Kelvin image Z = 1 / conj(W) of a core and |V|
    <= eps / (R - |y|) < 1 in the disk."""
    s = 1.0 / (1.0 - Z * np.conj(W))
    return (Z - W) / e, s, e * s * s, -np.log(np.abs(s)), _powers(e * Z * s, m_core + 1)


def _image_heads(zeta, s, T, L, V, W, e: float, nu=None):
    """The image parts of the complex head columns of ``_michell_traces``,
    log rho + i rho^2 log rho and zeta log rho, at the points of a frame
    (``_image_frame``); with the unit normals ``nu`` also their R d_n,
    R^2 Delta and R^3 d_n Delta. 1 - |Z|^2 is taken in factored form."""
    Z, cw, r2, lr = W + e * zeta, np.conj(W), np.abs(zeta) ** 2, math.log(e) - L
    rest, a, Ve = (1.0 - np.abs(Z)) * (1.0 + np.abs(Z)), 1.0 - np.abs(W) ** 2, V / e
    values = (1.0 - 0.5 * rest - np.real(np.conj(zeta) * V) + lr
              + 1j * (r2 * lr + a / (2.0 * e * e) * rest),
              zeta * (lr + 0.5) - 0.5 * r2 * V + W / (2.0 * e) * rest)
    if nu is None:
        return values
    # of a Goursat pair R d_n = Re(conj(nu) (phi + conj(conj(Z) phi' +
    # chi'))), R^2 Delta = 4 Re phi' and R^3 d_n Delta = 4 Re(phi'' nu);
    # of a complex F nu d_Z F + conj(nu) d_Zbar F and 4 d_Z d_Zbar F
    cnu, ws, ss, Wcs = np.conj(nu), cw * s, s * s, W * np.conj(s)
    es = e * zeta * ws
    return values, (
        np.real(cnu * (Z - Ve - zeta * np.conj(T) + Wcs))
        + 1j * np.real(cnu * (2.0 / e * zeta * lr + r2 * Wcs - a / e**2 * Z)),
        nu * ((lr + 0.5) / e + 0.5 * (zeta * ws - np.conj(zeta) * Ve - r2 * T - W * np.conj(Z) / e))
        + 0.5 * cnu * (zeta * (Wcs - Ve) - W * Z / e)), (
        2.0 - 4.0 * ss.real + 4j / e**2 * (es.real + lr - 0.5 * a),
        2.0 / e * (Wcs - W - Ve - e * zeta * ss)), (
        -8.0 * np.real(ws * ss * nu) + 4j / e**2 * np.real(ws * (2.0 + es) * nu),
        2.0 / e * (W * W * np.conj(ss) * cnu - 2.0 * ss * (1.0 + es) * nu))


def _image_traces(Z, nu, W, e: float, R: float, m_core: int, out):
    """Add to the planes of ``_michell_traces`` of the K cores, ``out``
    (4, N, K, modes), those of the image parts that clamp the modes on r
    = R, at the points Z with unit normals nu ((N, 1, 1) columns).

    With G = 16 pi G_B(x, w) (``clamped_green``), w the source point, the
    modes are G / 2 e^2, d_w d_wbar G / 2, -d_wbar G / 2 e, -e^m
    d_w^(m+1) d_wbar G / (m - 1)! and e^(m-2) d_w^m G / (m - 2)!: rho^2
    log rho, log rho, zeta log rho, rho^-m e^{-im theta} and rho^(2-m)
    e^{-im theta} plus the same derivative of G's regular part and
    polynomials. In Goursat form Re(conj(Z) phi + chi) the image of
    a power mode is conj(g), g = conj(Z) phi + chi, with R d_n g = phi
    conj(nu) + (conj(Z) phi' + chi') nu, R^2 Delta g = 4 phi' and R^3
    d_n Delta g = 4 phi'' nu: phi = m V^(m+1) / e and g = m conj(zeta)
    V^(m+1) - (m + 1) V^m for rho^-m, phi = (m - 1) zeta V^m / e and g =
    (m - 1) |zeta|^2 V^m - m zeta V^(m-1) for rho^(2-m)."""
    zeta, s, T, L, P = _image_frame(Z, W, e, m_core)
    V, planes, scale = P[..., 1:2], out.view(complex), R ** -np.arange(4.0)
    for plane, heads, r in zip(planes, _image_heads(zeta, s, T, L, V, W, e, nu), scale):
        plane[..., 0] += r * heads[0][..., 0]
        plane[..., 1] += r * heads[1][..., 0]
    # a family is V^(m-1) (rho^-m) or V^(m-2) (rho^(2-m)) times a sum of
    # terms (point factor, plane, order factor): one product per plane
    m, cz, cnu, r2 = np.arange(1.0, m_core), np.conj(zeta), np.conj(nu), np.abs(zeta) ** 2
    mb, a, b, dT = m[1:], cz * V - 1.0, r2 * V - zeta, 2.0 * np.conj(W) * s * T
    k4, k5 = 4.0 / e * m * (m + 1.0), 4.0 / e * mb * (mb - 1.0)
    for cols, order, terms in (
            (slice(2, m_core + 1), m, [
                (V * a, 0, m), (-V, 0, 1.0), (V * V * cnu / e, 1, m),
                (T * nu * a, 1, m * (m + 1.0)), (T * V, 2, k4), (T * T * nu, 3, m * k4),
                (V * dT * nu, 3, k4)]),
            (slice(m_core + 1, None), mb, [
                (V * b, 0, mb), (-r2 * V * V, 0, 1.0),
                (2.0 / e * V * V * np.real(zeta * cnu), 1, mb - 1.0), (V * nu / e, 1, -mb),
                (T * nu * b, 1, mb * (mb - 1.0)), (V * V, 2, k5 / (e * mb)), (zeta * T * V, 2, k5),
                (V * T * nu, 3, 2.0 / e * k5), (zeta * T * T * nu, 3, (mb - 1.0) * k5),
                (zeta * V * dT * nu, 3, k5)])):
        F = np.concatenate([f for f, _, _ in terms], axis=-1).reshape(-1, len(terms))
        C = np.zeros((4, len(terms), len(order)))
        for i, (_, j, factor) in enumerate(terms):
            C[j, i] = factor * scale[j]
        rows = np.empty(P.shape[:2] + (len(order),), dtype=complex)
        for plane, C_j in zip(planes, C):  # one plane at a time, in place
            np.matmul(F, C_j, out=rows.reshape(-1, len(order)))
            rows *= P[..., :len(order)]
            plane[..., cols] += np.conjugate(rows, out=rows)


def _clamped_sum(c: np.ndarray, zeta: np.ndarray, W: complex, e: float,
                 m_core: int, hessian: bool = False):
    """Value of one core's clamped modes with coefficients ``c`` at the
    points zeta = (x - y) / eps (1-D, inside the disk, |zeta| > 1): Re(f
    conj(c)) over the complex columns f of ``_michell_traces`` (powers
    of 1 / zeta by Horner's rule) and their images (``_image_heads``,
    and Re(conj(zeta) p_1 + p_2 + |zeta|^2 p_3 + zeta p_4), p_i in V).
    With ``hessian`` also R^2 Delta and R^2 (d_xx - d_yy - 2i d_xy), 4 Re
    d dbar F and 2 (d^2 F + conj(dbar^2 F)) of the complex sum F, d =
    d_Z = d_zeta / e: only the head columns have dbar^2 f != 0; the
    polynomials in 1 / zeta = u differentiate as d_zeta^2 t(u) = u^3 (u
    t'' + 2 t') and d_zeta^2 (|zeta|^2 t(u)) = conj(zeta) u^3 t'', those
    in V through T = dV/dZ and dT/dZ = 2 conj(W) s T."""
    zeta, q = zeta[:, None], c[0::2] + 1j * c[1::2]
    frame = _image_frame(W + e * zeta, W, e, 1)
    heads = _image_heads(*frame[:4], frame[4][:, 1:2], W, e, 1.0 if hessian else None)
    head, round_head = heads[0] if hessian else heads
    log, r2 = np.log(np.abs(zeta)), np.abs(zeta) ** 2
    m, C = np.arange(1.0, m_core), np.zeros((m_core + 1, 6), dtype=complex)
    C[2:, 0], C[1:-1, 1] = m * q[2:m_core + 1], -(m + 1.0) * q[2:m_core + 1]
    C[2:-1, 2], C[1:-2, 3] = (m[1:] - 1.0) * q[m_core + 1:], -m[1:] * q[m_core + 1:]
    C[1:-1, 4], C[2:-1, 5] = np.conj(q[2:m_core + 1]), np.conj(q[m_core + 1:])
    p = polyval(frame[4][:, 1:2], C[:, :4])
    t = polyval(1.0 / zeta, C[:, 4:])
    value = np.real((log * (1.0 + 1j * r2) + head) * np.conj(q[0])
                    + (zeta * log + round_head) * np.conj(q[1]) + t[0] + r2 * t[1]
                    + np.conj(zeta) * p[0] + p[1] + r2 * p[2] + zeta * p[3])[:, 0]
    if not hessian:
        return value
    _, s, T, L, P = frame
    u, cz, V, ws, e2 = 1.0 / zeta, np.conj(zeta), P[:, 1:2], np.conj(W) * s, e * e
    dT, (q0, q1) = 2.0 * ws * T, np.conj(q[:2])
    dp, ddp = (polyval(V, polyder(C[:, :4], k)) for k in (1, 2))
    dt, ddt = (polyval(u, polyder(C[:, 4:], k)) for k in (1, 2))

    def goursat(p):
        return cz * p[0] + p[1] + r2 * p[2] + zeta * p[3]

    X, Y = 0.5 * (ws * ws - cz * dT), cz * (ws / e + 0.5 * zeta * ws * ws)
    d2 = (q0 * ((0.5j * cz - 0.5 * u) * u / e2 + X + 1j * Y)
          + q1 * (0.5 * u / e2 + ws / e + 0.5 * zeta * ws * ws - cz * T / e - 0.5 * r2 * dT)
          + u**3 * (u * ddt[0] + 2.0 * dt[0] + cz * ddt[1]) / e2
          + T * T * goursat(ddp) + dT * goursat(dp) + 2.0 * T / e * (cz * dp[2] + dp[3]))
    dbar2 = (q0 * ((0.5j * zeta - 0.5 / cz) / (cz * e2) + np.conj(X) + 1j * np.conj(Y))
             + q1 * (0.5 * zeta * np.conj(ws * ws) - 0.5 * zeta / (cz * cz * e2)))
    lap0, lap1 = heads[2]
    lap = (q0 * (4j * (log + 1.0) / e2 + lap0) + q1 * (2.0 / (cz * e2) + lap1)
           + 4.0 * (t[1] - u * dt[1]) / e2 + 4.0 * T / e * (dp[0] + zeta * dp[2]) + 4.0 * p[2] / e2)
    return value, lap.real[:, 0], 2.0 * (d2 + np.conj(dbar2))[:, 0]


def _rung_bytes(m_core: int, cores: int, outer_modes: int) -> int:
    """Bytes a ``_MichellSeries`` rung holds at most, in floats of its N
    nodes, n modes, d = 1 + 3K data sets and the outer series' count of
    modes: N (4 n + 4 K M_e + 64 K + 2 d + 32) for the trace planes, the
    powers and factors of the modes, the data and the closed forms'
    temporaries, then the larger of 4 N count for the outer series'
    powers and 2 n^2 + n (3 d + 4) for the system and LAPACK's copy.
    The half-size fit's block and its LU copy, of n_h = (2 M_e - 2) K <
    n / 2 modes, are freed before that copy: with the system they hold
    n (n + d) + 2 n_h^2 + n_h (3 d + 4), less than it."""
    nodes, n_ext = 4 * m_core * cores, (4 * m_core - 2) * cores
    data = 1 + 3 * cores
    return 8 * (nodes * (4 * n_ext + 4 * cores * m_core + 64 * cores + 2 * data + 32)
                + max(4 * nodes * outer_modes, 2 * n_ext**2 + n_ext * (3 * data + 4)))


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
    zero elsewhere. z sums, for data set 0 only, the series ``outer``
    with the traces of -W_p on r = R, and the modes of order below M_e
    about every core, clamped on r = R (``_image_traces``). So only the
    core circles are fitted: one square system (``_system``, one LU in
    ``_least_squares``) leaves no miss below frequency M_e at the 4 M_e
    nodes of each, 2 (2 M_e - 1) conditions per core, one per mode.

    ``residual`` is the largest miss of either trace at the core
    circles' nodes, relative to the largest datum the modes fit, and
    ``condition`` the fit's 1-norm condition estimate. ``Q[i, j]`` is
    the integral of Delta z_i Delta z_j over the punctured disk, from
    Green's identity on the core circles, symmetrized: only the outer
    series' square with itself meets r = R, as its disk integral
    (``_AlmansiSeries.squares``). ``half_Q`` is the same matrix for the
    half-size fit: the modes of order below M_e / 2 alone, fitted to
    each circle's frequencies below M_e / 2 (``_half_system``), a
    sub-block of the system whose LU takes about 1/8 of the flops.
    """

    def __init__(self, domain: DiskDomain, sites, eps: float, W_p,
                 outer: _AlmansiSeries, m_core: int):
        self.domain, self.sites, self.eps = domain, sites, eps
        self.outer, self.m_core = outer, m_core
        nc, data = 4 * m_core, 1 + 3 * len(sites)
        circles = [circle_nodes(y, eps, nc) for y in sites]
        pts, nhat = (np.vstack([c[i] for c in circles]) for i in (0, 1))
        # the traces the modes fit, d_n not scaled: the data less, in
        # data set 0, the outer series
        ext = self._rows(pts, nhat)
        val, der = fit = np.zeros((2, len(pts), data))
        value, gradient = W_p.derivatives(pts, ("value", "gradient"))
        s_val, s_dn, s_lap, s_dlap = outer.fields(pts, nhat)
        val[:, 0] = -value - s_val
        der[:, 0] = -(gradient * nhat).sum(axis=-1) - s_dn
        for k, y in enumerate(sites):
            on, col = slice(k * nc, (k + 1) * nc), 3 * k + 1
            val[on, col], val[on, col + 1:col + 3] = 1.0, pts[on] - y
            der[on, col + 1:col + 3] = nhat[on]
        system, n_ext = self._system(ext, fit), ext.shape[-1]
        # the half-size fit first, so that its block is freed before the
        # full system's LU copy
        half, cols = np.zeros((n_ext, data)), self._half_columns()
        half[cols] = _least_squares(self._half_system(system, cols), len(cols))[0]
        self.coef, self.condition = _least_squares(system, n_ext)

        z, dz, lap, dlap = ext @ self.coef
        self.size = size = np.maximum(np.abs(val), eps * np.abs(der)).max(axis=0)
        miss = np.maximum(np.abs(z - val), eps * np.abs(dz - der))
        self.residual = float((miss / np.where(size > 0.0, size, 1.0)).max())
        # trapezoid weight, negative: the outward normal of the punctured
        # disk is -nhat on the cores. A pair's term on r = R vanishes when
        # its second field is clamped: every term pairs a field with a
        # clamped one, but the outer series' own square, its disk integral
        # less its core balls
        weight = -2.0 * math.pi * eps / nc
        cross = weight * (s_lap @ der - s_dlap @ val)
        outer_square = outer.squares[0] + weight * (s_lap @ s_dn - s_dlap @ s_val)

        def gram(lap, dlap):
            Q = weight * (lap.T @ der - dlap.T @ val)
            Q[0] += cross
            Q[:, 0] += cross
            Q[0, 0] += outer_square
            return 0.5 * (Q + Q.T)

        self.Q = gram(lap, dlap)
        self.half_Q = gram(*ext[2:] @ half)

    def _system(self, ext, fit):
        """The square system of the mode coefficients, in LAPACK's
        column-major order: on each core circle in turn, the real parts
        of the frequencies 0 .. M_e - 1 and the imaginary parts of 1 ..
        M_e - 1 of the value traces, then of the eps d_n traces, of the
        modes ``ext`` and the data ``fit``."""
        m_core, nc, n_ext = self.m_core, 4 * self.m_core, ext.shape[-1]
        system = np.empty((n_ext, n_ext + fit.shape[-1]), order="F")
        # a view: splitting the row axis of a column-major array needs no copy
        rows = system.reshape(len(self.sites), 2, 2 * m_core - 1, -1)
        H = np.empty((2 * m_core + 1, system.shape[1]), dtype=complex)
        low = H[:m_core]
        for k in range(len(self.sites)):
            for j in (0, 1):
                np.fft.rfft(ext[j, k * nc:(k + 1) * nc], axis=0, out=H[:, :n_ext])
                np.fft.rfft(fit[j, k * nc:(k + 1) * nc], axis=0, out=H[:, n_ext:])
                rows[k, j, :m_core], rows[k, j, m_core:] = low.real, low[1:].imag
        rows[:, 1] *= self.eps
        return system

    def _half_columns(self) -> np.ndarray:
        """The columns of the modes of order below M_e / 2: on each core,
        the head columns and the first M_e / 2 - 1 of the rho^-m family
        (complex columns 0 .. M_e / 2), and the first M_e / 2 - 2 of the
        rho^(2-m) family (from complex column M_e + 1), real and
        imaginary parts side by side."""
        m, h = self.m_core, self.m_core // 2
        core = np.r_[0:2 * h + 2, 2 * m + 2:2 * m + 2 * h - 2]
        return (core + (4 * m - 2) * np.arange(len(self.sites))[:, None]).ravel()

    def _half_system(self, system: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """A copy, column-major, of the square system of the modes
        ``cols`` against each core's frequencies below M_e / 2 of both
        traces (``_system``'s row order), with all the data columns."""
        m, h, n_ext = self.m_core, self.m_core // 2, system.shape[0]
        trace = np.r_[0:h, m:m + h - 1]
        rows = (trace + (2 * m - 1) * np.arange(2 * len(self.sites))[:, None]).ravel()
        # a transposed row-major copy is column-major
        return system.T[np.ix_(np.r_[cols, n_ext:system.shape[1]], rows)].T

    def _rows(self, pts, nhat):
        """The modes' value, d_n, Laplacian and d_n Laplacian planes at
        the points."""
        (cx, cy), R, m_core = self.domain.center, self.domain.radius_R, self.m_core
        nu = (nhat[:, 0] + 1j * nhat[:, 1])[:, None, None]
        ext = np.empty((4, len(pts), (4 * m_core - 2) * len(self.sites)))
        planes = ext.reshape(4, len(pts), len(self.sites), -1)
        x, y = pts[:, 0] + 1j * pts[:, 1], np.array([complex(*y) for y in self.sites])
        _michell_traces((x[:, None] - y)[..., None] / self.eps, nu, self.eps, m_core, planes)
        _image_traces((x - complex(cx, cy))[:, None, None] / R, nu,
                      (y - complex(cx, cy))[:, None] / R, self.eps / R, R, m_core, planes)
        return ext

    def fields(self, pts, nhat):
        """Value, normal derivative along ``nhat``, Laplacian and normal
        derivative of the Laplacian of every z (one column per data
        set) at points of the punctured disk."""
        fields = self._rows(pts, nhat) @ self.coef
        for f, outer in zip(fields, self.outer.fields(pts, nhat)):
            f[:, 0] += outer
        return fields

    def solution(self, u: np.ndarray, W_p, scale: float) -> SeriesSolution:
        """``scale`` (W_p + z) for z = z_0 + sum_j u_j z_j, affine on the
        core balls."""
        return SeriesSolution(
            self.outer, scale, W_p, [(y, self.eps) for y in self.sites],
            np.split(u, len(self.sites)),
            np.split(self.coef @ np.concatenate([[1.0], u]), len(self.sites)), self.m_core)


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
        value, gradient = W_p.derivatives(pts, ("value", "gradient"))
        lap = [t.derivatives(pts, ("laplacian", "grad_laplacian")) for t in branches]
        return np.array([value, (gradient * nhat).sum(axis=-1), *nhat.T,
                         *[l for l, _ in lap],
                         *[(dl * nhat).sum(axis=-1) for _, dl in lap]])

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


def _core_minimum(Q: np.ndarray, fl: float, load: np.ndarray,
                  ball_energy: float, C0: float) -> tuple[np.ndarray, float]:
    """The minimizing affine core parameters u and the minimum of the
    core functional (fl/2) int_{B_R} (Delta z)^2 + load . u - C0 over z
    = z_0 + sum_j u_j z_j, from the Gram matrix Q of the data-set
    solutions (``_MichellSeries``) and the energy on the core balls."""
    u = np.linalg.solve(Q[1:, 1:], -(Q[1:, 0] + load / fl))
    energy = Q[0, 0] + 2.0 * Q[0, 1:] @ u + u @ Q[1:, 1:] @ u + ball_energy
    return u, float(0.5 * fl * energy + load @ u - C0)


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
    ``extras`` gives the mode count per core, ``fit_condition`` (a lower
    bound on the 1-norm condition number of the fit's square system,
    ``_least_squares``) and ``value_change``, never ``None``: the change
    in value from the half-size fit inside the last rung (the modes of
    order below M_e / 2 on the frequencies below M_e / 2) to the full
    fit. The ladder starts at the rung ``_first_modes`` predicts, or at
    the largest below it within ``_MAX_RUNG_BYTES``; a rung whose arrays
    would exceed that is not started, the last fit stands if its
    residual is within ``_RESIDUAL_BOUND``, and otherwise
    ``NumericalError`` names the budget.
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
    outer = _AlmansiSeries.fit(domain, W_p)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]

    def rung_bytes(m_core: int) -> int:
        return _rung_bytes(m_core, len(sites), len(outer.A))

    m_core, series = _first_modes(domain, sites, eps), None
    while m_core > _FIRST_MODES and rung_bytes(m_core) > _MAX_RUNG_BYTES:
        m_core //= 2
    while (need := rung_bytes(m_core)) <= _MAX_RUNG_BYTES:
        previous = series.residual if series else None
        series = _MichellSeries(domain, sites, eps, W_p, outer, m_core)
        if m_core >= _MAX_MODES or not _keeps_doubling(series.residual, previous,
                                                       _SERIES_TARGET):
            break
        m_core *= 2
    else:
        if not (series and series.residual <= _RESIDUAL_BOUND):
            raise NumericalError(
                f"core series rung {m_core} needs about {need / 2**20:.0f} MiB, "
                f"above the memory budget of {_MAX_RUNG_BYTES / 2**20:.0f} MiB")
    residual = max(series.residual, outer.residual)
    if not residual <= _RESIDUAL_BOUND:
        raise NumericalError(f"core series fit residual {residual} "
                             f"with modes {series.m_core}")
    u, value = _core_minimum(series.Q, fl, load, ball_energy, C0)
    half_value = _core_minimum(series.half_Q, fl, load, ball_energy, C0)[1]
    fit_seconds = time.perf_counter() - t0

    affine = {f"core_{k}": [E * float(c) for c in u[3 * k:3 * k + 3]]
              for k in range(len(dislocations))}

    return SolveReport(
        value=E * value, residual=residual, method="series", grid_n=n,
        delta=delta, assemble_seconds=fit_seconds,
        solution=series.solution(u, W_p, E),
        extras={"eps": eps, "core_affine": affine, "separation_D": D,
                "modes": series.m_core,
                "fit_condition": series.condition,
                "value_change": E * abs(value - half_value)},
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
    reported value adds its boundary pairing with the profiles. The
    value does not depend on ``n``, the resolution of a field dump.
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
    # the correction's traces on the admissible set are the negated
    # profile traces, so its boundary pairing is minus the sum of the
    # outer-circle pairings of the profiles, j's moments with k's values
    # (``_pairing_traces``), each profile evaluated once per level; a
    # centred profile's vanish, so they settle against K |b|^2 / 8 pi
    R, nu = domain.radius_R, elastic.poisson_nu
    factor = 2.0 * math.pi * (1.0 + nu) / elastic.young_E
    pairs, _ = circle_sums(
        [(domain.center, R)],
        lambda pts, nhat: np.array([_pairing_traces(t, pts, nhat, nu) for t in terms]),
        lambda x: factor * (R * _pairing_means(x[:, None, 0], x[None, :, 1])[..., 0]),
        max(t.K * t.magnitude**2 for t in terms) / (8.0 * math.pi))
    boundary = -float(pairs.sum())

    t0 = time.perf_counter()
    series = _AlmansiSeries.fit(domain, SumField(tuple(terms)))
    # Hessian-form energy of the (non-clamped) correction, with
    # |D^2 v|^2 = ((Delta v)^2 + |4 d_z^2 v|^2) / 2
    lap_square, wirt_square = series.squares
    G_hess = (1.0 + nu) / 2.0 * ((0.5 - nu) * lap_square + 0.5 * wirt_square)
    gram_value = 0.5 * _gram_factor(elastic) * lap_square
    fit_seconds = time.perf_counter() - t0
    return _series_report(series, n, delta, E * (G_hess + boundary), fit_seconds,
                          {"gram_objective": E * gram_value, "hessian_energy": E * G_hess,
                           "boundary_pairing": E * boundary}, scale=E)
