"""Minimization of the defect functionals on a disk.

The pure-trace problems (the clamped disclinations, whose value is a
closed form, and the elastic correction of the zero-core dislocation
profiles) have minimizers in closed form: singular parts plus the
regular part of Boggio's clamped Green's function and its source
derivatives (``clamped_regular``). Their plate energies are exact sums
over the modes ``a_k r^|k| + b_k r^(|k|+2)`` of Almansi's series
(Michell 1899), from an FFT of the traces on r = R.

The core-constrained problem lives on the punctured disk, B_R minus the
core balls. The profiles' own correction there is exactly minus the
profiles, which are biharmonic off the cores, so only the affine data
of the K cores are fitted, by clamped modes about each core:
source-point derivatives of the clamped Green's function of the disk
(Boggio 1905), each a Michell mode log r, r^2 log r, r log r (cos, sin)
theta, r^-m or r^(2-m) (cos, sin) m theta plus its rational image part
(Cheng & Greengard 1998), so that it vanishes with its normal
derivative on r = R. One square system matches the low frequencies of
each core circle's traces, and Green's identity on the core circles
turns the plate energy into exact circle integrals, which leave one 3K
x 3K system for the affine parameters; no core solve samples r = R.

Every solve samples nothing: its report carries the minimizer as a
``SeriesSolution``, an ``AiryField`` whose ``derivatives`` give its
value and exact Hessian at any points of the closed disk (NaN off it),
and the value does not depend on the resolution ``n`` of a field dump.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field, replace
from functools import cached_property, partial
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
    CoreCoefficients,
    DislocationLimitAiry,
    FundamentalAiry,
    ScaledField,
    ShiftedField,
    SumField,
    _pts,
    clamped_regular,
)
from .energy import (
    _RESIDUAL_BOUND,
    _keeps_doubling,
    _pairing_means,
    _pairing_traces,
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


# points within this distance of r = R, relative to R, count as on it
_ON_CIRCLE = 1e-15


class _AlmansiSeries:
    """Biharmonic z on the disk, z = Re sum_{k >= 0} c_k (A_k rho^k +
    B_k rho^(k+2)) e^{ik theta} with rho = r / R, c_0 = 1 and c_k = 2
    for k >= 1 (the conjugate modes k < 0), fitted for its plate
    energies (``squares``)."""

    def __init__(self, domain: DiskDomain, A: np.ndarray, B: np.ndarray,
                 samples: int = 0, residual: float = 0.0):
        self.domain, self.A, self.B = domain, A, B
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
        # traces F_k of the value and G_k of R d_n: A_k + B_k = F_k, k A_k + (k + 2) B_k = G_k
        k = np.arange(len(F))
        return cls(domain, 0.5 * ((k + 2.0) * F - G), 0.5 * (G - k * F), m, residual)

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


class SeriesSolution(AiryField):
    """The minimizer of a solve as a field on the closed disk of
    ``domain``: ``scale`` times the smooth part ``interior`` (if any, a
    ``clamped_regular`` with its sources bound) plus, off the core balls,
    the closed-form part ``closed`` and the clamped modes of each core;
    on core ball k (|x - y_k| <= eps_k) it is the affine part.

    ``derivatives`` gives "value" and "hessian" (any other name raises),
    each part differentiated in its own form: the smooth part by its
    Laplacian and 4 d_z^2, the clamped modes by Kolosov-Muskhelishvili
    (``_clamped_sum``), the closed part by its own ``derivatives``, an
    affine part as a zero Hessian. Off the disk both are NaN; points
    within ``_ON_CIRCLE`` R of r = R count as on it. ``cores`` holds
    (site, eps) per core. Each point's numbers depend on that point
    alone.
    """

    def __init__(self, domain: DiskDomain, interior=None,
                 scale: float = 1.0, closed=None, cores=(), affine=(), modes=(),
                 m_core: int = 0):
        self.domain, self.interior, self.scale, self.closed = domain, interior, scale, closed
        self.cores, self._affine = tuple(cores), tuple(affine)
        self._modes, self._m_core = tuple(modes), m_core

    def derivatives(self, x, names):
        if not set(names) <= {"value", "hessian"}:
            raise ValidationError(f"a solution gives value and hessian, not {tuple(names)}")
        pts, hessian = _pts(x), "hessian" in names
        (cx, cy), R = self.domain.center, self.domain.radius_R
        disk = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) <= R * (1.0 + _ON_CIRCLE)
        pts, Z = pts[disk], ((pts[disk, 0] - cx) + 1j * (pts[disk, 1] - cy)) / R
        # the value, then R^2 Delta and R^2 (d_xx - d_yy - 2i d_xy)
        sums = (self.interior(Z, hessian=hessian) if self.interior is not None else
                [np.zeros(len(Z)), np.zeros(len(Z)), np.zeros(len(Z), complex)][:1 + 2 * hessian])
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


def _series_report(series: _AlmansiSeries, n: int, delta: float, value: float,
                   fit_seconds: float, extras: dict, sites: np.ndarray,
                   singular=None, scale: float = 1.0, **weights) -> SolveReport:
    """Report whose solution is ``scale (singular + clamped_regular)`` of
    the sources at the (K, 2) ``sites`` with ``weights`` s or alpha."""
    (cx, cy), R = series.domain.center, series.domain.radius_R
    w = ((sites[:, 0] - cx) + 1j * (sites[:, 1] - cy)) / R
    return SolveReport(
        value=value, residual=series.residual, method="fourier", grid_n=n,
        delta=delta, assemble_seconds=fit_seconds,
        solution=SeriesSolution(series.domain, partial(
            clamped_regular, w=w, log_R2=math.log(R * R), **weights), scale, singular),
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
    splits v as the fundamental potentials of the charges plus the smooth
    z = -K sum_k s_k H(., y_k), H = G_B - Phi (``clamped_regular``);
    ``gram_objective`` is its plate energy (1 - nu^2)/(2E) int (Delta
    z)^2, a sum over the Fourier modes of its traces, and
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
         "gram_objective": energy(gram_value)}, sites, singular=v_sing, scale=E * s_max,
        s=-elastic.plane_prefactor * R * R / (16.0 * math.pi) * charges)


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


def _rung_bytes(m_core: int, cores: int) -> int:
    """Bytes a ``_MichellSeries`` rung holds at most, in floats of its N
    nodes, n modes and d = 3K data sets: N (4 n + 4 K M_e + 64 K + 2 d)
    for the trace planes, the powers and factors of the modes and the
    data, then 2 n^2 + n (3 d + 4) for the system and LAPACK's copy.
    The half-size fit's block and its LU copy, of n_h = (2 M_e - 2) K <
    n / 2 modes, are freed before that copy: with the system they hold
    n (n + d) + 2 n_h^2 + n_h (3 d + 4), less than it."""
    nodes, n_ext, data = 4 * m_core * cores, (4 * m_core - 2) * cores, 3 * cores
    return 8 * (nodes * (4 * n_ext + 4 * cores * m_core + 64 * cores + 2 * data)
                + 2 * n_ext**2 + n_ext * (3 * data + 4))


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
    circle, for the 3K affine data sets at once: data set 3k + a has the
    traces of 1, x_1 - y_k1 and x_2 - y_k2 (a = 0, 1, 2) on core k and
    zero on the other circles, r = R included. z sums the modes of order
    below M_e about every core, clamped on r = R (``_image_traces``), so
    only the core circles are fitted: one square system (``_system``, one
    LU in ``_least_squares``) leaves no miss below frequency M_e at the 4
    M_e nodes of each, 2 (2 M_e - 1) conditions per core, one per mode.

    The profiles' data set, the traces of -W_p on every circle, is not
    fitted: W_p is biharmonic on the punctured disk and the biharmonic
    field with given traces on its boundary is unique, so its solution
    is z_0 = -W_p exactly, and its Gram entries are closed forms
    (``solve_core_constrained``).

    ``residual`` is the largest miss of either trace at the core
    circles' nodes, relative to the largest datum the modes fit, and
    ``condition`` the fit's 1-norm condition estimate. ``Q[i, j]`` is
    the integral of Delta z_i Delta z_j over the punctured disk, from
    Green's identity on the core circles (every z_j is clamped on r =
    R), symmetrized. ``half_Q`` is the same matrix for the half-size
    fit: the modes of order below M_e / 2 alone, fitted to each circle's
    frequencies below M_e / 2 (``_half_system``), a sub-block of the
    system whose LU takes about 1/8 of the flops.
    """

    def __init__(self, domain: DiskDomain, sites, eps: float, m_core: int):
        self.domain, self.sites, self.eps, self.m_core = domain, sites, eps, m_core
        nc, data = 4 * m_core, 3 * len(sites)
        circles = [circle_nodes(y, eps, nc) for y in sites]
        pts, nhat = (np.vstack([c[i] for c in circles]) for i in (0, 1))
        # the traces the modes fit, d_n not scaled
        ext = self._rows(pts, nhat)
        val, der = fit = np.zeros((2, len(pts), data))
        for k, y in enumerate(sites):
            on, col = slice(k * nc, (k + 1) * nc), 3 * k
            val[on, col], val[on, col + 1:col + 3] = 1.0, pts[on] - y
            der[on, col + 1:col + 3] = nhat[on]
        system, n_ext = self._system(ext, fit), ext.shape[-1]
        # the half-size fit first, so that its block is freed before the
        # full system's LU copy
        half, cols = np.zeros((n_ext, data)), self._half_columns()
        half[cols] = _least_squares(self._half_system(system, cols), len(cols))[0]
        self.coef, self.condition = _least_squares(system, n_ext)
        del system
        (z, dz, lap, dlap), half_lap = ext @ self.coef, ext[2:] @ half
        del ext

        self.size = size = np.maximum(np.abs(val), eps * np.abs(der)).max(axis=0)
        miss = np.maximum(np.abs(z - val), eps * np.abs(dz - der))
        self.residual = float((miss / np.where(size > 0.0, size, 1.0)).max())
        # trapezoid weight, negative: the outward normal of the punctured
        # disk is -nhat on the cores
        weight = -2.0 * math.pi * eps / nc

        def gram(lap, dlap):
            Q = weight * (lap.T @ der - dlap.T @ val)
            return 0.5 * (Q + Q.T)

        self.Q = gram(lap, dlap)
        self.half_Q = gram(*half_lap)

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

    def solution(self, u: np.ndarray, scale: float) -> SeriesSolution:
        """``scale`` (W_p + z) for z = -W_p + sum_j u_j z_j: the clamped
        modes at ``coef @ u``, affine on the core balls."""
        return SeriesSolution(
            self.domain, scale=scale, cores=[(y, self.eps) for y in self.sites],
            affine=np.split(u, len(self.sites)),
            modes=np.split(self.coef @ u, len(self.sites)), m_core=self.m_core)


def _core_problem(elastic: ElasticConstants, domain: DiskDomain,
                  dislocations, eps: float) -> float:
    """The integral of (Delta z)^2 over the core balls, where z is the
    affine core part less the profiles W_p, in closed form.

    With z = x_1 + i x_2 and the sites y_j taken from the disk centre,
    Delta W_p = Re f off the cores, f = sum_j A_j (z - y_j) + a_j / (z -
    y_j), a_j = 8 C_j q_j = -i K b_j / 2 pi (C_j = |b_j| K / 16 pi, q_j =
    Pi(b_j) / |b_j| as a complex number), A_j = gamma conj(a_j) (gamma of
    ``CoreCoefficients``). About y_k, f = a_k / w + c0_k + c1_k w + ..., w
    = z - y_k: with d_kj = y_k - y_j and A = sum A_j, c0_k = sum_{j != k}
    A_j d_kj + a_j / d_kj and c1_k = A - sum_{j != k} a_j / d_kj^2. Let G_k
    = sum_{j,l != k} a_j conj(a_l) g(eps^2 / (d_kj conj(d_kl))), g(x) =
    -log1p(-x) - x - x^2 / 2 (|x| < 1/4, as eps < D). On ball k, Delta z
    = -Re(f - a_k / w - A_k w), whose Taylor series integrates term by
    term to (pi/2) [eps^2 (|c0_k|^2 + Re c0_k^2) + eps^4 |c1_k - A_k|^2 /
    2 + Re G_k]."""
    e2, eye = eps * eps, np.eye(len(dislocations))
    y = np.array([complex(*d.site) for d in dislocations]) - complex(*domain.center)
    a = -0.5j / math.pi * elastic.plane_prefactor * np.array(
        [complex(*d.burgers_b) for d in dislocations])
    A = CoreCoefficients.for_annulus(eps, domain.radius_R).gamma * a.conj()
    d = y[:, None] - y
    inv = 1.0 / (d + eye) - eye  # 1 / d_kj, 0 on the diagonal
    c0, c1 = d @ A + inv @ a, A.sum() - inv**2 @ a
    x = e2 * inv[:, :, None] * inv[:, None, :].conj()
    G = (a[:, None] * a.conj() * (-np.log1p(-x) - x - 0.5 * x * x)).sum(axis=(1, 2)).real
    return float(0.5 * math.pi * np.sum(e2 * (np.abs(c0)**2 + (c0 * c0).real)
                                        + 0.5 * e2 * e2 * np.abs(c1 - A)**2 + G))


def _core_minimum(Q: np.ndarray, dislocations, fl: float,
                  ball_energy: float) -> tuple[np.ndarray, float]:
    """The minimizing affine core parameters u and the minimum (fl/2)
    (2 q.u + u.Q u + ball) of the core functional over z = -W_p + sum_j
    u_j z_j, from the Gram matrix Q of the affine data sets' solutions
    (``_MichellSeries``), the energy on the core balls and the closed
    form q of their Gram entries with -W_p: per core, 0 on the constant
    and Pi(b_k) / fl on the two slopes (``solve_core_constrained``)."""
    q = np.ravel([(0.0, *rotate_burgers(d.burgers_b)) for d in dislocations]) / fl
    u = np.linalg.solve(Q, -q)
    return u, float(0.5 * fl * (2.0 * q @ u + u @ Q @ u + ball_energy))


def solve_core_constrained(elastic: ElasticConstants, domain: DiskDomain,
                           dislocations, eps: float, n: int = 256) -> SolveReport:
    """Minimize the core-regularized dislocation functional.

    The unknown is split as w = W_p + z, where W_p sums the closed-form
    single-dislocation profiles (exact for one centered core) and z is a
    smooth correction. Since each profile is biharmonic off its core,
    every coupling of W_p with z reduces by the Green identity to circle
    integrals of closed-form kernels against the traces of z, which are
    pinned: the negated profile traces on the outer boundary and the
    affine core parameters u on the core circles. On core circle j that
    coupling is <slope of the core affine part, Pi(b_j)>, which the
    slope load cancels exactly, and what is left is (fl/2) int_{B_R}
    (Delta z)^2 - C0, C0 = (fl/2) int_Omega (Delta W_p)^2 over the disk
    less the core balls, Omega.

    On Omega, z = z_0 + sum_j u_j z_j, with z_0 the biharmonic field
    whose traces on every circle are those of -W_p, and z_j those of the
    affine data sets (``_MichellSeries``). W_p is itself biharmonic on
    Omega, and the biharmonic field with given traces on its boundary is
    unique, so z_0 = -W_p and none of its Gram entries needs a fit:
    - int_Omega (Delta z_0)^2 = 2 C0 / fl, so C0 cancels;
    - int_Omega Delta z_0 Delta z_j, for z_j with core k's data, is by
      Green's identity the integral of Delta W_p d_n z_j - (d_n Delta
      W_p) z_j over core circle k, d_n away from the core (z_j is
      clamped on r = R and vanishes on the other circles). Of Delta W_p
      = Re f (``_core_problem``) the part harmonic on ball k pairs with
      affine data to zero, and the pole Re(a_k / w) gives 0 for the
      constant and 2 pi (Re a_k, Im a_k) = K Pi(b_k) = Pi(b_k) / fl for
      the two slopes.
    With Q the Gram matrix of the z_j and that row q, the functional is
    (fl/2) (2 q.u + u.Q u + ball), ball the energy on the core balls,
    where z is the affine part minus W_p and its energy that of the
    other profiles' Laplacians, and u solves the 3K x 3K system Q u = -q
    (``_core_minimum``). On Omega the minimizer w = W_p + z is sum_j u_j
    z_j, the clamped modes alone.

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
    ball_energy = _core_problem(elastic, domain, dislocations, eps)
    sites = [np.asarray(d.site, dtype=float) for d in dislocations]
    m_core, series = _first_modes(domain, sites, eps), None
    while m_core > _FIRST_MODES and _rung_bytes(m_core, len(sites)) > _MAX_RUNG_BYTES:
        m_core //= 2
    while (need := _rung_bytes(m_core, len(sites))) <= _MAX_RUNG_BYTES:
        previous = series.residual if series else None
        series = _MichellSeries(domain, sites, eps, m_core)
        if m_core >= _MAX_MODES or not _keeps_doubling(series.residual, previous,
                                                       _SERIES_TARGET):
            break
        m_core *= 2
    else:
        if not (series and series.residual <= _RESIDUAL_BOUND):
            raise NumericalError(
                f"core series rung {m_core} needs about {need / 2**20:.0f} MiB, "
                f"above the memory budget of {_MAX_RUNG_BYTES / 2**20:.0f} MiB")
    residual = series.residual
    if not residual <= _RESIDUAL_BOUND:
        raise NumericalError(f"core series fit residual {residual} "
                             f"with modes {series.m_core}")
    u, value = _core_minimum(series.Q, dislocations, fl, ball_energy)
    half_value = _core_minimum(series.half_Q, dislocations, fl, ball_energy)[1]
    fit_seconds = time.perf_counter() - t0

    affine = {f"core_{k}": [E * float(c) for c in u[3 * k:3 * k + 3]]
              for k in range(len(dislocations))}

    return SolveReport(
        value=E * value, residual=residual, method="series", grid_n=n,
        delta=delta, assemble_seconds=fit_seconds,
        solution=series.solution(u, E),
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
    those of the summed zero-core dislocation profiles: sum_k K (Jb_k .
    grad_y) G_B(., y_k) less the profiles (``clamped_regular``), with its
    plate energy a sum over the Fourier modes of its traces; the reported
    value adds its boundary pairing with the profiles. The
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
                           "boundary_pairing": E * boundary},
                          np.array([d.site for d in dislocations]), scale=E,
                          alpha=elastic.plane_prefactor * R / (16.0 * math.pi) * np.array(
                              [complex(-d.burgers_b[1], d.burgers_b[0]) for d in dislocations]))
