"""Grids, the artifact number format and quadrature rules on disks.

The uniform Cartesian grid of the CSV field dumps and its size cap, the
byte-exact ``%.17g`` formatting of every artifact, equispaced circle
nodes and a composite Gauss-Legendre radial rule. The dumps
evaluate exact fields block by block of grid lines (``cli``); no
module holds a field sampled on a whole grid.

Every CSV writer goes one way: a block of rows is a table of 32-byte
cells, one per number, each holding the number's ``%.17g`` text and
separator at fixed places with NUL bytes between (``_fmt17_cells``),
and the block is written in one pass that drops the NULs
(``_write_rows``).
"""

from __future__ import annotations

import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DiskDomain, NumericalError, ValidationError

# mask codes of the solve dump
OUTSIDE = 0
INTERIOR = 1
CORE = 2


# nodes a grid may have: one CSV row each in a field dump, whose blocks
# of grid lines hold a few MB at any resolution; the cap bounds the
# file (about 3 GB of `field` CSV) and its run time
MAX_GRID_NODES = 2**24
# rings of grid nodes beyond the disk's bounding square on each side
_PAD = 4

# composite Gauss-Legendre radial rule: nodes per panel; width ratio of
# successive panels toward a singular radius, down to a smallest panel
# of _GRADING_FLOOR times its stretch; widest hi/lo of a log-spaced panel
RADIAL_ORDER = 12
_GRADING = 0.25
_GRADING_FLOOR = 1e-10
_LOG_PANEL_RATIO = 2.0
# radial_integral fails when the RADIAL_ORDER and half-order rules on
# the same panels differ by more than this share of the largest
# component's absolute integral
_RADIAL_RTOL = 1e-5
# radii per integrand call of radial_integral
_RADII_PER_BLOCK = 64

# rows per block of a CSV dump (whole grid lines of about as many nodes
# in cli's field dumps), formatted into one table and written in turn
CSV_BLOCK_ROWS = 4096


def fmt17(x: float) -> str:
    """Fixed 17-significant-digit formatting used by every artifact."""
    return format(float(x), ".17g")


# numbers per pass of _fmt17_cells, which keeps its working arrays small
_FMT_CHUNK = 8192
# decimal exponents of the numbers _fmt17_cells lays out itself: %.17g
# writes -4..16 in fixed point and -6, -5 as "d.ddde-0X"
_E_MIN, _E_FIXED, _E_MAX = -6, -4, 16
# Dekker's splitting constant 2^27 + 1, and the exact doubles
# 10^0..10^22 split into halves of at most 26 significant bits
_SPLIT = 134217729.0
_POW10 = np.array([float(10**k) for k in range(17 - _E_MIN)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# _DIGIT_MASKS[i - 1, c]: the bytes of lane i (1 or 2) of a cell (see
# _fmt17_cells) that hold one of the first c of its 17 digits
_DIGIT_MASKS = np.array(
    [[2 ** (8 * min(max(c - 8 * i + 7, 0), 8)) - 1 for c in range(18)] for i in (1, 2)],
    dtype=np.uint64)
# lane 0 before the lead digit, at 2 (e - _E_MIN) + negative: "-" for a
# negative number, then "0." "0" * (-1 - e) for a fixed-point e < 0;
# lane 3 after the last digit, per exponent e < _E_FIXED
_PREFIX = np.array([int.from_bytes(
    b"-" * neg + (b"0." + b"0" * (-1 - e)) * (_E_FIXED <= e < 0), "little")
    for e in range(_E_MIN, _E_MAX + 1) for neg in (0, 1)], dtype=np.uint64)
_SUFFIX = np.frombuffer(b"\0e-06\0\0\0\0e-05\0\0\0", "<u8")
# _DOT[i - 1, j]: the "." after digit j of lanes 1 and 2, in lane i
_DOT = np.array([[ord(".") << 8 * (j - 8 * i) if 0 <= j - 8 * i < 8 else 0
                  for j in range(17)] for i in (0, 1)], dtype=np.uint64)
# _DIGITS4[g], g < 10^4: the four ASCII digits of g, most significant
# first, as the low half of a little-endian uint64; _DIGITS4[10^4 + g]:
# the same with its trailing zeros NUL
_DIGITS4 = sum((np.arange(10**4) // 10**(3 - i) % 10 + 48) << 8 * i for i in range(4))
_DIGITS4 = np.concatenate([_DIGITS4, _DIGITS4 & ~sum(
    (np.arange(10**4) % 10**k == 0) * 255 << 8 * (4 - k) for k in range(1, 5))
]).astype(np.uint64)


def _exact_product(a: np.ndarray, p: np.ndarray):
    """h + l = a 10^p exactly, h = fl(a 10^p) (Dekker's product; p in
    0..22, a well inside the normal range)."""
    P, P_hi, P_lo = _POW10.take(p), _POW10_HI.take(p), _POW10_LO.take(p)
    h = a * P
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return h, ((a_hi * P_hi - h) + a_hi * P_lo + a_lo * P_hi) + a_lo * P_lo


def _significand17(a: np.ndarray):
    """The correctly rounded 17-digit significand q (int64, 10^16 <= q <
    10^17) and the decimal exponent e of every a in (1e-6, 1e17): a
    rounds to q 10^(e - 16), ties to even."""
    # log10 can miss a power of ten by one; h + l tells
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.intp)
    h, l = _exact_product(a, 16 - e)
    fix = np.flatnonzero((h <= 1e16) | (h >= 1e17))
    if fix.size:
        hf, lf = h[fix], l[fix]
        e[fix] += (((hf > 1e17) | ((hf == 1e17) & (lf >= 0.0))).astype(np.intp)
                   - ((hf < 1e16) | ((hf == 1e16) & (lf < 0.0))))
        h[fix], l[fix] = _exact_product(a[fix], 16 - e[fix])
    # h, in [1e16, 1e17], is an even integer: rounding h + l to an
    # integer, ties to even, is rounding l. That never gives 10^17: no
    # double of the range lies within 5e-18 (relative) below a power of
    # ten (tests/test_fields.py checks the nearest ones)
    return h.astype(np.int64) + np.rint(l).astype(np.int64), e


def _fmt17_into(cells: np.ndarray, flat: np.ndarray, seps: np.ndarray) -> None:
    """Write the cells of :func:`_fmt17_cells` of the 1-D float64
    ``flat`` into the contiguous (N, 4) uint64 array ``cells``, lane 3
    starting from the separator lanes ``seps`` in turn."""
    a = np.abs(flat)
    # the double 1e-6 lies below 10^-6, so its exponent is -7
    others = ~((a > 1e-6) & (a < 1e17))
    np.copyto(a, 1.0, where=others)
    q, e = _significand17(a)
    lead = q // 10**16
    rest = q - lead * 10**16
    hi = rest // 10**8
    lo = rest - hi * 10**8
    g0 = hi // 10**4
    g1 = hi - g0 * 10**4
    g2 = lo // 10**4
    g3 = lo - g2 * 10**4
    cells[:, 0] = (_PREFIX.take(2 * (e - _E_MIN) + (flat < 0.0))
                   | ((lead + ord("0")) << 56).view(np.uint64))
    # %g drops trailing zeros: a group of four digits is read trimmed
    # when the groups after it are zero
    zero = lo == 0
    cells[:, 1] = (_DIGITS4.take(g0 + 10**4 * (zero & (g1 == 0)))
                   | (_DIGITS4.take(g1 + 10**4 * zero) << np.uint64(32)))
    cells[:, 2] = (_DIGITS4.take(g2 + 10**4 * (g3 == 0))
                   | (_DIGITS4.take(g3 + 10**4) << np.uint64(32)))
    cells.reshape(-1, len(seps), 4)[:, :, 3] = seps
    # a "." among the digits, after the integer part (e >= 0) or the
    # lead digit (e < _E_FIXED): the c - 1 digits of lanes 1 and 2
    # before it keep their zeros, the rest move up one byte, and the "."
    # stays only before a digit
    at = np.flatnonzero((e >= 0) | (e < _E_FIXED))
    if at.size:
        c = np.maximum(e[at], 0) + 1
        m1, m2 = _DIGIT_MASKS[0].take(c), _DIGIT_MASKS[1].take(c)
        h1 = (_DIGITS4.take(g0[at]) | (_DIGITS4.take(g1[at]) << np.uint64(32))) & m1
        h2 = (_DIGITS4.take(g2[at]) | (_DIGITS4.take(g3[at]) << np.uint64(32))) & m2
        t1, t2 = cells[at, 1] & ~m1, cells[at, 2] & ~m2
        dot = (t1 | t2) != 0
        cells[at, 1] = h1 | (t1 << np.uint64(8)) | _DOT[0].take(c - 1) * dot
        cells[at, 2] = (h2 | (t2 << np.uint64(8)) | (t1 >> np.uint64(56))
                        | _DOT[1].take(c - 1) * dot)
        cells[at, 3] |= t2 >> np.uint64(56)
        at = at[e[at] < _E_FIXED]
        cells[at, 3] |= _SUFFIX.take(e[at] - _E_MIN)
    at = np.flatnonzero(others)
    if at.size:
        # at most 24 bytes, before the separator
        texts = np.array([b"%.17g" % v for v in flat[at].tolist()], "S31")
        cells.view(np.uint8)[at, :31] = texts.view(np.uint8).reshape(-1, 31)


def _lanes(seps: bytes) -> np.ndarray:
    """Lane 3 of a cell holding only each separator of ``seps``."""
    return np.frombuffer(seps, np.uint8).astype(np.uint64) << np.uint64(56)


def _fmt17_cells(x, seps: bytes) -> np.ndarray:
    """The ``"%.17g" % v`` of every float64 v of ``x``, in order, as an
    (N, 4) uint64 array of 32-byte cells: read in order with its NULs
    skipped, each cell is the text, byte for byte, then a separator in
    the top byte of lane 3, the bytes of ``seps`` in turn (b",,\\n" for
    the last three columns of rows, say).

    A number with 1e-6 < |v| < 1e17 is formatted with array arithmetic,
    about ``_FMT_CHUNK`` numbers at a time: its 17 significant digits
    come out exact from Dekker's error-free product of |v| and a power
    of ten (:func:`_significand17`), four at a time from a digit table.
    Lane 0 holds the sign, "0." and zeros and the lead digit, lanes 1
    and 2 the other 16 digits, trailing zeros NUL, and lane 3 "e-05" or
    "e-06"; only where a "." falls among the digits do the digits after
    it move, by one byte. Every other value (0, nan, inf, a subnormal, |v| <=
    1e-6 or >= 1e17) goes through ``%.17g`` itself.
    """
    flat = np.asarray(x, dtype=float).ravel()
    cells = np.empty((flat.size, 4), np.uint64)
    lanes = _lanes(seps)
    step = max(1, _FMT_CHUNK // len(seps)) * len(seps)
    for start in range(0, flat.size, step):
        _fmt17_into(cells[start:start + step], flat[start:start + step], lanes)
    return cells


def _csv_cells(column, seps: bytes) -> np.ndarray:
    """The (N, 4) cells of the N numbers of ``column`` and ``seps``:
    ``%d`` of integers, else :func:`_fmt17_cells`."""
    if np.issubdtype(column.dtype, np.integer):
        cells = column.astype("S32").view(np.uint64).reshape(-1, 4)
        cells.reshape(-1, len(seps), 4)[:, :, 3] |= _lanes(seps)
        return cells
    return _fmt17_cells(column, seps)


@contextmanager
def _rewriting(path):
    """``open(path, "wb")``, but a regular file is overwritten in place
    and cut to its new length at the end: truncating first frees its
    blocks only to allocate them again (``cli._emit`` removes the file
    of a failed write)."""
    with open(path, "wb", opener=lambda p, flags: os.open(
            p, flags & ~os.O_TRUNC, 0o666)) as f:
        yield f
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _write_rows(f, table: np.ndarray) -> None:
    """Write the rows of ``table``, a uint64 array of cells (with their
    separators) whose last two axes are the columns and the four lanes,
    to the binary file ``f``, in one pass that drops every NUL byte."""
    f.write(table.tobytes().translate(None, b"\0"))


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and one row per index of the equal-length 1-D
    ``columns``.

    Integer columns print as ``%d``, the rest as ``%.17g``, byte for
    byte what :func:`fmt17` gives. Each block of ``CSV_BLOCK_ROWS`` rows
    is one table of the cells of its column slices (:func:`_csv_cells`),
    written by :func:`_write_rows`.
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    with _rewriting(path) as f:
        f.write(header.encode("ascii") + b"\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            _write_rows(f, np.stack(
                [_csv_cells(c[start:start + CSV_BLOCK_ROWS], sep)
                 for c, sep in zip(columns, seps)], axis=1))


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid; values are indexed ``[i, j]`` at
    ``(x0 + i*delta, y0 + j*delta)``."""

    x0: float
    y0: float
    delta: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not (self.delta > 0.0):
            raise ValidationError(f"grid spacing must be positive, got {self.delta}")

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.delta * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.delta * np.arange(self.ny)


def check_grid_n(n: int) -> None:
    """Reject a resolution ``n`` too coarse for the disk, or one whose
    (n + 2 _PAD + 1)^2 nodes pass ``MAX_GRID_NODES``; allocates nothing."""
    if n < 8:
        raise ValidationError(f"grid resolution too coarse: n={n}")
    nodes = (n + 2 * _PAD + 1) ** 2
    if nodes > MAX_GRID_NODES:
        n_max = math.isqrt(MAX_GRID_NODES) - 2 * _PAD - 1
        raise ValidationError(
            f"grid resolution n={n} gives {nodes} nodes, above the cap of "
            f"{MAX_GRID_NODES} (n <= {n_max})"
        )


def grid_for_disk(domain: DiskDomain, n: int) -> Grid:
    """Grid with ``n`` cells across the diameter plus ``_PAD`` rings of
    nodes outside the disk's bounding square."""
    check_grid_n(n)
    delta = 2.0 * domain.radius_R / n
    cx, cy = domain.center
    x0 = cx - domain.radius_R - _PAD * delta
    m = n + 2 * _PAD + 1
    return Grid(x0=x0, y0=cy - domain.radius_R - _PAD * delta, delta=delta, nx=m, ny=m)


def check_core_resolution(eps: float, delta: float) -> None:
    """Reject a core radius resolved by fewer than 4 cells of spacing
    ``delta`` (eps < 4*delta)."""
    if eps < 4.0 * delta:
        raise ValidationError(
            f"core radius eps={eps} unresolved by the grid: needs eps >= "
            f"4*delta = {4.0 * delta}"
        )


@lru_cache(maxsize=64)
def _unit_circle(n: int, shift: float) -> np.ndarray:
    """(cos, sin) of the angles 2 pi (k + shift) / n, k < n, as (n, 2),
    built once per (n, shift) and read-only."""
    th = 2.0 * math.pi * (np.arange(n) + shift) / n
    nhat = np.stack([np.cos(th), np.sin(th)], axis=-1)
    nhat.flags.writeable = False
    return nhat


def circle_nodes(center, radius: float, n: int, shift: float = 0.0):
    """``n`` equispaced points on a circle, offset by ``shift`` spacings.

    Returns (points, outward unit normals, circumference); the mean of
    a periodic integrand over the points times the circumference is the
    trapezoidal circle integral. The normals are a read-only table
    shared by every call with the same ``n`` and ``shift``.
    """
    nhat = _unit_circle(n, shift)
    return (np.asarray(center, dtype=float) + radius * nhat, nhat,
            2.0 * math.pi * radius)


def _graded_edges(p: float, q: float) -> np.ndarray:
    """Panel edges from ``p`` to ``q`` whose widths shrink by ``_GRADING``
    toward the singular end ``p``."""
    levels = math.ceil(math.log(_GRADING_FLOOR) / math.log(_GRADING))
    return np.concatenate(
        [[p], p + (q - p) * _GRADING ** np.arange(levels, -1, -1.0)]
    )


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (``leggauss``, an
    eigen-solve), built once per order and read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def radial_nodes(lo: float, hi: float, breaks=(), order: int = RADIAL_ORDER):
    """Composite Gauss-Legendre nodes and weights on [lo, hi].

    Panels shrink geometrically toward r = 0 (when ``lo`` is 0) and
    toward both sides of every radius in ``breaks``, where angular means
    of point singularities have their kinks; log-spaced panels cover
    the stretches between. Each panel integrates polynomials of degree
    up to 2 ``order`` - 1 exactly.
    """
    if not (0.0 <= lo < hi):
        raise ValidationError(f"need 0 <= lo < hi, got {lo}, {hi}")
    singular = {float(b) for b in breaks if lo <= b <= hi}
    if lo == 0.0:
        singular.add(0.0)
    ends = sorted(singular | {lo, hi})
    edges = [np.array([lo])]
    for a, b in zip(ends, ends[1:]):
        if a in singular and b in singular:
            m = 0.5 * (a + b)
            edges += [_graded_edges(a, m)[1:], _graded_edges(b, m)[-2::-1]]
        elif a in singular:
            edges.append(_graded_edges(a, b)[1:])
        elif b in singular:
            edges.append(_graded_edges(b, a)[-2::-1])
        else:
            k = max(1, math.ceil(math.log(b / a) / math.log(_LOG_PANEL_RATIO)))
            edges.append(a * (b / a) ** (np.arange(1, k + 1) / k))
    e = np.concatenate(edges)
    x, w = _legendre_rule(order)
    mid = 0.5 * (e[1:] + e[:-1])
    half = 0.5 * (e[1:] - e[:-1])
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


def radial_integral(f, lo: float, hi: float, breaks=()) -> np.ndarray:
    """Integrals over [lo, hi] of every component of a radial integrand.

    ``f`` maps an (m,) radius array to a (k, m) array of k components.
    It is evaluated ``_RADII_PER_BLOCK`` radii at a time on the nodes of
    :func:`radial_nodes` at ``RADIAL_ORDER`` and at half that order; a
    gap between the two results above ``_RADIAL_RTOL`` of the largest
    absolute integral means an unresolved integrand (a singular radius
    missing from ``breaks``, say) and raises ``NumericalError``.
    """
    r, w = radial_nodes(lo, hi, breaks)
    r_half, w_half = radial_nodes(lo, hi, breaks, RADIAL_ORDER // 2)
    radii = np.concatenate([r, r_half])
    vals = np.concatenate(
        [np.asarray(f(radii[i:i + _RADII_PER_BLOCK]), dtype=float)
         for i in range(0, len(radii), _RADII_PER_BLOCK)], axis=1,
    )
    full = vals[:, :len(r)] @ w
    gap = np.abs(full - vals[:, len(r):] @ w_half).max()
    scale = (np.abs(vals[:, :len(r)]) @ w).max()
    if not (np.all(np.isfinite(full)) and gap <= _RADIAL_RTOL * scale):
        raise NumericalError(
            f"radial integrand unresolved on [{lo}, {hi}]: the half-order "
            f"rule differs by {gap:.3e} (scale {scale:.3e})"
        )
    return full
