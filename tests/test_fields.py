import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grid_reference import (
    ScalarField,
    SplineField,
    build_mask,
    circle_rect_area,
    disk_cell_fractions,
    nearest_index,
    node,
    region_weights,
)

from airy_defects.core import DiskDomain, NumericalError, ValidationError
from airy_defects import fields
from airy_defects.fields import (
    CORE,
    INTERIOR,
    OUTSIDE,
    Grid,
    check_grid_n,
    circle_nodes,
    fmt17,
    grid_for_disk,
    radial_integral,
    radial_nodes,
    write_csv,
)


class TestFmt17:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip(self, x):
        assert float(fmt17(x)) == x

    def test_plain(self):
        assert fmt17(0.1) == "0.10000000000000001"


def fmt17_array(x) -> np.ndarray:
    """The texts of ``fields._fmt17_cells`` of ``x``, each cell read in
    order with its NULs skipped, as an ``S24`` array of the shape of
    ``x``; every cell leaves the top byte of lane 3 to the separator."""
    x = np.asarray(x, dtype=float)
    cells = fields._fmt17_cells(x)
    assert not np.any(cells[:, 3] >> np.uint64(56))
    b = cells.view(np.uint8).reshape(-1, 32)
    b = np.take_along_axis(b, np.argsort(b == 0, axis=1, kind="stable"), axis=1)
    return np.ascontiguousarray(b[:, :24]).view("S24").reshape(x.shape)


def assert_fmt17_array(x):
    x = np.asarray(x, dtype=float)
    got = fmt17_array(x)
    assert got.shape == x.shape
    for v, text in zip(x.ravel().tolist(), got.ravel().tolist()):
        assert text == b"%.17g" % v, v


class TestFmt17Array:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        # subnormals, +-0, nan and +-inf included
        assert_fmt17_array(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        p = 10.0 ** np.arange(-8, 19)
        x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
        assert_fmt17_array(np.concatenate([x, -x]))

    def test_no_significand_rounds_up_to_a_power_of_ten(self):
        # the double nearest below each power of ten of the laid-out
        # range keeps 17 digits below it
        below = []
        for j in range(-5, 18):
            p = Fraction(10) ** j
            x = float(p)
            below.append(x if Fraction(x) < p else math.nextafter(x, 0.0))
            assert Fraction(fmt17(below[-1])) < p
        assert_fmt17_array(np.array([below, np.negative(below)]))

    def test_round_numbers(self):
        rng = np.random.default_rng(3)
        integers = rng.integers(0, 2**53, 20000).astype(float)
        integers = integers // 10.0 ** rng.integers(0, 16, 20000)
        dyadic = rng.integers(-2**20, 2**20, 20000) / 2.0 ** rng.integers(0, 40, 20000)
        decimals = np.round(rng.uniform(-1e3, 1e3, 20000), 5)
        assert_fmt17_array(np.concatenate([integers, -integers, dyadic, decimals]))

    def test_log_uniform(self):
        rng = np.random.default_rng(4)
        x = np.exp(rng.uniform(math.log(1e-7), math.log(3e17), 200_000))
        assert_fmt17_array(x * rng.choice([-1.0, 1.0], x.size))

    def test_point_among_the_digits(self):
        # e = 1..16: the digits after the "." move one byte, the last of
        # them into lane 3
        x = [12.5, 1e16 + 2, 123456789.5, 1234567890123456.8, 99999999999999.98,
             12345678.90123456, 0.1 + 0.2 + 1e3]
        assert_fmt17_array(np.concatenate([x, np.negative(x)]))
        # e = -6, -5: one digit, then the "." and the rest before "e-0X"
        assert_fmt17_array([1.2345678901234567e-6, -9.876543210987654e-5, 3e-6])

    def test_fraction_of_zeros(self):
        # the "." and the trailing zeros it would lead are dropped
        x = [100.0, -2.0, 0.5, -0.0, 1e16, 12345678901234567.0, 5e-5]
        assert fmt17_array(x).tolist() == [b"%.17g" % v for v in x]
        assert_fmt17_array(np.concatenate([x, np.negative(x)]))

    def test_shapes(self):
        assert fmt17_array(np.zeros((0, 3))).shape == (0, 3)
        assert fmt17_array([[0.5, -2.0]]).tolist() == [[b"0.5", b"-2"]]
        # more than one pass of the kernel
        assert_fmt17_array(np.linspace(-3.0, 7.0, 3 * fields._FMT_CHUNK + 5))


class TestWriteCsv:
    def test_bytes_match_fmt17(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = 2 * 1024 + 3  # not a multiple of the block size
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        x[:7] = [-0.0, 0.0, 5e-324, -5e-324, 1e300, 0.1, float("nan")]
        y = rng.standard_normal(rows)
        mask = rng.integers(0, 3, rows).astype(np.int8)
        path = tmp_path / "t.csv"
        write_csv(path, "x,y,mask", [x, y, mask])
        expected = "x,y,mask\n" + "".join(
            ",".join([fmt17(a), fmt17(b), str(int(m))]) + "\n"
            for a, b, m in zip(x, y, mask)
        )
        assert path.read_bytes() == expected.encode("ascii")

    def test_longest_fallback_and_integers(self, tmp_path):
        # the 24-byte %.17g text fills lanes 0..2, followed by its separator
        x = np.array([-2.2250738585072014e-308, 12.5, -2.2250738585072014e-308])
        k = np.array([-9223372036854775807, 0, 4096], dtype=np.int64)
        path = tmp_path / "t.csv"
        write_csv(path, "x,k,y", [x, k, x[::-1]])
        assert path.read_bytes() == (
            b"x,k,y\n-2.2250738585072014e-308,-9223372036854775807,"
            b"-2.2250738585072014e-308\n12.5,0,12.5\n"
            b"-2.2250738585072014e-308,4096,-2.2250738585072014e-308\n")

    def test_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, "a,b", [np.zeros(0), np.zeros(0)])
        assert path.read_bytes() == b"a,b\n"


class TestCircleNodes:
    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_cached_table_matches_the_formula(self, n, shift):
        # the normals come from a table cached per (n, shift); points,
        # normals and circumference are bit for bit those of the formula
        center, radius = (0.3, -0.2), 0.7
        th = 2.0 * math.pi * (np.arange(n) + shift) / n
        nhat = np.stack([np.cos(th), np.sin(th)], axis=-1)
        for _ in range(2):
            pts, got, length = circle_nodes(center, radius, n, shift)
            assert np.array_equal(got, nhat)
            assert np.array_equal(pts, np.asarray(center) + radius * nhat)
            assert length == 2.0 * math.pi * radius
            assert not got.flags.writeable
        assert circle_nodes(center, radius, n, shift)[1] is got


class TestGrid:
    def test_disk_coverage(self, unit_disk):
        g = grid_for_disk(unit_disk, 64)
        assert g.delta == pytest.approx(2.0 / 64)
        assert g.xs[0] < -1.0 and g.xs[-1] > 1.0
        assert g.nx == g.ny == 64 + 2 * 4 + 1

    def test_too_coarse(self, unit_disk):
        with pytest.raises(ValidationError):
            grid_for_disk(unit_disk, 4)

    def test_memory_cap(self, unit_disk):
        # rejected from the node count alone: 10^8 cells across would
        # give 10^16 nodes
        with pytest.raises(ValidationError, match="nodes, above the cap"):
            grid_for_disk(unit_disk, 100_000_000)
        n_max = math.isqrt(fields.MAX_GRID_NODES) - 9
        check_grid_n(n_max)
        with pytest.raises(ValidationError, match="nodes, above the cap"):
            check_grid_n(n_max + 1)

    def test_cap_admits_a_streamed_3000_grid(self):
        # both dumps stream blocks of grid lines, so the cap bounds the
        # rows of the file, not arrays of the whole grid
        check_grid_n(3000)
        assert grid_for_disk(DiskDomain((0.0, 0.0), 1.0), 3000).nx == 3009

    def test_nearest_index(self, unit_disk):
        g = grid_for_disk(unit_disk, 64)
        i, j = nearest_index(g, (0.0, 0.0))
        assert np.allclose(node(g, i, j), (0.0, 0.0), atol=1e-12)


class TestCutCells:
    def test_full_and_empty_cells(self):
        # cell far inside the circle
        assert circle_rect_area(0.0, 0.0, 1.0, 0.0, 0.1, 0.0, 0.1) == pytest.approx(
            0.01, rel=1e-12
        )
        assert circle_rect_area(0.0, 0.0, 1.0, 2.0, 2.1, 2.0, 2.1) == 0.0

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_disk_area_exact(self, unit_disk, n):
        g = grid_for_disk(unit_disk, n)
        frac = disk_cell_fractions(g, (0.0, 0.0), 1.0)
        area = frac.sum() * g.delta**2
        assert area == pytest.approx(math.pi, rel=1e-12)

    def test_annulus_weights(self, unit_disk):
        g = grid_for_disk(unit_disk, 64)
        w = region_weights(g, unit_disk, cores=(((0.0, 0.0), 0.25),))
        area = w.sum() * g.delta**2
        assert area == pytest.approx(math.pi * (1.0 - 0.25**2), rel=1e-12)


class TestMask:
    def test_codes(self, unit_disk):
        g = grid_for_disk(unit_disk, 64)
        m = build_mask(g, unit_disk, cores=(((0.0, 0.0), 0.25),))
        assert m[0, 0] == OUTSIDE
        ci, cj = nearest_index(g, (0.0, 0.0))
        assert m[ci, cj] == CORE
        mi, mj = nearest_index(g, (0.6, 0.0))
        assert m[mi, mj] == INTERIOR

    def test_unresolved_core_rejected(self, unit_disk):
        g = grid_for_disk(unit_disk, 64)
        with pytest.raises(ValidationError):
            build_mask(g, unit_disk, cores=(((0.0, 0.0), g.delta),))


def _quadratic_field(grid):
    def fn(p):
        return 1.0 + 2.0 * p[:, 0] - p[:, 1] + 0.5 * p[:, 0] ** 2 \
            + 0.25 * p[:, 0] * p[:, 1] - 1.5 * p[:, 1] ** 2
    return ScalarField.sample(fn, grid)


class TestScalarField:
    def test_fd_exact_on_quadratics(self, unit_disk):
        sf = _quadratic_field(grid_for_disk(unit_disk, 32))
        vxx, vxy, vyy, ok = sf.hessian_fd()
        assert np.allclose(vxx[ok], 1.0, atol=1e-10)
        assert np.allclose(vxy[ok], 0.25, atol=1e-10)
        assert np.allclose(vyy[ok], -3.0, atol=1e-10)

    def test_shape_gate(self, unit_disk):
        g = grid_for_disk(unit_disk, 32)
        with pytest.raises(ValidationError):
            ScalarField(grid=g, values=np.zeros((3, 3)), mask=np.zeros((3, 3)))

    def test_immutability(self, unit_disk):
        sf = _quadratic_field(grid_for_disk(unit_disk, 32))
        with pytest.raises(ValueError):
            sf.values[0, 0] = 1.0


class TestSplineField:
    def test_matches_smooth_function(self, unit_disk):
        g = grid_for_disk(unit_disk, 128)

        def fn(p):
            return np.sin(p[:, 0]) * np.cos(p[:, 1])

        spline = SplineField(ScalarField.sample(fn, g))
        pts = np.array([[0.1, 0.2], [-0.5, 0.3], [0.7, -0.6]])
        assert np.allclose(spline.value(pts), fn(pts), atol=1e-7)
        gx = np.cos(pts[:, 0]) * np.cos(pts[:, 1])
        assert np.allclose(spline.gradient(pts)[:, 0], gx, atol=1e-4)
        lap = -2.0 * fn(pts)
        assert np.allclose(spline.laplacian(pts), lap, atol=1e-2)

    def test_single_point_shape(self, unit_disk):
        g = grid_for_disk(unit_disk, 32)
        spline = SplineField(_quadratic_field(g))
        assert spline.value((0.0, 0.0)).shape == (1,)
        assert spline.hessian((0.0, 0.0)).shape == (1, 2, 2)


RULE_CASES = [(0.0, 1.0, ()), (0.05, 1.0, ()), (0.0, 1.0, (0.3,)),
              (0.2, 2.0, (0.2, 1.5)), (1e-3, 1.0, (0.5e-3,))]


class TestRadialRule:
    @pytest.mark.parametrize("lo, hi, breaks", RULE_CASES)
    @pytest.mark.parametrize("order", [fields.RADIAL_ORDER // 2,
                                       fields.RADIAL_ORDER])
    def test_exact_on_polynomials(self, lo, hi, breaks, order):
        r, w = radial_nodes(lo, hi, breaks, order)
        assert np.all((lo < r) & (r < hi)) and np.all(w > 0.0)
        for d in range(2 * order):
            exact = (hi ** (d + 1) - lo ** (d + 1)) / (d + 1)
            assert w @ r**d == pytest.approx(exact, rel=1e-13), d

    @pytest.mark.parametrize("order", [fields.RADIAL_ORDER // 2,
                                       fields.RADIAL_ORDER])
    def test_rule_built_once_read_only(self, order):
        x, w = fields._legendre_rule(order)
        assert fields._legendre_rule(order)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)
        with pytest.raises(ValueError):
            x[0] = 0.0
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        # one panel: [0.5, 0.9] spans less than _LOG_PANEL_RATIO
        r, wr = radial_nodes(0.5, 0.9, (), order)
        mid, half = 0.5 * (0.9 + 0.5), 0.5 * (0.9 - 0.5)
        assert np.array_equal(r, mid + half * ref_x)
        assert np.array_equal(wr, half * ref_w)

    def test_log_singularity_at_origin(self):
        r, w = radial_nodes(0.0, 1.0)
        assert abs(w @ (r * np.log(r) ** 2) - 0.25) < 1e-12

    def test_components_integrated_together(self):
        got = radial_integral(lambda r: np.stack([np.ones_like(r), r]), 0.5, 2.0)
        assert got == pytest.approx([1.5, 1.875], rel=1e-14)

    def test_unflagged_kink_rejected(self):
        def kink(r):
            return np.abs(r - 0.3)[None, :] ** 0.5

        with pytest.raises(NumericalError):
            radial_integral(kink, 0.0, 1.0)
        exact = (2.0 / 3.0) * (0.3**1.5 + 0.7**1.5)
        assert radial_integral(kink, 0.0, 1.0, (0.3,))[0] == pytest.approx(
            exact, rel=1e-10)

    def test_bad_interval(self):
        with pytest.raises(ValidationError):
            radial_nodes(0.5, 0.5)
        with pytest.raises(ValidationError):
            radial_nodes(-0.1, 1.0)
