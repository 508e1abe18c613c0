"""Command-line entry point.

One subcommand per workflow: constants, field dumps, energies, solves,
sweeps, renormalized energy, the diagonal limit, boundary checks and the
pair-field integrals. A JSON configuration file is the single source of
truth; command-line flags override scalar entries. All floating output
carries 17 significant digits and artifacts are byte-identical across
reruns of the same inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from functools import cache

import numpy as np

from .core import (
    DefectConfiguration,
    ElasticConstants,
    NumericalError,
    ValidationError,
)
from .closedform import (
    DipoleAiry,
    DislocationCoreAiry,
    DislocationLimitAiry,
    SingleDisclinationClamped,
    SumField,
    airy_to_stress,
    stress_to_strain,
)
from .fields import (
    CORE,
    CSV_BLOCK_ROWS,
    INTERIOR,
    OUTSIDE,
    Grid,
    _csv_cells,
    _write_rows,
    check_core_resolution,
    check_grid_n,
    fmt17,
    grid_for_disk,
)
from .energy import EnergyBreakdown, green_bulk_energy
from .solver import (
    solve_clamped_disclination,
    solve_core_constrained,
    solve_dipole_core,
)
from .asymptotics import (
    appendix_b_integrals,
    diagonal_dipole_limit,
    dipole_scaling_sweep,
    expansion_check,
    renormalized_energy,
    sweep_to_csv,
)
from .boundary import (
    MAX_SAMPLES,
    MIN_SAMPLES,
    BoundaryCurve,
    affine_trace_check,
    tangential_hessian_residual,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # bool first: isinstance(True, int) holds
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def dump_json(obj) -> str:
    """Deterministic JSON with fixed key order and 17-digit floats."""

    def emit(o, indent):
        pad = "  " * indent
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f'{pad}  {json.dumps(k)}: {emit(v, indent + 1)}'
                for k, v in sorted(o.items())
            ]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if isinstance(o, list):
            if not o:
                return "[]"
            items = [f"{pad}  {emit(v, indent + 1)}" for v in o]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, float):
            return fmt17(o)
        if isinstance(o, int):
            return str(o)
        return json.dumps(o)

    return emit(_jsonable(obj), 0) + "\n"


def _load_config(args) -> DefectConfiguration:
    if not getattr(args, "config", None):
        raise ValidationError("this subcommand needs --config")
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid config JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config JSON must be an object")
    # flag overrides for scalar entries
    for key in ("E", "nu"):
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    core = getattr(args, "core_radius", None)
    if core is not None:
        doc["core_radius"] = core
    return DefectConfiguration.from_dict(doc)


def _float_list(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _plastic_field(config: DefectConfiguration, annulus_branch: bool = False):
    """Summed closed-form potential of every defect in the configuration;
    ``annulus_branch`` extends the cored dislocations' annulus branch
    into their cores (see ``DislocationCoreAiry``)."""
    terms = []
    for d in config.disclinations:
        terms.append(
            SingleDisclinationClamped(
                elastic=config.elastic, radius_R=config.domain.radius_R,
                charge_s=d.frank_angle_s, center=d.site,
            )
        )
    for d in config.dislocations:
        if config.core_radius is not None:
            terms.append(
                DislocationCoreAiry(
                    elastic=config.elastic, burgers_b=d.burgers_b,
                    eps=config.core_radius,
                    radius_R=config.domain.radius_R, site=d.site,
                    annulus_branch=annulus_branch,
                )
            )
        else:
            terms.append(
                DislocationLimitAiry(
                    elastic=config.elastic, burgers_b=d.burgers_b,
                    radius_R=config.domain.radius_R, site=d.site,
                )
            )
    for dip in config.dipoles:
        terms.append(
            DipoleAiry(
                elastic=config.elastic, burgers_b=dip.burgers_b,
                spacing_h=dip.spacing_h, center=dip.center,
            )
        )
    if not terms:
        raise ValidationError("configuration holds no defects")
    return SumField(tuple(terms))


_FIELD_HEADER = "x,y,v,s11,s12,s22,e11,e12,e22"
_SOLUTION_HEADER = "x,y,v,v_xx,v_xy,v_yy,mask"
# nodes per block of a field dump, in whole grid lines
_FIELD_BLOCK_NODES = CSV_BLOCK_ROWS


def _dump_grid(domain, n: int, eps=None) -> Grid:
    """The grid of a field dump whose field has cores of radius ``eps``
    (``None``: no cores), checked before any file opens: a core
    narrower than 4 cells is unresolved (``check_core_resolution``)."""
    grid = grid_for_disk(domain, n)
    if eps is not None:
        check_core_resolution(eps, grid.delta)
    return grid


def _line_blocks(grid: Grid, columns: int, halo: int = 0):
    """The node coordinates X, Y, of shape (lines, ny), of each block of
    whole grid lines of about ``_FIELD_BLOCK_NODES`` nodes, in order,
    with ``halo`` more lines on either side (beyond the grid, too), and
    a (lines, ny, ``columns``, 4) table of cells of the block's own
    lines, its columns x and y filled. Line i lies at x0 + delta i, as
    in ``Grid.xs``; one table serves every block, and y is formatted once."""
    lines = max(1, _FIELD_BLOCK_NODES // grid.ny)
    table = np.empty((lines, grid.ny, columns, 4), np.uint64)
    table[:, :, 1] = _csv_cells(grid.ys)
    for start in range(0, grid.nx, lines):
        i = np.arange(start - halo, min(start + lines, grid.nx) + halo)
        x = grid.x0 + grid.delta * i
        block = table[:len(i) - 2 * halo]
        block[:, :, 0] = _csv_cells(x[halo:len(i) - halo])[:, None]
        yield *np.broadcast_arrays(x[:, None], grid.ys), block


def _node_values(vals, H, elastic: ElasticConstants) -> np.ndarray:
    """(N, 7) columns v, s11, s12, s22, e11, e12, e22 of N nodes with
    values ``vals`` and Airy Hessians ``H``."""
    sigma = airy_to_stress(H)
    eps = stress_to_strain(sigma, elastic)
    return np.column_stack([vals, sigma[:, 0, 0], sigma[:, 0, 1], sigma[:, 1, 1],
                            eps[:, 0, 0], eps[:, 0, 1], eps[:, 1, 1]])


def _write_field_csv(path, config: DefectConfiguration, grid: Grid,
                     field) -> None:
    """Write ``_FIELD_HEADER`` and one row per node of ``grid``,
    row-major, with the closed-form ``field`` at the nodes inside the
    disk (core nodes included) and v = 0 and a zero Hessian outside.

    Every number prints as ``%.17g``. Each block of grid lines fills one
    table of cells, written by ``fields._write_rows``: the line's x and
    each node's y are formatted once into it, and so are the field
    columns of outside nodes, which are the same for all of them; the
    formatted values of the inside nodes are scattered into their rows.
    """
    cx, cy = config.domain.center
    outside = _csv_cells(_node_values(np.zeros(1), np.zeros((1, 2, 2)),
                                      config.elastic)[0])
    with open(path, "wb") as f:
        f.write(_FIELD_HEADER.encode("ascii") + b"\n")
        for X, Y, table in _line_blocks(grid, 9):
            inside = np.hypot(X - cx, Y - cy) < config.domain.radius_R
            table[~inside, 2:] = outside
            pts = np.stack([X[inside], Y[inside]], axis=-1)
            values = _node_values(*field.value_and_hessian(pts), config.elastic)
            table[inside, 2:] = _csv_cells(values).reshape(-1, 7, 4)
            _write_rows(f, table)


def _write_solution_csv(path, solution, domain, grid: Grid) -> None:
    """Write ``_SOLUTION_HEADER`` and one row per node of ``grid``,
    row-major: the minimizer ``solution`` at the nodes inside the disk
    and at ghost nodes (outside, within two cells of an inside node), 0
    elsewhere; its central-difference Hessian where the 3x3 stencil lies
    inside the disk, NaN elsewhere; and the node's mask code.

    The Hessians of a block of grid lines read one more line either
    side, and the ghosts of those lines two more lines of the inside
    test; the first two of those lines are the last two of the block
    before, whose values it keeps. As in the field dump, each block
    fills one table of cells: x, y, the cells that are the same for
    every node of a kind (0, NaN and the mask codes), and the formatted
    numbers scattered into their rows.
    """
    (cx, cy), R, h = domain.center, domain.radius_R, grid.delta
    zero, nan = _csv_cells(np.array([0.0, np.nan]))
    codes = _csv_cells(np.array([OUTSIDE, INTERIOR, CORE]))
    kept = np.zeros((2, grid.ny))
    with open(path, "wb") as f:
        f.write(_SOLUTION_HEADER.encode("ascii") + b"\n")
        for X, Y, table in _line_blocks(grid, 7, halo=3):
            inside = np.hypot(X - cx, Y - cy) < R
            # lines 2 .. -2 of the block: the inside nodes and the ghosts
            live = np.zeros_like(inside[2:-2])
            for di in range(5):
                for dj in range(-2, 3):
                    live |= np.roll(inside[di:di + len(live)], dj, axis=1)
            X, Y, inside = X[2:-2], Y[2:-2], inside[2:-2]
            v = np.zeros(X.shape)
            v[:2], new = kept, live.copy()
            new[:2] = False
            v[new] = solution.value(np.stack([X[new], Y[new]], axis=-1))
            kept = v[-2:]
            # the block's own lines, 1 .. -1: where the 3x3 stencil is inside
            ok = np.zeros_like(inside[1:-1])
            ok[:, 1:-1] = True
            for di in range(3):
                for dj in range(3):
                    ok[:, 1:-1] &= inside[di:di + len(ok), dj:dj + ok.shape[1] - 2]
            vxy, vyy = np.zeros((2,) + ok.shape)
            vxx = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
            vxy[:, 1:-1] = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:]
                            + v[:-2, :-2]) / (4.0 * h**2)
            vyy[:, 1:-1] = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1]
                            + v[1:-1, :-2]) / h**2
            X, Y, inside, live = X[1:-1], Y[1:-1], inside[1:-1], live[1:-1]
            core = np.zeros_like(inside)
            for (px, py), eps in solution.cores:
                core |= np.hypot(X - px, Y - py) <= eps
            table[:, :, 2] = zero
            table[live, 2] = _csv_cells(v[1:-1][live])
            table[:, :, 3:6] = nan
            hessians = np.stack([vxx, vxy, vyy], axis=-1)[ok]
            table[ok, 3:6] = _csv_cells(hessians).reshape(-1, 3, 4)
            table[:, :, 6] = codes[inside * (1 + core)]
            _write_rows(f, table)


def _check_output_paths(args) -> None:
    """Reject an output path whose file cannot be created, before any
    work, so that a run writes all of its files or none."""
    for key in ("out", "csv", "field_csv"):
        path = getattr(args, key, None)
        if not path:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ValidationError(f"cannot write {path}: no directory {folder}")
        # an existing file must be writable too: a failed run removes
        # the files it began
        if (os.path.isdir(path) or not os.access(folder, os.W_OK)
                or (os.path.exists(path) and not os.access(path, os.W_OK))):
            raise ValidationError(f"cannot write {path}")


@contextmanager
def _writing(path):
    """Report an OS error while writing ``path`` as a validation error."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(text)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def _emit(args, doc, files=None) -> None:
    """Write the report ``doc`` to ``--out`` or stdout, after the files
    of ``files`` (path to writer; a ``None`` path is skipped). The report
    is checked before anything is written, so a run that fails the check
    leaves no file; a writer that fails leaves none either, because every
    file begun is removed."""
    doc = _jsonable(doc)
    # JSON has no inf or NaN, and a report holding one is no result
    if not _all_finite(doc):
        raise NumericalError("the report holds a non-finite number")
    text = dump_json(doc)
    out = getattr(args, "out", None)
    writes = [(path, write) for path, write in (files or {}).items() if path]
    if out:
        writes.append((out, lambda path: _write_text(path, text)))
    begun = []
    try:
        for path, write in writes:
            begun.append(path)
            with _writing(path):
                write(path)
    except BaseException:
        for path in begun:
            with suppress(OSError):
                os.remove(path)
        raise
    if not out:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_constants(args) -> None:
    if args.config:
        elastic = _load_config(args).elastic
    else:
        if args.E is None or args.nu is None:
            raise ValidationError("need --config or both --E and --nu")
        elastic = ElasticConstants(args.E, args.nu)
    _emit(args, {
        "E": elastic.young_E,
        "nu": elastic.poisson_nu,
        "lame_lambda": elastic.lame_lambda,
        "lame_mu": elastic.lame_mu,
        "plane_prefactor": elastic.plane_prefactor,
    })


def _cmd_field(args) -> None:
    if not args.csv:
        raise ValidationError("field dump needs --csv PATH")
    config = _load_config(args)
    field = _plastic_field(config)
    grid = _dump_grid(config.domain, args.grid_n,
                      config.core_radius if config.dislocations else None)
    _emit(args, {"nodes": grid.nx * grid.ny, "grid_n": args.grid_n, "csv": args.csv},
          {args.csv: lambda path: _write_field_csv(path, config, grid, field)})


def _cmd_energy(args) -> None:
    config = _load_config(args)
    if config.dislocations and config.core_radius is None:
        raise ValidationError(
            "an uncored dislocation has infinite energy; give core_radius")
    field = _plastic_field(config)
    cores = [(d.site, config.core_radius) for d in config.dislocations]
    bulk, nodes = green_bulk_energy(
        _plastic_field(config, annulus_branch=True), config.elastic,
        config.domain, config.point_charges(), cores)
    charge = 0.0
    for d in config.disclinations:
        charge += d.frank_angle_s * float(field.value(np.asarray(d.site))[0])
    region = (
        f"disk R={fmt17(config.domain.radius_R)}"
        if not cores else
        f"disk R={fmt17(config.domain.radius_R)} minus {len(cores)} cores"
    )
    br = EnergyBreakdown(bulk_G=bulk, charge_term=charge, region=region)
    _emit(args, br.to_dict(grid={"circle_nodes": nodes}))


def _cmd_solve(args) -> None:
    config = _load_config(args)
    kinds = [
        bool(config.disclinations),
        bool(config.dislocations),
        bool(config.dipoles),
    ]
    if sum(kinds) != 1:
        raise ValidationError(
            "solve expects exactly one defect family per configuration"
        )
    if args.field_csv:  # the dislocation and dipole solves have cores
        grid = _dump_grid(config.domain, args.grid_n,
                          None if config.disclinations else config.core_radius)
    if config.disclinations:
        report = solve_clamped_disclination(
            config.elastic, config.domain, config.disclinations, n=args.grid_n,
        )
    elif config.dislocations:
        if config.core_radius is None:
            raise ValidationError("dislocation solve needs core_radius")
        report = solve_core_constrained(
            config.elastic, config.domain, config.dislocations,
            config.core_radius, n=args.grid_n,
        )
    else:
        if config.core_radius is None:
            raise ValidationError("dipole solve needs core_radius")
        report = solve_dipole_core(
            config.elastic, config.domain, config.dipoles,
            config.core_radius, n=args.grid_n,
        )
    # the solution is evaluated only here, for a report that passed its
    # check
    _emit(args, report.to_dict(), {args.field_csv: lambda path: _write_solution_csv(
        path, report.solution, config.domain, grid)})


def _cmd_sweep_dipole(args) -> None:
    if args.config:
        config = _load_config(args)
        elastic = config.elastic
        R = config.domain.radius_R
        s = (
            config.dipoles[0].charge_s
            if config.dipoles else args.s
        )
    else:
        if args.E is None or args.nu is None:
            raise ValidationError("need --config or both --E and --nu")
        elastic = ElasticConstants(args.E, args.nu)
        R = args.R
        s = args.s
    rows = dipole_scaling_sweep(elastic, s, R, args.h,
                                include_solver=args.include_solver)
    _emit(args, {"rows": rows}, {args.csv: lambda path: sweep_to_csv(rows, path)})


def _cmd_sweep_core(args) -> None:
    config = _load_config(args)
    if not config.dislocations:
        raise ValidationError("sweep-core needs dislocations in the config")
    fit = expansion_check(
        config.dislocations, config.elastic, config.domain, args.eps,
        fit_tail=args.fit_tail,
    )
    _emit(args, fit.to_dict())


def _cmd_renormalize(args) -> None:
    config = _load_config(args)
    if not config.dislocations:
        raise ValidationError("renormalize needs dislocations in the config")
    ren = renormalized_energy(
        config.dislocations, config.elastic, config.domain, D_override=args.D,
    )
    _emit(args, ren.to_dict())


def _cmd_diagonal(args) -> None:
    config = _load_config(args)
    if not config.dipoles:
        raise ValidationError("diagonal needs dipoles in the config")
    fit = diagonal_dipole_limit(
        config.dipoles, config.elastic, config.domain, args.h,
        fit_tail=args.fit_tail,
    )
    _emit(args, fit.to_dict())


def _cmd_check_bc(args) -> None:
    config = _load_config(args)
    field = _plastic_field(config)
    domain = config.domain
    curve = BoundaryCurve.circle(domain.center, domain.radius_R, args.n_samples)
    residual = tangential_hessian_residual(field, curve)
    report = affine_trace_check(field, curve)
    _emit(args, {
        "tangential_hessian_residual": residual,
        "affine_trace": report.to_dict(),
    })


def _cmd_appendix_b(args) -> None:
    res = appendix_b_integrals(args.h, args.R)
    _emit(args, res)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, and every default it hands out is immutable."""
    parser = _Parser(prog="airy-defects",
                     description="Planar defect toolkit (Airy potentials)")
    sub = parser.add_subparsers(dest="command")

    def common(p, config=True, grid=True):
        if config:
            p.add_argument("--config", help="JSON configuration file")
            p.add_argument("--core-radius", type=float, dest="core_radius",
                           help="override the config core radius")
        if grid:
            p.add_argument("--grid-n", type=int, default=256,
                           help="cells across the diameter")
        p.add_argument("--out", help="write the JSON report here (default stdout)")

    p = sub.add_parser("constants", help="derived elastic constants")
    p.add_argument("--config")
    p.add_argument("--E", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_constants)

    p = sub.add_parser("field", help="closed-form field/stress/strain dump")
    common(p)
    p.add_argument("--csv", required=True, help="per-node CSV path")
    p.set_defaults(run=_cmd_field)

    p = sub.add_parser("energy", help="energy breakdown of the plastic field")
    common(p)
    p.set_defaults(run=_cmd_energy)

    p = sub.add_parser("solve", help="minimize the configuration functional")
    common(p)
    p.add_argument("--field-csv", help="dump the minimizer nodes here")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("sweep-dipole", help="spacing scaling-law sweep")
    common(p)
    p.add_argument("--E", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--h", type=_float_list, default=(1e-2, 3e-3, 1e-3),
                   help="comma-separated decreasing spacings")
    p.add_argument("--include-solver", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(run=_cmd_sweep_dipole)

    p = sub.add_parser("sweep-core", help="core-radius expansion sweep")
    common(p)
    p.add_argument("--eps", type=_float_list, default=(0.2, 0.1, 0.05),
                   help="comma-separated decreasing core radii")
    p.add_argument("--fit-tail", type=int, default=3)
    p.set_defaults(run=_cmd_sweep_core)

    p = sub.add_parser("renormalize", help="renormalized-energy decomposition")
    common(p)
    p.add_argument("--D", type=float, help="override the separation radius")
    p.set_defaults(run=_cmd_renormalize)

    p = sub.add_parser("diagonal", help="joint spacing/core diagonal limit")
    common(p)
    p.add_argument("--h", type=_float_list, default=(1e-2, 2.5e-3, 6.25e-4))
    p.add_argument("--fit-tail", type=int, default=3)
    p.set_defaults(run=_cmd_diagonal)

    p = sub.add_parser("check-bc", help="boundary-condition residuals")
    common(p, grid=False)
    p.add_argument("--n-samples", type=int, default=1024,
                   help="equispaced nodes on the disk's circle, "
                        f"{MIN_SAMPLES} to {MAX_SAMPLES} (default %(default)s)")
    p.set_defaults(run=_cmd_check_bc)

    p = sub.add_parser("appendix-b", help="pair-field integral limits")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_appendix_b)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; map its error exit onto usage code
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        # a resolution and the output paths are checked before any
        # work, so that a bad one costs nothing and leaves no file
        if getattr(args, "grid_n", None) is not None:
            check_grid_n(args.grid_n)
        _check_output_paths(args)
        # numpy's overflow warnings say nothing the checks of finiteness
        # do not: a non-finite result exits 3 with one line
        with np.errstate(all="ignore"):
            args.run(args)
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
