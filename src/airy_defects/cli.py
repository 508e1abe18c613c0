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
import sys

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
from .fields import fmt17, grid_for_disk, build_mask, region_weights
from .energy import EnergyBreakdown, grid_energy
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
    BoundaryCurve,
    affine_trace_check,
    tangential_hessian_residual,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# timing fields are stripped from artifacts so reruns are byte-identical
_VOLATILE_KEYS = {"assemble_seconds", "solve_seconds"}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {
            str(k): _jsonable(v)
            for k, v in obj.items()
            if str(k) not in _VOLATILE_KEYS
        }
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
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


def _plastic_field(config: DefectConfiguration):
    """Summed closed-form potential of every defect in the configuration."""
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


def _field_rows(config: DefectConfiguration, n: int) -> list[str]:
    field = _plastic_field(config)
    grid = grid_for_disk(config.domain, n)
    cores = ()
    if config.core_radius is not None:
        cores = tuple(
            (d.site, config.core_radius) for d in config.dislocations
        )
    mask = build_mask(grid, config.domain, cores)
    pts = grid.points()
    inside = (mask.ravel() != 0)
    vals = np.zeros(pts.shape[0])
    H = np.zeros((pts.shape[0], 2, 2))
    vals[inside] = field.value(pts[inside])
    H[inside] = field.hessian(pts[inside])
    sigma = airy_to_stress(H)
    eps = stress_to_strain(sigma, config.elastic)
    rows = ["x,y,v,s11,s12,s22,e11,e12,e22"]
    for i in range(pts.shape[0]):
        rows.append(
            ",".join(
                fmt17(x)
                for x in (
                    pts[i, 0], pts[i, 1], vals[i],
                    sigma[i, 0, 0], sigma[i, 0, 1], sigma[i, 1, 1],
                    eps[i, 0, 0], eps[i, 0, 1], eps[i, 1, 1],
                )
            )
        )
    return rows


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(text)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def _emit(args, doc, csv_rows=None) -> None:
    doc = _jsonable(doc)
    # JSON has no inf or NaN, and a report holding one is no result
    if not _all_finite(doc):
        raise NumericalError("the report holds a non-finite number")
    text = dump_json(doc)
    if getattr(args, "out", None):
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if csv_rows is not None and getattr(args, "csv", None):
        _write_text(args.csv, "\n".join(csv_rows) + "\n")


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
    config = _load_config(args)
    rows = _field_rows(config, args.grid_n)
    if not args.csv:
        raise ValidationError("field dump needs --csv PATH")
    doc = {"nodes": len(rows) - 1, "grid_n": args.grid_n, "csv": args.csv}
    _emit(args, doc, csv_rows=rows)


def _cmd_energy(args) -> None:
    config = _load_config(args)
    field = _plastic_field(config)
    grid = grid_for_disk(config.domain, args.grid_n)
    cores = ()
    if config.core_radius is not None:
        cores = tuple((d.site, config.core_radius) for d in config.dislocations)
    build_mask(grid, config.domain, cores)  # resolution gate only
    weights = region_weights(grid, config.domain, cores)
    # uncored defect sites carry integrable log^2 singularities; drop the
    # measure-zero nodes where the Hessian itself is not finite
    pts = grid.points()
    with np.errstate(divide="ignore", invalid="ignore"):
        H = field.hessian(pts)
    finite = np.isfinite(H).all(axis=(1, 2)).reshape(weights.shape)
    n_bad = int(((weights > 0) & ~finite).sum())
    if n_bad > len(config.disclinations) + 2 * len(config.dipoles) + len(
        config.dislocations
    ):
        raise NumericalError(f"{n_bad} nodes with non-finite energy density")
    weights = np.where(finite, weights, 0.0)
    bulk = grid_energy(field, grid, weights, config.elastic).energy
    charge = 0.0
    for d in config.disclinations:
        charge += d.frank_angle_s * float(field.value(np.asarray(d.site))[0])
    region = (
        f"disk R={fmt17(config.domain.radius_R)}"
        if not cores else
        f"disk R={fmt17(config.domain.radius_R)} minus {len(cores)} cores"
    )
    br = EnergyBreakdown(bulk_G=bulk, charge_term=charge, region=region)
    _emit(args, br.to_dict(grid={"delta": grid.delta, "n": args.grid_n}))


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
    if args.field_csv:
        report.field.to_csv(args.field_csv)
    _emit(args, report.to_dict())


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
    rows = dipole_scaling_sweep(
        elastic, s, R, args.h, include_solver=args.include_solver, n=args.grid_n,
    )
    if args.csv:
        sweep_to_csv(rows, args.csv)
    _emit(args, {"rows": rows})


def _cmd_sweep_core(args) -> None:
    config = _load_config(args)
    if not config.dislocations:
        raise ValidationError("sweep-core needs dislocations in the config")
    fit = expansion_check(
        config.dislocations, config.elastic, config.domain, args.eps,
        n=args.grid_n, fit_tail=args.fit_tail,
    )
    _emit(args, fit.to_dict())


def _cmd_renormalize(args) -> None:
    config = _load_config(args)
    if not config.dislocations:
        raise ValidationError("renormalize needs dislocations in the config")
    ren = renormalized_energy(
        config.dislocations, config.elastic, config.domain,
        D_override=args.D, n=args.grid_n,
    )
    _emit(args, ren.to_dict())


def _cmd_diagonal(args) -> None:
    config = _load_config(args)
    if not config.dipoles:
        raise ValidationError("diagonal needs dipoles in the config")
    fit = diagonal_dipole_limit(
        config.dipoles, config.elastic, config.domain, args.h,
        n=args.grid_n, fit_tail=args.fit_tail,
    )
    _emit(args, fit.to_dict())


def _cmd_check_bc(args) -> None:
    config = _load_config(args)
    field = _plastic_field(config)
    curve = BoundaryCurve.for_domain(config.domain, n_samples=args.n_samples)
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


def _build_parser() -> _Parser:
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
    p.add_argument("--h", type=_float_list, default=[1e-2, 3e-3, 1e-3],
                   help="comma-separated decreasing spacings")
    p.add_argument("--include-solver", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(run=_cmd_sweep_dipole)

    p = sub.add_parser("sweep-core", help="core-radius expansion sweep")
    common(p)
    p.add_argument("--eps", type=_float_list, default=[0.2, 0.1, 0.05],
                   help="comma-separated decreasing core radii")
    p.add_argument("--fit-tail", type=int, default=3)
    p.set_defaults(run=_cmd_sweep_core)

    p = sub.add_parser("renormalize", help="renormalized-energy decomposition")
    common(p)
    p.add_argument("--D", type=float, help="override the separation radius")
    p.set_defaults(run=_cmd_renormalize)

    p = sub.add_parser("diagonal", help="joint spacing/core diagonal limit")
    common(p)
    p.add_argument("--h", type=_float_list, default=[1e-2, 2.5e-3, 6.25e-4])
    p.add_argument("--fit-tail", type=int, default=3)
    p.set_defaults(run=_cmd_diagonal)

    p = sub.add_parser("check-bc", help="boundary-condition residuals")
    common(p, grid=False)
    p.add_argument("--n-samples", type=int, default=1024)
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
