"""Seeded inputs, operations and output checks of the three workloads.

Seed 0 is the acceptance gate's configuration. Any other seed rotates
it: the defect sites and Burgers vectors turn together by an angle drawn
from [0, pi/2), the centered defect gets its own angle, and each charge
or Burgers vector gets a random sign. A quarter turn maps the grid onto
itself, so these angles cover every orientation relative to it. The
sites keep their distances from the center and from each other, so
every input stays valid at every seed (each core radius below the
separation and at least four grid cells wide) and the continuum values
do not depend on the seed: energies are quadratic in the charges and
invariant under rotation of the whole configuration about the disk
center. What a seed changes is how the defects sit on the grid.

The program sees only the generated inputs, through its public
functions. Calls go through module attributes (``solver.solve_...``) so
that a traced run, which replaces those attributes, sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from airy_defects import boundary, cli, closedform, energy, solver
from airy_defects.core import (
    Disclination,
    DiskDomain,
    Dislocation,
    ElasticConstants,
    NumericalError,
    ValidationError,
)

import reference

E, NU = 1.0, 0.3
ELASTIC = ElasticConstants(E, NU)
K = ELASTIC.plane_prefactor
DISK = DiskDomain((0.0, 0.0), 1.0)

# tolerances of the per-operation checks
CLOSED_FORM_ABS = 1e-10
RESIDUAL_MAX = 1e-8
# second-order envelopes C / n^2 on the relative error against a
# reference, four times the error measured at the gate's sizes
TRACE_ENVELOPE = 100.0
ENERGY_ENVELOPE = 1000.0


@dataclass
class Outcome:
    """What one operation produced: failed checks, the relative and
    absolute error against an independent reference if it has one, the
    artifacts it wrote (name -> sha256) and their total size, and the
    value a pass-level figure is fitted from."""

    failures: list = field(default_factory=list)
    rel_err: float | None = None
    abs_err: float | None = None
    artifacts: dict = field(default_factory=dict)
    bytes_written: int = 0
    value: float | None = None


@dataclass
class Draw:
    theta: float  # rotation of the off-center configuration
    phi: float  # orientation of the centered defect
    sign: float  # sign of the off-center charges or Burgers vectors
    sign_centered: float

    @classmethod
    def from_seed(cls, seed: int) -> "Draw":
        if seed == 0:
            return cls(0.0, 0.0, 1.0, 1.0)
        rng = np.random.default_rng(seed)
        theta, phi = rng.uniform(0.0, 0.5 * math.pi, size=2)
        sign, sign_centered = rng.choice([-1.0, 1.0], size=2)
        return cls(float(theta), float(phi), float(sign), float(sign_centered))

    @staticmethod
    def rotate(p, angle: float) -> tuple[float, float]:
        c, s = math.cos(angle), math.sin(angle)
        return (c * p[0] - s * p[1], s * p[0] + c * p[1])


def _pair(draw: Draw) -> list[Dislocation]:
    """Same-sign dislocation pair at +-0.3, the PRIMARY-6 'two' case."""
    b = tuple(draw.sign * v for v in draw.rotate((0.0, 1.0), draw.theta))
    return [Dislocation(draw.rotate((x, 0.0), draw.theta), b) for x in (0.3, -0.3)]


def _centered_burgers(draw: Draw) -> tuple[float, float]:
    return tuple(draw.sign_centered * v for v in draw.rotate((0.0, 1.0), draw.phi))


def _check_residual(report, out: Outcome) -> None:
    if not report.residual <= RESIDUAL_MAX:
        out.failures.append(f"residual {report.residual:.3e} > {RESIDUAL_MAX:g}")


def _check_closed_form(value: float, exact: float, out: Outcome) -> None:
    if not abs(value - exact) <= CLOSED_FORM_ABS:
        out.failures.append(f"value {value!r} off closed form {exact!r}")


def _worst_error(outcomes) -> float:
    return max(o.rel_err for o in outcomes if o.rel_err is not None)


def _check_envelope(rel: float, n: int, c: float, out: Outcome) -> None:
    if not rel <= c / n**2:
        out.failures.append(f"relative error {rel:.3e} above {c:g}/n^2 at n={n}")


# ---------------------------------------------------------------------------
# core_sweep
# ---------------------------------------------------------------------------


def _core_sweep(seed: int, smoke: bool):
    draw = Draw.from_seed(seed)
    # smoke n keeps the smallest core radius at least four cells wide
    n = 168 if smoke else 256
    pair = _pair(draw)
    eps_list = (0.2, 0.1, 0.05)
    single = [Dislocation((0.0, 0.0), _centered_burgers(draw))]
    exact = energy.single_dislocation_min_value(ELASTIC, DISK.radius_R, 1.0, 0.1)
    slope = -K * sum(math.hypot(*d.burgers_b) ** 2 for d in pair) / (8.0 * math.pi)

    def pair_op(eps):
        def run(ctx) -> Outcome:
            rep = solver.solve_core_constrained(ELASTIC, DISK, pair, eps, n=n)
            out = Outcome(value=rep.value)
            _check_residual(rep, out)
            if not math.isfinite(rep.value):
                out.failures.append("non-finite value")
            return out
        return run

    def single_op(ctx) -> Outcome:
        rep = solver.solve_core_constrained(ELASTIC, DISK, single, 0.1, n=n)
        out = Outcome(value=rep.value)
        _check_residual(rep, out)
        _check_closed_form(rep.value, exact, out)
        return out

    ops = [(f"pair eps={eps:g} n={n}", pair_op(eps)) for eps in eps_list]
    ops.append((f"centered eps=0.1 n={n}", single_op))

    def pass_error(outcomes) -> float:
        """Relative error of the least-squares slope of the pair values
        against |log eps|, against the analytic slope."""
        x = np.array([abs(math.log(e)) for e in eps_list])
        y = np.array([o.value for o in outcomes[:3]])
        fitted = float(np.polyfit(x, y, 1)[0])
        return abs(fitted - slope) / abs(slope)

    return ops, pass_error


# ---------------------------------------------------------------------------
# trace_ladder
# ---------------------------------------------------------------------------


def _trace_ladder(seed: int, smoke: bool):
    draw = Draw.from_seed(seed)
    rungs = (32, 64) if smoke else (128, 256)
    disc = [Disclination(draw.rotate((0.3, -0.2), draw.theta), draw.sign)]
    pair = _pair(draw)
    centered = [Disclination((0.0, 0.0), draw.sign_centered)]
    gram_ref = reference.clamped_disclination_gram(
        E, NU, DISK.center, DISK.radius_R,
        [d.site for d in disc], [d.frank_angle_s for d in disc],
    )
    hess_ref = reference.elastic_correction_hessian_energy(
        E, NU, DISK.center, DISK.radius_R,
        [d.site for d in pair], [d.burgers_b for d in pair],
    )
    exact = -K / (32.0 * math.pi)

    def disc_op(n):
        def run(ctx) -> Outcome:
            rep = solver.solve_clamped_disclination(ELASTIC, DISK, disc, n=n)
            got = rep.extras["gram_objective"]
            out = Outcome(abs_err=abs(got - gram_ref),
                          rel_err=abs(got - gram_ref) / abs(gram_ref))
            _check_residual(rep, out)
            _check_envelope(out.rel_err, n, TRACE_ENVELOPE, out)
            return out
        return run

    def pair_op(n):
        def run(ctx) -> Outcome:
            rep = solver.solve_elastic_correction(ELASTIC, DISK, pair, n=n)
            got = rep.extras["hessian_energy"]
            out = Outcome(abs_err=abs(got - hess_ref),
                          rel_err=abs(got - hess_ref) / abs(hess_ref))
            _check_residual(rep, out)
            _check_envelope(out.rel_err, n, TRACE_ENVELOPE, out)
            return out
        return run

    def centered_op(ctx) -> Outcome:
        n = rungs[-1]
        rep = solver.solve_clamped_disclination(ELASTIC, DISK, centered, n=n)
        out = Outcome()
        _check_residual(rep, out)
        _check_closed_form(rep.value, exact, out)
        return out

    ops = []
    for n in rungs:
        ops.append((f"disclination n={n}", disc_op(n)))
        ops.append((f"elastic correction n={n}", pair_op(n)))
    ops.append((f"centered disclination n={rungs[-1]}", centered_op))

    return ops, _worst_error


# ---------------------------------------------------------------------------
# closed_form_cli
# ---------------------------------------------------------------------------


def _config(dislocations, core_radius) -> dict:
    return {
        "E": E, "nu": NU,
        "domain": {"center": list(DISK.center), "R": DISK.radius_R},
        "dislocations": [
            {"site": list(d.site), "b": list(d.burgers_b)} for d in dislocations
        ],
        "core_radius": core_radius,
    }


def _annulus_energy(eps: float) -> float:
    """Plate energy of one centered cored dislocation with |b| = 1 on
    eps < r < R, (K / 8 pi)(log(R/eps) - (R^2 - eps^2)/(R^2 + eps^2))."""
    R = DISK.radius_R
    g = (R * R - eps * eps) / (R * R + eps * eps)
    return K / (8.0 * math.pi) * (math.log(R / eps) - g)


def _closed_form_cli(seed: int, smoke: bool):
    draw = Draw.from_seed(seed)
    # smoke n keeps the core radius 0.1 at least four cells wide
    n = 96 if smoke else 256
    two = _config(_pair(draw), 0.1)
    b_one = _centered_burgers(draw)
    one = _config([Dislocation((0.0, 0.0), b_one)], 0.1)
    energy_ref = _annulus_energy(0.1)
    annulus = [
        (eps, closedform.DislocationCoreAiry(elastic=ELASTIC, burgers_b=b_one,
                                             eps=eps, radius_R=DISK.radius_R))
        for eps in (0.05, 0.1, 0.2)
    ]
    # PRIMARY-8 corpus and its known classification (True: traction free)
    corpus = [
        (closedform.SingleDisclinationClamped(elastic=ELASTIC, radius_R=1.0,
                                              charge_s=draw.sign), True),
        (closedform.DislocationCoreAiry(elastic=ELASTIC, burgers_b=b_one,
                                        eps=0.1, radius_R=1.0), True),
        (closedform.Poly2D(coeffs=((0, 0, 0.7), (1, 0, -0.2), (0, 1, 0.5))), True),
        (closedform.Poly2D(coeffs=((2, 0, 1.0), (0, 2, 1.0))), False),
        (closedform.Poly2D(coeffs=((3, 0, 1.0),)), False),
    ]
    limits = (4.0 * math.pi, math.pi / 8.0, math.pi / 2.0)

    def cli_op(argv, artifacts, check=None):
        """Run ``cli.main`` in process; ``argv`` and ``artifacts`` name
        files relative to the run directory."""
        def run(ctx) -> Outcome:
            d: Path = ctx["dir"]
            args = [str(d / a) if a.endswith((".json", ".csv")) else a for a in argv]
            code = cli.main(args)
            out = Outcome()
            if code != 0:
                out.failures.append(f"exit code {code}")
                return out
            for name in artifacts:
                data = (d / name).read_bytes()
                out.artifacts[name] = hashlib.sha256(data).hexdigest()
                out.bytes_written += len(data)
            if check is not None:
                check(json.loads((d / artifacts[0]).read_text()), out)
            return out
        return run

    def check_field(doc, out):
        if doc["nodes"] != (n + 9) ** 2:
            out.failures.append(f"field dump has {doc['nodes']} nodes")

    def check_energy(doc, out):
        out.abs_err = abs(doc["bulk_G"] - energy_ref)
        out.rel_err = out.abs_err / energy_ref
        _check_envelope(out.rel_err, n, ENERGY_ENVELOPE, out)

    def check_bc(doc, out):
        nums = [doc["tangential_hessian_residual"]]
        nums += [v for v in doc["affine_trace"].values() if isinstance(v, float)]
        if not all(math.isfinite(v) for v in nums):
            out.failures.append("non-finite boundary residual")

    def check_appendix_b(doc, out):
        for got, ref in zip(doc["annulus_normalized"], limits):
            if not abs(got - ref) / ref < 0.05:
                out.failures.append(f"appendix-b normalized {got!r} off {ref!r}")

    def check_sweep(doc, out):
        rows = doc["rows"]
        normalized = [r["normalized"] for r in rows]
        if normalized != sorted(normalized, reverse=True) or not rows[-1]["rel_err"] < 0.10:
            out.failures.append("dipole sweep not converging to its limit")

    def polar_op(ctx) -> Outcome:
        out = Outcome()
        for eps, w in annulus:
            got = energy.polar_energy(w, ELASTIC, DISK.center, DISK.radius_R,
                                      r_inner=eps).energy
            ref = _annulus_energy(eps)
            if not abs(got - ref) / ref < 1e-3:
                out.failures.append(f"annulus energy {got!r} off {ref!r} at eps={eps}")
        return out

    def affine_op(ctx) -> Outcome:
        out = Outcome()
        curve = boundary.BoundaryCurve.circle()
        for i, (f, free) in enumerate(corpus):
            rep = boundary.affine_trace_check(f, curve)
            if (max(rep.trace_residual, rep.normal_residual) < 1e-6) != free:
                out.failures.append(f"corpus field {i} misclassified")
        return out

    sign = f"{draw.sign:g}"
    ops = [
        ("cli field", cli_op(["field", "--config", "two.json", "--grid-n", str(n),
                              "--csv", "field.csv", "--out", "field.json"],
                             ["field.json", "field.csv"], check_field)),
        ("cli energy", cli_op(["energy", "--config", "one.json", "--grid-n", str(n),
                               "--out", "energy.json"], ["energy.json"], check_energy)),
        ("cli check-bc", cli_op(["check-bc", "--config", "two.json", "--out", "check_bc.json"],
                                ["check_bc.json"], check_bc)),
        ("cli appendix-b", cli_op(["appendix-b", "--h", "1e-3", "--out", "appendix_b.json"],
                                  ["appendix_b.json"], check_appendix_b)),
        ("cli sweep-dipole", cli_op(["sweep-dipole", "--E", "1", "--nu", "0.3", "--s", sign,
                                     "--out", "sweep_dipole.json"],
                                    ["sweep_dipole.json"], check_sweep)),
        ("polar_energy annulus", polar_op),
        ("affine_trace_check corpus", affine_op),
    ]

    def prepare(d: Path) -> None:
        for name, doc in (("two.json", two), ("one.json", one)):
            (d / name).write_text(json.dumps(doc, indent=1), encoding="ascii")

    return ops, _worst_error, prepare


def build(workload: str, seed: int, smoke: bool = False):
    """Inputs of one workload as (operations, pass_error, prepare):
    ``operations`` is a list of (label, callable(ctx) -> Outcome),
    ``pass_error`` maps one pass's outcomes to its max_rel_err, and
    ``prepare`` writes input files into the run directory."""
    if workload == "core_sweep":
        return (*_core_sweep(seed, smoke), None)
    if workload == "trace_ladder":
        return (*_trace_ladder(seed, smoke), None)
    if workload == "closed_form_cli":
        return _closed_form_cli(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def run_op(fn, ctx) -> Outcome:
    """Run one operation; a validation or numerical error fails it
    without stopping the run."""
    try:
        return fn(ctx)
    except (NumericalError, ValidationError) as exc:
        return Outcome(failures=[f"{type(exc).__name__}: {exc}"])
