"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test prints ``[PRIMARY-k] PASS/FAIL ...`` directly to the terminal
(bypassing capture) before asserting, so the run log always shows the
per-criterion outcome. Expensive 512-cell solves are shared via session
fixtures.
"""

import math
import time

import numpy as np
import pytest

from grid_reference import build_mask, points

from airy_defects.core import (
    Disclination,
    DisclinationDipole,
    Dislocation,
    DiskDomain,
    ElasticConstants,
)
from airy_defects.closedform import (
    DislocationCoreAiry,
    Poly2D,
    SingleDisclinationClamped,
    airy_to_stress,
    strain_to_stress,
    stress_to_strain,
)
from airy_defects.energy import (
    energy_density,
    polar_energy,
    single_dislocation_min_value,
    stress_energy_density,
)
from airy_defects.asymptotics import (
    angular_quartic_integral,
    appendix_b_integrals,
    diagonal_dipole_limit,
    dipole_scaling_sweep,
    expansion_check,
    renormalized_energy,
)
from airy_defects.boundary import (
    BoundaryCurve,
    affine_trace_check,
    tangential_hessian_residual,
)
from airy_defects.fields import grid_for_disk
from airy_defects.solver import solve_clamped_disclination, solve_core_constrained

ELASTIC = ElasticConstants(1.0, 0.3)
DISK = DiskDomain((0.0, 0.0), 1.0)
K = ELASTIC.plane_prefactor


@pytest.fixture
def report(capsys):
    def _report(k: int, ok: bool, detail: str) -> None:
        line = f"[PRIMARY-{k}] {'PASS' if ok else 'FAIL'} {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="session")
def disclination_512():
    t0 = time.perf_counter()
    rep = solve_clamped_disclination(
        ELASTIC, DISK, [Disclination((0.0, 0.0), 1.0)], n=512
    )
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def dislocation_512():
    return solve_core_constrained(
        ELASTIC, DISK, [Dislocation((0.0, 0.0), (0.0, 1.0))], 0.1, n=512
    )


def test_criterion_1_single_disclination_minimum(report, disclination_512):
    rep, seconds = disclination_512
    exact = -K / (32.0 * math.pi)
    rel = abs(rep.value - exact) / abs(exact)
    closed = SingleDisclinationClamped(elastic=ELASTIC, radius_R=1.0, charge_s=1.0)
    closed_err = abs(closed.min_energy() - K / (32.0 * math.pi))
    ok = rel < 1e-3 and seconds < 60.0 and closed_err < 1e-12
    report(
        1, ok,
        f"solver {rep.value:.12g} vs {exact:.12g} (rel {rel:.2e}, "
        f"{seconds:.1f}s); closed-form err {closed_err:.1e}",
    )


def test_criterion_2_core_regularized_minimum(report, dislocation_512):
    rep = dislocation_512
    target = -0.0578286  # published digits; the formula value is -0.05781990...
    rel = abs(rep.value - target) / abs(target)
    w = DislocationCoreAiry(elastic=ELASTIC, burgers_b=(0.0, 1.0), eps=0.1,
                            radius_R=1.0)
    # the minimizer at the nodes of the n = 512 grid inside the disk
    grid = grid_for_disk(DISK, rep.grid_n)
    pts = points(grid)[build_mask(grid, DISK).ravel() != 0]
    num = rep.solution.value(pts)
    ref = w.value(pts)
    l2 = math.sqrt(float(np.sum((num - ref) ** 2) / np.sum(ref**2)))
    ok = rel < 1e-3 and l2 < 2e-3
    report(2, ok, f"value rel err {rel:.2e}; minimizer L2 gap {l2:.2e}")


def test_criterion_3_annulus_energy(report):
    worst = 0.0
    for eps in (0.05, 0.1, 0.2):
        w = DislocationCoreAiry(
            elastic=ELASTIC, burgers_b=(0.0, 1.0), eps=eps, radius_R=1.0
        )
        quadrature = polar_energy(w, ELASTIC, (0.0, 0.0), 1.0, r_inner=eps).energy
        formula = (K / (8.0 * math.pi)) * (
            math.log(1.0 / eps) - (1.0 - eps**2) / (1.0 + eps**2)
        )
        worst = max(worst, abs(quadrature - formula) / abs(formula))
    report(3, worst < 1e-3, f"worst rel err over eps grid: {worst:.2e}")


def test_criterion_4_dipole_scaling_law(report):
    rows = dipole_scaling_sweep(ELASTIC, 1.0, 1.0, [1e-2, 3e-3, 1e-3])
    normalized = [r["normalized"] for r in rows]
    monotone = normalized == sorted(normalized, reverse=True)
    rel = rows[-1]["rel_err"]
    report(
        4, rel < 0.10 and monotone,
        f"normalized at h=1e-3 off limit by {rel:.1%}; monotone={monotone}",
    )


def test_criterion_5_pair_field_integral_limits(report):
    res = appendix_b_integrals(1e-3, 1.0)
    limits = (4.0 * math.pi, math.pi / 8.0, math.pi / 2.0)
    rels = [
        abs(got - ref) / ref
        for got, ref in zip(res["annulus_normalized"], limits)
    ]
    ang_err = abs(angular_quartic_integral() - math.pi / 8.0)
    ok = max(rels) < 0.05 and ang_err < 1e-12
    report(
        5, ok,
        "normalized rel errs "
        + "/".join(f"{r:.1%}" for r in rels)
        + f"; angular integral err {ang_err:.1e}",
    )


def test_criterion_6_asymptotic_expansion(report):
    # Property-based consistency of the eps-sweep fit against the
    # renormalized-energy path, for one and for two dislocations.
    cases = {
        "one": [Dislocation((0.0, 0.0), (0.0, 1.0))],
        "two": [
            Dislocation((0.3, 0.0), (0.0, 1.0)),
            Dislocation((-0.3, 0.0), (0.0, 1.0)),
        ],
    }
    details = []
    ok = True
    for name, defects in cases.items():
        fit = expansion_check(defects, ELASTIC, DISK, [0.2, 0.1, 0.05])
        slope_rel = abs(abs(fit.slope) - abs(fit.analytic_slope)) / abs(
            fit.analytic_slope
        )
        const_rel = abs(abs(fit.constant) - abs(fit.predicted_constant)) / abs(
            fit.predicted_constant
        )
        ok = ok and slope_rel < 0.03 and const_rel < 0.05
        details.append(
            f"{name}: slope off {slope_rel:.1%} (tol 3%), "
            f"constant off {const_rel:.1%} (tol 5%)"
        )
    report(6, ok, "; ".join(details))


def test_criterion_7_diagonal_limit(report):
    dipoles = [DisclinationDipole((0.0, 0.0), (0.0, 1.0), 1e-2)]
    fit = diagonal_dipole_limit(
        dipoles, ELASTIC, DISK, [1e-2, 2.5e-3, 6.25e-4]
    )
    rel = abs(abs(fit.slope) - abs(fit.analytic_slope)) / abs(fit.analytic_slope)
    report(7, rel < 0.05 and not fit.skipped,
           f"slope off analytic by {rel:.1%} over three spacings")


def test_criterion_8_boundary_condition_equivalence(report):
    corpus = {
        "clamped disclination": SingleDisclinationClamped(
            elastic=ELASTIC, radius_R=1.0, charge_s=1.0
        ),
        "cored dislocation": DislocationCoreAiry(
            elastic=ELASTIC, burgers_b=(0.0, 1.0), eps=0.1, radius_R=1.0
        ),
        "affine": Poly2D(coeffs=((0, 0, 0.7), (1, 0, -0.2), (0, 1, 0.5))),
        "|x|^2": Poly2D(coeffs=((2, 0, 1.0), (0, 2, 1.0))),
        "x1^3": Poly2D(coeffs=((3, 0, 1.0),)),
    }
    curve = BoundaryCurve.circle()
    agree = True
    labels = []
    for name, field in corpus.items():
        tangential = tangential_hessian_residual(field, curve) < 1e-6
        rep = affine_trace_check(field, curve)
        affine = max(rep.trace_residual, rep.normal_residual) < 1e-6
        agree = agree and (tangential == affine)
        labels.append(f"{name}={'free' if tangential else 'loaded'}")
    report(8, agree, "classifications agree: " + ", ".join(labels))


def test_criterion_9_algebraic_identities(report):
    rng = np.random.default_rng(7)
    n = 1000
    H = rng.standard_normal((n, 2, 2))
    H = 0.5 * (H + np.swapaxes(H, -1, -2))
    G = rng.standard_normal((n, 2, 2))
    G = 0.5 * (G + np.swapaxes(G, -1, -2))
    scale = np.abs(H).max()

    d_energy = np.abs(
        energy_density(H, ELASTIC) - stress_energy_density(airy_to_stress(H), ELASTIC)
    ).max()
    round_trip = np.abs(
        strain_to_stress(stress_to_strain(H, ELASTIC), ELASTIC) - H
    ).max()
    parallelogram = np.abs(
        energy_density(H + G, ELASTIC) + energy_density(H - G, ELASTIC)
        - 2.0 * (energy_density(H, ELASTIC) + energy_density(G, ELASTIC))
    ).max()
    superpose = np.abs(
        airy_to_stress(2.0 * H - 3.0 * G)
        - (2.0 * airy_to_stress(H) - 3.0 * airy_to_stress(G))
    ).max()
    worst = max(d_energy, round_trip, parallelogram, superpose) / max(1.0, scale**2)
    report(9, worst <= 1e-12,
           f"worst identity residual over {n} instances: {worst:.1e}")


def test_criterion_10_mesh_convergence(report, disclination_512, dislocation_512):
    floor = 1e-10
    exact1 = -K / (32.0 * math.pi)
    exact2 = single_dislocation_min_value(ELASTIC, 1.0, 1.0, 0.1)
    e1_half = abs(
        solve_clamped_disclination(
            ELASTIC, DISK, [Disclination((0.0, 0.0), 1.0)], n=256
        ).value
        - exact1
    )
    e2_half = abs(
        solve_core_constrained(
            ELASTIC, DISK, [Dislocation((0.0, 0.0), (0.0, 1.0))], 0.1, n=256
        ).value
        - exact2
    )
    e1 = abs(disclination_512[0].value - exact1)
    e2 = dislocation_512.value - exact2
    e2 = abs(e2)
    details = []
    ok = True
    for name, coarse, fine in (("disclination", e1_half, e1),
                               ("dislocation", e2_half, e2)):
        if coarse < floor and fine < floor:
            details.append(f"{name}: both errors under {floor:g} floor "
                           f"({coarse:.1e}, {fine:.1e})")
            continue
        slope = math.log2(coarse / fine) if fine > 0 else math.inf
        ok = ok and slope >= 1.8
        details.append(f"{name}: halving slope {slope:.2f}")
    report(10, ok, "; ".join(details))
