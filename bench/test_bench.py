"""Tests of the benchmark itself, on the reduced ``--smoke`` grids.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_reproduces_the_fourier_prototype_values():
    gram = reference.clamped_disclination_gram(1.0, 0.3, (0.0, 0.0), 1.0, [(0.3, -0.2)], [1.0])
    hess = reference.elastic_correction_hessian_energy(
        1.0, 0.3, (0.0, 0.0), 1.0, [(0.3, 0.0), (-0.3, 0.0)], [(0.0, 1.0), (0.0, 1.0)])
    assert gram == pytest.approx(0.019177221698563, rel=1e-13)
    assert hess == pytest.approx(0.00362865917952825, rel=1e-13)


def test_reference_centered_disclination_is_the_quadratic_correction():
    # traces 0 and K/(8 pi) give z = K/(16 pi) (r^2 - 1), Delta z = K/(4 pi)
    E, nu = 2.0, 0.25
    K = E / (1.0 - nu * nu)
    gram = reference.clamped_disclination_gram(E, nu, (0.0, 0.0), 1.0, [(0.0, 0.0)], [1.0])
    exact = 0.5 * (1.0 - nu * nu) / E * math.pi * (K / (4.0 * math.pi)) ** 2
    assert gram == pytest.approx(exact, rel=1e-12)


def test_reference_is_invariant_under_rotation_and_sign():
    c, s = math.cos(0.9), math.sin(0.9)

    def rot(p):
        return (c * p[0] - s * p[1], s * p[0] + c * p[1])

    base = reference.elastic_correction_hessian_energy(
        1.0, 0.3, (0.0, 0.0), 1.0, [(0.3, 0.0), (-0.3, 0.0)], [(0.0, 1.0), (0.0, 1.0)])
    turned = reference.elastic_correction_hessian_energy(
        1.0, 0.3, (0.0, 0.0), 1.0, [rot((0.3, 0.0)), rot((-0.3, 0.0))],
        [rot((0.0, -1.0)), rot((0.0, -1.0))])
    assert turned == pytest.approx(base, rel=1e-12)


def test_seed_zero_is_the_gate_configuration_and_seeds_repeat():
    import workloads

    assert workloads.Draw.from_seed(0) == workloads.Draw(0.0, 0.0, 1.0, 1.0)
    assert workloads.Draw.from_seed(7) == workloads.Draw.from_seed(7)
    assert workloads.Draw.from_seed(7) != workloads.Draw.from_seed(8)


def test_tracer_restores_every_wrapped_callable():
    import inspect

    import tracing
    from airy_defects import cli, closedform, solver

    def snapshot():
        mods = [sys.modules[n] for n in sorted(sys.modules) if n.startswith("airy_defects")]
        state = {}
        for m in mods:
            for k, v in vars(m).items():
                state[(m.__name__, k)] = v
                if inspect.isclass(v):
                    for a, f in vars(v).items():
                        state[(m.__name__, k, a)] = f
        return state

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.splu is not before[("airy_defects.solver", "splu")]
        assert cli.solve_core_constrained is not before[("airy_defects.cli", "solve_core_constrained")]
        assert closedform.SumField.value is not before[
            ("airy_defects.closedform", "SumField", "value")]
    finally:
        tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_outermost_closed_form_calls_only():
    import numpy as np

    import tracing
    from airy_defects import closedform, core

    el = core.ElasticConstants(1.0, 0.3)
    fund = closedform.FundamentalAiry(el)
    field = closedform.SumField((closedform.ShiftedField((0.1, 0.0), fund),
                                 closedform.ShiftedField((-0.1, 0.0), fund)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, "sum"):
            field.value(np.zeros((5, 2)))
            field.gradient((0.5, 0.5))
    finally:
        tracer.restore()
    m = tracer.layer_metrics()
    assert m["closedform.calls"] == 2
    assert tracer.counts["closedform.points"] == 6
    assert m["closedform.s"] == pytest.approx(m["closedform.self_s"])
    assert [s[0] for s in tracer.spans] == ["op:sum", "closedform", "closedform"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = _result(_run(workload, 5, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["trace_ladder", "closed_form_cli"])
def test_smoke_traced_run_reports_every_layer(workload):
    res = _result(_run(workload, 0, 1))
    assert res["correct"] and res["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if workload == "closed_form_cli":
        assert m["splu.calls"] == 0 and m["cli.calls"] == 5 and m["cli.bytes_written"] > 0
    else:
        assert m["splu.calls"] == 5 and m["closedform.calls"] > 0 and m["fields.cells"] > 0
    spans = json.loads((ROOT / ".bench_out" / f"spans-{workload}-seed0.json").read_text())
    assert set(spans[0]) == {"name", "start", "end", "parent", "op"}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("closed_form_cli", 0, 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
