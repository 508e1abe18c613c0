"""Benchmark of airy_defects: one workload, one seed, one fresh process.

    python3 bench/run.py --workload core_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. The BLAS
pools are pinned to one thread through ``AIRY_DEFECTS_THREADS`` before
numpy loads. Every pass runs every operation of the workload and checks
its output; an untimed warm-up pass comes first.

``--trace 0`` reports the end-to-end metrics: the median set-up time
over several fresh interpreters and the median pass time, both rescaled
by a calibration kernel timed between them (see ``_calibration``), peak
resident memory and the worst relative error against an independent
reference. ``--trace 1``
times untraced passes, then installs the boundary wrappers of
``tracing.py`` for two traced passes, reports the per-layer metrics and
writes the spans to ``.bench_out/``. ``--smoke`` shrinks the grids for
the benchmark's own tests. The last line of standard output is one JSON
object; the lines before it spell out the same numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
THREADS = "1"
SETUP_PROBES = 3
# time of the calibration kernel at the reference speed: setup_s and
# run_s are wall times rescaled to the speed at which it takes this long
CALIBRATION_S = 0.45
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def _pin_threads() -> None:
    """Route the thread cap through the package's own variable: clear the
    BLAS variables so its defaults land, whatever the caller had set."""
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    os.environ["AIRY_DEFECTS_THREADS"] = THREADS


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "airy_defects" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import airy_defects

    if not Path(airy_defects.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: imported airy_defects from {airy_defects.__file__}, not {src}")


def _setup_times(args, calibrate):
    """Wall times of fresh interpreters that import the package and build
    the workload's inputs, then exit, and the calibration times around
    them. The wait blocks in waitpid: with a timeout, subprocess would
    poll in steps of up to 50 ms."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times, cals = [], [calibrate()]
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return times, cals


def _rescale(times, cals) -> list[float]:
    """Each time at the reference speed, from the calibrations before and
    after it."""
    return [CALIBRATION_S * t / (0.5 * (a + b)) for t, a, b in zip(times, cals, cals[1:])]


class Runner:
    """Runs passes over one workload and keeps what the checks found."""

    def __init__(self, workload: str, seed: int, smoke: bool, run_dir: Path):
        import workloads

        self.w = workloads
        self.ops, self.pass_error, prepare = workloads.build(workload, seed, smoke)
        self.ctx = {"dir": run_dir}
        if prepare is not None:
            prepare(run_dir)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # one line per failed operation or check
        self.first_artifacts: dict[int, dict] = {}
        self.errors: list[float] = []
        self.op_errors: dict[str, tuple] = {}  # label -> (relative, absolute)

    def run_pass(self, tracer=None) -> float:
        outcomes = []
        t0 = time.perf_counter()
        for i, (label, fn) in enumerate(self.ops):
            if tracer is None:
                out = self.w.run_op(fn, self.ctx)
            else:
                with tracer.operation(i, label):
                    out = self.w.run_op(fn, self.ctx)
                tracer.counts["cli.bytes_written"] += out.bytes_written
            outcomes.append((label, out))
        wall = time.perf_counter() - t0
        for i, (label, out) in enumerate(outcomes):
            self.attempted += 1
            failures = list(out.failures)
            if self.first_artifacts.setdefault(i, out.artifacts) != out.artifacts:
                failures.append("artifacts differ from the first pass")
            if out.rel_err is not None:
                self.op_errors[label] = (out.rel_err, out.abs_err)
            if failures:
                self.failed += 1
                self.failures.append(f"{label}: {'; '.join(failures)}")
        try:
            self.errors.append(self.pass_error([o for _, o in outcomes]))
        except (TypeError, ValueError):
            # an operation that failed left no value to compare; its
            # failure already counts, and the error reads as 100%
            self.errors.append(1.0)
        return wall


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _calibration():
    """A fixed sparse LU that does not involve the program: the 2-D
    bilaplacian on a 150 x 150 grid, factored and solved by scipy.

    On a shared machine every pass slows and speeds up together with
    this kernel as other tenants come and go, by 20-30% over minutes.
    Dividing a pass by the calibration timed next to it removes most of
    that drift and leaves any change in the program's own work.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(150, 150))
    lap = sp.kron(sp.eye(150), T) + sp.kron(T, sp.eye(150))
    A = (lap @ lap).tocsc()
    b = np.ones(A.shape[0])

    def run() -> float:
        t0 = time.perf_counter()
        splu(A).solve(b)
        return time.perf_counter() - t0

    return run


def _timed_passes(runner: Runner, seconds: float, calibrate=None):
    """Passes until the next one, at the median length so far, would end
    after ``seconds``; at least one. With ``calibrate``, the kernel also
    runs before the first pass and after every pass; returns the pass
    times and the calibration times."""
    walls, cals = [], []
    t0 = time.perf_counter()
    if calibrate:
        cals.append(calibrate())
    while not walls or time.perf_counter() - t0 + statistics.median(walls) <= seconds:
        walls.append(runner.run_pass())
        if calibrate:
            cals.append(calibrate())
    return walls, cals


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "AIRY_DEFECTS_THREADS": os.environ.get("AIRY_DEFECTS_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _end_to_end(args, runner: Runner) -> dict:
    runner.run_pass()  # warm-up: the first full-size pass also grows the heap
    # read before the calibration kernel first allocates
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibrate = _calibration()
    calibrate()
    setup, setup_cals = _setup_times(args, calibrate)
    walls, cals = _timed_passes(runner, args.seconds, calibrate)
    run = _rescale(walls, cals)
    q1, q3 = _quartiles(run)
    print(f"run_s: median {statistics.median(run):.4f} s at the reference speed, quartiles "
          f"{q1:.4f} / {q3:.4f} s, {len(run)} timed passes")
    for name, raw, cal in (("pass", walls, cals), ("setup", setup, setup_cals)):
        print(f"{name} wall times: " + ", ".join(f"{t:.4f}" for t in raw)
              + " s; calibrations: " + ", ".join(f"{c:.4f}" for c in cal)
              + f" s (reference {CALIBRATION_S} s)")
    for label, (rel, err) in runner.op_errors.items():
        print(f"reference error: {label}: relative {rel:.4e}, absolute {err:.4e}")
    return {
        "setup_s": statistics.median(_rescale(setup, setup_cals)),
        "run_s": statistics.median(run),
        "peak_rss_mb": peak_mb,
        "max_rel_err": max(runner.errors),
    }


def _per_layer(args, runner: Runner) -> dict:
    import tracing

    runner.run_pass()  # warm-up
    plain, _ = _timed_passes(runner, args.seconds / 2.0)
    tracer = tracing.Tracer()
    passes = []
    try:
        tracer.install()
        for _ in range(2):
            tracer.counts = defaultdict(float)
            lo = len(tracer.spans)
            wall = runner.run_pass(tracer)
            m = tracer.layer_metrics((lo, len(tracer.spans)))
            m.update(tracer.counts)
            passes.append((wall, m))
    finally:
        tracer.restore()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    for key in tracing.EXACT_COUNTS:
        a, b = (m.get(key, 0.0) for _, m in passes)
        if a != b:
            runner.failures.append(f"traced count {key} differs between passes: {a} vs {b}")

    def total(name):
        return statistics.median(m.get(name, 0.0) for _, m in passes)

    def ratio(num, den):
        return total(num) / total(den) if total(den) else 0.0

    metrics = {name: total(name) for name in _units("per_layer")}
    metrics["closedform.points_per_call"] = ratio("closedform.points", "closedform.calls")
    metrics["splu.fill_ratio"] = ratio("splu.fill_nnz", "splu.matrix_nnz")
    for n in (128, 256):
        metrics[f"solver.assemble_share.n{n}"] = ratio(f"solver.assemble_s.n{n}", f"solver.wall_s.n{n}")
    traced = statistics.median(w for w, _ in passes)
    metrics["trace.overhead"] = traced / statistics.median(plain) - 1.0
    print(f"traced passes {traced:.4f} s against untraced {statistics.median(plain):.4f} s "
          f"({len(plain)} passes); {len(tracer.spans)} spans written to {OUT.name}/")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in _spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grids, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_threads()
    _import_package()
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed, args.smoke)
        return 0

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        runner = Runner(args.workload, args.seed, args.smoke, run_dir)
        kind = "per_layer" if args.trace else "end_to_end"
        values = (_per_layer if args.trace else _end_to_end)(args, runner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    machine = _machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    failed = runner.failed
    for line in runner.failures:
        print(f"FAILED {line}")
    print(f"fail_ratio: {failed / runner.attempted:.6g} ({failed} of {runner.attempted} operations)")
    units = _units(kind)
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
