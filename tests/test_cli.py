import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from airy_defects import cli, solver
from airy_defects.cli import main

DISC = {
    "E": 1.0, "nu": 0.3,
    "domain": {"center": [0.0, 0.0], "R": 1.0},
    "disclinations": [{"site": [0.0, 0.0], "s": 1.0}],
}
DISL = {
    "E": 1.0, "nu": 0.3,
    "domain": {"center": [0.0, 0.0], "R": 1.0},
    "dislocations": [{"site": [0.0, 0.0], "b": [0.0, 1.0]}],
    "core_radius": 0.1,
}
DIP = {
    "E": 1.0, "nu": 0.3,
    "domain": {"center": [0.0, 0.0], "R": 1.0},
    "dipoles": [{"center": [0.0, 0.0], "b": [0.0, 1.0], "h": 0.004}],
    "core_radius": 0.1,
}


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, doc in (("disc", DISC), ("disl", DISL), ("dip", DIP)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["constants", "--E", "1", "--nu", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["plane_prefactor"] == pytest.approx(1.0 / 0.91)

    def test_usage_errors(self, capsys):
        assert main([]) == 1
        assert main(["no-such-command"]) == 1
        assert main(["constants", "--bogus-flag"]) == 1

    def test_help_is_success(self):
        assert main(["--help"]) == 0

    def test_validation_errors(self, capsys, tmp_path):
        assert main(["constants"]) == 2  # neither config nor moduli
        assert main(["energy", "--config", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["energy", "--config", str(bad)]) == 2

    def test_numerical_error(self, configs, capsys):
        # core radii eps(h) = min(sqrt(h), 0.95 D) not above h leave < 2
        # samples
        code = main([
            "diagonal", "--config", configs["dip"], "--grid-n", "64",
            "--h", "1.2,0.97,1e-2",
        ])
        assert code == 3


class TestArtifacts:
    def test_solve_writes_report_and_field(self, configs, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "field.csv"
        code = main([
            "solve", "--config", configs["disc"], "--grid-n", "64",
            "--out", str(out), "--field-csv", str(csv),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["grid_n"] == 64
        assert "assemble_seconds" not in doc  # volatile keys stripped
        assert csv.read_text().splitlines()[0] == "x,y,v,v_xx,v_xy,v_yy,mask"

    def test_reproducible_bytes(self, configs, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main([
                "solve", "--config", configs["disc"], "--grid-n", "64",
                "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validation_first_no_partial_files(self, configs, tmp_path):
        out = tmp_path / "never.json"
        # core radius unresolved at this grid: must fail before writing
        code = main([
            "energy", "--config", configs["disl"], "--grid-n", "32",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_field_validates_csv_path_first(self, configs, tmp_path,
                                            monkeypatch):
        def no_field(*args):
            raise AssertionError("the field was computed")

        monkeypatch.setattr(cli, "_field_columns", no_field)
        out = tmp_path / "never.json"
        code = main(["field", "--config", configs["disl"], "--csv", "",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_grid_n_memory_cap(self, configs, tmp_path):
        # exits 2 from the size estimate, allocating nothing
        out = tmp_path / "never.json"
        csv = tmp_path / "never.csv"
        tracemalloc.start()
        try:
            code = main(["field", "--config", configs["disl"],
                         "--grid-n", "100000000", "--csv", str(csv),
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        assert not out.exists() and not csv.exists()
        for command in ("energy", "solve"):
            assert main([command, "--config", configs["disl"],
                         "--grid-n", "100000000", "--out", str(out)]) == 2
        assert not out.exists()

    def test_field_csv_schema(self, configs, tmp_path):
        csv = tmp_path / "field.csv"
        code = main([
            "field", "--config", configs["disl"], "--grid-n", "128",
            "--csv", str(csv), "--out", str(tmp_path / "meta.json"),
        ])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,v,s11,s12,s22,e11,e12,e22"
        assert len(lines) > 100

    def test_numerical_error_leaves_no_files(self, tmp_path):
        # the report is checked before the CSV is written
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(
            {**DISC, "disclinations": [{"site": [0.0, 0.0], "s": 1e308}]}))
        out, csv = tmp_path / "r.json", tmp_path / "f.csv"
        for argv in (
            ["solve", "--config", str(cfg), "--grid-n", "32",
             "--field-csv", str(csv)],
            # the pair-field energies are finite, the solver column's
            # plate energies overflow
            ["sweep-dipole", "--E", "1e308", "--nu", "0.3", "--h", "1e-2",
             "--include-solver", "--csv", str(csv)],
        ):
            with np.errstate(all="ignore"):
                code = main([*argv, "--out", str(out)])
            assert code == 3
            assert not out.exists() and not csv.exists()

    def test_sweep_dipole_at_huge_modulus(self, tmp_path):
        # G is linear in E: the normalized energies match the E = 1 run
        ratios = []
        for E in ("1e308", "1"):
            out = tmp_path / f"sweep-{E}.json"
            code = main(["sweep-dipole", "--E", E, "--nu", "0.3", "--s", "1",
                         "--out", str(out)])
            assert code == 0
            rows = json.loads(out.read_text())["rows"]
            ratios.append([r["normalized"] / r["analytic_limit"] for r in rows])
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)

    def test_sweep_csv_schema(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        code = main([
            "sweep-dipole", "--E", "1", "--nu", "0.3",
            "--h", "1e-2,3e-3", "--csv", str(csv),
            "--out", str(tmp_path / "sweep.json"),
        ])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "param,value,normalized,analytic_limit,rel_err"
        assert len(lines) == 3


class TestOutputPaths:
    def test_missing_directory_exits_validation(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main(["constants", "--E", "1", "--nu", "0.3", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: cannot write")
        assert len(err.splitlines()) == 1
        assert not out.parent.exists()

    def test_field_checks_both_paths_first(self, configs, tmp_path,
                                           monkeypatch, capsys):
        def no_field(*args):
            raise AssertionError("the field was computed")

        monkeypatch.setattr(cli, "_field_columns", no_field)
        out = tmp_path / "f.json"
        csv = tmp_path / "missing" / "f.csv"
        code = main(["field", "--config", configs["disc"], "--grid-n", "64",
                     "--out", str(out), "--csv", str(csv)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.glob("f.*")) == []
        # a directory is no file either, in either position
        code = main(["field", "--config", configs["disc"], "--grid-n", "64",
                     "--out", str(tmp_path), "--csv", str(tmp_path / "f.csv")])
        assert code == 2
        assert list(tmp_path.glob("f.*")) == []

    def test_write_failure_exits_validation(self, configs, tmp_path,
                                            monkeypatch, capsys):
        def disk_full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", disk_full)
        code = main(["field", "--config", configs["disc"], "--grid-n", "64",
                     "--csv", str(tmp_path / "f.csv")])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err


def test_import_leaves_quadrature_and_spline_modules_unloaded():
    # a fresh interpreter: the test session has loaded scipy already.
    # Importing the package loads numpy only; scipy.interpolate comes
    # on demand with ScalarField.interpolator.
    probe = ("import sys; import airy_defects.cli, airy_defects.solver, "
             "airy_defects.asymptotics, airy_defects.energy, "
             "airy_defects.boundary, airy_defects.fields, "
             "airy_defects.closedform; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('scipy')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={"PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


_junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-10**30, 10**30), st.floats(),
)


def _mostly(valid):
    """Well-formed values 15 times in 16, so that runs also get past the
    parser into the numerics."""
    return st.sampled_from(range(16)).flatmap(
        lambda k: _junk if k == 0 else valid)


_coord = _mostly(st.floats(-1.0, 1.0))
_point = _mostly(st.lists(_coord, min_size=2, max_size=2))
_defects = {
    "disclinations": {"site": _point, "s": _coord},
    "dislocations": {"site": _point, "b": _point},
    "dipoles": {"center": _point, "b": _point, "h": _coord},
}
_config = st.fixed_dictionaries(
    {"E": _mostly(st.floats(0.1, 10.0)), "nu": _mostly(st.floats(-0.9, 0.49))},
    optional={
        "domain": _mostly(st.fixed_dictionaries({}, optional={
            "center": _point, "R": _mostly(st.floats(0.1, 3.0)),
        })),
        **{key: _mostly(st.lists(st.fixed_dictionaries(fields),
                                 min_size=1, max_size=2))
           for key, fields in _defects.items()},
        "core_radius": _mostly(st.floats(0.01, 0.6)),
    },
)


class TestFuzzedConfigs:
    @settings(max_examples=60, deadline=None)
    @given(doc=_mostly(_config),
           command=st.sampled_from([
               ["constants"], ["energy", "--grid-n", "16"], ["check-bc"],
           ]))
    def test_exit_code_contract(self, doc, command):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(doc))
            out = Path(tmp) / "out.json"
            with np.errstate(all="ignore"):
                code = main([*command, "--config", str(cfg), "--out", str(out)])
            event(f"{command[0]} exit {code}")
            assert code in (0, 1, 2, 3)
            if code == 2:
                assert not out.exists()


class TestReports:
    def test_energy_breakdown_keys(self, configs, capsys):
        assert main(["energy", "--config", configs["disc"], "--grid-n", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"bulk_G", "charge", "total", "region", "grid"}
        assert doc["total"] == pytest.approx(doc["bulk_G"] + doc["charge"])

    def test_check_bc_report(self, configs, capsys):
        assert main(["check-bc", "--config", configs["disc"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tangential_hessian_residual"] < 1e-10
        assert doc["affine_trace"]["normal_residual"] < 1e-10

    def test_renormalize_report(self, configs, capsys):
        assert main([
            "renormalize", "--config", configs["disl"], "--grid-n", "128",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expansion_constant"] == pytest.approx(
            doc["renormalized"] + doc["f_DR"]
        )

    def test_appendix_b_report(self, capsys):
        assert main(["appendix-b", "--h", "1e-2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["annulus_normalized"]) == 3

    def test_flag_overrides_config_scalar(self, configs, capsys):
        assert main([
            "sweep-core", "--config", configs["disl"], "--grid-n", "128",
            "--core-radius", "0.2", "--eps", "0.2,0.1", "--fit-tail", "2",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["param"] == "eps"


class TestConfigContract:
    @pytest.mark.parametrize("patch", [
        {"E": "abc"},
        {"disclinations": [{"site": [0], "s": 1.0}]},
        {"core_radius": "x"},
    ])
    def test_bad_values_are_validation_errors(self, patch, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**DISC, **patch}))
        out = tmp_path / "never.json"
        code = main(["energy", "--config", str(cfg), "--grid-n", "64",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "malformed configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("patch, expected", [
        ({"domain": {"center": [0.0, 0.0], "R": 1e308}}, 2),
        ({"domain": {"center": [0.0, 0.0], "R": float("inf")}}, 2),
        ({"disclinations": [{"site": [0.0, 0.0], "s": float("inf")}]}, 2),
        # a finite charge whose energy overflows: no document holds inf
        ({"disclinations": [{"site": [0.0, 0.0], "s": 1e308}]}, 3),
    ], ids=["R-square-overflows", "R-infinite", "s-infinite", "s-overflows"])
    def test_non_finite_numbers(self, patch, expected, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**DISC, **patch}))
        out = tmp_path / "never.json"
        with np.errstate(all="ignore"):
            code = main(["energy", "--config", str(cfg), "--grid-n", "16",
                         "--out", str(out)])
        assert code == expected
        assert not out.exists()

    def test_sweep_dipole_solver_column_at_every_spacing(self, capsys):
        # the Fourier solve does not depend on n, so no spacing is skipped
        assert main(["sweep-dipole", "--E", "1", "--nu", "0.3",
                     "--include-solver"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["param"] for row in rows] == [1e-2, 3e-3, 1e-3]
        for row in rows:
            assert "solver_skipped" not in row
            assert row["solver_normalized"] == pytest.approx(
                row["solver_limit"], rel=1e-5)

    @pytest.mark.parametrize("source", [
        ["--E", "1", "--nu", "0.3", "--s", "1e300"],
        ["--config", "dipole"],
    ], ids=["flag", "config"])
    def test_sweep_dipole_charge_square_overflows(self, source, tmp_path,
                                                  capsys):
        cfg = tmp_path / "dipole"
        cfg.write_text(json.dumps(
            {**DIP, "dipoles": [{"center": [0.0, 0.0], "b": [0.0, 1e300],
                                 "h": 0.004}]}))
        out = tmp_path / "never.json"
        argv = [str(cfg) if a == "dipole" else a for a in source]
        code = main(["sweep-dipole", *argv, "--h", "1e-2", "--out", str(out)])
        assert code in (2, 3)
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--solver", "cg"], ["--tol", "1e-10"]])
    def test_solver_knobs_are_gone(self, flag, configs, capsys):
        assert main(["solve", "--config", configs["disc"], *flag]) == 1

    def test_touching_core_exits_validation(self, tmp_path):
        # D = 0.05000000000000004 passes eps < D by roundoff only
        cfg = tmp_path / "touch.json"
        cfg.write_text(json.dumps({
            **DISL, "dislocations": [{"site": [0.95, 0.0], "b": [0.0, 1.0]}],
            "core_radius": 0.05,
        }))
        out = tmp_path / "never.json"
        code = main(["solve", "--config", str(cfg), "--grid-n", "64",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unresolved_series_fit_exits_numerical(self, tmp_path,
                                                   monkeypatch):
        # a core near the circle needs more modes than the cap allows
        monkeypatch.setattr(solver, "_MAX_MODES", solver._FIRST_MODES)
        cfg = tmp_path / "wall.json"
        cfg.write_text(json.dumps({
            **DISL, "dislocations": [{"site": [0.9, 0.0], "b": [0.0, 1.0]}],
            "core_radius": 0.05,
        }))
        out = tmp_path / "never.json"
        code = main(["solve", "--config", str(cfg), "--grid-n", "64",
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()
