import json

import numpy as np
import pytest

from airy_defects import solver
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

    @pytest.mark.parametrize("flag", [["--solver", "cg"], ["--tol", "1e-10"]])
    def test_solver_knobs_are_gone(self, flag, configs, capsys):
        assert main(["solve", "--config", configs["disc"], *flag]) == 1

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
