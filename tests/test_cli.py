import hashlib
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import field_reference
import grid_reference
from airy_defects import asymptotics, cli, fields, solver
from airy_defects.asymptotics import _dipole_energy, annulus_energy_closed_form
from airy_defects.cli import main
from airy_defects.closedform import SingleDisclinationClamped, SumField
from airy_defects.core import DefectConfiguration, ElasticConstants, NumericalError
from airy_defects.energy import polar_energy

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


PAIR = {**DISL, "dislocations": [{"site": [0.3, 0.0], "b": [0.0, 1.0]},
                                {"site": [-0.3, 0.0], "b": [0.0, 1.0]}],
        "core_radius": 0.15}
# configurations of the artifact tests: the pair at E = 1e-9 and 1e20 has
# numbers below 1e-6 and at or above 1e17, which the CSV kernel leaves to
# %.17g, and the disclination at the centre a nan on the node at (0, 0)
DUMP_DOCS = [
    PAIR,
    {**DISL, "dislocations": [{"site": [0.0, 0.0], "b": [0.6, -0.8]}],
     "core_radius": 0.15},
    {**DISC, "disclinations": [{"site": [0.3, 0.2], "s": 1.0},
                               {"site": [-0.4, -0.1], "s": -0.5}]},
    {**DIP, "dipoles": [{"center": [0.1, -0.2], "b": [0.0, 1.0], "h": 0.004}]},
    DISC,
    {**PAIR, "E": 1e-9},
    {**PAIR, "E": 1e20},
]
DUMP_IDS = ["pair", "centred-core", "disclinations", "dipole",
            "disclination-at-centre", "pair-E-1e-9", "pair-E-1e20"]
# the subcommands that range-check --grid-n and read nothing else of it;
# "disl" and "dip" name the config files of the `configs` fixture
GRID_FREE = [
    ["energy", "--config", "disl"],
    ["sweep-core", "--config", "disl"],
    ["renormalize", "--config", "disl"],
    ["diagonal", "--config", "dip"],
    ["sweep-dipole", "--E", "1", "--nu", "0.3", "--include-solver"],
]


# every float flag of the subcommands whose inputs reach a spacing, a
# separation or a core radius, as an argument list for one value;
# "pair" names the config file of the `configs` fixture
FLOAT_FLAGS = {
    "appendix-b --h": lambda v: ["appendix-b", "--h", v],
    "appendix-b --R": lambda v: ["appendix-b", "--h", "0.5", "--R", v],
    **{f"sweep-dipole --{flag}": (
        lambda v, flag=flag: ["sweep-dipole", "--E", "1", "--nu", "0.3", f"--{flag}", v])
       for flag in ("E", "nu", "s", "R", "h")},
    "renormalize --D": lambda v: ["renormalize", "--config", "pair", "--D", v],
    "solve --core-radius": lambda v: ["solve", "--config", "pair", "--core-radius", v],
    "sweep-core --eps": lambda v: ["sweep-core", "--config", "pair", "--eps", f"0.2,{v}"],
}
EXTREME_VALUES = ["nan", "inf", "0", "5e-324", "1e-300", "1e300"]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, doc in (("disc", DISC), ("disl", DISL), ("dip", DIP),
                      ("pair", PAIR)):
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

    def test_validation_errors(self, capsys, tmp_path, configs):
        assert main(["constants"]) == 2  # neither config nor moduli
        assert main(["energy", "--config", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["energy", "--config", str(bad)]) == 2
        # check-bc takes 3 to MAX_SAMPLES circle nodes and rejects the
        # rest before it allocates them or writes anything
        out = tmp_path / "bc.json"
        for n, code in ((-1, 2), (0, 2), (2, 2), (3, 0), (2**62, 2)):
            assert main(["check-bc", "--config", configs["disl"],
                         "--n-samples", str(n), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
            out.unlink(missing_ok=True)

    def test_parser_is_built_once_and_hands_out_immutable_defaults(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        first = parser.parse_args(["sweep-core", "--config", "c.json"])
        assert first.eps == (0.2, 0.1, 0.05)
        assert parser.parse_args(["sweep-core", "--config", "c.json"]) == first
        assert parser.parse_args(["sweep-dipole"]).h == (1e-2, 3e-3, 1e-3)
        assert parser.parse_args(["diagonal"]).h == (1e-2, 2.5e-3, 6.25e-4)
        assert main(["--help"]) == 0 and cli._build_parser() is parser

    @pytest.mark.parametrize("value", EXTREME_VALUES)
    @pytest.mark.parametrize("flag", list(FLOAT_FLAGS))
    def test_extreme_floats_keep_the_exit_contract(self, flag, value, configs,
                                                   capsys):
        # a spacing, radius or modulus at an extreme ends in 0, 2 or 3,
        # never in an exception out of main
        argv = [configs.get(a, a) for a in FLOAT_FLAGS[flag](value)]
        assert main(argv) in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_overflow_warnings_stay_off_stderr(self):
        # a fresh interpreter with Python's default warning filters: the
        # overflows of appendix-b at R = 1e300 printed 17 RuntimeWarnings
        # with their source lines before the one error line
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from airy_defects.cli import "
             "main; sys.exit(main(sys.argv[1:]))",
             "appendix-b", "--h", "0.5", "--R", "1e300"],
            capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src})
        assert done.returncode == 3
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("numerical error:")

    @pytest.mark.parametrize("argv", [["--E", "5e-324"], ["--E", "1", "--s", "0"]],
                             ids=["underflow", "zero-charge"])
    def test_sweep_dipole_zero_energy_scale(self, argv, tmp_path, capsys):
        # K s^2 / 8 pi = 0 gives rel_err no scale: the sweep exited 0
        # with rel_err 0 at E = 5e-324
        out = tmp_path / "never.json"
        code = main(["sweep-dipole", *argv, "--nu", "0.3", "--h", "1e-2",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "validation error: the energy scale")
        assert not out.exists()

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
        assert "assemble_seconds" not in doc  # times are not report keys
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
        out, csv = tmp_path / "never.json", tmp_path / "never.csv"
        # core radius 0.1 unresolved by the dump's grid (4 delta = 0.25):
        # must fail before writing either file
        code = main([
            "solve", "--config", configs["disl"], "--grid-n", "32",
            "--field-csv", str(csv), "--out", str(out),
        ])
        assert code == 2
        assert not out.exists() and not csv.exists()
        # only a dump samples the cores on the grid: the solve alone and
        # the exact energy take any resolution
        for command in ("solve", "energy"):
            assert main([command, "--config", configs["disl"], "--grid-n",
                         "32", "--out", str(out)]) == 0

    def test_field_validates_csv_path_first(self, configs, tmp_path,
                                            monkeypatch):
        def no_field(*args):
            raise AssertionError("the field was computed")

        monkeypatch.setattr(cli, "_write_field_csv", no_field)
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

    @pytest.mark.parametrize("command", GRID_FREE, ids=[c[0] for c in GRID_FREE])
    def test_grid_n_changes_no_report(self, command, configs, tmp_path):
        # both ends of the accepted range give the same bytes
        argv = [configs.get(a, a) for a in command]
        reports = []
        for n in (8, 4087):
            out = tmp_path / f"{command[0]}-{n}.json"
            assert main([*argv, "--grid-n", str(n), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("n", [64, 77, 96])
    @pytest.mark.parametrize("doc", DUMP_DOCS, ids=DUMP_IDS)
    def test_field_dump_matches_whole_table(self, doc, n, tmp_path,
                                            monkeypatch):
        # the grid spacing 2/64 is dyadic, 2/77 and 2/96 are not: a node
        # rebuilt from a block's own origin would differ in its last bit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for side in ("ref", "got"):
            (tmp_path / side).mkdir()
        with np.errstate(all="ignore"):
            monkeypatch.chdir(tmp_path / "ref")
            field_reference.field_dump(DefectConfiguration.from_dict(doc),
                                       n, "field.csv", "field.json")
            monkeypatch.chdir(tmp_path / "got")
            assert main(["field", "--config", str(cfg), "--grid-n", str(n),
                         "--csv", "field.csv", "--out", "field.json"]) == 0
        for name in ("field.csv", "field.json"):
            assert (tmp_path / "got" / name).read_bytes() == (
                tmp_path / "ref" / name).read_bytes()

    @pytest.mark.parametrize("doc", DUMP_DOCS, ids=DUMP_IDS)
    def test_solve_field_csv_matches_reference_writer(self, doc, tmp_path,
                                                      monkeypatch):
        # the streamed dump against the whole-grid oracle, which samples
        # the same solution at every node in one batch and writes with
        # the reference writer; at n = 96 and 128 every core is resolved,
        # and one-line blocks put a block edge beside every line
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        domain = DefectConfiguration.from_dict(doc).domain
        write = cli._write_solution_csv
        for n, block in ((96, None), (128, None), (96, 1)):
            solutions = []

            def recorded(path, solution, *args):
                solutions.append(solution)
                write(path, solution, *args)

            monkeypatch.setattr(cli, "_write_solution_csv", recorded)
            if block is not None:
                monkeypatch.setattr(cli, "_FIELD_BLOCK_NODES", block)
            got, ref = tmp_path / f"got-{n}.csv", tmp_path / f"ref-{n}.csv"
            with np.errstate(all="ignore"):
                assert main(["solve", "--config", str(cfg), "--grid-n", str(n),
                             "--field-csv", str(got),
                             "--out", str(tmp_path / "got.json")]) == 0
                grid_reference.solution_field(
                    solutions[0], domain, fields.grid_for_disk(domain, n)
                ).to_csv(ref)
            monkeypatch.undo()
            assert sha256(got) == sha256(ref), (n, block)

    def test_solve_field_csv_rows_of_every_node_kind(self, tmp_path,
                                                    monkeypatch):
        # a core reaching within one cell of the circle: core nodes short
        # of a full stencil beside core nodes with one, and outside,
        # ghost and interior nodes of both kinds
        doc = {**DISL, "dislocations": [{"site": [0.8, 0.0], "b": [0.6, -0.8]}],
               "core_radius": 0.19}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        domain = DefectConfiguration.from_dict(doc).domain
        solutions = []
        write = cli._write_solution_csv

        def recorded(path, solution, *args):
            solutions.append(solution)
            write(path, solution, *args)

        monkeypatch.setattr(cli, "_write_solution_csv", recorded)
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        with np.errstate(all="ignore"):
            assert main(["solve", "--config", str(cfg), "--grid-n", "96",
                         "--field-csv", str(got),
                         "--out", str(tmp_path / "got.json")]) == 0
            grid_reference.solution_field(
                solutions[0], domain, fields.grid_for_disk(domain, 96)
            ).to_csv(ref)
        assert sha256(got) == sha256(ref)
        kinds = set()
        for row in got.read_text().splitlines()[1:]:
            _, _, v, vxx, _, _, mask = row.split(",")
            kinds.add((mask, v == "0") if mask == "0" else (mask, vxx == "nan"))
        assert kinds == {("0", True), ("0", False), ("1", True), ("1", False),
                         ("2", True), ("2", False)}

    @pytest.mark.parametrize("E", ["1", "1e-9", "1e20"])
    def test_sweep_csv_matches_reference_writer(self, E, tmp_path,
                                                monkeypatch):
        for side in ("got", "ref"):
            if side == "ref":
                monkeypatch.setattr(asymptotics, "write_csv",
                                    field_reference.write_csv)
            assert main(["sweep-dipole", "--E", E, "--nu", "0.3",
                         "--h", "1e-2,3e-3,1e-3,1e-7", "--include-solver",
                         "--csv", str(tmp_path / f"{side}.csv"),
                         "--out", str(tmp_path / f"{side}.json")]) == 0
        assert sha256(tmp_path / "got.csv") == sha256(tmp_path / "ref.csv")

    def test_field_dump_keeps_nan_of_disclination_node(self, configs,
                                                       tmp_path):
        # 2/64 is dyadic, so a node sits exactly on the disclination
        csv = tmp_path / "f.csv"
        with np.errstate(all="ignore"):
            assert main(["field", "--config", configs["disc"], "--grid-n",
                         "64", "--csv", str(csv),
                         "--out", str(tmp_path / "f.json")]) == 0
        rows = [r for r in csv.read_text().splitlines()
                if r.startswith("0,0,")]
        assert len(rows) == 1
        assert rows[0].split(",")[2] == "-0.021861942732403203"
        assert rows[0].split(",")[3:] == ["nan"] * 6

    def test_field_dump_keeps_nan_of_uncored_dislocation_node(self, tmp_path):
        # a node sits exactly on the site at (0.25, 0); the stress there
        # is singular, as at a disclination's node
        cfg = tmp_path / "disl.json"
        cfg.write_text(json.dumps({
            "E": 1.0, "nu": 0.3, "domain": {"center": [0.0, 0.0], "R": 1.0},
            "dislocations": [{"site": [0.25, 0.0], "b": [0.0, 1.0]}]}))
        csv = tmp_path / "f.csv"
        with np.errstate(all="ignore"):
            assert main(["field", "--config", str(cfg), "--grid-n", "64",
                         "--csv", str(csv),
                         "--out", str(tmp_path / "f.json")]) == 0
        rows = [r for r in csv.read_text().splitlines()
                if r.startswith("0.25,0,")]
        assert len(rows) == 1
        assert rows[0].split(",")[3:] == ["nan"] * 6

    def test_field_dump_memory_does_not_grow_with_grid(self, configs,
                                                       tmp_path):
        # the dump holds one block of grid lines at a time; the
        # whole-table writer peaked near 50 MB at this n
        tracemalloc.start()
        try:
            code = main(["field", "--config", configs["disl"],
                         "--grid-n", "512", "--csv", str(tmp_path / "f.csv"),
                         "--out", str(tmp_path / "f.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads((tmp_path / "f.json").read_text())["nodes"] == 521**2
        assert peak < 8 * 2**20

    def test_solve_dump_memory_does_not_grow_with_grid(self, tmp_path):
        # the solve dump evaluates one block of grid lines at a time;
        # the whole-grid sampler peaked at 6.3 MB here, and at 19.3 MB
        # at n = 512
        cfg = tmp_path / "disc.json"
        cfg.write_text(json.dumps(
            {**DISC, "disclinations": [{"site": [0.3, -0.2], "s": 1.0}]}))
        tracemalloc.start()
        try:
            code = main(["solve", "--config", str(cfg), "--grid-n", "256",
                         "--field-csv", str(tmp_path / "f.csv"),
                         "--out", str(tmp_path / "f.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len((tmp_path / "f.csv").read_bytes().splitlines()) == 1 + 265**2
        assert peak < 5 * 2**20

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

    def test_numerical_error_leaves_no_files(self, tmp_path, monkeypatch):
        # the report is checked before the CSV is written
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(
            {**DISC, "disclinations": [{"site": [0.0, 0.0], "s": 1e308}]}))
        out, csv = tmp_path / "r.json", tmp_path / "f.csv"
        # the pair-field energies are finite, the solver column is not
        nan_report = SimpleNamespace(value=math.nan)
        monkeypatch.setattr(asymptotics, "solve_clamped_disclination",
                            lambda *args: nan_report)
        for argv in (
            ["solve", "--config", str(cfg), "--grid-n", "32",
             "--field-csv", str(csv)],
            ["sweep-dipole", "--E", "1", "--nu", "0.3", "--h", "1e-2",
             "--include-solver", "--csv", str(csv)],
        ):
            with np.errstate(all="ignore"):
                code = main([*argv, "--out", str(out)])
            assert code == 3
            assert not out.exists() and not csv.exists()

    def test_sweep_dipole_at_huge_modulus(self, tmp_path):
        # G and the solver value are linear in E: the normalized energies
        # match the E = 1 run
        ratios = []
        for E in ("1e308", "1"):
            out = tmp_path / f"sweep-{E}.json"
            code = main(["sweep-dipole", "--E", E, "--nu", "0.3", "--s", "1",
                         "--include-solver", "--out", str(out)])
            assert code == 0
            rows = json.loads(out.read_text())["rows"]
            ratios.append([r[key] / r[limit] for r in rows for key, limit in (
                ("normalized", "analytic_limit"),
                ("solver_normalized", "solver_limit"))])
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

        monkeypatch.setattr(cli, "_write_field_csv", no_field)
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

    @staticmethod
    def _disk_full(path, *args):
        """A writer that fails after writing part of its file."""
        with open(path, "w") as f:
            f.write(cli._FIELD_HEADER + "\n")
        raise OSError(28, "No space left on device")

    def test_write_failure_exits_validation(self, configs, tmp_path,
                                            monkeypatch, capsys):
        # the partial CSV is removed, and the JSON never begun
        monkeypatch.setattr(cli, "_write_field_csv", self._disk_full)
        code = main(["field", "--config", configs["disc"], "--grid-n", "64",
                     "--csv", str(tmp_path / "f.csv"),
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.glob("f.*")) == []

    def test_report_write_failure_removes_the_csv(self, configs, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(cli, "_write_text", self._disk_full)
        code = main(["field", "--config", configs["disc"], "--grid-n", "64",
                     "--csv", str(tmp_path / "f.csv"),
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert list(tmp_path.glob("f.*")) == []

    def test_numerical_error_while_streaming_leaves_no_file(
            self, configs, tmp_path, monkeypatch):
        # the field dump evaluates its field with the CSV open
        def unresolved(self, x):
            raise NumericalError("unresolved")

        monkeypatch.setattr(SumField, "value_and_hessian", unresolved)
        code = main(["field", "--config", configs["disc"], "--grid-n", "64",
                     "--csv", str(tmp_path / "f.csv"),
                     "--out", str(tmp_path / "f.json")])
        assert code == 3
        assert list(tmp_path.glob("f.*")) == []

    def test_read_only_file_exits_before_any_work(self, configs, tmp_path,
                                                  monkeypatch):
        # a failed run removes the files it began, so it must not begin
        # one it cannot write
        def no_field(*args):
            raise AssertionError("the field was computed")

        monkeypatch.setattr(cli, "_write_field_csv", no_field)
        monkeypatch.setattr(cli.os, "access",
                            lambda path, mode: not str(path).endswith(".csv"))
        csv = tmp_path / "f.csv"
        csv.write_text("keep")
        code = main(["field", "--config", configs["disc"], "--grid-n", "64",
                     "--csv", str(csv)])
        assert code == 2
        assert csv.read_text() == "keep"


def test_import_leaves_quadrature_and_spline_modules_unloaded(configs,
                                                               tmp_path):
    # a fresh interpreter: the test session has loaded scipy already.
    # Importing the package and running every subcommand loads numpy
    # only; scipy serves the tests alone.
    runs = [
        ["field", "--config", configs["disc"], "--grid-n", "32",
         "--csv", str(tmp_path / "field.csv")],
        ["energy", "--config", configs["disl"], "--grid-n", "128"],
        ["check-bc", "--config", configs["disc"]],
        ["solve", "--config", configs["disl"], "--grid-n", "128",
         "--field-csv", str(tmp_path / "solve.csv")],
        ["sweep-core", "--config", configs["disl"], "--grid-n", "128"],
        ["sweep-dipole", "--E", "1", "--nu", "0.3", "--include-solver",
         "--grid-n", "32"],
        ["renormalize", "--config", configs["disl"], "--grid-n", "128"],
        ["diagonal", "--config", configs["dip"], "--grid-n", "64"],
        ["appendix-b", "--h", "1e-2"],
    ]
    runs = [[*run, "--out", str(tmp_path / f"{run[0]}.json")] for run in runs]
    probe = ("import json, sys; from airy_defects.cli import main; "
             "print(json.dumps([[run[0], main(run), sorted("
             "m for m in sys.modules if m.startswith('scipy'))] "
             "for run in json.loads(sys.argv[1])]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                          capture_output=True, text=True, check=True,
                          timeout=300, env={"PYTHONPATH": src})
    assert json.loads(done.stdout) == [[run[0], 0, []] for run in runs]


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
    def test_bools_print_as_json_bools(self):
        assert cli.dump_json({"t": True, "f": np.bool_(False)}) == (
            '{\n  "f": false,\n  "t": true\n}\n')

    def test_energy_breakdown_keys(self, configs, capsys):
        assert main(["energy", "--config", configs["disc"], "--grid-n", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"bulk_G", "charge", "total", "region", "grid"}
        assert doc["total"] == pytest.approx(doc["bulk_G"] + doc["charge"])

    def test_energy_reports_circle_nodes(self, configs, capsys):
        assert main(["energy", "--config", configs["disl"], "--grid-n", "256"]) == 0
        grid = json.loads(capsys.readouterr().out)["grid"]
        assert set(grid) == {"circle_nodes"}
        assert grid["circle_nodes"] >= 32

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

    def test_renormalize_near_the_circle(self, tmp_path, capsys):
        # one site at 0.995 R: the circle sums settle (512 fixed nodes
        # printed 0.28402773891737881)
        cfg = tmp_path / "near.json"
        cfg.write_text(json.dumps({
            **DISL, "core_radius": 0.001,
            "dislocations": [{"site": [0.995, 0.0], "b": [0.0, 1.0]},
                             {"site": [-0.3, 0.2], "b": [1.0, 0.0]}]}))
        assert main(["renormalize", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expansion_constant"] == pytest.approx(0.2501852293071966,
                                                          rel=1e-10)

    def test_renormalize_at_huge_modulus(self, tmp_path):
        # every term is linear in E: at E = 1e308 the squares of the
        # unit-size computation would overflow
        docs = []
        for E in (1e308, 1.0):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                **DISL, "E": E,
                "dislocations": [{"site": [0.3, 0.0], "b": [0.0, 1.0]}],
            }))
            out = tmp_path / "renormalize.json"
            assert main(["renormalize", "--config", str(cfg),
                         "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        big, unit = docs
        for key in ("F_self", "F_int", "F_elastic", "f_DR", "renormalized",
                    "expansion_constant"):
            assert big[key] == pytest.approx(1e308 * unit[key], rel=1e-12)
        assert big["separation_D"] == unit["separation_D"]

    def test_solve_core_at_huge_modulus(self, tmp_path):
        # the core fit runs at E = 1 and scales: at E = 1e308 its
        # squared mode coefficients would overflow
        docs = []
        for E in (1e308, 1.0):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                **DISL, "E": E, "core_radius": 0.1,
                "dislocations": [{"site": [0.3, 0.0], "b": [0.0, 1.0]}],
            }))
            out = tmp_path / "solve.json"
            assert main(["solve", "--config", str(cfg), "--grid-n", "64",
                         "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        big, unit = docs
        assert big["value"] == pytest.approx(1e308 * unit["value"], rel=1e-12)
        assert big["extras"]["core_affine"]["core_0"] == pytest.approx(
            [1e308 * c for c in unit["extras"]["core_affine"]["core_0"]],
            rel=1e-12)
        assert big["residual"] == unit["residual"]
        assert big["extras"]["modes"] == unit["extras"]["modes"]

    @pytest.mark.parametrize("command, doc", [
        (["sweep-core", "--grid-n", "128"],
         {**DISL, "dislocations": [{"site": [0.3, 0.0], "b": [0.0, 1.0]}]}),
        (["diagonal", "--grid-n", "64"],
         {**DIP, "dipoles": [{"center": [0.0, 0.0], "b": [0.0, 1.0],
                              "h": 0.01}]}),
    ], ids=["sweep-core", "diagonal"])
    def test_log_fit_at_huge_modulus(self, command, doc, tmp_path):
        # the fitted values are E-sized: at E = 1e308 the squares of the
        # fit residuals would overflow
        docs = []
        for E in (1e308, 1.0):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**doc, "E": E}))
            out = tmp_path / "fit.json"
            assert main([*command, "--config", str(cfg),
                         "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        big, unit = docs
        assert [s["eps"] for s in big["samples"]] == \
            [s["eps"] for s in unit["samples"]]
        # the residual and standard errors of an exactly determined fit
        # are roundoff of the values
        top = max(abs(s["value"]) for s in big["samples"])
        scaled = [k for k, v in unit.items() if isinstance(v, float)]
        assert "residual" in scaled and "slope_stderr" in scaled
        for key in scaled:
            assert big[key] == pytest.approx(1e308 * unit[key], rel=1e-12,
                                             abs=1e-12 * top), key

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

    def test_rung_over_memory_budget_exits_numerical(self, configs, tmp_path,
                                                     monkeypatch, capsys):
        # no rung fits a 1-byte budget, so no fit is started
        monkeypatch.setattr(solver, "_MAX_RUNG_BYTES", 1)
        out = tmp_path / "never.json"
        code = main(["solve", "--config", configs["disl"], "--grid-n", "64",
                     "--out", str(out)])
        assert code == 3
        assert "memory budget" in capsys.readouterr().err
        assert not out.exists()


class TestExactEnergy:
    """``energy`` pairs exact fields on circles: its value is exact and
    does not depend on --grid-n, which it only range-checks."""

    @staticmethod
    def _bulk(doc, tmp_path, n):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"energy-{n}.json"
        assert main(["energy", "--config", str(cfg), "--grid-n", str(n),
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())["bulk_G"]

    def test_centered_core_matches_annulus_closed_form(self, tmp_path):
        exact = annulus_energy_closed_form(
            1.0, 0.1, 1.0, 1.0, ElasticConstants(1.0, 0.3))[0]
        assert self._bulk(DISL, tmp_path, 256) == pytest.approx(exact, rel=1e-12)

    def test_off_centre_pair_is_grid_independent(self, tmp_path):
        doc = {**DISL, "dislocations": [
            {"site": [0.3, 0.0], "b": [0.0, 1.0]},
            {"site": [-0.3, 0.0], "b": [1.0, 0.0]},
        ]}
        # no grid resolves the cores: at n = 16, eps = 0.1 is under 4 delta
        values = [self._bulk(doc, tmp_path, n) for n in (16, 256, 2048)]
        assert values[0] == values[1] == values[2]
        assert values[0] == pytest.approx(0.121090075628093, rel=1e-12)

    def test_off_centre_disclination_matches_polar_quadrature(self, tmp_path):
        elastic = ElasticConstants(1.0, 0.3)
        doc = {**DISC, "disclinations": [{"site": [0.3, 0.0], "s": 1.0}]}
        field = SingleDisclinationClamped(elastic=elastic, radius_R=1.0,
                                          charge_s=1.0, center=(0.3, 0.0))
        ref = polar_energy(field, elastic, (0.0, 0.0), 1.0, n_theta=4096,
                           breaks=[0.3]).energy
        assert self._bulk(doc, tmp_path, 64) == pytest.approx(ref, rel=1e-6)

    def test_centred_dipole_matches_dipole_energy(self, tmp_path):
        # the config's pole charges against the sweep's pair field
        elastic = ElasticConstants(2.0, 0.3)
        doc = {**DIP, "E": 2.0,
               "dipoles": [{"center": [0.0, 0.0], "b": [0.6, -0.8], "h": 0.05}]}
        ref = _dipole_energy(elastic, 1.0, 1.0, 0.05)
        assert self._bulk(doc, tmp_path, 256) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("extra", [
        {"disclinations": [{"site": [0.4, 0.0], "s": 1.0}],
         "dislocations": [{"site": [0.3, 0.0], "b": [0.0, 1.0]}]},
        {"disclinations": [{"site": [0.0, 0.9995], "s": 1.0}]},
    ], ids=["on_core_circle", "near_outer_circle"])
    def test_charge_on_a_circle_exits_validation(self, extra, tmp_path, capsys):
        cfg = tmp_path / "near.json"
        cfg.write_text(json.dumps({**DISL, **extra}))
        out = tmp_path / "never.json"
        code = main(["energy", "--config", str(cfg), "--grid-n", "256",
                     "--out", str(out)])
        assert code == 2
        assert "does not resolve" in capsys.readouterr().err
        assert not out.exists()

    def test_charge_just_off_a_circle_settles(self, tmp_path):
        doc = {**DISL, "disclinations": [{"site": [0.4011, 0.0], "s": 1.0}],
               "dislocations": [{"site": [0.3, 0.0], "b": [0.0, 1.0]}]}
        assert math.isfinite(self._bulk(doc, tmp_path, 256))

    def test_uncored_dislocation_exits_validation(self, tmp_path, capsys):
        cfg = tmp_path / "uncored.json"
        cfg.write_text(json.dumps({
            **DISL, "dislocations": [{"site": [0.3, 0.0], "b": [0.0, 1.0]}],
            "core_radius": None,
        }))
        out = tmp_path / "never.json"
        code = main(["energy", "--config", str(cfg), "--grid-n", "256",
                     "--out", str(out)])
        assert code == 2
        assert "uncored dislocation" in capsys.readouterr().err
        assert not out.exists()

    def test_allocates_no_grid(self, configs, tmp_path):
        out = tmp_path / "energy.json"
        tracemalloc.start()
        try:
            code = main(["energy", "--config", configs["disl"],
                         "--grid-n", "2048", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**20
