"""Print the sha256 of every CLI artifact of a fixed set of runs.

Usage, from the repository root:

    PYTHONPATH=src python tests/artifact_digests.py > digests.txt

It runs ``field``, ``solve --field-csv``, ``energy`` and ``check-bc`` on
every configuration of ``test_cli.DUMP_DOCS`` at grid-n 64, 77 and 256
(``check-bc`` takes no grid), ``renormalize`` on every one with
dislocations, ``sweep-core`` on the ``pair`` one, and ``sweep-dipole
--csv`` at E = 1, 1e-9 and 1e20, in a
temporary directory and with relative output paths, so
that the path a JSON report names is the same on every checkout. Each
run prints its exit code, then each artifact it wrote prints as ``name
sha256``. Two checkouts make the same artifacts exactly when their
outputs have no ``diff``. Pytest does not collect this file.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from airy_defects.cli import main
from test_cli import DUMP_DOCS, DUMP_IDS

GRID_NS = (64, 77, 256)
SWEEP_ES = ("1", "1e-9", "1e20")


def runs():
    """(name, argv, artifacts) of every run, ``argv`` without outputs."""
    for doc_id, doc in zip(DUMP_IDS, DUMP_DOCS):
        cfg = ["--config", f"{doc_id}.json"]
        for n in GRID_NS:
            grid = ["--grid-n", str(n)]
            yield f"field-{doc_id}-{n}", ["field", *cfg, *grid], "--csv"
            yield f"solve-{doc_id}-{n}", ["solve", *cfg, *grid], "--field-csv"
            yield f"energy-{doc_id}-{n}", ["energy", *cfg, *grid], None
        yield f"check-bc-{doc_id}", ["check-bc", *cfg], None
        if "dislocations" in doc:
            yield f"renormalize-{doc_id}", ["renormalize", *cfg], None
        if doc_id == "pair":
            yield f"sweep-core-{doc_id}", ["sweep-core", *cfg], None
    for E in SWEEP_ES:
        yield (f"sweep-dipole-E{E}",
               ["sweep-dipole", "--E", E, "--nu", "0.3",
                "--h", "1e-2,3e-3,1e-3,1e-7", "--include-solver"], "--csv")


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for doc_id, doc in zip(DUMP_IDS, DUMP_DOCS):
            Path(f"{doc_id}.json").write_text(json.dumps(doc))
        for name, argv, csv_flag in runs():
            outputs = [f"{name}.json"] + ([f"{name}.csv"] if csv_flag else [])
            if csv_flag:
                argv = [*argv, csv_flag, outputs[1]]
            code = main([*argv, "--out", outputs[0]])
            print(f"{name} exit {code}")
            for out in outputs:
                if Path(out).exists():
                    digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
                    print(f"{out} {digest}")
            sys.stdout.flush()


if __name__ == "__main__":
    main_digests()
