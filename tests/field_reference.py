"""The whole-table field dump.

Reference for ``tests/test_cli.py``: the columns of every node of the
grid are held at once, with the field evaluated at all inside nodes in
one batch, and written by ``fields.write_csv``. The CLI streams the
same dump by blocks of grid lines; both must agree byte for byte.
"""

import numpy as np

from airy_defects.cli import _FIELD_HEADER, _plastic_field, dump_json
from airy_defects.closedform import airy_to_stress, stress_to_strain
from airy_defects.fields import build_mask, grid_for_disk, write_csv


def field_columns(config, n: int) -> list[np.ndarray]:
    """Per-node columns of the field dump, in ``_FIELD_HEADER`` order."""
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
    return [pts[:, 0], pts[:, 1], vals,
            sigma[:, 0, 0], sigma[:, 0, 1], sigma[:, 1, 1],
            eps[:, 0, 0], eps[:, 0, 1], eps[:, 1, 1]]


def field_dump(config, n: int, csv, out) -> None:
    """Write the dump's CSV to ``csv`` and its JSON report to ``out``,
    naming the CSV as ``str(csv)``."""
    columns = field_columns(config, n)
    write_csv(csv, _FIELD_HEADER, columns)
    with open(out, "w", encoding="ascii", newline="\n") as f:
        f.write(dump_json({"nodes": len(columns[0]), "grid_n": n,
                           "csv": str(csv)}))
