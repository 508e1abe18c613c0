"""Reference CSV writers for ``tests/test_cli.py`` and the reference
Hessian of the frame fields for ``tests/test_closedform.py``.

``write_csv`` formats whole rows with one ``%`` template of ``%.17g``
(and ``%d``) fields, by Python's own formatter; ``field_dump`` holds the
columns of every node of the grid at once, with the field evaluated at
all inside nodes in one batch. The CLI streams the dump by blocks of
grid lines, formats with the package's array kernel into tables of
fixed cells and drops their NUL bytes; both must agree byte for byte.
``frame_hessian`` builds a frame field's Hessian from whole-array
formulas, which the package's in-place rows must match bit for bit.
"""

import numpy as np

from airy_defects.cli import _FIELD_HEADER, _plastic_field, dump_json
from airy_defects.closedform import airy_to_stress, stress_to_strain
from airy_defects.fields import grid_for_disk

# rows per "%" operation
_BLOCK = 1024


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and one row per index of the equal-length 1-D
    ``columns``: integer columns as ``%d``, the rest as ``%.17g``."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join(
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns
    ) + "\n"
    table = np.column_stack(columns)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(header + "\n")
        for start in range(0, len(table), _BLOCK):
            block = table[start:start + _BLOCK]
            f.write((line * len(block)) % tuple(block.ravel().tolist()))


def field_columns(config, n: int) -> list[np.ndarray]:
    """Per-node columns of the field dump, in ``_FIELD_HEADER`` order."""
    field = _plastic_field(config)
    grid = grid_for_disk(config.domain, n)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    cx, cy = config.domain.center
    inside = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) < config.domain.radius_R
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


def frame_hessian(field, x) -> np.ndarray:
    """The (N, 2, 2) Hessian of the ``closedform._FrameField`` ``field``
    at the points ``x``: the canonical rows H_11, H_12, H_21, H_22 of
    C g(u) xi_1 from fancy-indexed products of xi, their first-order
    terms added as one tuple, the core rows zeroed and C applied, then
    each entry of Q^T H Q as its four terms Q_ai H_ab Q_bj summed in
    order. (``np.einsum("ai,nab,bj->nij", ...)`` gives the same values,
    but its sums start from +0.0, which turns four -0.0 terms into
    +0.0.)"""
    xi, u, s = field._local(x)
    C, _, b, _, d = field._profile
    d2g = 2.0 * b / s**3 - d / s**2 if b else -d / s**2
    e1, e2 = 2.0 * field._dg(s) * xi
    H = 4.0 * d2g * xi[[0, 0, 1, 1]] * xi[[0, 1, 0, 1]] * xi[0]
    H += (e1 + 2.0 * e1, e2, e2, e1)
    field._zero_core(H.T, u)
    H = (C * H).T.reshape(-1, 2, 2)
    Q = field._frame[0]
    out = np.empty_like(H)
    for i, j in np.ndindex(2, 2):
        t00, t01, t10, t11 = (Q[a, i] * H[:, a, b] * Q[b, j]
                              for a, b in np.ndindex(2, 2))
        out[:, i, j] = t00 + t01 + t10 + t11
    return out
