"""Airy stress function toolkit for planar lattice defects.

Closed-form potentials, energy functionals, clamped-biharmonic series
solvers (with affine-core constraints on the punctured disk), asymptotic
sweeps and boundary-condition checks for wedge disclinations,
disclination dipoles and edge dislocations on disk domains.
"""

import os as _os

# thread cap must land in the environment before numpy loads its BLAS
_threads = _os.environ.get("AIRY_DEFECTS_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .core import (
    NumericalError,
    ElasticConstants,
    Disclination,
    Dislocation,
    DisclinationDipole,
    DiskDomain,
    DefectConfiguration,
    ValidationError,
    lame_from_young_poisson,
    young_poisson_from_lame,
    rotate_burgers,
    min_separation_D,
)

__all__ = [
    "ElasticConstants",
    "Disclination",
    "Dislocation",
    "DisclinationDipole",
    "DiskDomain",
    "DefectConfiguration",
    "ValidationError",
    "NumericalError",
    "lame_from_young_poisson",
    "young_poisson_from_lame",
    "rotate_burgers",
    "min_separation_D",
]

__version__ = "0.1.0"
