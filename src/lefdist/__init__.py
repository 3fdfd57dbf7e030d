"""Lefschetz distributions of Lie foliations.

Exact closed-form models of the distributional Lefschetz data of the standard
example families (mapping tori, codimension-one flows, suspensions,
homogeneous and nilpotent homogeneous foliations), backed by arbitrary
precision linear algebra, plus a numerical Gauss-Bonnet cross-check in leaf
dimension two.

The package re-exports the names of README's library example and the
exception classes; every other name is imported from its module.
"""

from .errors import (
    EnumerationLimitError,
    InconsistencyError,
    InvalidLieAlgebraError,
    NotSimpleError,
    PreconditionError,
)
from .lefschetz import ToralAutomorphism, fixed_points_toral, toral_lefschetz
from .linalg import IntMatrix, RationalMatrix
from .models import mapping_torus

__version__ = "0.1.0"

__all__ = [
    "EnumerationLimitError",
    "InconsistencyError",
    "IntMatrix",
    "InvalidLieAlgebraError",
    "NotSimpleError",
    "PreconditionError",
    "RationalMatrix",
    "ToralAutomorphism",
    "fixed_points_toral",
    "mapping_torus",
    "toral_lefschetz",
]
