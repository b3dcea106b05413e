"""hopfcheck: exact verification of finite quantum groups.

Finite quantum groups are represented as finite-dimensional Hopf *-algebras
over cyclotomic fields via explicit structure constants.  The package checks
the defining axioms, computes Haar functionals and Peter-Weyl decompositions,
builds quotients by Hopf *-ideals, and mechanically verifies the equivalence
of the normality criteria for quantum subgroups together with the
reconstruction and isomorphism theorems that rest on them.
"""

__version__ = "0.1.0"

from .cyclotomic import CycField, CycScalar, Fraction, cyclotomic_polynomial
from .errors import (
    AxiomsFailed,
    CapExceeded,
    ContainmentViolated,
    FieldOrderMismatch,
    HopfcheckError,
    InvarianceViolated,
    KNotInKernel,
    NotASubgroup,
    NotCosemisimple,
    NotHopfIdeal,
    NotNormalInner,
    SchemaError,
    SplittingFailed,
    TheoremViolation,
)
from .linalg import Echelon, Matrix, Subspace

__all__ = [
    "CycField",
    "CycScalar",
    "Fraction",
    "cyclotomic_polynomial",
    "Echelon",
    "Matrix",
    "Subspace",
    "HopfcheckError",
    "SchemaError",
    "FieldOrderMismatch",
    "AxiomsFailed",
    "NotCosemisimple",
    "SplittingFailed",
    "NotHopfIdeal",
    "NotASubgroup",
    "TheoremViolation",
    "ContainmentViolated",
    "InvarianceViolated",
    "NotNormalInner",
    "KNotInKernel",
    "CapExceeded",
]
