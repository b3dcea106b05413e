"""Exception types shared across the package."""


class HopfcheckError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(HopfcheckError):
    """Malformed input: bad file schema, tensor shape, or argument."""


class FieldOrderMismatch(SchemaError):
    """Scalars from cyclotomic fields of different orders were combined."""


class AxiomsFailed(HopfcheckError):
    """The structure constants fail the Hopf *-algebra axioms named in the message."""


class NotCosemisimple(HopfcheckError):
    """The bi-invariance system has no normalizable solution."""


class SplittingFailed(HopfcheckError):
    """The coefficient field is too small to split a block.

    Carries the field order that failed; retry with a larger cyclotomic
    order (any multiple of the current one that splits the algebra).
    """

    def __init__(self, order, detail=""):
        self.order = order
        msg = "Q(zeta_%d) does not split this algebra" % order
        if detail:
            msg += ": " + detail
        msg += "; retry with a larger field order (a multiple of %d)" % order
        super().__init__(msg)


class NotHopfIdeal(HopfcheckError):
    """The given subspace is not a Hopf *-ideal; carries a witness."""


class NotASubgroup(HopfcheckError):
    """The given subset of a group is not a subgroup."""


class TheoremViolation(HopfcheckError):
    """Internal cross-checks that are theorems disagreed.

    This is treated as an implementation bug, never a property of the
    input; the message carries full diagnostics.
    """


class ContainmentViolated(HopfcheckError):
    """The claimed subgroup containment ker(theta) <= ker(pi) fails."""


class InvarianceViolated(HopfcheckError):
    """An ideal is not invariant under the given group action."""


class NotNormalInner(HopfcheckError):
    """The inner quantum subgroup of a crossed product is not normal."""


class KNotInKernel(HopfcheckError):
    """K is not a normal subgroup acting trivially."""


class CapExceeded(HopfcheckError):
    """An enumeration exceeded its hard cap."""
