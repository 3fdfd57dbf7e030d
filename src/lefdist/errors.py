"""Exception hierarchy.

Every error raised for a violated precondition derives from
:class:`PreconditionError`, so callers (and the CLI exit-code logic) can
distinguish domain errors from I/O and parse failures.  Messages always name
the violated condition.
"""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class InvalidLieAlgebraError(PreconditionError):
    """Structure constants fail antisymmetry or the Jacobi identity."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))


class NotSimpleError(PreconditionError):
    """A fixed point or closed orbit is not (leafwise) simple."""


class EnumerationLimitError(PreconditionError):
    """Fixed-point enumeration would exceed the hard cap."""


class InconsistencyError(RuntimeError):
    """Two independent computation paths disagreed.  Never expected; the CLI exits 3."""
