"""Exception hierarchy.

Three failure families matter to callers (and to the CLI exit codes):
validation of inputs (bad matrices, malformed states, mismatched spaces),
numerical failures (a computation that did not meet its accuracy contract),
and requests for systems outside the three canonical ones.
"""


class SlaterKitError(Exception):
    """Base class for all package errors."""


class ValidationError(SlaterKitError):
    """Input fails a structural or normalization precondition."""


class NotAntisymmetricError(ValidationError):
    pass


class NotSymmetricError(ValidationError):
    pass


class OddDimensionError(ValidationError):
    pass


class ArityMismatchError(ValidationError):
    pass


class WrongKindError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class ThresholdOutOfRangeError(ValidationError):
    pass


class OutOfRangeError(ValidationError):
    pass


class NotAStateError(ValidationError):
    pass


class SpaceMismatchError(ValidationError):
    pass


class BadPartitionError(ValidationError):
    pass


class NotInRangeError(ValidationError):
    pass


class NotAnEdgeStateError(ValidationError):
    pass


class UnsupportedSystemError(SlaterKitError):
    """Operation defined only for the three canonical low-dimensional systems."""


class NumericalFailureError(SlaterKitError):
    """A numerical routine exceeded its reconstruction or accuracy tolerance."""
