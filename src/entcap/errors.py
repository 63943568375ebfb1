"""Exception types shared across the library."""


class EntcapError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(EntcapError, ValueError):
    """Operand shape is incompatible with the operation."""


class NotUnitaryError(EntcapError, ValueError):
    """Matrix fails the unitarity check within tolerance."""


class WrongPartitionError(EntcapError, ValueError):
    """Qubit ownership labels do not satisfy the operation's requirements."""


class NotCanonicalError(EntcapError, ValueError):
    """Interaction parameters violate pi/4 >= a1 >= a2 >= |a3| >= 0."""


class NotNormalizedError(EntcapError, ValueError):
    """Coefficient vector does not have unit norm."""


class ConvergenceError(EntcapError, RuntimeError):
    """Numerical optimization failed to converge."""


class UnsupportedMeasureError(EntcapError, ValueError):
    """Measure is undefined for the given register shape."""


class ZeroCapacityError(EntcapError, ValueError):
    """Denominator capacity is numerically zero."""


class MatrixParseError(EntcapError, ValueError):
    """Matrix file is malformed."""
