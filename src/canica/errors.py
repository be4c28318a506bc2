"""Exception hierarchy.

Three branches map onto the CLI exit codes: configuration/usage problems
(exit 1), data and dimensionality problems (exit 2), numerical failures
(exit 3).
"""


class CanicaError(Exception):
    """Base class for all package errors."""


class ConfigError(CanicaError):
    """Invalid configuration value or unusable combination of options."""


class DataError(CanicaError):
    """Problem with input data: shape, content, or file format."""


class EmptyMatrix(DataError):
    """A matrix with zero rows or columns where data is required."""


class BadMagic(DataError):
    """File does not start with a valid CNIC1 header."""


class ShapeOverflow(DataError):
    """Declared matrix shape exceeds the supported element count."""


class TruncatedPayload(DataError):
    """File payload size does not match the declared shape."""


class NonFiniteValue(DataError):
    """NaN or infinity encountered where finite values are required."""


class BadDimension(DataError):
    """Incompatible or out-of-range dimensions."""


class EmptyGroup(DataError):
    """Fewer than two usable subjects for a group-level operation."""


class TooFewSubjects(DataError):
    """Not enough subjects for a split-half analysis."""


class DegenerateInput(DataError):
    """Input carries no usable variation (constant or all-zero data)."""


class EmptyNoise(DegenerateInput):
    """A subject's noise residual has no energy above the rank rule's dead level."""


class NotWhitened(DataError):
    """Pattern rows are not orthonormal where whiteness is required."""


class NumericalError(CanicaError):
    """Numerical routine failed to produce a usable result."""


class NumericalFailure(NumericalError):
    """A decomposition did not converge or returned invalid values."""


class SingularMatrix(NumericalError):
    """A matrix that must be invertible is singular."""


def exit_code(exc: BaseException) -> int:
    """Map an exception to the CLI exit code convention."""
    if isinstance(exc, ConfigError):
        return 1
    if isinstance(exc, DataError):
        return 2
    if isinstance(exc, NumericalError):
        return 3
    return 1
