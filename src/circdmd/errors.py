"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ToolkitError):
    """A CSV cell could not be parsed as a number."""

    def __init__(self, row: int, col: int, value: str = ""):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"non-numeric cell {value!r} at row {row}, column {col}")


class ShapeError(ToolkitError):
    """Matrix dimensions do not conform."""


class DataError(ToolkitError):
    """Invalid data values (NaN/Inf or otherwise unusable entries)."""

    def __init__(self, message: str, coordinates=None):
        self.coordinates = list(coordinates or [])
        if self.coordinates:
            message = f"{message}: {self.coordinates}"
        super().__init__(message)


class RangeError(ToolkitError):
    """Scalar argument outside its allowed range."""


class KindError(ToolkitError):
    """Operation applied to the wrong embedding kind."""


class RankDeficiencyError(ToolkitError):
    """Requested rank includes numerically zero singular values."""


class NumericalError(ToolkitError):
    """A numerical routine failed to produce a usable result."""


class SingularBackwardError(NumericalError):
    """The backward propagator is singular and cannot be inverted."""


class DegenerateSeriesError(ToolkitError):
    """A series has zero variance where variability is required."""


class ConfigError(ToolkitError):
    """Invalid configuration value or combination."""


class UsageError(ToolkitError):
    """Invalid command-line usage."""
