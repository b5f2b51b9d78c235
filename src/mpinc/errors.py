"""Exception hierarchy shared across the package."""


class MpincError(Exception):
    """Base class for all package errors."""


class ParameterError(MpincError):
    """Invalid or inconsistent parameters for a construction."""


class ShapeError(MpincError):
    """Matrix shapes incompatible with the requested operation."""


class NotReducibleError(MpincError):
    """Cannot reduce mod p: p divides a rational's denominator, or a closed
    form is not admissible in characteristic p."""


class InvalidFieldError(MpincError):
    """Field order is not a prime power."""


class DesignParseError(MpincError):
    """Malformed design file; names the file and carries the offending
    1-based line number."""

    def __init__(self, message, line, source):
        super().__init__(f"{source}: line {line}: {message}")
        self.line = line
