"""Exception hierarchy shared across the package."""


class MpincError(Exception):
    """Base class for all package errors."""


class ParameterError(MpincError):
    """Invalid or inconsistent parameters for a construction."""


class ShapeError(MpincError):
    """Matrix shapes incompatible with the requested operation."""


class NotReducibleError(MpincError):
    """Rational cannot be reduced mod p because p divides the denominator."""


class InvalidFieldError(MpincError):
    """Field order is not a prime power."""


class SingularError(MpincError):
    """Matrix required to be invertible is singular."""


class DesignParseError(MpincError):
    """Malformed design file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CharacteristicError(MpincError):
    """Closed form is not admissible in the requested characteristic."""
