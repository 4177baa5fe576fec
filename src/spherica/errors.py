"""Exception types shared across the package, and the one check that every
integer argument (a size, degree, count or seed) passes."""

import operator


class SphericaError(Exception):
    """Base class for every error raised by this library."""


class DomainError(SphericaError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ShapeError(DomainError):
    """Paired arguments have mismatched dimensions."""


class DegeneracyError(DomainError):
    """Coincident squared entries.

    Determinant forms are 0/0 at such points; callers should switch to a
    series path, which handles degeneracies without division.
    """


class RangeError(SphericaError, OverflowError):
    """A value exceeds what can be represented safely in double precision."""


class ConvergenceError(SphericaError, RuntimeError):
    """A truncated series failed to certify the requested tolerance.

    The partial sum reached is available as ``partial`` and the last
    certified error bound (possibly infinite) as ``abs_error``.
    """

    def __init__(self, message, partial=None, abs_error=None):
        super().__init__(message)
        self.partial = partial
        self.abs_error = abs_error


class ValidationError(SphericaError, ValueError):
    """A serialized parameter object violates its schema."""


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int.  Integers (anything ``operator.index`` takes,
    numpy integers too) and floats with an integral value pass; a fraction,
    inf or nan raises DomainError, as does a value below ``minimum``."""
    try:
        n = operator.index(value)
    except TypeError:
        if not (isinstance(value, float) and value.is_integer()):
            raise DomainError(f"{name} must be an integer, got {value!r}") from None
        n = int(value)
    if minimum is not None and n < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    return n
