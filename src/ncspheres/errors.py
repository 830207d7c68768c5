"""Error taxonomy shared across the package.

Every failure mode that callers are expected to handle gets its own type;
generic ValueError/TypeError are reserved for programming errors.
"""


class NCSpheresError(Exception):
    """Base class for all package errors."""


class MalformedNumber(NCSpheresError):
    """A numeric literal could not be parsed."""


class ZeroDenominator(NCSpheresError):
    """A rational literal had denominator zero."""


class ParamsNotOnSphere(NCSpheresError):
    """Deformation parameters do not satisfy (u0)^2 + (u1)^2 + (u2)^2 = 1."""


class NotCentral(NCSpheresError):
    """An element assumed central fails to commute with a generator."""


class NotAGroebnerBasis(NCSpheresError):
    """A relation that quotient() refuses: it keeps no lead modulo the earlier
    relations, or its lead shares a generator with an earlier lead."""


class DegreeOverflow(NCSpheresError):
    """A computation exceeded the configured total-degree cap."""


class NotUnitaryEnough(NCSpheresError):
    """A matrix fails its unitarity check: UU* = U*U is not a multiple of 1."""


class InvalidSpec(NCSpheresError):
    """A run request (CLI or library) is malformed."""

