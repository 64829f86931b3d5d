"""Exception types shared across the package, and the one ValueError for an overflow."""


class EuclidPTError(Exception):
    """Base class for all package errors."""


class DegreeOverflow(EuclidPTError):
    """A product would leave the degree-2 truncation of the enveloping algebra."""


class MapUndefined(EuclidPTError):
    """The Dyson map has no real solution; carries the offending coth right-hand side.

    ``rhs`` lies in [-1, 1], which is the signature of a (potentially
    PT-broken) parameter region.
    """

    def __init__(self, rhs, message=None):
        self.rhs = rhs
        super().__init__(message or f"no real Dyson parameter: coth equation rhs {rhs!r} in [-1, 1]")


class DegenerateCouplings(EuclidPTError):
    """A coupling combination appearing in a denominator vanishes."""


class ConvergenceFailure(EuclidPTError):
    """An eigenvalue computation did not converge under truncation refinement."""


class TrackingAmbiguity(EuclidPTError):
    """Level continuation could not be disambiguated even after step refinement."""


def overflow_error(what, values):
    """The ValueError for `what` overflowing at the nonzero ones of {name: value}."""
    given = ", ".join(f"{name}={value!r}" for name, value in values.items() if value)
    return ValueError(f"{what} overflows floating point at {given}")
