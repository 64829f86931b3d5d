"""Exception types shared across the package, and the ValueErrors of bad values and tags."""

import cmath


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


def check_finite(values):
    """Raise ValueError naming the first of {name: value} (real or complex) that is not finite."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def overflow_error(what, values):
    """The ValueError for `what` overflowing at the nonzero ones of {name: value}."""
    given = ", ".join(f"{name}={value!r}" for name, value in values.items() if value)
    return ValueError(f"{what} overflows floating point at {given}")


def unknown_tag(tag, algebra, known):
    """The ValueError for a symmetry tag of `algebra` that is not one of `known`."""
    return ValueError(f"unknown symmetry tag {tag!r}; {algebra} has {', '.join(known)}")
