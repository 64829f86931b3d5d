"""Exception types shared across the package, and the ValueErrors of bad values and tags."""

import cmath
import operator

import numpy as np


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


class GaugeOverflow(ValueError):
    """|psi|^2 overflows floating point under a gauge factor of modulus up to exp(rho)."""

    def __init__(self, rho):
        super().__init__(f"|psi|^2 overflows floating point: its gauge reaches exp({rho!r})")


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


def check_integer(name, value):
    """Raise ValueError unless `value` is an integer, a Python or a numpy one.

    `operator.index` tells in about 60 ns, against 0.7 us for `isinstance(value,
    numbers.Integral)` on a Python int; every Hill solve checks its truncation.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_angles(name, theta):
    """`theta` as a float array, or ValueError unless it holds at least one angle, all finite."""
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        raise ValueError(f"{name} must hold at least one angle")
    return check_finite_array(name, theta)


def check_finite_array(name, values):
    """`values` as an array, or ValueError naming its first entry that is not finite."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    return values


def overflow_error(what, values):
    """The ValueError for `what` overflowing at the nonzero ones of {name: value}."""
    given = ", ".join(f"{name}={value!r}" for name, value in values.items() if value)
    return ValueError(f"{what} overflows floating point at {given}")


def unknown_tag(tag, algebra, known):
    """The ValueError for a symmetry tag of `algebra` that is not one of `known`."""
    return ValueError(f"unknown symmetry tag {tag!r}; {algebra} has {', '.join(known)}")
