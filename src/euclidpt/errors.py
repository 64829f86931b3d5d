"""Exception types shared across the package, and the ValueErrors of bad values and tags."""

import cmath
import math
import operator
import sys

import numpy as np


_BEYOND = "an int beyond the floats"
_COMPLEX_TYPES = {complex, np.complex64, np.complex128, np.clongdouble}


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
    """The values of {name: value}, each a real or complex number: ValueError names the first
    that is not finite, an int beyond the floats included.  A numpy scalar is replaced by its
    Python number in place, so that closed forms of the values raise or return inf where
    numpy's arithmetic would warn."""
    for name, value in values.items():
        if isinstance(value, np.generic):
            values[name] = value = value.item()
        try:
            if cmath.isfinite(value):
                continue
        except OverflowError:   # an int too large for a float
            pass
        raise ValueError(f"{name} must be finite, got {_shown(value)}")
    return values.values()


def check_integer(name, value, least=-sys.maxsize):
    """`value` as an int, or ValueError unless it is an integer, a Python or a numpy one, from
    `least` to sys.maxsize, the largest size or index numpy takes.

    `operator.index` tells in about 60 ns, against 0.7 us for `isinstance(value,
    numbers.Integral)` on a Python int; every Hill solve checks its truncation.
    """
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {_shown(value)}") from None
    if index < least:
        raise ValueError(f"{name} must be at least {least}, got {_shown(value)}")
    if index > sys.maxsize:
        raise ValueError(f"{name} must be at most {sys.maxsize}, got {_shown(value)}")
    return index


def check_floats(names, values):
    """`values` as a list of floats, or a ValueError naming, by `names`, the first of them that
    is complex or not finite.  Builders that take a sequence of couplings call it on every
    point of a sweep, so it builds no dict unless a value fails; the complex types are looked
    up before `float`, which warns and drops the imaginary part of a numpy complex."""
    try:
        if _COMPLEX_TYPES.isdisjoint(map(type, values)):
            floats = list(map(float, values))
            if math.isfinite(sum(floats)) or all(map(math.isfinite, floats)):   # see `closed_form`
                return floats
    except (OverflowError, TypeError):   # an int too large for a float, a complex subclass
        pass
    for name, value in zip(names, values):
        _check_real(name, value)
    check_finite(dict(zip(names, values)))


def _check_real(name, value):
    """ValueError if `value` is a complex number, a Python or a numpy one."""
    if isinstance(value, (complex, np.complexfloating)):
        raise ValueError(f"{name} must be real, got {_shown(value)}")


def check_tolerance(name, tol):
    """ValueError unless `tol` is a real number >= 0 (inf included; nan is refused)."""
    _check_real(name, tol)
    if not tol >= 0:
        raise ValueError(f"{name} must be nonnegative, got {_shown(tol)}")


def check_angles(name, theta):
    """`theta` as a float array, or ValueError unless it holds at least one angle, all real and
    finite."""
    theta = check_finite_array(name, theta)
    if theta.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {theta.dtype} values")
    theta = theta.astype(float, copy=False)
    if theta.size == 0:
        raise ValueError(f"{name} must hold at least one angle")
    return theta


def check_finite_array(name, values):
    """`values` as an array, or ValueError naming its first entry that is not finite, an int
    beyond the floats included."""
    values = np.asarray(values)
    if values.dtype == object:   # Python ints beyond int64
        try:
            values = values.astype(float)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got {_BEYOND}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    return values


def closed_form(what, inputs, formula, *args):
    """formula(*args), a sequence of numbers; if it raises ArithmeticError (a float's ** and
    math.cosh raise OverflowError, 1/tanh(0) ZeroDivisionError) or returns a number that is
    not finite, `check_finite`'s error for `inputs`, (name, value) pairs, or else their
    `overflow_error` of `what`.  Python-number args, as `check_finite` leaves them, warn
    nothing."""
    try:
        out = formula(*args)
        # a sum is finite only if every entry is; one that overflows checks them one by one
        if cmath.isfinite(sum(out)) or all(map(cmath.isfinite, out)):
            return out
    except ArithmeticError:
        pass
    check_finite(inputs := dict(inputs))
    raise overflow_error(what, inputs) from None


class overflow_guard(np.errstate):
    """`with overflow_guard(what, inputs):` runs numpy arithmetic under a raising `np.errstate`.
    An overflow or an invalid operation in it raises `overflow_error(what, inputs())` instead
    of numpy's FloatingPointError; `inputs`, a callable giving {name: value}, runs only then."""

    __slots__ = ("_what", "_inputs")

    def __init__(self, what, inputs):
        super().__init__(over="raise", invalid="raise")
        self._what, self._inputs = what, inputs

    def __exit__(self, kind, error, trace):
        super().__exit__(kind, error, trace)
        if isinstance(error, FloatingPointError):
            raise overflow_error(self._what, self._inputs()) from None


def overflow_error(what, values):
    """The ValueError for `what` overflowing at the nonzero ones of {name: value}, if any."""
    given = ", ".join(f"{name}={_shown(value)}" for name, value in values.items() if value)
    return ValueError(f"{what} overflows floating point" + (f" at {given}" if given else ""))


def _shown(value):
    """`value` as a message prints it: a numpy scalar as its Python number, in short an int
    too large for a float."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return _BEYOND
    return repr(value)


def unknown_tag(tag, algebra, known):
    """The ValueError for a symmetry tag of `algebra` that is not one of `known`."""
    return ValueError(f"unknown symmetry tag {tag!r}; {algebra} has {', '.join(known)}")
