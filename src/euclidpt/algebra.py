"""Exact arithmetic in the degree-2 truncation of the E2 enveloping algebra.

Generators u, v (translations) and J (rotation) obey

    [u, J] = i v,      [v, J] = -i u,      [u, v] = 0.

Elements are stored as complex coefficient vectors over the ten
normal-ordered monomials

    B = [1, u, v, J, u^2, v^2, uv, uJ, vJ, J^2]

with translation powers kept to the left of J powers.  Products are
normal-ordered with the rewrite rules Ju = uJ - iv and Jv = vJ + iu.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .envelope import Element, Envelope

# generator codes; the ordering fixes the normal form (u, v powers before J)
GENERATORS = ("u", "v", "J")
_U, _V, _J = range(3)

MONOMIALS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
             (2, 0, 0), (0, 2, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))
BASIS_LABELS = ("1", "u", "v", "J", "u2", "v2", "uv", "uJ", "vJ", "J2")
DIM = len(MONOMIALS)

# [J, u] = -i v and [J, v] = i u; u and v commute
ENVELOPE = Envelope([(_U,) * a + (_V,) * b + (_J,) * c for a, b, c in MONOMIALS],
                    {(_J, _U): {_V: -1j}, (_J, _V): {_U: 1j}})

# hermitian conjugation: u, v and J are self-adjoint, factors reverse
_DAGGER = ENVELOPE.map_table({g: [(1.0, g)] for g in range(3)}, reverse=True)


def _index(label):
    return BASIS_LABELS.index("1" if label == "one" else label)


class E2Element(Element):
    """Complex coefficient vector over the ten normal-ordered monomials."""

    envelope = ENVELOPE
    labels = BASIS_LABELS

    @classmethod
    def from_terms(cls, **terms):
        """Build from coefficients keyed by basis label, e.g. from_terms(J2=1, v=1j)."""
        c = np.zeros(DIM, dtype=complex)
        for label, value in terms.items():
            c[_index(label)] += value
        return cls(c)

    def _product(self, other):
        return multiply(self, other)

    def term(self, label):
        return complex(self.coeffs[_index(label)])

    def conjugate(self):
        return hermitian_conjugate(self)

    # -- serialization ---------------------------------------------------
    # schema: {"basis": "u,v,J-normal", "coeffs": [[re, im] x 10]}; exact round-trip

    def to_dict(self):
        return {"basis": "u,v,J-normal",
                "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs]}

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data):
        if data.get("basis") != "u,v,J-normal":
            raise ValueError(f"unknown basis tag {data.get('basis')!r}")
        coeffs = data["coeffs"]
        if len(coeffs) != DIM:
            raise ValueError(f"expected {DIM} coefficient pairs")
        return cls(np.array([complex(re, im) for re, im in coeffs]))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


# convenience singletons
ONE = E2Element.from_terms(one=1)
U = E2Element.from_terms(u=1)
V = E2Element.from_terms(v=1)
J = E2Element.from_terms(J=1)


def casimir():
    """u^2 + v^2; commutes with the whole algebra."""
    return E2Element.from_terms(u2=1, v2=1)


def multiply(a: E2Element, b: E2Element) -> E2Element:
    """Normal-ordered product; requires degree(a) + degree(b) <= 2."""
    return E2Element(ENVELOPE.multiply(a.coeffs, b.coeffs))


def hermitian_conjugate(a: E2Element) -> E2Element:
    """Adjoint under J† = J, u† = u, v† = v: conjugate coefficients, reverse factors."""
    return E2Element(ENVELOPE.apply_antilinear(_DAGGER, a.coeffs))


def is_hermitian(a: E2Element, tol: float = 1e-12) -> bool:
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return bool(np.max(np.abs(a.coeffs - hermitian_conjugate(a).coeffs)) <= tol)


def hermiticity_residual(a: E2Element) -> float:
    """max |coeff(a - a†)|, the quantitative version of is_hermitian."""
    return float(np.max(np.abs(a.coeffs - hermitian_conjugate(a).coeffs)))


@dataclass(frozen=True)
class PTSymmetryE2:
    """An antilinear symmetry: signed permutation of (u, v, J) plus conjugation."""

    tag: str
    action: dict  # generator code -> (sign, generator code)

    @functools.cached_property
    def table(self):
        """Normal-ordered image of each basis monomial, coefficients not yet conjugated."""
        return ENVELOPE.map_table({g: [image] for g, image in self.action.items()})


# the five antilinear symmetries; each row is (u, v, J) images
PT_SYMMETRIES = {
    "PT1": PTSymmetryE2("PT1", {_U: (-1, _U), _V: (-1, _V), _J: (-1, _J)}),
    "PT2": PTSymmetryE2("PT2", {_U: (+1, _U), _V: (+1, _V), _J: (-1, _J)}),
    "PT3": PTSymmetryE2("PT3", {_U: (+1, _V), _V: (+1, _U), _J: (+1, _J)}),
    "PT4": PTSymmetryE2("PT4", {_U: (-1, _U), _V: (+1, _V), _J: (+1, _J)}),
    "PT5": PTSymmetryE2("PT5", {_U: (+1, _U), _V: (-1, _V), _J: (+1, _J)}),
}


def _resolve(sym) -> PTSymmetryE2:
    if isinstance(sym, PTSymmetryE2):
        return sym
    try:
        return PT_SYMMETRIES[sym]
    except KeyError:
        raise ValueError(f"unknown symmetry tag {sym!r}") from None


def apply_pt(sym, a: E2Element) -> E2Element:
    """Apply the antilinear map: conjugate coefficients, map generators, re-order."""
    return E2Element(ENVELOPE.apply_antilinear(_resolve(sym).table, a.coeffs))


def build_hamiltonian(sym, mu) -> E2Element:
    """Most general PT-invariant bilinear for the given symmetry and nine real couplings.

    The i-placements per symmetry make every term invariant under
    apply_pt(sym, .) for real mu.
    """
    tag = _resolve(sym).tag
    m1, m2, m3, m4, m5, m6, m7, m8, m9 = [float(x) for x in mu]
    if tag == "PT1":
        return E2Element.from_terms(J2=m1, J=1j * m2, u=1j * m3, v=1j * m4,
                                    uJ=m5, vJ=m6, u2=m7, v2=m8, uv=m9)
    if tag == "PT2":
        return E2Element.from_terms(J2=m1, J=1j * m2, u=m3, v=m4,
                                    uJ=1j * m5, vJ=1j * m6, u2=m7, v2=m8, uv=m9)
    if tag == "PT3":
        return (E2Element.from_terms(J2=m1, J=m2)
                + E2Element.from_terms(u=m3 + 1j * m4, v=m3 - 1j * m4)
                + E2Element.from_terms(uJ=m5 + 1j * m6, vJ=m5 - 1j * m6)
                + E2Element.from_terms(v2=1j * m7 + m8, u2=-1j * m7 + m8, uv=m9))
    if tag == "PT4":
        return E2Element.from_terms(J2=m1, J=m2, u=1j * m3, v=m4,
                                    uJ=1j * m5, vJ=m6, u2=m7, v2=m8, uv=1j * m9)
    if tag == "PT5":
        return E2Element.from_terms(J2=m1, J=m2, u=m3, v=1j * m4,
                                    uJ=m5, vJ=1j * m6, u2=m7, v2=m8, uv=1j * m9)
    raise ValueError(f"unknown symmetry tag {tag!r}")


def commutator(a: E2Element, b: E2Element) -> E2Element:
    return multiply(a, b) - multiply(b, a)
