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

import json

import numpy as np

from .envelope import Element, Envelope
from .errors import check_floats, closed_form, unknown_tag

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


class E2Element(Element):
    """Complex coefficient vector over the ten normal-ordered monomials."""

    envelope = ENVELOPE
    labels = BASIS_LABELS
    label_aliases = {"one": 0}

    @classmethod
    def from_terms(cls, **terms):
        """`Element.from_terms` with labels as keywords, e.g. from_terms(J2=1, v=1j)."""
        return super().from_terms(terms)

    def _product(self, other):
        return multiply(self, other)

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


# hermitian conjugation: u, v and J are self-adjoint, factors reverse
E2Element.dagger_table = ENVELOPE.map_table((U, V, J), reverse=True)
hermitian_conjugate = E2Element.hermitian_conjugate
hermiticity_residual = E2Element.hermiticity_residual
is_hermitian = E2Element.is_hermitian
commutator = E2Element.commutator


# the five antilinear symmetries, by the images of (u, v, J)
E2Element.pt_images = PT_SYMMETRIES = {"PT1": (-U, -V, -J), "PT2": (U, V, -J), "PT3": (V, U, J),
                                       "PT4": (-U, V, J), "PT5": (U, -V, J)}


def apply_pt(sym, a: E2Element) -> E2Element:
    """Apply the antilinear map: conjugate coefficients, map generators, re-order."""
    return a.apply_pt(sym)


_COUPLINGS = tuple(f"mu{i}" for i in range(1, 10))


def build_hamiltonian(sym, mu) -> E2Element:
    """Most general PT-invariant bilinear for the given symmetry and nine real couplings."""
    return E2Element(hamiltonian_coeffs(sym, mu))


def hamiltonian_coeffs(sym, mu) -> list:
    """The coefficients of `build_hamiltonian(sym, mu)` as ten Python complex numbers.

    The i-placements per symmetry make every term invariant under
    apply_pt(sym, .) for real mu.  Each coefficient is 0j + its term, as
    `E2Element.from_terms` stores it, so no part is -0.0.
    """
    m1, m2, m3, m4, m5, m6, m7, m8, m9 = check_floats(_COUPLINGS, mu)
    # basis order 1, u, v, J, u2, v2, uv, uJ, vJ, J2
    if sym == "PT1":
        terms = 0, 1j * m3, 1j * m4, 1j * m2, m7, m8, m9, m5, m6, m1
    elif sym == "PT2":
        terms = 0, m3, m4, 1j * m2, m7, m8, m9, 1j * m5, 1j * m6, m1
    elif sym == "PT3":
        terms = (0, m3 + 1j * m4, m3 - 1j * m4, m2, -1j * m7 + m8, 1j * m7 + m8, m9,
                 m5 + 1j * m6, m5 - 1j * m6, m1)
    elif sym == "PT4":
        terms = 0, 1j * m3, m4, m2, m7, m8, 1j * m9, 1j * m5, m6, m1
    elif sym == "PT5":
        terms = 0, m3, 1j * m4, m2, m7, m8, 1j * m9, m5, 1j * m6, m1
    else:
        raise unknown_tag(sym, "E2", PT_SYMMETRIES)
    return [0j + term for term in terms]


def completed_square(coeffs):
    """Coefficients (1, J, u2, v2, uv, J2) of `spectral.hill_form` of ten coefficients, or None.

    The coefficients are Python complex numbers, as `hamiltonian_coeffs` or
    an element's `coeffs.tolist()` give them; a square that overflows
    raises ValueError.
    """
    return closed_form("the completed square", zip(BASIS_LABELS, coeffs), _square,
                       *coeffs) or None


def _square(c1, cu, cv, cj, cu2, cv2, cuv, cuj, cvj, c):
    """`completed_square`'s six coefficients, or () if there is none."""
    if c == 0:
        return ()
    a, b, d = cuj / (2 * c), cvj / (2 * c), cj / (2 * c)
    if cu - c * (1j * b + 2 * a * d) != 0 or cv - c * (-1j * a + 2 * b * d) != 0:
        return ()
    # 0j + x, as `from_terms` stores a term: -0.0 parts become 0.0
    return (0j + c1, 0j + cj, 0j + (cu2 - c * a * a), 0j + (cv2 - c * b * b),
            0j + (cuv - 2 * c * a * b), 0j + c)
