"""The rank-3 Euclidean algebra in the (J_z, J_+, J_-, P_z, P_+, P_-) basis.

Nonvanishing brackets:

    [Jz, J+-] = +-2 J+-     [J+, J-] = Jz      [Jz, P+-] = +-2 P+-
    [J+-, Pz] = -P+-        [J+-, P-+] = -2 Pz

Provides degree-2 normal-ordered arithmetic (translations left of
rotations), the closed-form adjoint action of
eta = exp(lz Jz + lp J+ + lm J- + kz Pz + kp P+ + km P-), the four
antilinear symmetries, and a faithful 4x4 matrix representation used as a
verification oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .envelope import Element, Envelope

GENERATORS = ("Pz", "Pp", "Pm", "Jz", "Jp", "Jm")
_G = {name: i for i, name in enumerate(GENERATORS)}

# [a, b] for generator names, as {generator: coefficient}; absent pairs commute
_BRACKETS = {
    ("Jz", "Jp"): {"Jp": 2.0}, ("Jz", "Jm"): {"Jm": -2.0}, ("Jp", "Jm"): {"Jz": 1.0},
    ("Jz", "Pp"): {"Pp": 2.0}, ("Jz", "Pm"): {"Pm": -2.0},
    ("Jp", "Pz"): {"Pp": -1.0}, ("Jm", "Pz"): {"Pm": -1.0},
    ("Jp", "Pm"): {"Pz": -2.0}, ("Jm", "Pp"): {"Pz": -2.0},
}


def bracket(a: str, b: str) -> dict:
    """[a, b] as {generator: coefficient}."""
    if (a, b) in _BRACKETS:
        return dict(_BRACKETS[(a, b)])
    if (b, a) in _BRACKETS:
        return {g: -c for g, c in _BRACKETS[(b, a)].items()}
    return {}


# monomial basis: (), single generators, then sorted pairs (i <= j)
MONOMIALS = [()] + [(i,) for i in range(6)] + \
    [(i, j) for i in range(6) for j in range(i, 6)]
DIM = len(MONOMIALS)

ENVELOPE = Envelope(MONOMIALS, {(a, b): {_G[g]: c for g, c in bracket(ga, gb).items()}
                                for a, ga in enumerate(GENERATORS)
                                for b, gb in enumerate(GENERATORS[:a])})


def monomial_label(m):
    return "1" if not m else "*".join(GENERATORS[i] for i in m)


_LABEL_INDEX = {monomial_label(m): k for k, m in enumerate(MONOMIALS)}


def _label_index(label):
    """Basis index of a label; a reversed pair is rejected, as it differs by its bracket."""
    try:
        return _LABEL_INDEX[label]
    except KeyError:
        raise ValueError(f"unknown E3 monomial label {label!r}: a word is written in "
                         f"the order {' '.join(GENERATORS)}") from None


class E3Element(Element):
    envelope = ENVELOPE
    labels = tuple(monomial_label(m) for m in MONOMIALS)

    @classmethod
    def from_terms(cls, terms: dict):
        """Build from {"Jp*Jp": coeff, "Pz": ..., "1": ...}."""
        c = np.zeros(DIM, dtype=complex)
        for label, value in terms.items():
            c[_label_index(label)] += value
        return cls(c)

    def _product(self, other):
        return multiply(self, other)

    def term(self, label):
        return complex(self.coeffs[_label_index(label)])


def generator(name: str) -> E3Element:
    return E3Element.from_terms({name: 1.0})


ONE_E3 = E3Element.from_terms({"1": 1.0})


def multiply(a: E3Element, b: E3Element) -> E3Element:
    return E3Element(ENVELOPE.multiply(a.coeffs, b.coeffs))


def _images(action):
    """Each generator's image under a map given as name -> [(coeff, name)]."""
    return [sum((c * generator(h) for c, h in action[g]), E3Element.zero()) for g in GENERATORS]


# adjoint convention induced by Hermitian J_i, P_i:
# Jz+ = Jz, (J+-)+ = J-+, Pz+ = Pz, (P+-)+ = -P-+
E3Element.dagger_table = ENVELOPE.map_table(_images(
    {"Jz": [(1.0, "Jz")], "Jp": [(1.0, "Jm")], "Jm": [(1.0, "Jp")],
     "Pz": [(1.0, "Pz")], "Pp": [(-1.0, "Pm")], "Pm": [(-1.0, "Pp")]}), reverse=True)
hermitian_conjugate = E3Element.hermitian_conjugate
hermiticity_residual = E3Element.hermiticity_residual
is_hermitian = E3Element.is_hermitian
commutator = E3Element.commutator


# ---------------------------------------------------------------------------
# antilinear symmetries, expressed in the (z, +, -) basis
# ---------------------------------------------------------------------------
# Each map lists gen -> [(coeff, gen)]; the element's own coefficients are
# conjugated, the listed image coefficients are not.  PT3 and PT4 are the
# bracket-consistent completions of the componentwise rules (the J-sector
# must permute the same axes as the P-sector for the mixed brackets to
# survive the antilinear map).

PT_ACTIONS_E3 = {
    "PT1": {"Jz": [(-1, "Jz")], "Jp": [(-1, "Jm")], "Jm": [(-1, "Jp")],
            "Pz": [(-1, "Pz")], "Pp": [(+1, "Pm")], "Pm": [(+1, "Pp")]},
    "PT2": {"Jz": [(-1, "Jz")], "Jp": [(-1, "Jm")], "Jm": [(-1, "Jp")],
            "Pz": [(+1, "Pz")], "Pp": [(-1, "Pm")], "Pm": [(-1, "Pp")]},
    "PT3": {"Jz": [(+1, "Jz")], "Jp": [(-1j, "Jp")], "Jm": [(+1j, "Jm")],
            "Pz": [(+1, "Pz")], "Pp": [(-1j, "Pp")], "Pm": [(+1j, "Pm")]},
    "PT4": {"Jz": [(-1, "Jz")], "Jp": [(+1, "Jm")], "Jm": [(+1, "Jp")],
            "Pz": [(-1, "Pz")], "Pp": [(-1, "Pm")], "Pm": [(-1, "Pp")]},
}
E3Element.pt_images = {tag: _images(action) for tag, action in PT_ACTIONS_E3.items()}


def apply_pt_e3(tag: str, a: E3Element) -> E3Element:
    """Antilinear image: conjugate the element's coefficients, substitute the
    generator images, re-normal-order."""
    return a.apply_pt(tag)


# ---------------------------------------------------------------------------
# Dyson map adjoint action
# ---------------------------------------------------------------------------

# The combinations (c - s)/omega^2 and (cosh 2w - s)/omega^2 lose all digits
# to cancellation near omega = 0; below this cutoff the direct formulas carry
# error ~ eps/omega^4, so the series window must extend to omega ~ 0.05 where
# both branches are accurate to ~1e-11.
_OMEGA_CUTOFF = 5e-2


@dataclass(frozen=True)
class DysonParamsE3:
    lambda_z: float = 0.0
    lambda_plus: float = 0.0
    lambda_minus: float = 0.0
    kappa_z: float = 0.0
    kappa_plus: float = 0.0
    kappa_minus: float = 0.0

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")

    def as_dict(self):
        return {"lambda_z": self.lambda_z, "lambda_plus": self.lambda_plus,
                "lambda_minus": self.lambda_minus, "kappa_z": self.kappa_z,
                "kappa_plus": self.kappa_plus, "kappa_minus": self.kappa_minus}


def _omega_functions(w2: float):
    """c, s, A = (c - s)/w^2, B = (cosh 2w - s)/w^2 as real, even functions of w.

    w^2 = lambda_z^2 + lambda_+ lambda_- may be negative (w imaginary); the
    combinations stay real.  Near w = 0 the series keeps them finite.
    """
    if abs(w2) < _OMEGA_CUTOFF ** 2:
        c = 1.0 + w2 * (1.0 / 3.0 + w2 * (2.0 / 45.0 + w2 / 315.0))
        s = 1.0 + w2 * (2.0 / 3.0 + w2 * (2.0 / 15.0 + w2 * 4.0 / 315.0))
        a_comb = -1.0 / 3.0 - w2 * (4.0 / 45.0 + w2 * (1.0 / 105.0 + w2 * 8.0 / 14175.0))
        b_comb = 4.0 / 3.0 + w2 * (8.0 / 15.0 + w2 * (8.0 / 105.0 + w2 * 16.0 / 2835.0))
        return c, s, a_comb, b_comb
    w = complex(w2) ** 0.5
    cosh2w = np.cosh(2 * w)
    c = complex((cosh2w - 1.0) / (2.0 * w2))
    s = complex(np.sinh(2 * w) / (2.0 * w))
    a_comb = complex((c - s) / w2)
    b_comb = complex((cosh2w - s) / w2)
    return c.real, s.real, a_comb.real, b_comb.real


@dataclass(frozen=True)
class E3AdjointTable:
    """Adjoint-action coefficients: columns[g][h] = coefficient of h in eta g eta^{-1}."""

    params: DysonParamsE3
    columns: dict
    scalars: dict

    def image(self, gen_name: str) -> E3Element:
        return E3Element.from_terms(self.columns[gen_name])

    def as_matrix(self) -> np.ndarray:
        """6x6 matrix on the generator space, ordered like GENERATORS."""
        m = np.zeros((6, 6))
        for g, col in self.columns.items():
            for h, coeff in col.items():
                m[_G[h], _G[g]] = coeff
        return m

    def to_json(self) -> str:
        return json.dumps({"params": self.params.as_dict(),
                           "scalars": self.scalars,
                           "columns": self.columns}, sort_keys=True)


def e3_adjoint(p: DysonParamsE3) -> E3AdjointTable:
    """Closed-form adjoint coefficients of eta on all six generators.

    Raises ValueError when a coefficient overflows floating point."""
    lz, lp, lm = p.lambda_z, p.lambda_plus, p.lambda_minus
    kz, kp, km = p.kappa_z, p.kappa_plus, p.kappa_minus
    w2 = lz * lz + lp * lm
    with np.errstate(over="ignore", invalid="ignore"):
        c, s, A, B = _omega_functions(w2) if math.isfinite(w2) else (math.nan,) * 4
    wt2 = 2.0 * lz * lz + lp * lm
    mu = kz * lz + kp * lm - km * lp
    mut = 2.0 * kz * lz + kp * lm - km * lp
    nu = kp * lz * lm - kz * lp * lm - km * lz * lp

    columns = {
        "Pz": {"Pz": 1.0 + 2.0 * c * lp * lm,
               "Pp": -c * lz * lp - s * lp,
               "Pm": +c * lz * lm - s * lm},
        "Pp": {"Pz": -2.0 * c * lz * lm - 2.0 * s * lm,
               "Pp": 1.0 + (2.0 * lz * lz + lp * lm) * c + 2.0 * s * lz,
               "Pm": c * lm * lm},
        "Pm": {"Pz": +2.0 * c * lz * lp - 2.0 * s * lp,
               "Pp": c * lp * lp,
               "Pm": 1.0 + (2.0 * lz * lz + lp * lm) * c - 2.0 * s * lz},
        "Jz": {"Jz": 1.0 + 2.0 * c * lp * lm,
               "Jp": -2.0 * c * lz * lp - 2.0 * s * lp,
               "Jm": -2.0 * c * lz * lm + 2.0 * s * lm,
               "Pz": 4.0 * ((lm * kp - lp * km) * c - lp * lm * mu * A),
               "Pp": c * (lp * kz - 2.0 * lz * kp) - 2.0 * s * (kp + lp * kz)
                     + lp * (2.0 * nu * A - mu * B),
               "Pm": c * (-lm * kz - 2.0 * lz * km) + 2.0 * s * (km + lm * kz)
                     + lm * (-2.0 * nu * A - mu * B)},
        "Jp": {"Jz": -s * lm - c * lz * lm,
               "Jp": 1.0 + wt2 * c + 2.0 * s * lz,
               "Jm": -c * lm * lm,
               "Pz": c * (lm * kz + 2.0 * lz * km) + 2.0 * s * (km - lm * kz)
                     + lm * (2.0 * nu * A - mu * B),
               "Pp": c * mut + s * kz - mu * wt2 * A + lz * mu * B,
               "Pm": -2.0 * c * lm * km - mu * lm * lm * A},
        "Jm": {"Jz": +s * lp - c * lz * lp,
               "Jp": -c * lp * lp,
               "Jm": 1.0 + wt2 * c - 2.0 * s * lz,
               "Pz": c * (lp * kz - 2.0 * lz * kp) + 2.0 * s * (kp - lp * kz)
                     + lp * (2.0 * nu * A + mu * B),
               "Pp": -2.0 * c * lp * kp + mu * lp * lp * A,
               "Pm": -c * mut + s * kz + mu * wt2 * A + lz * mu * B},
    }
    scalars = {"omega_sq": w2, "omega_tilde_sq": wt2, "mu": mu, "mu_tilde": mut,
               "nu": nu, "c": c, "s": s}
    if not all(map(math.isfinite, [*scalars.values(),
                                   *(v for col in columns.values() for v in col.values())])):
        raise ValueError(f"adjoint table is not finite at omega^2 = {w2!r}: "
                         "the Dyson exponents are too large")
    return E3AdjointTable(params=p, columns=columns, scalars=scalars)


def build_h_tilde_pt1(mu) -> E3Element:
    """General bilinear in the complement generators {J+, J-, Pz} of the
    {Jz, P+, P-} subalgebra, with the i-placements of the antilinear family."""
    m1, m2, m3, m4, m5, m6, m7, m8, m9 = [float(x) for x in mu]
    return E3Element.from_terms({
        "Jp*Jp": m1, "Jm*Jm": m2, "Pz*Pz": m3,
        "Pz*Jp": m4, "Pz*Jm": m5, "Jp*Jm": m6,
        "Jp": 1j * m7, "Jm": 1j * m8, "Pz": 1j * m9,
    })


def transform_h_tilde(p: DysonParamsE3, element: E3Element) -> E3Element:
    """eta . eta^{-1} of a degree-2 element via the adjoint table."""
    table = e3_adjoint(p)
    images = [table.image(g) for g in GENERATORS]
    return E3Element(ENVELOPE.substitute(images, element.coeffs))


# ---------------------------------------------------------------------------
# 4x4 defining representation (rotation block + translation column), scaled
# to satisfy the (z, +, -) brackets exactly; used as the verification oracle
# ---------------------------------------------------------------------------

def defining_matrices() -> dict:
    eps = np.zeros((3, 3, 3))
    for a, b, c, sign in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                          (2, 1, 0, -1), (0, 2, 1, -1), (1, 0, 2, -1)):
        eps[a, b, c] = sign

    def lmat(j):
        m = np.zeros((4, 4), dtype=complex)
        m[:3, :3] = -1j * eps[j]
        return m

    def pmat(j):
        m = np.zeros((4, 4), dtype=complex)
        m[j, 3] = 1.0
        return m

    return {"Jz": 2.0 * lmat(0),
            "Jp": lmat(1) + 1j * lmat(2),
            "Jm": lmat(1) - 1j * lmat(2),
            "Pz": pmat(0),
            "Pp": pmat(1) + 1j * pmat(2),
            "Pm": -pmat(1) + 1j * pmat(2)}
