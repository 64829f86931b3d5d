"""Degree-2 truncated enveloping algebras (E2 and E3) over sorted generator words.

Words are normal-ordered by bubble-sorting out-of-order neighbours, each swap
spawning their bracket; products and antilinear maps use tables built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegreeOverflow

MAX_DEGREE = 2


class Envelope:
    """Normal-ordered arithmetic over ``words``; ``brackets`` maps each out-of-order
    pair (a, b), a > b, that does not commute to [a, b] as {code: coefficient}."""

    def __init__(self, words, brackets):
        self.words = tuple(words)
        self.index = {w: k for k, w in enumerate(self.words)}
        self.dim = len(self.words)
        self.brackets = brackets
        self.product = {(i, j): self.straighten(w1 + w2)
                        for i, w1 in enumerate(self.words)
                        for j, w2 in enumerate(self.words)
                        if len(w1) + len(w2) <= MAX_DEGREE}

    def straighten(self, word, coeff=1.0 + 0j):
        """Normal-order coeff * word, returning {basis index: coefficient}."""
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a > b:
                terms = [(word[:i] + (b, a) + word[i + 2:], coeff)]
                terms += [(word[:i] + (g,) + word[i + 2:], coeff * c)
                          for g, c in self.brackets.get((a, b), {}).items()]
                return self._expand(terms)
        if len(word) > MAX_DEGREE:
            raise DegreeOverflow(f"monomial of degree {len(word)} outside the truncation")
        return {self.index[word]: coeff}

    def _expand(self, terms):
        out = {}
        for word, coeff in terms:
            for k, c in self.straighten(word, coeff).items():
                out[k] = out.get(k, 0) + c
        return out

    def degree(self, support):
        """Highest word length among the basis indices in ``support``."""
        return max((len(self.words[i]) for i in support), default=0)

    def multiply(self, ca, cb):
        """Normal-ordered product, summed in loops: results depend bitwise on the order."""
        support_a, support_b = np.flatnonzero(ca).tolist(), np.flatnonzero(cb).tolist()
        da, db = self.degree(support_a), self.degree(support_b)
        if da + db > MAX_DEGREE:
            raise DegreeOverflow(f"product of degrees {da} and {db} outside the truncation")
        out = np.zeros(self.dim, dtype=complex)
        for i in support_a:
            for j in support_b:
                ab = ca[i] * cb[j]
                for k, c in self.product[i, j].items():
                    out[k] += ab * c
        return out

    def map_table(self, images, reverse=False):
        """Normal-ordered image of each basis word when generator g maps to the
        sum of the (coefficient, code) terms ``images[g]``; ``reverse`` reverses
        the factors, for an anti-homomorphism."""
        table = []
        for word in self.words:
            terms = [((), 1.0 + 0j)]
            for g in (word[::-1] if reverse else word):
                terms = [(w + (h,), c * ch) for w, c in terms for ch, h in images[g]]
            table.append(self._expand(terms))
        return table

    def apply_antilinear(self, table, coeffs):
        """Conjugate the coefficients, then map each basis word through ``table``."""
        out = np.zeros(self.dim, dtype=complex)
        for i in np.flatnonzero(coeffs).tolist():
            conj = np.conj(coeffs[i])
            for k, c in table[i].items():
                out[k] += conj * c
        return out

    def substitute(self, images, coeffs):
        """Coefficients of sum_i coeffs[i] word_i with generator g replaced by images[g],
        each word multiplied out from the unit with the elements' product, then scaled."""
        one = type(images[0])(np.eye(self.dim)[self.index[()]])
        out = np.zeros(self.dim, dtype=complex)
        for i in np.flatnonzero(coeffs).tolist():
            acc = one
            for g in self.words[i]:
                acc = acc * images[g]
            out = out + acc.coeffs * complex(coeffs[i])
        return out


@dataclass(frozen=True)
class Element:
    """Immutable coefficient vector; subclasses set ``envelope``, ``labels``
    (one per basis word) and ``_product``, the product of two elements."""

    envelope: ClassVar[Envelope]
    labels: ClassVar[tuple]
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (self.envelope.dim,):
            raise ValueError(f"expected {self.envelope.dim} coefficients, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls):
        return cls(np.zeros(cls.envelope.dim))

    def __add__(self, other):
        return type(self)(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return type(self)(self.coeffs - other.coeffs)

    def __neg__(self):
        return type(self)(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self._product(other)
        return type(self)(self.coeffs * complex(other))

    __rmul__ = __mul__

    def degree(self):
        return self.envelope.degree(np.flatnonzero(self.coeffs).tolist())

    def allclose(self, other, tol=1e-12):
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __repr__(self):
        parts = [f"({c:.6g})*{self.labels[i]}" for i, c in enumerate(self.coeffs) if c != 0]
        return f"{type(self).__name__}(" + (" + ".join(parts) if parts else "0") + ")"
