"""Degree-2 truncated enveloping algebras (E2 and E3) over sorted generator words.

Words are normal-ordered by bubble-sorting out-of-order neighbours, each swap
spawning their bracket; products and antilinear maps use arrays built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegreeOverflow

MAX_DEGREE = 2


class Envelope:
    """Normal-ordered arithmetic over ``words``: the unit, each generator code's
    letter in order, then the degree-2 words.  ``brackets`` maps each out-of-order
    pair (a, b), a > b, that does not commute to [a, b] as {code: coefficient}."""

    def __init__(self, words, brackets):
        self.words = tuple(words)
        self.index = {w: k for k, w in enumerate(self.words)}
        self.dim = len(self.words)
        self.brackets = brackets
        self.length = [len(w) for w in self.words]
        self.low = self.length.count(0) + self.length.count(1)
        if self.length != sorted(self.length) or self.words[:self.low] != \
                ((),) + tuple((g,) for g in range(self.low - 1)):
            raise ValueError("words must be the unit, the generators in code order, then pairs")
        # row i * low + j: the product of words i, j < low (the unit and the letters)
        self.low_product = np.array([self.straighten(self.words[i] + self.words[j])
                                     for i in range(self.low) for j in range(self.low)])

    def straighten(self, word, coeff=1.0 + 0j):
        """Normal-order coeff * word, returning its coefficient vector."""
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a > b:
                out = self.straighten(word[:i] + (b, a) + word[i + 2:], coeff)
                for g, c in self.brackets.get((a, b), {}).items():
                    out += self.straighten(word[:i] + (g,) + word[i + 2:], coeff * c)
                return out
        if len(word) > MAX_DEGREE:
            raise DegreeOverflow(f"monomial of degree {len(word)} outside the truncation")
        out = np.zeros(self.dim, dtype=complex)
        out[self.index[word]] = coeff
        return out

    def degree(self, coeffs):
        """Highest word length among the nonzero coefficients."""
        support = np.asarray(coeffs).nonzero()[0]
        return self.length[support[-1]] if len(support) else 0

    def multiply(self, ca, cb):
        """Normal-ordered product.  A degree-2 factor can only meet a scalar;
        otherwise the terms a_i b_j low_product[i, j] are summed one by one in
        the order of (i, j).  Sums start from +0, so no coefficient reads -0.0;
        results depend bitwise on the order."""
        da, db = self.degree(ca), self.degree(cb)
        if da + db > MAX_DEGREE:
            raise DegreeOverflow(f"product of degrees {da} and {db} outside the truncation")
        if MAX_DEGREE in (da, db):
            return (ca * cb[0] if da else cb * ca[0]) + 0.0
        terms = np.outer(ca[:self.low], cb[:self.low]).reshape(-1, 1) * self.low_product
        return terms.sum(axis=0, initial=0.0)

    def map_table(self, images, reverse=False):
        """Matrix whose column i is the normal-ordered image of word i when
        generator g maps to the sum of the (coefficient, code) terms ``images[g]``;
        ``reverse`` reverses the factors, for an anti-homomorphism."""
        columns = []
        for word in self.words:
            terms = [((), 1.0 + 0j)]
            for g in (word[::-1] if reverse else word):
                terms = [(w + (h,), c * ch) for w, c in terms for ch, h in images[g]]
            columns.append(sum(self.straighten(w, c) for w, c in terms))
        return np.array(columns).T

    def apply_antilinear(self, table, coeffs):
        """Conjugate the coefficients, then map each basis word through ``table``."""
        return table @ np.conj(coeffs)

    def substitute(self, images, coeffs):
        """Coefficients of sum_i coeffs[i] word_i with generator g replaced by the
        element images[g]: a letter is its image, a pair the product of its letters'
        images.  The scaled words are summed in index order, from +0."""
        support = np.asarray(coeffs).nonzero()[0]
        rows = []
        for word in map(self.words.__getitem__, support.tolist()):
            if len(word) == 2:
                rows.append((images[word[0]] * images[word[1]]).coeffs)
            else:
                rows.append(images[word[0]].coeffs if word else self.low_product[0])  # 1 * 1
        terms = coeffs[support, None] * np.reshape(rows, (-1, self.dim))
        return terms.sum(axis=0, initial=0.0)


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
        return self.envelope.degree(self.coeffs)

    def allclose(self, other, tol=1e-12):
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __repr__(self):
        parts = [f"({c:.6g})*{self.labels[i]}" for i, c in enumerate(self.coeffs) if c != 0]
        return f"{type(self).__name__}(" + (" + ".join(parts) if parts else "0") + ")"
