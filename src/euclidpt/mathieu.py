"""Mathieu characteristic values and periodic functions for complex parameter q.

Convention: y''(z) + (a - 2 q cos 2z) y = 0.  The truncated Fourier
recurrence of each parity/periodicity class is a tridiagonal chain (DLMF
28.4), and characteristic values are its eigenvalues, which handles real
and complex q uniformly and makes eigenvalue collisions (exceptional points
on the imaginary-q axis) directly observable.  `spectral.tridiagonal_eigenvalues`
solves each chain: real q with the symmetric tridiagonal solver (DLMF
28.2(vi)), imaginary q on the real form of the even-pi, odd-pi and
antiperiodic chains, any other q in complex arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import E2Element, build_hamiltonian
from .errors import ConvergenceFailure
from .spectral import (check_ep_tolerances, reality_transitions, tridiagonal_eigenvalues,
                       tridiagonal_matrix)

_SQRT2 = math.sqrt(2.0)


def _check_parity(parity):
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


@dataclass(frozen=True)
class MathieuClass:
    parity: str        # "even" | "odd"
    periodicity: str   # "pi" | "2pi"

    def __post_init__(self):
        _check_parity(self.parity)
        if self.periodicity not in ("pi", "2pi"):
            raise ValueError(f"periodicity must be 'pi' or '2pi', got {self.periodicity!r}")

    @property
    def label(self):
        return f"{self.parity}-{self.periodicity}"


EVEN_PI = MathieuClass("even", "pi")      # a_0, a_2, a_4, ...   cos(2kz)
ODD_PI = MathieuClass("odd", "pi")        # b_2, b_4, ...        sin(2kz)
EVEN_2PI = MathieuClass("even", "2pi")    # a_1, a_3, ...        cos((2k+1)z)
ODD_2PI = MathieuClass("odd", "2pi")      # b_1, b_3, ...        sin((2k+1)z)
CLASSES = {c.label: c for c in (EVEN_PI, ODD_PI, EVEN_2PI, ODD_2PI)}


def _modes(cls, size):
    """Frequencies m of a class's Fourier modes cos(m z) or sin(m z)."""
    k = np.arange(size)
    if cls == EVEN_PI:
        return 2 * k
    if cls == ODD_PI:
        return 2 * k + 2
    return 2 * k + 1


def _antiperiodic_order(size):
    """Mode order ..., 4, 2, 0, 1, 3, 5, ... that makes an antiperiodic class a chain."""
    return np.concatenate([np.arange(0, size, 2)[::-1], np.arange(1, size, 2)])


def _chain(q, cls, size):
    """Diagonal and (symmetric) off-diagonal of one class's recurrence chain.

    `cls` is a MathieuClass, or the parity of an antiperiodic class, whose
    chain runs in the mode order of `_antiperiodic_order`.  Raises ValueError
    when a coupling product, at most 2 q^2, is not finite.
    """
    q = complex(q)
    if not np.isfinite(2.0 * q * q):
        raise ValueError(f"q = {q} overflows the recurrence chain: 2 q^2 is not finite")
    off = np.full(size - 1, q)
    if isinstance(cls, MathieuClass):
        diag = _modes(cls, size) ** 2 + 0j
        if cls == EVEN_PI:
            off[0] *= _SQRT2    # symmetrized k=0 coupling
        elif cls.periodicity == "2pi":
            diag[0] += q if cls == EVEN_2PI else -q
        return diag, off
    _check_parity(cls)
    # cos(2th) folds the k=0 mode back onto k=1 (sign flip for the sine
    # basis): the middle link of the chain
    off[(size - 1) // 2] = q if cls == "even" else -q
    return (_antiperiodic_order(size) + 0.5) ** 2 + 0j, off


def recurrence_matrix(q, cls: MathieuClass, size: int) -> np.ndarray:
    """Truncated (symmetrized) Fourier recurrence matrix of one class."""
    diag, off = _chain(q, cls, size)
    return tridiagonal_matrix(diag, off, off)


def _canonical(w):
    # conjugate-pair members share real parts only to roundoff; a rounded
    # lexsort keeps their order stable across truncations
    return w[np.lexsort((w.imag, np.round(w.real, 8)))]


def _sorted_eigs(q, cls, size):
    """Eigenvalues of one class's chain (see `_chain`) in canonical order."""
    diag, off = _chain(q, cls, size)
    return _canonical(tridiagonal_eigenvalues(diag, off, off))


def _check_count(count, trunc):
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if trunc < count + 8:
        raise ValueError(f"trunc must be at least count + 8, got trunc {trunc} with count {count}")


def _lowest_certified(q, cls, count, trunc, what):
    """The `count` lowest values at 2*trunc, certified against those at trunc.

    Raises ConvergenceFailure if doubling the truncation moves a value by
    more than 1e-10 * max(1, max(1, |q|)/gap), gap being its distance to
    the nearest other value, or, when it moves by more than 1e-10, moves
    its mean with that value by more than 1e-10.  Near a double point
    (imaginary q) two values split by gap << |q| each move by about |q|/gap
    times any perturbation of the chain, roundoff included; their mean does
    not.  Raises ValueError when the last value and the next one are a
    conjugate pair, which `count` would cut in half.
    """
    _check_count(count, trunc)
    w1 = _sorted_eigs(q, cls, trunc)[:count + 1]
    w2 = _sorted_eigs(q, cls, 2 * trunc)[:count + 1]
    if w2[count - 1].imag and w2[count] == w2[count - 1].conjugate():
        raise ValueError(f"count {count} separates {w2[count]:.12g} from its conjugate among "
                         f"the {what}")
    moved = np.abs(w1 - w2)[:count]
    drift = float(np.max(moved))
    if drift > 1e-10:
        dist = np.abs(w2[:, None] - w2[None, :])
        np.fill_diagonal(dist, np.inf)
        near = np.argmin(dist[:count], axis=1)
        stretch = np.maximum(1.0, max(1.0, abs(q)) / dist[np.arange(count), near])
        mean_moved = np.abs(w1[:count] + w1[near] - w2[:count] - w2[near]) / 2
        if np.any(moved > 1e-10 * stretch) or np.any((moved > 1e-10) & (mean_moved > 1e-10)):
            raise ConvergenceFailure(f"{what} moved by {drift:.3e} under truncation doubling")
    return w2[:count]


def characteristic_values(q, cls: MathieuClass, count: int, trunc: int = 60) -> np.ndarray:
    """First `count` characteristic values by real part, convergence-checked.

    Raises ConvergenceFailure if doubling the truncation moves any reported
    value by more than 1e-10, and ValueError if `count` ends between the two
    members of a conjugate pair.
    """
    return _lowest_certified(q, cls, count, trunc, "characteristic values")


def coefficient_vector(q, cls: MathieuClass, a, trunc: int = 60):
    """Fourier coefficients of the periodic solution with characteristic value a.

    The symmetrization scaling on the k=0 cosine mode is undone, so the
    returned vector multiplies cos(2kz), sin(2(k+1)z), cos((2k+1)z) or
    sin((2k+1)z) directly.  Gauge: unit 2-norm with the largest-magnitude
    coefficient rotated to the positive real axis.
    """
    m = recurrence_matrix(q, cls, trunc)
    w, vecs = scipy.linalg.eig(m)
    i = int(np.argmin(np.abs(w - a)))
    if abs(w[i] - a) > 1e-6 * max(1.0, abs(a)):
        raise ValueError(f"{a} is not a characteristic value of class {cls.label} "
                         f"(nearest: {w[i]})")
    vec = vecs[:, i].copy()
    if cls == EVEN_PI:
        vec[0] /= _SQRT2
    top = vec[int(np.argmax(np.abs(vec)))]
    vec *= abs(top) / top
    return vec / np.linalg.norm(vec)


def _synthesize(vec, cls, z):
    z = np.asarray(z, dtype=float)
    wave = np.cos if cls.parity == "even" else np.sin
    return wave(np.outer(z, _modes(cls, len(vec)))) @ vec


def mathieu_function(q, a, parity: str, z, trunc: int = 60):
    """Periodic Mathieu function of the given parity at characteristic value a.

    The class (pi- or 2pi-periodic) is resolved by locating a among the
    eigenvalues of the two candidate recurrences.
    """
    _check_parity(parity)
    candidates = (EVEN_PI, EVEN_2PI) if parity == "even" else (ODD_PI, ODD_2PI)
    last_error = None
    for cls in candidates:
        try:
            vec = coefficient_vector(q, cls, a, trunc)
        except ValueError as exc:
            last_error = exc
            continue
        return _synthesize(vec, cls, z)
    raise ValueError(f"no {parity} class has characteristic value {a}: {last_error}")


# ---------------------------------------------------------------------------
# antiperiodic (half-integer order) classes, needed for fermionic sectors of
# the circle representation: 2*pi-antiperiodic solutions in theta of
# y'' + (a - 2 q cos 2theta) y = 0, split by parity in theta
# ---------------------------------------------------------------------------

def antiperiodic_matrix(q, parity: str, size: int) -> np.ndarray:
    """Recurrence over cos((k+1/2) theta) (even) or sin((k+1/2) theta) (odd)."""
    diag, off = _chain(q, parity, size)
    chain = tridiagonal_matrix(diag, off, off)
    order = _antiperiodic_order(size)
    m = np.empty_like(chain)
    m[np.ix_(order, order)] = chain
    return m


def antiperiodic_characteristic_values(q, parity: str, count: int, trunc: int = 60):
    """First `count` values of one antiperiodic class, as `characteristic_values`."""
    return _lowest_certified(q, parity, count, trunc, f"antiperiodic {parity} values")


# ---------------------------------------------------------------------------
# exceptional points on the imaginary-q axis
# ---------------------------------------------------------------------------

def complex_mathieu_eps(max_q: float, cls: MathieuClass, count: int = 8,
                        trunc: int = 60, scan_steps: int = 400,
                        param_tol: float = 1e-8, im_tol: float = 1e-8) -> list:
    """Collisions of same-class characteristic values along q = i*t, t in (0, max_q].

    The count lowest values are solved on scan_steps evenly spaced t, and
    `spectral.reality_transitions` bisects every change in their number of
    conjugate pairs (Im a > im_tol) to a bracket of width <= param_tol.
    Returns [{"q_imag": t, "a_merge": Re a at the collision}, ...] in
    increasing t, one entry per pair born or dying there.
    """
    if not (math.isfinite(max_q) and max_q > 0):
        raise ValueError(f"max_q must be finite and positive, got {max_q}")
    _check_count(count, trunc)
    if scan_steps < 2:
        raise ValueError(f"scan_steps must be at least 2, got {scan_steps}")
    check_ep_tolerances("param_tol", param_tol, im_tol)
    ts = np.linspace(max_q / scan_steps, max_q, scan_steps)
    return [{"q_imag": 0.5 * (lo + hi), "a_merge": float(z.real)}
            for _, lo, hi, fresh in reality_transitions(
                lambda t: _sorted_eigs(1j * t, cls, trunc)[:count], ts, param_tol, im_tol)
            for z in fresh]


# ---------------------------------------------------------------------------
# the complex-Mathieu PT5 family: exactly solvable but with no real Dyson
# exponent of the exp(lam J + rho u + tau v) form
# ---------------------------------------------------------------------------

def pt5_complex_hamiltonian(mu4: float, mu6: float) -> E2Element:
    """The two-parameter family whose eigenproblem closes on Mathieu functions.

    Couplings: mu1=1, mu3=-mu6/2, mu5=-mu4, mu7=mu4^2/4, mu8=-mu6^2/4,
    mu9=-mu4*mu6/2.  The u^2 coupling must equal mu4^2/4: the cos-theta
    gauge factor then cancels the residual sin^2 term, leaving the Mathieu
    equation in theta/2 with parameter i*mu4 and characteristic value 4E.
    """
    return build_hamiltonian("PT5", (1.0, 0.0, -mu6 / 2.0, mu4, -mu4, mu6,
                                     mu4 ** 2 / 4.0, -mu6 ** 2 / 4.0,
                                     -mu4 * mu6 / 2.0))


def pt5_complex_solution(mu4: float, mu6: float, E: float, theta,
                         c1: complex = 1.0, c2: complex = 0.0,
                         trunc: int = 60) -> np.ndarray:
    """psi(theta) = exp(-i mu4/2 cos + mu6/2 sin) [c1 C(4E, i mu4, theta/2) + c2 S(...)].

    4E must be (within tolerance) a characteristic value of the class the
    requested combination lives in; bosonic states use the pi-periodic
    classes in theta/2, fermionic the 2pi-periodic ones.
    """
    theta = np.asarray(theta, dtype=float)
    z = theta / 2.0
    q = 1j * mu4
    a = 4.0 * E
    parts = np.zeros(len(theta), dtype=complex)
    if c1 != 0:
        parts = parts + c1 * mathieu_function(q, a, "even", z, trunc)
    if c2 != 0:
        parts = parts + c2 * mathieu_function(q, a, "odd", z, trunc)
    prefactor = np.exp(-1j * (mu4 / 2.0) * np.cos(theta) + (mu6 / 2.0) * np.sin(theta))
    return prefactor * parts
