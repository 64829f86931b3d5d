"""Mathieu characteristic values and periodic functions for complex parameter q.

Convention: y''(z) + (a - 2 q cos 2z) y = 0.  The truncated Fourier
recurrence of each parity/periodicity class is a tridiagonal chain (DLMF
28.4), and characteristic values are its eigenvalues, which handles real
and complex q uniformly and makes eigenvalue collisions (exceptional points
on the imaginary-q axis) directly observable.  Real q gives a real
symmetric chain (DLMF 28.2(vi)), whose residual bounds the values' error
against the infinite operator (`_ritz_certified`): they come from the first
chain of a short ladder that certifies them, one sized from |q| and the
class (`_first_rung`), then the truncation, which is an upper bound.
Any other q is certified by doubling the truncation, each chain solved by
`chains.tridiagonal_eigenvalues`: imaginary q on the real form of the
even-pi, odd-pi and antiperiodic chains, any other q in complex arithmetic.
A periodic Mathieu function takes its Fourier coefficients from the same
chain, by inverse iteration at the characteristic value, certified by its
residual (`coefficient_vector`).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import E2Element, build_hamiltonian
from .chains import (certify, check_ep_tolerances, inverse_iteration, linalg, pair_changes,
                     tridiagonal_eigenvalues, tridiagonal_matrix)
from .errors import (ConvergenceFailure, check_angles, check_finite, check_integer,
                     closed_form, overflow_guard)

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


def _frequency(cls, k):
    """Frequency m of a class's k-th Fourier mode cos(m z) or sin(m z)."""
    if cls == EVEN_PI:
        return 2 * k
    if cls == ODD_PI:
        return 2 * k + 2
    return 2 * k + 1


def _modes(cls, size):
    """Frequencies m of a class's Fourier modes cos(m z) or sin(m z)."""
    start = _frequency(cls, 0)
    return np.arange(start, start + 2 * size, 2)


def _antiperiodic_order(size):
    """Mode order ..., 4, 2, 0, 1, 3, 5, ... that makes an antiperiodic class a chain."""
    return np.concatenate([np.arange(0, size, 2)[::-1], np.arange(1, size, 2)])


@functools.cache
def _bands(cls, size):
    """One class's chain as an affine function of q, read-only, once per (cls, size): the
    diagonal at q = 0, its first entry's slope (+-1 on a 2pi class, else 0) and the
    off-diagonal's slopes (sqrt 2 on the even-pi first link, the symmetrized k=0 coupling;
    -1 on the odd antiperiodic middle link; else 1).  `cls` is a MathieuClass, or the parity
    of an antiperiodic class, whose chain runs in the mode order of `_antiperiodic_order`."""
    unit, slope = np.ones(size - 1), 0.0
    if isinstance(cls, MathieuClass):
        diag = (_modes(cls, size) ** 2).astype(float)
        if cls == EVEN_PI:
            unit[0] = _SQRT2
        elif cls.periodicity == "2pi":
            slope = 1.0 if cls == EVEN_2PI else -1.0
    else:
        _check_parity(cls)
        diag = (_antiperiodic_order(size) + 0.5) ** 2
        # cos(2th) folds the k=0 mode back onto k=1 (sign flip for the sine
        # basis): the middle link of the chain
        unit[(size - 1) // 2] = 1.0 if cls == "even" else -1.0
    diag.flags.writeable = unit.flags.writeable = False
    return diag, slope, unit


def _chain(q, cls, size):
    """Diagonal and symmetric off-diagonal of one class's chain at q: new arrays from the
    `_bands`, real for a float q and complex for a complex q; each slope times q is exact.
    Raises ValueError when a coupling product, at most 2 q^2, is not finite."""
    if not cmath.isfinite(2.0 * q * q):
        raise ValueError(f"q = {q} overflows the recurrence chain: 2 q^2 is not finite")
    diag, slope, unit = _bands(cls, size)
    diag = diag.astype(complex if isinstance(q, complex) else float)
    diag[0] += slope * q
    return diag, q * unit


def _canonical(w):
    # conjugate-pair members share real parts only to roundoff; a rounded
    # lexsort keeps their order stable across truncations
    return w[np.lexsort((w.imag, np.round(w.real, 8)))]


def _sorted_eigs(q, cls, size):
    """Eigenvalues of one class's chain (see `_chain`) in canonical order."""
    diag, off = _chain(complex(q), cls, size)
    return _canonical(tridiagonal_eigenvalues(diag, off, off))


def _check_count(count, trunc):
    check_integer("count", count, 1)
    check_integer("trunc", trunc)
    if trunc < count + 8:
        raise ValueError(f"trunc must be at least count + 8, got trunc {trunc} with count {count}")


def _ritz_certified(q, cls, count, trunc, what):
    """The `count` lowest values of a real-q chain at `trunc`, and a bound on each one's error.

    The chain T (n = trunc modes, built in real arithmetic) is the leading
    block of its class's infinite symmetric operator A, which is bounded
    below.  B couples T to the tail R of A through entries q at the cut end
    (both ends of an antiperiodic chain); P projects onto the cut-end modes.
    One solve gives the count + 1 lowest eigenpairs (theta_j, y_j) of T.
    Three facts bound the j-th eigenvalue lambda_j of A:

    - min-max: lambda_j <= theta_j.
    - Tail inertia: every tail diagonal entry is at least the first one
      beyond the truncation, so R >= c = that entry - 2|q| (Gershgorin).
      For x < c, A - x has as many negative eigenvalues as the Schur
      complement S(x) = T - x - B (R - x)^-1 B^T (Haynsworth), and
      S(x) >= T - x - q^2/(c - x) P.  With c > theta_{count+1} and
      delta = q^2/(c - theta_{count+1}), A has no more eigenvalues below
      x <= theta_{count+1} than T' = T - delta P has.  That fixes the index,
      with no ordering check: lambda_j >= mu_j, the j-th eigenvalue of T',
      and mu_j >= theta_j - delta (Weyl).
    - Kato-Temple: in T', y_j has the Rayleigh quotient theta_j - delta p_j,
      with p_j = |P y_j|^2, and a residual of norm at most delta sqrt(p_j).
      Where theta_j < theta_{j+1} - delta <= mu_{j+1}, every eigenvalue m of
      T' has (m - mu_j)(m - theta_{j+1} + delta) >= 0.  Applied to y_j, that
      gives mu_j >= theta_j - delta p_j (theta_{j+1} - theta_j) /
      (theta_{j+1} - theta_j - delta).  The plain residual of y_j in A,
      r_j = |q| sqrt(p_j), would give r_j^2/(theta_{j+1} - delta - theta_j),
      which is larger whenever c - theta_{count+1} > theta_{j+1} - theta_j.

    Each bound is the smaller of the last two, infinite when c <=
    theta_{count+1}.  It covers the exact eigenvalues of T; the solve's
    roundoff comes on top.  Raises ConvergenceFailure when a bound exceeds
    1e-10.  The message names the largest bound or, where it is infinite,
    the largest r_j, the distance from theta_j to some eigenvalue of A.
    Returns (values, bounds).
    """
    q = complex(q).real
    diag, off = _chain(q, cls, trunc)
    q = abs(q)
    upper = np.zeros(trunc)    # dstemr takes a workspace entry past the end, and overwrites it
    upper[:-1] = off
    _, _, y, info = linalg().lapack.dstemr(diag, upper, 2, 0.0, 0.0, 1, count + 1)
    if info:
        raise ConvergenceFailure(f"dstemr failed with info {info} on the {what}")
    y = y[:, :count + 1]
    # the Rayleigh quotients: dstemr's own values may be off by some ulps of the
    # largest diagonal entry, these by some ulps of the entries where y_j lives
    theta = diag @ (y * y) + 2.0 * (off @ (y[:-1] * y[1:]))
    ends = y[trunc - 1, :count] ** 2
    if isinstance(cls, MathieuClass):
        first = float(_frequency(cls, trunc)) ** 2
    else:
        first = (trunc + 0.5) ** 2
        ends += y[0, :count] ** 2
    values = theta[:count].astype(complex)
    theta, ends = theta.tolist(), ends.tolist()
    room = first - 2.0 * q - theta[count]
    delta = q * q / room if room > 0 else math.inf
    bounds = []
    for j, p in enumerate(ends):
        gap = theta[j + 1] - theta[j]
        bounds.append(min(delta, delta * p * gap / (gap - delta)) if gap > delta else delta)
    worst = max(bounds)
    if not worst <= 1e-10:
        moved = worst if math.isfinite(worst) else q * math.sqrt(max(ends))
        raise ConvergenceFailure(f"{what} may have moved by {moved:.3e} under truncation "
                                 f"to {trunc} modes")
    return values, bounds


def _first_rung(q, cls, count):
    """Modes of the first chain tried for real q, the smallest that `_check_count` allows or more.

    The `count` lowest values certify once the chain reaches about
    3 + 5 |q|^(1/3) in frequency past the count-th mode; an antiperiodic
    chain's n modes reach frequency n + 1/2, a periodic class's 2n.  Measured
    for counts 1 to 30, this rung certifies every class for |q| <= 220 and
    the periodic classes for |q| <= 390.  Beyond, Kato-Temple needs the tail
    shift delta of `_ritz_certified` below the gaps between values, about
    4 sqrt|q|, and that takes a longer chain than the values' decay does.
    """
    reach = 3.0 + 5.0 * abs(q) ** (1.0 / 3.0)
    if isinstance(cls, MathieuClass):
        reach /= 2.0
    return count + max(8, math.ceil(reach))


def _lowest_certified(q, cls, count, trunc, what):
    """The `count` lowest values, certified; real q by `_ritz_certified`, others by doubling.

    Real q gives a real symmetric chain, whose values come with a residual
    bound against the infinite operator (`_ritz_certified`), so a chain
    shorter than `trunc` that certifies them is as good as `trunc`: they
    come from the `_first_rung` chain if it has at most 3/4 of `trunc`'s
    modes and certifies them, else from `trunc`, whose ConvergenceFailure
    is raised if neither does, so a rung that fails and `trunc` cost less
    than two `trunc` solves.  A complex symmetric chain's residual does
    not bound its eigenvalue error, so any other q returns the values at
    2*trunc, certified against those at trunc: it raises ConvergenceFailure if
    doubling the truncation moves a value by more than 1e-10 * max(1,
    max(1, |q|)/gap), gap being its distance to the nearest other value,
    or, when it moves by more than 1e-10, moves its mean with that value
    by more than 1e-10.  Near a double point
    (imaginary q) two values split by gap << |q| each move by about |q|/gap
    times any perturbation of the chain, roundoff included; their mean does
    not.  Raises ValueError when the last value and the next one are a
    conjugate pair, which `count` would cut in half.
    """
    _check_count(count, trunc)
    q, = check_finite({"q": q})
    if not complex(q).imag:
        if 4 * (rung := _first_rung(q, cls, count)) <= 3 * trunc:
            try:
                return _ritz_certified(q, cls, count, rung, what)[0]
            except ConvergenceFailure:
                pass    # trunc's own failure is the one to report
        return _ritz_certified(q, cls, count, trunc, what)[0]
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

    Real q returns the values of a chain of at most `trunc` modes that
    certifies them by their residual bound, one sized from |q| where it
    does, else `trunc`; any other q the values at 2*trunc, certified
    against those at `trunc` (`_lowest_certified`).  Raises
    ConvergenceFailure if a value's bound at `trunc`, or its move under
    doubling, exceeds 1e-10, and ValueError if `count` ends between the
    two members of a conjugate pair.
    """
    return _lowest_certified(q, cls, count, trunc, "characteristic values")


def coefficient_vector(q, cls: MathieuClass, a, trunc: int = 60):
    """Fourier coefficients of the periodic solution with characteristic value a.

    q and a must be finite, and a must lie within 1e-6 max(1, |a|) of the
    nearest value of the class chain T (`_sorted_eigs`), or ValueError is
    raised.  The vector is inverse iteration on T at that value
    (`chains.inverse_iteration`); ||(T - a)x|| > 1e-9 max|T| raises
    ConvergenceFailure (`chains.certify`).
    The symmetrization scaling on the k=0 cosine mode is undone, so the
    returned vector multiplies cos(2kz), sin(2(k+1)z), cos((2k+1)z) or
    sin((2k+1)z) directly.  Gauge: unit 2-norm with the largest-magnitude
    coefficient rotated to the positive real axis.
    """
    check_integer("trunc", trunc, 3)   # `inverse_iteration`'s `?gttrf` rejects a chain of 2 modes
    q, a = check_finite({"q": q, "a": a})
    w = _sorted_eigs(q, cls, trunc)
    i = int(np.argmin(np.abs(w - a)))
    if abs(w[i] - a) > 1e-6 * max(1.0, abs(a)):
        raise ValueError(f"{a} is not a characteristic value of class {cls.label} "
                         f"(nearest: {w[i]})")
    diag, off = _chain(complex(q), cls, trunc)
    vec = inverse_iteration((diag, off, off), w[i])
    certify(tridiagonal_matrix(diag, off, off), vec, w[i], f"{cls.label} value {w[i]:.12g}")
    if cls == EVEN_PI:
        vec[0] /= _SQRT2
    top = vec[int(np.argmax(np.abs(vec)))]
    vec *= abs(top) / top
    return vec / np.linalg.norm(vec)


def _synthesize(vec, cls, z):
    wave = np.cos if cls.parity == "even" else np.sin
    with overflow_guard("the Mathieu function", lambda: {"z": np.max(np.abs(z))}):
        return wave(np.outer(z, _modes(cls, len(vec)))) @ vec   # a mode times z may overflow


def mathieu_function(q, a, parity: str, z, trunc: int = 60):
    """Periodic Mathieu function of the given parity at characteristic value a.

    The class (pi- or 2pi-periodic) is resolved by locating a among the
    eigenvalues of the two candidate recurrences.  q and a must be finite, and
    z a nonempty grid of finite angles.
    """
    _check_parity(parity)
    check_integer("trunc", trunc, 3)
    q, a = check_finite({"q": q, "a": a})
    z = check_angles("z", z)
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

def antiperiodic_characteristic_values(q, parity: str, count: int, trunc: int = 60):
    """First `count` values of one antiperiodic class, certified as `characteristic_values`.

    Real q returns the values of a chain of at most `trunc` modes that
    certifies them by their residual bound; any other q the values at
    2*trunc, certified by doubling.
    """
    return _lowest_certified(q, parity, count, trunc, f"antiperiodic {parity} values")


# ---------------------------------------------------------------------------
# exceptional points on the imaginary-q axis
# ---------------------------------------------------------------------------

_NEWTON_STEPS = 30       # Newton steps one bracket allows before it is halved
_FLOOR_ULPS = 2.0 ** 16   # a step this small (in ulps) that no longer halves is roundoff;
                          # the roundoff floor is about 100 ulps at t = 95


def _continuant(diag, coupling, a, s):
    """(D, D_a, D_aa, D_s, D_as) for D = det(chain - a) at q = i*sqrt(s), times one factor > 0.

    `diag` and `coupling` are the chain at q = i, whose link from mode k - 1
    to mode k has the product -coupling[k].  At q = i*t that product is
    -coupling[k]*s with s = t^2, so D_k = (diag[k] - a) D_{k-1} +
    coupling[k] s D_{k-2} is real.  Each step divides every running value by
    one power of two, which keeps them finite and exact; the factor cancels
    from a Newton step.  Unscaled, D of the 120-mode chain at t = 100 is about 1e466.
    """
    d1, da1, daa1, ds1, das1 = 1.0, 0.0, 0.0, 0.0, 0.0      # D_{k-1} and derivatives
    d2 = da2 = daa2 = ds2 = das2 = 0.0                        # D_{k-2}
    for dk, ck in zip(diag, coupling):
        e, cs = dk - a, ck * s
        d0 = e * d1 + cs * d2
        da0 = e * da1 - d1 + cs * da2
        daa0 = e * daa1 - 2.0 * da1 + cs * daa2
        ds0 = e * ds1 + cs * ds2 + ck * d2
        das0 = e * das1 - ds1 + cs * das2 + ck * da2
        f = math.ldexp(1.0, -math.frexp(abs(d0) + abs(da0) + abs(daa0) + abs(ds0)
                                        + abs(das0))[1])
        d2, da2, daa2, ds2, das2 = d1 * f, da1 * f, daa1 * f, ds1 * f, das1 * f
        d1, da1, daa1, ds1, das1 = d0 * f, da0 * f, daa0 * f, ds0 * f, das0 * f
    return d1, da1, daa1, ds1, das1


def _double_point(cls, trunc, a, t, lo, hi):
    """Newton from (a, t) to a double point D = D_a = 0 of the class chain, in (a, s = t^2).

    Returns (t, a) once a step moves both to adjacent floats, or stops
    shrinking at the roundoff floor; None when an iterate leaves lo <= t <= hi
    or `_NEWTON_STEPS` steps do not converge.  The Jacobian's determinant is
    D_a D_as - D_s D_aa, and D_a = 0 at a double point, so a non-degenerate
    fold needs |D_aa D_s| > |D_a D_as| there; otherwise ConvergenceFailure.
    The chain is read off `_bands`: at q = i the link with slope c_k has the
    product -c_k^2, which is 1 or 2, rounded from the slope's square.
    """
    diag, _, unit = _bands(cls, trunc)
    diag, coupling = diag.tolist(), [0.0, *np.rint(unit * unit).tolist()]
    s, s_lo, s_hi, last = t * t, lo * lo, hi * hi, math.inf
    for _ in range(_NEWTON_STEPS):
        d, d_a, d_aa, d_s, d_as = _continuant(diag, coupling, a, s)
        det = d_a * d_as - d_s * d_aa
        if not det:
            return None
        step_a, step_s = (d * d_as - d_s * d_a) / det, (d_a * d_a - d_aa * d) / det
        a, s = a - step_a, s - step_s
        if not s_lo <= s <= s_hi:
            return None
        ulps = max(abs(step_a) / math.ulp(a), abs(step_s) / math.ulp(s))
        if ulps <= 1.0 or last / 2.0 <= ulps <= _FLOOR_ULPS:
            if not abs(d_aa * d_s) > abs(d_a * d_as):
                raise ConvergenceFailure(f"the double point at q = {math.sqrt(s)!r}i, "
                                         f"a = {a!r} has a degenerate fold")
            return math.sqrt(s), a
        last = ulps
    return None


def _real_stretch(cls, trunc):
    """t* of the class chain: below it every value at q = i*t is real, with no solve.

    At q = i*t, `chains.tridiagonal_eigenvalues` solves the chain's real
    form: the diagonal d_k of `_bands` and the off-diagonals +-t c_k, c_k
    the off-diagonal's slope there (sqrt 2 on the even-pi first link).  Its
    Gershgorin discs are centred on d_k with radius t rho_k, rho_k the row's
    sum of c_k.  As d_k increases, they are pairwise disjoint while
    t (rho_k + rho_{k+1}) < d_{k+1} - d_k for every k.  Each isolated disc
    is symmetric about the real axis and holds exactly one eigenvalue, so
    that value is real.  The bound, the smallest such quotient, is shrunk by
    1e-14, far more than the few ulps the quotient and the entries t c_k are
    rounded by.  It is 1.0448 for even-pi and 4 for odd-pi at any trunc.
    """
    diag, _, unit = _bands(cls, trunc)
    rho = np.abs(np.concatenate(([0.0], unit))) + np.abs(np.concatenate((unit, [0.0])))
    return float(np.min(np.diff(diag) / (rho[:-1] + rho[1:]))) * (1.0 - 1e-14)


def complex_mathieu_eps(max_q: float, cls: MathieuClass, count: int = 8,
                        trunc: int = 60, scan_steps: int | None = None,
                        param_tol: float = 1e-8, im_tol: float = 1e-8) -> list:
    """Double points of the even-pi or odd-pi class along q = i*t, t in (0, max_q].

    There two values of the class merge (Blanch & Clemm, Math. Comp. 23
    (1969) 97).  The count lowest values are solved on scan_steps evenly
    spaced t (default 8 + int(max_q)), which only brackets the changes in
    their number of conjugate pairs (Im a > im_tol).  Below the chain's
    `_real_stretch` that number is 0 with no solve: Gershgorin's discs
    prove every value real there.  The scan stops at the first t where the
    number is count // 2: the count lowest values can then form no new pair,
    and no pair splits back into real values at larger t.  Both classes are
    measured so, with 8 values: even-pi holds 4 pairs at t = 100, 200, 500,
    1000, 2000 and 5000, odd-pi 3 at t = 100 and 4 from t = 200 to 5000,
    chains of 60, 120 and 240 modes agreeing there to 3.7e-13; Hunter &
    Guerrieri, Stud. Appl. Math. 64 (1981) 113, treat the branch points
    behind them.  The scan points are numpy's `linspace` floats, bit for
    bit, made one at a time.  Each scan interval whose ends differ is
    halved by `chains.pair_changes`, one solve per midpoint, until Newton on
    the chain continuant (`_double_point`) places a bracket's point: it is
    tried on every bracket where one pair changes, from that pair's real
    part at the bracket's broken end.  Returns
    [{"q_imag": t, "a_merge": a}, ...] in increasing t, one entry per pair
    born or dying.  Raises ConvergenceFailure when a bracket narrower than
    param_tol still holds no point, or when a scan interval does not hold
    exactly as many points as its number of pairs changes by.
    """
    if not 0 < max_q <= sys.float_info.max:   # so an int beyond the floats is not finite
        raise ValueError(f"max_q must be finite and positive, got {max_q}")
    if cls not in (EVEN_PI, ODD_PI):
        raise ValueError(f"imaginary-axis double points need the even-pi or odd-pi class, "
                         f"got {cls!r}")
    _check_count(count, trunc)
    if scan_steps is None:
        scan_steps = 8 + int(max_q)
    else:
        check_integer("scan_steps", scan_steps, 2)
    check_ep_tolerances("param_tol", param_tol, im_tol)
    pairs, real_below = {}, _real_stretch(cls, trunc)

    def pairs_at(t):
        if t < real_below:
            return []
        if t not in pairs:
            pairs[t] = [z for z in _sorted_eigs(1j * t, cls, trunc)[:count] if z.imag > im_tol]
        return pairs[t]

    def newton(lo, hi, fresh):
        if len(fresh) != 1:
            return None
        broken = hi if len(pairs_at(hi)) > len(pairs_at(lo)) else lo
        return _double_point(cls, trunc, float(fresh[0].real), broken, lo, hi)

    found, ts = [], _linspace(max_q / scan_steps, max_q, scan_steps)
    start = next(ts)
    for end in ts:
        if len(pairs_at(start)) == count // 2:
            break
        points = []
        for lo, hi, _, point in pair_changes(pairs_at, start, end, param_tol, newton):
            if point is None:
                raise ConvergenceFailure(f"no double point found in q = i*[{lo!r}, {hi!r}], "
                                         f"where the number of conjugate pairs changes")
            points.append(point)
        change = len(pairs_at(end)) - len(pairs_at(start))
        if len(points) != abs(change):
            raise ConvergenceFailure(f"{len(points)} double points between q = {start!r}i and "
                                     f"{end!r}i, where the number of conjugate pairs changes "
                                     f"by {change}")
        found += points
        start = end
    return [{"q_imag": t, "a_merge": a} for t, a in sorted(found)]


def _linspace(start, stop, num):
    """The floats of np.linspace(start, stop, num), num >= 2, one at a time."""
    delta, div = stop - start, num - 1
    step = delta / div
    for i in range(div):
        yield i * step + start if step else i / div * delta + start
    yield stop


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
    A coupling that overflows floating point raises ValueError.
    """
    given = {"mu4": mu4, "mu6": mu6}
    mu4, mu6 = check_finite(given)
    return build_hamiltonian("PT5", closed_form("the complex-Mathieu family", given, lambda: (
        1.0, 0.0, -mu6 / 2.0, mu4, -mu4, mu6, mu4 ** 2 / 4.0, -mu6 ** 2 / 4.0, -mu4 * mu6 / 2.0)))


def pt5_complex_solution(mu4: float, mu6: float, E: float, theta,
                         c1: complex = 1.0, c2: complex = 0.0,
                         trunc: int = 60) -> np.ndarray:
    """psi(theta) = exp(-i mu4/2 cos + mu6/2 sin) [c1 C(4E, i mu4, theta/2) + c2 S(...)].

    4E must be (within tolerance) a characteristic value of the class the
    requested combination lives in; bosonic states use the pi-periodic
    classes in theta/2, fermionic the 2pi-periodic ones.  theta must be a
    nonempty grid of finite angles.
    """
    given = {"mu4": mu4, "mu6": mu6, "E": E, "c1": c1, "c2": c2}
    mu4, mu6, E, c1, c2 = check_finite(given)
    theta = check_angles("theta", theta)
    z = theta / 2.0
    q = 1j * mu4
    a = 4.0 * E
    terms = [(c, mathieu_function(q, a, parity, z, trunc))
             for c, parity in ((c1, "even"), (c2, "odd")) if c != 0]
    with overflow_guard("the complex-Mathieu solution", lambda: given):
        parts = np.zeros(len(theta), dtype=complex)
        for c, function in terms:
            parts = parts + c * function
        prefactor = np.exp(-1j * (mu4 / 2.0) * np.cos(theta) + (mu6 / 2.0) * np.sin(theta))
        return prefactor * parts
