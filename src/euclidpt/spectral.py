"""Numerical eigenproblem for E2 elements in the circle representation.

The representation acts on L^2 of the circle with J = -i d/dtheta,
u = sin(theta), v = cos(theta).  With the boundary phase
psi(theta + 2*pi) = exp(i*pi*s) psi(theta), Fourier modes
exp(i(n + s/2) theta) for n = -N..N give a pentadiagonal complex matrix
for any degree-2 element.  s = 0 is bosonic, s = 1 fermionic, other
values anyonic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from . import dyson
from .algebra import E2Element, build_hamiltonian
from .errors import ConvergenceFailure, TrackingAmbiguity

DEFAULT_TRUNCATION = 64
REALITY_RTOL = 1e-8
MAX_HALVINGS = 12     # step halvings `sweep` tries before TrackingAmbiguity
_NORM_GRID = 2048     # quadrature points normalizing a closed-form wavefunction


@dataclass(frozen=True)
class SpectralProblem:
    element: E2Element
    sector: float = 0.0
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        _check_truncation(self.truncation)
        if not np.all(np.isfinite(self.element.coeffs)):
            raise ValueError("element coefficients must be finite")
        if not 0.0 <= self.sector < 2.0:
            raise ValueError(f"sector must lie in [0, 2), got {self.sector}")


def _check_truncation(truncation):
    if truncation < 4:
        raise ValueError(f"truncation must be at least 4, got {truncation}")


def generator_matrices(truncation, sector=0.0):
    """Truncated matrices of u, v, J on modes exp(i(n + s/2) theta)."""
    dim = 2 * truncation + 1
    n = np.arange(-truncation, truncation + 1)
    shift_up = np.eye(dim, k=-1, dtype=complex)   # mode n -> n + 1
    shift_dn = np.eye(dim, k=+1, dtype=complex)
    mat_u = (shift_up - shift_dn) / 2j
    mat_v = (shift_up + shift_dn) / 2.0
    mat_j = np.diag((n + sector / 2.0).astype(complex))
    return mat_u, mat_v, mat_j


def build_matrix(p: SpectralProblem) -> np.ndarray:
    """(2N+1)x(2N+1) matrix of the element, from its five diagonals in closed form.

    On mode n, k = n + s/2, with c_X the coefficient of monomial X (uJ = u @ J):
      [n, n]        c_1 + c_J k + c_J2 k^2 + (c_u2 + c_v2)/2
      [n -+ 1, n]   (+-i c_u + c_v)/2 + (+-i c_uJ + c_vJ) k/2
      [n -+ 2, n]   (c_v2 - c_u2)/4 +- i c_uv/4
    These are the products of the truncated `generator_matrices`, so the
    corners n = -+N, which lack the neighbour outside the truncation, add
    -(c_u2 + c_v2)/4 +- i c_uv/4.
    """
    c1, cu, cv, cj, cu2, cv2, cuv, cuj, cvj, cj2 = (complex(x) for x in p.element.coeffs)
    dim = 2 * p.truncation + 1
    k = np.arange(-p.truncation, p.truncation + 1) + p.sector / 2.0
    m = np.zeros((dim, dim), dtype=complex)
    flat = m.reshape(-1)
    flat[::dim + 1] = c1 + cj * k + cj2 * k * k + (cu2 + cv2) / 2
    flat[0] += 0.25j * cuv - (cu2 + cv2) / 4
    flat[-1] += -0.25j * cuv - (cu2 + cv2) / 4
    flat[1::dim + 1] = (0.5j * cu + 0.5 * cv) + (0.5j * cuj + 0.5 * cvj) * k[1:]
    flat[dim::dim + 1] = (-0.5j * cu + 0.5 * cv) + (-0.5j * cuj + 0.5 * cvj) * k[:-1]
    flat[2:dim * (dim - 2):dim + 1] = (cv2 - cu2) / 4 + 0.25j * cuv
    flat[2 * dim::dim + 1] = (cv2 - cu2) / 4 - 0.25j * cuv
    return m


def hill_form(element: E2Element) -> E2Element | None:
    """The Hill equation c(J + d)^2 + V isospectral to the element, or None.

    With c the J^2 coefficient, completing the square gives
    H = c(J + g)^2 + V, g = a u + b v + d, a = c_uJ/2c, b = c_vJ/2c,
    d = c_J/2c (using Ju = uJ - iv, Jv = vJ + iu).  The periodic part of g
    is removed by the gauge exp(-i(b sin - a cos)), which keeps the Floquet
    sector.  When V has no first harmonics, exactly, the result couples
    Fourier mode n only to n +- 2; otherwise (or when c = 0) this returns
    None.
    """
    c1, cu, cv, cj, cu2, cv2, cuv, cuj, cvj, c = (complex(x) for x in element.coeffs)
    if c == 0:
        return None
    a, b, d = cuj / (2 * c), cvj / (2 * c), cj / (2 * c)
    if cu - c * (1j * b + 2 * a * d) != 0 or cv - c * (-1j * a + 2 * b * d) != 0:
        return None
    return E2Element.from_terms(one=c1, J=cj, u2=cu2 - c * a * a, v2=cv2 - c * b * b,
                                uv=cuv - 2 * c * a * b, J2=c)


def _mathieu_form(p: SpectralProblem):
    """(c, e0, q2, shift) when the levels are e0 + c*a, else None.

    Here a runs over the Mathieu characteristic values of all four classes
    at q^2 = q2 (y'' + (a - 2q cos 2z) y = 0).  The `hill_form`
    c(J + d)^2 + v0 + alpha u^2 + beta v^2 + gamma uv has, in sector s,
    chains with diagonal c(n + shift)^2 + e0, shift = d + s/2,
    e0 = v0 - c d^2 + (alpha + beta)/2, and constant off-diagonals whose
    product is c^2 q2 = ((beta - alpha)^2 + gamma^2)/16.  When the shift is
    an integer, relabelling n + shift as n makes them the Mathieu chains.
    Only real c > 0, e0 and q2 qualify.
    """
    hill = hill_form(p.element)
    if hill is None:
        return None
    c = hill.term("J2")
    d = hill.term("J") / (2 * c)
    shift = d + p.sector / 2.0
    alpha, beta, gamma = hill.term("u2"), hill.term("v2"), hill.term("uv")
    e0 = hill.term("one") - c * d * d + (alpha + beta) / 2
    q2 = ((beta - alpha) ** 2 + gamma ** 2) / (16 * c * c)
    if c.imag or c.real <= 0 or e0.imag or q2.imag or shift.imag \
            or shift.real != round(shift.real):
        return None
    return c.real, e0.real, q2.real, shift.real


@functools.lru_cache(maxsize=16)
def _pt5_phases(truncation):
    """Diagonal of D = diag(i^n), n = -N..N; entries are exactly 1, i, -1, -i."""
    n = np.arange(-truncation, truncation + 1)
    phases = np.array([1, 1j, -1, -1j])[n % 4]
    phases.flags.writeable = False
    return phases


def _real_form(matrix):
    """D^-1 M D as a real array, or None when it has an imaginary part.

    PT5 maps c_k to (-1)^n exp(-i pi s/2) conj(c_k), so for a PT5-invariant
    element this similarity is real in every sector (Bender, Berry &
    Mandilara, J. Phys. A 35 (2002) L467); multiplying by the unit phases
    is exact, so the test is bit for bit.  The real eigensolver is cheaper
    and returns exact conjugate pairs and exactly real levels.  If R v = E v
    then M (D v) = E (D v).
    """
    phases = _pt5_phases(len(matrix) // 2)
    form = phases.conj()[:, None] * matrix * phases[None, :]
    if form.imag.any():
        return None
    return form.real


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray        # sorted by real part
    reality_flags: np.ndarray      # |Im E| <= REALITY_RTOL*max(1, |Re E|)
    truncation: int
    sector: float
    trusted_count: int = 0

    def trusted(self, count=None):
        k = self.trusted_count if count is None else count
        return self.eigenvalues[:k]

    def broken(self):
        return bool(np.any(~self.reality_flags[:self.trusted_count]))


def tridiagonal_eigenvalues(diag, upper, lower):
    """Complex eigenvalues of the tridiagonal matrix with these three diagonals.

    Only the diagonal and the products upper*lower fix the spectrum: a
    diagonal similarity rescales the off-diagonals and keeps their products.
    So when the diagonal and every product are real, the chain is solved in
    real arithmetic: with all products >= 0 it is similar to the symmetric
    tridiagonal with off-diagonals sqrt(product), which goes to
    `eigh_tridiagonal`; otherwise real off-diagonals stay as they are and
    complex ones become upper sqrt|p|, lower sign(p) sqrt|p|, for the dense
    real solver.  Every other chain takes the dense complex solver.
    """
    products = upper * lower
    if diag.imag.any() or products.imag.any():
        return scipy.linalg.eigvals(tridiagonal_matrix(diag, upper, lower))
    diag, products = diag.real, products.real
    if np.all(products >= 0):
        w = scipy.linalg.eigh_tridiagonal(diag, np.sqrt(products), eigvals_only=True)
        return w.astype(complex)
    if upper.imag.any() or lower.imag.any():
        upper = np.sqrt(np.abs(products))
        lower = np.sign(products) * upper
    return scipy.linalg.eigvals(tridiagonal_matrix(diag, upper.real, lower.real))


def tridiagonal_matrix(diag, upper, lower):
    """Dense matrix with the given diagonal, super- and sub-diagonal."""
    n = len(diag)
    m = np.zeros((n, n), dtype=np.result_type(diag, upper, lower))
    flat = m.reshape(-1)
    flat[::n + 1], flat[1::n + 1], flat[n::n + 1] = diag, upper, lower
    return m


def eigen_spectrum(p: SpectralProblem) -> Spectrum:
    """All eigenvalues of the truncated matrix, sorted by real part.

    Only the interior ~2N+1 - 4*sqrt(N) lowest levels are trusted; edge
    eigenvalues carry truncation artifacts.  Elements with a `hill_form`
    are solved on its two chains, Fourier modes of even and of odd index,
    each tridiagonal.  Other PT5-invariant elements are solved in the real
    form of `_real_form`, the rest in complex arithmetic.  Couplings whose
    matrix or chain products overflow raise ValueError.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            hill = hill_form(p.element)
            if hill is None:
                matrix = build_matrix(p)
                real = _real_form(matrix)
                w = scipy.linalg.eigvals(matrix if real is None else real)
            else:
                matrix = build_matrix(replace(p, element=hill))
                w = np.concatenate([tridiagonal_eigenvalues(
                    *(np.diagonal(matrix[k::2, k::2], j) for j in (0, 1, -1))) for k in (0, 1)])
    except FloatingPointError:
        raise ValueError(f"the circle-representation matrix at truncation {p.truncation} "
                         "overflows floating point") from None
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(w.real, kind="stable")
    w = w[order]
    flags = np.abs(w.imag) <= REALITY_RTOL * np.maximum(1.0, np.abs(w.real))
    trusted = max(0, 2 * p.truncation + 1 - int(math.ceil(4.0 * math.sqrt(p.truncation))))
    return Spectrum(eigenvalues=w, reality_flags=flags, truncation=p.truncation,
                    sector=p.sector, trusted_count=trusted)


def pt1_closed_spectrum(mu1: float, mu3: float, n: int, statistics: str = "bosonic") -> float:
    """Exact levels of the hermitized PT1 family: mu1*(k^2 - mu3^2/mu1^2).

    k = n for bosonic boundary conditions, k = n + 1/2 for fermionic.
    """
    if mu1 == 0:
        raise ValueError("mu1 must be nonzero")
    shift = (mu3 / mu1) ** 2
    if statistics == "bosonic":
        return mu1 * (n * n - shift)
    if statistics == "fermionic":
        return mu1 * (n * n + n + 0.25 - shift)
    raise ValueError(f"statistics must be 'bosonic' or 'fermionic', got {statistics!r}")


# ---------------------------------------------------------------------------
# parameter sweeps with level tracking
# ---------------------------------------------------------------------------

SWEEP_AXES = tuple(f"mu{i}" for i in range(1, 10)) + ("s",)


@dataclass(frozen=True)
class SweepTemplate:
    """What to diagonalize at each sweep point.

    family "raw" sweeps one coupling of build_hamiltonian(symmetry, mu);
    family "pt5-three" sweeps the three-parameter PT5 family
    J^2 - i*mu3{v,J} - mu4{u,J} + mu7 u^2 (axes mu3, mu4, mu7 only), with
    the tied couplings co-varying.
    """

    symmetry: str = "PT5"
    mu: tuple = (1.0,) + (0.0,) * 8
    family: str = "raw"
    sector: float = 0.0
    truncation: int = DEFAULT_TRUNCATION
    track_levels: int = 12

    def __post_init__(self):
        if self.family not in ("raw", "pt5-three"):
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.mu) != 9:
            raise ValueError("mu must have nine entries")
        if not (np.all(np.isfinite(self.mu)) and math.isfinite(self.sector)):
            raise ValueError(f"couplings and sector must be finite, got mu={self.mu}, "
                             f"sector={self.sector}")
        _check_truncation(self.truncation)
        dim = 2 * self.truncation + 1
        if not 1 <= self.track_levels <= dim:
            raise ValueError(f"track_levels {self.track_levels} must lie in 1..{dim} "
                             f"(2*truncation+1 levels at truncation {self.truncation})")

    def problem_at(self, axis: str, value: float) -> SpectralProblem:
        if axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
        sector = self.sector
        mu = list(self.mu)
        if axis == "s":
            sector = float(value) % 2.0
        else:
            mu[int(axis[2]) - 1] = float(value)
        if self.family == "pt5-three":
            if axis not in ("mu3", "mu4", "mu7", "s"):
                raise ValueError("pt5-three family sweeps mu3, mu4, mu7 or s only")
            element = dyson.pt5_three_param_hamiltonian(mu[2], mu[3], mu[6])
        else:
            element = build_hamiltonian(self.symmetry, mu)
        return SpectralProblem(element=element, sector=sector, truncation=self.truncation)


@dataclass(frozen=True)
class SweepResult:
    template: SweepTemplate
    axis: str
    values: np.ndarray
    curves: np.ndarray          # (track_levels, npoints), tracked by continuation
    refined_points: int = 0


def _levels_at(template, axis, value):
    spectrum = eigen_spectrum(template.problem_at(axis, value))
    return spectrum.eigenvalues[:template.track_levels]


def _match(prev, new):
    """Order `new` against `prev` by minimal total |dE|; returns (ordered, cost)."""
    cost = np.abs(prev[:, None] - new[None, :])
    rows, cols = linear_sum_assignment(cost)
    ordered = np.empty_like(new)
    ordered[rows] = new[cols]
    return ordered, float(cost[rows, cols].max())


def sweep(template: SweepTemplate, axis: str, lo: float, hi: float, steps: int,
          workers: int = 1) -> SweepResult:
    """Level curves over [lo, hi], matched by nearest-neighbor continuation.

    Labels are assigned by real-part order at the sweep start.  When the
    best assignment between adjacent points jumps by more than half the
    median level spacing at the start, midpoints are inserted internally
    until the match is unambiguous; TrackingAmbiguity is raised after
    MAX_HALVINGS halvings.  With workers > 1 the grid-point
    eigensolves run on a thread pool (LAPACK releases the GIL); the
    continuation itself stays an ordered sequential reduction.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    values = np.linspace(lo, hi, steps)
    cache = {}

    def levels(x):
        x = float(x)
        if x not in cache:
            cache[x] = _levels_at(template, axis, x)
        return cache[x]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for x, lv in zip(values, pool.map(lambda v: _levels_at(template, axis, v),
                                              values)):
                cache[float(x)] = lv

    first = levels(values[0])
    spacing = np.diff(np.sort(first.real))
    scale = float(np.median(spacing)) if len(spacing) else 1.0
    max_jump = max(0.5 * scale, 1e-6)
    curves = np.empty((template.track_levels, steps), dtype=complex)
    curves[:, 0] = first
    refined = 0

    def continue_to(prev_levels, x_prev, x_next, depth):
        nonlocal refined
        ordered, jump = _match(prev_levels, levels(x_next))
        if jump <= max_jump or depth >= MAX_HALVINGS:
            if jump > max_jump:
                raise TrackingAmbiguity(
                    f"level matching jump {jump:.3g} > {max_jump:.3g} at {axis}={x_next:.6g} "
                    f"after {depth} refinements")
            return ordered
        refined += 1
        mid = 0.5 * (x_prev + x_next)
        middle = continue_to(prev_levels, x_prev, mid, depth + 1)
        return continue_to(middle, mid, x_next, depth + 1)

    for k in range(1, steps):
        curves[:, k] = continue_to(curves[:, k - 1], values[k - 1], values[k], 0)
    return SweepResult(template=template, axis=axis, values=values, curves=curves,
                       refined_points=refined)


# ---------------------------------------------------------------------------
# exceptional points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalPoint:
    parameter_value: float
    energy: float
    level_pair: tuple
    bracket_width: float
    axis: str = ""

    def as_dict(self):
        return {"axis": self.axis, "parameter_value": self.parameter_value,
                "energy": self.energy, "level_pair": list(self.level_pair),
                "bracket_width": self.bracket_width}


def check_ep_tolerances(tol_name, tol, im_tol, im_tol_name="im_tol"):
    """Require a finite positive bisection tolerance and a finite non-negative im_tol."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{tol_name} must be finite and positive, got {tol}")
    if not (math.isfinite(im_tol) and im_tol >= 0):
        raise ValueError(f"{im_tol_name} must be finite and non-negative, got {im_tol}")


def bisect_transition(changed, lo, hi, tol):
    """Narrow the bracket between lo and hi (in either order), where
    changed(lo) is false and changed(hi) true, to a width <= tol, or to
    adjacent floats when tol is below their spacing."""
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if not min(lo, hi) < mid < max(lo, hi):
            break
        if changed(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def reality_transitions(levels_at, grid, tol, im_tol):
    """Yield (k, lo, hi, fresh) for every change in the number of conjugate pairs.

    A pair is counted by its member with Im > im_tol.  Grid interval k is
    walked from its first end: each change in that count is bisected to a
    bracket from lo (the walk side) to hi of width <= tol
    (`bisect_transition`), and the walk resumes at hi until the count
    matches the interval's other end, so several transitions inside one
    interval are all found.  `fresh` holds the +Im members, sorted by real
    part, present at one end of the bracket and unmatched at the other: the
    pairs born or dying across it.  Members match when their real parts
    differ by at most max(1e-3, 100*tol).  `levels_at(x)` is called once per
    distinct point.
    """
    match_tol = max(1e-3, 100 * tol)
    cache = {}

    def pairs_at(x):
        if x not in cache:
            cache[x] = sorted((z for z in levels_at(x) if z.imag > im_tol),
                              key=lambda z: z.real)
        return cache[x]

    grid = [float(x) for x in grid]
    for k, (start, end) in enumerate(zip(grid, grid[1:])):
        n_end = len(pairs_at(end))
        while (n_start := len(pairs_at(start))) != n_end:
            lo, hi = bisect_transition(lambda x: len(pairs_at(x)) != n_start, start, end, tol)
            fewer, more = sorted((pairs_at(lo), pairs_at(hi)), key=len)
            unused, fresh = list(fewer), []
            for z in more:
                near = [i for i, w in enumerate(unused) if abs(z.real - w.real) <= match_tol]
                if near:
                    del unused[near[0]]
                else:
                    fresh.append(z)
            yield k, lo, hi, fresh
            start = hi


def find_exceptional_points(result: SweepResult, tol: float = 1e-6,
                            im_tol: float = 1e-6) -> list:
    """Exceptional points of the sweep, sorted by parameter value and energy.

    When every grid point has a `_mathieu_form` with one shift, the points
    come from the closed-form catalogue of `_catalogue_eps`.  Otherwise
    every reality transition found by `reality_transitions` is bisected to
    a bracket <= tol, and a point is reported for each conjugate pair born
    (or dying) across it; its energy is the real part of that pair at the
    broken end of the final bracket.  Grid points reuse the sweep's own
    levels; only bisection points are solved.  Either way the level pair is
    the two tracked levels at the start of the grid interval nearest the
    energy.  Returns an empty list when the sweep has no transitions.
    """
    check_ep_tolerances("tol", tol, im_tol)
    forms = [_mathieu_form(result.template.problem_at(result.axis, x)) for x in result.values]
    if all(forms) and len({f[3] for f in forms}) == 1:
        eps = _catalogue_eps(result, [f[2] for f in forms], im_tol)
    else:
        eps = _bisected_eps(result, tol, im_tol)
    return sorted(eps, key=lambda p: (p.parameter_value, p.energy))


def _bisected_eps(result, tol, im_tol):
    on_grid = {float(x): result.curves[:, k] for k, x in enumerate(result.values)}

    def levels_at(x):
        if x in on_grid:
            return on_grid[x]
        return _levels_at(result.template, result.axis, x)

    return [_exceptional_point(result, k, 0.5 * (lo + hi), float(z.real), abs(hi - lo))
            for k, lo, hi, fresh in reality_transitions(levels_at, result.values, tol, im_tol)
            for z in fresh]


def _exceptional_point(result, k, x, energy, width):
    order = np.argsort(np.abs(result.curves[:, k].real - energy))[:2]
    return ExceptionalPoint(parameter_value=x, energy=energy,
                            level_pair=(int(order[0]), int(order[1])),
                            bracket_width=width, axis=result.axis)


def _conjugate_pairs(levels, im_tol):
    """Indices i where levels i and i + 1 form a conjugate pair with |Im| > im_tol."""
    found, i = [], 0
    while i < len(levels) - 1:
        a, b = levels[i], levels[i + 1]
        if a.imag * b.imag < 0 and min(abs(a.imag), abs(b.imag)) > im_tol:
            found.append(i)
            i += 2
        else:
            i += 1
    return found


def _catalogue_eps(result, q2s, im_tol):
    """Exceptional points of a sweep of Mathieu forms, from their closed-form catalogue.

    With levels e0 + c*a(q) (`_mathieu_form`), pairs coalesce where q^2
    crosses a threshold: every odd-n pair a_n, b_n meets at a = n^2 where
    q^2 changes sign, and two same-class values merge at a_k where q = i*t
    passes a double point t_k of the even-pi or odd-pi class (Mulholland &
    Goldstein 1929; Blanch & Clemm, Math. Comp. 23 (1969) 97), which
    `mathieu.complex_mathieu_eps` finds on its chains for the t the sweep
    reaches.  Each crossing between grid values of q2s (q^2 at the grid) is
    bisected to adjacent floats on the sign of q^2 minus the threshold,
    without an eigensolve.  It is then certified by one solve on either
    side, a quarter grid interval (at most a third of the way to the next
    crossing) away: every tracked pair real on the side above the threshold
    and conjugate (|Im| > im_tol) below it is reported.  At q^2 = 0 these
    must be odd-n pairs, levels 2n-1 and 2n; at a double point there is at
    most one; no pair may turn real below the threshold.  A certificate that
    breaks these rules raises ConvergenceFailure; a pair that stays within
    im_tol of real on both sides is not reported.
    """
    template, axis = result.template, result.axis
    grid = [float(x) for x in result.values]

    def form(x):
        found = _mathieu_form(template.problem_at(axis, x))
        if found is None:
            raise ConvergenceFailure(f"{axis}={x!r} leaves the Mathieu form of the sweep")
        return found

    crossings = [(0.0, None)]   # (threshold of q^2, merge value a or None for n^2)
    t_max = math.sqrt(max(0.0, -min(q2s)))
    if t_max > 0:
        from .mathieu import EVEN_PI, ODD_PI, complex_mathieu_eps   # mathieu imports spectral
        count = template.track_levels
        for cls in (EVEN_PI, ODD_PI):
            crossings += [(-ep["q_imag"] ** 2, ep["a_merge"]) for ep in complex_mathieu_eps(
                t_max, cls, count=count, trunc=max(count + 8, template.truncation // 2 + 1),
                scan_steps=8 + int(t_max), param_tol=1e-15, im_tol=0.0)]
    points = []
    for threshold, a in crossings:
        for k in range(len(grid) - 1):
            below = q2s[k] < threshold
            if below != (q2s[k + 1] < threshold):
                lo, hi = bisect_transition(lambda x: (form(x)[2] < threshold) != below,
                                           grid[k], grid[k + 1], 0.0)
                points.append((0.5 * (lo + hi), k, abs(hi - lo), threshold, a))
    eps = []
    for j, (x, k, width, threshold, a) in enumerate(points):
        gap = min((abs(y - x) for i, (y, *_) in enumerate(points) if i != j), default=math.inf)
        h = min(abs(grid[k + 1] - grid[k]) / 4, gap / 3)
        sides = sorted((form(s)[2] < threshold, s) for s in (x - h, x + h))
        if [side for side, _ in sides] != [False, True]:
            raise ConvergenceFailure(f"the crossing at {axis}={x!r} has no resolved sides")
        (_, above), (_, below) = sides
        real, broken = _levels_at(template, axis, above), _levels_at(template, axis, below)
        flips = [i for i in _conjugate_pairs(broken, im_tol)
                 if max(abs(real[i].imag), abs(real[i + 1].imag)) <= im_tol]
        wrong = [i for i in _conjugate_pairs(real, im_tol)
                 if max(abs(broken[i].imag), abs(broken[i + 1].imag)) <= im_tol]
        if wrong or (any(i % 4 != 1 for i in flips) if a is None else len(flips) > 1):
            raise ConvergenceFailure(
                f"levels at {axis}={above!r} and {below!r} contradict the exceptional-point "
                f"catalogue at {axis}={x!r}: new pairs at levels {flips}, lost pairs at {wrong}")
        c, e0 = form(x)[:2]
        for i in flips:
            merge = ((i + 1) // 2) ** 2 if a is None else a
            eps.append(_exceptional_point(result, k, x, e0 + c * merge, width))
    return eps


# ---------------------------------------------------------------------------
# wavefunctions and intensities
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _plane_waves(theta_bytes, modes, sector):
    """exp(i(n + s/2) theta), rows theta (float64 bytes), columns n = -(modes-1)/2...

    Cached because an intensity sweep evaluates every wavefunction on one
    grid; read-only because callers share it.
    """
    theta = np.frombuffer(theta_bytes)
    k = np.arange(modes) - (modes - 1) // 2 + sector / 2.0
    table = np.exp(1j * np.outer(theta, k))
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class WavefunctionSpec:
    """Either a Fourier coefficient vector or a tagged closed form.

    Fourier: psi(theta) = sum_n coeffs[n] exp(i(n + s/2) theta).
    Closed form "pt1": the gauge-dressed plane-wave pair
    exp(-i(mu4 cos + mu3 sin)/mu1) * [c1 e^{-i k theta} + (i/(2k)) c2 e^{i k theta}].
    """

    sector: float = 0.0
    coeffs: np.ndarray | None = None
    closed_form: str | None = None
    params: dict = field(default_factory=dict)
    c1: complex = 1.0
    c2: complex = 0.0

    def evaluate(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.coeffs is not None:
            table = _plane_waves(theta.tobytes(), len(self.coeffs), self.sector)
            return table @ self.coeffs
        if self.closed_form == "pt1":
            mu1 = self.params["mu1"]
            mu3 = self.params.get("mu3", 0.0)
            mu4 = self.params.get("mu4", 0.0)
            kappa = self.params["kappa"]
            gauge = np.exp(-1j * (mu4 * np.cos(theta) + mu3 * np.sin(theta)) / mu1)
            waves = self.c1 * np.exp(-1j * kappa * theta)
            if self.c2 != 0:
                waves = waves + (1j / (2.0 * kappa)) * self.c2 * np.exp(1j * kappa * theta)
            return gauge * waves
        raise ValueError("wavefunction has neither coefficients nor a known closed form")

    def normalized(self):
        """Rescale so the L^2 norm over [0, 2*pi) is 1."""
        if self.coeffs is not None:
            norm = math.sqrt(2.0 * math.pi * float(np.sum(np.abs(self.coeffs) ** 2)))
            return replace(self, coeffs=self.coeffs / norm)
        theta = np.linspace(0.0, 2.0 * math.pi, _NORM_GRID, endpoint=False)
        values = self.evaluate(theta)
        # uniform periodic grid: the rectangle rule is spectrally accurate
        norm = math.sqrt(float(np.sum(np.abs(values) ** 2)) * 2.0 * math.pi / _NORM_GRID)
        return replace(self, c1=self.c1 / norm, c2=self.c2 / norm)


def pt1_closed_wavefunction(mu1, mu3, mu4, n, statistics="bosonic", c1=1.0, c2=0.0):
    kappa = abs(n) if statistics == "bosonic" else abs(n + 0.5)
    sector = 0.0 if statistics == "bosonic" else 1.0
    return WavefunctionSpec(sector=sector, closed_form="pt1",
                            params={"mu1": mu1, "mu3": mu3, "mu4": mu4, "kappa": kappa},
                            c1=c1, c2=c2)


def _gauge_coefficients(a, b, truncation):
    """Fourier coefficients of exp(-i(b sin - a cos)) for modes -2N..2N-1.

    Taken by FFT on 4N points; the aliased tail is of the size of the
    coefficients of modes near +-2N, which decay like Bessel functions.
    """
    size = 4 * truncation
    theta = 2.0 * math.pi * np.arange(size) / size
    gauge = np.exp(-1j * (b * np.sin(theta) - a * np.cos(theta)))
    return np.fft.fftshift(np.fft.fft(gauge)) / size


def _hill_vectors(p, hill, levels):
    """Eigenvectors of the given levels from the chains of the Hill element.

    Each chain vector of the Hill equation is multiplied by the gauge that
    `hill_form` removes; in Fourier space that is a convolution, cropped
    back to modes -N..N.
    """
    matrix = build_matrix(replace(p, element=hill))
    chains = []
    for k in (0, 1):
        chain = matrix[k::2, k::2]
        chains.append(scipy.linalg.eig(chain if chain.imag.any() else chain.real))
    w = np.concatenate([chain_w for chain_w, _ in chains])
    order = np.argsort(w.real, kind="stable")
    c = p.element.term("J2")
    gauge = _gauge_coefficients(p.element.term("uJ") / (2 * c),
                                p.element.term("vJ") / (2 * c), p.truncation)
    even = len(chains[0][0])
    vectors = []
    for level in levels:
        idx = order[level]
        k, col = (0, idx) if idx < even else (1, idx - even)
        vec = np.zeros(len(matrix), dtype=complex)
        vec[k::2] = chains[k][1][:, col]
        # modes: vec -N..N, gauge -2N..2N-1, product -3N..3N-1
        vectors.append(np.convolve(vec, gauge)[2 * p.truncation:4 * p.truncation + 1])
    return vectors


def wavefunction(p: SpectralProblem, level) -> WavefunctionSpec | list[WavefunctionSpec]:
    """L^2-normalized eigenvector of the given level (real-part order).

    `level` may also be a sequence of levels; the result is then a list,
    and one eigendecomposition serves them all.  Elements with a
    `hill_form` are solved on its two chains (`_hill_vectors`), the rest
    on the full matrix, in real form where `_real_form` applies.
    """
    single = np.ndim(level) == 0
    levels = [level] if single else list(level)
    dim = 2 * p.truncation + 1
    for lv in levels:
        if not 0 <= lv < dim:
            raise ValueError(f"level {lv} outside 0..{dim - 1}")
    hill = hill_form(p.element)
    if hill is not None:
        vectors = _hill_vectors(p, hill, levels)
    else:
        matrix = build_matrix(p)
        real = _real_form(matrix)
        if real is None:
            w, vecs = scipy.linalg.eig(matrix)
        else:
            w, vecs = scipy.linalg.eig(real)
            vecs = vecs * _pt5_phases(p.truncation)[:, None]
        order = np.argsort(w.real, kind="stable")
        vectors = [vecs[:, order[lv]] for lv in levels]
    specs = [WavefunctionSpec(sector=p.sector, coeffs=v).normalized() for v in vectors]
    return specs[0] if single else specs


def intensity(w: WavefunctionSpec, grid) -> np.ndarray:
    values = w.evaluate(np.asarray(grid, dtype=float))
    return np.abs(values) ** 2


# circle realizations of the antilinear symmetries: psi -> conj(psi(map(theta)))
_CIRCLE_MAPS = {
    "PT1": lambda theta: theta + math.pi,
    "PT2": lambda theta: theta,
    "PT3": lambda theta: math.pi / 2.0 - theta,
    "PT4": lambda theta: -theta,
    "PT5": lambda theta: math.pi - theta,
}


def pt_image(w: WavefunctionSpec, sym, theta):
    """Samples of the antilinear image of the wavefunction on the grid."""
    tag = sym if isinstance(sym, str) else sym.tag
    mapped = _CIRCLE_MAPS[tag](np.asarray(theta, dtype=float))
    return np.conj(w.evaluate(mapped))


def pt_eigenstate_check(w: WavefunctionSpec, sym, grid=None, tol=1e-6):
    """Return +1 or -1 when the PT image is (minus) the state; else "broken".

    The comparison is literal: callers holding eigenvectors with an
    arbitrary overall phase should align it first (an unbroken state
    satisfies image = c*psi with |c| = 1; "broken" here means the image is
    not proportional to +-psi on the grid).
    """
    theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False) if grid is None \
        else np.asarray(grid, dtype=float)
    psi = w.evaluate(theta)
    image = pt_image(w, sym, theta)
    scale = float(np.max(np.abs(psi)))
    if scale == 0:
        raise ValueError("zero wavefunction")
    if float(np.max(np.abs(image - psi))) <= tol * scale:
        return 1
    if float(np.max(np.abs(image + psi))) <= tol * scale:
        return -1
    return "broken"
