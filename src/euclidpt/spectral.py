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
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import dyson
from .algebra import E2Element, build_hamiltonian, completed_square, hamiltonian_coeffs
from .chains import (certify, check_ep_tolerances, inverse_iteration, linalg, pair_changes,
                     tridiagonal_eigenvalues, tridiagonal_matrix)
from .errors import (ConvergenceFailure, GaugeOverflow, TrackingAmbiguity, check_angles,
                     check_finite, check_finite_array, check_integer, overflow_error,
                     unknown_tag)
from .mathieu import EVEN_PI, ODD_PI, complex_mathieu_eps

DEFAULT_TRUNCATION = 64
MIN_TRUNCATION = 4
REALITY_RTOL = 1e-8
MAX_HALVINGS = 12     # step halvings `sweep` tries before TrackingAmbiguity
DRIFT_RTOL = 1e-10    # how far `sweep`'s working truncation may move a probe's levels from N's
STACK = 64            # the most points one stack of Hill chains holds (`_in_stacks`)


@dataclass(frozen=True)
class SpectralProblem:
    element: E2Element
    sector: float = 0.0
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        _check_truncation(self.truncation)
        if not np.isfinite(self.element.coeffs).all():
            raise ValueError("element coefficients must be finite")
        if not 0.0 <= self.sector < 2.0:
            raise ValueError(f"sector must lie in [0, 2), got {self.sector}")


def _check_truncation(truncation):
    check_integer("truncation", truncation)
    if truncation < MIN_TRUNCATION:
        raise ValueError(f"truncation must be at least {MIN_TRUNCATION}, got {truncation}")


def trusted_count(truncation):
    """Interior levels of the truncation that `eigen_spectrum` trusts, 2N+1 - 4 sqrt(N)."""
    _check_truncation(truncation)
    return max(0, 2 * truncation + 1 - int(math.ceil(4.0 * math.sqrt(truncation))))


def build_matrix(p: SpectralProblem) -> np.ndarray:
    """(2N+1)x(2N+1) matrix of the element, from its five diagonals in closed form.

    On mode n, k = n + s/2, with c_X the coefficient of monomial X (uJ = u @ J):
      [n, n]        c_1 + c_J k + c_J2 k^2 + (c_u2 + c_v2)/2
      [n -+ 1, n]   (+-i c_u + c_v)/2 + (+-i c_uJ + c_vJ) k/2
      [n -+ 2, n]   (c_v2 - c_u2)/4 +- i c_uv/4
    These are the products of the truncated generator matrices (the oracle
    `tests/oracles.py::generator_matrices`), so the corners n = -+N, which
    lack the neighbour outside the truncation, add -(c_u2 + c_v2)/4 +- i c_uv/4.
    """
    c1, cu, cv, cj, cu2, cv2, cuv, cuj, cvj, cj2 = p.element.coeffs.tolist()
    dim = 2 * p.truncation + 1
    k, diag, upper, lower = _even_bands((c1, cj, cu2, cv2, cuv, cj2), p.sector, p.truncation)
    m = np.zeros((dim, dim), dtype=complex)
    flat = m.reshape(-1)
    flat[::dim + 1] = diag
    flat[1::dim + 1] = (0.5j * cu + 0.5 * cv) + (0.5j * cuj + 0.5 * cvj) * k[1:]
    flat[dim::dim + 1] = (-0.5j * cu + 0.5 * cv) + (-0.5j * cuj + 0.5 * cvj) * k[:-1]
    flat[2:dim * (dim - 2):dim + 1] = upper
    flat[2 * dim::dim + 1] = lower
    return m


def _even_bands(square, sector, truncation):
    """(k, diagonal, [n - 2, n], [n + 2, n]) of `build_matrix` on the modes k = n + s/2.

    `square` holds the coefficients of 1, J, u2, v2, uv and J2, in the order
    of a `completed_square`, which fix these bands; the two off-diagonals are
    constant.  Numbers give one matrix's bands.  Columns of m coefficients
    and sectors, shape (m, 1), give m rows of each, every entry by the same
    arithmetic, so a stack of Hill chains is bit for bit the chains that
    `eigen_spectrum` slices from each matrix.
    """
    c1, cj, cu2, cv2, cuv, cj2 = square
    k = np.arange(-truncation, truncation + 1) + sector / 2.0
    diag = c1 + cj * k + cj2 * k * k + (cu2 + cv2) / 2
    diag[..., :1] += 0.25j * cuv - (cu2 + cv2) / 4
    diag[..., -1:] += -0.25j * cuv - (cu2 + cv2) / 4
    return k, diag, (cv2 - cu2) / 4 + 0.25j * cuv, (cv2 - cu2) / 4 - 0.25j * cuv


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
    square = completed_square(element.coeffs.tolist())
    if square is None:
        return None
    v0, cj, alpha, beta, gamma, c = square
    return E2Element([v0, 0j, 0j, cj, alpha, beta, gamma, 0j, 0j, c])


def _mathieu_form(square, sector: float):
    """(c, e0, q2, shift) when the levels are e0 + c*a, else None.

    Here a runs over the Mathieu characteristic values of all four classes
    at q^2 = q2 (y'' + (a - 2q cos 2z) y = 0).  The `completed_square`
    c(J + d)^2 + v0 + alpha u^2 + beta v^2 + gamma uv has, in sector s,
    chains with diagonal c(n + shift)^2 + e0, shift = d + s/2,
    e0 = v0 - c d^2 + (alpha + beta)/2, and constant off-diagonals whose
    product is c^2 q2 = ((beta - alpha)^2 + gamma^2)/16.  When the shift is
    an integer, relabelling n + shift as n makes them the Mathieu chains.
    Only real c > 0, e0 and q2 qualify, of a square that is not None.
    """
    if square is None:
        return None
    v0, cj, alpha, beta, gamma, c = square
    d = cj / (2 * c)
    shift = d + sector / 2.0
    e0 = v0 - c * d * d + (alpha + beta) / 2
    try:
        q2 = ((beta - alpha) ** 2 + gamma ** 2) / (16 * c * c)
    except ArithmeticError:   # q2 overflows, or c^2 underflows to 0
        return None
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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Levels of a problem, with the blocks they were solved on for `wavefunction`.

    A block is (matrix, bands, wave): a Hill chain's three diagonals `bands`, matrix None, or
    the dense matrix of an element without a `hill_form`, bands None.  wave(v) is the
    `WavefunctionSpec` of a vector v of the block.
    """
    eigenvalues: np.ndarray        # sorted by real part
    truncation: int
    sector: float
    blocks: list = field(repr=False)
    block_index: np.ndarray = field(repr=False)   # the entry of `blocks` that gave each level
    trusted_count: int = 0

    def trusted(self, count=None):
        k = self.trusted_count if count is None else count
        return self.eigenvalues[:k]

    def broken(self):
        """Whether a trusted level has |Im E| > REALITY_RTOL*max(1, |Re E|)."""
        w = self.trusted()
        return not np.all(np.abs(w.imag) <= REALITY_RTOL * np.maximum(1.0, np.abs(w.real)))


def _solve_guard(solve):
    """Decorate solve(p, ...): overflow raises ValueError, a LAPACK failure ConvergenceFailure."""
    @functools.wraps(solve)
    def guarded(p, *args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return solve(p, *args, **kwargs)
        except FloatingPointError:
            raise ValueError(f"the circle-representation matrix at truncation {p.truncation} "
                             "overflows floating point") from None
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc

    return guarded


def _hill_spectra(chains):
    """(levels, spectra) of a stack of Hill points, from the even- and the odd-mode chains'
    stacked (diag, upper, lower).

    levels holds each row's levels, both chains' together, sorted by real part.
    spectra(points) yields, lazily, the `Spectrum` of each row's (element, sector): its
    blocks are its row of the two chains, each real unless it has an imaginary part, whose
    wave(v) is a series on the chain's own modes, every other one of -N..N, times the gauge
    `hill_form` removes.  `tridiagonal_eigenvalues` solves a complex chain with no imaginary
    part as that real one, so a row's levels do not depend on the stack's dtype.
    """
    w = np.concatenate([tridiagonal_eigenvalues(*chain) for chain in chains], axis=1)
    order = w.real.argsort(axis=1, kind="stable")
    levels = w[np.arange(len(w))[:, None], order]
    n = chains[1][0].shape[1]   # the odd chain's length, the truncation
    block_index = (order > n).astype(int)   # the even chain's n + 1 levels come first

    def spectra(points):
        for i, (element, sector) in enumerate(points):
            *_, cuj, cvj, c = element.coeffs.tolist()
            gauge = cuj / (2 * c), cvj / (2 * c)
            blocks = []
            for k, chain in enumerate(chains):
                bands = [band[i] for band in chain]
                if not any(band.imag.any() for band in bands if band.dtype.kind == "c"):
                    bands = [band.real for band in bands]
                blocks.append((None, bands, functools.partial(
                    WavefunctionSpec, sector=sector, first=k - n, step=2, gauge=gauge)))
            yield Spectrum(eigenvalues=levels[i], truncation=n, sector=sector, blocks=blocks,
                           block_index=block_index[i], trusted_count=trusted_count(n))

    return levels, spectra


@_solve_guard
def eigen_spectrum(p: SpectralProblem) -> Spectrum:
    """All eigenvalues of the truncated matrix, sorted by real part.

    Only the interior ~2N+1 - 4*sqrt(N) lowest levels are trusted; edge
    eigenvalues carry truncation artifacts.  An element with a `hill_form`
    is a stack of one (`_hill_spectra`): its even- and odd-mode chains are
    sliced from the Hill element's `build_matrix`, each real unless it has
    an imaginary part.  Any other is one block, solved whole: the
    `_real_form` (vectors times D) or the complex matrix (vectors as they
    are), on modes -N..N.  Overflowing couplings raise ValueError.
    """
    hill = hill_form(p.element)
    if hill is None:
        matrix = build_matrix(p)
        real = _real_form(matrix)
        if real is None:
            block = matrix, None, lambda v: WavefunctionSpec(v, p.sector)
        else:
            block = real, None, lambda v: WavefunctionSpec(v * _pt5_phases(p.truncation),
                                                           p.sector)
        w = linalg().eigvals(block[0])
        return Spectrum(eigenvalues=w[w.real.argsort(kind="stable")], truncation=p.truncation,
                        sector=p.sector, blocks=[block], block_index=np.zeros(len(w), int),
                        trusted_count=trusted_count(p.truncation))
    matrix = build_matrix(SpectralProblem(hill, p.sector, p.truncation))
    if not matrix.imag.any():   # then both chains are real
        matrix = matrix.real
    diagonals = [matrix.diagonal(j)[None] for j in (0, 2, -2)]   # the only nonzero ones
    chains = [[band[:, k::2] for band in diagonals] for k in (0, 1)]
    return next(_hill_spectra(chains)[1]([(p.element, p.sector)]))


def pt1_closed_spectrum(mu1: float, mu3: float, n: int, statistics: str = "bosonic") -> float:
    """Exact levels of the hermitized PT1 family: mu1*(k^2 - mu3^2/mu1^2).

    k = n for bosonic boundary conditions, k = n + 1/2 for fermionic.
    """
    couplings = {"mu1": mu1, "mu3": mu3}
    check_finite(couplings)
    kappa, _ = _pt1_kappa(mu1, n, statistics)
    try:
        energy = mu1 * (kappa * kappa - (mu3 / mu1) ** 2)
    except OverflowError:   # a float's ** raises where its * returns inf
        energy = math.inf
    if not math.isfinite(energy):
        raise overflow_error("the PT1 level", couplings | {"n": n})
    return energy


def _pt1_kappa(mu1, n, statistics):
    """(|k|, sector) of level n of the PT1 family: (|n|, 0) bosonic, (|n + 1/2|, 1) fermionic."""
    if mu1 == 0:
        raise ValueError("mu1 must be nonzero")
    if statistics not in ("bosonic", "fermionic"):
        raise ValueError(f"statistics must be 'bosonic' or 'fermionic', got {statistics!r}")
    if not float(n).is_integer():
        raise ValueError(f"n must be an integer, got {n!r}")
    sector = 0.0 if statistics == "bosonic" else 1.0
    return abs(n + sector / 2), sector


# ---------------------------------------------------------------------------
# parameter sweeps with level tracking
# ---------------------------------------------------------------------------

SWEEP_AXES = tuple(f"mu{i}" for i in range(1, 10)) + ("s",)
PT5_THREE_AXES = ("mu3", "mu4", "mu7", "s")


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
        check_integer("track_levels", self.track_levels)
        dim = 2 * self.truncation + 1
        if not 1 <= self.track_levels <= dim:
            raise ValueError(f"track_levels {self.track_levels} must lie in 1..{dim} "
                             f"(2*truncation+1 levels at truncation {self.truncation})")

    def problem_at(self, axis: str, value: float) -> SpectralProblem:
        return SpectralProblem(*self.element_at(axis, value), truncation=self.truncation)

    def element_at(self, axis: str, value: float):
        """(element, sector) at axis = value, without the checks of a SpectralProblem."""
        symmetry, mu, sector = self._couplings_at(axis, value)
        return build_hamiltonian(symmetry, mu), sector

    def form_at(self, axis: str, value: float):
        """`_mathieu_form` at axis = value from the couplings, in Python scalars, no element."""
        return _mathieu_form(*self.square_at(axis, value))

    def square_at(self, axis: str, value: float):
        """(`completed_square`, sector) at axis = value from the couplings, no element."""
        symmetry, mu, sector = self._couplings_at(axis, value)
        return completed_square(hamiltonian_coeffs(symmetry, mu)), sector

    def _couplings_at(self, axis, value):
        """(symmetry, mu, sector) of `build_hamiltonian` at axis = value."""
        if axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
        sector = self.sector
        mu = list(self.mu)
        if axis == "s":
            sector = float(value) % 2.0
        else:
            mu[int(axis[2]) - 1] = float(value)
        if self.family == "pt5-three":
            if axis not in PT5_THREE_AXES:
                raise ValueError("pt5-three family sweeps mu3, mu4, mu7 or s only")
            return "PT5", dyson.pt5_three_param_couplings(mu[2], mu[3], mu[6]), sector
        return self.symmetry, mu, sector


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Tracked level curves, and the `_mathieu_form` of each grid point for the EP search."""
    template: SweepTemplate
    axis: str
    values: np.ndarray
    curves: np.ndarray          # (track_levels, npoints), tracked by continuation
    truncation: int             # the working truncation every level was solved at
    drift: float                # largest relative change of a probe's levels from those at N;
                                # the three probes only: next to an EP a grid point can move
                                # further (seed-1 window: 1.3e-10 at mu3 = -3.0, drift 3.2e-13)
    forms: tuple                # `_mathieu_form` at each value, of the elements the grid solved
    refined_points: int = 0


def _levels_at(template, axis, value):
    return _tracked_levels(template)(eigen_spectrum(template.problem_at(axis, value)))


def _tracked_levels(template):
    """What `sweep` measures at a `Spectrum`: its template.track_levels lowest levels."""
    return lambda spectrum: spectrum.eigenvalues[:template.track_levels]


def _level_drift(exact, cut):
    """Largest |E - E_exact|/max(1, |E_exact|), the levels paired by `_match`."""
    return float(np.max(np.abs(_match(exact, cut)[0] - exact) / np.maximum(1, np.abs(exact))))


@_solve_guard
def _hill_stack(work, squares, sectors):
    """`_hill_spectra` of the Hill element of each `completed_square` of `squares`, in its
    sector, at work.truncation: row by row and bit for bit what `eigen_spectrum` solves.

    The bands of the whole stack come from `_even_bands` at once, and each parity's chains
    are one stack for `tridiagonal_eigenvalues`.
    """
    square = np.array(squares).T[:, :, None]
    _, diag, upper, lower = _even_bands(square, np.array(sectors)[:, None], work.truncation)
    shapes = [(len(diag), work.truncation - k) for k in (0, 1)]   # each chain's off-diagonals
    return _hill_spectra([(diag[:, k::2], np.broadcast_to(upper, shape),
                           np.broadcast_to(lower, shape)) for k, shape in enumerate(shapes)])


def _stacked_levels(work, squares, sectors):
    """What `_tracked_levels(work)` gives at each Hill point of `_hill_stack`, as the rows of
    one array."""
    return _hill_stack(work, squares, sectors)[0][:, :work.track_levels]


def _in_stacks(stack, items, size):
    """stack(chunk) item by item for the chunks of `size` items, each stacked only when the
    caller reaches it; a chunk whose stack raises ArithmeticError, ValueError or
    ConvergenceFailure is stacked again one item at a time, lazily.

    A stack builds and solves its whole chunk before the caller checks any item, so a later
    item's error could pre-empt an earlier one's.  One at a time, the first item to fail
    raises its own error after whatever the caller did with the items before it.
    """
    for i in range(0, len(items), size):
        chunk = items[i:i + size]
        try:
            done = stack(chunk)
        except (ArithmeticError, ValueError, ConvergenceFailure):
            done = (got for j in range(len(chunk)) for got in stack(chunk[j:j + 1]))
        yield from done


@_solve_guard
def _solve_grid(template, axis, values, measure, drift):
    """(n, drift, {x: measure(spectrum at x, truncation n)}, forms) for the x of `values`.

    measure(spectrum) is what a sweep reports at a point from its `Spectrum`, None for its
    tracked levels (`_tracked_levels`); drift(exact, cut) is how far `cut`, measured at n, lies
    from `exact`, measured at N = template.truncation, in the units of DRIFT_RTOL.  n is the
    smallest of 16 and 32 below N that trusts the tracked levels and keeps the drift
    <= DRIFT_RTOL at both ends and where the `hill_form`'s |q^2| peaks; else n is N.  Each
    grid element is built once, for the solves and for its `completed_square`, which gives
    the |q^2| scan and `forms`, the `_mathieu_form` at each of `values`.  The probes are
    solved one by one, by `eigen_spectrum`.  When every point they left has a Hill square
    and a sector in [0, 2), those points are solved in stacks of at most STACK
    (`_hill_stack`): the tracked levels are sliced from the stack's arrays, and any other
    measure takes the `Spectrum` of each row.  A stack that raises is solved again as
    stacks of one (`_in_stacks`), so the first point to fail raises its own error.
    Otherwise every point is solved one by one.  Every solve runs in turn, on the calling
    thread.  An overflowing square or q^2 raises ValueError.
    """
    points = {x: template.element_at(axis, x) for x in map(float, values)}
    squares = {x: completed_square(e.coeffs.tolist()) for x, (e, _) in points.items()}
    forms = tuple(_mathieu_form(squares[x], points[x][1]) for x in map(float, values))
    tracked = measure is None
    if tracked:
        measure = _tracked_levels(template)

    def solve(x, truncation):
        return measure(eigen_spectrum(SpectralProblem(*points[x], truncation=truncation)))

    sizes = [n for n in (16, 32)
             if n < template.truncation and trusted_count(n) >= template.track_levels]
    n, worst, solved = template.truncation, 0.0, {}
    if sizes and None not in squares.values():
        alpha, beta, gamma, c = np.array(list(squares.values()))[:, 2:].T
        xs = list(points)
        peak = xs[np.argmax(np.abs(((beta - alpha) ** 2 + gamma ** 2) / (16 * c * c)))]
        probes = dict.fromkeys((xs[0], xs[-1], peak))
        solved = exact = {x: solve(x, n) for x in probes}
        for size in sizes:
            cut = {x: solve(x, size) for x in probes}
            if (gap := max(drift(exact[x], cut[x]) for x in probes)) <= DRIFT_RTOL:
                n, worst, solved = size, gap, cut
                break
    todo = [x for x in points if x not in solved]
    # a sector outside [0, 2) is left to its SpectralProblem, which refuses it
    stacks = all(squares[x] is not None and 0.0 <= points[x][1] < 2.0 for x in todo)
    work = replace(template, truncation=n)

    def stacked(xs):
        rows = [squares[x] for x in xs], [points[x][1] for x in xs]
        if tracked:
            return _stacked_levels(work, *rows)
        return list(map(measure, _hill_stack(work, *rows)[1]([points[x] for x in xs])))

    solved.update(zip(todo, _in_stacks(stacked, todo, STACK) if stacks
                      else (solve(x, n) for x in todo)))
    return n, float(worst), solved, forms


def _assignment(cost):
    """Column of each row in a minimal-cost assignment; `cost` is a finite square list of rows.

    A scalar port of scipy's `linear_sum_assignment`, the shortest augmenting
    path solver of Crouse (IEEE Trans. Aerosp. Electron. Syst. 52 (2016)
    1679), that returns exactly its columns: rows are added in order, the
    columns left to scan are kept in reverse order with swap-removal, and of
    equal reduced costs a free column wins.  Each row's first scan, over all
    columns, is done on the whole row at once; when it ends at a free column
    the row takes it, as the search would, and needs no path.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col = [-1] * n, [-1] * n
    searched = False   # v is all zero until a row needs the path search
    for cur in range(n):
        first = [c - w for c, w in zip(cost[cur], v)] if searched else cost[cur]
        low = min(first)
        j = first.index(low)
        if row4col[j] >= 0 and first.count(low) > 1:
            # scanning down, the first tie is kept, then each free one
            tied = [k for k, r in enumerate(first) if r == low]
            j = next((k for k in tied if row4col[k] < 0), tied[-1])
        if row4col[j] < 0:
            u[cur] += low
            col4row[cur], row4col[j] = j, cur
            continue
        searched = True
        shortest, path = list(first), [cur] * n
        remaining = list(range(n - 1, 0, -1))
        if j:
            remaining[n - 1 - j] = 0   # swap-removal of j from n-1..0
        rows, cols = [cur], [j]   # rows and columns the search reached
        while row4col[j] >= 0:
            i = row4col[j]
            rows.append(i)
            ci, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = low + ci[j] - ui - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    lowest, index = shortest[j], it
            low, j = lowest, remaining[index]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += low
        for i in rows[1:]:
            u[i] += low - shortest[col4row[i]]
        for j in cols:
            v[j] -= low - shortest[j]
        while True:   # augment along the path back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _match(prev, new):
    """Order `new` against `prev` by minimal total |dE| (`_assignment`); returns (ordered, cost)."""
    cost = np.abs(prev[:, None] - new[None, :]).tolist()
    cols = _assignment(cost)
    return new[cols], max([row[j] for row, j in zip(cost, cols)])


def sweep(template: SweepTemplate, axis: str, lo: float, hi: float, steps: int) -> SweepResult:
    """Level curves over [lo, hi], matched by nearest-neighbor continuation.

    Labels are assigned by real-part order at the sweep start.  Adjacent
    points are matched by `_match`, a minimal-cost assignment.  When the best
    assignment between adjacent points jumps by more than half the median
    level spacing at the start, midpoints are inserted internally
    until the match is unambiguous; TrackingAmbiguity is raised after
    MAX_HALVINGS halvings.  The median skips spacings at most
    REALITY_RTOL*max(1, |E|): degenerate levels, such as the two Hill
    chains give in the fermionic sector, and conjugate pairs.  Every level
    is solved at the smallest certified truncation <= template.truncation
    (`_solve_grid`), recorded in `SweepResult.truncation` and `.drift`; the
    grid's `forms` go with them to `find_exceptional_points`.  A grid of
    Hill elements is solved in stacks of at most STACK points, any other
    point by point, all in turn on the calling thread; the continuation is
    an ordered sequential reduction over the solved grid.
    """
    check_integer("steps", steps)
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not math.isfinite(hi - lo):   # also when lo or hi is not finite
        raise ValueError(f"lo, hi and hi - lo must be finite, got lo={lo}, hi={hi}")
    values = np.linspace(lo, hi, steps)
    n, drift, cache, forms = _solve_grid(template, axis, values, None, _level_drift)
    work = replace(template, truncation=n)

    def levels(x):
        x = float(x)
        if x not in cache:
            cache[x] = _levels_at(work, axis, x)
        return cache[x]

    first = levels(values[0])
    start = np.sort(first.real)
    spacing = np.diff(start)
    spacing = spacing[spacing > REALITY_RTOL * np.maximum(1.0, np.abs(start[1:]))]
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
    del continue_to   # a recursive closure is a reference cycle: free the level cache now
    return SweepResult(template=template, axis=axis, values=values, curves=curves,
                       truncation=n, drift=drift, forms=forms, refined_points=refined)


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


def bisect_transition(changed, lo, hi, tol):
    """Narrow the bracket between lo and hi (in either order), where
    changed(lo) is false and changed(hi) true, to a width <= tol, or to
    adjacent floats when tol is below their spacing.  The ends must be finite, tol >= 0."""
    check_finite({"lo": lo, "hi": hi})
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if not min(lo, hi) < mid < max(lo, hi):
            break
        if changed(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def find_exceptional_points(result: SweepResult, tol: float = 1e-6,
                            im_tol: float = 1e-6) -> list:
    """Exceptional points of the sweep, sorted by parameter value and energy.

    When the sweep's `forms` all exist and share one shift, the points
    come from the closed-form catalogue of `_catalogue_eps`.  Otherwise
    every change in the number of conjugate pairs is halved to a bracket
    <= tol (`_bisected_eps`), and a point is reported for each pair born
    (or dying) across it; its energy is the real part of that pair at the
    broken end of the final bracket.  Grid points reuse the sweep's own
    levels; only bisection points are solved.  Either way every solve is at
    the sweep's working truncation, and the level pair is the two tracked
    levels at the start of the grid interval nearest the energy.  Returns an
    empty list when the sweep has no transitions.
    """
    check_ep_tolerances("tol", tol, im_tol)
    forms = result.forms
    work = replace(result.template, truncation=result.truncation)
    if all(forms) and len({f[3] for f in forms}) == 1:
        eps = _catalogue_eps(result, work, [f[2] for f in forms], im_tol)
    else:
        eps = _bisected_eps(result, work, tol, im_tol)
    return sorted(eps, key=lambda p: (p.parameter_value, p.energy))


def _bisected_eps(result, work, tol, im_tol):
    """`find_exceptional_points` off the catalogue: in each grid interval, every change in the
    number of pairs with Im E > im_tol, halved to a bracket <= tol (`chains.pair_changes`).
    Grid points reuse the sweep's tracked levels; any other point is solved once."""
    def members(levels):
        return [z for z in levels if z.imag > im_tol]

    grid = [float(x) for x in result.values]
    pairs = {x: members(result.curves[:, k]) for k, x in enumerate(grid)}

    def pairs_at(x):
        if x not in pairs:
            pairs[x] = members(_levels_at(work, result.axis, x))
        return pairs[x]

    return [_exceptional_point(result, k, 0.5 * (lo + hi), float(z.real), abs(hi - lo))
            for k, (start, end) in enumerate(zip(grid, grid[1:]))
            for lo, hi, fresh, _ in pair_changes(pairs_at, start, end, tol)
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


def _catalogue_eps(result, work, q2s, im_tol):
    """Exceptional points of a sweep of Mathieu forms, from their closed-form catalogue.

    With levels e0 + c*a(q) (`_mathieu_form`), pairs coalesce where q^2
    crosses a threshold: every odd-n pair a_n, b_n meets at a = n^2 where
    q^2 changes sign, and two same-class values merge at a_k where q = i*t
    passes a double point t_k of the even-pi or odd-pi class (Mulholland &
    Goldstein 1929; Blanch & Clemm, Math. Comp. 23 (1969) 97).
    `mathieu.complex_mathieu_eps`, with its default scan, places those the
    sweep reaches by Newton on the class chain's continuant, to adjacent
    floats.  Each crossing between grid values of q2s (q^2 at the grid) is
    bisected to adjacent floats on the sign of q^2 minus the threshold, with
    no eigensolve and no element: `SweepTemplate.form_at` gives every form
    after the grid's.  It is then certified by one solve on either
    side, a quarter grid interval (at most a third of the way to the next
    crossing) away: every tracked pair real on the side above the threshold
    and conjugate (|Im| > im_tol) below it is reported.  At q^2 = 0 these
    must be odd-n pairs, levels 2n-1 and 2n; at a double point there is at
    most one; no pair may turn real below the threshold.  A certificate that
    breaks these rules raises ConvergenceFailure; a pair that stays within
    im_tol of real on both sides is not reported.  Chunks of STACK // 2
    crossings (`_in_stacks`) are placed and certified in turn, the sides of
    each solved as one stack from the squares that placed them
    (`_stacked_levels`), bit for bit `eigen_spectrum`'s tracked levels; if a
    chunk raises, it is placed and solved again one crossing at a time, so
    the first error is the first crossing's.
    """
    template, axis = result.template, result.axis
    grid = [float(x) for x in result.values]

    def form(x, at=None):   # at: x's `SweepTemplate.square_at`, when placement has it
        found = _mathieu_form(*at) if at else template.form_at(axis, x)
        if found is None:
            raise ConvergenceFailure(f"{axis}={x!r} leaves the Mathieu form of the sweep")
        return found

    crossings = [(0.0, None)]   # (threshold of q^2, merge value a or None for n^2)
    t_max = math.sqrt(max(0.0, -min(q2s)))
    if t_max > 0:
        count = template.track_levels
        for cls in (EVEN_PI, ODD_PI):
            crossings += [(-ep["q_imag"] ** 2, ep["a_merge"]) for ep in complex_mathieu_eps(
                t_max, cls, count=count, trunc=max(count + 8, template.truncation // 2 + 1),
                im_tol=0.0)]
    points = []
    for threshold, a in crossings:
        for k in range(len(grid) - 1):
            below = q2s[k] < threshold
            if below != (q2s[k + 1] < threshold):
                lo, hi = bisect_transition(lambda x: (form(x)[2] < threshold) != below,
                                           grid[k], grid[k + 1], 0.0)
                points.append((0.5 * (lo + hi), k, abs(hi - lo), threshold, a))

    def sides(j):
        """(above, below): the values a quarter grid interval either side of crossing j, each
        with the `SweepTemplate.square_at` that placed it."""
        x, k, _, threshold, _ = points[j]
        gap = min((abs(y - x) for i, (y, *_) in enumerate(points) if i != j), default=math.inf)
        h = min(abs(grid[k + 1] - grid[k]) / 4, gap / 3)
        at = {s: template.square_at(axis, s) for s in (x - h, x + h)}
        placed = sorted((form(s, square)[2] < threshold, s) for s, square in at.items())
        if [side for side, _ in placed] != [False, True]:
            raise ConvergenceFailure(f"the crossing at {axis}={x!r} has no resolved sides")
        return [(s, at[s]) for _, s in placed]

    def stacked(js):
        placed = [side for j in js for side in sides(j)]
        # a placed side has a form, so it has a Hill square
        rows = _stacked_levels(work, *zip(*(at for _, at in placed)))
        return [(above, below, real, broken) for (above, _), (below, _), real, broken
                in zip(placed[0::2], placed[1::2], rows[0::2], rows[1::2])]

    eps = []
    solved = _in_stacks(stacked, range(len(points)), max(1, STACK // 2))
    for (x, k, width, threshold, a), (above, below, real, broken) in zip(points, solved):
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

_PLANE_WAVES = {}   # (theta bytes, sector, step, first % step): the widest table, at most 16


def _plane_waves(theta_bytes, sector, first, step, count):
    """exp(i(m + s/2) theta), rows theta (float64 bytes), columns m = first + j*step, j < count.

    An intensity sweep evaluates every wavefunction on one grid, at a
    working truncation and at the probes' others, so each grid, sector and
    lattice of modes keeps one read-only table, built for the widest run of
    modes asked of it.  A narrower run takes its columns, equal entry for
    entry to its own table.  A grid is checked when a table is built for it:
    ValueError unless it holds at least one angle, all finite; so the points
    of a sweep, which find their grid's tables built, check nothing.
    """
    key = theta_bytes, sector, step, first % step
    last = first + step * (count - 1)
    lo, hi, table = _PLANE_WAVES.get(key, (first, last, None))
    if table is None or first < lo or last > hi:
        lo, hi = min(lo, first), max(hi, last)
        k = np.arange(lo, hi + 1, step) + sector / 2.0
        table = np.exp(1j * np.outer(check_angles("theta", np.frombuffer(theta_bytes)), k))
        table.flags.writeable = False
        _PLANE_WAVES.pop(key, None)
        if len(_PLANE_WAVES) == 16:
            del _PLANE_WAVES[next(iter(_PLANE_WAVES))]
        _PLANE_WAVES[key] = lo, hi, table
    start = (first - lo) // step
    return table[:, start:start + count]


@dataclass(frozen=True, eq=False)
class WavefunctionSpec:
    """psi(theta) = gauge(theta) * sum_j coeffs[j] exp(i(first + j*step + s/2) theta).

    gauge(theta) = exp(-i(b sin(theta) - a cos(theta))), (a, b) = `gauge`,
    as `hill_form` removes it.  By default `first` is the middle mode and
    there is no gauge, so WavefunctionSpec(coeffs, s) is a Fourier vector.
    ValueError unless coeffs are a nonempty vector of finite numbers, first and
    step integers, step >= 1, and the sector finite.
    """

    coeffs: np.ndarray
    sector: float = 0.0
    first: int | None = None
    step: int = 1
    gauge: tuple = (0.0, 0.0)

    def __post_init__(self):
        shape = check_finite_array("coeffs", self.coeffs).shape
        if len(shape) != 1 or not shape[0]:
            raise ValueError(f"coeffs must be a nonempty vector, got shape {shape}")
        check_finite({"sector": self.sector})
        check_integer("step", self.step)
        if self.step < 1:
            raise ValueError(f"step must be at least 1, got {self.step}")
        if self.first is None:
            object.__setattr__(self, "first", -((len(self.coeffs) - 1) // 2))
        check_integer("first", self.first)

    def evaluate(self, theta):
        grid = np.asarray(theta, dtype=float).tobytes()
        waves = _plane_waves(grid, self.sector, self.first, self.step, len(self.coeffs))
        turn = _plane_waves(grid, 0.0, 1, 1, 1)[:, 0]   # exp(i theta): cos and sin, cached
        a, b = self.gauge
        return np.exp((1j * a) * turn.real - (1j * b) * turn.imag) * (waves @ self.coeffs)

    def normalized(self):
        """Rescale so the L^2 norm over [0, 2*pi) is 1, by the rectangle rule on M points.

        It is exact for |psi|^2 of degree below M: the modes' span, plus 4 rho + 32 for
        |gauge|^2 = exp(2(Im b sin - Im a cos)), rho = |(Im a, Im b)|, whose coefficients
        fall like I_k(2 rho)/I_0(2 rho), far below roundoff there.  Where |psi|^2 overflows,
        it raises GaugeOverflow: before it sizes M if exp(rho) itself does.  A gauge that is
        not finite, or a computed norm of 0, raises ValueError.
        """
        rho = math.hypot(*np.imag(self.gauge))
        if not rho <= math.log(np.finfo(float).max):
            check_finite_array("gauge", self.gauge)
            raise GaugeOverflow(rho)
        size = 1 << int(self.step * (len(self.coeffs) - 1) + 4 * rho + 32).bit_length()
        values = self.evaluate(2.0 * math.pi / size * np.arange(size))
        norm = math.sqrt(2.0 * math.pi / size * np.vdot(values, values).real)
        if not math.isfinite(norm):   # BLAS's vdot raises no numpy overflow
            check_finite_array("gauge", self.gauge)
            raise GaugeOverflow(rho)
        if norm == 0:
            raise ValueError("psi cannot be normalized: its computed L^2 norm is 0")
        return replace(self, coeffs=self.coeffs / norm)


def pt1_closed_wavefunction(mu1, mu3, mu4, n, statistics="bosonic", c1=1.0, c2=0.0):
    """exp(-i(mu4 cos + mu3 sin)/mu1) [c1 e^{-i k theta} + (i/(2k)) c2 e^{i k theta}], k = |n|
    (bosonic) or |n + 1/2| (fermionic): level n of `pt1_closed_spectrum`, on modes -+k."""
    check_finite({"mu1": mu1, "mu3": mu3, "mu4": mu4})
    kappa, sector = _pt1_kappa(mu1, n, statistics)
    if kappa == 0 and c2 != 0:
        raise ValueError(f"level n = 0 has the one mode k = 0: c2 must be 0, got {c2!r}")
    coeffs = np.array([c1, 1j / (2.0 * kappa) * c2] if kappa else [c1], dtype=complex)
    return WavefunctionSpec(coeffs, sector, first=int(-kappa - sector / 2),
                            step=max(1, int(2 * kappa)), gauge=(-mu4 / mu1, mu3 / mu1))


@_solve_guard
def wavefunction(spectrum: Spectrum, level):
    """L^2-normalized eigenvector of the given level of `spectrum` (real-part order).

    A level is an integer index of `spectrum.eigenvalues`; a sequence of
    levels gives a list.  Each level is solved on the one of the spectrum's
    `blocks` that gave it, B, so no element is built again: an exactly real
    level with no other level of B within 1e-6 max|B|, on a real chain
    whose off-diagonal products are all nonzero, by `inverse_iteration`;
    any other by one `scipy.linalg.eig` of B (read through `chains.linalg`
    when it runs), the column of the level's rank in B by real part.
    ||(B - E)x|| > 1e-9 max|B| raises ConvergenceFailure.  x is B's
    `WavefunctionSpec` as it is, on B's own modes and with its gauge.  A
    chain's B is the dense chain of its bands (`tridiagonal_matrix`), built
    once per call.
    """
    single = np.ndim(level) == 0
    levels = [level] if single else list(level)
    dim = len(spectrum.eigenvalues)
    for lv in levels:
        if isinstance(lv, bool) or not isinstance(lv, numbers.Integral) or not 0 <= lv < dim:
            raise ValueError(f"level {lv} outside 0..{dim - 1}")
    block_of, blocks, dense, specs = spectrum.block_index, {}, {}, []
    for lv in levels:
        b, energy = block_of[lv], spectrum.eigenvalues[lv]
        if b not in blocks:
            matrix, bands, wave = spectrum.blocks[b]
            if matrix is None:
                matrix = tridiagonal_matrix(*bands)
            blocks[b] = matrix, bands, wave, np.max(np.abs(matrix))
        matrix, bands, wave, scale = blocks[b]
        close = np.abs(spectrum.eigenvalues[block_of == b] - energy) <= 1e-6 * scale
        if bands and matrix.dtype == float and energy.imag == 0 \
                and np.count_nonzero(close) == 1 and np.all(bands[1] * bands[2] != 0):
            vec = inverse_iteration(bands, energy.real)
        else:
            if b not in dense:
                w, vecs = linalg().eig(matrix)
                dense[b] = vecs[:, np.argsort(w.real, kind="stable")]
            vec = dense[b][:, np.count_nonzero(block_of[:lv] == b)]   # the level's rank in B
        certify(matrix, vec, energy, f"level {lv} ({energy:.12g})")
        specs.append(wave(vec).normalized())
    return specs[0] if single else specs


def intensity(w: WavefunctionSpec, grid) -> np.ndarray:
    return np.abs(w.evaluate(grid)) ** 2


def select_pair(spectrum: Spectrum, near_energy: float) -> tuple:
    """The two trusted levels whose intensities `pair_intensities` gives.

    The first two levels with |Im E| > 1e-6, else the two nearest
    near_energy in real part, nearest first.  Levels whose real parts agree
    to REALITY_RTOL*max(1, |E|) rank by block index, then by position, not
    by roundoff: the two Hill chains of a fermionic sector give each level
    twice, and a conjugate pair's members tie, so a complex pair is a
    conjugate pair of one chain.  near_energy must be finite.
    """
    check_finite({"near_energy": near_energy})
    w = spectrum.eigenvalues[:spectrum.trusted_count]
    if len(w) < 2:
        raise ValueError(f"truncation {spectrum.truncation} trusts {len(w)} level; a pair "
                         "needs two")
    starts = np.diff(w.real) > REALITY_RTOL * np.maximum(1.0, np.abs(w[1:]))
    group = np.concatenate(([0], np.cumsum(starts)))   # w is sorted by real part
    rank = np.lexsort((spectrum.block_index[:len(w)], group))
    cplx = rank[np.abs(w.imag[rank]) > 1e-6]
    if len(cplx) >= 2:
        return int(cplx[0]), int(cplx[1])
    lowest = w.real[np.flatnonzero(np.concatenate(([True], starts)))]   # of each group
    order = rank[np.argsort(np.abs(lowest[group[rank]] - near_energy), kind="stable")]
    return int(order[0]), int(order[1])


@dataclass(frozen=True, eq=False)
class PairIntensities:
    """The pair `select_pair` takes at one point, its two levels and their intensities."""
    pair: tuple                 # the levels' indices in the spectrum
    blocks: tuple               # the `Spectrum.blocks` entry that gave each level
    levels: np.ndarray
    i_even: np.ndarray
    i_odd: np.ndarray


def pair_intensities(p: SpectralProblem, near_energy: float, theta) -> PairIntensities:
    """`select_pair` of p's spectrum, and the intensities of its two wavefunctions on theta.

    `intensity_sweep` gives these, bit for bit, at each point of its grid.
    near_energy must be finite, and theta a nonempty grid of finite angles.
    """
    _check_pair_inputs(near_energy, theta)
    return _spectrum_pair(eigen_spectrum(p), near_energy, theta)


def _check_pair_inputs(near_energy, theta):
    check_finite({"near_energy": near_energy})
    check_angles("theta", theta)


def _spectrum_pair(spectrum, near_energy, theta):
    """`pair_intensities` of the problem the `Spectrum` is of."""
    pair = select_pair(spectrum, near_energy)
    i_even, i_odd = (intensity(w, theta) for w in wavefunction(spectrum, pair))
    return PairIntensities(pair, tuple(spectrum.block_index[list(pair)].tolist()),
                           spectrum.eigenvalues[list(pair)], i_even, i_odd)


def _pair_drift(exact, cut):
    """How far `cut` lies from `exact`: inf for a pair from other blocks, else the largest
    relative change of a level (by max(1, |E|)) or of an intensity (by the largest exact
    one).  Indices are not compared: they order a fermionic sector's twin levels by
    roundoff, where `select_pair` orders them by block."""
    if cut.blocks != exact.blocks:
        return math.inf
    scale = max(np.max(exact.i_even), np.max(exact.i_odd))
    return max(np.max(np.abs(cut.levels - exact.levels) / np.maximum(1, np.abs(exact.levels))),
               np.max(np.abs(cut.i_even - exact.i_even)) / scale,
               np.max(np.abs(cut.i_odd - exact.i_odd)) / scale)


@dataclass(frozen=True, eq=False)
class IntensitySweep:
    values: np.ndarray
    points: list                # PairIntensities at each value
    truncation: int             # the working truncation every point was solved at
    drift: float                # largest `_pair_drift` of a probe from the solve at N; the
                                # three probes only, as `SweepResult.drift`: next to an EP a
                                # grid point can move further


def intensity_sweep(template: SweepTemplate, axis: str, values, near_energy: float,
                    theta) -> IntensitySweep:
    """`pair_intensities` at each value of the axis, on the grid theta, bit for bit.

    A single value is solved at template.truncation.  More are solved at the
    smallest certified truncation <= template.truncation (`_solve_grid`),
    whose probes must give the same pair, and its levels and both
    intensities within DRIFT_RTOL, as the solve at template.truncation:
    levels alone do not certify the vectors (at 16 the README surface keeps
    its mu3 = 4 levels within DRIFT_RTOL but moves its intensities 3.2e-10).
    The single value and the probes are solved by `eigen_spectrum`; a grid
    of Hill elements takes the rest in stacks of chains, and each point's
    pair and vectors from its row of the stack, so only the probes build a
    Hill matrix; any other grid goes point by point.  near_energy must be
    finite, and theta a nonempty grid of finite angles.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"values must be a sequence of numbers, got shape {values.shape}")
    if len(values) == 0:
        raise ValueError("an intensity sweep needs at least one value")
    check_finite_array("values", values)
    _check_pair_inputs(near_energy, theta)

    def measure(spectrum):
        return _spectrum_pair(spectrum, near_energy, theta)

    if len(values) == 1:
        n, drift = template.truncation, 0.0
        solved = {float(values[0]): pair_intensities(template.problem_at(axis, values[0]),
                                                     near_energy, theta)}
    else:
        n, drift, solved, _ = _solve_grid(template, axis, values, measure, _pair_drift)
    return IntensitySweep(values=values, points=[solved[x] for x in values.tolist()],
                          truncation=n, drift=drift)


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
    if sym not in _CIRCLE_MAPS:
        raise unknown_tag(sym, "E2", _CIRCLE_MAPS)
    mapped = _CIRCLE_MAPS[sym](np.asarray(theta, dtype=float))
    return np.conj(w.evaluate(mapped))


def pt_eigenstate_check(w: WavefunctionSpec, sym, grid=None, tol=1e-6):
    """Return +1 or -1 when the PT image is (minus) the state; else "broken".

    The comparison is literal: callers holding eigenvectors with an
    arbitrary overall phase should align it first (an unbroken state
    satisfies image = c*psi with |c| = 1; "broken" here means the image is
    not proportional to +-psi on the grid).  A given grid must hold at
    least one angle, all finite.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False) if grid is None \
        else check_angles("grid", grid)
    psi = w.evaluate(theta)
    image = pt_image(w, sym, theta)
    scale = float(np.max(np.abs(psi)))
    if not 0 < scale < math.inf:
        raise ValueError("zero wavefunction" if scale == 0 else
                         f"w must be finite, got max |psi| = {scale}")
    if float(np.max(np.abs(image - psi))) <= tol * scale:
        return 1
    if float(np.max(np.abs(image + psi))) <= tol * scale:
        return -1
    return "broken"
