"""Tridiagonal chains, given by their three diagonals: eigenvalues, vectors, certificates.

Every spectrum euclidpt prints is that of such a chain, a Hill chain of
`spectral` or a Mathieu class chain of `mathieu` (DLMF 28.4).  Both solve
their chains here, and both bracket their exceptional points, the changes
in a count of conjugate pairs, with `pair_changes` under the tolerances
`check_ep_tolerances` admits, so this module sits below both and imports
nothing of the package but `errors`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure


def tridiagonal_eigenvalues(diag, upper, lower):
    """Complex eigenvalues of the tridiagonal matrix with these three diagonals.

    Only the diagonal and the products upper*lower fix the spectrum: a
    diagonal similarity rescales the off-diagonals and keeps their products.
    So when the diagonal and every product are real, the chain is solved in
    real arithmetic: with all products >= 0 it is similar to the symmetric
    tridiagonal with off-diagonals sqrt(product), which goes to raw LAPACK
    `dstevd` (the driver `eigh_tridiagonal` picks, without its checks; a
    failure raises LinAlgError); otherwise real off-diagonals stay as they
    are and complex ones become upper sqrt|p|, lower sign(p) sqrt|p|, for
    the dense real solver.  Every other chain takes the dense complex
    solver.  The chain must be finite and at least 2 long.  Complex bands
    with no imaginary part give bit for bit the values of their real parts:
    a product's real part is the real product, up to the sign of a zero,
    and the symmetric solve takes sqrt|p|, as `dstevd` reads only |e|.

    Bands of shape (m, n) and (m, n - 1) are a stack of m chains, and give
    an (m, n) array: each row routed and solved as that chain alone, bit for
    bit.  The products, the tests and the square roots are taken for the
    whole stack; only the LAPACK calls loop over its rows.
    """
    if diag.ndim == 1:
        return tridiagonal_eigenvalues(diag[None], upper[None], lower[None])[0]
    products = upper * lower
    dense = _imag_rows(diag, products)
    products = products.real
    symmetric = (np.minimum.reduce(products, axis=1) >= 0).tolist()
    signed = _imag_rows(upper, lower)
    root = np.sqrt(np.abs(products))
    w = np.empty(diag.shape, complex)
    for i, (cplx, sym, sign) in enumerate(zip(dense, symmetric, signed)):
        if cplx:
            w[i] = scipy.linalg.eigvals(tridiagonal_matrix(diag[i], upper[i], lower[i]))
        elif sym:
            w[i], _, info = scipy.linalg.lapack.dstevd(diag[i].real, root[i], compute_v=0)
            if info:
                raise scipy.linalg.LinAlgError(f"dstevd failed to converge (info {info})")
        else:
            up, low = (root[i], np.sign(products[i]) * root[i]) if sign else (upper[i], lower[i])
            w[i] = scipy.linalg.eigvals(tridiagonal_matrix(diag[i].real, up.real, low.real))
    return w


def _imag_rows(*stacks):
    """For each row of equal-height stacks of bands, whether one has a nonzero imaginary
    part; real bands allocate no zero `.imag`."""
    rows = np.zeros(len(stacks[0]), bool)
    for bands in stacks:
        if bands.dtype.kind == "c":
            rows |= np.logical_or.reduce(bands.imag != 0, axis=1)
    return rows.tolist()


def tridiagonal_matrix(diag, upper, lower):
    """Dense matrix with the given diagonal, super- and sub-diagonal."""
    n = len(diag)
    m = np.zeros((n, n), dtype=np.result_type(diag, upper, lower))
    flat = m.reshape(-1)
    flat[::n + 1], flat[1::n + 1], flat[n::n + 1] = diag, upper, lower
    return m


_GTTR = {False: (scipy.linalg.lapack.dgttrf, scipy.linalg.lapack.dgttrs),
         True: (scipy.linalg.lapack.zgttrf, scipy.linalg.lapack.zgttrs)}   # by: a band is complex


def inverse_iteration(bands, energy):
    """Unit eigenvector of the real or complex tridiagonal chain (diag, upper, lower) at
    `energy`: two steps of raw `dgttrf`/`dgttrs`, or `zgttrf`/`zgttrs` if a band is complex
    (`solve_banded`'s checks cost more than the solve), from a ramp, orthogonal to neither
    parity of a symmetric chain.  An exact zero pivot (a level of a decoupled chain) becomes
    eps max|chain|, as in `?stein`."""
    gttrf, gttrs = _GTTR[any(map(np.iscomplexobj, bands))]
    *lu, info = gttrf(bands[2], bands[0] - energy, bands[1])
    if info:   # the first zero pivot; there may be more
        lu[1][lu[1] == 0] = np.finfo(float).eps * max(np.max(np.abs(band)) for band in bands)
    x = np.linspace(1.0, 2.0, len(bands[0]))
    for _ in range(2):
        x = gttrs(*lu, x)[0]
        x /= np.linalg.norm(x)
    return x


def certify(matrix, vec, energy, what):
    """Raise ConvergenceFailure unless the eigenvector `vec` of the dense chain T = `matrix`
    at `energy` has a residual ||(T - E)x|| <= 1e-9 max|T|."""
    bound = 1e-9 * np.max(np.abs(matrix))
    if not (norm := np.linalg.norm(matrix @ vec - energy * vec)) <= bound:
        raise ConvergenceFailure(f"{what}: eigenvector residual {norm:.3e} > 1e-9 max|T| = "
                                 f"{bound:.3e}")


def pair_changes(pairs_at, lo, hi, tol, place=None):
    """Yield (lo, hi, fresh, placed) for each change in the number of conjugate pairs.

    `pairs_at(x)`, which the caller caches, lists the +Im pair members at x.
    A bracket whose ends hold different numbers of members is halved, the lo
    half first, until `place(lo, hi, fresh)` returns a result `placed`, or
    it is at most `tol` wide or spans adjacent floats (`placed` None).  lo
    and hi may come in either order.  `fresh` is what is left of the end
    with more members once each member of the other end takes its nearest
    by real part: the pairs born or dying across the bracket.
    """
    brackets = [(lo, hi)]
    while brackets:
        lo, hi = brackets.pop()
        fewer, more = sorted((pairs_at(lo), pairs_at(hi)), key=len)
        if len(fewer) == len(more):
            continue
        fresh = list(more)
        for z in fewer:
            del fresh[min(range(len(fresh)), key=lambda i: abs(fresh[i].real - z.real))]
        placed = None if place is None else place(lo, hi, fresh)
        mid = 0.5 * (lo + hi)
        if placed is not None or abs(hi - lo) <= tol or not min(lo, hi) < mid < max(lo, hi):
            yield lo, hi, fresh, placed
        else:
            brackets += [(mid, hi), (lo, mid)]


def check_ep_tolerances(tol_name, tol, im_tol, im_tol_name="im_tol"):
    """Require a finite positive bisection tolerance and a finite non-negative im_tol."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{tol_name} must be finite and positive, got {tol}")
    if not (math.isfinite(im_tol) and im_tol >= 0):
        raise ValueError(f"{im_tol_name} must be finite and non-negative, got {im_tol}")
