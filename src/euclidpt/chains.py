"""Tridiagonal chains, given by their three diagonals: eigenvalues, vectors, certificates.

Every spectrum euclidpt prints is that of such a chain, a Hill chain of
`spectral` or a Mathieu class chain of `mathieu` (DLMF 28.4).  Both solve
their chains here, and both locate exceptional points under the tolerances
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
    solver.  The chain must be finite and at least 2 long.
    """
    products = upper * lower
    if _has_imag(diag) or _has_imag(products):
        return scipy.linalg.eigvals(tridiagonal_matrix(diag, upper, lower))
    diag, products = diag.real, products.real
    if products.min() >= 0:
        w, _, info = scipy.linalg.lapack.dstevd(diag, np.sqrt(products), compute_v=0)
        if info:
            raise scipy.linalg.LinAlgError(f"dstevd failed to converge (info {info})")
        return w.astype(complex)
    if _has_imag(upper) or _has_imag(lower):
        upper = np.sqrt(np.abs(products))
        lower = np.sign(products) * upper
    return scipy.linalg.eigvals(tridiagonal_matrix(diag, upper.real, lower.real))


def _has_imag(band):
    """Whether a band has a nonzero imaginary part; a real band allocates no zero `.imag`."""
    return band.dtype.kind == "c" and band.imag.any()


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


def check_ep_tolerances(tol_name, tol, im_tol, im_tol_name="im_tol"):
    """Require a finite positive bisection tolerance and a finite non-negative im_tol."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{tol_name} must be finite and positive, got {tol}")
    if not (math.isfinite(im_tol) and im_tol >= 0):
        raise ValueError(f"{im_tol_name} must be finite and non-negative, got {im_tol}")
