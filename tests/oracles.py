"""Independent numerical oracles used across the test suite.

These deliberately avoid the code paths they check: matrix products and
exponentials act in the truncated Fourier representation, the Mathieu
continued fraction replaces the recurrence eigensolve, and finite
differences replace spectral synthesis.
"""

import numpy as np
from scipy.linalg import expm

from euclidpt import algebra
from euclidpt.algebra import E2Element, completed_square
from euclidpt.spectral import SpectralProblem, _mathieu_form, build_matrix


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


def generator_map_table(envelope, images, reverse=False):
    """`Envelope.map_table` without products: generator g maps to the sum of the
    (coefficient, code) terms images[g], each basis word's letters (reversed if
    ``reverse``) are expanded into image words, and each word is straightened."""
    columns = []
    for word in envelope.words:
        terms = [((), 1.0 + 0j)]
        for g in (word[::-1] if reverse else word):
            terms = [(w + (h,), c * ch) for w, c in terms for ch, h in images[g]]
        columns.append(sum(envelope.straighten(w, c) for w, c in terms))
    return np.array(columns).T


def from_terms_hamiltonian(sym, mu):
    """`algebra.build_hamiltonian` term by term through `E2Element.from_terms`, with
    PT3 summed from four elements, as the invariant bilinears are written out."""
    m1, m2, m3, m4, m5, m6, m7, m8, m9 = [float(x) for x in mu]
    terms = E2Element.from_terms
    if sym == "PT1":
        return terms(J2=m1, J=1j * m2, u=1j * m3, v=1j * m4, uJ=m5, vJ=m6, u2=m7, v2=m8, uv=m9)
    if sym == "PT2":
        return terms(J2=m1, J=1j * m2, u=m3, v=m4, uJ=1j * m5, vJ=1j * m6, u2=m7, v2=m8, uv=m9)
    if sym == "PT3":
        return (terms(J2=m1, J=m2) + terms(u=m3 + 1j * m4, v=m3 - 1j * m4)
                + terms(uJ=m5 + 1j * m6, vJ=m5 - 1j * m6)
                + terms(v2=1j * m7 + m8, u2=-1j * m7 + m8, uv=m9))
    if sym == "PT4":
        return terms(J2=m1, J=m2, u=1j * m3, v=m4, uJ=1j * m5, vJ=m6, u2=m7, v2=m8, uv=1j * m9)
    return terms(J2=m1, J=m2, u=m3, v=1j * m4, uJ=m5, vJ=1j * m6, u2=m7, v2=m8, uv=1j * m9)


def element_mathieu_form(template, axis, x):
    """The `_mathieu_form` at axis = x of the E2Element a solve builds there."""
    element, sector = template.element_at(axis, x)
    return _mathieu_form(completed_square(element.coeffs.tolist()), sector)


def element_matrix(element, truncation=32, sector=0.0):
    return build_matrix(SpectralProblem(element, sector=sector, truncation=truncation))


def interior(matrix, margin):
    return matrix[margin:-margin, margin:-margin]


def expm_conjugation(lam, rho, tau, target, truncation=32):
    """exp(lam*J + rho*u + tau*v) M exp(-...) in the truncated representation."""
    mat_u, mat_v, mat_j = generator_matrices(truncation)
    eta = expm(lam * mat_j + rho * mat_u + tau * mat_v)
    return eta @ target @ np.linalg.inv(eta)


def lowest_levels(element, count, truncation=48, sector=0.0):
    from euclidpt.spectral import eigen_spectrum
    spec = eigen_spectrum(SpectralProblem(element, sector=sector, truncation=truncation))
    return spec.eigenvalues[:count]


def mathieu_a0_continued_fraction(q, tol=1e-13, depth=80):
    """a_0(q) for moderate real q, by bisection on the tail continued fraction.

    Cosine-series ratios G_k = A_{2k}/A_{2k-2} obey
    G_k = q/(a - 4k^2 - q G_{k+1}); the k = 0, 1 rows close the system into
    the scalar residual a - 2 q^2/(a - 4 - q G_2(a)).
    """
    def residual(a):
        g = 0.0
        for k in range(depth, 1, -1):
            g = q / (a - 4.0 * k * k - q * g)
        return a - 2.0 * q * q / (a - 4.0 - q * g)

    lo, hi = -(q * q) - 1.0, 0.4
    flo = residual(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (residual(mid) > 0.0) == (flo > 0.0):
            lo, flo = mid, residual(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mathieu_even_pi_double_point(t, a, depth=120, tol=1e-13):
    """(t, a) where two even pi-periodic values merge at q = i*t, by Newton.

    With q = i*t the ratios G_k = i*h_k make the continued fraction real:
    h_k = t/(a - 4k^2 + t h_{k+1}) and R(a, t) = a + 2 t^2/(a - 4 + t h_2).
    A double point solves R = dR/da = 0; dR/da is carried along the
    recurrence, the 2x2 Jacobian is a central difference.  (t, a) is the
    starting guess.
    """
    def residual(a, t):
        h = dh = 0.0
        for k in range(depth, 1, -1):
            d = a - 4.0 * k * k + t * h
            dh = -t * (1.0 + t * dh) / (d * d)
            h = t / d
        den = a - 4.0 + t * h
        return (a + 2.0 * t * t / den,
                1.0 - 2.0 * t * t * (1.0 + t * dh) / (den * den))

    for _ in range(50):
        f, g = residual(a, t)
        ea, et = 1e-6 * max(1.0, abs(a)), 1e-6 * max(1.0, t)
        fa_hi, ga_hi = residual(a + ea, t)
        fa_lo, ga_lo = residual(a - ea, t)
        ft_hi, gt_hi = residual(a, t + et)
        ft_lo, gt_lo = residual(a, t - et)
        f_a, f_t = (fa_hi - fa_lo) / (2 * ea), (ft_hi - ft_lo) / (2 * et)
        g_a, g_t = (ga_hi - ga_lo) / (2 * ea), (gt_hi - gt_lo) / (2 * et)
        det = f_a * g_t - f_t * g_a
        step_a = (f * g_t - f_t * g) / det
        step_t = (f_a * g - g_a * f) / det
        a, t = a - step_a, t - step_t
        if abs(step_a) < tol * max(1.0, abs(a)) and abs(step_t) < tol * max(1.0, t):
            return t, a
    raise RuntimeError("double-point Newton iteration did not converge")


def fd_apply(element, psi, theta):
    """Apply an E2 element as a differential operator with 2nd-order stencils.

    J = -i d/dtheta, u = sin, v = cos; monomials act right to left.  The
    grid must be uniform over [0, 2*pi).
    """
    h = theta[1] - theta[0]

    def deriv(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)

    def deriv2(f):
        return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / (h * h)

    sin, cos = np.sin(theta), np.cos(theta)
    out = np.zeros_like(psi, dtype=complex)
    for i, (a, b, c) in enumerate(algebra.MONOMIALS):
        coeff = element.coeffs[i]
        if coeff == 0:
            continue
        if c == 0:
            part = psi
        elif c == 1:
            part = -1j * deriv(psi)
        else:
            part = -deriv2(psi)
        part = part * sin ** a * cos ** b
        out = out + coeff * part
    return out


def fourier_modes(wave, truncation, size=1024):
    """Coefficients of the wavefunction on the modes exp(i(n + s/2) theta), n = -N..N.

    An FFT of `wave.evaluate` on `size` uniform points, the Floquet phase
    exp(i s theta/2) divided out, cropped to -N..N: so a vector built from a
    chain, its gauge and its plane waves is checked through its values.
    """
    theta = 2.0 * np.pi * np.arange(size) / size
    values = wave.evaluate(theta) * np.exp(-0.5j * wave.sector * theta)
    return (np.fft.fft(values) / size)[np.arange(-truncation, truncation + 1) % size]
