"""Certificates: each checks a job's output by a route that avoids the code that made it.

Circle-representation matrices are built here from their Fourier-mode
action and solved with numpy.linalg (the program uses its own monomial
stack and scipy.linalg); Mathieu values are checked against a continued
fraction or the unsymmetrized recurrence; Dyson and E3 transforms against
matrix-exponential conjugation.  Each function returns a list of problems,
empty when the output is certified.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np
from scipy.linalg import expm

from euclidpt import algebra, dyson, e3

LEVEL_RTOL = 1e-8        # levels against a Hermitian partner
# Window levels: the program's own reality threshold (--im-tol).  A nearly
# double eigenvalue of the non-normal matrix is only fixed to about
# sqrt(eps * |H|) ~ 1e-6, and jittered windows hold partner pairs split by
# 1e-11; those come out as conjugate pairs with |Im E| up to ~5e-8 |E|.
WINDOW_RTOL = 1e-6
EP_PARAM_TOL = 1e-3      # reported EP against the closed-form prediction
EP_ENERGY_TOL = 1e-2
MIRROR_RTOL = 0.02       # broken-regime intensity mirror (acceptance criterion 9)
UNBROKEN_MIN_DEV = 0.10  # criterion 9: the relation must fail in the unbroken regime
OPERATOR_TOL = 1e-8      # transforms against exponential conjugation (criterion 8)


# ---------------------------------------------------------------------------
# circle representation, built from the mode action
# ---------------------------------------------------------------------------

def circle_matrix(a=0.0, b=0.0, c=0.0, d=0.0, truncation=64, sector=0.0):
    """J^2 + a{u,J} + b{v,J} + c u^2 + d on modes exp(i k theta), k = n + s/2."""
    k = np.arange(-truncation, truncation + 1) + sector / 2.0
    dim = len(k)
    m = np.zeros((dim, dim), dtype=complex)
    m[np.arange(dim), np.arange(dim)] = k * k + c / 2.0 + d
    up, dn = np.arange(dim - 1), np.arange(1, dim)
    # {u,J} e^{ik} = ((2k+1) e^{i(k+1)} - (2k-1) e^{i(k-1)}) / 2i, {v,J} with + and /2
    m[up + 1, up] += (2 * k[up] + 1) * (a / 2j + b / 2.0)
    m[dn - 1, dn] += (2 * k[dn] - 1) * (-a / 2j + b / 2.0)
    two = np.arange(dim - 2)
    m[two + 2, two] -= c / 4.0
    m[two, two + 2] -= c / 4.0
    return m


def partner_levels(mu3, mu4, mu7, count, truncation=64, sector=0.0):
    """Lowest levels of the Hermitian partner of the three-parameter PT5 family."""
    out = dyson.reduce_pt5_three_param(mu3, mu4, mu7)
    h = circle_matrix(a=out["alpha"], c=out["beta"], d=out["gamma"],
                      truncation=truncation, sector=sector)
    return np.linalg.eigvalsh(h)[:count]


def _levels(text):
    """Spectrum CSV -> {axis value: levels in level order}."""
    by_x = {}
    for row in csv.DictReader(io.StringIO(text)):
        by_x.setdefault(float(row["axis_value"]), []).append(
            complex(float(row["re_E"]), float(row["im_E"])))
    return {x: np.array(v) for x, v in by_x.items()}


def _real_levels(levels, ref, where, rtol=LEVEL_RTOL):
    """Levels (any order) are real and match the sorted reference."""
    problems = []
    dev = float(np.max(np.abs(np.sort(levels.real) - ref) / np.maximum(1.0, np.abs(ref))))
    if dev > rtol:
        problems.append(f"{where}: levels off by {dev:.2e}")
    imag = float(np.max(np.abs(levels.imag) / np.maximum(1.0, np.abs(levels.real))))
    if imag > rtol:
        problems.append(f"{where}: |Im E| = {imag:.2e} in an unbroken spectrum")
    return problems


def real_family(text, mu3, sector):
    """Every point of the mu4 sweep against eigvalsh of the Hermitian partner."""
    problems = []
    for x, levels in _levels(text).items():
        ref = partner_levels(mu3, x, 0.0, len(levels), sector=sector)
        problems += _real_levels(levels, ref, f"mu4={x:.6g}")
    return problems


def window(text, mu4, mu7):
    """mu3 window: partner levels where the Dyson map exists, a conjugate pair where
    |K2| < 1 (broken PT); points with K2 = +-1 or mu3 = 0 have no certificate."""
    problems = []
    for x, levels in _levels(text).items():
        if x == 0.0:
            continue
        k2 = (x * x + mu4 * mu4 - mu7) / (2.0 * x * mu4)
        if abs(k2) > 1.0 + 1e-9:
            ref = partner_levels(x, mu4, mu7, len(levels))
            problems += _real_levels(levels, ref, f"mu3={x:.6g}", WINDOW_RTOL)
        elif abs(k2) < 1.0 - 1e-9 and float(np.max(np.abs(levels.imag))) <= 1e-6:
            problems.append(f"mu3={x:.6g}: no conjugate pair inside the broken window")
    return problems


def bands(text, mu7):
    """J^2 + mu7 u^2 is Hermitian: its Floquet bands straight from eigvalsh."""
    problems = []
    for s, levels in _levels(text).items():
        ref = np.linalg.eigvalsh(circle_matrix(c=mu7, sector=s))[:len(levels)]
        problems += _real_levels(levels, ref, f"s={s:.6g}")
    return problems


# ---------------------------------------------------------------------------
# exceptional points
# ---------------------------------------------------------------------------

def matched_eps(text, predictions):
    """Reported EPs that lie within EP_PARAM_TOL of a predicted one."""
    points = json.loads(text)["exceptional_points"]
    return sum(any(abs(p["parameter_value"] - x) <= EP_PARAM_TOL for x in predictions)
               for p in points)


def eps(text, predictions, energies=None):
    """Each prediction has a reported EP nearby; `energies` maps prediction -> energy."""
    points = json.loads(text)["exceptional_points"]
    problems = []
    for x in predictions:
        near = [p for p in points if abs(p["parameter_value"] - x) <= EP_PARAM_TOL]
        if not near:
            problems.append(f"no EP reported within {EP_PARAM_TOL} of {x:.6g}")
        elif energies is not None and not any(
                abs(p["energy"] - energies[x]) <= EP_ENERGY_TOL for p in near):
            problems.append(f"EP near {x:.6g}: energies {[p['energy'] for p in near]} "
                            f"vs {energies[x]}")
    return problems


# ---------------------------------------------------------------------------
# intensities
# ---------------------------------------------------------------------------

def intensities(text, mu4, mu7):
    """Unit norm at every point; broken points: the pair mirrors under theta -> pi - theta
    (criterion 9); unbroken points: the loss/gain relation fails by over 10%."""
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        rows.setdefault(float(row["mu3"]), []).append(
            [float(row[k]) for k in ("theta", "i_even", "i_odd", "i_sum_ref")])
    problems = []
    for mu3, table in rows.items():
        theta, ia, ib, ref = np.array(table).T
        size = len(theta)
        where = f"mu3={mu3:.6g}"
        for name, values in (("i_even", ia), ("i_odd", ib)):
            norm = float(np.mean(values)) * 2.0 * math.pi
            if abs(norm - 1.0) > 1e-8:
                problems.append(f"{where}: {name} integrates to {norm:.12g}")
        if float(np.max(np.abs(ia + ib - ia[0] - ref))) > 1e-9 * float(np.max(ia + ib)):
            problems.append(f"{where}: i_sum_ref column inconsistent")
        if size % 2:
            problems.append(f"{where}: odd theta grid, no pi - theta reflection")
            continue
        mirror = (size // 2 - np.arange(size)) % size     # index of pi - theta
        k2 = (mu3 * mu3 + mu4 * mu4 - mu7) / (2.0 * mu3 * mu4) if mu3 else math.inf
        profile = ia - ib
        if abs(k2) < 1.0 - 1e-9:
            dev = float(np.max(np.abs(ib - ia[mirror])) / np.max(ia))
            if dev > MIRROR_RTOL:
                problems.append(f"{where}: broken pair mirrors only to {dev:.2%}")
        elif abs(k2) > 1.0 + 1e-9 and np.max(np.abs(profile)) > 0:
            dev = float(np.max(np.abs(profile + profile[mirror])) / np.max(np.abs(profile)))
            if dev <= UNBROKEN_MIN_DEV:
                problems.append(f"{where}: unbroken pair obeys the broken-regime "
                                f"relation ({dev:.2%})")
    return problems


# ---------------------------------------------------------------------------
# Mathieu
# ---------------------------------------------------------------------------

def a0_continued_fraction(q, depth=80, tol=1e-13):
    """a_0(q) for real q by bisection on a - 2q^2/(a - 4 - q G_2(a)), where the
    cosine-coefficient ratios obey G_k = q/(a - 4k^2 - q G_{k+1})."""
    def residual(a):
        g = 0.0
        for k in range(depth, 1, -1):
            g = q / (a - 4.0 * k * k - q * g)
        return a - 2.0 * q * q / (a - 4.0 - q * g)

    lo, hi = -(q * q) - 1.0, 0.4
    f_lo = residual(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def even_pi_values(q, count, size=100):
    """a_0, a_2, ... from the unsymmetrized recurrence (a - 4k^2) A_2k = q(A_2k-2 + A_2k+2)."""
    m = np.diag((2.0 * np.arange(size)) ** 2).astype(complex)
    m += np.diag(np.full(size - 1, q, dtype=complex), 1)
    m += np.diag(np.full(size - 1, q, dtype=complex), -1)
    m[1, 0] = 2.0 * q
    w = np.linalg.eigvals(m)
    return w[np.argsort(w.real)][:count]


def mathieu_grid(text):
    """a_0 at every real q against the continued fraction; the lowest seven values of
    each panel real to 1e-8 (acceptance criterion 4)."""
    problems = []
    for point in json.loads(text):
        q = point["q"]
        a0 = point["even_pi"][0][0]
        ref = a0_continued_fraction(q)
        if abs(a0 - ref) > 1e-9 * max(1.0, abs(ref)):
            problems.append(f"q={q:.6g}: a0 {a0!r} vs continued fraction {ref!r}")
        for panel in point["panels"]:
            worst = max(abs(im) for _, im in sorted(panel)[:7])
            if worst > 1e-8:
                problems.append(f"q={q:.6g}: |Im a| = {worst:.2e} in a real panel")
    return problems


def mathieu_table(text, q, count):
    """CLI characteristic values against the unsymmetrized recurrence."""
    rows = list(csv.DictReader(io.StringIO(text)))
    got = np.array([complex(float(r["re_a"]), float(r["im_a"])) for r in rows])
    if len(got) != count:
        return [f"{len(got)} values for --count {count}"]
    ref = even_pi_values(q, count)
    dev = float(np.max(np.abs(got[np.argsort(got.real)] - ref) / np.maximum(1, np.abs(ref))))
    return [] if dev <= 1e-9 else [f"values off by {dev:.2e}"]


# the first two double points of the even pi-periodic class on q = i t
# (Mulholland & Goldstein 1929; Blanch & Clemm, Math. Comp. 23 (1969) 97)
DOUBLE_POINTS = ((1.4687686, 2.0887), (16.471166, None))


def collisions(text):
    found = json.loads(text)
    if len(found) < len(DOUBLE_POINTS):
        return [f"{len(found)} collisions, expected at least {len(DOUBLE_POINTS)}"]
    problems = []
    for got, (t, a) in zip(found, DOUBLE_POINTS):
        if abs(got["q_imag"] - t) > 1e-6:
            problems.append(f"collision at t={got['q_imag']!r}, expected {t}")
        if a is not None and abs(got["a_merge"] - a) > 5e-4:
            problems.append(f"collision at t={t}: a={got['a_merge']!r}, expected {a}")
    return problems


# ---------------------------------------------------------------------------
# Dyson maps and E3
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _circle_basis(truncation):
    """Generator matrices and the ten basis monomials (acting right to left)."""
    dim = 2 * truncation + 1
    shift = np.eye(dim, k=-1)        # mode n -> n + 1
    gens = {"u": (shift - shift.T) / 2j, "v": (shift + shift.T) / 2.0,
            "J": np.diag(np.arange(-truncation, truncation + 1)).astype(complex)}
    stack = []
    for label in algebra.BASIS_LABELS:          # "1", "u", ..., "uJ", "J2"
        acc = np.eye(dim, dtype=complex)
        for g in ("" if label == "1" else label.replace("2", label[0])):
            acc = acc @ gens[g]
        stack.append(acc)
    return gens, np.array(stack)


def conjugation(lam, rho, tau, h_coeffs, H_coeffs, truncation=48, margin=12):
    """h against exp(lam J + rho u + tau v) H exp(-...) on the interior block."""
    gens, stack = _circle_basis(truncation)
    eta = expm(lam * gens["J"] + rho * gens["u"] + tau * gens["v"])
    lhs = eta @ np.tensordot(np.asarray(H_coeffs), stack, axes=1) @ np.linalg.inv(eta)
    rhs = np.tensordot(np.asarray(h_coeffs), stack, axes=1)
    inner = (slice(margin, -margin),) * 2
    dev = float(np.max(np.abs(lhs - rhs)[inner]) / max(1.0, np.max(np.abs(lhs[inner]))))
    return [] if dev <= OPERATOR_TOL else [f"transform off exponential conjugation by {dev:.2e}"]


def hermitized(record):
    """One hermitize result (as_dict form): residual and exponential conjugation."""
    problems = []
    if record["residual"] > 1e-10:
        problems.append(f"{record['symmetry']}: hermiticity residual {record['residual']:.2e}")
    H = algebra.build_hamiltonian(record["symmetry"], record["constrained_mu"])
    h = [complex(re, im) for re, im in record["h"]["coeffs"]]
    return problems + conjugation(record["lambda"], record["rho"], record["tau"], h, H.coeffs)


def reduced(mu3, mu4, mu7, out, count=8, truncation=24):
    """J^2 + alpha{u,J} + beta u^2 + gamma is isospectral with the family member."""
    h = circle_matrix(a=out["alpha"], c=out["beta"], d=out["gamma"], truncation=truncation)
    H = circle_matrix(a=-mu4, b=-1j * mu3, c=mu7, truncation=truncation)
    ref = np.linalg.eigvalsh(h)[:count]
    w = np.linalg.eigvals(H)
    got = w[np.argsort(w.real)][:count]
    dev = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
    return [] if dev <= LEVEL_RTOL else [
        f"reduced form at ({mu3:.6g}, {mu4:.6g}, {mu7:.6g}) off by {dev:.2e}"]


@functools.lru_cache(maxsize=None)
def _defining():
    return e3.defining_matrices()


def _eta4(params):
    mats = _defining()
    x = sum(getattr(params, f) * mats[g] for f, g in (
        ("lambda_z", "Jz"), ("lambda_plus", "Jp"), ("lambda_minus", "Jm"),
        ("kappa_z", "Pz"), ("kappa_plus", "Pp"), ("kappa_minus", "Pm")))
    return expm(x), expm(-x)


def e3_table(params, columns):
    """Adjoint table against exp(X) G exp(-X) in the 4x4 defining representation."""
    mats = _defining()
    left, right = _eta4(params)
    worst = 0.0
    for g in e3.GENERATORS:
        image = sum(columns[g].get(h, 0.0) * mats[h] for h in e3.GENERATORS)
        worst = max(worst, float(np.max(np.abs(image - left @ mats[g] @ right))))
    return [] if worst <= OPERATOR_TOL else [f"E3 adjoint table off by {worst:.2e}"]


def _e3_matrix(coeffs):
    mats = _defining()
    out = np.zeros((4, 4), dtype=complex)
    for c, m in zip(coeffs, e3.MONOMIALS):
        if c != 0:
            term = np.eye(4, dtype=complex)
            for g in m:
                term = term @ mats[e3.GENERATORS[g]]
            out += c * term
    return out


def e3_transform(params, h_coeffs, out_coeffs):
    """eta h eta^-1 against the 4x4 representation (an algebra homomorphism)."""
    left, right = _eta4(params)
    ref = left @ _e3_matrix(h_coeffs) @ right
    dev = float(np.max(np.abs(_e3_matrix(out_coeffs) - ref)) / max(1.0, np.max(np.abs(ref))))
    return [] if dev <= OPERATOR_TOL else [f"E3 transform off the 4x4 oracle by {dev:.2e}"]

