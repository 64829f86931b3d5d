import math
import signal
import warnings

import numpy as np
import pytest
import scipy.linalg

from euclidpt import dyson, mathieu
from euclidpt.dyson import pt5_three_param_hamiltonian, reduce_pt5_three_param
from euclidpt.errors import ConvergenceFailure
from euclidpt.mathieu import (CLASSES, EVEN_2PI, EVEN_PI, ODD_2PI, ODD_PI,
                              antiperiodic_characteristic_values, characteristic_values,
                              complex_mathieu_eps, mathieu_function,
                              pt5_complex_hamiltonian, pt5_complex_solution)
from euclidpt.spectral import SpectralProblem, eigen_spectrum

import oracles
from test_mathieu_chains import loop_recurrence_matrix


# ---------------------------------------------------------------------------
# characteristic values
# ---------------------------------------------------------------------------

def test_free_limit_all_classes():
    assert characteristic_values(0.0, EVEN_PI, 5).real == pytest.approx(
        [0, 4, 16, 36, 64], abs=1e-12)
    assert characteristic_values(0.0, ODD_PI, 4).real == pytest.approx(
        [4, 16, 36, 64], abs=1e-12)
    assert characteristic_values(0.0, EVEN_2PI, 4).real == pytest.approx(
        [1, 9, 25, 49], abs=1e-12)
    assert characteristic_values(0.0, ODD_2PI, 4).real == pytest.approx(
        [1, 9, 25, 49], abs=1e-12)


def test_a0_against_continued_fraction():
    a0 = characteristic_values(1.0, EVEN_PI, 1)[0]
    oracle = oracles.mathieu_a0_continued_fraction(1.0)
    assert a0.real == pytest.approx(oracle, abs=1e-10)
    assert a0.real == pytest.approx(-0.4551, abs=1e-4)
    assert abs(a0.imag) < 1e-12


def test_real_q_reality_and_interlacing():
    # a_0 < b_1 < a_1 < b_2 < a_2 < ... for real q > 0
    for q in (0.5, 2.0, 5.0):
        a = np.sort(np.concatenate([characteristic_values(q, EVEN_PI, 4),
                                    characteristic_values(q, EVEN_2PI, 4)]).real)
        b = np.sort(np.concatenate([characteristic_values(q, ODD_PI, 4),
                                    characteristic_values(q, ODD_2PI, 4)]).real)
        for vals in (a, b):
            assert np.max(np.abs(np.sort_complex(vals).imag)) < 1e-10
        for k in range(6):
            assert a[k] < b[k] < a[k + 1]


def test_imaginary_q_conjugate_closure():
    for t in (0.7, 2.5, 6.0):
        w = characteristic_values(1j * t, EVEN_PI, 8)
        key = lambda z: z[np.lexsort((z.imag, np.round(z.real, 6)))]
        assert np.max(np.abs(key(w) - key(np.conj(w)))) < 1e-8


def test_count_may_not_split_a_conjugate_pair():
    # at q = 16.471166i values 2 and 3 are a pair 2.7e-3 apart
    with pytest.raises(ValueError, match="count 3 separates .* from its conjugate"):
        characteristic_values(16.471166j, EVEN_PI, 3)
    w = characteristic_values(16.471166j, EVEN_PI, 4)
    assert w[3] == w[2].conjugate() and w[2].imag < 0
    assert len(characteristic_values(16.471166j, EVEN_PI, 2)) == 2


def test_convergence_guard():
    # ridiculous truncation for the requested count must fail loudly
    with pytest.raises(ValueError):
        characteristic_values(1.0, EVEN_PI, 10, trunc=12)
    # doubling stability at a legitimate truncation
    w40 = characteristic_values(2.0 + 0.5j, EVEN_PI, 6, trunc=40)
    w80 = characteristic_values(2.0 + 0.5j, EVEN_PI, 6, trunc=80)
    assert np.max(np.abs(w40 - w80)) < 1e-10


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------

def test_function_free_limit_is_cosine():
    z = np.linspace(0, 2 * math.pi, 181)
    vals = mathieu_function(0.0, 4.0, "even", z)
    ref = np.cos(2 * z)
    scale = vals[0] / ref[0]
    assert np.max(np.abs(vals - scale * ref)) < 1e-10


def test_function_parity():
    z = np.linspace(0.1, 3.0, 57)
    for q in (0.8, 1j * 1.2):
        a_even = characteristic_values(q, EVEN_PI, 2)[1]
        even = mathieu_function(q, a_even, "even", z)
        even_neg = mathieu_function(q, a_even, "even", -z)
        assert np.max(np.abs(even - even_neg)) < 1e-12
        b = characteristic_values(q, ODD_2PI, 1)[0]
        odd = mathieu_function(q, b, "odd", z)
        odd_neg = mathieu_function(q, b, "odd", -z)
        assert np.max(np.abs(odd + odd_neg)) < 1e-12


def test_function_rejects_non_characteristic():
    with pytest.raises(ValueError):
        mathieu_function(1.0, 2.345, "even", np.array([0.0]))


def test_function_rejects_non_characteristic_complex_q():
    with pytest.raises(ValueError, match="no even class has characteristic value 2.345: "
                                         "2.345 is not a characteristic value of class even-2pi"):
        mathieu_function(1.2j, 2.345, "even", np.array([0.0]))


def _dense_coefficient_vector(q, cls, a, trunc=60):
    """The gauge-fixed vector of the eigenvalue nearest a, from a dense eig of the class."""
    w, vecs = scipy.linalg.eig(loop_recurrence_matrix(q, cls, trunc))
    vec = vecs[:, int(np.argmin(np.abs(w - a)))].copy()
    if cls == EVEN_PI:
        vec[0] /= math.sqrt(2.0)
    top = vec[int(np.argmax(np.abs(vec)))]
    vec *= abs(top) / top
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0, 2.5, 10.0, 25.0, 1.2j, 3j, 6j, 0.3 + 0.7j, 2 - 1j,
                               1.4687686j])
def test_coefficient_vector_matches_dense_eig(q):
    # q = 1.4687686i lies 1e-7 from the first even-pi double point, where the two
    # merging vectors are ill-conditioned
    bound = 1e-10 if q == 1.4687686j else 1e-13
    for cls in CLASSES.values():
        for a in mathieu._sorted_eigs(q, cls, 60)[:8]:
            vec = mathieu.coefficient_vector(q, cls, a)
            assert np.max(np.abs(vec - _dense_coefficient_vector(q, cls, a))) <= bound


def test_functions_make_no_dense_eig(monkeypatch):
    calls = []
    eig = scipy.linalg.eig

    def counted(*args, **kwargs):
        calls.append(args)
        return eig(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", counted)
    z = np.linspace(0.0, 3.0, 7)
    for q in (0.0, 0.8, 1.2j, 0.3 + 0.7j):
        for cls, parity in ((EVEN_PI, "even"), (ODD_2PI, "odd")):
            mathieu_function(q, characteristic_values(q, cls, 2)[1], parity, z)
    pt5_complex_solution(0.9, 0.4, complex(characteristic_values(0.9j, EVEN_PI, 1)[0]) / 4.0, z)
    assert calls == []


def test_gauge_dressed_solution_satisfies_reduced_problem():
    # psi = exp(i alpha cos theta) [c1 C + c2 S](a, q, theta) solves
    # (J^2 + alpha{u,J} + beta u^2 + gamma) psi = E psi
    out = reduce_pt5_three_param(0.5, 1.5, 0.2)
    alpha, beta, gamma = out["alpha"], out["beta"], out["gamma"]
    q = (alpha ** 2 - beta) / 4.0
    theta = np.linspace(0, 2 * math.pi, 65536, endpoint=False)
    from euclidpt.algebra import E2Element
    reduced = (E2Element.from_terms(J2=1)
               + alpha * E2Element.from_terms(uJ=2, v=-1j)
               + E2Element.from_terms(u2=beta, one=gamma))
    for cls, parity, c1, c2 in ((EVEN_PI, "even", 1.0, 0.0), (ODD_2PI, "odd", 0.0, 1.0)):
        a = characteristic_values(q, cls, 2)[1 if cls == EVEN_PI else 0].real
        energy = a - (alpha ** 2 - beta) / 2.0 + gamma
        phi = mathieu_function(q, a, parity, theta)
        psi = np.exp(1j * alpha * np.cos(theta)) * (c1 + c2) * phi
        residual = oracles.fd_apply(reduced, psi, theta) - energy * psi
        assert np.max(np.abs(residual)) / np.max(np.abs(psi)) < 1e-6


# ---------------------------------------------------------------------------
# antiperiodic (fermionic) classes
# ---------------------------------------------------------------------------

def test_antiperiodic_split_matches_full_basis():
    # parity-fold matrices reproduce the full exp(i(m+1/2)theta) spectrum
    q = 0.73 - 0.2j
    even = antiperiodic_characteristic_values(q, "even", 6)
    odd = antiperiodic_characteristic_values(q, "odd", 6)
    n = 60
    ms = np.arange(-n, n)
    full = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(2 * n):
        full[i, i] = (ms[i] + 0.5) ** 2
        if i + 2 < 2 * n:
            full[i, i + 2] = full[i + 2, i] = q
    w_full = np.sort_complex(np.linalg.eigvals(full))[:12]
    w_split = np.sort_complex(np.concatenate([even, odd]))[:12]
    assert np.max(np.abs(w_full - w_split)) < 1e-9


def test_antiperiodic_free_limit():
    vals = antiperiodic_characteristic_values(0.0, "even", 4).real
    assert vals == pytest.approx([0.25, 2.25, 6.25, 12.25], abs=1e-12)


# ---------------------------------------------------------------------------
# exceptional points on the imaginary-q axis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def even_pi_eps():
    return complex_mathieu_eps(17.0, EVEN_PI, count=8)


def test_first_two_even_eps(even_pi_eps):
    assert len(even_pi_eps) >= 2
    t1, a1 = even_pi_eps[0]["q_imag"], even_pi_eps[0]["a_merge"]
    t2, a2 = even_pi_eps[1]["q_imag"], even_pi_eps[1]["a_merge"]
    # frozen from an independent bisection of the recurrence eigenproblem
    assert t1 == pytest.approx(1.4687686, abs=2e-5)
    assert a1 == pytest.approx(2.0886989, abs=1e-4)
    assert t2 == pytest.approx(16.4711660, abs=2e-4)
    assert a2 == pytest.approx(27.3191280, abs=1e-3)


def test_real_below_first_ep(even_pi_eps):
    t1 = even_pi_eps[0]["q_imag"]
    assert abs(t1 - 1.4687) < 1e-3
    for t in np.linspace(0.05, t1 - 1e-3, 40):
        w = characteristic_values(1j * t, EVEN_PI, 8)
        assert np.max(np.abs(w.imag)) < 1e-8


def test_double_points_against_continued_fraction(even_pi_eps):
    # Newton on the continued fraction from rough starts, no recurrence matrix
    points = [oracles.mathieu_even_pi_double_point(1.5, 2.0),
              oracles.mathieu_even_pi_double_point(16.0, 27.0)]
    # the merge energies E = a/4 quoted by acceptance criterion 3
    for (t, a), energy in zip(points, (0.5221747, 6.8297819)):
        assert a / 4.0 == pytest.approx(energy, abs=1e-6)
    for (t, a), ep in zip(points, even_pi_eps):
        assert ep["q_imag"] == pytest.approx(t, abs=1e-6)
        assert ep["a_merge"] == pytest.approx(a, abs=1e-6)


def test_eps_solve_each_q_once(monkeypatch):
    solved = []
    sorted_eigs = mathieu._sorted_eigs

    def counted(q, cls, size):
        solved.append(q)
        return sorted_eigs(q, cls, size)

    monkeypatch.setattr(mathieu, "_sorted_eigs", counted)
    eps = complex_mathieu_eps(2.0, EVEN_PI, trunc=20, scan_steps=20)
    assert len(eps) == 1
    assert len(solved) == len(set(solved))


def test_eps_tolerance_below_float_spacing(monkeypatch):
    # the bisection ends at adjacent floats instead of looping forever
    solves = []
    sorted_eigs = mathieu._sorted_eigs

    def budgeted(*args):
        solves.append(1)
        assert len(solves) < 500, "bisection did not stop"
        return sorted_eigs(*args)

    monkeypatch.setattr(mathieu, "_sorted_eigs", budgeted)
    eps = complex_mathieu_eps(2.0, EVEN_PI, trunc=20, param_tol=1e-20, scan_steps=20)
    assert len(eps) == 1
    assert eps[0]["q_imag"] == pytest.approx(1.4687686, abs=1e-6)
    assert eps[0]["a_merge"] == pytest.approx(2.0886989, abs=1e-4)


@pytest.mark.parametrize("param_tol, im_tol", [(0.0, 1e-8), (-1.0, 1e-8), (math.nan, 1e-8),
                                               (1e-8, -1.0), (1e-8, math.inf)])
def test_eps_reject_bad_tolerances(param_tol, im_tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        complex_mathieu_eps(2.0, EVEN_PI, trunc=20, param_tol=param_tol, im_tol=im_tol,
                            scan_steps=20)


@pytest.mark.parametrize("kwargs, name", [({"max_q": 0.0}, "max_q"), ({"max_q": -1.0}, "max_q"),
                                          ({"max_q": math.inf}, "max_q"),
                                          ({"max_q": math.nan}, "max_q"),
                                          ({"count": 0}, "count"), ({"count": -2}, "count"),
                                          ({"scan_steps": 0}, "scan_steps"),
                                          ({"scan_steps": 1}, "scan_steps"),
                                          ({"count": 13}, "trunc 20 with count 13")])
def test_eps_reject_bad_arguments(kwargs, name):
    args = {"max_q": 2.0, "cls": EVEN_PI, "trunc": 20, "scan_steps": 20, **kwargs}
    with pytest.raises(ValueError, match=name):
        complex_mathieu_eps(**args)


@pytest.mark.slow
def test_third_even_ep():
    eps = complex_mathieu_eps(55.0, EVEN_PI, count=10, trunc=80)
    third = [e for e in eps if e["q_imag"] > 40]
    assert third
    assert third[0]["q_imag"] == pytest.approx(47.805966, abs=1e-3)
    assert third[0]["a_merge"] / 4 == pytest.approx(20.1646, abs=1e-3)
    t, a = oracles.mathieu_even_pi_double_point(47.8, 80.6)
    assert third[0]["q_imag"] == pytest.approx(t, rel=1e-9)
    assert third[0]["a_merge"] == pytest.approx(a, rel=1e-9)


@pytest.mark.parametrize("seed, bracket", [((2.0, 1.5), (1.4, 1.5)), ((27.0, 16.0), (15.8, 16.5)),
                                           ((80.6, 47.8), (47.7, 47.9))])
def test_newton_double_points_against_continued_fraction(seed, bracket):
    a0, t0 = seed
    t, a = mathieu._double_point(EVEN_PI, 60, a0, t0, *bracket)
    t_ref, a_ref = oracles.mathieu_even_pi_double_point(t0, a0)
    assert t == pytest.approx(t_ref, rel=1e-12)
    assert a == pytest.approx(a_ref, rel=1e-12)


def test_newton_stops_when_it_leaves_the_bracket():
    # from a = 100 the unguarded iteration reaches the double point at t = 95.48
    t, _ = mathieu._double_point(EVEN_PI, 60, 100.0, 48.0, 0.0, 200.0)
    assert t == pytest.approx(95.47527, abs=1e-5)
    assert mathieu._double_point(EVEN_PI, 60, 100.0, 48.0, 47.1, 48.0) is None


def test_degenerate_fold_raises(monkeypatch):
    # D = 0, D_a ~ 0 and D_aa = 0: Newton stops at once on a fold with no D_aa term
    monkeypatch.setattr(mathieu, "_continuant", lambda *args: (0.0, 1e-200, 0.0, 1e-200, 1.0))
    with pytest.raises(ConvergenceFailure, match="degenerate fold"):
        mathieu._double_point(EVEN_PI, 20, 2.0, 1.5, 1.4, 1.6)


def _fake_pairs(births, deaths):
    """A `_sorted_eigs` stand-in whose pair count rises at each birth and falls at each death."""
    def eigs(q, cls, size):
        n = sum(q.imag >= t for t in births) - sum(q.imag >= t for t in deaths)
        return np.array([k + 1j for k in range(n)] + [k - 1j for k in range(n)] + [50.0] * 8)
    return eigs


def test_eps_certificates_raise(monkeypatch):
    # the fake births lie above the stretch Gershgorin certifies real (t < 1.0448), where
    # the scan solves; Newton never converges: the bracket is halved down to param_tol
    monkeypatch.setattr(mathieu, "_sorted_eigs", _fake_pairs([1.93], []))
    monkeypatch.setattr(mathieu, "_double_point", lambda *args: None)
    with pytest.raises(ConvergenceFailure, match="no double point found"):
        complex_mathieu_eps(2.0, EVEN_PI, trunc=20, scan_steps=20)
    # two births and a death inside the scan interval [1.9, 2.0]: three points
    # for a change of one pair
    monkeypatch.setattr(mathieu, "_sorted_eigs", _fake_pairs([1.93, 1.94], [1.97]))
    monkeypatch.setattr(mathieu, "_double_point",
                        lambda cls, trunc, a, t, lo, hi: None if hi - lo > 0.05 else (t, a))
    with pytest.raises(ConvergenceFailure, match="3 double points .* changes by 1"):
        complex_mathieu_eps(2.0, EVEN_PI, trunc=20, scan_steps=20)


# the first double point of each class: the oracle's even-pi point, and the odd-pi one
# `test_odd_double_points_certified_by_one_solve_on_either_side` pins
FIRST_DOUBLE_POINT = {"even-pi": oracles.mathieu_even_pi_double_point(1.5, 2.0)[0],
                      "odd-pi": 6.92895}
# the first Gershgorin gap: modes 0 and 2 (links sqrt 2, 1) and modes 2 and 4 (links 1, 1)
FIRST_GAP = {"even-pi": 4.0 / (1.0 + 2.0 * math.sqrt(2.0)), "odd-pi": 12.0 / 3.0}


@pytest.mark.parametrize("cls", [EVEN_PI, ODD_PI], ids=["even-pi", "odd-pi"])
@pytest.mark.parametrize("trunc", [12, 20, 33, 60, 120])
def test_real_stretch_is_the_first_gershgorin_gap(cls, trunc):
    t_star = mathieu._real_stretch(cls, trunc)
    assert t_star == pytest.approx(FIRST_GAP[cls.label], rel=1e-13)
    assert t_star < FIRST_GAP[cls.label]
    assert t_star < FIRST_DOUBLE_POINT[cls.label]


@pytest.mark.parametrize("cls", [EVEN_PI, ODD_PI], ids=["even-pi", "odd-pi"])
@pytest.mark.parametrize("trunc", [12, 20, 33, 60, 120])
def test_every_value_is_real_below_the_real_stretch(cls, trunc):
    t_star = mathieu._real_stretch(cls, trunc)
    for t in [t_star * (1 - 1e-9), *np.linspace(0.0, t_star, 21)[1:-1], t_star * 0.999999]:
        w = mathieu._sorted_eigs(1j * t, cls, trunc)
        assert np.all(w.imag == 0), (t, w[w.imag != 0])


def test_the_real_stretch_ends_below_the_first_double_point():
    # above t*, the scan still finds the first point of each class
    for cls in (EVEN_PI, ODD_PI):
        first = FIRST_DOUBLE_POINT[cls.label]
        eps = complex_mathieu_eps(first + 1.0, cls)
        assert mathieu._real_stretch(cls, 60) < first
        assert [e["q_imag"] for e in eps] == pytest.approx([first], abs=1e-5)


@pytest.mark.parametrize("cls, max_q", [(EVEN_PI, 1.0), (EVEN_PI, 1.04), (ODD_PI, 3.99)],
                         ids=["even-pi-1", "even-pi-1.04", "odd-pi-3.99"])
def test_no_solve_inside_the_real_stretch(cls, max_q, monkeypatch):
    solved = []
    sorted_eigs = mathieu._sorted_eigs
    monkeypatch.setattr(mathieu, "_sorted_eigs", lambda *args: solved.append(args)
                        or sorted_eigs(*args))
    assert max_q < mathieu._real_stretch(cls, 60)
    assert complex_mathieu_eps(max_q, cls) == [] and solved == []
    # one step past t* the scan solves again, at that point only
    assert complex_mathieu_eps(mathieu._real_stretch(cls, 60) * 1.001, cls, scan_steps=2) == []
    assert len(solved) == 1


def test_odd_double_points_certified_by_one_solve_on_either_side():
    eps = complex_mathieu_eps(31.0, ODD_PI)
    assert [e["q_imag"] for e in eps] == pytest.approx([6.92895, 30.09677], abs=1e-5)
    for ep in eps:
        t, a = ep["q_imag"], ep["a_merge"]
        for factor, pair in ((1 - 1e-6, False), (1 + 1e-6, True)):
            w = mathieu._sorted_eigs(1j * t * factor, ODD_PI, 60)
            near = w[np.argsort(np.abs(w - a))[:2]]
            assert np.all(near.imag != 0) == pair and np.all(near.imag == 0) != pair
            if pair:
                assert near[0] == near[1].conjugate()
            assert np.max(np.abs(near - a)) < 1e-2 * max(1.0, a)


def test_continuant_stays_finite_at_large_q():
    # unscaled, the determinant of the 120-mode chain at t = 100, a = 150 is about 1e466
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps = complex_mathieu_eps(100.0, EVEN_PI, trunc=120)
        diag, off = mathieu._chain(1j, EVEN_PI, 120)
        coupling = [0.0, *np.rint(-(off * off).real)]
        values = mathieu._continuant(diag.real.tolist(), coupling, 150.0, 1e4)
    assert np.all(np.isfinite(values)) and values[0] != 0
    assert [e["q_imag"] for e in eps] == pytest.approx([1.46877, 16.47117, 47.80597, 95.47527],
                                                        abs=1e-5)


def test_eps_solve_budget(monkeypatch):
    solved = []
    sorted_eigs = mathieu._sorted_eigs

    def counted(q, cls, size):
        solved.append(q)
        return sorted_eigs(q, cls, size)

    monkeypatch.setattr(mathieu, "_sorted_eigs", counted)
    assert len(complex_mathieu_eps(20.0, EVEN_PI)) == 2
    assert len(solved) <= 40


@pytest.mark.parametrize("cls", [EVEN_PI, ODD_PI])
@pytest.mark.parametrize("max_q, kwargs", [(2.0, {"trunc": 20}), (17.0, {"count": 8}), (20.0, {}),
                                           (55.0, {"count": 10, "trunc": 80})])
def test_default_scan_finds_what_a_fine_scan_finds(max_q, kwargs, cls):
    coarse = complex_mathieu_eps(max_q, cls, **kwargs)
    fine = complex_mathieu_eps(max_q, cls, scan_steps=400, **kwargs)
    assert len(coarse) == len(fine)
    for got, ref in zip(coarse, fine):
        assert got["q_imag"] == pytest.approx(ref["q_imag"], rel=1e-12)
        assert got["a_merge"] == pytest.approx(ref["a_merge"], rel=1e-12)


@pytest.mark.parametrize("cls", [EVEN_2PI, ODD_2PI])
def test_eps_reject_2pi_classes(cls):
    # a_n(it) and b_n(it) of odd n are a conjugate pair across two classes,
    # so neither 2pi class has a same-class double point on the axis
    with pytest.raises(ValueError, match="even-pi or odd-pi"):
        complex_mathieu_eps(2.0, cls)


# ---------------------------------------------------------------------------
# complex-Mathieu family
# ---------------------------------------------------------------------------

def test_pt5_complex_free_limit():
    # mu4 = mu6 = 0: plane waves, E = k^2 via a = 4 E = (2k)^2
    theta = np.linspace(0, 2 * math.pi, 360, endpoint=False)
    vals = pt5_complex_solution(0.0, 0.0, 1.0, theta)  # a = 4, C = cos(theta)
    scale = vals[0]
    assert np.max(np.abs(vals - scale * np.cos(theta))) < 1e-10


def test_pt5_complex_solution_residual():
    mu4, mu6 = 0.9, 0.4
    element = pt5_complex_hamiltonian(mu4, mu6)
    theta = np.linspace(0, 2 * math.pi, 65536, endpoint=False)
    a_vals = characteristic_values(1j * mu4, EVEN_PI, 3)
    for a in a_vals[:2]:
        energy = complex(a) / 4.0
        psi = pt5_complex_solution(mu4, mu6, energy, theta)
        residual = oracles.fd_apply(element, psi, theta) - energy * psi
        assert np.max(np.abs(residual)) / np.max(np.abs(psi)) < 1e-6


def test_pt5_complex_matches_direct_spectrum():
    # quantized E = a/4 from the pi-periodic classes in theta/2 equals the
    # direct circle-representation spectrum (bosonic sector)
    for mu4, mu6 in ((0.8, 0.0), (1.2, 0.5)):
        element = pt5_complex_hamiltonian(mu4, mu6)
        direct = eigen_spectrum(SpectralProblem(element, truncation=48))
        a_even = characteristic_values(1j * mu4, EVEN_PI, 4)
        a_odd = characteristic_values(1j * mu4, ODD_PI, 3)
        route = np.sort(np.concatenate([a_even, a_odd]).real) / 4.0
        lows = np.sort(direct.eigenvalues[:7].real)
        assert np.max(np.abs(direct.eigenvalues[:7].imag)) < 1e-8
        assert np.max(np.abs(lows - route[:7])) < 1e-6


def test_cross_module_three_param_routes():
    # Mathieu route (a + shifts) against the direct eigensolve at random
    # well-defined parameter points
    rng = np.random.default_rng(71)
    done = 0
    while done < 5:
        m3 = rng.uniform(0.3, 2.0)
        m4 = rng.uniform(0.3, 2.0)
        m7 = rng.uniform(0.0, 1.0)
        if abs((m3 ** 2 + m4 ** 2 - m7) / (2 * m3 * m4)) < 1.2:
            continue
        out = reduce_pt5_three_param(m3, m4, m7)
        q = (out["alpha"] ** 2 - out["beta"]) / 4.0
        shift = out["gamma"] - (out["alpha"] ** 2 - out["beta"]) / 2.0
        a = np.concatenate([characteristic_values(q, EVEN_PI, 4),
                            characteristic_values(q, EVEN_2PI, 4)])
        b = np.concatenate([characteristic_values(q, ODD_PI, 4),
                            characteristic_values(q, ODD_2PI, 4)])
        route = np.sort(np.concatenate([a, b]).real + shift)[:8]
        direct = eigen_spectrum(SpectralProblem(
            pt5_three_param_hamiltonian(m3, m4, m7), truncation=48))
        lows = np.sort(direct.eigenvalues[:8].real)
        assert np.max(np.abs(lows - route)) < 1e-6
        done += 1


def test_class_labels():
    assert set(CLASSES) == {"even-pi", "odd-pi", "even-2pi", "odd-2pi"}


@pytest.mark.parametrize("q", [1e200, 1e200j, complex(1e154, 1e154)])
def test_chain_overflow_raises_without_warning(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="q"):
            characteristic_values(q, EVEN_PI, 4)
        with pytest.raises(ValueError, match="q"):
            antiperiodic_characteristic_values(q, "odd", 4)


@pytest.mark.parametrize("cls", [EVEN_PI, ODD_PI])
@pytest.mark.parametrize("t", [200.0, 1000.0, 5000.0])
def test_the_eight_lowest_values_hold_four_pairs_once_the_class_saturates(cls, t):
    # `complex_mathieu_eps` stops its scan at the first point with count // 2 pairs
    values = mathieu._sorted_eigs(1j * t, cls, 60)[:8]
    assert np.count_nonzero(values.imag > 1e-8) == 4


def _within(seconds, call):
    """call(), or a failure once `seconds` pass (an interval timer in this process)."""
    def late(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("mu", [1e3, 1e10])
def test_double_points_at_large_couplings_end_where_the_classes_saturate(mu):
    # a scan of 8 + max_q points, max_q = mu^2 / 2, took minutes at 1e3 and ran out of memory
    # at 1e10; the sixteen points are those of (100, 100): four per class, each at both signs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _within(5.0, lambda: dyson.pt5_double_point_predictions(mu, mu, 0.0, "mu7"))
    assert len(values) == 16 and values == sorted(values)
