"""The Mathieu classes solved as tridiagonal chains, and input validation."""

import contextlib

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from euclidpt import mathieu
from euclidpt.dyson import reduce_pt5_three_param
from euclidpt.errors import ConvergenceFailure
from euclidpt.mathieu import (EVEN_2PI, EVEN_PI, ODD_2PI, ODD_PI,
                              antiperiodic_characteristic_values, characteristic_values,
                              mathieu_function)

SQRT2 = np.sqrt(2.0)
# the four periodic classes, and the antiperiodic ones by parity
SIX_CLASSES = [EVEN_PI, ODD_PI, EVEN_2PI, ODD_2PI, "even", "odd"]
CLASS_IDS = ["even-pi", "odd-pi", "even-2pi", "odd-2pi", "anti-even", "anti-odd"]


def loop_recurrence_matrix(q, cls, size):
    """Entry-by-entry recurrence matrix of a class over cos(m z) or sin(m z), increasing m."""
    m = np.zeros((size, size), dtype=complex)
    for k in range(size):
        m[k, k] = {EVEN_PI: 2 * k, ODD_PI: 2 * k + 2}.get(cls, 2 * k + 1) ** 2
    for k in range(size - 1):
        m[k, k + 1] = m[k + 1, k] = q
    if cls == EVEN_PI:
        m[0, 1] = m[1, 0] = SQRT2 * q
    elif cls == EVEN_2PI:
        m[0, 0] += q
    elif cls == ODD_2PI:
        m[0, 0] -= q
    return m


def loop_antiperiodic_matrix(q, parity, size):
    """Entry-by-entry recurrence over cos((k+1/2) theta) (even) or sin (odd), increasing k."""
    m = np.zeros((size, size), dtype=complex)
    for k in range(size):
        m[k, k] = (k + 0.5) ** 2
    for k in range(size - 2):
        m[k, k + 2] = m[k + 2, k] = q
    fold = q if parity == "even" else -q
    m[0, 1] += fold
    m[1, 0] += fold
    return m


def dense_matrix(q, cls, size):
    if isinstance(cls, str):
        return loop_antiperiodic_matrix(q, cls, size)
    return loop_recurrence_matrix(q, cls, size)


@pytest.mark.parametrize("size", [2, 3, 12, 41])
@pytest.mark.parametrize("q", [0.0, -1.3, 0.7j, 2.0 + 0.5j])
def test_matrices_match_loop_reference(q, size):
    # `_chain`'s bands; an antiperiodic chain runs in the mode order of `_antiperiodic_order`
    q = complex(q)
    for cls in SIX_CLASSES:
        diag, off = mathieu._chain(q, cls, size)
        order = mathieu._antiperiodic_order(size) if isinstance(cls, str) else np.arange(size)
        reference = dense_matrix(q, cls, size)[np.ix_(order, order)]
        assert np.array_equal(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), reference), cls


@pytest.mark.parametrize("cls", SIX_CLASSES, ids=CLASS_IDS)
def test_cached_real_bands_rebuild_the_chain_bit_for_bit(cls):
    # every chain is a read-only affine table per (class, size) at q: real bands at a
    # float q, complex at a complex q; the real-q solve's dstemr call overwrites the
    # off-diagonal it is given, which must leave the table intact
    for size in (3, 12, 41):
        table = [np.asarray(part).tobytes() for part in mathieu._bands(cls, size)]
        order = mathieu._antiperiodic_order(size) if isinstance(cls, str) else np.arange(size)
        for q in (-7.25, -0.0, 0.0, 0.3, 26.0, 1e150):
            reference = dense_matrix(q, cls, size)[np.ix_(order, order)]
            for _ in range(2):
                diag, off = mathieu._chain(q, cls, size)
                assert diag.dtype == off.dtype == float, (size, q)
                chain = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                assert np.array_equal(chain, reference.real), (size, q)
                with contextlib.suppress(ConvergenceFailure):
                    mathieu._ritz_certified(q, cls, 1, size, "values")
            diag, off = mathieu._chain(complex(q), cls, size)
            assert diag.dtype == off.dtype == complex, (size, q)
            assert np.array_equal(diag.real, mathieu._chain(q, cls, size)[0]), (size, q)
        assert [np.asarray(part).tobytes() for part in mathieu._bands(cls, size)] == table
        base, _, unit = mathieu._bands(cls, size)
        assert not (base.flags.writeable or unit.flags.writeable)


@pytest.mark.parametrize("size", [24, 60])
@pytest.mark.parametrize("q", [3.7, 2.3j, 0.9 + 1.4j], ids=["real", "imaginary", "complex"])
@pytest.mark.parametrize("cls", SIX_CLASSES, ids=CLASS_IDS)
def test_chain_values_match_dense_solve(cls, q, size):
    chain = mathieu._sorted_eigs(q, cls, size)
    dense = scipy.linalg.eigvals(dense_matrix(q, cls, size))
    assert chain.dtype == complex and len(chain) == size
    # pair the two spectra one to one before comparing
    rows, cols = linear_sum_assignment(np.abs(chain[:, None] - dense[None, :]))
    rel = np.abs(chain[rows] - dense[cols]) / np.maximum(1.0, np.abs(dense[cols]))
    assert np.max(rel) < 1e-10


class _CountingEigvals:
    def __init__(self, monkeypatch):
        self.dtypes = []
        self._eigvals = scipy.linalg.eigvals
        monkeypatch.setattr(scipy.linalg, "eigvals", self)

    def __call__(self, a, *args, **kwargs):
        self.dtypes.append(np.asarray(a).dtype)
        return self._eigvals(a, *args, **kwargs)


def test_real_q_makes_no_dense_solve(monkeypatch):
    calls = _CountingEigvals(monkeypatch)
    for q in (0.0, 2.5, -6.0):
        for cls in (EVEN_PI, ODD_PI, EVEN_2PI, ODD_2PI):
            characteristic_values(q, cls, 4, trunc=20)
        for parity in ("even", "odd"):
            antiperiodic_characteristic_values(q, parity, 4, trunc=20)
    assert calls.dtypes == []


class _CountingSolves:
    """The chain length of each symmetric real-q solve and of each general chain solve."""

    def __init__(self, monkeypatch):
        self.counts = {"dstemr": [], "chain": []}
        for module, name, key in ((scipy.linalg.lapack, "dstemr", "dstemr"),
                                  (mathieu, "tridiagonal_eigenvalues", "chain")):
            monkeypatch.setattr(module, name, self._counting(getattr(module, name), key))

    def _counting(self, solve, key):
        def counted(diag, *args, **kwargs):
            self.counts[key].append(len(diag))
            return solve(diag, *args, **kwargs)
        return counted


# real q: one symmetric solve on the first rung's chain, count 4 + 8 = 12 modes or more
# where |q| asks (an antiperiodic chain reaches half the frequency a periodic one does),
# or at trunc = 20 when the rung would take more than 3/4 of it (17 modes at q = -6);
# any other q: trunc and 2*trunc
@pytest.mark.parametrize("q, periodic, antiperiodic", [
    (0.0, {"dstemr": [12], "chain": []}, {"dstemr": [12], "chain": []}),
    (-6.0, {"dstemr": [12], "chain": []}, {"dstemr": [20], "chain": []}),
    (2.5 + 0j, {"dstemr": [12], "chain": []}, {"dstemr": [14], "chain": []}),
    (0.9 + 1.4j, {"dstemr": [], "chain": [20, 40]}, {"dstemr": [], "chain": [20, 40]}),
    (1.8j, {"dstemr": [], "chain": [20, 40]}, {"dstemr": [], "chain": [20, 40]})],
    ids=["zero", "negative", "real-as-complex", "complex", "imaginary"])
@pytest.mark.parametrize("cls", SIX_CLASSES, ids=CLASS_IDS)
def test_real_q_solves_its_chain_once(cls, q, periodic, antiperiodic, monkeypatch):
    solves = _CountingSolves(monkeypatch)
    if isinstance(cls, str):
        antiperiodic_characteristic_values(q, cls, 4, trunc=20)
        assert solves.counts == antiperiodic
    else:
        characteristic_values(q, cls, 4, trunc=20)
        assert solves.counts == periodic


# acceptance criterion 4's panels (`perfbench` closed_forms mathieu_grid) at the README
# mu3 = 1/2 and at seed 1's
@pytest.mark.parametrize("mu3", [0.5, 0.5004728649880102], ids=["seed-0", "seed-1"])
def test_criterion_4_grid_certifies_at_the_first_rung(mu3, monkeypatch):
    solves = _CountingSolves(monkeypatch)
    for mu4 in (float(x) for x in np.linspace(-3.0, 3.0, 200) if abs(x - mu3) >= 0.05):
        red = reduce_pt5_three_param(mu3, mu4, 0.0)
        q = (red["alpha"] ** 2 - red["beta"]) / 4.0
        for cls, count in [(EVEN_PI, 4), (ODD_PI, 4), (EVEN_2PI, 4), (ODD_2PI, 4),
                           ("even", 7), ("odd", 7)]:
            solves.counts["dstemr"].clear()
            if isinstance(cls, str):
                values = antiperiodic_characteristic_values(q, cls, count, trunc=40)
            else:
                values = characteristic_values(q, cls, count, trunc=40)
            assert solves.counts["dstemr"] == [mathieu._first_rung(q, cls, count)]
            ref = mathieu._ritz_certified(q, cls, count, 40, "values")[0]
            assert np.all(np.abs(values - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref))), (q, cls)


@pytest.mark.parametrize("q, cls, count, trunc, rung", [
    (400.0, "even", 4, 60, 44), (-400.0, "odd", 4, 60, 44), (1000.0, EVEN_PI, 4, 60, 31)],
    ids=["antiperiodic", "antiperiodic-negative", "periodic"])
def test_a_rung_that_does_not_certify_falls_back_to_trunc(q, cls, count, trunc, rung,
                                                          monkeypatch):
    # the first rung's bounds exceed 1e-10 here; trunc's certify
    assert mathieu._first_rung(q, cls, count) == rung
    with pytest.raises(ConvergenceFailure):
        mathieu._ritz_certified(q, cls, count, rung, "values")
    values, bounds = mathieu._ritz_certified(q, cls, count, trunc, "values")
    solves = _CountingSolves(monkeypatch)
    if isinstance(cls, str):
        got = antiperiodic_characteristic_values(q, cls, count, trunc=trunc)
    else:
        got = characteristic_values(q, cls, count, trunc=trunc)
    assert solves.counts["dstemr"] == [rung, trunc]
    assert np.all(np.abs(got - values) <= bounds)


def test_no_rung_certifies_reports_trunc(monkeypatch):
    # the rung (57 modes) and trunc both fail; the message is trunc's
    solves = _CountingSolves(monkeypatch)
    with pytest.raises(ConvergenceFailure, match=r"antiperiodic even values may have moved by "
                                                 r"\d\.\d{3}e[+-]\d+ under truncation to 80 modes"):
        antiperiodic_characteristic_values(1000.0, "even", 4, trunc=80)
    assert solves.counts["dstemr"] == [57, 80]


@pytest.mark.parametrize("cls, dtype", zip(SIX_CLASSES, [float, float, complex, complex,
                                                      float, float]), ids=CLASS_IDS)
def test_imaginary_q_real_form_where_the_diagonal_is_real(cls, dtype, monkeypatch):
    # q = it leaves the diagonal real except on the 2pi classes, whose
    # first diagonal entry is 1 +- q
    calls = _CountingEigvals(monkeypatch)
    mathieu._sorted_eigs(1.8j, cls, 20)
    assert calls.dtypes == [np.dtype(dtype)]


def test_generic_q_solves_in_complex_arithmetic(monkeypatch):
    calls = _CountingEigvals(monkeypatch)
    for cls in SIX_CLASSES:
        mathieu._sorted_eigs(0.9 + 1.4j, cls, 20)
    assert calls.dtypes == [np.dtype(complex)] * len(SIX_CLASSES)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: antiperiodic_characteristic_values(0.5, "bogus", 3),
    lambda: mathieu_function(1.0, 0.0, "bogus", np.array([0.0])),
], ids=["antiperiodic_characteristic_values", "mathieu_function"])
def test_unknown_parity_rejected(call):
    with pytest.raises(ValueError, match="parity must be 'even' or 'odd'"):
        call()


@pytest.mark.parametrize("count", [0, -3])
def test_nonpositive_count_rejected(count):
    with pytest.raises(ValueError, match="count must be positive"):
        characteristic_values(1.0, EVEN_PI, count)
    with pytest.raises(ValueError, match="count must be positive"):
        antiperiodic_characteristic_values(1.0, "even", count)


@pytest.mark.parametrize("solve", [
    lambda: characteristic_values(300.0, EVEN_PI, 2, trunc=10),
    lambda: antiperiodic_characteristic_values(300.0, "odd", 2, trunc=10),
], ids=["periodic", "antiperiodic"])
def test_convergence_failure_reports_drift(solve):
    with pytest.raises(ConvergenceFailure, match=r"moved by \d\.\d{3}e[+-]\d+ under"):
        solve()


# every value certifies at trunc = count + 8, where the largest |q| put the bounds
# between 1e-14 and 1e-10, well above roundoff
@pytest.mark.parametrize("cls, qs", [(cls, (-27.0, -6.5, 0.0, 0.7, 12.0, 25.0))
                                     for cls in SIX_CLASSES[:4]] +
                         [(cls, (-3.25, -1.5, 0.0, 0.6, 2.0, 3.0)) for cls in SIX_CLASSES[4:]],
                         ids=CLASS_IDS)
def test_real_q_bound_holds_against_a_longer_chain(cls, qs):
    count = 4
    for q in qs:
        for trunc in (count + 8, 40, 60):
            values, bounds = mathieu._ritz_certified(q, cls, count, trunc, "values")
            assert max(bounds) <= 1e-10
            # bisection to full precision on the 4*trunc chain
            diag, off = mathieu._chain(q, cls, 4 * trunc)
            ref = scipy.linalg.eigh_tridiagonal(diag.real, off.real, select="i",
                                                select_range=(0, count - 1), eigvals_only=True,
                                                tol=np.finfo(float).tiny)
            roundoff = 64 * np.finfo(float).eps * np.maximum(1.0, np.maximum(abs(q), np.abs(ref)))
            assert np.all(np.abs(values - ref) <= np.array(bounds) + roundoff), (q, trunc)


@pytest.mark.parametrize("t", [1.4687686, 1.46876861, 1.4687687, 16.471166])
def test_certificate_holds_at_a_near_double_point(t):
    # two even-pi values split by far less than |q| move apart under
    # truncation doubling by roundoff times |q|/split; their mean stays put
    values = characteristic_values(1j * t, EVEN_PI, 8)
    chain = mathieu._sorted_eigs(1j * t, EVEN_PI, 120)[:8]
    assert np.max(np.abs(values - chain)) <= 1e-8


@pytest.mark.parametrize("shift, passes", [((-1e-9, 1e-9), True), ((1e-9, 1e-9), False)])
def test_near_merged_pair_is_certified_by_its_mean(monkeypatch, shift, passes):
    # members 1e-6 apart at q = 1.5i may each move by 1e-9 when their
    # mean stays put, but not together
    def sorted_eigs(q, cls, size):
        low = np.array([2.0, 2.0 + 1e-6])
        return np.array([*(low + (shift if size > 20 else 0.0)), 16.0, 36.0], dtype=complex)

    monkeypatch.setattr(mathieu, "_sorted_eigs", sorted_eigs)
    if passes:
        assert characteristic_values(1.5j, EVEN_PI, 2, trunc=20)[0] == 2.0 - 1e-9
    else:
        with pytest.raises(ConvergenceFailure, match="moved by 1.000e-09"):
            characteristic_values(1.5j, EVEN_PI, 2, trunc=20)
