import gc
import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from euclidpt import algebra, chains, cli, spectral
from euclidpt.algebra import E2Element, build_hamiltonian
from euclidpt.dyson import ep_predictions_pt5, hermitize, pt5_three_param_hamiltonian
from euclidpt.errors import ConvergenceFailure, GaugeOverflow, TrackingAmbiguity
from euclidpt.mathieu import pt5_complex_hamiltonian
from euclidpt.spectral import (DRIFT_RTOL, SpectralProblem, SweepTemplate, WavefunctionSpec,
                               _real_form, bisect_transition, build_matrix, eigen_spectrum,
                               find_exceptional_points, hill_form,
                               intensity,
                               pt1_closed_spectrum, pt1_closed_wavefunction,
                               pt_eigenstate_check, pt_image,
                               select_pair, sweep, wavefunction)

from oracles import (fourier_modes, generator_matrices, stepwise_chain_eigenvalues,
                     stepwise_hill_spectrum)

EL = E2Element.from_terms


def constrained_pt1(mu1, mu3, mu4=0.0):
    return build_hamiltonian("PT1", hermitize(
        "PT1", lam=0.0, mu1=mu1, mu3=mu3, mu4=mu4).constrained_mu)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_build_matrix_j_squared():
    p = SpectralProblem(EL(J2=1), sector=0.0, truncation=6)
    m = build_matrix(p)
    n = np.arange(-6, 7)
    assert np.allclose(m, np.diag((n ** 2).astype(complex)))

    p1 = SpectralProblem(EL(J2=1), sector=1.0, truncation=6)
    m1 = build_matrix(p1)
    assert np.allclose(np.diag(m1), (n + 0.5) ** 2)


def test_build_matrix_cos2theta_coupling():
    # 2iq(v^2 - u^2) = 2iq cos(2 theta): couples |dn| = 2 with entry iq
    q = 0.7
    p = SpectralProblem(EL(v2=2j * q, u2=-2j * q), truncation=6)
    m = build_matrix(p)
    for i in range(13):
        for j in range(13):
            expected = 1j * q if abs(i - j) == 2 else 0.0
            assert m[i, j] == pytest.approx(expected, abs=1e-14)


def test_build_matrix_bandwidth():
    rng = np.random.default_rng(8)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    m = build_matrix(SpectralProblem(E2Element(c), truncation=10))
    for i in range(21):
        for j in range(21):
            if abs(i - j) > 2:
                assert m[i, j] == 0


def test_truncation_validation():
    with pytest.raises(ValueError):
        SpectralProblem(EL(J2=1), truncation=3)
    with pytest.raises(ValueError):
        SpectralProblem(EL(J2=1), sector=2.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        SpectralProblem(EL(J2=1, uJ=bad))
    with pytest.raises(ValueError):
        SpectralProblem(EL(J2=1), sector=bad)
    with pytest.raises(ValueError, match="finite"):
        SweepTemplate(mu=(1.0, 0.0, bad) + (0.0,) * 6)
    with pytest.raises(ValueError, match="finite"):
        SweepTemplate(sector=bad)


def test_track_levels_bound():
    assert SweepTemplate(truncation=8, track_levels=17).track_levels == 17
    for count in (0, 18, 500):
        with pytest.raises(ValueError, match=rf"track_levels {count} .*1\.\.17"):
            SweepTemplate(truncation=8, track_levels=count)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_closed_spectrum_values():
    assert pt1_closed_spectrum(1.0, 0.0, 2, "bosonic") == pytest.approx(4.0)
    assert pt1_closed_spectrum(1.0, 0.4, 0, "bosonic") == pytest.approx(-0.16)
    assert pt1_closed_spectrum(2.0, 1.0, 1, "fermionic") == pytest.approx(4.0)


def test_constrained_pt1_lowest_levels():
    spec = eigen_spectrum(SpectralProblem(constrained_pt1(1.0, 0.4), truncation=48))
    lows = spec.eigenvalues[:4].real
    assert lows == pytest.approx([-0.16, 0.84, 0.84, 3.84], abs=1e-9)


def test_closed_form_agreement_random():
    rng = np.random.default_rng(23)
    for _ in range(6):
        mu1 = rng.uniform(0.5, 2.0)
        mu3 = rng.uniform(-2.0, 2.0)
        mu4 = rng.uniform(-2.0, 2.0)
        element = constrained_pt1(mu1, mu3, mu4)
        for statistics, sector, count in (("bosonic", 0.0, 17), ("fermionic", 1.0, 16)):
            spec = eigen_spectrum(SpectralProblem(element, sector=sector, truncation=64))
            numeric = np.sort(spec.eigenvalues[:count].real)
            ns = range(-8, 9) if statistics == "bosonic" else range(-8, 8)
            closed = np.sort([pt1_closed_spectrum(mu1, mu3, n, statistics) for n in ns])
            assert np.max(np.abs(spec.eigenvalues[:count].imag)) < 1e-8
            assert np.max(np.abs(numeric - closed)) < 1e-8


def test_three_param_reality_and_breaking():
    real_spec = eigen_spectrum(SpectralProblem(pt5_three_param_hamiltonian(0.5, 0.7, 0.0)))
    assert not real_spec.broken()
    broken_spec = eigen_spectrum(SpectralProblem(pt5_three_param_hamiltonian(2.0, 1.0, 4.0)))
    w = broken_spec.eigenvalues[:12]
    assert np.any(w.imag > 1e-6)


def test_conjugate_pair_closure():
    # PT symmetry of the element survives truncation: eigenvalue multiset is
    # closed under conjugation
    for element in (pt5_three_param_hamiltonian(2.0, 1.0, 4.0),
                    build_hamiltonian("PT1", (1, 0.2, 0.5, 0.1, 0.3, 0.4, 0.2, 0, 0.1))):
        spec = eigen_spectrum(SpectralProblem(element, truncation=32))
        w = spec.eigenvalues
        # conjugate pairs share real parts only to roundoff, so sort with a
        # rounded-real key; near-defective pairs amplify backward error to
        # sqrt(eps*scale), hence the scale-aware tolerance
        def canon(z):
            return z[np.lexsort((z.imag, np.round(z.real, 6)))]
        tol = 1e-8 * max(1.0, float(np.max(np.abs(w))))
        assert np.max(np.abs(canon(w) - canon(np.conj(w)))) < tol


def test_truncation_convergence():
    for element in (pt5_three_param_hamiltonian(0.5, 1.3, 0.0),
                    pt5_three_param_hamiltonian(2.0, 1.0, 4.0)):
        w32 = eigen_spectrum(SpectralProblem(element, truncation=32)).eigenvalues[:10]
        w64 = eigen_spectrum(SpectralProblem(element, truncation=64)).eigenvalues[:10]
        # compare real parts and imaginary magnitudes separately: a [:10]
        # slice may split a conjugate pair, whose member order is not stable
        assert np.max(np.abs(np.sort(w32.real) - np.sort(w64.real))) < 1e-8
        assert np.max(np.abs(np.sort(np.abs(w32.imag)) - np.sort(np.abs(w64.imag)))) < 1e-8


def test_trusted_count():
    spec = eigen_spectrum(SpectralProblem(EL(J2=1), truncation=64))
    assert spec.trusted_count == 2 * 64 + 1 - 32
    assert len(spec.trusted(5)) == 5


# ---------------------------------------------------------------------------
# real form of PT5-invariant elements
# ---------------------------------------------------------------------------

RAW_PT5 = build_hamiltonian("PT5", (1.0, 0.3, 0.7, -0.4, 0.9, 1.1, -0.6, 0.25, 0.45))

# (element, sector) pairs away from an EP: the broken window of the
# three-parameter family (EPs at mu3 = 1 and 3), its unbroken side, the raw
# family with every coupling on at an anyonic sector, and the Mathieu family
PT5_CASES = {
    "three-broken-s0": (pt5_three_param_hamiltonian(2.0, 1.0, 4.0), 0.0),
    "three-broken-s1": (pt5_three_param_hamiltonian(2.0, 1.0, 4.0), 1.0),
    "three-real-s1": (pt5_three_param_hamiltonian(0.5, 1.0, 4.0), 1.0),
    "raw-s0.37": (RAW_PT5, 0.37),
    "mathieu": (pt5_complex_hamiltonian(1.0, 0.5), 0.0),
}


@pytest.fixture(params=sorted(PT5_CASES))
def pt5_problem(request):
    element, sector = PT5_CASES[request.param]
    return SpectralProblem(element, sector=sector)


def test_pt5_real_form_exists(pt5_problem):
    real = _real_form(build_matrix(pt5_problem))
    assert real is not None and real.dtype == np.float64


def test_pt5_levels_match_complex_solver(pt5_problem):
    trusted = eigen_spectrum(pt5_problem).trusted()
    reference = scipy.linalg.eigvals(build_matrix(pt5_problem))
    cost = np.abs(trusted[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert len(rows) == len(trusted)
    rel = cost[rows, cols] / np.maximum(1.0, np.abs(trusted[rows]))
    assert np.max(rel) < 1e-9


def test_pt5_conjugate_pairs_exact(pt5_problem):
    w = eigen_spectrum(pt5_problem).eigenvalues
    nonreal = w[w.imag != 0.0]
    assert np.array_equal(np.sort_complex(nonreal), np.sort_complex(nonreal.conj()))
    # each pair is adjacent in real-part order, +Im first
    for k in np.flatnonzero(w.imag > 0):
        assert w[k + 1] == w[k].conjugate()


@pytest.mark.parametrize("case", ["three-real-s1", "raw-s0.37"])
def test_pt5_real_levels_exactly_real(case):
    element, sector = PT5_CASES[case]
    spec = eigen_spectrum(SpectralProblem(element, sector=sector))
    assert np.all(spec.trusted().imag == 0.0)


def test_pt5_wavefunction_residual(pt5_problem):
    matrix = build_matrix(pt5_problem)
    spectrum = eigen_spectrum(pt5_problem)
    levels = spectrum.eigenvalues
    scale = np.linalg.norm(matrix, 2)
    for level in range(12):
        v = fourier_modes(wavefunction(spectrum, level), pt5_problem.truncation)
        v = v / np.linalg.norm(v)
        assert np.linalg.norm(matrix @ v - levels[level] * v) <= 1e-9 * scale


def test_non_pt5_element_takes_complex_path():
    element = build_hamiltonian("PT1", (1.0, 0.2, 0.5, 0.1, 0.3, 0.4, 0.2, 0.7, 0.1))
    problem = SpectralProblem(element, sector=0.37, truncation=32)
    matrix = build_matrix(problem)
    assert _real_form(matrix) is None
    w = scipy.linalg.eigvals(matrix)
    np.testing.assert_array_equal(eigen_spectrum(problem).eigenvalues,
                                  w[np.argsort(w.real, kind="stable")])
    w, vecs = scipy.linalg.eig(matrix)
    order = np.argsort(w.real, kind="stable")
    for level in (0, 5):
        expected = WavefunctionSpec(sector=0.37, coeffs=vecs[:, order[level]]).normalized()
        np.testing.assert_array_equal(wavefunction(eigen_spectrum(problem), level).coeffs,
                                      expected.coeffs)


@pytest.mark.parametrize("sector", [0.37, 1.0])
def test_build_matrix_matches_generator_products(sector):
    gens = generator_matrices(16, sector)
    expected = np.zeros((33, 33), dtype=complex)
    for coeff, word in zip(RAW_PT5.coeffs, algebra.ENVELOPE.words):
        acc = np.eye(33, dtype=complex)
        for g in word:
            acc = acc @ gens[g]
        expected += coeff * acc
    m = build_matrix(SpectralProblem(RAW_PT5, sector=sector, truncation=16))
    assert np.max(np.abs(m - expected) / np.maximum(1.0, np.abs(expected))) <= 1e-13


def _generator_product_matrix(element, truncation, sector):
    gens = generator_matrices(truncation, sector)
    dim = 2 * truncation + 1
    expected = np.zeros((dim, dim), dtype=complex)
    for coeff, word in zip(element.coeffs, algebra.ENVELOPE.words):
        acc = np.eye(dim, dtype=complex)
        for g in word:
            acc = acc @ gens[g]
        expected += coeff * acc
    return expected


BAND_ELEMENTS = {label: E2Element(np.eye(10, dtype=complex)[i])
                 for i, label in enumerate(algebra.BASIS_LABELS)}
BAND_ELEMENTS["random"] = E2Element(np.random.default_rng(11).standard_normal(20).view(complex))


@pytest.mark.parametrize("label", sorted(BAND_ELEMENTS))
def test_build_matrix_bands_match_generator_products(label):
    # every entry, corners included, of each monomial alone and of a random element
    for truncation in (4, 64):
        for sector in (0.0, 0.37, 1.0, 1.9):
            expected = _generator_product_matrix(BAND_ELEMENTS[label], truncation, sector)
            m = build_matrix(SpectralProblem(BAND_ELEMENTS[label], sector=sector,
                                             truncation=truncation))
            assert np.max(np.abs(m - expected) / np.maximum(1.0, np.abs(expected))) <= 1e-13


@pytest.mark.parametrize("seed", range(4))
def test_pt5_invariant_elements_keep_an_exact_real_form(seed):
    mu = tuple(np.random.default_rng(seed).standard_normal(9))
    for sector in (0.0, 0.37):
        for truncation in (4, 64):
            problem = SpectralProblem(build_hamiltonian("PT5", mu), sector=sector,
                                      truncation=truncation)
            assert _real_form(build_matrix(problem)) is not None


def test_rejected_pt5_elements_keep_the_real_form_path():
    for element, sector in (PT5_CASES["raw-s0.37"], PT5_CASES["mathieu"]):
        problem = SpectralProblem(element, sector=sector, truncation=32)
        w = scipy.linalg.eigvals(_real_form(build_matrix(problem)))
        np.testing.assert_array_equal(eigen_spectrum(problem).eigenvalues,
                                      w[np.argsort(w.real, kind="stable")])


# ---------------------------------------------------------------------------
# Hill form: two tridiagonal chains
# ---------------------------------------------------------------------------

def test_hill_form_rejects_non_hill_elements():
    assert hill_form(EL(J=1, u2=1)) is None                     # no J^2 term
    assert hill_form(RAW_PT5) is None
    assert hill_form(pt5_complex_hamiltonian(1.0, 0.5)) is None  # keeps (i mu4/2) cos


@pytest.mark.parametrize("mu3,mu4,mu7", [(0.5, -1.3, 0.0), (2.0, 1.0, 4.0), (1.0, 3.0, 11.0)])
def test_hill_form_of_three_param_family(mu3, mu4, mu7):
    hill = hill_form(pt5_three_param_hamiltonian(mu3, mu4, mu7))
    expected = EL(J2=1, u2=mu7 - mu4 ** 2, v2=mu3 ** 2, uv=-2j * mu3 * mu4)
    np.testing.assert_allclose(hill.coeffs, expected.coeffs, rtol=0, atol=1e-14)


def _dense_certificate(problem, count=12):
    """Largest relative distance of the lowest `count` levels from a dense solve."""
    levels = eigen_spectrum(problem).eigenvalues[:count]
    dense = scipy.linalg.eigvals(build_matrix(problem))
    dense = dense[np.argsort(dense.real)][:count + 4]
    cost = np.abs(levels[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols] / np.maximum(1.0, np.abs(dense[cols]))))


@pytest.mark.parametrize("sector", [0.0, 0.37, 1.0])
def test_chains_match_dense_for_a_completed_square(sector):
    # c (J + a u + b v + d)^2 + V with complex a, b and second harmonics in V;
    # dyadic values keep the first-harmonic cancellation exact
    c, a, b, d = 2.0, 0.25, 0.5j, 0.125
    element = EL(J2=c, uJ=2 * c * a, vJ=2 * c * b, J=2 * c * d,
                 u=c * (1j * b + 2 * a * d), v=c * (-1j * a + 2 * b * d),
                 one=0.1, u2=0.7, v2=-0.3, uv=0.4 + 0.2j)
    assert hill_form(element) is not None
    assert _dense_certificate(SpectralProblem(element, sector=sector)) <= 1e-8


def _random_hill_element(rng, kind):
    """c(J + a u + b v + d)^2 + V whose Hill form has u2, v2, uv coefficients (A, B, G) of
    `kind`: "symmetric" (real A != B, G = 0: off-diagonals equal), "mixed-sign" (real A, B,
    G = i t, |t| > |B - A|: real off-diagonals of opposite signs), "imaginary" (A = -B
    imaginary, G = 0: imaginary off-diagonals, negative products), "decoupled" (A = B,
    G = 0, a = b: zero off-diagonals) or "complex" (every coefficient complex).  Each term
    that `completed_square` takes off is added in its own arithmetic, so the first harmonics
    cancel and (A, B, G) come back exactly where the kind needs it."""
    c, d, a, b, A, B, t = rng.uniform(0.5, 2.0), *rng.standard_normal(6).tolist()
    G = 0.0
    if kind == "mixed-sign":
        G = 1j * (abs(B - A) + 0.5 + abs(t))
    elif kind == "imaginary":
        A, B = -1j * abs(t), 1j * abs(t)
    elif kind == "decoupled":
        a, B = b, A
    elif kind == "complex":
        c, a, A, B, G = (complex(x, y) for x, y in rng.standard_normal((5, 2)).tolist())
    c = 0j + c
    cuj, cvj, cj = 2 * c * a, 2 * c * b, 2 * c * d
    a, b, d = cuj / (2 * c), cvj / (2 * c), cj / (2 * c)   # as `completed_square` reads them
    return E2Element([rng.standard_normal(), c * (1j * b + 2 * a * d),
                      c * (-1j * a + 2 * b * d), cj, A + c * a * a, B + c * b * b,
                      G + 2 * c * a * b, cuj, cvj, c])


HILL_KINDS = ("symmetric", "mixed-sign", "imaginary", "decoupled", "complex")


@pytest.mark.parametrize("kind", HILL_KINDS)
def test_hill_path_matches_the_stepwise_oracle_bit_for_bit(kind):
    rng = np.random.default_rng(HILL_KINDS.index(kind))
    for _ in range(3):
        element = _random_hill_element(rng, kind)
        assert hill_form(element) is not None
        for sector in (0.0, 0.37, 1.0):
            for truncation in (4, 16, 64):
                problem = SpectralProblem(element, sector=sector, truncation=truncation)
                spectrum = eigen_spectrum(problem)
                levels, chains = stepwise_hill_spectrum(problem)
                assert spectrum.eigenvalues.tobytes() == levels.tobytes()
                assert len(spectrum.blocks) == len(chains) == 2
                for (matrix, bands, _), expected in zip(spectrum.blocks, chains):
                    assert matrix is None   # a chain block is its bands
                    for band, want in zip(bands, expected):
                        assert band.dtype == want.dtype and band.tobytes() == want.tobytes()


@pytest.mark.parametrize("truncation", [4, 16, 64])
def test_stacked_levels_match_eigen_spectrum_bit_for_bit(truncation):
    # one stack of every chain kind in sectors 0, 0.37 and 1: real and complex chains,
    # dstevd, the dense real and complex solvers and the sqrt rewrite, row by row
    rng = np.random.default_rng(truncation)
    cases = [(_random_hill_element(rng, kind), sector)
             for kind in HILL_KINDS for _ in range(3) for sector in (0.0, 0.37, 1.0)]
    squares = [algebra.completed_square(e.coeffs.tolist()) for e, _ in cases]
    sectors = [sector for _, sector in cases]
    work = SweepTemplate(truncation=truncation, track_levels=2 * truncation + 1)
    stacked = spectral._stacked_levels(work, squares, sectors)
    assert stacked.shape == (len(cases), 2 * truncation + 1)
    for (element, sector), levels in zip(cases, stacked):
        problem = SpectralProblem(element, sector=sector, truncation=truncation)
        assert levels.tobytes() == eigen_spectrum(problem).eigenvalues.tobytes()
        assert levels.tobytes() == stepwise_hill_spectrum(problem)[0].tobytes()
    for i in (0, 13, len(cases) - 1):   # a stack of one
        assert spectral._stacked_levels(work, squares[i:i + 1], sectors[i:i + 1]).tobytes() \
            == stacked[i:i + 1].tobytes()
    few = replace(work, track_levels=3)
    assert spectral._stacked_levels(few, squares, sectors).tobytes() == \
        np.ascontiguousarray(stacked[:, :3]).tobytes()


@pytest.mark.parametrize("kind", ["symmetric", "skew", "decoupled", "underflow"])
def test_complex_bands_without_imaginary_part_solve_as_real_ones(kind):
    # a stack of complex chains with +-0 imaginary parts against each real chain alone
    rng = np.random.default_rng(len(kind))
    diag = rng.standard_normal((6, 9))
    upper, lower = rng.standard_normal((2, 6, 8))
    if kind == "symmetric":
        lower = upper * rng.uniform(0.5, 2.0, (6, 8))
    elif kind == "decoupled":
        upper[:, ::3] = 0.0
        lower[:, 1::2] = -0.0
    elif kind == "underflow":
        upper, lower = np.abs(upper) * 1e-170, np.abs(lower) * 1e-170
    signs = rng.choice([0.0, -0.0], (3, 6, 9))
    stacked = chains.tridiagonal_eigenvalues(diag + 1j * signs[0], upper + 1j * signs[1, :, :8],
                                             lower + 1j * signs[2, :, :8])
    for row, bands in zip(stacked, zip(diag, upper, lower)):
        assert row.tobytes() == chains.tridiagonal_eigenvalues(*bands).tobytes()
        assert row.tobytes() == stepwise_chain_eigenvalues(*bands).tobytes()


GRIDS = {   # (template, axis, values): two stacks of STACK points and a last one of one
    "bands-s": (SweepTemplate(mu=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0), track_levels=6),
                "s", np.linspace(0.0, 1.99, 2 * 64 + 3)),   # two probes at 64 and at 16
    "window": (SweepTemplate(family="pt5-three", mu=(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 4.0, 0.0, 0.0),
                             truncation=16), "mu3", np.linspace(-4.0, 4.0, 2 * 64 + 1)),
    "broken-s": (SweepTemplate(family="pt5-three",
                               mu=(1.0, 0.0, 2.0, 1.0, 0.0, 0.0, 4.0, 0.0, 0.0),
                               truncation=8, track_levels=9), "s", np.linspace(0.0, 1.9, 129)),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_stacked_grid_matches_the_point_by_point_solve_bit_for_bit(grid, monkeypatch):
    template, axis, values = GRIDS[grid]
    stacks = []
    stacked_levels = spectral._stacked_levels
    monkeypatch.setattr(spectral, "_stacked_levels",
                        lambda work, squares, sectors: stacks.append(len(squares))
                        or stacked_levels(work, squares, sectors))
    n, drift, stacked, _ = spectral._solve_grid(template, axis, values, None,
                                                spectral._level_drift)
    assert stacks == [spectral.STACK, spectral.STACK, 1]
    assert sorted(stacked) == values.tolist() and 0 <= drift <= DRIFT_RTOL
    work = replace(template, truncation=n)
    for x, levels in stacked.items():
        expected = eigen_spectrum(work.problem_at(axis, x)).eigenvalues[:template.track_levels]
        assert levels.tobytes() == expected.tobytes(), f"{axis}={x}"


def _chunk_log(fails=()):
    """(log, stack) for `_in_stacks`: the stack of a chunk of more than one item that holds an
    item of `fails` raises ConvergenceFailure, and every call goes to the log."""
    log = []

    def stack(chunk):
        log.append(("stack", list(chunk)))
        if len(chunk) > 1 and set(chunk) & set(fails):
            raise ConvergenceFailure("a failing stack")
        return [("stacked", x) for x in chunk]

    return log, stack


def test_in_stacks_stacks_each_chunk_when_the_caller_reaches_it():
    log, stack = _chunk_log()
    items = list(range(2 * spectral.STACK + 3))
    for x, got in zip(items, spectral._in_stacks(stack, items, spectral.STACK)):
        assert got == ("stacked", x)
        log.append(("took", x))
    chunks = [chunk for kind, chunk in log if kind == "stack"]
    assert [len(chunk) for chunk in chunks] == [spectral.STACK, spectral.STACK, 3]
    assert sum(chunks, []) == items
    for chunk in chunks:   # stacked only after the caller took every item before it
        taken = [x for kind, x in log[:log.index(("stack", chunk))] if kind == "took"]
        assert taken == items[:chunk[0]]


@pytest.mark.parametrize("error", [ConvergenceFailure, ValueError, FloatingPointError])
def test_in_stacks_solves_a_failing_chunk_one_by_one_lazily(error):
    log, stack = _chunk_log(fails=[4])

    def raising(chunk):
        try:
            return stack(chunk)
        except ConvergenceFailure:
            raise error("a failing stack") from None

    for x, got in zip(range(10), spectral._in_stacks(raising, range(10), 3)):
        log.append(("took", x))
        assert got == ("stacked", x)
    assert log == [("stack", [0, 1, 2]), ("took", 0), ("took", 1), ("took", 2),
                   ("stack", [3, 4, 5]), ("stack", [3]), ("took", 3), ("stack", [4]),
                   ("took", 4), ("stack", [5]), ("took", 5), ("stack", [6, 7, 8]), ("took", 6),
                   ("took", 7), ("took", 8), ("stack", [9]), ("took", 9)]


def test_in_stacks_raises_the_first_failing_item_after_those_before_it():
    def stack(chunk):   # a stack of several raises the error of its last failing item
        if failing := [x for x in chunk if x >= 4]:
            raise ValueError(f"item {failing[-1]}")
        return [("stacked", x) for x in chunk]

    taken = []
    with pytest.raises(ValueError, match="^item 4$"):
        for x in spectral._in_stacks(stack, list(range(10)), 3):
            taken.append(x)
    assert taken == [("stacked", 0), ("stacked", 1), ("stacked", 2), ("stacked", 3)]
    # an error a stack does not stand for passes through
    with pytest.raises(KeyError):
        next(spectral._in_stacks(lambda chunk: {}[0], [0], 3))


def test_stacked_grid_refuses_a_sector_where_a_point_would():
    # -1e-300 % 2 rounds to 2.0: the point-by-point solve refuses that sector, after the points
    # before it; a grid with such a sector is not stacked, whatever it measures
    template = SweepTemplate(mu=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0), truncation=8,
                             track_levels=2)
    values = [0.5, 1.0, -1e-300, 1.5]
    refusal = r"^sector must lie in \[0, 2\), got 2.0$"
    for measure in (None, spectral._tracked_levels(template)):
        with pytest.raises(ValueError, match=refusal):
            spectral._solve_grid(template, "s", values, measure, spectral._level_drift)
    with pytest.raises(ValueError, match=refusal):
        spectral.intensity_sweep(template, "s", values, 3.0, np.linspace(0.0, 6.0, 7))


def _mu(**couplings):
    mu = [1.0] + [0.0] * 8
    for name, value in couplings.items():
        mu[int(name[2]) - 1] = value
    return tuple(mu)


# the README spectrum and ep recipes: template, axis, lo, hi, steps
README_SWEEPS = {
    "real-s0": (SweepTemplate(family="pt5-three", mu=_mu(mu3=0.5)), "mu4", -3, 3, 200),
    "real-s1": (SweepTemplate(family="pt5-three", mu=_mu(mu3=0.5), sector=1.0),
                "mu4", -3, 3, 200),
    "window": (SweepTemplate(family="pt5-three", mu=_mu(mu4=1, mu7=4)), "mu3", -4, 4, 161),
    "bands": (SweepTemplate(mu=_mu(mu7=0.5)), "s", 0, 1.95, 40),
    "ep-mu3": (SweepTemplate(family="pt5-three", mu=_mu(mu4=1, mu7=4)), "mu3", -4, 4, 41),
    "ep-mu7": (SweepTemplate(family="pt5-three", mu=_mu(mu3=1, mu4=3)), "mu7", 0, 20, 41),
}


@pytest.mark.parametrize("recipe", sorted(README_SWEEPS))
def test_chains_certified_on_readme_recipes(recipe):
    template, axis, lo, hi, steps = README_SWEEPS[recipe]
    samples = np.linspace(lo, hi, steps)[::4]
    checked = 0
    for x in samples:
        problem = template.problem_at(axis, x)
        hill = hill_form(problem.element)
        assert hill is not None
        # R^2/4 is the product of the chains' off-diagonals; where it
        # vanishes the dense solve itself is only good to about sqrt(eps)
        r2 = ((hill.term("v2") - hill.term("u2")) / 2) ** 2 + (hill.term("uv") / 2) ** 2
        if abs(r2) < 1e-2:
            continue
        assert _dense_certificate(problem) <= 1e-8, f"{axis}={x}"
        checked += 1
    assert checked >= 0.75 * len(samples)


# ---------------------------------------------------------------------------
# sweeps and exceptional points
# ---------------------------------------------------------------------------

def fig2_template(track=12):
    return SweepTemplate(family="pt5-three",
                         mu=(1.0, 0.0, 2.0, 1.0, 0.0, 0.0, 4.0, 0.0, 0.0),
                         truncation=40, track_levels=track)


@pytest.fixture(scope="module")
def fig2_eps():
    result = sweep(fig2_template(), "mu3", 0.2, 3.8, 19)
    return find_exceptional_points(result, tol=1e-6)


def test_sweep_tracking_continuity():
    result = sweep(fig2_template(), "mu3", 0.0, 0.9, 10)
    jumps = np.abs(np.diff(result.curves, axis=1))
    assert np.max(jumps) < 0.5
    assert result.curves.shape == (12, 10)


def test_sweep_leaves_no_reference_cycle():
    # the level cache is freed when `sweep` returns, not at the next full collection,
    # which a run that allocates few container objects may reach only much later
    template = SweepTemplate(family="pt5-three", mu=(1, 0, 0.5, 0, 0, 0, 0, 0, 0),
                             truncation=16, track_levels=4)
    gc.collect()
    gc.disable()
    try:
        sweep(template, "mu4", -1.0, 1.0, 9)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sweep_band_structure_sector():
    template = SweepTemplate(family="raw", symmetry="PT5",
                             mu=(1.0, 0, 0, 0, 0, 0, 0.5, 0, 0),
                             truncation=32, track_levels=6)
    result = sweep(template, "s", 0.0, 1.9, 12)
    assert np.max(np.abs(result.curves.imag)) < 1e-8  # Hermitian family: raw real bands
    assert result.curves.shape == (6, 12)


def test_fermionic_sweep_bound_skips_degenerate_spacings():
    # in sector 1 the two Hill chains give each level twice, about 1e-13
    # apart; a jump bound from those spacings would fail every step
    template, axis, lo, hi, _ = README_SWEEPS["real-s1"]
    result = sweep(template, axis, lo, hi, 21)
    start = result.curves[:, 0].real
    assert np.max(np.abs(start[1::2] - start[::2])) < 1e-9
    assert result.refined_points == 0
    work = replace(template, truncation=result.truncation)
    for k, x in enumerate(result.values):
        levels = eigen_spectrum(work.problem_at(axis, x)).eigenvalues[:12]
        np.testing.assert_array_equal(np.sort(result.curves[:, k].real), levels.real)
        exact = eigen_spectrum(template.problem_at(axis, x)).eigenvalues[:12]
        assert _drift(result.curves[:, k], exact) <= DRIFT_RTOL


def _drift(levels, exact):
    """Largest |E - E_exact|/max(1, |E_exact|), the levels paired with the exact ones by _match."""
    paired, _ = spectral._match(exact, levels)
    return float(np.max(np.abs(paired - exact) / np.maximum(1.0, np.abs(exact))))


def _assert_solved_at(result, truncation):
    """Each point's curves are, bit for bit, the tracked levels of one solve at `truncation`."""
    work = replace(result.template, truncation=truncation)
    for k, x in enumerate(result.values):
        levels = eigen_spectrum(work.problem_at(result.axis, x)).eigenvalues
        np.testing.assert_array_equal(np.sort_complex(result.curves[:, k]),
                                      np.sort_complex(levels[:work.track_levels]))


@pytest.mark.parametrize("recipe", sorted(README_SWEEPS))
def test_readme_sweeps_solve_at_a_certified_truncation(recipe):
    template, axis, lo, hi, steps = README_SWEEPS[recipe]
    result = sweep(template, axis, lo, hi, steps)
    assert (result.template, result.truncation) == (template, 16)
    assert 0 <= result.drift <= DRIFT_RTOL
    _assert_solved_at(result, 16)
    for k, x in enumerate(result.values):   # every grid point, not only the probes
        exact = eigen_spectrum(template.problem_at(axis, x)).eigenvalues[:template.track_levels]
        assert _drift(result.curves[:, k], exact) <= DRIFT_RTOL, f"{axis}={x}"


def _parent_sweep(monkeypatch, *args):
    """The sweep as it ran before the working truncation: every solve at N, none cached."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_solve_grid", lambda t, *args: (t.truncation, 0.0, {}, ()))
        return sweep(*args)


UNCERTIFIED_SWEEPS = {
    # probes off by more than DRIFT_RTOL at 16 and at 32
    "large-coupling": (SweepTemplate(family="pt5-three", mu=_mu(mu3=0.5, mu7=1000.0)),
                       "mu4", -3, 3, 11),
    # first harmonics: no hill_form
    "raw-no-hill-form": (SweepTemplate(mu=_mu(mu3=0.3, mu7=0.5), track_levels=6),
                         "mu4", 0, 1.5, 13),
    "truncation-16": (SweepTemplate(family="pt5-three", mu=_mu(mu4=1, mu7=4), truncation=16),
                      "mu3", -4, 4, 21),
}


@pytest.mark.parametrize("case", UNCERTIFIED_SWEEPS)
def test_uncertified_sweeps_run_at_the_requested_truncation(case, monkeypatch):
    args = UNCERTIFIED_SWEEPS[case]
    result = sweep(*args)
    assert (result.truncation, result.drift) == (args[0].truncation, 0.0)
    parent = _parent_sweep(monkeypatch, *args)
    np.testing.assert_array_equal(result.curves, parent.curves)
    assert result.refined_points == parent.refined_points
    _assert_solved_at(result, args[0].truncation)


def test_the_largest_coupling_decides_the_truncation():
    # |q^2| peaks at mu4 = 0: both ends are certified at 16, the peak only at 32
    template = SweepTemplate(family="pt5-three", mu=_mu(mu3=0.5, mu7=100.0), track_levels=7)
    result = sweep(template, "mu4", -10, 10, 9)
    assert result.truncation == 32 and result.drift <= DRIFT_RTOL
    _assert_solved_at(result, 32)
    at_16 = replace(template, truncation=16)
    for k, x in enumerate(result.values):
        exact = eigen_spectrum(template.problem_at("mu4", x)).eigenvalues[:7]
        assert _drift(result.curves[:, k], exact) <= DRIFT_RTOL
        if k in (0, 4, 8):
            cut = eigen_spectrum(at_16.problem_at("mu4", x)).eigenvalues[:7]
            assert (_drift(cut, exact) <= DRIFT_RTOL) == (k != 4), f"mu4={x}"


def test_workers_change_no_output(capsys):
    # --workers is parsed, checked and echoed by `ep`, and has no effect

    def stdout(argv, workers):
        assert cli.main([*argv, "--workers", workers]) == 0
        return capsys.readouterr().out

    window = ["spectrum", "--family", "pt5-three", "--mu4", "1", "--mu7", "4",
              "--sweep", "mu3:-4:4:161"]
    assert stdout(window, "1") == stdout(window, "2") == stdout(window, "7")
    ep = ["ep", "--family", "pt5-three", "--mu4", "1", "--mu7", "4", "--sweep", "mu3:-4:4:41"]
    one = stdout(ep, "1")
    assert '"workers": 1' in one
    for workers in ("2", "7"):
        assert stdout(ep, workers).replace(f'"workers": {workers}', '"workers": 1') == one


def test_sweep_solves_its_stacks_in_turn_on_the_calling_thread(monkeypatch):
    # the window grid leaves 159 points after its probes: stacks of 64, 64 and 31
    template, axis, lo, hi, steps = README_SWEEPS["window"]
    stacks = []
    stacked_levels = spectral._stacked_levels
    monkeypatch.setattr(spectral, "_stacked_levels", lambda work, squares, sectors: stacks.append(
        (len(squares), threading.current_thread() is threading.main_thread()))
        or stacked_levels(work, squares, sectors))
    sweep(template, axis, lo, hi, steps)
    assert stacks == [(64, True), (64, True), (31, True)]


@pytest.mark.parametrize("recipe", sorted(README_SWEEPS))
def test_sweeps_solve_one_by_one_only_probes_refinements_and_certificates(recipe, monkeypatch):
    solved, built, crossings = [], [], []
    for name, log, arg in (("eigen_spectrum", solved, lambda p: p.truncation),
                           ("build_matrix", built, lambda p: p.truncation)):
        monkeypatch.setattr(spectral, name, lambda p, f=getattr(spectral, name), log=log, arg=arg:
                            log.append(arg(p)) or f(p))
    bisect = spectral.bisect_transition
    monkeypatch.setattr(spectral, "bisect_transition",
                        lambda *args: crossings.append(args[1]) or bisect(*args))
    template, axis, lo, hi, steps = README_SWEEPS[recipe]
    result = sweep(template, axis, lo, hi, steps)
    probes = solved.count(template.truncation)   # the ends and the |q^2| peak, at N and at 16
    assert 2 <= probes <= 3 and result.truncation == 16
    assert solved == [64] * probes + [16] * (probes + result.refined_points)
    assert built == solved
    if recipe.startswith("ep-"):   # one stacked row on either side of each catalogue crossing
        rows = []
        stacked_levels = spectral._stacked_levels
        monkeypatch.setattr(spectral, "_stacked_levels", lambda work, squares, sectors: rows.extend(
            [work.truncation] * len(squares)) or stacked_levels(work, squares, sectors))
        before = len(solved)
        assert find_exceptional_points(result) and crossings
        assert rows == [16] * (2 * len(crossings)) and len(solved) == len(built) == before


def test_a_long_sweep_builds_one_stack_at_a_time(monkeypatch):
    # the band arrays a sweep holds at once are bounded by STACK points, whatever its length
    calls = []
    even_bands = spectral._even_bands
    monkeypatch.setattr(spectral, "_even_bands", lambda square, sector, truncation: calls.append(
        (np.shape(sector), truncation)) or even_bands(square, sector, truncation))
    template = SweepTemplate(family="pt5-three", mu=_mu(mu4=1, mu7=4), truncation=64)
    result = sweep(template, "mu3", -4, 4, 2001)
    probes = calls.count(((), 64))   # one `build_matrix` per probe at N, and again at 16
    stacks = [shape for shape, truncation in calls if shape]
    assert result.truncation == 16 and 2 <= probes <= 3
    assert calls.count(((), 16)) == probes + result.refined_points
    assert len(stacks) == math.ceil((2001 - probes) / spectral.STACK)
    assert all(rows <= spectral.STACK and column == 1 for rows, column in stacks)
    assert sum(rows for rows, _ in stacks) == 2001 - probes


def test_the_certificate_pairs_levels_by_assignment(monkeypatch):
    # a conjugate pair that two truncations return in either order is the same pair
    def levels(spectrum):
        pair = [1 + 1j, 1 - 1j] if spectrum.truncation == 64 else [1 - 1j, 1 + 1j]
        return np.array([0.5, *pair])

    template = SweepTemplate(family="pt5-three", mu=_mu(mu3=0.5), track_levels=3)
    n, drift, _, _ = spectral._solve_grid(template, "mu4", np.linspace(-1, 1, 5), levels,
                                          spectral._level_drift)
    assert (n, drift) == (16, 0.0)


@pytest.mark.parametrize("sector", [0.0, 1.0])
def test_real_family_sweep_levels_match_bisection(sector):
    # the README real-family grid: the 7 lowest levels of every solve against a
    # full-precision bisection of the symmetrized N = 64 chains
    template = SweepTemplate(family="pt5-three", mu=_mu(mu3=0.5), sector=sector, track_levels=7)
    result = sweep(template, "mu4", -3, 3, 200)
    for k, x in enumerate(result.values):
        exact = []
        for _, (diag, upper, lower), _ in eigen_spectrum(template.problem_at("mu4", x)).blocks:
            assert np.all(upper * lower >= 0)
            exact += list(scipy.linalg.eigh_tridiagonal(
                diag, np.sqrt(upper * lower), eigvals_only=True, select="i",
                select_range=(0, 6), tol=np.finfo(float).tiny))
        exact = np.sort(exact)[:7]
        assert np.max(result.curves[:, k].imag) == 0
        err = np.abs(np.sort(result.curves[:, k].real) - exact) / np.maximum(1.0, np.abs(exact))
        assert np.max(err) <= 5e-13, f"mu4={x}"


def test_tracking_ambiguity_after_max_halvings(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_HALVINGS", 0)
    template, axis, lo, hi, _ = README_SWEEPS["window"]
    with pytest.raises(TrackingAmbiguity, match=r"at mu3=0 after 0 refinements"):
        sweep(template, axis, lo, hi, 3)


def test_find_eps_mu3_sweep(fig2_eps):
    eps = fig2_eps
    found = sorted((round(p.parameter_value, 3), round(p.energy, 2)) for p in eps
                   if p.energy < 9)
    params = [p for p, _ in found]
    assert any(abs(p - 1.0) < 1e-3 for p in params)
    assert any(abs(p - 3.0) < 1e-3 for p in params)
    for target_p, target_e in ((1.0, 3.0), (3.0, 7.0)):
        assert any(abs(p - target_p) < 1e-3 and abs(e - target_e) < 1e-2
                   for p, e in found)
    for p in eps:
        assert p.bracket_width <= 1e-6


def test_find_eps_agrees_with_predictions(fig2_eps):
    predictions = [x for x in ep_predictions_pt5(0.0, 1.0, 4.0, "mu3") if x > 0]
    eps = fig2_eps
    for target in predictions:
        assert any(abs(p.parameter_value - target) < 1e-3 for p in eps)


def test_find_eps_hermitian_family_empty():
    template = SweepTemplate(family="raw", symmetry="PT1",
                             mu=(1.0, 0, 0.4, 0.2, -0.4, 0.8, -0.16 + 0.04, 0, -0.16),
                             truncation=32, track_levels=8)
    # constrained PT1 couplings (Hermitian family): mu5=-2mu4, mu6=2mu3, ...
    result = sweep(template, "mu3", 0.0, 1.0, 6)
    assert find_exceptional_points(result) == []


def test_level_pair_labels(fig2_eps):
    eps = fig2_eps
    low = [p for p in eps if abs(p.parameter_value - 1.0) < 1e-3 and abs(p.energy - 3) < 0.05]
    assert low and sorted(low[0].level_pair) == [1, 2]


def test_bisect_transition_stops_at_adjacent_floats():
    calls = []

    def changed(x):
        calls.append(x)
        assert len(calls) < 200, "bisection did not stop"
        return x > 1.0

    lo, hi = bisect_transition(changed, 0.0, 2.0, 1e-300)
    assert (lo, hi) == (1.0, np.nextafter(1.0, 2.0))
    assert bisect_transition(lambda x: x > 1.0, 0.0, 2.0, 0.3) == (1.0, 1.25)


def _births(*points):
    """pairs_at(x) of pairs c +- i(x - x0) born at each (x0, c), their +Im members sorted by
    real part, and the list of points it was asked about."""
    asked = []

    def pairs_at(x):
        asked.append(x)
        return sorted((c + 1j * (x - x0) for x0, c in points if x > x0), key=lambda z: z.real)
    return pairs_at, asked


def test_pair_changes_two_births_in_one_interval():
    # pairs are born at 0.3 (c = 5) and 0.8 (c = 1), either side of the interval's midpoint;
    # the second is born below the first in real part, so it is fresh only by nearness
    pairs_at, _ = _births((0.3, 5.0), (0.8, 1.0))
    found = list(chains.pair_changes(pairs_at, 0.25, 1.0, 1e-9))
    assert [([z.real for z in fresh], placed) for _, _, fresh, placed in found] == [
        ([5.0], None), ([1.0], None)]
    for (lo, hi, _, _), x0 in zip(found, (0.3, 0.8)):
        assert lo <= x0 < hi and hi - lo <= 1e-9


def test_pair_changes_on_a_descending_interval():
    pairs_at, _ = _births((0.3, 5.0), (0.8, 1.0))
    found = list(chains.pair_changes(pairs_at, 1.0, 0.25, 1e-9))
    assert [[z.real for z in fresh] for _, _, fresh, _ in found] == [[1.0], [5.0]]
    for (lo, hi, _, _), x0 in zip(found, (0.8, 0.3)):
        assert hi <= x0 < lo and lo - hi <= 1e-9


@pytest.mark.parametrize("lo, hi", [(0.25, 1.0), (1.0, 0.25)])
def test_pair_changes_halve_as_bisect_transition_does(lo, hi):
    # one change in an interval: the half without it is dropped, so the halving asks
    # for exactly the midpoints that bisect_transition does, and ends on its bracket
    pairs_at, asked = _births((0.3, 5.0))
    midpoints = []

    def changed(x):
        midpoints.append(x)
        return (x > 0.3) != (lo > 0.3)

    [(got_lo, got_hi, fresh, _)] = chains.pair_changes(pairs_at, lo, hi, 1e-9)
    assert (got_lo, got_hi) == bisect_transition(changed, lo, hi, 1e-9)
    assert set(asked) == {lo, hi, *midpoints} and [z.real for z in fresh] == [5.0]


def test_pair_changes_place_settles_a_wide_bracket():
    pairs_at, _ = _births((0.3, 5.0), (0.8, 1.0))
    tried = []

    def place(lo, hi, fresh):
        tried.append(len(fresh))
        return ("placed", lo, hi) if len(fresh) == 1 else None

    found = list(chains.pair_changes(pairs_at, 0.25, 1.0, 1e-9, place))
    assert [(lo, hi, placed) for lo, hi, _, placed in found] == [
        (0.25, 0.625, ("placed", 0.25, 0.625)), (0.625, 1.0, ("placed", 0.625, 1.0))]
    assert tried == [2, 1, 1]


def test_pair_changes_stop_at_adjacent_floats():
    pairs_at, asked = _births((1.0, 2.0))

    def budgeted(x):
        assert len(asked) < 400, "halving did not stop"
        return pairs_at(x)

    [(lo, hi, fresh, placed)] = chains.pair_changes(budgeted, 0.0, 2.0, 1e-300)
    assert (lo, hi) == (1.0, np.nextafter(1.0, 2.0))
    assert [z.real for z in fresh] == [2.0] and placed is None


@pytest.fixture(scope="module")
def small_window_sweep():
    template = SweepTemplate(family="pt5-three",
                             mu=(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 4.0, 0.0, 0.0),
                             truncation=8, track_levels=4)
    return sweep(template, "mu3", 0.0, 2.0, 5)


def test_find_eps_tolerance_below_float_spacing(small_window_sweep):
    # tol far below the float spacing near mu3 = 1 must still end, at a
    # one-ulp bracket; a daemon thread turns a regression into a failure
    found = []
    worker = threading.Thread(daemon=True, target=lambda: found.append(
        find_exceptional_points(small_window_sweep, tol=1e-20)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "bisection did not stop"
    eps = found[0]
    assert eps
    for p in eps:
        assert 0 < p.bracket_width <= 4 * np.spacing(p.parameter_value)
    near_one = [p for p in eps if abs(p.parameter_value - 1.0) < 1e-3]
    assert near_one and abs(near_one[0].energy - 3.0) < 1e-2


@pytest.mark.parametrize("tol, im_tol", [(0.0, 1e-6), (-1.0, 1e-6), (math.nan, 1e-6),
                                         (math.inf, 1e-6), (1e-6, -1.0), (1e-6, math.nan),
                                         (1e-6, math.inf)])
def test_find_eps_rejects_bad_tolerances(small_window_sweep, tol, im_tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        find_exceptional_points(small_window_sweep, tol=tol, im_tol=im_tol)


# ---------------------------------------------------------------------------
# wavefunctions
# ---------------------------------------------------------------------------

def test_wavefunction_normalized():
    problem = SpectralProblem(pt5_three_param_hamiltonian(0.5, 0.7, 0.0), truncation=48)
    w = wavefunction(eigen_spectrum(problem), 0)
    theta = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    norm = np.sum(intensity(w, theta)) * 2 * math.pi / len(theta)
    assert norm == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("gauge", [(0.0, 0.0), (0.7, -0.4), (1.5j, -4j), (2 - 1j, 0.5 + 3j),
                                   (0.0, 50j)])
def test_normalized_integrates_to_one_under_any_gauge(gauge):
    # a complex gauge makes |gauge| != 1, so the grid must also resolve |gauge|^2
    rng = np.random.default_rng(5)
    theta = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    for first, step, count in ((0, 1, 1), (-3, 2, 4), (-16, 1, 33)):
        coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
        w = WavefunctionSpec(coeffs, 0.37, first=first, step=step, gauge=gauge).normalized()
        norm = np.sum(intensity(w, theta)) * 2 * math.pi / len(theta)
        assert norm == pytest.approx(1.0, abs=1e-13), (first, step, count)


@pytest.mark.parametrize("sector", [0.0, 1.0, 0.37])
def test_wavefunction_values_do_not_depend_on_the_cached_table(sector, monkeypatch):
    # a table kept for a wider run of modes serves a narrower run of its lattice (the modes
    # first mod step) by its columns, with the same bits
    theta = np.linspace(0, 2 * math.pi, 360, endpoint=False)
    rng = np.random.default_rng(7)
    runs = [(-16, 1, 33), (-32, 1, 65), (-1, 1, 4), (-64, 1, 129),   # Fourier vectors
            (-16, 2, 17), (-31, 2, 32), (-64, 2, 65), (-63, 2, 64), (5, 2, 3), (61, 2, 5)]
    waves = [WavefunctionSpec(rng.normal(size=m) + 1j * rng.normal(size=m), sector,
                              first=first, step=step) for first, step, m in runs]
    monkeypatch.setattr(spectral, "_PLANE_WAVES", {})
    alone = [w.evaluate(theta) for w in waves]   # each widens its lattice's table as it goes
    for w, values in zip(waves, alone):   # now all from the widest tables
        m = len(w.coeffs)
        k = w.first + w.step * np.arange(m) + sector / 2.0
        np.testing.assert_array_equal(
            spectral._plane_waves(theta.tobytes(), sector, w.first, w.step, m),
            np.exp(1j * np.outer(theta, k)))
        np.testing.assert_array_equal(w.evaluate(theta), values)


def test_pt1_closed_intensity_constant():
    w = pt1_closed_wavefunction(1.0, 0.4, -0.3, n=2).normalized()
    theta = np.linspace(0, 2 * math.pi, 512, endpoint=False)
    vals = intensity(w, theta)
    assert np.ptp(vals) < 1e-12


def test_pt_eigenstate_check_n0():
    w = pt1_closed_wavefunction(1.0, 0.4, -0.3, n=0)
    assert pt_eigenstate_check(w, "PT1") == 1


def test_pt1_branch_swap():
    # the antilinear map sends the first branch to the second with factor
    # (-1)^n * (-2 i kappa): neither branch alone is an eigenstate for n != 0
    theta = np.linspace(0, 2 * math.pi, 360, endpoint=False)
    for n in (1, 2, 3):
        c1 = pt1_closed_wavefunction(1.0, 0.4, -0.3, n=n, c1=1.0, c2=0.0)
        c2 = pt1_closed_wavefunction(1.0, 0.4, -0.3, n=n, c1=0.0, c2=1.0)
        assert pt_eigenstate_check(c1, "PT1") == "broken"
        image = pt_image(c1, "PT1", theta)
        expected = (-1) ** n * (-2j * n) * c2.evaluate(theta)
        assert np.max(np.abs(image - expected)) < 1e-12


def test_pt1_adapted_combination_is_eigenstate():
    for n in (1, 2):
        kappa = float(n)
        combo = pt1_closed_wavefunction(1.0, 0.4, -0.3, n=n,
                                        c1=1.0, c2=(-1) ** (n + 1) * 2j * kappa)
        assert pt_eigenstate_check(combo, "PT1") == 1


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_pt1_closed_wavefunction_is_its_closed_form(statistics):
    theta = np.linspace(-7.0, 7.0, 101)
    mu1, mu3, mu4, c1, c2 = 1.3, 0.4, -0.3, 0.6 - 0.2j, 1.1 + 0.5j
    for n in (-2, 0, 3):
        kappa = abs(n) if statistics == "bosonic" else abs(n + 0.5)
        second = c2 if kappa else 0.0
        w = pt1_closed_wavefunction(mu1, mu3, mu4, n, statistics, c1=c1, c2=second)
        gauge = np.exp(-1j * (mu4 * np.cos(theta) + mu3 * np.sin(theta)) / mu1)
        waves = c1 * np.exp(-1j * kappa * theta)
        if kappa:
            waves = waves + 1j / (2 * kappa) * c2 * np.exp(1j * kappa * theta)
        assert np.max(np.abs(w.evaluate(theta) - gauge * waves)) <= 1e-13


@pytest.mark.parametrize("bad, match", [
    ({"statistics": "bogus"}, "statistics must be 'bosonic' or 'fermionic'"),
    ({"n": 0, "c2": 1.0}, "c2 must be 0"),
    ({"mu1": 0.0}, "mu1 must be nonzero"),
    ({"n": 1.5}, "n must be an integer"),
], ids=["statistics", "kappa-zero-c2", "mu1-zero", "n-fractional"])
def test_pt1_closed_wavefunction_rejects_bad_input(bad, match):
    args = {"mu1": 1.0, "mu3": 0.4, "mu4": -0.3, "n": 2, **bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            pt1_closed_wavefunction(**args)
        if "c2" not in bad:   # the levels reject the same input
            with pytest.raises(ValueError, match=match):
                pt1_closed_spectrum(args["mu1"], args["mu3"], args["n"],
                                    args.get("statistics", "bosonic"))


def test_broken_pair_are_pt_images():
    problem = SpectralProblem(pt5_three_param_hamiltonian(1.2, 1.0, 4.0), truncation=64)
    spec = eigen_spectrum(problem)
    idx = [i for i, z in enumerate(spec.eigenvalues[:12]) if abs(z.imag) > 1e-6][:2]
    assert len(idx) == 2
    wa, wb = wavefunction(spec, idx)
    assert pt_eigenstate_check(wa, "PT5") == "broken"
    theta = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    image = pt_image(wa, "PT5", theta)
    other = wb.evaluate(theta)
    # proportional with a unimodular factor
    ratio = image[np.argmax(np.abs(other))] / other[np.argmax(np.abs(other))]
    assert abs(abs(ratio) - 1.0) < 1e-6
    assert np.max(np.abs(image - ratio * other)) < 1e-5


def test_unbroken_numeric_state_is_pt_selfimage():
    problem = SpectralProblem(pt5_three_param_hamiltonian(0.8, 1.0, 4.0), truncation=64)
    w = wavefunction(eigen_spectrum(problem), 0)
    theta = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    image = pt_image(w, "PT5", theta)
    vals = w.evaluate(theta)
    ratio = image[np.argmax(np.abs(vals))] / vals[np.argmax(np.abs(vals))]
    assert abs(abs(ratio) - 1.0) < 1e-8   # PT image = unimodular multiple
    assert np.max(np.abs(image - ratio * vals)) < 1e-8


# ---------------------------------------------------------------------------
# wavefunctions from the Hill chains
# ---------------------------------------------------------------------------

def _chain_r2(hill):
    """R^2, four times the product of the chains' off-diagonals."""
    return ((hill.term("v2") - hill.term("u2")) / 2) ** 2 + (hill.term("uv") / 2) ** 2


def _assert_eigenvectors(matrix, energies, levels, waves):
    """||M psi - E psi|| <= 1e-9 ||M|| for each level, psi on the modes of M (`fourier_modes`).

    max |M_ij| stands in for ||M||_2, which it never exceeds, so the check is
    at least as strict and needs no SVD.
    """
    scale = np.max(np.abs(matrix))
    for level, wave in zip(levels, waves):
        v = fourier_modes(wave, len(matrix) // 2)
        v = v / np.linalg.norm(v)
        residual = np.linalg.norm(matrix @ v - energies[level] * v)
        assert residual <= 1e-9 * scale, f"level {level}: {residual:.2e}"


# the README intensity recipes: --sweep mu3:0:4:81, --mu3 0.8 and --mu3 1.2
README_INTENSITY_MU3 = list(np.linspace(0.0, 4.0, 81)) + [0.8, 1.2]


def test_chain_intensities_certified_on_readme_recipes():
    theta = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    checked = 0
    for mu3 in README_INTENSITY_MU3:
        problem = SpectralProblem(pt5_three_param_hamiltonian(mu3, 1.0, 4.0))
        hill = hill_form(problem.element)
        assert hill is not None
        spectrum = eigen_spectrum(problem)
        pair = select_pair(spectrum, 3.0)
        waves = wavefunction(spectrum, pair)
        matrix = build_matrix(problem)
        _assert_eigenvectors(matrix, spectrum.eigenvalues, pair, waves)
        # the R^2 = 0 pairs are defective: any vector of the pair is as good
        if abs(_chain_r2(hill)) < 1e-2:
            continue
        w, vecs = scipy.linalg.eig(matrix)
        for level, wave in zip(pair, waves):
            col = int(np.argmin(np.abs(w - spectrum.eigenvalues[level])))
            dense = WavefunctionSpec(sector=0.0, coeffs=vecs[:, col]).normalized()
            deviation = np.max(np.abs(intensity(wave, theta) - intensity(dense, theta)))
            assert deviation <= 1e-10, f"mu3={mu3}, level {level}: {deviation:.2e}"
        checked += 1
    assert checked >= len(README_INTENSITY_MU3) - 4


def _completed_square():
    # c (J + a u + b v + d)^2 + V with complex a, b, as in
    # test_chains_match_dense_for_a_completed_square
    c, a, b, d = 2.0, 0.25, 0.5j, 0.125
    return EL(J2=c, uJ=2 * c * a, vJ=2 * c * b, J=2 * c * d,
              u=c * (1j * b + 2 * a * d), v=c * (-1j * a + 2 * b * d),
              one=0.1, u2=0.7, v2=-0.3, uv=0.4 + 0.2j)


@pytest.mark.parametrize("case,sector", [
    ("unbroken", 0.37), ("unbroken", 1.0), ("broken", 0.37), ("broken", 1.0),
    ("completed-square", 0.0), ("completed-square", 0.37), ("completed-square", 1.0)])
def test_chain_wavefunction_residuals(case, sector):
    element = {"unbroken": pt5_three_param_hamiltonian(0.8, 1.0, 4.0),
               "broken": pt5_three_param_hamiltonian(1.2, 1.0, 4.0),
               "completed-square": _completed_square()}[case]
    assert hill_form(element) is not None
    problem = SpectralProblem(element, sector=sector)
    spectrum, levels = eigen_spectrum(problem), list(range(12))
    _assert_eigenvectors(build_matrix(problem), spectrum.eigenvalues, levels,
                         wavefunction(spectrum, levels))


@pytest.mark.parametrize("element", [pt5_three_param_hamiltonian(1.2, 1.0, 4.0), RAW_PT5],
                         ids=["hill", "dense"])
def test_wavefunction_sequence_matches_single_calls(element):
    spectrum = eigen_spectrum(SpectralProblem(element, sector=0.37, truncation=32))
    pair = wavefunction(spectrum, (3, 4))
    assert isinstance(pair, list) and len(pair) == 2
    for level, wave in zip((3, 4), pair):
        np.testing.assert_array_equal(wave.coeffs, wavefunction(spectrum, level).coeffs)


class _CountingEigensolves:
    """Counts the chain and dense eigensolves `wavefunction` could make."""

    def __init__(self, monkeypatch):
        self.counts = {"tridiagonal_eigenvalues": 0, "eigvals": 0, "eig": 0, "eigen_spectrum": 0}
        for module, name in ((spectral, "tridiagonal_eigenvalues"), (scipy.linalg, "eigvals"),
                             (scipy.linalg, "eig"), (spectral, "eigen_spectrum")):
            monkeypatch.setattr(module, name, self._counting(getattr(module, name), name))

    def _counting(self, solve, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return solve(*args, **kwargs)
        return counted


def test_unbroken_pair_makes_no_eigensolve(monkeypatch):
    # README --mu3 0.8: both chains are real with products > 0
    problem = SpectralProblem(pt5_three_param_hamiltonian(0.8, 1.0, 4.0))
    spectrum = eigen_spectrum(problem)
    pair = select_pair(spectrum, 3.0)
    solves = _CountingEigensolves(monkeypatch)
    waves = wavefunction(spectrum, pair)
    assert solves.counts == {"tridiagonal_eigenvalues": 0, "eigvals": 0, "eig": 0,
                             "eigen_spectrum": 0}
    _assert_eigenvectors(build_matrix(problem), spectrum.eigenvalues, pair, waves)


def test_broken_pair_makes_one_eig_per_block(monkeypatch):
    # README --mu3 1.2: the pair is complex, so its chain takes the dense path
    problem = SpectralProblem(pt5_three_param_hamiltonian(1.2, 1.0, 4.0))
    spectrum = eigen_spectrum(problem)
    pair = select_pair(spectrum, 3.0)
    assert spectrum.eigenvalues[pair[0]].imag != 0
    solves = _CountingEigensolves(monkeypatch)
    waves = wavefunction(spectrum, pair)
    assert solves.counts["tridiagonal_eigenvalues"] == solves.counts["eigvals"] == 0
    assert 1 <= solves.counts["eig"] <= len(set(spectrum.block_index[list(pair)]))
    _assert_eigenvectors(build_matrix(problem), spectrum.eigenvalues, pair, waves)


def test_real_levels_of_a_broken_chain_make_no_eig(monkeypatch):
    # README --mu3 1.2 in sector 1: the pair is two real levels, one per chain,
    # and every off-diagonal product of both chains is negative
    problem = SpectralProblem(pt5_three_param_hamiltonian(1.2, 1.0, 4.0), sector=1.0)
    spectrum = eigen_spectrum(problem)
    pair = select_pair(spectrum, 3.0)
    assert all(spectrum.eigenvalues[level].imag == 0 for level in pair)
    for _, (diag, upper, lower), _ in spectrum.blocks:
        assert np.all((upper * lower).real < 0)
    solves = _CountingEigensolves(monkeypatch)
    waves = wavefunction(spectrum, pair)
    assert solves.counts == {"tridiagonal_eigenvalues": 0, "eigvals": 0, "eig": 0,
                             "eigen_spectrum": 0}
    _assert_eigenvectors(build_matrix(problem), spectrum.eigenvalues, pair, waves)


def test_complex_level_of_a_real_chain_needs_eig():
    # README --mu3 1.2, sector 0: the pair is complex, on a real chain whose products are
    # all nonzero.  Inverse iteration at the real part of a level gives a vector that
    # fails the certificate, so `wavefunction` keeps it to exactly real levels.
    problem = SpectralProblem(pt5_three_param_hamiltonian(1.2, 1.0, 4.0))
    spectrum = eigen_spectrum(problem)
    level = select_pair(spectrum, 3.0)[0]
    energy = spectrum.eigenvalues[level]
    block = spectrum.block_index[level]
    _, bands, _ = spectrum.blocks[block]
    hill = build_matrix(SpectralProblem(spectral.hill_form(problem.element)))[block::2, block::2]
    chain = chains.tridiagonal_matrix(*bands)
    assert energy.imag != 0 and chain.dtype == float and np.all(bands[1] * bands[2] != 0)
    for band, j in zip(bands, (0, 1, -1)):   # a real chain's bands are real
        assert band.dtype == float
        np.testing.assert_array_equal(band, np.diagonal(hill, j))
    vec = chains.inverse_iteration(bands, energy.real)
    assert vec.dtype == float
    assert np.linalg.norm(chain @ vec - energy * vec) > 1e-9 * np.max(np.abs(chain))
    _assert_eigenvectors(build_matrix(problem), spectrum.eigenvalues, [level],
                         [wavefunction(spectrum, level)])


def test_sector_one_intensity_surface_eig_count(monkeypatch):
    # the README intensity points in sector 1: the broken window's pairs are real and
    # take inverse iteration; `eig` is left for the 12 points where the pair is complex
    # (mu3 in [1.95, 2.5], one chain) and the two where R^2 = 0 (mu3 = 1, 3; both chains)
    solves = _CountingEigensolves(monkeypatch)
    for mu3 in README_INTENSITY_MU3:
        problem = SpectralProblem(pt5_three_param_hamiltonian(mu3, 1.0, 4.0), sector=1.0)
        spectrum = eigen_spectrum(problem)
        pair = select_pair(spectrum, 3.0)
        _assert_eigenvectors(build_matrix(problem), spectrum.eigenvalues, pair,
                             wavefunction(spectrum, pair))
    assert solves.counts["eig"] == 16


# the README surface (--mu4 1 --mu7 4) and perfbench's seed-1 couplings
INTENSITY_SURFACES = {"readme": (1.0, 4.0), "seed-1": (1.0007092974820153, 4.108111287118224)}
THETA = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)


def _intensity_template(mu4, mu7, **kwargs):
    return SweepTemplate(family="pt5-three", mu=_mu(mu4=mu4, mu7=mu7), track_levels=2, **kwargs)


def _assert_pairs_match(cut, exact, tol, where):
    """The same pair of blocks, its levels within tol*max(1, |E|), both intensities within
    tol*max I."""
    assert cut.blocks == exact.blocks, where
    scale = max(np.max(exact.i_even), np.max(exact.i_odd))
    assert np.all(np.abs(cut.levels - exact.levels) <= tol * np.maximum(1, np.abs(exact.levels)))
    for a, b in ((cut.i_even, exact.i_even), (cut.i_odd, exact.i_odd)):
        assert np.max(np.abs(a - b)) <= tol * scale, f"{where}: {np.max(np.abs(a - b)):.2e}"


@pytest.mark.parametrize("sector", [0.0, 1.0])
@pytest.mark.parametrize("couplings", sorted(INTENSITY_SURFACES))
def test_intensity_surface_solves_at_32_within_1e_10_of_64(couplings, sector):
    template = _intensity_template(*INTENSITY_SURFACES[couplings], sector=sector)
    result = spectral.intensity_sweep(template, "mu3", np.linspace(0.0, 4.0, 81), 3.0, THETA)
    assert (result.truncation, len(result.points)) == (32, 81)
    assert result.drift <= DRIFT_RTOL
    for x, point in zip(result.values, result.points):
        exact = spectral.pair_intensities(template.problem_at("mu3", x), 3.0, THETA)
        _assert_pairs_match(point, exact, 1e-10, f"mu3={x}")


def test_intensities_at_16_lie_within_1e_9_of_64_on_the_readme_surface():
    # the chain series is evaluated pointwise, gauge and all, so N = 16 moves the mu3 = 4
    # intensities by the chain's own truncation error, 3.2e-10 of max I: above DRIFT_RTOL,
    # so the surface still solves at 32
    template = _intensity_template(*INTENSITY_SURFACES["readme"])
    at_16 = replace(template, truncation=16)
    for mu3 in (0.0, 4.0):
        exact = spectral.pair_intensities(template.problem_at("mu3", mu3), 3.0, THETA)
        cut = spectral.pair_intensities(at_16.problem_at("mu3", mu3), 3.0, THETA)
        _assert_pairs_match(cut, exact, 1e-9, f"mu3={mu3}")


# the README couplings in three sectors at three truncations: after the two probes N = 64
# solves at 32, so each grid leaves 129 points, on a step of 1/32 that hits mu3 = 1 and 3,
# where R^2 = 0 and both levels come from `eig`
STACKED_SURFACES = {(sector, n): (_intensity_template(1.0, 4.0, sector=sector, truncation=n),
                                  np.linspace(0.0, 4.0625, 131) if n == 64 else
                                  np.linspace(0.0, 4.0, 129))
                    for sector in (0.0, 1.0, 0.37) for n in (8, 16, 64)}


@pytest.mark.parametrize("sector, n", sorted(STACKED_SURFACES))
def test_stacked_intensity_grid_matches_pair_intensities_bit_for_bit(sector, n, monkeypatch):
    template, values = STACKED_SURFACES[sector, n]
    assert {1.0, 3.0} <= set(values.tolist())
    stacks, solved = [], []
    hill_stack = spectral._hill_stack
    monkeypatch.setattr(spectral, "_hill_stack", lambda work, squares, sectors: stacks.append(
        len(squares)) or hill_stack(work, squares, sectors))
    with monkeypatch.context() as m:   # no stack falls back to the point-by-point solve
        m.setattr(spectral, "eigen_spectrum", lambda p, solve=eigen_spectrum:
                  solved.append(p.truncation) or solve(p))
        result = spectral.intensity_sweep(template, "mu3", values, 3.0, THETA)
    assert stacks == [spectral.STACK, spectral.STACK, 1]
    assert result.truncation == min(n, 32)   # the README surface at N = 64 solves at 32
    assert solved == ([64, 64, 16, 16, 32, 32] if n == 64 else [])
    work = replace(template, truncation=result.truncation)
    for x, point in zip(values, result.points):
        problem = work.problem_at("mu3", x)
        expected = spectral.pair_intensities(problem, 3.0, THETA)
        assert (point.pair, point.blocks) == (expected.pair, expected.blocks), f"mu3={x}"
        for name in ("levels", "i_even", "i_odd"):
            assert getattr(point, name).tobytes() == getattr(expected, name).tobytes(), \
                f"mu3={x}: {name}"
        levels, _ = stepwise_hill_spectrum(problem)
        assert point.levels.tobytes() == levels[list(point.pair)].tobytes(), f"mu3={x}"


def test_intensity_surface_solves_one_by_one_only_its_probes(monkeypatch):
    solved, built = [], []
    for name, log in (("eigen_spectrum", solved), ("build_matrix", built)):
        monkeypatch.setattr(spectral, name, lambda p, f=getattr(spectral, name), log=log:
                            log.append(p.truncation) or f(p))
    result = spectral.intensity_sweep(_intensity_template(*INTENSITY_SURFACES["readme"]), "mu3",
                                      np.linspace(0.0, 4.0, 81), 3.0, THETA)
    probes = solved.count(64)   # the ends and the |q^2| peak, at N, 16 and 32; 32 is kept
    assert 2 <= probes <= 3 and result.truncation == 32
    assert solved == [64] * probes + [16] * probes + [32] * probes
    assert built == solved


def test_a_long_intensity_sweep_builds_one_stack_at_a_time(monkeypatch):
    # the band arrays an intensity sweep holds at once are bounded by STACK points
    calls = []
    even_bands = spectral._even_bands
    monkeypatch.setattr(spectral, "_even_bands", lambda square, sector, truncation: calls.append(
        (np.shape(sector), truncation)) or even_bands(square, sector, truncation))
    template = _intensity_template(*INTENSITY_SURFACES["readme"])
    result = spectral.intensity_sweep(template, "mu3", np.linspace(0.0, 4.0, 2001), 3.0,
                                      np.linspace(0.0, 6.0, 7))
    probes = calls.count(((), 64))   # on seven angles the probes' intensities certify 16
    stacks = [shape for shape, truncation in calls if shape]
    assert result.truncation == 16 and 2 <= probes <= 3
    assert len(stacks) == math.ceil((2001 - probes) / spectral.STACK)
    assert all(rows <= spectral.STACK and column == 1 for rows, column in stacks)
    assert sum(rows for rows, _ in stacks) == 2001 - probes


def _first_error(solve):
    with pytest.raises(Exception) as info:
        solve()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("later", ["overflow", "dstevd"])
def test_a_stack_raises_the_first_error_of_the_point_by_point_solve(later, monkeypatch):
    # mu3 = 800 puts a gauge of exp(800) on every wavefunction: the first point's vectors raise
    # GaugeOverflow, though the stack meets the last point's failure first, in its levels
    template = SweepTemplate(family="pt5-three", mu=_mu(mu3=800.0, mu4=1.0), truncation=8,
                             track_levels=2)
    values = [4.0, 5.0, 6.0]
    if later == "overflow":   # R^2 at mu7 = 1e307 overflows
        values[-1] = 1e307
    else:                     # dstevd fails on the odd-mode chain at mu7 = 6
        dstevd = scipy.linalg.lapack.dstevd
        chain = eigen_spectrum(template.problem_at("mu7", 6.0)).blocks[1][1][0].copy()
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", lambda d, e, compute_v=0: (
            (d, None, 3) if np.array_equal(d, chain) else dstevd(d, e, compute_v=compute_v)))
    one_by_one = [lambda x=x: spectral.pair_intensities(template.problem_at("mu7", x), 3.0, THETA)
                  for x in values]
    errors = [_first_error(solve) for solve in one_by_one]
    assert errors[0][0] is GaugeOverflow
    assert errors[-1][0] is (ValueError if later == "overflow" else ConvergenceFailure)
    grid = _first_error(lambda: spectral.intensity_sweep(template, "mu7", values, 3.0, THETA))
    assert grid == errors[0]


@pytest.mark.parametrize("args", [["--mu3", "0.8"], ["--mu3", "1.2"], ["--sweep", "mu3:1.2:2:1"]],
                         ids=["unbroken", "broken", "one-step-sweep"])
def test_single_intensity_point_is_one_solve_at_n(args, monkeypatch, capsys):
    from euclidpt import cli
    mu3 = 0.8 if "0.8" in args else 1.2
    problem = SpectralProblem(pt5_three_param_hamiltonian(mu3, 1.0, 4.0))
    spectrum = eigen_spectrum(problem)
    waves = wavefunction(spectrum, select_pair(spectrum, 3.0))
    i_even, i_odd = (intensity(wave, THETA) for wave in waves)
    rows = ["%.12e,%.12e,%.12e,%.12e,%.12e" % row for row in zip(
        [mu3] * len(THETA), THETA.tolist(), i_even.tolist(), i_odd.tolist(),
        (i_even + i_odd - i_even[0]).tolist())]
    solved = []
    monkeypatch.setattr(spectral, "eigen_spectrum",
                        lambda p, solve=eigen_spectrum: solved.append(p.truncation) or solve(p))
    assert cli.main(["intensity", *args, "--mu4", "1", "--mu7", "4"]) == 0
    assert capsys.readouterr().out == "\n".join(["mu3,theta,i_even,i_odd,i_sum_ref", *rows, ""])
    assert solved == [64]


@pytest.mark.parametrize("job", ["window", "real-s1", "intensity", "ep-mu3", "ep-mu7"])
def test_sweeps_build_each_grid_element_once(job, monkeypatch):
    built, bisecting, crossings = [], [], []
    element_at = SweepTemplate.element_at
    monkeypatch.setattr(SweepTemplate, "element_at",
                        lambda self, axis, x: built.append((x, bool(bisecting)))
                        or element_at(self, axis, x))

    def bisect(changed, lo, hi, tol, bisect=spectral.bisect_transition):
        crossings.append(lo)
        bisecting.append(True)
        try:
            return bisect(changed, lo, hi, tol)
        finally:
            bisecting.pop()

    monkeypatch.setattr(spectral, "bisect_transition", bisect)
    if job == "intensity":
        values = np.linspace(0.0, 4.0, 81)
        spectral.intensity_sweep(_intensity_template(1.0, 4.0), "mu3", values, 3.0, THETA)
        assert sorted(x for x, _ in built) == sorted(values)
        return
    template, axis, lo, hi, steps = README_SWEEPS[job]
    result = sweep(template, axis, lo, hi, steps)
    assert len(built) == len(set(built)) == steps + result.refined_points
    if job.startswith("ep-"):
        # the catalogue bisects on the sweep's forms and solves its certificate sides from the
        # squares that placed them: it builds no element
        assert find_exceptional_points(result) and len(crossings) == 4
        assert not any(inside for _, inside in built)
        assert len(built) == steps + result.refined_points


@pytest.mark.parametrize("mu3", [0.8, 2.05, 3.0])
def test_fermionic_pair_is_chosen_by_block_not_roundoff(mu3):
    # sector 1: the two chains give each level twice, in an order roundoff decides
    picked = {}
    for n in (32, 64):
        problem = SpectralProblem(pt5_three_param_hamiltonian(mu3, 1.0, 4.0), sector=1.0,
                                  truncation=n)
        picked[n] = spectral.pair_intensities(problem, 3.0, THETA)
    levels = picked[64].levels
    if levels[0].imag:   # the broken window: a conjugate pair of the first chain
        assert picked[64].blocks == (0, 0) and levels[1] == np.conj(levels[0])
    else:                # the twin levels of the two chains, the first chain's first
        assert picked[64].blocks == (0, 1)
    _assert_pairs_match(picked[32], picked[64], 1e-10, f"mu3={mu3}")


@pytest.mark.parametrize("element", [pt5_three_param_hamiltonian(1.2, 1.0, 4.0), RAW_PT5],
                         ids=["chains", "dense"])
def test_wavefunction_builds_each_matrix_once(element, monkeypatch):
    # the vectors come from the blocks the spectrum solved, not from a second build
    problem = SpectralProblem(element)
    builds = []
    monkeypatch.setattr(spectral, "build_matrix",
                        lambda p, _build=spectral.build_matrix: builds.append(p) or _build(p))
    spectrum = eigen_spectrum(problem)
    assert len(builds) == 1
    wavefunction(spectrum, (0, 1, 2))
    wavefunction(spectrum, (3, 4))
    assert len(builds) == 1


@pytest.mark.parametrize("element", [pt5_three_param_hamiltonian(0.8, 1.0, 4.0),
                                     pt5_three_param_hamiltonian(1.2, 1.0, 4.0),
                                     pt5_three_param_hamiltonian(3.0, 1.0, 4.0), RAW_PT5],
                         ids=["unbroken", "broken", "r2-zero", "dense"])
@pytest.mark.parametrize("sector", [0.0, 1.0])
def test_trusted_vectors_certified_against_their_spectrum(element, sector):
    problem = SpectralProblem(element, sector=sector)
    spectrum = eigen_spectrum(problem)
    levels = list(range(spectrum.trusted_count))
    _assert_eigenvectors(build_matrix(problem), spectrum.eigenvalues, levels,
                         wavefunction(spectrum, levels))


@pytest.mark.parametrize("sector, pair", [(1.0, (2, 3)), (0.0, (63, 64))],
                         ids=["two-chains", "one-chain"])
def test_degenerate_levels_give_independent_vectors(sector, pair):
    # sector 1: each level twice, once per chain; sector 0: modes +-n of one
    # chain split by far less than roundoff at levels near 1026
    problem = SpectralProblem(pt5_three_param_hamiltonian(0.8, 1.0, 4.0), sector=sector)
    spectrum = eigen_spectrum(problem)
    energies = spectrum.eigenvalues[list(pair)]
    assert abs(energies[0] - energies[1]) < 1e-9 * abs(energies[0])
    if sector == 0.0:
        assert len(set(spectrum.block_index[list(pair)])) == 1
    waves = wavefunction(spectrum, pair)
    _assert_eigenvectors(build_matrix(problem), spectrum.eigenvalues, pair, waves)
    a, b = (v / np.linalg.norm(v) for v in (fourier_modes(wave, 64) for wave in waves))
    assert abs(np.vdot(a, b)) < 0.5


@pytest.mark.parametrize("element, level", [(pt5_three_param_hamiltonian(0.8, 1.0, 4.0), 3),
                                            (pt5_three_param_hamiltonian(1.2, 1.0, 4.0), 0),
                                            (RAW_PT5, 3)],
                         ids=["inverse-iteration", "chain-eig", "dense-eig"])
def test_wrong_eigenvalue_fails_the_certificate(element, level):
    problem = SpectralProblem(element)
    spectrum = eigen_spectrum(problem)
    energies = spectrum.eigenvalues.copy()
    energies[level] += 0.5
    with pytest.raises(ConvergenceFailure, match=f"level {level} .* residual"):
        wavefunction(replace(spectrum, eigenvalues=energies), level)


def test_wavefunction_checks_levels_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve ran before the level was checked")

    monkeypatch.setattr(scipy.linalg, "eig", no_solve)
    for element in (pt5_three_param_hamiltonian(0.8, 1.0, 4.0), RAW_PT5):
        spectrum = eigen_spectrum(SpectralProblem(element, truncation=8))
        for level in (-1, 17, (0, 17), 1.5, True, (0, np.float64(2.0))):   # not integers too
            with pytest.raises(ValueError, match="outside 0..16"):
                wavefunction(spectrum, level)


def test_dstevd_failure_is_a_convergence_failure(monkeypatch):
    def failing(diag, off, compute_v=0):
        return np.zeros_like(diag), np.zeros((1, 1)), 3

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing)
    with pytest.raises(ConvergenceFailure, match=r"dstevd failed to converge \(info 3\)"):
        eigen_spectrum(SpectralProblem(pt5_three_param_hamiltonian(0.8, 1.0, 4.0)))


@pytest.mark.parametrize("mu", [(1e307,) + (0.0,) * 8,
                                (1, 0.3, 0.2, 0.1, 0.4, 0.5, 1e308, 1e308, 0)],
                         ids=["hill", "dense"])
def test_wavefunction_overflow_one_value_error(mu):
    problem = SpectralProblem(build_hamiltonian("PT5", mu))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (eigen_spectrum, lambda p: wavefunction(eigen_spectrum(p), (0, 1))):
            with pytest.raises(ValueError, match="at truncation 64 overflows floating point"):
                solve(problem)


@pytest.mark.parametrize("sector", [0.0, 0.37, 1.0])
def test_plane_wave_table_matches_direct_sum(sector):
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(129) + 1j * rng.standard_normal(129)
    wave = WavefunctionSpec(sector=sector, coeffs=coeffs)
    for theta in (np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False),
                  rng.uniform(-7.0, 7.0, 50)):
        k = np.arange(129) - 64 + sector / 2.0
        direct = np.exp(1j * np.outer(theta, k)) @ coeffs
        np.testing.assert_array_equal(wave.evaluate(theta), direct)
        np.testing.assert_array_equal(wave.evaluate(list(theta)), direct)   # cached


def test_inverse_iteration_on_a_complex_chain():
    rng = np.random.default_rng(7)
    diag, upper, lower = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                          for n in (12, 11, 11))
    chain = chains.tridiagonal_matrix(diag, upper, lower)
    for energy in scipy.linalg.eigvals(chain):
        vec = chains.inverse_iteration((diag, upper, lower), energy)
        assert vec.dtype == complex
        chains.certify(chain, vec, energy, "complex chain")


def test_inverse_iteration_at_a_level_of_a_decoupled_chain():
    # an exact zero pivot: the level 4 of the diagonal chain diag(0, 4, 16, 36)
    diag = np.array([0.0, 4.0, 16.0, 36.0])
    off = np.zeros(3)
    vec = chains.inverse_iteration((diag, off, off), 4.0)
    np.testing.assert_allclose(np.abs(vec), [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    chains.certify(np.diag(diag), vec, 4.0, "decoupled chain")
    with pytest.raises(ConvergenceFailure, match="decoupled chain: eigenvector residual"):
        chains.certify(np.diag(diag), vec, 16.0, "decoupled chain")
