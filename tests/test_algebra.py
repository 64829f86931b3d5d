import json

import numpy as np
import pytest

from euclidpt import algebra
from euclidpt.algebra import (E2Element, PT_SYMMETRIES, apply_pt, build_hamiltonian,
                              casimir, commutator, hermitian_conjugate, is_hermitian,
                              multiply)
from euclidpt.errors import DegreeOverflow

import oracles
from oracles import allclose

EL = E2Element.from_terms


def rand_element(rng, max_degree=2):
    c = rng.standard_normal(algebra.DIM) + 1j * rng.standard_normal(algebra.DIM)
    if max_degree < 2:
        for i, m in enumerate(algebra.MONOMIALS):
            if sum(m) > max_degree:
                c[i] = 0
    return E2Element(c)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_rewrite_examples():
    # J*u = uJ - i v
    assert allclose(multiply(EL(J=1), EL(u=1)), EL(uJ=1, v=-1j))
    # J*v = vJ + i u
    assert allclose(multiply(EL(J=1), EL(v=1)), EL(vJ=1, u=1j))
    # u and v commute
    assert allclose(multiply(EL(u=1), EL(v=1)), EL(uv=1))
    assert allclose(multiply(EL(v=1), EL(u=1)), EL(uv=1))


def test_product_u_plus_iJ_times_J():
    result = multiply(EL(u=1, J=1j), EL(J=1))
    assert allclose(result, EL(uJ=1, J2=1j))
    # cross-check in the 65x65 truncated Fourier representation
    n = 32
    lhs = oracles.element_matrix(EL(u=1, J=1j), n) @ oracles.element_matrix(EL(J=1), n)
    rhs = oracles.element_matrix(result, n)
    assert np.max(np.abs(oracles.interior(lhs - rhs, 2))) < 1e-12


def test_product_matrix_homomorphism_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        a = rand_element(rng, max_degree=1)
        b = rand_element(rng, max_degree=1)
        ab = multiply(a, b)
        n = 32
        lhs = oracles.element_matrix(a, n) @ oracles.element_matrix(b, n)
        rhs = oracles.element_matrix(ab, n)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(oracles.interior(lhs - rhs, 2))) < 1e-12 * scale


def test_product_bilinear():
    rng = np.random.default_rng(1)
    a, b, c = (rand_element(rng, 1) for _ in range(3))
    lhs = multiply(a + b, c)
    rhs = multiply(a, c) + multiply(b, c)
    assert allclose(lhs, rhs, 1e-12)


def test_commutators_match_structure_constants():
    # exhaustive on the degree <= 1 basis: [u,J] = iv, [v,J] = -iu, [u,v] = 0
    table = {("u", "J"): EL(v=1j), ("v", "J"): EL(u=-1j), ("u", "v"): E2Element.zero()}
    gens = {"u": EL(u=1), "v": EL(v=1), "J": EL(J=1), "1": EL(one=1)}
    for na, a in gens.items():
        for nb, b in gens.items():
            expected = table.get((na, nb), None)
            if expected is None and (nb, na) in table:
                expected = -1 * table[(nb, na)]
            if expected is None:
                expected = E2Element.zero()
            assert allclose(commutator(a, b), expected)


def test_commutator_leibniz_via_matrices():
    # [x, m1*m2] = [x, m1]*m2 + m1*[x, m2]; the left side leaves the degree-2
    # truncation, so the identity is checked in the Fourier representation
    rng = np.random.default_rng(7)
    n = 24
    mask = np.array([0, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    for _ in range(10):
        x, m1, m2 = (E2Element(rand_element(rng, 1).coeffs * mask) for _ in range(3))
        mx, a, b = (oracles.element_matrix(e, n) for e in (x, m1, m2))
        lhs = mx @ (a @ b) - (a @ b) @ mx
        rhs = (mx @ a - a @ mx) @ b + a @ (mx @ b - b @ mx)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(oracles.interior(lhs - rhs, 3))) < 1e-12 * scale


def test_degree_overflow():
    with pytest.raises(DegreeOverflow):
        multiply(EL(u2=1), EL(u=1))
    with pytest.raises(DegreeOverflow):
        multiply(EL(uJ=1), EL(J=1))


def test_degree():
    assert EL(one=3).degree() == 0
    assert EL(u=1).degree() == 1
    assert EL(u=1, J2=1e-30).degree() == 2


# ---------------------------------------------------------------------------
# hermitian conjugation
# ---------------------------------------------------------------------------

def test_conjugate_examples():
    assert allclose(hermitian_conjugate(EL(u=1j)), EL(u=-1j))
    assert allclose(hermitian_conjugate(EL(uJ=1)), EL(uJ=1, v=-1j))
    assert allclose(hermitian_conjugate(EL(vJ=1)), EL(vJ=1, u=1j))


def test_conjugate_involution_on_basis():
    for label in algebra.BASIS_LABELS:
        m = EL(**{label if label != "1" else "one": 1.0})
        assert allclose(hermitian_conjugate(hermitian_conjugate(m)), m)


def test_conjugate_involution_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rand_element(rng)
        assert allclose(hermitian_conjugate(hermitian_conjugate(a)), a, 1e-12)


def test_conjugate_antihomomorphism_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b = rand_element(rng, 1), rand_element(rng, 1)
        lhs = hermitian_conjugate(multiply(a, b))
        rhs = multiply(hermitian_conjugate(b), hermitian_conjugate(a))
        assert allclose(lhs, rhs, 1e-12)


def test_pt1_hermiticity_condition():
    # the PT1 family is Hermitian exactly when mu2 = 0, mu5 = -2 mu4, mu6 = 2 mu3
    rng = np.random.default_rng(11)
    m1, m3, m4, m7, m8, m9 = rng.standard_normal(6)
    mu = (m1, 0.0, m3, m4, -2 * m4, 2 * m3, m7, m8, m9)
    h = build_hamiltonian("PT1", mu)
    assert is_hermitian(h, 1e-12)
    # perturbing any of the tied couplings breaks it
    for idx in (1, 4, 5):
        bad = list(mu)
        bad[idx] += 0.3
        assert not is_hermitian(build_hamiltonian("PT1", bad), 1e-12)


def test_is_hermitian_examples():
    assert is_hermitian(EL(J2=1, uv=1))
    assert not is_hermitian(EL(J2=1, v=1j))


# ---------------------------------------------------------------------------
# antilinear symmetries
# ---------------------------------------------------------------------------

def test_apply_pt_examples():
    assert allclose(apply_pt("PT1", EL(v=1j * 0.7)), EL(v=1j * 0.7))
    assert allclose(apply_pt("PT5", EL(v=1)), EL(v=-1))
    assert allclose(apply_pt("PT5", EL(v=1j)), EL(v=1j))
    c = 0.3 + 0.4j
    assert allclose(apply_pt("PT3", c * EL(uJ=1)), np.conj(c) * EL(vJ=1))


def test_apply_pt_involution():
    rng = np.random.default_rng(5)
    for tag in PT_SYMMETRIES:
        for _ in range(5):
            a = rand_element(rng)
            assert allclose(apply_pt(tag, apply_pt(tag, a)), a, 1e-12)


def test_apply_pt_preserves_brackets():
    # antilinear consistency: [Phi a, Phi b] = Phi([a, b]) on all generator pairs
    gens = [EL(u=1), EL(v=1), EL(J=1)]
    for tag in PT_SYMMETRIES:
        for a in gens:
            for b in gens:
                lhs = commutator(apply_pt(tag, a), apply_pt(tag, b))
                rhs = apply_pt(tag, commutator(a, b))
                assert allclose(lhs, rhs, 1e-14), tag


def test_apply_pt_multiplicative():
    rng = np.random.default_rng(19)
    for tag in PT_SYMMETRIES:
        for _ in range(10):
            a, b = rand_element(rng, 1), rand_element(rng, 1)
            lhs = apply_pt(tag, multiply(a, b))
            rhs = multiply(apply_pt(tag, a), apply_pt(tag, b))
            assert allclose(lhs, rhs, 1e-12), tag


def test_build_hamiltonian_invariance():
    rng = np.random.default_rng(9)
    for tag in PT_SYMMETRIES:
        for _ in range(5):
            mu = rng.standard_normal(9)
            h = build_hamiltonian(tag, mu)
            assert allclose(apply_pt(tag, h), h, 1e-12), tag


@pytest.mark.parametrize("symmetry", ["PT1", "PT2", "PT3", "PT4", "PT5"])
def test_build_hamiltonian_is_the_from_terms_element_bit_for_bit(symmetry):
    rng = np.random.default_rng(sum(map(ord, symmetry)))
    draws = [rng.uniform(-3, 3, 9), -rng.uniform(0, 3, 9), np.zeros(9), -np.zeros(9),
             rng.integers(-2, 3, 9).astype(float)]
    for mu in draws:
        built = build_hamiltonian(symmetry, mu).coeffs
        expected = oracles.from_terms_hamiltonian(symmetry, mu).coeffs
        assert built.tobytes() == expected.tobytes()


def test_build_hamiltonian_examples():
    assert allclose(build_hamiltonian("PT1", (1, 0, 0, 1, 0, 0, 0, 0, 0)), EL(J2=1, v=1j))
    q = 0.8
    assert allclose(build_hamiltonian("PT5", (1, 0, 0, 0, 0, 0, 2 * q, 0, 0)), EL(J2=1, u2=2 * q))
    assert allclose(build_hamiltonian("PT3", (1, 0, 0, 0, 0, 0, 2 * q, 0, 0)),
                    EL(J2=1, v2=2j * q, u2=-2j * q))


def test_casimir_commutes():
    # [C, g] has degree 3 formally, so commutation is checked in the matrix
    # representation (interior rows; edges carry truncation artifacts)
    n = 24
    mc = oracles.element_matrix(casimir(), n)
    for g in (EL(u=1), EL(v=1), EL(J=1)):
        mg = oracles.element_matrix(g, n)
        assert np.max(np.abs(oracles.interior(mc @ mg - mg @ mc, 3))) < 1e-13


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_exact():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rand_element(rng)
        b = oracles.e2_from_json(a.to_json())
        assert np.array_equal(a.coeffs, b.coeffs)


def test_json_schema():
    data = json.loads(EL(J2=1, v=0.25j).to_json())
    assert data["basis"] == "u,v,J-normal"
    assert len(data["coeffs"]) == 10
    assert data["coeffs"][algebra.BASIS_LABELS.index("v")] == [0.0, 0.25]


def test_json_rejects_bad_basis():
    with pytest.raises(ValueError):
        E2Element.from_dict({"basis": "other", "coeffs": [[0, 0]] * 10})
