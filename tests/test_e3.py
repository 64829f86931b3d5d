import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from euclidpt.e3 import (DysonParamsE3, E3Element, GENERATORS, MONOMIALS, apply_pt_e3,
                         bracket, build_h_tilde_pt1, commutator, defining_matrices,
                         e3_adjoint, generator, hermitian_conjugate, hermiticity_residual,
                         is_hermitian, multiply, transform_h_tilde, _omega_functions)
from euclidpt.errors import DegreeOverflow

from oracles import adjoint_matrix, allclose


MATS = defining_matrices()


def oracle_table(params):
    """Adjoint coefficients from exp(X) G exp(-X) in the 4x4 representation."""
    x = (params.lambda_z * MATS["Jz"] + params.lambda_plus * MATS["Jp"]
         + params.lambda_minus * MATS["Jm"] + params.kappa_z * MATS["Pz"]
         + params.kappa_plus * MATS["Pp"] + params.kappa_minus * MATS["Pm"])
    left, right = expm(x), expm(-x)
    basis = np.stack([MATS[g].flatten() for g in GENERATORS], axis=1)
    table = {}
    for g in GENERATORS:
        img = (left @ MATS[g] @ right).flatten()
        coef, *_ = np.linalg.lstsq(basis, img, rcond=None)
        assert np.linalg.norm(basis @ coef - img) < 1e-10
        table[g] = dict(zip(GENERATORS, coef))
    return table


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def test_defining_rep_brackets_exhaustive():
    for a in GENERATORS:
        for b in GENERATORS:
            expected = sum((c * MATS[g] for g, c in bracket(a, b).items()),
                           np.zeros((4, 4), dtype=complex))
            got = MATS[a] @ MATS[b] - MATS[b] @ MATS[a]
            assert np.max(np.abs(got - expected)) < 1e-14, (a, b)


def test_element_brackets_exhaustive():
    for a in GENERATORS:
        for b in GENERATORS:
            lhs = commutator(generator(a), generator(b))
            rhs = E3Element.zero()
            for g, c in bracket(a, b).items():
                rhs = rhs + c * generator(g)
            assert allclose(lhs, rhs), (a, b)


def test_expected_nonvanishing_brackets():
    assert bracket("Jp", "Jm") == {"Jz": 1.0}
    assert bracket("Jm", "Jp") == {"Jz": -1.0}
    assert bracket("Jp", "Pm") == {"Pz": -2.0}
    assert bracket("Pp", "Pm") == {}
    assert bracket("Jz", "Pz") == {}


@pytest.mark.parametrize("label", ["Jp*Pz", "Jz*Pz", "Qz"])
def test_reversed_or_unknown_label_raises(label):
    with pytest.raises(ValueError, match=label.replace("*", r"\*")):
        E3Element.from_terms({label: 1.0})
    with pytest.raises(ValueError, match=label.replace("*", r"\*")):
        generator("Jz").term(label)


def test_product_of_reversed_generators_keeps_bracket():
    product = generator("Jp") * generator("Pz")
    assert allclose(product, E3Element.from_terms({"Pz*Jp": 1.0, "Pp": -1.0}))
    assert product.term("Pz*Jp") == 1.0 and product.term("Pp") == -1.0


def test_degree_overflow():
    with pytest.raises(DegreeOverflow):
        multiply(multiply(generator("Jp"), generator("Jm")), generator("Jz"))


def test_translation_casimir_commutes():
    # Pz^2 - P+P- commutes with every generator (checked where degrees allow
    # via the matrix representation)
    cas = (multiply(generator("Pz"), generator("Pz"))
           - multiply(generator("Pp"), generator("Pm")))
    # in the 4x4 rep products of translations vanish, so use the adjoint table
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = DysonParamsE3(*rng.uniform(-0.8, 0.8, 6))
        assert allclose(transform_h_tilde(p, cas), cas, 1e-10)


# ---------------------------------------------------------------------------
# hermitian conjugation
# ---------------------------------------------------------------------------

def test_conjugation_convention():
    assert allclose(hermitian_conjugate(generator("Jp")), generator("Jm"))
    assert allclose(hermitian_conjugate(generator("Pp")), -1 * generator("Pm"))
    assert allclose(hermitian_conjugate(generator("Pz")), generator("Pz"))


def test_conjugation_involution():
    rng = np.random.default_rng(5)
    for _ in range(8):
        c = rng.standard_normal(len(MONOMIALS)) + 1j * rng.standard_normal(len(MONOMIALS))
        a = E3Element(c)
        assert allclose(hermitian_conjugate(hermitian_conjugate(a)), a, 1e-12)


def test_conjugation_antihomomorphism():
    rng = np.random.default_rng(6)
    for _ in range(6):
        ca = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        cb = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = sum((ca[i] * generator(g) for i, g in enumerate(GENERATORS)),
                E3Element.zero())
        b = sum((cb[i] * generator(g) for i, g in enumerate(GENERATORS)),
                E3Element.zero())
        lhs = hermitian_conjugate(multiply(a, b))
        rhs = multiply(hermitian_conjugate(b), hermitian_conjugate(a))
        assert allclose(lhs, rhs, 1e-12)


# ---------------------------------------------------------------------------
# antilinear symmetries
# ---------------------------------------------------------------------------

def test_pt_actions_preserve_brackets():
    # [Phi a, Phi b] = Phi([a, b]) for every symmetry and generator pair
    for tag in E3Element.pt_images:
        for a in GENERATORS:
            for b in GENERATORS:
                lhs = commutator(apply_pt_e3(tag, generator(a)),
                                 apply_pt_e3(tag, generator(b)))
                rhs = apply_pt_e3(tag, commutator(generator(a), generator(b)))
                assert allclose(lhs, rhs, 1e-14), (tag, a, b)


def test_pt_actions_involutive():
    rng = np.random.default_rng(9)
    for tag in E3Element.pt_images:
        c = rng.standard_normal(len(MONOMIALS)) + 1j * rng.standard_normal(len(MONOMIALS))
        a = E3Element(c)
        assert allclose(apply_pt_e3(tag, apply_pt_e3(tag, a)), a, 1e-12), tag


def test_pt_actions_multiplicative():
    rng = np.random.default_rng(10)

    def degree_one():
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        return sum((c[i] * generator(g) for i, g in enumerate(GENERATORS)),
                   E3Element.zero())

    for tag in E3Element.pt_images:
        for _ in range(6):
            a, b = degree_one(), degree_one()
            lhs = apply_pt_e3(tag, multiply(a, b))
            rhs = multiply(apply_pt_e3(tag, a), apply_pt_e3(tag, b))
            assert allclose(lhs, rhs, 1e-12), tag


def test_pt2_generator_images():
    assert allclose(apply_pt_e3("PT2", generator("Jz")), -1 * generator("Jz"))
    assert allclose(apply_pt_e3("PT2", generator("Jp")), -1 * generator("Jm"))
    assert allclose(apply_pt_e3("PT2", generator("Pp")), -1 * generator("Pm"))
    assert allclose(apply_pt_e3("PT2", generator("Pz")), generator("Pz"))


def test_unknown_symmetry_tag_is_one_value_error():
    with pytest.raises(ValueError,
                       match=r"^unknown symmetry tag 'PT5'; E3 has PT1, PT2, PT3, PT4$"):
        apply_pt_e3("PT5", generator("Jz"))


def test_pt3_translations_map_within_plus_minus_span():
    img_p = apply_pt_e3("PT3", generator("Pp"))
    img_m = apply_pt_e3("PT3", generator("Pm"))
    assert allclose(img_p, -1j * generator("Pp"))
    assert allclose(img_m, 1j * generator("Pm"))


def test_h_tilde_pt1_invariant_subfamily():
    # generic couplings are NOT PT1-invariant: the map swaps J+^2 with J-^2
    generic = build_h_tilde_pt1((1.0, 0.3, 0.5, 0.2, 0.7, 0.4, 0.1, 0.9, 0.6))
    assert not allclose(apply_pt_e3("PT1", generic), generic, 1e-10)
    # the symmetric subfamily (paired couplings, no J+J- term) is invariant
    m = dict(m1=0.8, m3=0.5, m4=0.7, m7=0.3, m9=0.4)
    sym = build_h_tilde_pt1((m["m1"], m["m1"], m["m3"], m["m4"], m["m4"],
                             0.0, m["m7"], m["m7"], m["m9"]))
    assert allclose(apply_pt_e3("PT1", sym), sym, 1e-12)


# ---------------------------------------------------------------------------
# adjoint action
# ---------------------------------------------------------------------------

def test_adjoint_identity_at_zero():
    table = e3_adjoint(DysonParamsE3())
    for g in GENERATORS:
        for h, coeff in table.columns[g].items():
            assert coeff == pytest.approx(1.0 if h == g else 0.0, abs=1e-14)


def test_adjoint_pure_lambda_z_exponentials():
    lz = 0.37
    table = e3_adjoint(DysonParamsE3(lambda_z=lz))
    assert table.columns["Pp"]["Pp"] == pytest.approx(math.exp(2 * lz), rel=1e-12)
    assert table.columns["Pm"]["Pm"] == pytest.approx(math.exp(-2 * lz), rel=1e-12)
    assert table.columns["Jp"]["Jp"] == pytest.approx(math.exp(2 * lz), rel=1e-12)
    assert table.columns["Jm"]["Jm"] == pytest.approx(math.exp(-2 * lz), rel=1e-12)
    assert table.columns["Jz"]["Jz"] == pytest.approx(1.0, rel=1e-12)


def test_adjoint_vs_matrix_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = DysonParamsE3(*rng.uniform(-0.8, 0.8, 6))
        table = e3_adjoint(p)
        oracle = oracle_table(p)
        for g in GENERATORS:
            for h in GENERATORS:
                got = table.columns[g].get(h, 0.0)
                want = oracle[g][h]
                assert abs(got - want) < 1e-9, (g, h, p)


def test_adjoint_negative_omega_squared():
    # lambda_z^2 + lambda_+ lambda_- < 0: omega imaginary, coefficients real
    p = DysonParamsE3(lambda_z=0.1, lambda_plus=0.8, lambda_minus=-0.9,
                      kappa_z=0.3, kappa_plus=-0.2, kappa_minus=0.5)
    assert p.lambda_z ** 2 + p.lambda_plus * p.lambda_minus < 0
    table = e3_adjoint(p)
    oracle = oracle_table(p)
    for g in GENERATORS:
        for h in GENERATORS:
            got = table.columns[g].get(h, 0.0)
            assert abs(complex(got).imag) < 1e-12
            assert abs(got - oracle[g][h]) < 1e-9


def test_omega_function_series_continuity():
    # series and direct formulas agree where both are accurate (just above
    # the cutoff), for positive and negative omega^2
    from euclidpt.e3 import _OMEGA_CUTOFF

    def direct(w2):
        w = complex(w2) ** 0.5
        cosh2w = np.cosh(2 * w)
        c = (cosh2w - 1.0) / (2.0 * w2)
        s = np.sinh(2 * w) / (2.0 * w)
        return (c.real, s.real, ((c - s) / w2).real, ((cosh2w - s) / w2).real)

    def series(w2):
        assert abs(w2) < _OMEGA_CUTOFF ** 2
        return _omega_functions(w2)

    for sign in (1.0, -1.0):
        w2 = sign * (_OMEGA_CUTOFF * 0.999) ** 2
        for a, b in zip(series(w2), direct(w2)):
            assert abs(a - b) < 1e-10
        # continuity across the branch switch
        lo = _omega_functions(sign * (_OMEGA_CUTOFF * 0.999) ** 2)
        hi = _omega_functions(sign * (_OMEGA_CUTOFF * 1.001) ** 2)
        for a, b in zip(lo, hi):
            assert abs(a - b) < 1e-5 * max(1.0, abs(a))


def test_group_law_single_parameter():
    for field in ("lambda_z", "lambda_plus", "lambda_minus",
                  "kappa_z", "kappa_plus", "kappa_minus"):
        p1 = DysonParamsE3(**{field: 0.4})
        p2 = DysonParamsE3(**{field: 0.8})
        m1 = adjoint_matrix(e3_adjoint(p1))
        m2 = adjoint_matrix(e3_adjoint(p2))
        assert np.max(np.abs(m1 @ m1 - m2)) < 1e-10, field


# ---------------------------------------------------------------------------
# transforms of bilinears
# ---------------------------------------------------------------------------

def test_transform_identity():
    h = build_h_tilde_pt1((0.5, -0.2, 0.9, 0.1, 0.3, 0.7, 0.2, -0.4, 0.6))
    assert allclose(transform_h_tilde(DysonParamsE3(), h), h, 1e-14)


def test_transform_degree_one_matches_oracle():
    rng = np.random.default_rng(15)
    for _ in range(10):
        p = DysonParamsE3(*rng.uniform(-0.7, 0.7, 6))
        element = 1j * 0.8 * generator("Pz")
        image = transform_h_tilde(p, element)
        oracle = oracle_table(p)["Pz"]
        expected = sum((1j * 0.8 * c * generator(g) for g, c in oracle.items()),
                       E3Element.zero())
        assert allclose(image, expected, 1e-9)


def rep(element):
    """The element in the 4x4 defining representation, word by word."""
    out = np.zeros((4, 4), dtype=complex)
    for c, word in zip(element.coeffs, MONOMIALS):
        term = np.eye(4, dtype=complex)
        for g in word:
            term = term @ MATS[GENERATORS[g]]
        out += c * term
    return out


def test_transform_degree_two_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        params = rng.uniform(-0.7, 0.7, 6)
        p = DysonParamsE3(*params)
        element = E3Element(rng.normal(size=len(MONOMIALS)) + 1j * rng.normal(size=len(MONOMIALS)))
        x = sum(c * MATS[g] for c, g in zip(params, ("Jz", "Jp", "Jm", "Pz", "Pp", "Pm")))
        expected = expm(x) @ rep(element) @ expm(-x)
        got = rep(transform_h_tilde(p, element))
        assert np.max(np.abs(got - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_transform_inverse_composition():
    rng = np.random.default_rng(16)
    h = build_h_tilde_pt1(tuple(rng.uniform(-1, 1, 9)))
    p = DysonParamsE3(0.3, -0.2, 0.4, 0.1, 0.5, -0.3)
    pinv = DysonParamsE3(-0.3, 0.2, -0.4, -0.1, -0.5, 0.3)
    back = transform_h_tilde(pinv, transform_h_tilde(p, h))
    assert allclose(back, h, 1e-10)


def test_transform_hermiticity_report():
    h = build_h_tilde_pt1((1.0, 1.0, 0.5, 0.7, 0.7, 0.0, 0.3, 0.3, 0.4))
    assert not is_hermitian(h, 1e-12)  # the i-linear terms are anti-Hermitian
    p = DysonParamsE3(lambda_z=0.4)
    res = hermiticity_residual(transform_h_tilde(p, h))
    assert res > 1e-6  # a pure Jz exponent does not hermitize this family


# sha256 of the bytes of transform_h_tilde(params, H) on one fixed bilinear H, per params
TRANSFORM_DIGESTS = [
    (DysonParamsE3(), "489bea36718e0ff551e4249150d758b1194a7da03ccb9bae5d32aae115ad25d6"),
    (DysonParamsE3(0.2, 0.1, -0.3, 0.4, 0.0, 0.5),
     "36dee2ad7dfae1171652507ac43eba69f6d4bfe354b1dfb8fec4859bacbf97dd"),
    (DysonParamsE3(0.01, 0.02, 0.03, -0.4, 0.3, 0.2),     # the series branch of c, s, A, B
     "b84a47065af713ee9b64043b491135380577d6502cb9b8de3303538de790a641"),
    (DysonParamsE3(1.5, -0.7, 0.9, 2.0, -1.0, 0.6),
     "9a50ad9f7d00d1af84557a28895244003caa5e5e41322bbd57ec523e8730a8eb"),
]


@pytest.mark.parametrize("params, digest", TRANSFORM_DIGESTS,
                         ids=["zero", "readme", "series", "large"])
def test_transform_gives_the_same_bytes(params, digest):
    h = build_h_tilde_pt1([0.7, -0.3, 1.1, 0.4, -0.9, 0.25, 0.6, -0.8, 1.3])
    assert hashlib.sha256(transform_h_tilde(params, h).coeffs.tobytes()).hexdigest() == digest


def test_build_h_tilde_structure():
    h = build_h_tilde_pt1((1, 2, 3, 4, 5, 6, 7, 8, 9))
    assert h.term("Jp*Jp") == 1
    assert h.term("Jm*Jm") == 2
    assert h.term("Pz*Pz") == 3
    assert h.term("Pz*Jp") == 4
    assert h.term("Jp*Jm") == 6
    assert h.term("Jp") == 7j
    assert h.term("Pz") == 9j


def test_table_json_dump():
    p = DysonParamsE3(0.2, 0.1, -0.3, 0.4, 0.0, 0.5)
    data = json.loads(e3_adjoint(p).to_json())
    assert set(data["columns"]) == set(GENERATORS)
    assert data["params"]["lambda_z"] == 0.2
    assert "omega_sq" in data["scalars"]


@pytest.mark.parametrize("params", [{"lambda_z": 400.0},
                                    {"lambda_plus": 1e200, "lambda_minus": 1e200},
                                    {"lambda_z": 1e10, "kappa_z": 1e300}])
def test_adjoint_table_overflow_raises(params):
    p = DysonParamsE3(**params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the E3 adjoint table overflows floating point at "):
            e3_adjoint(p)
        with pytest.raises(ValueError, match="^the E3 adjoint table overflows floating point at "):
            transform_h_tilde(p, generator("Jz"))
