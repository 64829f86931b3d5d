import numpy as np
import pytest

from euclidpt import algebra, e3
from euclidpt.errors import DegreeOverflow

ALGEBRAS = {"E2": (algebra.ENVELOPE, algebra.E2Element),
            "E3": (e3.ENVELOPE, e3.E3Element)}


def basis(envelope, k):
    out = np.zeros(envelope.dim, dtype=complex)
    out[k] = 1.0
    return out


@pytest.mark.parametrize("name", ALGEBRAS)
def test_multiply_equals_straighten_on_every_basis_pair(name):
    env, _ = ALGEBRAS[name]
    checked = 0
    for i, wi in enumerate(env.words):
        for j, wj in enumerate(env.words):
            if len(wi) + len(wj) > 2:
                with pytest.raises(DegreeOverflow):
                    env.multiply(basis(env, i), basis(env, j))
                continue
            got = env.multiply(basis(env, i), basis(env, j))
            assert np.array_equal(got, env.straighten(wi + wj)), (wi, wj)
            checked += 1
    ngen = env.length.count(1)
    assert checked == 1 + 2 * (env.dim - 1) + ngen * ngen


def loop_product(env, ca, cb):
    """The product as a loop over both supports, each pair straightened."""
    out = np.zeros(env.dim, dtype=complex)
    for i in np.flatnonzero(ca):
        for j in np.flatnonzero(cb):
            out += ca[i] * cb[j] * env.straighten(env.words[i] + env.words[j])
    return out


@pytest.mark.parametrize("name", ALGEBRAS)
def test_multiply_matches_the_loop_over_supports(name):
    env, _ = ALGEBRAS[name]
    rng = np.random.default_rng(6)
    for _ in range(20):
        ca, cb = (np.zeros(env.dim, dtype=complex) for _ in range(2))
        ca[:env.low], cb[:env.low] = rng.normal(size=(2, env.low, 2)) @ [1, 1j]
        scalar, full = np.zeros(env.dim, dtype=complex), rng.normal(size=(env.dim, 2)) @ [1, 1j]
        scalar[0] = ca[0]
        for a, b in ((ca, cb), (scalar, full), (full, scalar)):
            ref = loop_product(env, a, b)
            got = env.multiply(a, b)
            assert np.max(np.abs(got - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_multiply_raises_on_a_degree_two_factor_with_a_letter(name):
    env, cls = ALGEBRAS[name]
    rng = np.random.default_rng(4)
    for _ in range(5):
        high = cls(rng.normal(size=env.dim))
        low = np.zeros(env.dim, dtype=complex)
        low[:env.low] = rng.normal(size=env.low)
        with pytest.raises(DegreeOverflow):
            high * cls(low)
        with pytest.raises(DegreeOverflow):
            cls(low) * high


@pytest.mark.parametrize("name", ALGEBRAS)
def test_substitute_raises_when_a_pair_gets_a_degree_two_image(name):
    env, cls = ALGEBRAS[name]
    ngen = env.length.count(1)
    images = [cls(basis(env, 1 + g)) for g in range(ngen)]
    images[0] = cls(basis(env, env.dim - 1))          # a degree-2 image
    letter = basis(env, 1)
    # a letter may take it ...
    assert np.array_equal(env.substitute(images, letter), basis(env, env.dim - 1))
    # ... a two-letter word may not
    for k in range(env.low, env.dim):
        if 0 in env.words[k]:
            with pytest.raises(DegreeOverflow):
                env.substitute(images, basis(env, k))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_substitute_identity_images_return_the_element(name):
    env, cls = ALGEBRAS[name]
    ngen = env.length.count(1)
    images = [cls(basis(env, 1 + g)) for g in range(ngen)]
    coeffs = np.random.default_rng(5).normal(size=(env.dim, 2)) @ [1, 1j]
    assert np.array_equal(env.substitute(images, coeffs), coeffs)
    assert np.array_equal(env.substitute(images, np.zeros(env.dim)), np.zeros(env.dim))


def test_words_must_run_by_degree():
    with pytest.raises(ValueError):
        type(algebra.ENVELOPE)([(), (0, 0), (0,)], {})


@pytest.mark.parametrize("module, one", [(algebra, algebra.ONE), (e3, e3.ONE_E3)],
                         ids=list(ALGEBRAS))
def test_is_hermitian_rejects_a_negative_tol(module, one):
    assert module.is_hermitian(one, 0.0)
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        module.is_hermitian(one, -1.0)
