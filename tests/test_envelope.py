import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from euclidpt import algebra, dyson, e3, spectral
from euclidpt.envelope import Element
from euclidpt.errors import DegreeOverflow

import oracles

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
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            module.is_hermitian(one, bad)


def test_both_algebras_share_one_conjugation():
    for name in ("hermitian_conjugate", "hermiticity_residual", "is_hermitian", "commutator"):
        assert getattr(algebra, name) is getattr(e3, name) is getattr(Element, name), name


# hermitian conjugation of E3 on its generators: factors reverse
E3_DAGGER = {"Jz": [(1.0, "Jz")], "Jp": [(1.0, "Jm")], "Jm": [(1.0, "Jp")],
             "Pz": [(1.0, "Pz")], "Pp": [(-1.0, "Pm")], "Pm": [(-1.0, "Pp")]}


def _e3_codes(action):
    code = e3.GENERATORS.index
    return {code(g): [(c, code(h)) for c, h in terms] for g, terms in action.items()}


def _letter_codes(images):
    """Generator images, each a sum of scaled letters, as {code: [(coefficient, code)]}."""
    return {g: [(c, h) for h, c in enumerate(image.coeffs[1:1 + len(images)].tolist()) if c]
            for g, image in enumerate(images)}


TABLES = {
    "E2-dagger": (algebra.E2Element.dagger_table, algebra.ENVELOPE,
                  {g: [(1.0, g)] for g in range(3)}, True),
    **{f"E2-{tag}": (algebra.E2Element.pt_table(tag), algebra.ENVELOPE, _letter_codes(images),
                     False)
       for tag, images in algebra.PT_SYMMETRIES.items()},
    "E3-dagger": (e3.E3Element.dagger_table, e3.ENVELOPE, _e3_codes(E3_DAGGER), True),
    **{f"E3-{tag}": (e3.E3Element.pt_table(tag), e3.ENVELOPE, _e3_codes(action), False)
       for tag, action in e3.PT_ACTIONS_E3.items()},
}


def test_pt_tables_are_built_on_first_use_once_per_class_and_tag():
    # a fresh interpreter: importing the package and its CLI builds no table
    code = ("import euclidpt, euclidpt.cli, euclidpt.e3; from euclidpt.envelope import Element; "
            "print(Element.pt_table.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(algebra.__file__).parent.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout == "0\n"
    for cls in (algebra.E2Element, e3.E3Element):
        for tag in cls.pt_images:
            assert cls.pt_table(tag) is cls.pt_table(tag)
            assert not cls.pt_table(tag).flags.writeable   # one table serves every caller
    assert algebra.E2Element.pt_table("PT1").shape == (10, 10)
    assert e3.E3Element.pt_table("PT1").shape == (28, 28)


@pytest.mark.parametrize("name", TABLES)
def test_generator_map_tables_match_the_straightened_words_bit_for_bit(name):
    table, env, images, reverse = TABLES[name]
    oracle = oracles.generator_map_table(env, images, reverse)
    assert table.dtype == oracle.dtype and table.shape == oracle.shape
    assert table.tobytes() == oracle.tobytes()


def test_elements_compare_by_value_and_records_compare_without_raising():
    assert algebra.E2Element.from_terms(u=1) == algebra.U
    assert algebra.E2Element.from_terms(u=1, v=0) == algebra.U + 0 * algebra.V
    assert e3.generator("Pz") == e3.E3Element.from_terms({"Pz": 1.0})
    assert algebra.U != algebra.V and algebra.U != algebra.U.coeffs
    assert algebra.ONE != e3.ONE_E3 and e3.ONE_E3 != algebra.ONE
    for element in (algebra.U, e3.ONE_E3):
        with pytest.raises(TypeError, match="unhashable"):
            hash(element)
    # records holding elements compare their fields by value
    element = dyson.pt5_three_param_hamiltonian(0.8, 1.0, 4.0)
    problem = spectral.SpectralProblem(element, truncation=8)
    assert problem == spectral.SpectralProblem(dyson.pt5_three_param_hamiltonian(0.8, 1.0, 4.0),
                                               truncation=8)
    assert problem != spectral.SpectralProblem(element, truncation=9)
    free = {"mu2": 0.3, "mu4": 0.5, "mu5": 0.8, "mu6": 0.4, "mu7": -0.5, "mu8": 0.7}
    assert dyson.hermitize("PT5", **free) == dyson.hermitize("PT5", **free)
    # records holding arrays compare by identity, without raising
    template = spectral.SweepTemplate(family="pt5-three", mu=(1, 0, 0.8, 1, 0, 0, 4, 0, 0),
                                      truncation=8, track_levels=3)
    theta = np.linspace(0.0, 6.0, 7)
    spectrum = spectral.eigen_spectrum(problem)
    for make in (lambda: spectral.eigen_spectrum(problem),
                 lambda: spectral.wavefunction(spectrum, 0),
                 lambda: spectral.pair_intensities(problem, 3.0, theta),
                 lambda: spectral.sweep(template, "mu3", 0.7, 0.8, 2),
                 lambda: spectral.intensity_sweep(template, "mu3", [0.7, 0.8], 3.0, theta)):
        record = make()
        assert record == record
        assert (record == make()) is False
