import hashlib
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
            assert np.array_equal(got, oracles.straighten(env, wi + wj)), (wi, wj)
            checked += 1
    ngen = env.length.count(1)
    assert checked == 1 + 2 * (env.dim - 1) + ngen * ngen


def loop_product(env, ca, cb):
    """The product as a loop over both supports, each pair straightened."""
    out = np.zeros(env.dim, dtype=complex)
    for i in np.flatnonzero(ca):
        for j in np.flatnonzero(cb):
            out += ca[i] * cb[j] * oracles.straighten(env, env.words[i] + env.words[j])
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


def product_cases(env, rng):
    """Every basis pair inside the truncation; random sparse low blocks; real low
    blocks whose imaginary parts are signed zeros; a scalar with a degree-2
    element either way round; and each of these with either factor negated."""
    cases = [(basis(env, i), basis(env, j)) for i, wi in enumerate(env.words)
             for j, wj in enumerate(env.words) if len(wi) + len(wj) <= 2]
    for _ in range(100):
        sparse = np.zeros((2, env.dim), dtype=complex)
        sparse[:, :env.low] = ((rng.normal(size=(2, env.low, 2)) @ [1, 1j])
                               * (rng.random((2, env.low)) < 0.4))
        real = np.zeros((2, env.dim), dtype=complex)
        real.real[:, :env.low] = rng.normal(size=(2, env.low))
        real.imag[:, :env.low] = np.copysign(0.0, rng.normal(size=(2, env.low)))
        scalar, full = np.zeros(env.dim, dtype=complex), rng.normal(size=(env.dim, 2)) @ [1, 1j]
        scalar[0] = rng.normal(size=2) @ [1, 1j]
        cases += [tuple(sparse), tuple(real), (scalar, full), (full, scalar)]
    return cases + [(-a, b) for a, b in cases] + [(a, -b) for a, b in cases]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_multiply_is_the_dense_contraction_bit_for_bit(name):
    env, _ = ALGEBRAS[name]
    for ca, cb in product_cases(env, np.random.default_rng(7)):
        got = env.multiply(ca, cb)
        assert got.tobytes() == oracles.dense_product(env, ca, cb).tobytes(), (ca, cb)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_low_product_is_the_straightened_words_bit_for_bit(name):
    env, _ = ALGEBRAS[name]
    oracle = oracles.straightened_low_product(env)
    assert env.low_product.dtype == oracle.dtype and env.low_product.shape == oracle.shape
    assert env.low_product.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("name", ALGEBRAS)
def test_sparse_product_table_rebuilds_low_product(name):
    env, _ = ALGEBRAS[name]
    rows = env.product_first * env.low + env.product_second
    rebuilt = np.zeros_like(env.low_product)
    rebuilt[rows, env.product_column] = env.product_value
    assert rebuilt.tobytes() == env.low_product.tobytes()
    # each nonzero entry once, in row order
    assert np.all(env.product_value != 0)
    assert np.all(np.diff(rows * env.dim + env.product_column) > 0)


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
    "E3-dagger": (e3.E3Element.dagger_table, e3.ENVELOPE, _e3_codes(oracles.E3_DAGGER), True),
    **{f"E3-{tag}": (e3.E3Element.pt_table(tag), e3.ENVELOPE, _e3_codes(action), False)
       for tag, action in oracles.PT_ACTIONS_E3.items()},
}


# sha256 of the bytes of each antilinear image of one fixed element per algebra
IMAGE_DIGESTS = {
    "E2-PT1": "5d2d68259f48f6dd9d649c5cef04f9c35896b0ab6dc50446043ecfa165431f75",
    "E2-PT2": "49cce01953e3be200132c8ffa57b8eee5bab9edf96472c1a8da01491c0e0ab14",
    "E2-PT3": "f2c81d1c5c990e58f7a713756e25e7b20f63ea15d5ab29f08889c51ca226c773",
    "E2-PT4": "6b02f6583daf37a1fa4da2bb895c64cd04ad53b59270223eed4d3e200af40794",
    "E2-PT5": "42b849d182ddc6beca32a41cc3bde8d937c45ad83d1cea7a4f5cbe2284db7e76",
    "E3-PT1": "9fd24a99d61ffa5ec1e9d1492d0c639c26d38a6d561e6fa68a185030a2a9653e",
    "E3-PT2": "2211edcf1a15a5802e2c4bf1529cb511dad6e3408f956fe843cb1fbc7c09222b",
    "E3-PT3": "13e6b27787a627e84704d38fdd6d72c73db9885736c353fe1de2ac5bfdfd7880",
    "E3-PT4": "be561d1d3746ca310507adee5d5f422cc7f38895cf08640bb4551947ae885366",
    "E2-dagger": "989415c03a8082496535464f33e6e4e88b5fa8a1d86c6df323688ca24c52655d",
    "E3-dagger": "2c6a410383212a0a10dbae26e70f22981c6453fb626793662165ed59fe267fed",
}


@pytest.mark.parametrize("name", IMAGE_DIGESTS)
def test_antilinear_images_give_the_same_bytes(name):
    algebra_name, tag = name.split("-")
    _, cls = ALGEBRAS[algebra_name]
    k = np.arange(cls.envelope.dim)
    element = cls((k % 7 - 3) * 0.375 + 1j * ((5 * k) % 11 - 5) / 8)   # exact in binary
    if tag == "dagger":
        image = element.hermitian_conjugate()
    else:
        image = (algebra.apply_pt if algebra_name == "E2" else e3.apply_pt_e3)(tag, element)
    assert hashlib.sha256(image.coeffs.tobytes()).hexdigest() == IMAGE_DIGESTS[name]


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


def from_terms(cls, terms):
    """`from_terms` of {label: value} in its algebra's calling form: keywords for E2."""
    return cls.from_terms(**terms) if cls is algebra.E2Element else cls.from_terms(terms)


# signed zeros and values exact in binary, one per label in turn
TERM_VALUES = (-0.0, complex(-0.0, -0.0), 1.5 - 2j, -0.25j, 3, complex(0.0, -0.0), -7.125)
# sha256 of the bytes of from_terms, each label alone in turn, then all in one call
FROM_TERMS_DIGESTS = {
    "E2": ("2dd265478207bec301f4f96c5836ada1773e97d4c6bf33e613a69e5daccfc43f",
           "e057ac366f2c44553bc6b947c861e118f350f3496f2fba484d49edab444ea310"),
    "E3": ("55a4e241e7365dee09b3ac7b15e18f2eb82022a878f0baf29412a86b75a36255",
           "f80672e1d43b65ff04c0ace249f4ec1a90dc24b250fb15a188825c89d1c95c88"),
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_from_terms_gives_the_same_bytes_and_term_reads_each_back(name):
    _, cls = ALGEBRAS[name]
    terms = {label: TERM_VALUES[k % len(TERM_VALUES)] for k, label in enumerate(cls.labels)}
    alone = [from_terms(cls, {label: value}) for label, value in terms.items()]
    mixed = from_terms(cls, terms)
    digests = (hashlib.sha256(b"".join(el.coeffs.tobytes() for el in alone)).hexdigest(),
               hashlib.sha256(mixed.coeffs.tobytes()).hexdigest())
    assert digests == FROM_TERMS_DIGESTS[name]
    for element, (label, value) in zip(alone, terms.items()):
        for read in (element.term(label), mixed.term(label)):
            assert repr(read) == repr(0j + value), label   # -0.0 parts read back as 0.0
    assert algebra.E2Element.from_terms(one=2.5) == algebra.E2Element.from_terms(**{"1": 2.5})
