import hashlib
import math

import numpy as np
import pytest

from euclidpt.algebra import (E2Element, build_hamiltonian, casimir,
                              hermiticity_residual, is_hermitian)
from euclidpt.dyson import (DysonParamsE2, adjoint_generator, ep_predictions_pt5,
                            free_parameter_names, hermitize, optical_lattice_map,
                            pt5_double_point_predictions, pt5_three_param_hamiltonian,
                            reduce_pt5_three_param, similarity_transform)
from euclidpt.errors import DegenerateCouplings, MapUndefined

import oracles
from oracles import allclose, pt5_reduced_element

EL = E2Element.from_terms


def casimir_equivalent(a, b, tol=1e-12):
    """Equal as circle-representation operators: difference is z*(u^2 + v^2 - 1)."""
    d = a - b
    z = d.term("u2")
    d = d - z * (casimir() - EL(one=1))
    return bool(np.max(np.abs(d.coeffs)) <= tol)


# sha256 of the bytes of similarity_transform(params, H) on one fixed bilinear H, per params
SIMILARITY_DIGESTS = [
    (DysonParamsE2(), "3ac5e38a295eb818e446472037ff3161f67d46640f5dad2fbd708d2d3d04d6ea"),
    (DysonParamsE2(0.3, 0.2, -0.4),
     "9be42ee5f044829375748392427e1569d7d52a484efbf34ddf9a1355ebedd3f9"),
    (DysonParamsE2(5e-5, 0.7, 0.1),     # the series branch of sinh(lam)/lam
     "ae71b8f2566d1f9ec7d7cc53f6dd3218c6e77fe78ea899afdc7fdd147f43f06f"),
    (DysonParamsE2(-2.5, 1.5, -0.9),
     "c79750a1f1803797149b05d0f13fb1b09b258417766d2777ea173d918eb1105f"),
]


@pytest.mark.parametrize("params, digest", SIMILARITY_DIGESTS,
                         ids=["zero", "small", "series", "large"])
def test_similarity_transform_gives_the_same_bytes(params, digest):
    h = build_hamiltonian("PT3", [0.7, -0.3, 1.1, 0.4, -0.9, 0.25, 0.6, -0.8, 1.3])
    assert hashlib.sha256(similarity_transform(params, h).coeffs.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# adjoint action
# ---------------------------------------------------------------------------

def test_adjoint_closed_forms():
    lam = 0.8
    p = DysonParamsE2(lam, 0.0, 0.0)
    assert allclose(adjoint_generator(p, "u"), EL(u=math.cosh(lam), v=-1j * math.sinh(lam)))
    assert allclose(adjoint_generator(p, "v"), EL(v=math.cosh(lam), u=1j * math.sinh(lam)))

    p0 = DysonParamsE2(0.0, 0.4, -0.9)
    assert allclose(adjoint_generator(p0, "J"), EL(J=1, v=0.4j, u=0.9j))


def test_adjoint_matrix_exponential_oracle():
    p = DysonParamsE2(0.7, 0.3, -0.2)
    img = adjoint_generator(p, "J")
    n = 32
    lhs = oracles.element_matrix(img, n)
    rhs = oracles.expm_conjugation(0.7, 0.3, -0.2, oracles.element_matrix(EL(J=1), n), n)
    assert np.max(np.abs(oracles.interior(lhs - rhs, 8))) < 1e-9


def test_adjoint_oracle_random_generators():
    rng = np.random.default_rng(21)
    n = 32
    for _ in range(20):
        lam, rho, tau = rng.uniform(-1, 1, 3)
        p = DysonParamsE2(lam, rho, tau)
        for g in ("u", "v", "J"):
            lhs = oracles.element_matrix(adjoint_generator(p, g), n)
            rhs = oracles.expm_conjugation(
                lam, rho, tau, oracles.element_matrix(EL(**{g: 1}), n), n)
            assert np.max(np.abs(oracles.interior(lhs - rhs, 8))) < 1e-10


def test_adjoint_small_lambda_series_branch():
    # deep below the cutoff the series must reproduce the analytic limit
    p = DysonParamsE2(1e-12, 0.7, -0.4)
    limit = EL(J=1, u=-1j * (-0.4), v=1j * 0.7)
    assert allclose(adjoint_generator(p, "J"), limit, 1e-11)
    # just above the cutoff the direct formulas take over; their cancellation
    # error at lam ~ 1e-4 stays below ~eps/lam, so the branches agree closely
    lam = 1.01e-4
    x2 = lam * lam
    s_series = 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    c_series = -lam / 2.0 * (1.0 + x2 / 12.0)
    img = adjoint_generator(DysonParamsE2(lam, 0.7, -0.4), "J")
    ref = EL(J=1, u=-1j * (-0.4) * s_series + 0.7 * c_series,
             v=1j * 0.7 * s_series + (-0.4) * c_series)
    assert allclose(img, ref, 1e-11)


def test_transform_casimir_and_j_squared():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = DysonParamsE2(*rng.uniform(-1, 1, 3))
        assert allclose(similarity_transform(p, casimir()), casimir(), 1e-12)
    p = DysonParamsE2(0.9, 0.0, 0.0)
    assert allclose(similarity_transform(p, EL(J2=1)), EL(J2=1), 1e-12)


def test_transform_linear():
    rng = np.random.default_rng(4)
    p = DysonParamsE2(0.3, -0.5, 0.2)
    a = E2Element(rng.standard_normal(10) + 1j * rng.standard_normal(10))
    b = E2Element(rng.standard_normal(10) + 1j * rng.standard_normal(10))
    lhs = similarity_transform(p, a + 2.5 * b)
    rhs = similarity_transform(p, a) + 2.5 * similarity_transform(p, b)
    assert allclose(lhs, rhs, 1e-12)


def test_transform_matrix_oracle_random():
    rng = np.random.default_rng(17)
    n = 32
    for _ in range(100):
        lam, rho, tau = rng.uniform(-0.9, 0.9, 3)
        p = DysonParamsE2(lam, rho, tau)
        h = E2Element(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        lhs = oracles.element_matrix(similarity_transform(p, h), n)
        rhs = oracles.expm_conjugation(lam, rho, tau, oracles.element_matrix(h, n), n)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(oracles.interior(lhs - rhs, 10))) < 1e-8 * scale


# ---------------------------------------------------------------------------
# hermitization, symmetry by symmetry
# ---------------------------------------------------------------------------

def test_hermitize_pt1():
    r = hermitize("PT1", lam=0.6, mu1=1.3, mu3=0.7, mu4=-0.4)
    assert r.residual < 1e-12
    assert r.input_hermitian  # these constraints force the input Hermitian
    H = build_hamiltonian("PT1", r.constrained_mu)
    assert allclose(r.h, H, 1e-12)  # and the map commutes with it
    # the quoted closed form: mu1 J^2 + mu3{v,J} - mu4{u,J}
    #                         - (2 mu3 mu4/mu1) uv + ((mu4^2-mu3^2)/mu1) u^2
    m1, m3, m4 = 1.3, 0.7, -0.4
    display = (EL(J2=m1)
               + m3 * EL(vJ=2, u=1j) - m4 * EL(uJ=2, v=-1j)
               + EL(uv=-2 * m3 * m4 / m1, u2=(m4 ** 2 - m3 ** 2) / m1))
    assert allclose(r.h, display, 1e-12)


def test_hermitize_pt2():
    r = hermitize("PT2", lam=0.7, mu1=1.1, mu3=0.5, mu4=-0.8)
    assert r.residual < 1e-12
    # genuinely non-Hermitian input despite the transformed h being Hermitian
    H = build_hamiltonian("PT2", r.constrained_mu)
    assert not is_hermitian(H, 1e-10)
    assert is_hermitian(r.h, 1e-10)
    # closed form with the {v,J} pairing of the mu4 term
    m1, m3, m4, lam = 1.1, 0.5, -0.8, 0.7
    t2 = math.tanh(lam / 2)
    display = (EL(J2=m1)
               + m3 * t2 * EL(uJ=2, v=-1j) + m4 * t2 * EL(vJ=2, u=1j)
               + EL(uv=(2 * m3 * m4 / m1) * t2 ** 2,
                    u2=(m3 ** 2 / m1) * math.cosh(lam) / math.cosh(lam / 2) ** 2,
                    v2=m3 ** 2 / m1 + (m4 ** 2 / m1) * t2 ** 2))
    assert allclose(r.h, display, 1e-12)


def test_hermitize_pt3_generic():
    rng = np.random.default_rng(31)
    done = 0
    while done < 10:
        m1 = rng.uniform(0.8, 1.5)
        m2, m3, m4, m5, m6, m7, m8 = rng.uniform(-1, 1, 7)
        try:
            r = hermitize("PT3", mu1=m1, mu2=m2, mu3=m3, mu4=m4,
                          mu5=m5, mu6=m6, mu7=m7, mu8=m8)
        except MapUndefined:
            continue
        assert r.residual < 1e-10
        H = build_hamiltonian("PT3", r.constrained_mu)
        assert not is_hermitian(H, 1e-8)  # genuine isospectral pair
        if abs(r.params.lam) < 1.2:
            a = oracles.lowest_levels(H, 10)
            b = oracles.lowest_levels(r.h, 10)
            assert np.max(np.abs(a - b)) < 1e-7
        done += 1


@pytest.mark.parametrize("target", [3.0, -3.0])
def test_hermitize_pt3_degenerate_takes_mu9_target(target):
    # mu5 = 2 mu4, mu6 = 2 mu3, mu2 = 0: the coth equation is 0/0 for every
    # lam, which then comes from the mu9 relation, coth(2 lam) = K2
    free = dict(mu1=1.0, mu2=0.0, mu3=0.5, mu4=0.3, mu5=0.6, mu6=1.0, mu7=0.2, mu8=0.1)
    r = hermitize("PT3", **free, mu9_target=target)
    assert r.residual < 1e-12
    assert r.constrained_mu == (*free.values(), target)
    k2 = (2.0 * target - 0.6 ** 2 - 1.0 ** 2) / (2.0 * (0.6 * 1.0 + 2.0 * 0.2))
    assert math.tanh(2.0 * r.params.lam) == pytest.approx(1.0 / k2, rel=1e-12)
    H = build_hamiltonian("PT3", r.constrained_mu)
    assert not is_hermitian(H, 1e-8)
    a = oracles.lowest_levels(H, 10)
    b = oracles.lowest_levels(r.h, 10)
    assert np.max(np.abs(a - b)) < 1e-7


def test_hermitize_pt3_rejects_unused_mu9_target():
    free = dict(mu1=1.0, mu2=0.1, mu3=0.2, mu4=0.9, mu5=0.3, mu6=2.0, mu7=0.2, mu8=0.1)
    with pytest.raises(ValueError, match="mu9_target applies only when"):
        hermitize("PT3", **free, mu9_target=3.0)
    assert hermitize("PT3", **free).constrained_mu[8] == pytest.approx(3.070696083058046)


def test_hermitize_pt3_mathieu_choice_raises():
    # mu1 = 1, mu7 = 2q, everything else zero: no real Dyson exponent exists
    with pytest.raises(MapUndefined) as err:
        hermitize("PT3", mu1=1.0, mu7=0.8)
    assert err.value.rhs == pytest.approx(0.0)


def test_hermitize_pt4_pt5_generic():
    rng = np.random.default_rng(33)
    for sym in ("PT4", "PT5"):
        done = 0
        while done < 10:
            m1 = rng.uniform(0.8, 1.5)
            m2, m4, m5, m6, m7, m8 = rng.uniform(-1, 1, 6)
            if abs(m5 * m6) < 0.05:
                continue
            try:
                r = hermitize(sym, mu1=m1, mu2=m2, mu4=m4, mu5=m5,
                              mu6=m6, mu7=m7, mu8=m8)
            except MapUndefined:
                continue
            assert r.residual < 1e-10, sym
            H = build_hamiltonian(sym, r.constrained_mu)
            assert not is_hermitian(H, 1e-8)
            if abs(r.params.lam) < 1.0:
                a = oracles.lowest_levels(H, 10)
                b = oracles.lowest_levels(r.h, 10)
                assert np.max(np.abs(a - b)) < 1e-7, sym
            done += 1


def test_hermitize_pt5_display_matches_transform():
    # the quoted Hermitian counterpart agrees with the computed transform up
    # to a multiple of the Casimir (a constant in the circle representation)
    m1, m2, m4, m5, m6, m7, m8 = 1.2, 0.4, -0.3, 0.9, 0.7, -1.0, 0.8
    r = hermitize("PT5", mu1=m1, mu2=m2, mu4=m4, mu5=m5, mu6=m6, mu7=m7, mu8=m8)
    lam = r.params.lam
    th2, ch, sh = math.tanh(lam / 2), math.cosh(lam), math.sinh(lam)
    coth = 1 / math.tanh(lam)
    cvu = ((2 * m5 ** 2 * sh ** 2
            + m6 ** 2 * (1 / math.cosh(lam / 2) ** 2 + math.cosh(2 * lam) - 1)
            + 2 * (th2 - math.sinh(2 * lam)) * m5 * m6) / (8 * m1)
           + (m8 - m7) / 2 * math.cosh(2 * lam))
    cu = (m4 + m5 / 2) / sh + m2 * (m5 - coth * m6) / (2 * m1)
    const = (m6 ** 2 * ch - m5 * m6 * sh) / (4 * m1 * (1 + ch)) + (m7 + m8) / 2
    display = (EL(J2=m1, J=m2)
               + 0.5 * (m5 - m6 * th2) * EL(uJ=2, v=-1j)
               + cvu * EL(v2=1, u2=-1) + cu * EL(u=1) + const * EL(one=1))
    assert casimir_equivalent(r.h, display, 1e-10)


def test_hermitize_validates_free_parameters():
    with pytest.raises(ValueError):
        hermitize("PT1", mu7=1.0)
    with pytest.raises(ValueError):
        hermitize("PT9")
    with pytest.raises(DegenerateCouplings):
        hermitize("PT5", mu1=1.0, mu5=0.0, mu6=1.0, mu7=2.0)


def test_free_parameter_names_rejects_an_unknown_tag():
    assert free_parameter_names("PT1") == ("lam", "mu1", "mu3", "mu4")
    with pytest.raises(ValueError,
                       match=r"^unknown symmetry tag 'PT6'; E2 has PT1, PT2, PT3, PT4, PT5$"):
        free_parameter_names("PT6")


@pytest.mark.parametrize("symmetry", ["PT1", "PT2", "PT3", "PT4", "PT5"])
def test_hermitize_rejects_zero_mu1(symmetry):
    with pytest.raises(DegenerateCouplings, match="mu1 must be nonzero"):
        hermitize(symmetry, mu1=0.0)


def test_map_undefined_carries_rhs():
    with pytest.raises(MapUndefined) as err:
        hermitize("PT5", mu1=1.0, mu5=1.0, mu6=1.0, mu7=0.5, mu8=0.0)
    # rhs = (1 + 1 - 2 + 0)/2 = 0
    assert err.value.rhs == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# three-parameter family
# ---------------------------------------------------------------------------

def test_reduce_pt5_finite_and_real():
    out = reduce_pt5_three_param(0.5, 0.1, 0.0)
    for key in ("alpha", "beta", "gamma", "lambda", "rho"):
        assert math.isfinite(out[key])
    spec = oracles.lowest_levels(pt5_three_param_hamiltonian(0.5, 0.1, 0.0), 12)
    assert np.max(np.abs(spec.imag)) < 1e-10


def test_reduce_pt5_undefined_inside_window():
    with pytest.raises(MapUndefined):
        reduce_pt5_three_param(1.0, 2.0, 4.0)
    with pytest.raises(DegenerateCouplings):
        reduce_pt5_three_param(0.0, 1.0, 0.0)
    # at mu7 = 0 the map exists except where mu3 = mu4 (lam -> infinity)
    with pytest.raises(MapUndefined):
        reduce_pt5_three_param(0.5, 0.5, 0.0)


def test_reduce_pt5_well_defined_window():
    # mu3 = 1, mu7 = 4: defined exactly for |mu4| < 1 or |mu4| > 3
    for mu4 in (0.2, 0.9, -0.5, 3.3, -4.0):
        reduce_pt5_three_param(1.0, mu4, 4.0)
    for mu4 in (1.0, 1.5, 2.9, -2.0, 3.0):
        with pytest.raises(MapUndefined):
            reduce_pt5_three_param(1.0, mu4, 4.0)


def test_reduce_pt5_isospectral_to_direct():
    out = reduce_pt5_three_param(0.5, 0.3, 0.0)
    reduced = pt5_reduced_element(out["alpha"], out["beta"], out["gamma"])
    a = oracles.lowest_levels(pt5_three_param_hamiltonian(0.5, 0.3, 0.0), 10)
    b = oracles.lowest_levels(reduced, 10)
    assert np.max(np.abs(a - b)) < 1e-8


def test_reduce_pt5_matches_similarity_transform():
    for m3, m4, m7 in ((0.5, 0.3, 0.0), (2.0, 1.0, 0.3), (1.0, 3.0, 2.0)):
        out = reduce_pt5_three_param(m3, m4, m7)
        p = DysonParamsE2(out["lambda"], out["rho"], 0.0)
        transformed = similarity_transform(p, pt5_three_param_hamiltonian(m3, m4, m7))
        reduced = pt5_reduced_element(out["alpha"], out["beta"], out["gamma"])
        assert casimir_equivalent(transformed, reduced, 1e-10)


def test_ep_predictions():
    assert ep_predictions_pt5(0.0, 1.0, 4.0, "mu3") == pytest.approx([-3, -1, 1, 3])
    assert ep_predictions_pt5(1.0, 3.0, 0.0, "mu7") == pytest.approx([4, 16])
    collapsed = ep_predictions_pt5(0.0, 1.5, 0.0, "mu3")
    assert collapsed == pytest.approx([-1.5, -1.5, 1.5, 1.5])


def test_double_point_predictions():
    # the README mu7 recipe: |R|/2 reaches the first even-pi double point
    assert pt5_double_point_predictions(1.0, 3.0, 0.0, "mu7") == pytest.approx(
        [10.0 - 1.2179902079, 10.0 + 1.2179902079], abs=1e-10)
    # the README mu3 recipe never gets there: |R|/2 <= 1 < 1.4688
    assert pt5_double_point_predictions(0.0, 1.0, 4.0, "mu3") == []
    # swapping the roles of mu3 and mu4 swaps the axes
    assert pt5_double_point_predictions(0.0, 3.0, 4.0, "mu3") == \
        pt5_double_point_predictions(3.0, 0.0, 4.0, "mu4")
    double_points = {1.4687686, 6.9289548, 16.4711659}
    # |R|/2 reaches up to 3, 9 and 18: one, two and three double points
    for mu3, mu4, mu7, axis, count in ((0.0, 3.0, 4.0, "mu3", 4), (2.0, 9.0, 0.0, "mu7", 4),
                                       (4.0, 9.0, 0.0, "mu7", 6)):
        values = pt5_double_point_predictions(mu3, mu4, mu7, axis)
        assert len(values) == count
        for x in values:
            m3, m4, m7 = {"mu3": (x, mu4, mu7), "mu7": (mu3, mu4, x)}[axis]
            r2 = ((m3 ** 2 + m4 ** 2 - m7) / 2) ** 2 - m3 ** 2 * m4 ** 2
            assert min(abs(math.sqrt(-r2) / 2 - t) for t in double_points) < 1e-6
    with pytest.raises(ValueError, match="sweep_axis"):
        pt5_double_point_predictions(1.0, 3.0, 0.0, "mu8")


# ---------------------------------------------------------------------------
# optical lattice reduction
# ---------------------------------------------------------------------------

def test_optical_lattice_coefficient():
    # mu7 = -mu8 = A/2, mu9 = -2 A V0 with A = 1, V0 = 0.4
    out = optical_lattice_map(0.5, -0.5, -0.8)
    assert out["h"].term("v2") == pytest.approx(0.3)
    assert out["h"].term("u2") == pytest.approx(-0.3)
    assert out["h"].term("1") == pytest.approx(0.0)


def test_optical_lattice_v0_bound():
    for v0 in (0.1, 0.35, 0.499):
        out = optical_lattice_map(0.0, -4.0, -8.0 * v0)
        assert is_hermitian(out["h"], 1e-12)
    for v0 in (0.5, 0.6, 1.2):
        with pytest.raises(MapUndefined):
            optical_lattice_map(0.0, -4.0, -8.0 * v0)
    # V0 = 0 is the identity-map limit
    out = optical_lattice_map(0.0, -4.0, 0.0)
    assert out["lambda"] == 0.0
    assert allclose(out["h"], EL(J2=1, v2=2.0, u2=-2.0, one=-2.0), 1e-12)


def test_optical_lattice_mu9_limit():
    out = optical_lattice_map(1.0, -0.5, 0.0)
    assert allclose(out["h"], EL(J2=1, v2=0.75, u2=-0.75, one=0.25), 1e-12)


def test_optical_lattice_isospectral():
    # direct spectra of H = J^2 + mu7 u^2 + mu8 v^2 + i mu9 uv and its partner
    mu7, mu8, mu9 = 0.0, -4.0, -3.2
    H = EL(J2=1, u2=mu7, v2=mu8, uv=1j * mu9)
    out = optical_lattice_map(mu7, mu8, mu9)
    a = oracles.lowest_levels(H, 10)
    b = oracles.lowest_levels(out["h"], 10)
    assert np.max(np.abs(a.imag)) < 1e-8
    assert np.max(np.abs(np.sort(a.real) - np.sort(b.real))) < 1e-7


@pytest.mark.parametrize("symmetry, free, name", [
    ("PT1", {"mu1": 1e308, "mu3": 1e308}, "mu3"),
    ("PT2", {"lam": 0.5, "mu1": 1e-300, "mu3": 1e300}, "mu3"),
    ("PT4", {"mu5": 1e200, "mu6": 1.0, "mu8": 1.0}, "mu5"),
    ("PT1", {"lam": 1000.0}, "lam"),
    ("PT1", {"lam": 1e300, "mu4": 1e10}, "mu4"),
    ("PT5", {"mu2": math.inf, "mu5": 1.0, "mu6": 1.0}, "mu2"),
    ("PT3", {"mu4": math.nan}, "mu4"),
])
def test_hermitize_overflow_and_nonfinite_raise_value_error(symmetry, free, name):
    with pytest.raises(ValueError, match=name):
        hermitize(symmetry, **free)


@pytest.mark.parametrize("mu", [(1e200, 1.0, 0.0), (1.0, math.inf, 0.0), (1.0, 2.0, math.nan)])
def test_three_param_overflow_and_nonfinite_raise_value_error(mu):
    with pytest.raises(ValueError):
        reduce_pt5_three_param(*mu)
