"""The closed forms behind `errors.closed_form`: their results, bit for bit, and their overflow.

Each guarded function runs on a fixed grid of Python floats and of numpy float64 scalars.
Its results (floats by their bits, errors by type, and by message for Python floats) hash to
the digests recorded before the closed forms moved behind the one guard.
"""

import hashlib
import itertools
import warnings

import numpy as np
import pytest

from euclidpt import algebra, dyson, e3, mathieu, spectral
from euclidpt.errors import EuclidPTError

GRID = (-2.5, -0.7, 0.0, 0.3, 1.1, 7.5, 1e5)
SMALL = (-2.5, 0.0, 1.1, 7.5)   # the double points: max_q stays small
H_PT5 = algebra.build_hamiltonian("PT5", [1.0, 0.3, 0.0, 0.5, 0.8, 0.4, -0.5, 0.7, 0.0])
H_TILDE = e3.build_h_tilde_pt1([0.3, 0.2, 0.1, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])


def _text(x, messages):
    if isinstance(x, BaseException):
        return type(x).__name__ + (str(x) if messages else "")
    if isinstance(x, (algebra.E2Element, e3.E3Element)):
        return _text(x.coeffs, messages)
    if isinstance(x, np.ndarray):
        return x.tobytes().hex()
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{_text(v, messages)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_text(v, messages) for v in x) + "]"
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (complex, np.complexfloating)):
        return complex(x).real.hex() + complex(x).imag.hex()
    if hasattr(x, "__dataclass_fields__"):
        return _text({k: getattr(x, k) for k in x.__dataclass_fields__}, messages)
    return repr(x)


def _hermitize(symmetry, names):
    return lambda *values: dyson.hermitize(symmetry, **dict(zip(names, values)))


# name: (function of the grid's numbers, its arity, the grid, digest)
FORMS = {
    "pt1_closed_spectrum": (lambda a, b: [spectral.pt1_closed_spectrum(a, b, n, s)
                                          for n in (0, 3) for s in ("bosonic", "fermionic")],
                            2, GRID, "a962b8de4a8cf615"),
    "pt1_closed_wavefunction": (lambda a, b, c: spectral.pt1_closed_wavefunction(a, b, c, 3),
                                3, GRID, "03be6fe428f43a6f"),
    "pt5_complex_hamiltonian": (mathieu.pt5_complex_hamiltonian, 2, GRID, "406017a43f47108b"),
    "adjoint_generator": (lambda *exps: [dyson.adjoint_generator(dyson.DysonParamsE2(*exps), g)
                                         for g in "uvJ"], 3, GRID, "05a17fb713a918bc"),
    "similarity_transform": (lambda *exps: dyson.similarity_transform(
        dyson.DysonParamsE2(*exps), H_PT5), 3, GRID, "677c35dda146bf4f"),
    "hermitize-PT1": (_hermitize("PT1", ("lam", "mu1", "mu3")), 3, GRID, "19a332ae4850fcfc"),
    "hermitize-PT2": (_hermitize("PT2", ("lam", "mu1", "mu4")), 3, GRID, "8e187d4753c5709d"),
    "hermitize-PT3": (_hermitize("PT3", ("mu1", "mu4", "mu6")), 3, GRID, "a373e9a72aa2bf21"),
    "hermitize-PT3-target": (_hermitize("PT3", ("mu1", "mu9_target")), 2, GRID,
                             "c01d4800f24534d0"),
    "hermitize-PT4": (_hermitize("PT4", ("mu5", "mu6", "mu7")), 3, GRID, "3f8f111089ab69fe"),
    "hermitize-PT5": (_hermitize("PT5", ("mu1", "mu5", "mu8")), 3, GRID, "304e860cc4c70b27"),
    "reduce_pt5_three_param": (dyson.reduce_pt5_three_param, 3, GRID, "4ffa8385c2bab5f8"),
    **{f"ep_predictions_pt5-{axis}": (
        lambda a, b, c, axis=axis: dyson.ep_predictions_pt5(a, b, c, axis), 3, GRID, digest)
       for axis, digest in (("mu3", "2174a7f57c359bb7"), ("mu7", "2ec33b3ff0891c65"))},
    **{f"pt5_double_point_predictions-{axis}": (
        lambda a, b, c, axis=axis: dyson.pt5_double_point_predictions(a, b, c, axis), 3, SMALL,
        digest) for axis, digest in (("mu3", "e50eb4bb475f30d4"), ("mu7", "613d8e508676fde7"))},
    "optical_lattice_map": (dyson.optical_lattice_map, 3, GRID, "7df57a824fb929fb"),
    # re-recorded when the E3 table's overflow message came to name the exponents; every
    # value and error type hashes as before
    "e3_adjoint": (lambda *exps: e3.e3_adjoint(e3.DysonParamsE3(*exps, 0.1, -0.2, 0.3)), 3,
                   GRID, "c05dbb30577ca3ba"),
    "transform_h_tilde": (lambda *exps: e3.transform_h_tilde(
        e3.DysonParamsE3(*exps, 0.1, -0.2, 0.3), H_TILDE), 3, GRID, "38d77ac126f3f4c2"),
    "completed_square": (lambda a, b, c: algebra.completed_square(algebra.hamiltonian_coeffs(
        "PT5", [c, 0.3, a, b, -2.0 * b, -2.0 * a, 0.5, 0.0, 0.0])), 3, GRID, "119e11883a0d4fc1"),
}


def _digest(form, arity, grid):
    digest = hashlib.sha256()
    for kind in (float, np.float64):
        for numbers in itertools.product(grid, repeat=arity):
            try:
                out = form(*map(kind, numbers))
            except (ValueError, ArithmeticError, EuclidPTError) as exc:
                out = exc
            digest.update(_text(out, messages=kind is float).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", FORMS)
def test_a_guarded_closed_form_gives_the_same_bits(name):
    form, arity, grid, expected = FORMS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _digest(form, arity, grid) == expected


HUGE, SMALL_SCALAR = np.float64(1e200), np.float64(1e-300)

OVERFLOWS = {
    "pt1_closed_spectrum": (lambda: spectral.pt1_closed_spectrum(SMALL_SCALAR, 1e300, 1),
                            "the PT1 level overflows floating point at mu1=1e-300, mu3=1e+300"),
    "pt5_complex_hamiltonian": (lambda: mathieu.pt5_complex_hamiltonian(HUGE, 0.5),
                                "the complex-Mathieu family overflows floating point at "
                                "mu4=1e+200"),
    "reduce_pt5_three_param": (lambda: dyson.reduce_pt5_three_param(HUGE, 0.5, 0.0),
                               "the three-parameter reduction overflows floating point at "
                               "mu3=1e+200"),
    "ep_predictions_pt5": (lambda: dyson.ep_predictions_pt5(HUGE, 3.0, 0.0, "mu7"),
                           "the EP prediction overflows floating point at mu3=1e+200"),
    "pt5_double_point_predictions": (
        lambda: dyson.pt5_double_point_predictions(HUGE, 3.0, 0.0, "mu7"),
        "the double-point prediction overflows floating point at mu3=1e+200"),
    "optical_lattice_map": (lambda: dyson.optical_lattice_map(HUGE * 1e108, -HUGE * 1e108, 1),
                            "the optical-lattice map overflows floating point at mu7=1e+308"),
    "adjoint_generator": (lambda: dyson.adjoint_generator(dyson.DysonParamsE2(
        np.float64(700.0), HUGE * 1e100), "J"),
        "the Dyson map overflows floating point at lam=700.0, rho=1e+300"),
    "pt1_closed_wavefunction": (lambda: spectral.pt1_closed_wavefunction(
        np.float64(5e-324), 0.5, 0.2, 2), "the PT1 state overflows floating point at mu1=5e-324"),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_numpy_scalars_that_overflow_give_one_value_error_printing_python_numbers(name):
    call, start = OVERFLOWS[name]
    with warnings.catch_warnings(), pytest.raises(ValueError) as caught:
        warnings.simplefilter("error")
        call()
    assert str(caught.value).startswith(start)
    assert "np." not in str(caught.value)
