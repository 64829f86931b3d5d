"""Every public callable that takes a number, with each numeric argument in turn at a float
extreme.

Each row is one valid base call: the callable it exercises, a function of the numbers, and
the numbers it is valid at.  Each case puts one of `VALUES` in place of one number.  Whatever
the value, the call either returns finite values or raises one ValueError or EuclidPTError
with a one-line message; no warning escapes, and the call ends within `SECONDS`, bounded by
an interval timer in this process.  A public callable with no row fails the coverage test,
unless `TAKE_NO_NUMBER` names it.
"""

import dataclasses
import math
import numbers
import signal
import warnings

import numpy as np
import pytest

import euclidpt
from euclidpt import algebra, chains, cli, dyson, e3, envelope, errors, mathieu, spectral
from euclidpt.errors import EuclidPTError

VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "1e308": 1e308,
          "-1e308": -1e308, "5e-324": 5e-324, "0.0": 0.0, "-0.0": -0.0, "1e154": 1e154,
          "10**400": 10 ** 400, "2.5": 2.5, "-1": -1, "True": True,
          "np.float64(1e200)": np.float64(1e200)}
SECONDS = 2.0

THETA = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
HAMILTONIAN = algebra.build_hamiltonian("PT5", [1.0, 0.3, 0.0, 0.5, 0.8, 0.4, -0.5, 0.7, 0.0])
TEMPLATE = spectral.SweepTemplate(family="pt5-three", truncation=8, track_levels=2)
SPECTRUM = spectral.eigen_spectrum(TEMPLATE.problem_at("mu3", 0.5))
WAVE = spectral.pt1_closed_wavefunction(1.0, 0.4, -0.3, n=2)
H_TILDE = e3.build_h_tilde_pt1([0.3, 0.2, 0.1, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
MU_PT5 = (1.0, 0.3, 0.0, 0.5, 0.8, 0.4, -0.5, 0.7, 0.0)
A0 = -0.4551386   # the lowest even-pi value at q = 1


def _e2(*mu):
    return dict(zip(("mu1", "mu2", "mu3", "mu4", "mu5", "mu6", "mu7", "mu8"), mu))


def _bisected_sweep(mu3, lo, hi):
    return spectral.sweep(spectral.SweepTemplate(mu=(1.0, 0.0, mu3, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0),
                                                 truncation=4, track_levels=2), "mu4", lo, hi, 3)


# name: (the callable exercised, call of the numbers, the base numbers)
ROWS = {
    "E2Element*c": (algebra.E2Element, lambda c: algebra.U * c, (2.0,)),
    "c*E3Element": (e3.E3Element, lambda c: c * e3.PZ, (2.0,)),
    "build_hamiltonian": (algebra.build_hamiltonian,
                          lambda *mu: algebra.build_hamiltonian("PT5", mu), MU_PT5),
    "hamiltonian_coeffs": (algebra.hamiltonian_coeffs,
                           lambda *mu: algebra.hamiltonian_coeffs("PT5", mu), MU_PT5),
    "completed_square": (algebra.completed_square,
                         lambda c1, cu2, c: algebra.completed_square(
                             [c1, 0, 0, 0, cu2, 0, 0, 0, 0, c]), (0.5, 0.3, 1.0)),
    "is_hermitian": (algebra.is_hermitian, lambda tol: algebra.is_hermitian(HAMILTONIAN, tol),
                     (1e-12,)),
    "arcoth": (dyson.arcoth, dyson.arcoth, (2.0,)),
    "DysonParamsE2": (dyson.DysonParamsE2, dyson.DysonParamsE2, (0.3, 0.1, 0.2)),
    "adjoint_generator": (dyson.adjoint_generator, lambda *exps: dyson.adjoint_generator(
        dyson.DysonParamsE2(*exps), "J"), (0.3, 0.1, 0.2)),
    "similarity_transform": (dyson.similarity_transform, lambda *exps: dyson.similarity_transform(
        dyson.DysonParamsE2(*exps), HAMILTONIAN), (0.3, 0.1, 0.2)),
    "hermitize-PT1": (dyson.hermitize, lambda lam, mu1, mu3, mu4: dyson.hermitize(
        "PT1", lam=lam, mu1=mu1, mu3=mu3, mu4=mu4), (0.3, 1.0, 0.2, 0.1)),
    "hermitize-PT3": (dyson.hermitize, lambda *mu: dyson.hermitize("PT3", **_e2(*mu)),
                      (1.0, 0.1, 0.2, 0.9, 0.3, 2.0, 0.2, 0.1)),
    "hermitize-PT3-target": (dyson.hermitize, lambda target: dyson.hermitize(
        "PT3", mu1=1.0, mu4=0.5, mu9_target=target), (3.0,)),
    "hermitize-PT5": (dyson.hermitize, lambda mu1, mu2, mu4, mu5, mu6, mu7, mu8: dyson.hermitize(
        "PT5", mu1=mu1, mu2=mu2, mu4=mu4, mu5=mu5, mu6=mu6, mu7=mu7, mu8=mu8),
        (1.0, 0.3, 0.5, 0.8, 0.4, -0.5, 0.7)),
    "pt5_three_param_couplings": (dyson.pt5_three_param_couplings,
                                  dyson.pt5_three_param_couplings, (1.0, 0.5, 0.0)),
    "pt5_three_param_hamiltonian": (dyson.pt5_three_param_hamiltonian,
                                    dyson.pt5_three_param_hamiltonian, (1.0, 0.5, 0.0)),
    "reduce_pt5_three_param": (dyson.reduce_pt5_three_param, dyson.reduce_pt5_three_param,
                               (1.0, 0.5, 0.0)),
    **{f"ep_predictions_pt5-{axis}": (
        dyson.ep_predictions_pt5, lambda *mu, axis=axis: dyson.ep_predictions_pt5(*mu, axis),
        (2.0, 1.0, 4.0)) for axis in ("mu3", "mu7")},
    **{f"pt5_double_point_predictions-{axis}": (
        dyson.pt5_double_point_predictions,
        lambda *mu, axis=axis: dyson.pt5_double_point_predictions(*mu, axis), base)
       for axis, base in (("mu7", (2.0, 9.0, 0.0)), ("mu3", (0.5, 3.0, 4.0)))},
    "optical_lattice_map": (dyson.optical_lattice_map, dyson.optical_lattice_map,
                            (3.0, 1.0, 0.5)),
    "DysonParamsE3": (e3.DysonParamsE3, e3.DysonParamsE3, (0.2, 0.1, -0.3, 0.4, 0.0, 0.5)),
    "e3_adjoint": (e3.e3_adjoint, lambda *exps: e3.e3_adjoint(e3.DysonParamsE3(*exps)),
                   (0.2, 0.1, -0.3, 0.4, 0.0, 0.5)),
    "transform_h_tilde": (e3.transform_h_tilde, lambda *exps: e3.transform_h_tilde(
        e3.DysonParamsE3(*exps), H_TILDE), (0.2, 0.1, -0.3, 0.4, 0.0, 0.5)),
    "build_h_tilde_pt1": (e3.build_h_tilde_pt1, lambda *mu: e3.build_h_tilde_pt1(mu),
                          (0.3, 0.2, 0.1, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    "characteristic_values": (mathieu.characteristic_values,
                              lambda q, count, trunc: mathieu.characteristic_values(
                                  q, mathieu.EVEN_PI, count, trunc), (1.0, 3, 20)),
    "antiperiodic_characteristic_values": (
        mathieu.antiperiodic_characteristic_values,
        lambda q, count, trunc: mathieu.antiperiodic_characteristic_values(
            q, "odd", count, trunc), (1.0, 3, 20)),
    "coefficient_vector": (mathieu.coefficient_vector,
                           lambda q, a, trunc: mathieu.coefficient_vector(
                               q, mathieu.EVEN_PI, a, trunc), (1.0, A0, 20)),
    "mathieu_function": (mathieu.mathieu_function,
                         lambda q, a, z, trunc: mathieu.mathieu_function(
                             q, a, "even", [0.0, z], trunc), (1.0, A0, 1.2, 20)),
    "complex_mathieu_eps": (mathieu.complex_mathieu_eps,
                            lambda max_q, count, trunc, scan_steps, param_tol, im_tol:
                            mathieu.complex_mathieu_eps(max_q, mathieu.EVEN_PI, count, trunc,
                                                        scan_steps, param_tol, im_tol),
                            (2.0, 4, 20, 8, 1e-8, 1e-8)),
    "pt5_complex_hamiltonian": (mathieu.pt5_complex_hamiltonian,
                                mathieu.pt5_complex_hamiltonian, (1.0, 0.5)),
    "pt5_complex_solution": (mathieu.pt5_complex_solution,
                             lambda mu4, mu6, energy, theta, c1, c2, trunc:
                             mathieu.pt5_complex_solution(mu4, mu6, energy, [0.0, theta], c1,
                                                          c2, trunc),
                             (0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 20)),
    "SpectralProblem": (spectral.SpectralProblem, lambda sector, truncation:
                        spectral.SpectralProblem(HAMILTONIAN, sector, truncation), (0.5, 8)),
    "trusted_count": (spectral.trusted_count, spectral.trusted_count, (16,)),
    "build_matrix": (spectral.build_matrix, lambda c: spectral.build_matrix(
        spectral.SpectralProblem(algebra.U * c + algebra.J * algebra.J, truncation=4)), (0.5,)),
    "eigen_spectrum": (spectral.eigen_spectrum, lambda sector, truncation: spectral.eigen_spectrum(
        spectral.SpectralProblem(HAMILTONIAN, sector, truncation)), (0.5, 8)),
    "pt1_closed_spectrum": (spectral.pt1_closed_spectrum, spectral.pt1_closed_spectrum,
                            (1.0, 0.5, 2)),
    "pt1_closed_wavefunction": (spectral.pt1_closed_wavefunction,
                                spectral.pt1_closed_wavefunction,
                                (1.0, 0.4, -0.3, 2, "bosonic", 1.0, 0.5)),
    "SweepTemplate": (spectral.SweepTemplate, lambda mu3, sector, truncation, track_levels:
                      spectral.SweepTemplate(mu=(1.0, 0.0, mu3, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0),
                                             sector=sector, truncation=truncation,
                                             track_levels=track_levels), (0.3, 0.0, 8, 2)),
    "sweep": (spectral.sweep, lambda lo, hi, steps: spectral.sweep(TEMPLATE, "mu4", lo, hi, steps),
              (0.0, 1.0, 3)),
    "bisect_transition": (spectral.bisect_transition,
                          lambda lo, hi, tol: spectral.bisect_transition(
                              lambda x: x > 0.3, lo, hi, tol), (0.0, 1.0, 1e-3)),
    "find_exceptional_points": (spectral.find_exceptional_points,
                                lambda tol, im_tol: spectral.find_exceptional_points(
                                    _bisected_sweep(0.3, 0.0, 1.5), tol, im_tol), (1e-3, 1e-6)),
    "find_exceptional_points-sweep": (spectral.find_exceptional_points,
                                      lambda mu3, lo, hi: spectral.find_exceptional_points(
                                          _bisected_sweep(mu3, lo, hi), 1e-3),
                                      (0.3, 0.0, 1.5)),
    "WavefunctionSpec": (spectral.WavefunctionSpec, lambda c, sector, first, step, a, b:
                         spectral.WavefunctionSpec(np.array([1.0, c]), sector, first, step,
                                                   (a, b)), (0.5, 0.0, -1, 1, 0.1, 0.2)),
    "WavefunctionSpec.evaluate": (spectral.WavefunctionSpec, lambda theta: WAVE.evaluate(
        [0.0, theta]), (1.0,)),
    "WavefunctionSpec.normalized": (spectral.WavefunctionSpec,
                                    lambda c, a, b: spectral.WavefunctionSpec(
                                        np.array([c, 1.0]), gauge=(a, b)).normalized(),
                                    (0.5, 0.1, 0.2j)),
    "wavefunction": (spectral.wavefunction, lambda level: spectral.wavefunction(SPECTRUM, level),
                     (1,)),
    "intensity": (spectral.intensity, lambda theta: spectral.intensity(WAVE, [0.0, theta]),
                  (1.0,)),
    "select_pair": (spectral.select_pair, lambda energy: spectral.select_pair(SPECTRUM, energy),
                    (3.0,)),
    "pair_intensities": (spectral.pair_intensities, lambda energy, theta:
                         spectral.pair_intensities(TEMPLATE.problem_at("mu3", 0.5), energy,
                                                   [0.0, theta]), (3.0, 1.0)),
    "intensity_sweep": (spectral.intensity_sweep, lambda value, energy, theta:
                        spectral.intensity_sweep(TEMPLATE, "mu3", [0.5, value], energy,
                                                 [0.0, theta]), (0.6, 3.0, 1.0)),
    "pt_image": (spectral.pt_image, lambda theta: spectral.pt_image(WAVE, "PT5", [0.0, theta]),
                 (1.0,)),
    "pt_eigenstate_check": (spectral.pt_eigenstate_check, lambda theta, tol:
                            spectral.pt_eigenstate_check(WAVE, "PT5", [0.0, theta], tol),
                            (1.0, 1e-6)),
    "check_finite": (errors.check_finite, lambda x: errors.check_finite({"x": x}), (1.0,)),
    "check_integer": (errors.check_integer, lambda x: errors.check_integer("x", x, 1), (2,)),
    "check_angles": (errors.check_angles, lambda x: errors.check_angles("x", [0.0, x]), (1.0,)),
    "check_finite_array": (errors.check_finite_array,
                           lambda x: errors.check_finite_array("x", [0.0, x]), (1.0,)),
    "check_floats": (errors.check_floats, lambda x: errors.check_floats(("x", "y"), [x, 1.0]),
                     (1.0,)),
    "check_tolerance": (errors.check_tolerance, lambda x: errors.check_tolerance("x", x),
                        (1e-6,)),
    "closed_form": (errors.closed_form, lambda x: errors.closed_form(
        "exp", {"x": x}, lambda x: (math.exp(x),), x), (1.0,)),
    "overflow_error": (errors.overflow_error, lambda x: errors.overflow_error("x", {"x": x}),
                       (1.0,)),
    "check_ep_tolerances": (chains.check_ep_tolerances, lambda tol, im_tol:
                            chains.check_ep_tolerances("tol", tol, im_tol), (1e-6, 1e-6)),
}

# public callables whose arguments hold no number: tags, elements, spectra, arrays of chain
# bands, callbacks and argument lists; and records the library returns, not inputs
TAKE_NO_NUMBER = {
    algebra.casimir, algebra.multiply, algebra.apply_pt, algebra.hermitian_conjugate,
    chains.linalg, chains.tridiagonal_eigenvalues, chains.tridiagonal_matrix,
    chains.inverse_iteration, chains.certify, chains.pair_changes, cli.main,
    dyson.free_parameter_names, dyson.HermitizationResult, e3.bracket, e3.monomial_label,
    e3.generator, e3.multiply, e3.apply_pt_e3, e3.E3AdjointTable, e3.defining_matrices,
    envelope.Envelope, envelope.Element, errors.overflow_guard, errors.unknown_tag,
    mathieu.MathieuClass,
    spectral.hill_form, spectral.Spectrum, spectral.SweepResult, spectral.ExceptionalPoint,
    spectral.PairIntensities, spectral.IntensitySweep,
}


def _public():
    """Every public callable: euclidpt.__all__ and each module's own public functions and
    classes, exception types aside."""
    found = {value for value in map(euclidpt.__dict__.get, euclidpt.__all__) if callable(value)}
    for module in (algebra, chains, cli, dyson, e3, envelope, errors, mathieu, spectral):
        found |= {value for name, value in vars(module).items()
                  if not name.startswith("_") and callable(value)
                  and getattr(value, "__module__", None) == module.__name__}
    return {value for value in found
            if not (isinstance(value, type) and issubclass(value, BaseException))}


def test_every_public_callable_has_a_row_or_takes_no_number():
    rows = {target for target, _, _ in ROWS.values()}
    missing = _public() - rows - TAKE_NO_NUMBER
    assert not missing, sorted(getattr(f, "__qualname__", repr(f)) for f in missing)
    assert not rows & TAKE_NO_NUMBER


def _finite(value):
    """Whether every number `value` holds is finite, and every text is one line."""
    if isinstance(value, str):
        return "\n" not in value
    if isinstance(value, numbers.Number):
        return isinstance(value, numbers.Integral) or np.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, envelope.Element):
        return _finite(value.coeffs)
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True


class _Late(BaseException):
    """Raised by the interval timer when a call takes longer than `SECONDS`."""


def _late(signum, frame):
    raise _Late


CASES = [(row, k, value) for row, (_, _, base) in ROWS.items() for k, number in enumerate(base)
         if not isinstance(number, str) for value in VALUES]


@pytest.mark.parametrize(("row", "k", "value"), CASES,
                         ids=[f"{row}-{k}-{value}" for row, k, value in CASES])
def test_a_call_at_an_extreme_returns_finite_values_or_raises_one_line(row, k, value):
    _, call, base = ROWS[row]
    args = list(base)
    args[k] = VALUES[value]
    previous = signal.signal(signal.SIGALRM, _late)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = call(*args)
            except (ValueError, EuclidPTError) as exc:
                result = exc
    except _Late:
        pytest.fail(f"no result within {SECONDS} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert not [str(w.message) for w in caught]
    if isinstance(result, BaseException):
        assert "\n" not in str(result) and str(result), repr(result)
    else:
        assert _finite(result), result
