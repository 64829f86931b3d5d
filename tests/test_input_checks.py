"""Bad input to the library's public functions: one ValueError that names the argument."""

import math
import warnings

import numpy as np
import pytest

from euclidpt import algebra, dyson, e3, mathieu, spectral

NAN, INF = math.nan, math.inf
WAVE = spectral.pt1_closed_wavefunction(1.0, 0.4, -0.3, n=2)
THETA = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
UNKNOWN_TAG = r"^unknown symmetry tag 'PT6'; E2 has PT1, PT2, PT3, PT4, PT5$"
TEMPLATE = spectral.SweepTemplate(family="pt5-three", truncation=8, track_levels=2)
SPAN = r"^lo, hi and hi - lo must be finite, got "
HAMILTONIAN = algebra.build_hamiltonian("PT5", [1.0, 0.3, 0.0, 0.5, 0.8, 0.4, -0.5, 0.7, 0.0])
SPECTRUM = spectral.eigen_spectrum(TEMPLATE.problem_at("mu3", 0.5))
E3_PARAMS = e3.DysonParamsE3(0.2, 0.1, -0.3, 0.4, 0.0, 0.5)
E3_WORDS = r": a word is written in the order Pz Pp Pm Jz Jp Jm$"

CASES = {
    "pt_image-tag": (lambda: spectral.pt_image(WAVE, "PT6", THETA), UNKNOWN_TAG),
    "pt_eigenstate_check-tag": (lambda: spectral.pt_eigenstate_check(WAVE, "PT6"), UNKNOWN_TAG),
    "apply_pt-tag": (lambda: algebra.apply_pt("PT6", algebra.U), UNKNOWN_TAG),
    "build_hamiltonian-tag": (lambda: algebra.build_hamiltonian("PT6", [0.0] * 9), UNKNOWN_TAG),
    "hermitize-tag": (lambda: dyson.hermitize("PT6"), UNKNOWN_TAG),
    "ep_predictions-inf": (lambda: dyson.ep_predictions_pt5(INF, 3, 0, "mu7"),
                           r"^mu3 must be finite, got inf$"),
    "ep_predictions-nan": (lambda: dyson.ep_predictions_pt5(1, 3, NAN, "mu3"),
                           r"^mu7 must be finite, got nan$"),
    "optical_lattice-inf": (lambda: dyson.optical_lattice_map(INF, 0, 1),
                            r"^mu7 must be finite, got inf$"),
    "double_points-nan": (lambda: dyson.pt5_double_point_predictions(NAN, 3, 0, "mu7"),
                          r"^mu3 must be finite, got nan$"),
    "ep_predictions-overflow": (lambda: dyson.ep_predictions_pt5(1e200, 3, 0, "mu7"),
                                r"^the EP prediction overflows floating point at "
                                r"mu3=1e\+200, mu4=3$"),
    "double_points-overflow": (lambda: dyson.pt5_double_point_predictions(1e200, 3, 0, "mu7"),
                               r"^the double-point prediction overflows floating point at "
                               r"mu3=1e\+200, mu4=3$"),
    "optical_lattice-overflow": (lambda: dyson.optical_lattice_map(1e308, -1e308, 1),
                                 r"^the optical-lattice map overflows floating point at "
                                 r"mu7=1e\+308, mu8=-1e\+308, mu9=1$"),
    "pt1_spectrum-mu1": (lambda: spectral.pt1_closed_spectrum(NAN, 0.3, 1),
                         r"^mu1 must be finite, got nan$"),
    "pt1_spectrum-mu3": (lambda: spectral.pt1_closed_spectrum(1.0, INF, 1),
                         r"^mu3 must be finite, got inf$"),
    "pt1_wavefunction-mu4": (lambda: spectral.pt1_closed_wavefunction(1.0, 0.4, NAN, 2),
                             r"^mu4 must be finite, got nan$"),
    "characteristic_values-nan": (lambda: mathieu.characteristic_values(NAN, mathieu.EVEN_PI, 2),
                                  r"^q must be finite, got nan$"),
    "characteristic_values-complex": (
        lambda: mathieu.characteristic_values(complex(1.0, INF), mathieu.EVEN_PI, 2),
        r"^q must be finite, got \(1\+infj\)$"),
    "coefficient_vector-q": (lambda: mathieu.coefficient_vector(NAN, mathieu.EVEN_PI, 0.0),
                             r"^q must be finite, got nan$"),
    "coefficient_vector-a": (lambda: mathieu.coefficient_vector(1.0, mathieu.EVEN_PI, NAN),
                             r"^a must be finite, got nan$"),
    "mathieu_function-q": (lambda: mathieu.mathieu_function(NAN, 0.0, "even", THETA),
                           r"^q must be finite, got nan$"),
    "mathieu_function-a": (lambda: mathieu.mathieu_function(1.0, INF, "odd", THETA),
                           r"^a must be finite, got inf$"),
    # lam = arcoth(K2) rounds to 0, where coth(lam) = 1/tanh(lam) divides
    "hermitize-lam-zero": (lambda: dyson.hermitize("PT5", mu1=1e300, mu2=0.3, mu4=0.5, mu5=0.8,
                                                   mu6=0.4, mu7=-0.5, mu8=0.7),
                           r"^PT5 hermitization overflows floating point at mu1=1e\+300, "),
    "reduce-lam-zero": (lambda: dyson.reduce_pt5_three_param(1e-300, 0.5, 0.0),
                        r"^the three-parameter reduction overflows floating point at "
                        r"mu3=1e-300, mu4=0.5$"),
    "hermitize-pt1-overflow": (lambda: dyson.hermitize("PT1", mu1=1e-300, lam=0.3, mu3=0.2),
                               r"^PT1 hermitization overflows floating point at lam=0.3, "),
    "normalized-gauge": (lambda: spectral.WavefunctionSpec(np.ones(3), gauge=(0.0, 1e3j))
                         .normalized(),
                         r"^\|psi\|\^2 overflows floating point: its gauge reaches "
                         r"exp\(1000.0\)$"),
    "normalized-square": (lambda: spectral.WavefunctionSpec(np.ones(3), gauge=(0.0, 400j))
                          .normalized(), r"gauge reaches exp\(400.0\)$"),
    "sweep-lo": (lambda: spectral.sweep(TEMPLATE, "mu4", NAN, 1, 5), SPAN + r"lo=nan, hi=1$"),
    "sweep-hi": (lambda: spectral.sweep(TEMPLATE, "mu4", 0, INF, 5), SPAN + r"lo=0, hi=inf$"),
    "sweep-span": (lambda: spectral.sweep(TEMPLATE, "mu4", -1e308, 1e308, 5),
                   SPAN + r"lo=-1e\+308, hi=1e\+308$"),
    **{f"intensity_sweep-{name}": (
        lambda values=values: spectral.intensity_sweep(TEMPLATE, "mu3", values, 3.0, THETA),
        rf"^values must be finite, got {bad}$")
       for name, values, bad in (("first", [NAN, 0.6], "nan"), ("one", [NAN], "nan"),
                                 ("last", [0.5, INF], "inf"))},
    "pt_eigenstate_check-tol-nan": (lambda: spectral.pt_eigenstate_check(WAVE, "PT5", tol=NAN),
                                    r"^tol must be nonnegative, got nan$"),
    "pt_eigenstate_check-tol-negative": (
        lambda: spectral.pt_eigenstate_check(WAVE, "PT5", tol=-1),
        r"^tol must be nonnegative, got -1$"),
    "pt_eigenstate_check-grid": (lambda: spectral.pt_eigenstate_check(WAVE, "PT5", grid=[]),
                                 r"^grid must hold at least one angle$"),
    "pt_eigenstate_check-grid-nan": (
        lambda: spectral.pt_eigenstate_check(WAVE, "PT5", grid=[0.0, NAN]),
        r"^grid must be finite, got nan$"),
    "sweep-steps": (lambda: spectral.sweep(TEMPLATE, "mu4", 0, 1, 2.5),
                    r"^steps must be an integer, got 2.5$"),
    **{f"intensity_sweep-near_energy-{len(values)}": (
        lambda values=values: spectral.intensity_sweep(TEMPLATE, "mu3", values, NAN, THETA),
        r"^near_energy must be finite, got nan$") for values in ([0.5], [0.5, 0.6])},
    "pair_intensities-near_energy": (
        lambda: spectral.pair_intensities(TEMPLATE.problem_at("mu3", 0.5), NAN, THETA),
        r"^near_energy must be finite, got nan$"),
    **{f"{name}-theta-{label}": (call, message)
       for label, theta, message in (("nan", [NAN], r"^theta must be finite, got nan$"),
                                     ("inf", [0.0, INF], r"^theta must be finite, got inf$"),
                                     ("empty", [], r"^theta must hold at least one angle$"))
       for name, call in (
           ("intensity_sweep", lambda theta=theta: spectral.intensity_sweep(
               TEMPLATE, "mu3", [0.5, 0.6], 3.0, theta)),
           ("pair_intensities", lambda theta=theta: spectral.pair_intensities(
               TEMPLATE.problem_at("mu3", 0.5), 3.0, theta)))},
    **{f"similarity_transform-lam{lam:g}": (
        lambda lam=lam: dyson.similarity_transform(dyson.DysonParamsE2(lam, 0.2), HAMILTONIAN),
        rf"^the Dyson map overflows floating point at lam={lam}, rho=0.2$")
       for lam in (700.0, 800.0, -800.0)},
    **{f"adjoint_generator-{g}": (
        lambda g=g: dyson.adjoint_generator(dyson.DysonParamsE2(800.0), g),
        r"^the Dyson map overflows floating point at lam=800.0$") for g in ("u", "v", "J")},
    "adjoint_generator-J-rho": (
        lambda: dyson.adjoint_generator(dyson.DysonParamsE2(700.0, 1e300), "J"),
        r"^the Dyson map overflows floating point at lam=700.0, rho=1e\+300$"),
    **{f"{name}-trunc{trunc}": (call, rf"^trunc must be at least 3, got {trunc}$")
       for trunc in (0, 1, 2)
       for name, call in (
           ("coefficient_vector", lambda trunc=trunc: mathieu.coefficient_vector(
               1.0, mathieu.EVEN_PI, -0.4551386, trunc)),
           ("mathieu_function", lambda trunc=trunc: mathieu.mathieu_function(
               1.0, -0.4551386, "even", THETA, trunc)),
           ("pt5_complex_solution", lambda trunc=trunc: mathieu.pt5_complex_solution(
               1.0, 0.0, 0.25, THETA, trunc=trunc)))},
    **{f"select_pair-near_energy-{bad}": (
        lambda bad=bad: spectral.select_pair(SPECTRUM, bad),
        rf"^near_energy must be finite, got {bad}$") for bad in (NAN, INF, -INF)},
    "intensity-grid": (lambda: spectral.intensity(WAVE, [0.0, NAN]),
                       r"^theta must be finite, got nan$"),
    "pt_image-theta": (lambda: spectral.pt_image(WAVE, "PT5", [NAN]),
                       r"^theta must be finite, got nan$"),
    "mathieu_function-z": (lambda: mathieu.mathieu_function(1.0, -0.4551386, "even", [NAN]),
                           r"^z must be finite, got nan$"),
    "pt5_complex_solution-theta": (lambda: mathieu.pt5_complex_solution(0.0, 0.0, 0.0, [NAN]),
                                   r"^theta must be finite, got nan$"),
    "characteristic_values-count": (
        lambda: mathieu.characteristic_values(1.0, mathieu.EVEN_PI, 1.5),
        r"^count must be an integer, got 1.5$"),
    "characteristic_values-trunc": (
        lambda: mathieu.characteristic_values(1.0, mathieu.EVEN_PI, 3, 20.5),
        r"^trunc must be an integer, got 20.5$"),
    "intensity_sweep-values-shape": (
        lambda: spectral.intensity_sweep(TEMPLATE, "mu3", [[0.1, 0.2]], 3.0, THETA),
        r"^values must be a sequence of numbers, got shape \(1, 2\)$"),
    "trusted_count-negative": (lambda: spectral.trusted_count(-1),
                               r"^truncation must be at least 4, got -1$"),
    "trusted_count-float": (lambda: spectral.trusted_count(16.5),
                            r"^truncation must be an integer, got 16.5$"),
    "SpectralProblem-truncation-float": (
        lambda: spectral.SpectralProblem(algebra.E2Element.from_terms(J2=1), truncation=8.5),
        r"^truncation must be an integer, got 8.5$"),
    "SweepTemplate-truncation-float": (lambda: spectral.SweepTemplate(truncation=8.5),
                                       r"^truncation must be an integer, got 8.5$"),
    "similarity_transform-element": (
        lambda: dyson.similarity_transform(dyson.DysonParamsE2(0.1),
                                           algebra.E2Element.from_terms(u=NAN)),
        r"^H must be finite, got \(nan\+0j\)$"),
    "normalized-coeffs": (lambda: spectral.WavefunctionSpec(np.array([NAN + 0j])).normalized(),
                          r"^coeffs must be finite, got \(nan\+0j\)$"),
    "pt_eigenstate_check-state": (
        lambda: spectral.pt_eigenstate_check(spectral.WavefunctionSpec(np.array([NAN + 0j])),
                                             "PT5"),
        r"^coeffs must be finite, got \(nan\+0j\)$"),
    "pt_eigenstate_check-state-inf": (
        lambda: spectral.pt_eigenstate_check(spectral.WavefunctionSpec(np.array([INF + 0j])),
                                             "PT5"),
        r"^coeffs must be finite, got \(inf\+0j\)$"),
    **{f"WavefunctionSpec-{name}": (lambda fields=fields: spectral.WavefunctionSpec(**fields),
                                    message)
       for name, fields, message in (
           ("step-zero", {"coeffs": np.ones(3), "step": 0}, r"^step must be at least 1, got 0$"),
           ("step-negative", {"coeffs": np.ones(3), "step": -1},
            r"^step must be at least 1, got -1$"),
           ("first-float", {"coeffs": np.ones(3), "first": 1.5},
            r"^first must be an integer, got 1.5$"),
           ("sector-nan", {"coeffs": np.ones(3), "sector": NAN},
            r"^sector must be finite, got nan$"),
           ("coeffs-2d", {"coeffs": np.ones((2, 2))},
            r"^coeffs must be a nonempty vector, got shape \(2, 2\)$"),
           ("coeffs-empty", {"coeffs": np.ones(0)},
            r"^coeffs must be a nonempty vector, got shape \(0,\)$"))},
    "normalized-zero": (lambda: spectral.WavefunctionSpec(np.zeros(3)).normalized(),
                        r"^psi cannot be normalized: its computed L\^2 norm is 0$"),
    "SweepTemplate-track_levels-float": (
        lambda: spectral.SweepTemplate(truncation=8, track_levels=2.5),
        r"^track_levels must be an integer, got 2.5$"),
    "complex_mathieu_eps-scan_steps": (
        lambda: mathieu.complex_mathieu_eps(2.0, mathieu.EVEN_PI, scan_steps=2.5),
        r"^scan_steps must be an integer, got 2.5$"),
    "bisect_transition-tol": (lambda: spectral.bisect_transition(bool, 0.0, 1.0, NAN),
                              r"^tol must be nonnegative, got nan$"),
    "bisect_transition-lo": (lambda: spectral.bisect_transition(bool, NAN, 1.0, 1e-3),
                             r"^lo must be finite, got nan$"),
    "image-generator": (lambda: e3.e3_adjoint(E3_PARAMS).image("X"),
                        r"^unknown generator 'X'; E3 has Pz, Pp, Pm, Jz, Jp, Jm$"),
    "pt1_spectrum-overflow-n": (lambda: spectral.pt1_closed_spectrum(1.0, 0.5, 1e300),
                                r"^the PT1 level overflows floating point at mu1=1.0, mu3=0.5, "
                                r"n=1e\+300$"),
    "pt1_spectrum-overflow-ratio": (lambda: spectral.pt1_closed_spectrum(1e-300, 1e300, 1),
                                    r"^the PT1 level overflows floating point at mu1=1e-300, "
                                    r"mu3=1e\+300, n=1$"),
    "pt5_complex_hamiltonian-inf": (lambda: mathieu.pt5_complex_hamiltonian(INF, 0.5),
                                    r"^mu4 must be finite, got inf$"),
    "pt5_complex_hamiltonian-overflow": (
        lambda: mathieu.pt5_complex_hamiltonian(1e200, 0.5),
        r"^the complex-Mathieu family overflows floating point at mu4=1e\+200, mu6=0.5$"),
    "transform_h_tilde-element": (
        lambda: e3.transform_h_tilde(E3_PARAMS, e3.E3Element.from_terms({"Pz": NAN})),
        r"^H must be finite, got \(nan\+0j\)$"),
    "transform_h_tilde-overflow": (
        lambda: e3.transform_h_tilde(E3_PARAMS, 1e308 * e3.build_h_tilde_pt1([1.0] * 9)),
        r"^the Dyson map overflows floating point at lambda_z=0.2, lambda_plus=0.1, "
        r"lambda_minus=-0.3, kappa_z=0.4, kappa_minus=0.5$"),
    "from_terms-E2-label": (lambda: algebra.E2Element.from_terms(w=1.0),
                            r"^unknown E2 basis label 'w'$"),
    "term-E2-label": (lambda: algebra.U.term("J3"), r"^unknown E2 basis label 'J3'$"),
    "from_terms-E3-reversed": (lambda: e3.E3Element.from_terms({"Jp*Pz": 1.0}),
                               r"^unknown E3 basis label 'Jp\*Pz'" + E3_WORDS),
    "term-E3-label": (lambda: e3.ONE_E3.term("Qz"), r"^unknown E3 basis label 'Qz'" + E3_WORDS),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_is_one_value_error_naming_the_argument(case):
    call, message = CASES[case]
    with warnings.catch_warnings(), pytest.raises(ValueError, match=message):
        warnings.simplefilter("error")
        call()
