"""Bad input to the library's public functions: one ValueError that names the argument."""

import math

import numpy as np
import pytest

from euclidpt import algebra, dyson, mathieu, spectral

NAN, INF = math.nan, math.inf
WAVE = spectral.pt1_closed_wavefunction(1.0, 0.4, -0.3, n=2)
THETA = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
UNKNOWN_TAG = r"^unknown symmetry tag 'PT6'; E2 has PT1, PT2, PT3, PT4, PT5$"

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
    **{f"{name}-trunc{trunc}": (call, rf"^trunc must be at least 3, got {trunc}$")
       for trunc in (0, 1, 2)
       for name, call in (
           ("coefficient_vector", lambda trunc=trunc: mathieu.coefficient_vector(
               1.0, mathieu.EVEN_PI, -0.4551386, trunc)),
           ("mathieu_function", lambda trunc=trunc: mathieu.mathieu_function(
               1.0, -0.4551386, "even", THETA, trunc)),
           ("pt5_complex_solution", lambda trunc=trunc: mathieu.pt5_complex_solution(
               1.0, 0.0, 0.25, THETA, trunc=trunc)))},
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_is_one_value_error_naming_the_argument(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()
