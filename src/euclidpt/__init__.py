"""PT-symmetric Euclidean-algebra Hamiltonians: Dyson maps, spectra, Mathieu tools."""

from .algebra import (E2Element, PT_SYMMETRIES, apply_pt, build_hamiltonian,
                      casimir, hermitian_conjugate, is_hermitian, multiply)
from .dyson import (DysonParamsE2, HermitizationResult, adjoint_generator,
                    ep_predictions_pt5, hermitize, optical_lattice_map,
                    pt5_double_point_predictions, pt5_three_param_hamiltonian,
                    reduce_pt5_three_param, similarity_transform)
from .errors import (ConvergenceFailure, DegenerateCouplings, DegreeOverflow,
                     EuclidPTError, MapUndefined, TrackingAmbiguity)
from .mathieu import (MathieuClass, characteristic_values, complex_mathieu_eps,
                      mathieu_function, pt5_complex_hamiltonian,
                      pt5_complex_solution)
from .spectral import (ExceptionalPoint, SpectralProblem, Spectrum, SweepResult,
                       SweepTemplate, WavefunctionSpec, build_matrix,
                       eigen_spectrum, find_exceptional_points, intensity,
                       pt1_closed_spectrum, pt_eigenstate_check, sweep,
                       wavefunction)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
