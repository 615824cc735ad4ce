"""gibbslab: a desk-scale laboratory comparing the grand-canonical Gibbs
state of a trapped 1D Bose gas with the classical Gibbs measure of its
mean-field energy functional.

One side samples the Gaussian free field measure mode by mode and reweights
it by the quartic interaction; the other exactly diagonalizes the second
quantized Hamiltonian on a truncated Fock space. The convergence driver
rescales the quantum k-body density matrices by k!/T^k along a schedule of
temperatures with coupling ~ 1/T and measures their trace-norm distance to
the classical moments, together with the free-energy offset against
-log Z_r.
"""

from .classical import (ClassicalFreeEnergy, MeanInteraction, MomentMatrix,
                        WeightedEnsemble, classical_relative_free_energy,
                        free_moments, mean_F_NL_free, moment_matrix, reweight,
                        sample_free)
from .convergence import (CheckResult, ExperimentConfig, ReportRow,
                          emit_report, evaluate_properties, parse_config,
                          read_config, run_convergence, run_selfchecks)
from .fock import (DiagonalState, FockBasis, FockOperator, FockState,
                   ThermalPoint, build_fock_basis, build_hamiltonian,
                   choose_n_max, energy_decomposition, gibbs_state, ladder,
                   particle_number, reduced_density_matrix,
                   reduced_dm_normal_ordered, relative_entropy,
                   relative_free_energy, solve_point)
from .metrics import hs_distance, trace_norm_distance
from .semiclassics import (BLGap, CoherentVector, TailWarning,
                           berezin_lieb_gap, coherent, husimi_density,
                           trial_state)
from .spectral import (InteractionKernel, OneBodySpec, SpectralBasis,
                       TwoBodyTensor, build_operator, eigendecompose,
                       interaction_elements, schatten_trace)

__version__ = "0.1.0"
