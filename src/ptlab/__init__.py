"""ptlab: finite-size phase transitions of l1 recovery under block-diagonal
and anisotropic Fourier undersampling.

Exact success-probability formulas for the box-constrained problem,
first/second-order finite-size offset predictions for all four coefficient
sets, seeded Monte-Carlo campaign machinery with quantal-response fitting,
and dense numerical verification of the structural equivalence results.
"""

__version__ = "0.1.0"

from .coeffsets import CoeffSet, SignalVector, count_free, norm_l1x, parse_coeffset, prox_step
from .ensembles import (MeasurementOperator, ProblemSizes, aniso_sampler_2d,
                        dbuse, iso_sampler_2d, make_block_diagonal,
                        partial_dft_block, partial_real_dft_block, rbpft,
                        rb_real_dft, rbuse, sample_signal, sample_use)
from .exactprob import (CriticalSparsity, binom_tail, continuum_ell0,
                        critical_ell, normal_approx, q_mb_exact, q_sb_exact,
                        tail_decay_check, uspensky_gap)
from .experiments import (ExperimentConfig, SuccessTable, TrialRecord,
                          run_phase_grid, run_trials)
from .inference import (Link, QuantalFit, SeparationError, TestDecision,
                        TestOutcome, empirical_pt, fit_quantal,
                        hypothesis_test)
from .oracle import OracleResult, lp_oracle
from .predict import (OffsetPrediction, asymptotic_pt, eta_shape,
                      gamma_factor, general_d_offset, mri_offset, predict_pt,
                      predict_pt_delta, zeta_shape)
from .solver import (SolveResult, SolveStatus, SolverOptions, declare_success,
                     relative_error, solve_batch, solve_p1)
from .verify import (EquivalenceReport, GramReport, check_equivalence,
                     check_gram_structure, check_isometry_factorization,
                     reduce_rank_deficient, run_verification_suite)
