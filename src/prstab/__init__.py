"""Stability analysis for phase retrieval: optimal Lipschitz constants,
condition numbers, universal floors, Gaussian-ensemble experiments, and
magnitude least-squares recovery."""

__version__ = "0.1.0"

from .linalg import (
    Field,
    FieldMismatchError,
    dist,
    dist_batch,
    eig_hermitian,
    gram,
    phaseless_map,
    spectral_norm,
)
from .harmonic import (
    HarmonicFrame,
    abs_sine_sum,
    abs_sine_sum_closed,
    abs_sine_sum_max,
    harmonic_condition_number,
    harmonic_extremal_pair,
    harmonic_frame,
    harmonic_lower_constant,
)
from .stability import (
    EnumerationCapError,
    FramePolar,
    PairCertificate,
    StabilityReport,
    condition_number,
    lower_lipschitz_exact_real,
    lower_lipschitz_numeric,
    optimize_frame_r2,
    real_beta_lower_bound,
    split_bound,
    universal_lower_bound,
    upper_lipschitz,
)
from .gaussian import (
    BetaEstimateRow,
    GaussianExperiment,
    box_muller,
    gaussian_beta_experiment,
    kernel_expectation_bound,
    kernel_expectation_complex,
    kernel_expectation_real,
    mc_kernel_expectation,
    sample_gaussian_matrix,
    stream_rng,
)
from .recovery import (
    ConditioningError,
    RecoveryProblem,
    RecoveryResult,
    check_error_bound,
    make_gaussian_problem,
    make_problem_for_matrix,
    solve_quadratic_model,
)
from .matrixio import MatrixFormatError, read_matrix, write_matrix

__all__ = [name for name in dir() if not name.startswith("_")]
