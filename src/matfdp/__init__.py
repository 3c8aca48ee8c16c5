"""False discovery proportion estimation for two-sample tests on matrix data.

The package tests every cell of a ``p x q`` matrix for a mean difference
between two groups of matrix-valued observations and estimates the false
discovery proportion of the resulting rejection set under double dependence:
one correlation structure across rows and one across columns.

Three estimators are provided: ``noodle`` (top pairs of the Kronecker
spectrum of the two correlation estimates), ``sandwich`` (the same model on
the full top-``k1`` x top-``k2`` grid of pairs), and ``pfa`` (a
principal-factor baseline on the vectorised data).  A simulation
lab, dataset file format, and command-line interface sit on top.
"""

from .covfactor import (
    CorrEstimates,
    PairLoadings,
    build_noodle_loadings,
    build_sandwich_loadings,
    default_max_factors,
    eigenvalue_ratio,
    estimate_correlations,
    noodle_loadings_from_corr,
    sandwich_loadings_from_corr,
)
from .datafiles import read_dataset, write_dataset
from .errors import (
    DatasetFormatError,
    DegenerateVariance,
    InvalidFactorCount,
    InvalidMatrix,
    MatfdpError,
    NonPositiveEigenvalue,
    NotPsd,
)
from .linalg import (
    EigenSystem,
    KronEigenIndex,
    corr_from_cov,
    kron_eigenpairs,
    sym_eigen,
    symmetric_sqrt,
    unvec,
    vec,
)
from .noodle import FactorFit, fdp_noodle, fdp_oracle, fit_noodle
from .pfa import ThinFactor, build_thin_factor, fdp_pfa
from .rng import derive_rng
from .sandwich import fdp_sandwich, fit_sandwich
from .simlab import (
    METHODS,
    ExperimentResult,
    MethodSummary,
    ModelSpec,
    RoundFailure,
    RoundRecord,
    gen_correlations,
    gen_round,
    preset_spec,
    run_experiment,
)
from .teststats import (
    TestMatrix,
    TrueFdp,
    TwoSampleDataset,
    p_values,
    pooled_sigma,
    rejection_count,
    residuals,
    test_matrix,
    true_fdp,
)
from .trimreg import TrimmedFit, TrimSpec, trimmed_l1_fit

__version__ = "0.1.0"

__all__ = [
    "CorrEstimates",
    "DatasetFormatError",
    "DegenerateVariance",
    "EigenSystem",
    "ExperimentResult",
    "FactorFit",
    "InvalidFactorCount",
    "InvalidMatrix",
    "KronEigenIndex",
    "METHODS",
    "MatfdpError",
    "MethodSummary",
    "ModelSpec",
    "NonPositiveEigenvalue",
    "NotPsd",
    "PairLoadings",
    "RoundFailure",
    "RoundRecord",
    "TestMatrix",
    "ThinFactor",
    "TrimSpec",
    "TrimmedFit",
    "TrueFdp",
    "TwoSampleDataset",
    "build_noodle_loadings",
    "build_sandwich_loadings",
    "build_thin_factor",
    "corr_from_cov",
    "default_max_factors",
    "derive_rng",
    "eigenvalue_ratio",
    "estimate_correlations",
    "fdp_noodle",
    "fdp_oracle",
    "fdp_pfa",
    "fdp_sandwich",
    "fit_noodle",
    "fit_sandwich",
    "gen_correlations",
    "gen_round",
    "kron_eigenpairs",
    "noodle_loadings_from_corr",
    "p_values",
    "pooled_sigma",
    "preset_spec",
    "read_dataset",
    "rejection_count",
    "residuals",
    "run_experiment",
    "sandwich_loadings_from_corr",
    "sym_eigen",
    "symmetric_sqrt",
    "test_matrix",
    "trimmed_l1_fit",
    "true_fdp",
    "unvec",
    "vec",
    "write_dataset",
]
