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

The top level exports the pipeline (statistics, correlations, loadings,
fit, plug-in FDP) with its result types; lower-level
pieces (``linalg``'s primitives, ``eigenvalue_ratio``, ``trimmed_l1_fit``)
are imported from their own modules.
"""

from .covfactor import (
    CorrEstimates,
    PairLoadings,
    build_noodle_loadings,
    build_sandwich_loadings,
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
from .noodle import FactorFit, fdp_noodle, fdp_oracle, fit_noodle
from .pfa import fdp_pfa
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
    rejection_count,
    test_matrix,
    true_fdp,
)

__version__ = "0.1.0"

__all__ = [
    # Data.
    "TwoSampleDataset",
    "read_dataset",
    "write_dataset",
    # Statistics.
    "test_matrix",
    "TestMatrix",
    "p_values",
    "rejection_count",
    "true_fdp",
    "TrueFdp",
    # Estimation.
    "estimate_correlations",
    "CorrEstimates",
    "build_noodle_loadings",
    "build_sandwich_loadings",
    "PairLoadings",
    "fit_noodle",
    "fit_sandwich",
    "FactorFit",
    "fdp_noodle",
    "fdp_sandwich",
    "fdp_pfa",
    # Oracle.
    "fdp_oracle",
    "noodle_loadings_from_corr",
    "sandwich_loadings_from_corr",
    # Simulation.
    "METHODS",
    "ModelSpec",
    "preset_spec",
    "gen_correlations",
    "gen_round",
    "run_experiment",
    "ExperimentResult",
    "RoundRecord",
    "RoundFailure",
    "MethodSummary",
    "derive_rng",
    # Errors.
    "MatfdpError",
    "DatasetFormatError",
    "DegenerateVariance",
    "InvalidFactorCount",
    "InvalidMatrix",
    "NonPositiveEigenvalue",
    "NotPsd",
]
