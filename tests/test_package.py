"""Tests for the package's public namespace and its error types."""

import pickle

import pytest

import matfdp
from matfdp import errors

PIPELINE = {
    # Data.
    "TwoSampleDataset", "read_dataset", "write_dataset",
    # Statistics.
    "test_matrix", "TestMatrix", "p_values", "rejection_count", "true_fdp", "TrueFdp",
    # Estimation.
    "estimate_correlations", "CorrEstimates", "build_noodle_loadings",
    "build_sandwich_loadings", "PairLoadings", "fit_noodle", "fit_sandwich", "FactorFit",
    "fdp_noodle", "fdp_sandwich", "fdp_pfa",
    # Oracle.
    "fdp_oracle", "noodle_loadings_from_corr", "sandwich_loadings_from_corr",
    # Simulation.
    "METHODS", "ModelSpec", "preset_spec", "gen_correlations", "gen_round",
    "run_experiment", "ExperimentResult", "RoundRecord", "RoundFailure", "MethodSummary",
    "derive_rng",
    # Errors.
    "MatfdpError", "DatasetFormatError", "DegenerateVariance", "InvalidFactorCount",
    "InvalidMatrix", "NonPositiveEigenvalue", "NotPsd",
}


def test_public_names_resolve_and_none_repeats():
    assert len(set(matfdp.__all__)) == len(matfdp.__all__)
    for name in matfdp.__all__:
        assert getattr(matfdp, name) is not None


def test_public_names_are_the_pipeline():
    assert len(PIPELINE) == 41
    assert set(matfdp.__all__) == PIPELINE


@pytest.mark.parametrize(
    "module,name",
    [
        ("linalg", name)
        for name in ("EigenSystem", "KronEigenIndex", "kron_eigenpairs", "sym_eigen",
                     "symmetric_sqrt")
    ]
    + [
        ("covfactor", "default_max_factors"),
        ("covfactor", "eigenvalue_ratio"),
        ("trimreg", "TrimmedFit"),
        ("trimreg", "trimmed_l1_fit"),
    ],
)
def test_unexported_names_resolve_from_their_modules(module, name):
    assert name not in matfdp.__all__
    assert getattr(getattr(matfdp, module), name) is not None


ERROR_ARGS = {
    errors.DegenerateVariance: (1, 2),
    errors.DatasetFormatError: ("cannot parse x.csv", "x.csv"),
}


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)],
    ids=lambda c: c.__name__,
)
def test_errors_survive_a_pickle_round_trip(cls):
    # An error raised in one process must be able to cross a pipe to another.
    exc = cls(*ERROR_ARGS.get(cls, ("message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
