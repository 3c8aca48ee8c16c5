import numpy as np
import pytest

from matfdp.covfactor import (
    NORM_SQ_CEIL,
    build_noodle_loadings,
    build_sandwich_loadings,
    default_max_factors,
    eigenvalue_ratio,
    estimate_correlations,
    noodle_loadings_from_corr,
    sandwich_loadings_from_corr,
)
from matfdp.errors import InvalidFactorCount, NonPositiveEigenvalue
from matfdp.rng import derive_rng
from matfdp.teststats import TwoSampleDataset, test_matrix

from helpers import matrix_normal_dataset, random_corr, residual_stack


def correlated_dataset(seed, n=8, m=9, p=5, q=6):
    u = random_corr(np.random.default_rng(seed), p)
    v = random_corr(np.random.default_rng(seed + 1), q)
    return matrix_normal_dataset(u, v, n, m, derive_rng(seed))


def estimates_for(ds):
    return estimate_correlations(ds, test_matrix(ds).sigma_hat)


def test_unit_diagonals_and_symmetry():
    for seed in range(5):
        ds = correlated_dataset(seed)
        ce = estimates_for(ds)
        assert np.max(np.abs(np.diag(ce.sigma1) - 1.0)) <= 1e-10
        assert np.max(np.abs(np.diag(ce.sigma2) - 1.0)) <= 1e-10
        assert np.array_equal(ce.sigma1, ce.sigma1.T)
        assert np.array_equal(ce.sigma2, ce.sigma2.T)


def test_trace_identities():
    ds = correlated_dataset(3)
    ce = estimates_for(ds)
    assert ce.eig1.values.sum() == pytest.approx(ds.p, abs=1e-8)
    assert ce.eig2.values.sum() == pytest.approx(ds.q, abs=1e-8)


def test_independent_data_recovers_identity():
    # Large balanced groups, independent cells: off-diagonals shrink.
    rng = derive_rng(12)
    y = rng.standard_normal((200, 5, 5))
    z = rng.standard_normal((200, 5, 5))
    ds = TwoSampleDataset(y, z)
    ce = estimates_for(ds)
    off1 = ce.sigma1 - np.eye(5)
    off2 = ce.sigma2 - np.eye(5)
    assert np.max(np.abs(off1)) < 0.15
    assert np.max(np.abs(off2)) < 0.15


def test_single_row_matrix_gives_trivial_sigma1():
    rng = derive_rng(13)
    ds = TwoSampleDataset(
        rng.standard_normal((4, 1, 6)), rng.standard_normal((5, 1, 6))
    )
    ce = estimates_for(ds)
    assert ce.sigma1.shape == (1, 1)
    assert ce.sigma1[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_estimator_matches_direct_formula():
    # Direct per-observation outer-product oracle against the vectorised path.
    ds = correlated_dataset(21, n=6, m=5, p=4, q=3)
    sigma = test_matrix(ds).sigma_hat
    ce = estimate_correlations(ds, sigma)
    df = ds.n + ds.m - 2
    s1 = np.zeros((ds.p, ds.p))
    s2 = np.zeros((ds.q, ds.q))
    for r in residual_stack(ds, sigma):
        s1 += r @ r.T
        s2 += r.T @ r
    assert np.allclose(ce.sigma1, s1 / (df * ds.q), rtol=0, atol=1e-12)
    assert np.allclose(ce.sigma2, s2 / (df * ds.p), rtol=0, atol=1e-12)


def test_default_max_factors():
    assert default_max_factors(100) == 20
    assert default_max_factors(99) == 19
    assert default_max_factors(5) == 1


def test_eigenvalue_ratio_examples():
    assert eigenvalue_ratio([10.0, 5.0, 4.0, 0.1], 3) == 3
    assert eigenvalue_ratio([8.0, 2.0, 1.9, 1.8], 3) == 1
    # Tie: positions 1 and 2 share the max ratio, smallest wins.
    assert eigenvalue_ratio([4.0, 2.0, 1.0, 0.9], 3) == 1
    # One ulp from that tie decides it: lowering either 4.0 or 1.0 by one ulp
    # makes position 2 win; raising either keeps position 1.
    assert eigenvalue_ratio([np.nextafter(4.0, 0.0), 2.0, 1.0], 2) == 2
    assert eigenvalue_ratio([4.0, 2.0, np.nextafter(1.0, 0.0)], 2) == 2
    assert eigenvalue_ratio([np.nextafter(4.0, 8.0), 2.0, 1.0], 2) == 1
    assert eigenvalue_ratio([4.0, 2.0, np.nextafter(1.0, 2.0)], 2) == 1


def test_eigenvalue_ratio_caps_null_tail():
    # Third value is numerically zero relative to the first: only the first
    # ratio is usable.
    values = [10.0, 5.0, 1e-14, 1e-15]
    assert eigenvalue_ratio(values, 3) == 1


def test_eigenvalue_ratio_errors():
    with pytest.raises(NonPositiveEigenvalue):
        eigenvalue_ratio([0.0, 0.0], 1)
    with pytest.raises(NonPositiveEigenvalue):
        eigenvalue_ratio([1.0, 1e-20, 1e-20], 2)
    with pytest.raises(NonPositiveEigenvalue, match="at least two"):
        eigenvalue_ratio([3.0], 1)
    # Unsorted: 0.9 keeps two values above the floor, so the examined prefix
    # is [1.0, -0.5].
    with pytest.raises(NonPositiveEigenvalue, match="inside the examined prefix"):
        eigenvalue_ratio([1.0, -0.5, 0.9], 2)
    with pytest.raises(ValueError):
        eigenvalue_ratio([2.0, 1.0], 0)


def check_one_pair_hand_case(select, counts):
    # The top pair of a 2 x 2 correlation with itself is the 1 x 1 grid: the
    # leading eigenvalue is 1.5 on each side, with eigenvector (1, 1) / sqrt(2).
    half = np.array([[1.0, 0.5], [0.5, 1.0]])
    loadings = select(half, half, *counts)
    assert loadings.values.tolist() == pytest.approx([2.25], rel=0, abs=1e-12)
    for eig, vectors in zip((loadings.eig1, loadings.eig2), loadings.vector_factors()):
        np.testing.assert_allclose(vectors**2, 0.5, rtol=0, atol=1e-12)
        np.testing.assert_allclose(eig.values[0] * vectors**2, 0.75, rtol=0, atol=1e-12)
    np.testing.assert_allclose(loadings.row_norms_sq, 0.5625, rtol=0, atol=1e-12)
    a = 1.0 / np.sqrt(1.0 - loadings.row_norms_sq)  # the plug-in's scale
    np.testing.assert_allclose(a, 1.5118578920369088, rtol=0, atol=1e-12)
    # Perfectly correlated both ways: the one pair carries every cell, whose
    # squared norm of 1 stops at the ceiling.
    ones = np.ones((2, 2))
    assert np.all(select(ones, ones, *counts).row_norms_sq == NORM_SQ_CEIL)


def test_noodle_loadings_hand_case():
    check_one_pair_hand_case(noodle_loadings_from_corr, (1,))


def test_sandwich_loadings_hand_case():
    check_one_pair_hand_case(sandwich_loadings_from_corr, (1, 1))


def test_noodle_loadings_factor_count_bounds():
    with pytest.raises(InvalidFactorCount):
        noodle_loadings_from_corr(np.eye(2), np.eye(2), 5)
    with pytest.raises(InvalidFactorCount):
        noodle_loadings_from_corr(np.eye(2), np.eye(2), -1)


def test_sandwich_factor_count_bounds():
    with pytest.raises(InvalidFactorCount):
        sandwich_loadings_from_corr(np.eye(2), np.eye(2), 3, 1)
    with pytest.raises(InvalidFactorCount):
        sandwich_loadings_from_corr(np.eye(2), np.eye(2), 1, -1)


def test_build_from_estimates_data_driven_counts():
    ds = correlated_dataset(55, n=30, m=30, p=8, q=8)
    ce = estimates_for(ds)
    nl = build_noodle_loadings(ce)
    sl = build_sandwich_loadings(ce)
    cap = default_max_factors(ce.n_total)
    assert 1 <= nl.h <= cap
    assert 1 <= sl.k1 <= cap and 1 <= sl.k2 <= cap
