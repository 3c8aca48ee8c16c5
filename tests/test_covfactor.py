import numpy as np
import pytest

from matfdp.covfactor import (
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

from helpers import random_corr, sample_matrix_normal_stack, side_loadings


def correlated_dataset(seed, n=8, m=9, p=5, q=6):
    rng = derive_rng(seed)
    u = random_corr(np.random.default_rng(seed), p)
    v = random_corr(np.random.default_rng(seed + 1), q)
    y = sample_matrix_normal_stack(np.zeros((p, q)), u, v, n, rng)
    z = sample_matrix_normal_stack(np.zeros((p, q)), u, v, m, rng)
    return TwoSampleDataset(y, z)


def estimates_for(ds):
    return estimate_correlations(ds, test_matrix(ds).sigma_hat)


def test_unit_diagonals_and_symmetry():
    for seed in range(5):
        ds = correlated_dataset(seed)
        ce = estimates_for(ds)
        assert np.max(np.abs(np.diag(ce.sigma1) - 1.0)) <= 1e-10
        assert np.max(np.abs(np.diag(ce.sigma2) - 1.0)) <= 1e-10
        assert np.allclose(ce.sigma1, ce.sigma1.T, atol=1e-12)
        assert np.allclose(ce.sigma2, ce.sigma2.T, atol=1e-12)


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
    ybar = ds.treatment.mean(axis=0)
    zbar = ds.control.mean(axis=0)
    s1 = np.zeros((ds.p, ds.p))
    s2 = np.zeros((ds.q, ds.q))
    for obs, mean in [(o, ybar) for o in ds.treatment] + [(o, zbar) for o in ds.control]:
        r = (obs - mean) / sigma
        s1 += r @ r.T
        s2 += r.T @ r
    assert np.allclose(ce.sigma1, s1 / (df * ds.q), atol=1e-12)
    assert np.allclose(ce.sigma2, s2 / (df * ds.p), atol=1e-12)


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


def test_noodle_loadings_hand_case():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    nl = noodle_loadings_from_corr(s, s, 1)
    assert nl.values[0] == pytest.approx(2.25, abs=1e-12)
    assert np.allclose(np.abs(nl.eig1.vectors[:, 0]), np.sqrt(0.5), atol=1e-12)
    assert np.allclose(nl.row_norms_sq, 0.5625, atol=1e-12)


def test_noodle_loadings_zero_factors():
    nl = noodle_loadings_from_corr(np.eye(3), np.eye(2), 0)
    assert nl.h == 0
    assert np.allclose(nl.row_norms_sq, 0.0)


def test_noodle_loadings_clamp_at_one():
    ones = np.ones((2, 2))
    # Perfectly correlated both ways: the single factor carries everything.
    nl = noodle_loadings_from_corr(ones, ones, 1)
    assert np.allclose(nl.row_norms_sq, 1.0 - 1e-8, atol=1e-12)


def test_noodle_row_norms_match_dense():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p, q = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        s1 = random_corr(rng, p)
        s2 = random_corr(rng, q)
        h = int(rng.integers(1, p * q + 1))
        nl = noodle_loadings_from_corr(s1, s2, h)
        # Dense oracle: rows of the explicit scaled eigenvector block.
        f_cols = np.stack(
            [
                np.sqrt(max(nl.values[k], 0.0))
                * np.kron(nl.eig2.vectors[:, nl.idx2[k]], nl.eig1.vectors[:, nl.idx1[k]])
                for k in range(h)
            ],
            axis=1,
        )
        dense = (f_cols**2).sum(axis=1)
        norms = np.ravel(nl.row_norms_sq, order="F")
        assert np.allclose(norms, np.minimum(dense, 1.0 - 1e-8), atol=1e-10)


def test_noodle_loadings_factor_count_bounds():
    with pytest.raises(InvalidFactorCount):
        noodle_loadings_from_corr(np.eye(2), np.eye(2), 5)
    with pytest.raises(InvalidFactorCount):
        noodle_loadings_from_corr(np.eye(2), np.eye(2), -1)


def test_sandwich_loadings_hand_case():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    sl = sandwich_loadings_from_corr(s, s, 1, 1)
    left, right = side_loadings(sl)
    assert np.allclose((left**2).sum(axis=1), 0.75, atol=1e-12)
    assert np.allclose((right**2).sum(axis=1), 0.75, atol=1e-12)
    norms = sl.row_norms_sq
    assert np.allclose(norms, 0.5625, atol=1e-12)
    d = 1.0 / np.sqrt(1.0 - norms[0, 0])
    assert d == pytest.approx(1.5118578920369088, abs=1e-12)


def test_sandwich_loadings_zero_factors():
    sl = sandwich_loadings_from_corr(np.eye(3), np.eye(4), 0, 0)
    assert sl.vector_factors()[0].shape == (3, 0)
    assert np.allclose(sl.row_norms_sq, 0.0)


def test_sandwich_row_norms_match_dense_kron():
    rng = np.random.default_rng(41)
    for _ in range(5):
        p, q = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        s1 = random_corr(rng, p)
        s2 = random_corr(rng, q)
        k1 = int(rng.integers(1, p + 1))
        k2 = int(rng.integers(1, q + 1))
        sl = sandwich_loadings_from_corr(s1, s2, k1, k2)
        left, right = side_loadings(sl)
        design = np.kron(right, left)  # rows follow column-major cells
        dense = (design**2).sum(axis=1)
        assert np.allclose(
            sl.row_norms_sq, np.minimum(dense.reshape((p, q), order="F"), 1.0 - 1e-8), atol=1e-10
        )


def test_sandwich_factor_count_bounds():
    with pytest.raises(InvalidFactorCount):
        sandwich_loadings_from_corr(np.eye(2), np.eye(2), 3, 1)
    with pytest.raises(InvalidFactorCount):
        sandwich_loadings_from_corr(np.eye(2), np.eye(2), 1, -1)


def test_grid_agreement_between_loadings():
    # Spectra crafted so the top-2 products are exactly the {top-2} x {top-1}
    # grid; the separable row norms must then agree.
    s1 = np.diag([1.0, 1.0, 1.0])
    rot = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    s1 = rot @ np.diag([3.0, 2.5, 0.1]) @ rot.T
    s2 = np.diag([1.2, 0.3])
    nl = noodle_loadings_from_corr(s1, s2, 2)
    sl = sandwich_loadings_from_corr(s1, s2, 2, 1)
    assert set(zip(nl.idx1.tolist(), nl.idx2.tolist())) == {(0, 0), (1, 0)}
    assert np.allclose(nl.row_norms_sq, sl.row_norms_sq, atol=1e-10)


def test_build_from_estimates_data_driven_counts():
    ds = correlated_dataset(55, n=30, m=30, p=8, q=8)
    ce = estimates_for(ds)
    nl = build_noodle_loadings(ce)
    sl = build_sandwich_loadings(ce)
    cap = default_max_factors(ce.n_total)
    assert 1 <= nl.h <= cap
    assert 1 <= sl.k1 <= cap and 1 <= sl.k2 <= cap
