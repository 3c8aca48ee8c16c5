import numpy as np
import pytest

from matfdp.errors import DegenerateVariance
from matfdp.pfa import fdp_pfa
from matfdp.rng import derive_rng
from matfdp.teststats import (
    TestMatrix,
    TwoSampleDataset,
    p_values,
    rejection_count,
)
from matfdp.teststats import test_matrix as build_stats

from helpers import dense_pfa, dense_vec_covariance, random_corr, sample_matrix_normal_stack


def random_dataset(seed, n=7, m=8, p=4, q=4, correlated=False):
    rng = derive_rng(seed)
    if correlated:
        u = random_corr(np.random.default_rng(seed), p)
        v = random_corr(np.random.default_rng(seed + 1), q)
        y = sample_matrix_normal_stack(np.zeros((p, q)), u, v, n, rng)
        z = sample_matrix_normal_stack(np.zeros((p, q)), u, v, m, rng)
    else:
        y = rng.standard_normal((n, p, q))
        z = rng.standard_normal((m, p, q))
    return TwoSampleDataset(y, z)


def test_gram_route_matches_dense_eigendecomposition():
    # fdp_pfa never forms an eigenvector: each count's estimate is compared
    # with the plug-in from a dense eigendecomposition of the vec-covariance,
    # which checks the Gram eigenvalues, the leading subspaces and the LS
    # common part.  A block of signal makes every threshold reject.
    for seed in range(4):
        ds = random_dataset(seed, n=10, m=12, p=5, q=6, correlated=True)
        ds.treatment[:, :2, :3] += 2.5
        x = build_stats(ds)
        dense_vals = np.linalg.eigvalsh(dense_vec_covariance(ds, x.sigma_hat))
        rank = int(np.count_nonzero(dense_vals > 1e-8))
        assert rank == ds.n + ds.m - 2
        for t in (0.001, 0.01, 0.2):
            assert rejection_count(p_values(x), t) > 0
            for count in range(rank + 1):
                ref = dense_pfa(ds, x, t, count)
                assert fdp_pfa(ds, x, t, n_factors=count) == pytest.approx(ref, rel=1e-10)
            assert fdp_pfa(ds, x, t, n_factors=rank + 1) == fdp_pfa(ds, x, t, n_factors=rank)


def test_rank_bounded_by_degrees_of_freedom():
    # Group centering removes one dimension per group: no count beyond
    # n + m - 2 = 3 changes the estimate.
    ds = random_dataset(11, n=2, m=3, p=3, q=5)
    x = build_stats(ds)
    t = 0.5
    assert rejection_count(p_values(x), t) > 0
    capped = fdp_pfa(ds, x, t, n_factors=3)
    assert fdp_pfa(ds, x, t, n_factors=4) == capped
    assert fdp_pfa(ds, x, t, n_factors=50) == capped
    assert fdp_pfa(ds, x, t, n_factors=2) != capped


def test_constant_groups_have_empty_spectrum():
    base_y = np.arange(12.0).reshape(3, 4)
    base_z = base_y + 1.0
    ds = TwoSampleDataset(
        np.stack([base_y] * 3), np.stack([base_z] * 4)
    )
    with pytest.raises(DegenerateVariance):
        build_stats(ds)
    # With unit scales the residuals are zero, so no factor survives the
    # cutoff: every explicit count gives the counting formula.
    x = TestMatrix(np.linspace(-4.0, 4.0, 12).reshape(3, 4), np.ones((3, 4)), 1.0)
    t = 0.3
    rej = rejection_count(p_values(x), t)
    assert rej > 0
    for n_factors in (1, 3):
        assert fdp_pfa(ds, x, t, n_factors=n_factors) == 12 * t / rej


def test_factor_count_validation():
    ds = random_dataset(13)
    x = build_stats(ds)
    # A negative count is refused before anything is computed, even when
    # nothing is rejected.
    for t in (0.5, 1e-300):
        with pytest.raises(ValueError, match="n_factors"):
            fdp_pfa(ds, x, t, n_factors=-1)
    rej = rejection_count(p_values(x), 0.5)
    assert fdp_pfa(ds, x, 0.5, n_factors=0) == 16 * 0.5 / rej


def test_zero_factors_reduces_to_counting_formula():
    ds = random_dataset(17, n=10, m=10, p=5, q=5)
    x = build_stats(ds)
    t = 0.4
    rej = rejection_count(p_values(x), t)
    assert rej > 0
    est = fdp_pfa(ds, x, t, n_factors=0)
    assert est == pytest.approx(25 * t / rej, abs=0.0)


def test_no_rejections_returns_zero():
    rng = derive_rng(19)
    base = rng.standard_normal((3, 3))
    y = base + 1e-3 * rng.standard_normal((5, 3, 3))
    z = base + 1e-3 * rng.standard_normal((5, 3, 3))
    ds = TwoSampleDataset(y, z)
    x = build_stats(ds)
    assert rejection_count(p_values(x), 1e-8) == 0
    assert fdp_pfa(ds, x, 1e-8) == 0.0


def test_explicit_count_is_capped_at_rank():
    ds = random_dataset(23, n=3, m=4, p=3, q=3)
    x = build_stats(ds)
    t = 0.5
    rej = rejection_count(p_values(x), t)
    rank = ds.n + ds.m - 2  # p * q = 9 exceeds it
    # Far beyond the rank: must behave like n_factors=rank, not fail.
    est = fdp_pfa(ds, x, t, n_factors=50)
    ref = fdp_pfa(ds, x, t, n_factors=rank)
    assert ref != fdp_pfa(ds, x, t, n_factors=rank - 1)
    assert est == pytest.approx(ref, rel=1e-12)
    assert rej > 0


def test_data_driven_count_runs_and_is_bounded():
    ds = random_dataset(29, n=20, m=20, p=6, q=6, correlated=True)
    x = build_stats(ds)
    t = 0.2
    rej = rejection_count(p_values(x), t)
    est = fdp_pfa(ds, x, t)
    assert 0.0 <= est <= 36 / rej


def test_threshold_and_shape_validation():
    ds = random_dataset(31)
    x = build_stats(ds)
    with pytest.raises(ValueError):
        fdp_pfa(ds, x, 0.0)
    other = random_dataset(32, p=5, q=4)
    with pytest.raises(ValueError):
        fdp_pfa(other, x, 0.1)


def test_invalid_scale_and_factor_count_raise():
    ds = random_dataset(17)
    sig = build_stats(ds).sigma_hat.copy()
    sig[1, 2] = 0.0
    x = build_stats(ds)
    with pytest.raises(DegenerateVariance, match=r"\(1, 2\)"):
        fdp_pfa(ds, TestMatrix(x.x, sig, x.scale), 0.5)
    with pytest.raises(ValueError, match="sigma_hat shape"):
        fdp_pfa(ds, TestMatrix(x.x, sig[:, :2], x.scale), 0.5)
    with pytest.raises(ValueError):
        fdp_pfa(ds, x, 0.5, n_factors=-1)
