import numpy as np
import pytest

from matfdp import pfa
from matfdp.covfactor import RATIO_FLOOR_REL
from matfdp.errors import DegenerateVariance, NonPositiveEigenvalue
from matfdp.pfa import fdp_pfa
from matfdp.rng import derive_rng
from matfdp.teststats import (
    TestMatrix,
    TwoSampleDataset,
    p_values,
    rejection_count,
)
from matfdp.teststats import test_matrix as build_stats

from helpers import (
    dense_pfa,
    dense_vec_covariance,
    matrix_normal_dataset,
    pfa_at_count,
    random_corr,
)


def random_dataset(seed, n=7, m=8, p=4, q=4, correlated=False, **signal):
    """Independent standard normal cells, or correlated cells with ``signal``'s block."""
    rng = derive_rng(seed)
    if not correlated:
        return TwoSampleDataset(rng.standard_normal((n, p, q)), rng.standard_normal((m, p, q)))
    u = random_corr(np.random.default_rng(seed), p)
    v = random_corr(np.random.default_rng(seed + 1), q)
    return matrix_normal_dataset(u, v, n, m, rng, **signal)


def test_gram_route_matches_dense_eigendecomposition():
    # fdp_pfa never forms an eigenvector: each count's estimate is compared
    # with the plug-in from a dense eigendecomposition of the vec-covariance,
    # which checks the Gram eigenvalues, the leading subspaces and the LS
    # common part.  A block of signal makes every threshold reject.
    for seed in range(4):
        ds = random_dataset(
            seed, n=10, m=12, p=5, q=6, correlated=True, rows=2, cols=3, amplitude=2.5
        )
        x = build_stats(ds)
        dense_vals = np.linalg.eigvalsh(dense_vec_covariance(ds, x.sigma_hat))
        rank = int(np.count_nonzero(dense_vals > 1e-8))
        assert rank == ds.n + ds.m - 2
        for t in (0.001, 0.01, 0.2):
            assert rejection_count(p_values(x), t) > 0
            for count in range(rank + 1):
                ref = dense_pfa(ds, x, t, count)
                assert pfa_at_count(ds, x, t, count) == pytest.approx(ref, rel=1e-10)


def test_rank_bounded_by_degrees_of_freedom(monkeypatch):
    # Group centering removes one dimension per group: the ratio rule sees
    # n + m - 2 = 3 Gram eigenvalues above its floor, and the third factor
    # still moves the estimate.
    ds = random_dataset(11, n=2, m=3, p=3, q=5)
    x = build_stats(ds)
    t = 0.5
    assert rejection_count(p_values(x), t) > 0
    assert pfa_at_count(ds, x, t, 2) != pfa_at_count(ds, x, t, 3)
    seen = []
    monkeypatch.setattr(pfa, "eigenvalue_ratio", lambda values, cap: seen.append(values) or 1)
    fdp_pfa(ds, x, t)
    (values,) = seen
    assert values.shape == (5,)
    assert np.count_nonzero(values >= RATIO_FLOOR_REL * values[0]) == 3


def test_constant_groups_have_empty_spectrum():
    base_y = np.arange(12.0).reshape(3, 4)
    base_z = base_y + 1.0
    ds = TwoSampleDataset(
        np.stack([base_y] * 3), np.stack([base_z] * 4)
    )
    with pytest.raises(DegenerateVariance):
        build_stats(ds)
    # With unit scales the residuals are zero, so the Gram spectrum is all
    # zero and the ratio rule has no factor to count.
    x = TestMatrix(np.linspace(-4.0, 4.0, 12).reshape(3, 4), np.ones((3, 4)), 1.0)
    t = 0.3
    assert rejection_count(p_values(x), t) > 0
    with pytest.raises(NonPositiveEigenvalue, match="leading eigenvalue"):
        fdp_pfa(ds, x, t)


def test_zero_factors_reduces_to_counting_formula():
    ds = random_dataset(17, n=10, m=10, p=5, q=5)
    x = build_stats(ds)
    t = 0.4
    rej = rejection_count(p_values(x), t)
    assert rej > 0
    assert pfa_at_count(ds, x, t, 0) == 25 * t / rej


def test_no_rejections_returns_zero():
    rng = derive_rng(19)
    base = rng.standard_normal((3, 3))
    y = base + 1e-3 * rng.standard_normal((5, 3, 3))
    z = base + 1e-3 * rng.standard_normal((5, 3, 3))
    ds = TwoSampleDataset(y, z)
    x = build_stats(ds)
    assert rejection_count(p_values(x), 1e-8) == 0
    assert fdp_pfa(ds, x, 1e-8) == 0.0


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


def test_invalid_scale_raises():
    ds = random_dataset(17)
    sig = build_stats(ds).sigma_hat.copy()
    sig[1, 2] = 0.0
    x = build_stats(ds)
    with pytest.raises(DegenerateVariance, match=r"\(1, 2\)"):
        fdp_pfa(ds, TestMatrix(x.x, sig, x.scale), 0.5)
    with pytest.raises(ValueError, match="sigma_hat shape"):
        fdp_pfa(ds, TestMatrix(x.x, sig[:, :2], x.scale), 0.5)
