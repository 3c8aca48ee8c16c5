import numpy as np
import pytest

from matfdp.errors import DegenerateVariance
from matfdp.linalg import vec
from matfdp.pfa import build_thin_factor, fdp_pfa
from matfdp.rng import derive_rng
from matfdp.teststats import (
    TwoSampleDataset,
    p_values,
    pooled_sigma,
    rejection_count,
)
from matfdp.teststats import test_matrix as build_stats

from helpers import random_corr, sample_matrix_normal_stack


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


def dense_cov(ds, sigma_hat=None):
    resid = np.concatenate(
        [
            ds.treatment - ds.treatment.mean(axis=0),
            ds.control - ds.control.mean(axis=0),
        ]
    )
    if sigma_hat is not None:
        resid = resid / sigma_hat
    cols = np.stack([vec(r) for r in resid], axis=1)
    return cols @ cols.T / (ds.n + ds.m - 2)


def test_gram_route_matches_dense_eigendecomposition():
    for seed in range(4):
        ds = random_dataset(seed, correlated=True)
        sig = pooled_sigma(ds)
        tf = build_thin_factor(ds, sig)
        s = dense_cov(ds, sig)
        dense_vals = np.linalg.eigvalsh(s)[::-1]
        assert tf.rank <= ds.n + ds.m - 2
        assert np.max(np.abs(tf.values - dense_vals[: tf.rank])) <= 1e-8
        # Implied covariance reconstructs the dense one.
        assert np.max(np.abs(tf.columns @ tf.columns.T - s)) <= 1e-10
        # Leading eigenvectors span the same subspace (projector match).
        k = min(3, tf.rank)
        rho = tf.eigenvectors(k)
        _, dense_vecs = np.linalg.eigh(s)
        dv = dense_vecs[:, ::-1][:, :k]
        assert np.max(np.abs(rho @ rho.T - dv @ dv.T)) <= 1e-8
        assert np.allclose(rho.T @ rho, np.eye(k), atol=1e-10)


def test_rank_bounded_by_degrees_of_freedom():
    # Group centering removes one dimension per group.
    ds = random_dataset(11, n=2, m=3, p=3, q=5)
    tf = build_thin_factor(ds)
    assert tf.rank <= 3


def test_constant_groups_have_empty_spectrum():
    base_y = np.arange(12.0).reshape(3, 4)
    base_z = base_y + 1.0
    ds = TwoSampleDataset(
        np.stack([base_y] * 3), np.stack([base_z] * 4)
    )
    tf = build_thin_factor(ds)
    assert tf.rank == 0
    assert tf.values.size == 0
    with pytest.raises(DegenerateVariance):
        pooled_sigma(ds)


def test_eigenvectors_count_validation():
    ds = random_dataset(13)
    tf = build_thin_factor(ds)
    with pytest.raises(ValueError):
        tf.eigenvectors(tf.rank + 1)
    with pytest.raises(ValueError):
        tf.eigenvectors(-1)
    assert tf.eigenvectors(0).shape == (16, 0)


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
    tf = build_thin_factor(ds, x.sigma_hat)
    # Far beyond the rank: must behave like n_factors=rank, not fail.
    est = fdp_pfa(ds, x, t, n_factors=50)
    ref = fdp_pfa(ds, x, t, n_factors=tf.rank)
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
    sig = pooled_sigma(ds)
    sig[1, 2] = 0.0
    with pytest.raises(DegenerateVariance, match=r"\(1, 2\)"):
        build_thin_factor(ds, sig)
    with pytest.raises(ValueError):
        build_thin_factor(ds, sig[:, :2])
    x = build_stats(ds)
    with pytest.raises(ValueError):
        fdp_pfa(ds, x, 0.5, n_factors=-1)
