import numpy as np
import pytest
from scipy.optimize import linprog

import matfdp.trimreg as trimreg
from matfdp.trimreg import TrimSpec, trimmed_l1_fit


def l1_objective(z, a, kept, w):
    return float(np.abs(z[kept] - a[kept] @ w).sum())


def l1_oracle(z, a, kept):
    """Exact trimmed L1 optimum on the kept rows via linear programming."""
    ak = a[kept]
    zk = z[kept]
    m, h = ak.shape
    c = np.concatenate([np.zeros(h), np.ones(m)])
    eye = np.eye(m)
    a_ub = np.block([[-ak, -eye], [ak, -eye]])
    b_ub = np.concatenate([-zk, zk])
    bounds = [(None, None)] * h + [(0, None)] * m
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success
    return res.x[:h], res.fun


def test_zero_factors_is_noop():
    z = np.array([1.0, -2.0, 3.0])
    fit = trimmed_l1_fit(z, np.zeros((3, 0)))
    assert fit.w.shape == (0,)
    assert fit.iterations == 0
    assert not fit.used_fallback


def test_noiseless_exact_recovery():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 3))
    w_true = np.array([1.5, -0.25, 2.0])
    z = a @ w_true
    fit = trimmed_l1_fit(z, a, TrimSpec(trim_fraction=1.0))
    assert np.max(np.abs(fit.w - w_true)) <= 1e-6
    assert not fit.used_fallback


def test_converged_flag():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 3))
    z = a @ np.array([1.5, -0.25, 2.0])
    fit = trimmed_l1_fit(z, a, TrimSpec(trim_fraction=1.0))
    assert fit.converged is True
    assert fit.iterations < trimreg.MAX_ITERS
    # The zero-factor and rank-deficient returns run no loop.
    empty = trimmed_l1_fit(z, np.zeros((40, 0)))
    assert empty.converged is True
    dup = np.column_stack([a[:, 0], a[:, 0]])
    fallback = trimmed_l1_fit(z, dup)
    assert fallback.used_fallback and fallback.converged is True


def test_iteration_cap_reports_not_converged(monkeypatch):
    monkeypatch.setattr(trimreg, "MAX_ITERS", 3)
    rng = np.random.default_rng(23)
    a = rng.standard_normal((60, 4))
    z = a @ rng.standard_normal(4) + rng.laplace(scale=0.5, size=60)
    fit = trimmed_l1_fit(z, a)
    assert fit.converged is False
    assert fit.iterations == 3


def test_outlier_is_trimmed_to_median_like_fit():
    # Single unit factor: the fit is a location estimate. The kept 75% drop
    # the huge observation, so the solution sits at 1 exactly.
    z = np.array([1.0, 1.0, 1.0, 100.0])
    a = np.ones((4, 1))
    fit = trimmed_l1_fit(z, a, TrimSpec(trim_fraction=0.75))
    assert fit.w[0] == pytest.approx(1.0, abs=1e-6)
    assert fit.kept.tolist() == [0, 1, 2]


def test_kept_set_is_smallest_magnitudes():
    z = np.array([5.0, -1.0, 0.5, -7.0, 2.0])
    a = np.ones((5, 1))
    fit = trimmed_l1_fit(z, a, TrimSpec(trim_fraction=0.6))
    assert fit.kept.tolist() == [1, 2, 4]


def test_scaling_equivariance():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 2))
    z = a @ np.array([2.0, -1.0]) + 0.01 * rng.standard_normal(30)
    fit1 = trimmed_l1_fit(z, a)
    fit2 = trimmed_l1_fit(3.0 * z, a)
    assert np.allclose(fit2.w, 3.0 * fit1.w, atol=1e-6)


def test_objectives_non_increasing():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((60, 4))
    z = a @ rng.standard_normal(4) + rng.laplace(scale=0.5, size=60)
    fit = trimmed_l1_fit(z, a)
    obj = np.asarray(fit.objectives)
    assert obj.size >= 1
    assert np.all(np.diff(obj) <= 1e-12)


def test_matches_linear_programming_oracle():
    rng = np.random.default_rng(37)
    for _ in range(5):
        n, h = 50, 3
        a = rng.standard_normal((n, h))
        z = a @ rng.standard_normal(h) + rng.laplace(scale=0.3, size=n)
        spec = TrimSpec(trim_fraction=0.9)
        fit = trimmed_l1_fit(z, a, spec)
        w_lp, f_lp = l1_oracle(z, a, fit.kept)
        f_irls = l1_objective(z, a, fit.kept, fit.w)
        # Smoothed IRLS reaches the LP optimum up to the smoothing scale.
        assert f_irls <= f_lp + 1e-5 * max(1.0, abs(f_lp))
        assert np.max(np.abs(fit.w - w_lp)) <= 5e-4


def test_realistic_size_matches_dual_lp_oracle():
    # Column scales 1..1e4 square into a badly conditioned Gram matrix, the
    # case where normal-equation steps could lose accuracy.
    rng = np.random.default_rng(0)
    n, h = 2000, 6
    scales = np.logspace(0, 4, h)
    a = rng.standard_normal((n, h)) * scales
    z = a @ (rng.standard_normal(h) / scales) + rng.laplace(scale=0.5, size=n)
    fit = trimmed_l1_fit(z, a, TrimSpec(trim_fraction=0.9))
    ak, zk = a[fit.kept], z[fit.kept]
    # Dual of min |zk - ak w|_1: max zk'u s.t. ak'u = 0, |u| <= 1.
    res = linprog(-zk, A_eq=ak.T, b_eq=np.zeros(h), bounds=(-1, 1), method="highs-ds")
    assert res.success
    f_star = -res.fun
    w_lp = -res.eqlin.marginals
    assert l1_objective(z, a, fit.kept, w_lp) == pytest.approx(f_star, rel=1e-12)
    assert l1_objective(z, a, fit.kept, fit.w) <= f_star * (1 + 1e-6)
    assert np.all(np.diff(fit.objectives) <= 0)


def test_rank_deficient_falls_back_to_least_squares():
    rng = np.random.default_rng(41)
    col = rng.standard_normal(20)
    a = np.column_stack([col, col])  # duplicated factor, rank 1
    z = 2.0 * col
    fit = trimmed_l1_fit(z, a)
    assert fit.used_fallback
    # Min-norm solution splits the coefficient across the duplicates.
    assert np.allclose(fit.w, [1.0, 1.0], atol=1e-8)
    assert np.allclose(a @ fit.w, z, atol=1e-8)


def test_too_few_kept_rows_raises():
    a = np.ones((4, 3))
    z = np.arange(4.0)
    with pytest.raises(ValueError):
        trimmed_l1_fit(z, a, TrimSpec(trim_fraction=0.5))


def test_trim_fraction_validation():
    with pytest.raises(ValueError):
        TrimSpec(trim_fraction=0.0)
    with pytest.raises(ValueError):
        TrimSpec(trim_fraction=1.5)


def test_design_rows_mismatch_rejected():
    z = np.arange(6.0)
    with pytest.raises(ValueError):
        trimmed_l1_fit(z, np.ones((5, 2)))
    with pytest.raises(ValueError):
        trimmed_l1_fit(z, np.ones(6))
