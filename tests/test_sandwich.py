import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from matfdp.covfactor import (
    noodle_loadings_from_corr,
    sandwich_loadings_from_corr,
)
from matfdp.linalg import vec
from matfdp.noodle import fdp_noodle, fit_noodle
from matfdp.sandwich import fdp_oracle_sandwich, fdp_sandwich, fit_sandwich
from matfdp.teststats import TestMatrix


def random_corr(rng, dim):
    a = rng.standard_normal((dim, dim))
    c = a @ a.T + dim * np.eye(dim)
    d = 1.0 / np.sqrt(np.diag(c))
    out = c * np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return out


def side_loadings(sl):
    """Scaled grid blocks ``sqrt(lam_b) nu_b``, ``(p, k1)``, and ``sqrt(xi_a) gamma_a``."""
    lam = np.clip(sl.eig1.values[: sl.k1], 0.0, None)
    xi = np.clip(sl.eig2.values[: sl.k2], 0.0, None)
    left = sl.eig1.vectors[:, : sl.k1] * np.sqrt(lam)
    return left, sl.eig2.vectors[:, : sl.k2] * np.sqrt(xi)


def stat_matrix(x):
    return TestMatrix(x=np.asarray(x, dtype=np.float64), sigma_hat=np.ones_like(x), scale=1.0)


def test_zero_factor_fit_is_empty():
    sl = sandwich_loadings_from_corr(np.eye(3), np.eye(2), 0, 2)
    fit = fit_sandwich(stat_matrix(np.ones((3, 2))), sl)
    assert fit.factors.shape == (0,)
    assert np.allclose(fit.common_part, 0.0)


def test_rank_one_statistic_recovered_exactly():
    rng = np.random.default_rng(5)
    s1 = random_corr(rng, 4)
    s2 = random_corr(rng, 3)
    sl = sandwich_loadings_from_corr(s1, s2, 1, 1)
    v = sl.eig1.vectors[:, 0]
    g = sl.eig2.vectors[:, 0]
    x = np.outer(v, g)
    fit = fit_sandwich(stat_matrix(x), sl)
    lam = sl.eig1.values[0]
    xi = sl.eig2.values[0]
    factor = fit.factors.reshape((1, 1), order="F")[0, 0]
    assert factor == pytest.approx(1.0 / np.sqrt(lam * xi), rel=1e-12)
    assert np.allclose(fit.common_part, x, atol=1e-12)


def test_common_part_matches_dense_two_sided_projection():
    rng = np.random.default_rng(9)
    for _ in range(5):
        p, q = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        s1 = random_corr(rng, p)
        s2 = random_corr(rng, q)
        k1 = int(rng.integers(1, p + 1))
        k2 = int(rng.integers(1, q + 1))
        sl = sandwich_loadings_from_corr(s1, s2, k1, k2)
        x = rng.standard_normal((p, q))
        fit = fit_sandwich(stat_matrix(x), sl)
        v1 = sl.eig1.vectors[:, :k1]
        g2 = sl.eig2.vectors[:, :k2]
        proj = np.kron(g2 @ g2.T, v1 @ v1.T) @ vec(x)
        assert np.max(np.abs(vec(fit.common_part) - proj)) <= 1e-10


def test_fit_is_idempotent_on_common_part():
    rng = np.random.default_rng(13)
    s1 = random_corr(rng, 5)
    s2 = random_corr(rng, 4)
    sl = sandwich_loadings_from_corr(s1, s2, 2, 2)
    x = rng.standard_normal((5, 4))
    fit = fit_sandwich(stat_matrix(x), sl)
    refit = fit_sandwich(stat_matrix(fit.common_part), sl)
    assert np.allclose(refit.common_part, fit.common_part, atol=1e-12)
    assert np.allclose(refit.factors, fit.factors, atol=1e-12)


def test_fdp_zero_factors_is_cells_t_over_r():
    for k1, k2 in [(0, 0), (0, 2), (2, 0)]:
        sl = sandwich_loadings_from_corr(np.eye(4), np.eye(3), k1, k2)
        fit = fit_sandwich(stat_matrix(np.zeros((4, 3))), sl)
        t = 0.02
        assert fdp_sandwich(fit, 5, t) == pytest.approx(12 * t / 5, abs=0.0)
    assert fdp_sandwich(fit, 0, t) == 0.0


def test_fdp_matches_direct_formula():
    rng = np.random.default_rng(21)
    s1 = random_corr(rng, 4)
    s2 = random_corr(rng, 5)
    sl = sandwich_loadings_from_corr(s1, s2, 2, 3)
    x = rng.standard_normal((4, 5))
    fit = fit_sandwich(stat_matrix(x), sl)
    t = 0.004
    r = 2
    z = ndtri(t / 2.0)
    a = 1.0 / np.sqrt(1.0 - sl.row_norms_sq)
    eta = fit.common_part
    expected = (ndtr(a * (z + eta)) + ndtr(a * (z - eta))).sum() / r
    assert fdp_sandwich(fit, r, t) == pytest.approx(expected, rel=1e-12)


def test_agrees_with_full_spectrum_when_grids_coincide():
    # Top-1 product is always the grid {top-1} x {top-1}.
    rng = np.random.default_rng(27)
    s1 = random_corr(rng, 5)
    s2 = random_corr(rng, 4)
    nl = noodle_loadings_from_corr(s1, s2, 1)
    sl = sandwich_loadings_from_corr(s1, s2, 1, 1)
    x = rng.standard_normal((5, 4))
    t = 0.01
    r = 4
    nf = fit_noodle(stat_matrix(x), nl)
    sf = fit_sandwich(stat_matrix(x), sl)
    assert np.max(np.abs(nf.common_part - sf.common_part)) <= 1e-12
    assert abs(fdp_noodle(nf, r, t) - fdp_sandwich(sf, r, t)) <= 1e-10


def test_agrees_on_crafted_spectra_with_larger_grid():
    # Eigenvalues arranged so the top-2 Kronecker products are exactly the
    # {top-2} x {top-1} grid: 3*1.2 > 2.5*1.2 > 3*0.3.
    rng = np.random.default_rng(33)
    rot1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rot2 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    s1 = rot1 @ np.diag([3.0, 2.5, 0.1]) @ rot1.T
    s2 = rot2 @ np.diag([1.2, 0.3]) @ rot2.T
    nl = noodle_loadings_from_corr(s1, s2, 2)
    sl = sandwich_loadings_from_corr(s1, s2, 2, 1)
    x = rng.standard_normal((3, 2))
    nf = fit_noodle(stat_matrix(x), nl)
    sf = fit_sandwich(stat_matrix(x), sl)
    assert np.max(np.abs(nf.common_part - sf.common_part)) <= 1e-12
    for t in [0.001, 0.05]:
        assert abs(fdp_noodle(nf, 3, t) - fdp_sandwich(sf, 3, t)) <= 1e-10
    # Trimmed refits share the kept set and the span, so they agree too.
    nft = fit_noodle(stat_matrix(x), nl, estimator="trimmed_l1")
    sft = fit_sandwich(stat_matrix(x), sl, estimator="trimmed_l1")
    assert np.max(np.abs(nft.common_part - sft.common_part)) <= 1e-8


def test_trimmed_estimator_recovers_planted_factors():
    rng = np.random.default_rng(39)
    s1 = random_corr(rng, 6)
    s2 = random_corr(rng, 6)
    sl = sandwich_loadings_from_corr(s1, s2, 2, 2)
    w_true = np.array([[1.0, -0.4], [0.3, 0.8]])
    left, right = side_loadings(sl)
    x = left @ w_true @ right.T + 0.05 * rng.standard_normal((6, 6))
    fit = fit_sandwich(stat_matrix(x), sl, estimator="trimmed_l1")
    assert not fit.trim_fallback
    assert np.max(np.abs(fit.factors.reshape((2, 2), order="F") - w_true)) < 0.3


def test_trimmed_fit_is_the_noodle_fit_on_grid_loadings():
    # Sandwich is the noodle model on the grid, so both run one design.
    rng = np.random.default_rng(51)
    sl = sandwich_loadings_from_corr(random_corr(rng, 12), random_corr(rng, 10), 2, 3)
    x = stat_matrix(rng.standard_normal((12, 10)))
    nf = fit_noodle(x, sl, estimator="trimmed_l1")
    sf = fit_sandwich(x, sl, estimator="trimmed_l1")
    assert np.array_equal(sf.factors, nf.factors)
    assert np.array_equal(sf.common_part, nf.common_part)


def test_oracle_matches_manual_computation():
    rng = np.random.default_rng(45)
    s1 = random_corr(rng, 3)
    s2 = random_corr(rng, 4)
    k1, k2 = 2, 2
    sl = sandwich_loadings_from_corr(s1, s2, k1, k2)
    w = rng.standard_normal((k1, k2))
    mask = rng.random((3, 4)) < 0.7
    t = 0.02
    r = 3
    est = fdp_oracle_sandwich(s1, s2, k1, k2, w, mask, r, t)
    left, right = side_loadings(sl)
    eta = left @ w @ right.T
    z = ndtri(t / 2.0)
    a = 1.0 / np.sqrt(1.0 - sl.row_norms_sq)
    terms = ndtr(a * (z + eta)) + ndtr(a * (z - eta))
    assert est == pytest.approx(terms[mask].sum() / r, rel=1e-12)
    assert fdp_oracle_sandwich(s1, s2, 0, 2, np.zeros((0, 2)), mask, r, t) == (
        pytest.approx(np.count_nonzero(mask) * t / r, abs=0.0)
    )


def test_oracle_validation():
    s = np.eye(3)
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        fdp_oracle_sandwich(s, s, 1, 1, np.zeros((2, 1)), mask, 1, 0.01)
    with pytest.raises(ValueError):
        fdp_oracle_sandwich(s, s, 1, 1, np.zeros((1, 1)), mask[:2], 1, 0.01)
    with pytest.raises(ValueError):
        fdp_oracle_sandwich(s, s, 1, 1, np.zeros((1, 1)), mask, 1, 0.0)
