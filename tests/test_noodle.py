"""Validation, bounds, trimmed-fit end states and the per-preset oracle.

Each check of the pair-loadings model that noodle and sandwich share runs
once, over both selectors, in ``test_pair_properties.py``.
"""

import numpy as np
import pytest

from matfdp.covfactor import (
    build_noodle_loadings,
    build_sandwich_loadings,
    estimate_correlations,
    noodle_loadings_from_corr,
    sandwich_loadings_from_corr,
)
from matfdp.noodle import fdp_noodle, fdp_oracle, fit_noodle
from matfdp import trimreg
from matfdp.rng import derive_rng
from matfdp.sandwich import fit_sandwich
from matfdp.simlab import PRESETS, gen_correlations, gen_round, preset_spec
from matfdp.teststats import p_values, rejection_count, test_matrix

from helpers import random_corr, stat_matrix


def test_orthogonal_statistic_gives_zero_factors():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    nl = noodle_loadings_from_corr(s, s, 1)
    v1, g1 = nl.vector_factors()
    # Orthogonal complement of the top eigenvector within one column block.
    x = np.zeros((2, 2))
    x[:, 0] = [v1[1, 0], -v1[0, 0]]
    fit = fit_noodle(stat_matrix(x), nl)
    assert abs(fit.factors[0]) <= 1e-12
    assert np.allclose(fit.common_part, 0.0, rtol=0, atol=1e-12)


def test_fdp_bounds_and_monotone_false_count():
    rng = np.random.default_rng(31)
    s1 = random_corr(rng, 6)
    s2 = random_corr(rng, 6)
    nl = noodle_loadings_from_corr(s1, s2, 4)
    x = 2.0 * rng.standard_normal((6, 6))
    fit = fit_noodle(stat_matrix(x), nl)
    r = 5
    last = 0.0
    for t in [1e-4, 1e-3, 1e-2, 0.1, 0.5]:
        est = fdp_noodle(fit, r, t)
        assert 0.0 <= est <= 36 / r
        false_count = est * r
        assert false_count >= last - 1e-12
        last = false_count


def test_fdp_threshold_validation():
    nl = noodle_loadings_from_corr(np.eye(2), np.eye(2), 0)
    fit = fit_noodle(stat_matrix(np.zeros((2, 2))), nl)
    for bad in [0.0, 1.0, -0.5]:
        with pytest.raises(ValueError):
            fdp_noodle(fit, 1, bad)


def test_fit_shape_mismatch_and_bad_estimator():
    nl = noodle_loadings_from_corr(np.eye(3), np.eye(3), 1)
    with pytest.raises(ValueError):
        fit_noodle(stat_matrix(np.zeros((2, 3))), nl)
    with pytest.raises(ValueError):
        fit_noodle(stat_matrix(np.zeros((3, 3))), nl, estimator="huber")


def test_oracle_empty_mask_is_zero():
    nl = noodle_loadings_from_corr(np.eye(3), np.eye(3), 1)
    assert fdp_oracle(nl, [0.5], np.zeros((3, 3), dtype=bool), 2, 0.01) == 0.0


def test_oracle_partial_mask_is_dominated_by_full_mask():
    rng = np.random.default_rng(47)
    s1 = random_corr(rng, 4)
    s2 = random_corr(rng, 4)
    nl = noodle_loadings_from_corr(s1, s2, 2)
    w = rng.standard_normal(2)
    mask = rng.random((4, 4)) < 0.5
    full = fdp_oracle(nl, w, np.ones((4, 4), dtype=bool), 3, 0.01)
    part = fdp_oracle(nl, w, mask, 3, 0.01)
    assert part <= full + 1e-15


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_oracle_on_fitted_factors_with_every_cell_null_is_the_plugin(preset):
    # Noodle and grid loadings alike: summing over every cell with the fit's
    # own loadings and factors is the plug-in estimate.
    spec = preset_spec(*preset, p=40, q=40, n=20, m=20)
    sigma1, sigma2 = gen_correlations(spec, derive_rng(5, 0, 0))
    every_cell = np.ones((spec.p, spec.q), dtype=bool)
    t = 0.01
    for r in (1, 2):
        ds, _ = gen_round(spec, sigma1, sigma2, derive_rng(5, r, 1))
        x = test_matrix(ds)
        rej = rejection_count(p_values(x), t)
        ce = estimate_correlations(ds, x.sigma_hat)
        for loadings in (build_noodle_loadings(ce), build_sandwich_loadings(ce)):
            fit = fit_noodle(x, loadings, estimator="trimmed_l1")
            oracle = fdp_oracle(fit.loadings, fit.factors, every_cell, rej, t)
            assert oracle == fdp_noodle(fit, rej, t)
            fit = fit_noodle(x, loadings)
            oracle = fdp_oracle(fit.loadings, fit.factors, every_cell, rej, t)
            assert oracle == pytest.approx(fdp_noodle(fit, rej, t), rel=1e-12)


def test_trimmed_estimator_smoke():
    rng = np.random.default_rng(53)
    s1 = random_corr(rng, 6)
    s2 = random_corr(rng, 5)
    nl = noodle_loadings_from_corr(s1, s2, 2)
    v1, g1 = nl.vector_factors()
    w_true = np.array([1.0, -0.5])
    x = (v1 * (np.sqrt(nl.values) * w_true)) @ g1.T + 0.05 * rng.standard_normal((6, 5))
    fit = fit_noodle(stat_matrix(x), nl, estimator="trimmed_l1")
    assert not fit.trim.used_fallback
    assert fit.trim.iterations >= 1
    np.testing.assert_array_equal(fit.factors, fit.trim.w)
    assert np.max(np.abs(fit.factors - w_true)) < 0.2
    est = fdp_noodle(fit, 4, 0.01)
    assert 0.0 <= est <= 30 / 4


@pytest.mark.parametrize(
    "fit, build",
    [(fit_noodle, build_noodle_loadings), (fit_sandwich, build_sandwich_loadings)],
    ids=["noodle", "sandwich"],
)
def test_trimmed_fit_at_the_iteration_cap_is_not_converged(fit, build, monkeypatch):
    # A preset-1a statistic's kept set takes several C-steps to repeat.
    spec = preset_spec(1, "a", p=40, q=40, n=20, m=20)
    sigma1, sigma2 = gen_correlations(spec, derive_rng(6, 0, 0))
    ds, _ = gen_round(spec, sigma1, sigma2, derive_rng(6, 1, 1))
    x = test_matrix(ds)
    loadings = build(estimate_correlations(ds, x.sigma_hat))
    full = fit(x, loadings, "trimmed_l1").trim
    assert full.converged is True and full.iterations > 1
    # The least-squares path runs no trimmed fit.
    assert fit(x, loadings).trim is None
    monkeypatch.setattr(trimreg, "MAX_ITERS", 1)
    capped = fit(x, loadings, "trimmed_l1").trim
    assert capped.converged is False
    assert capped.used_fallback is False
    assert capped.iterations == 1


def test_oracle_is_exact_when_no_factor_loads_a_null_cell():
    # Diagonal correlations have unit eigenvectors, so the 2 x 1 grid loads
    # cells (0, 0) and (1, 0) alone. With those the only non-null cells, the
    # oracle sums over unloaded cells only: exactly #nulls * t / R.
    s1, s2 = np.diag([3.0, 2.0, 1.0, 0.5]), np.diag([2.0, 1.0, 0.5])
    sl = sandwich_loadings_from_corr(s1, s2, 2, 1)
    null = sl.row_norms_sq == 0.0
    assert np.flatnonzero(~null).tolist() == [0, 3]
    for t in (0.001, 0.01, 0.3):
        for r in (1, 5):
            assert fdp_oracle(sl, [1.5, -2.0], null, r, t) == 10 * t / r
