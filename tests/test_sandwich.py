"""What the grid alone does, zero-weight pairs and sandwich's own fit binding.

Each check of the pair-loadings model that noodle and sandwich share runs
once, over both selectors, in ``test_pair_properties.py``.
"""

import numpy as np
import pytest

from matfdp.covfactor import (
    noodle_loadings_from_corr,
    sandwich_loadings_from_corr,
)
from matfdp.noodle import fdp_noodle, fdp_oracle, fit_noodle
from matfdp.sandwich import fit_sandwich
from matfdp.trimreg import trimmed_l1_fit

from helpers import check_planted_trimmed_recovery, random_corr, stat_matrix


def test_trimmed_estimator_recovers_planted_factors():
    # Planted factors on a 2 x 2 grid, F-order of [[1, -0.4], [0.3, 0.8]]; the
    # top-pairs case is test_noodle::test_trimmed_estimator_smoke.
    rng = np.random.default_rng(39)
    sl = sandwich_loadings_from_corr(random_corr(rng, 6), random_corr(rng, 6), 2, 2)
    check_planted_trimmed_recovery(sl, np.array([1.0, 0.3, -0.4, 0.8]), rng)


def test_trimmed_fit_is_the_noodle_fit_on_grid_loadings():
    # Sandwich is the noodle model on the grid, so both run one design.
    rng = np.random.default_rng(51)
    sl = sandwich_loadings_from_corr(random_corr(rng, 12), random_corr(rng, 10), 2, 3)
    x = stat_matrix(rng.standard_normal((12, 10)))
    nf = fit_noodle(x, sl, estimator="trimmed_l1")
    sf = fit_sandwich(x, sl, estimator="trimmed_l1")
    assert np.array_equal(sf.factors, nf.factors)
    assert np.array_equal(sf.common_part, nf.common_part)


def _zero_weight_case(kind):
    # The row side has an exactly-zero eigenvalue, so one pair has weight 0.
    rows = np.diag([3.0, 2.0, 1.0, 0.0])
    if kind == "grid":
        return fit_sandwich, sandwich_loadings_from_corr(rows, np.diag([1.5, 0.5]), 4, 1)
    # Six products are positive; the seventh pair has weight 0.
    return fit_noodle, noodle_loadings_from_corr(rows, np.diag([1.5, 0.5, 0.0, 0.0]), 7)


@pytest.mark.parametrize("estimator", ["least_squares", "trimmed_l1"])
@pytest.mark.parametrize("kind", ["grid", "noodle"])
def test_zero_weight_pair_adds_nothing_to_the_common_part(kind, estimator):
    fit_fn, loadings = _zero_weight_case(kind)
    assert np.count_nonzero(loadings.values == 0.0) == 1
    x = np.random.default_rng(61).standard_normal((loadings.p, loadings.q))
    fit = fit_fn(stat_matrix(x), loadings, estimator=estimator)
    if estimator == "trimmed_l1":
        # The zero-weight pair stays out of the trimmed design, so the fit trims.
        assert fit.trim.used_fallback is False
    else:
        assert fit.trim is None
    coef = np.sqrt(np.clip(loadings.values, 0.0, None)) * fit.factors
    np.testing.assert_allclose(fit.common_part, loadings.expand(coef), rtol=0, atol=1e-15)
    every_cell = np.ones((loadings.p, loadings.q), dtype=bool)
    oracle = fdp_oracle(loadings, fit.factors, every_cell, 3, 0.05)
    assert fdp_noodle(fit, 3, 0.05) == pytest.approx(oracle, rel=1e-12)


def test_each_fit_reaches_its_own_trimmed_fit_binding(monkeypatch):
    # The benchmark traces both module bindings of trimmed_l1_fit, so
    # fit_sandwich must not become an alias of fit_noodle.
    calls = []
    for module in ("noodle", "sandwich"):

        def record(*args, _module=module):
            calls.append(_module)
            return trimmed_l1_fit(*args)

        monkeypatch.setattr(f"matfdp.{module}.trimmed_l1_fit", record)
    rng = np.random.default_rng(67)
    sl = sandwich_loadings_from_corr(random_corr(rng, 6), random_corr(rng, 5), 2, 1)
    x = stat_matrix(rng.standard_normal((6, 5)))
    fit_noodle(x, sl, estimator="trimmed_l1")
    assert calls == ["noodle"]
    fit_sandwich(x, sl, estimator="trimmed_l1")
    assert calls == ["noodle", "sandwich"]


def test_oracle_validation():
    sl = sandwich_loadings_from_corr(np.eye(3), np.eye(3), 1, 1)
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        fdp_oracle(sl, np.zeros(2), mask, 1, 0.01)
    with pytest.raises(ValueError):
        fdp_oracle(sl, np.zeros(1), mask[:2], 1, 0.01)
    with pytest.raises(ValueError):
        fdp_oracle(sl, np.zeros(1), mask, 1, 0.0)
    # The grid factor matrix itself is refused: the oracle takes its F-order ravel.
    with pytest.raises(ValueError):
        fdp_oracle(sl, np.zeros((1, 1)), mask, 1, 0.01)
