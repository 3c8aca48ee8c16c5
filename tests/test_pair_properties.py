"""Tests of the pair-loadings model that noodle and sandwich share.

Sandwich is noodle restricted to the full top-``k1`` x top-``k2`` grid, so
every check here runs over both selectors: the top-``h`` pairs of
``noodle_loadings_from_corr`` and the grids of ``sandwich_loadings_from_corr``,
drawn by hypothesis or parametrised.  Where the trimmed fit's binding matters,
a check runs through both fit entry points.  The dense references are built
cell by cell from the pairs each selector must pick, never from its indices.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from matfdp.covfactor import (
    NORM_SQ_CEIL,
    PairLoadings,
    noodle_loadings_from_corr,
    sandwich_loadings_from_corr,
)
from matfdp.noodle import fdp_noodle, fdp_oracle, fit_noodle
from matfdp.sandwich import fdp_sandwich, fit_sandwich

from helpers import PROPERTY, plugin_sum, random_corr, stat_matrix


class PairCase(NamedTuple):
    loadings: PairLoadings
    pairs: list  # the (b, a) eigenvector pairs the selector must pick, in order
    rng: np.random.Generator

    def dense(self):
        """Unit columns ``kron(gamma_a, nu_b)``, ``(p*q, h)``, and the pair weights."""
        v, g = self.loadings.eig1, self.loadings.eig2
        cols = np.zeros((v.dim * g.dim, len(self.pairs)))
        weights = np.zeros(len(self.pairs))
        for k, (b, a) in enumerate(self.pairs):
            cols[:, k] = np.kron(g.vectors[:, a], v.vectors[:, b])
            weights[k] = max(v.values[b], 0.0) * max(g.values[a], 0.0)
        return cols, weights

    def statistic(self, scale=2.0):
        p, q = self.loadings.p, self.loadings.q
        return scale * self.rng.standard_normal((p, q))


@st.composite
def pair_cases(draw):
    """Random correlations and either selector's loadings, with its expected pairs."""
    p = draw(st.integers(2, 5))
    q = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s1, s2 = random_corr(rng, p), random_corr(rng, q)
    if draw(st.booleans()):
        h = draw(st.integers(0, p * q))
        loadings = noodle_loadings_from_corr(s1, s2, h)
        # Rank every product of raw eigenvalues, column-major: entry a * p + b.
        products = np.outer(loadings.eig1.values, loadings.eig2.values).ravel(order="F")
        pairs = [(int(c % p), int(c // p)) for c in np.argsort(-products)[:h]]
    else:
        k1, k2 = draw(st.integers(0, p)), draw(st.integers(0, q))
        loadings = sandwich_loadings_from_corr(s1, s2, k1, k2)
        pairs = [(b, a) for a in range(k2) for b in range(k1)]  # row index fastest
    return PairCase(loadings, pairs, rng)


@PROPERTY
@seed(3)
@given(pair_cases())
def test_each_selector_picks_and_weighs_its_pairs(case):
    # Noodle ranks the raw eigenvalue products; a grid runs row index fastest,
    # so factors.reshape((k1, k2), order="F") is the factor matrix.
    loadings = case.loadings
    assert list(zip(loadings.idx1.tolist(), loadings.idx2.tolist())) == case.pairs
    assert np.array_equal(loadings.values, case.dense()[1])


@PROPERTY
@seed(4)
@given(pair_cases())
def test_row_norms_match_dense_clamped_sum(case):
    cols, weights = case.dense()
    expected = np.clip(cols**2 @ weights, 0.0, NORM_SQ_CEIL)
    assert np.max(np.abs(np.ravel(case.loadings.row_norms_sq, order="F") - expected)) <= 1e-10


@PROPERTY
@seed(5)
@given(pair_cases())
def test_least_squares_common_part_is_dense_kron_projection(case):
    x = case.statistic()
    fit = fit_noodle(stat_matrix(x), case.loadings)
    cols, weights = case.dense()
    vec_x = np.ravel(x, order="F")
    gap = np.ravel(fit.common_part, order="F") - cols @ (cols.T @ vec_x)
    assert np.max(np.abs(gap)) <= 1e-10
    # Realised factors solve least squares on the weighted design.
    w_ref = np.linalg.lstsq(cols * np.sqrt(weights), vec_x, rcond=None)[0]
    assert np.max(np.abs(fit.factors - w_ref), initial=0.0) <= 1e-8


@PROPERTY
@seed(6)
@given(pair_cases())
def test_least_squares_recovers_a_common_part_exactly(case):
    cols, weights = case.dense()
    # |w| <= 1, so the relative tolerance below also bounds the absolute error.
    w = case.rng.choice([-1.0, 1.0], len(weights)) * case.rng.uniform(0.5, 1.0, len(weights))
    x = (cols @ (np.sqrt(weights) * w)).reshape((case.loadings.p, case.loadings.q), order="F")
    fit = fit_noodle(stat_matrix(x), case.loadings)
    np.testing.assert_allclose(fit.factors, w, rtol=1e-12, atol=0)
    assert np.max(np.abs(fit.common_part - x)) <= 1e-12


@PROPERTY
@seed(7)
@given(pair_cases(), st.floats(1e-6, 0.5), st.data())
def test_plugin_estimate_matches_direct_formula(case, t, data):
    loadings = case.loadings
    fit = fit_noodle(stat_matrix(case.statistic(1.0)), loadings)
    cells = loadings.p * loadings.q
    r = data.draw(st.integers(1, cells))
    expected = min(plugin_sum(loadings.row_norms_sq, fit.common_part, t) / r, cells / r)
    assert fdp_noodle(fit, r, t) == pytest.approx(expected, rel=1e-12)


@PROPERTY
@seed(8)
@given(pair_cases(), st.floats(1e-6, 0.5), st.data())
def test_oracle_is_the_dense_sum_over_null_cells(case, t, data):
    loadings = case.loadings
    cols, weights = case.dense()
    w = case.rng.standard_normal(len(weights))
    common = (cols @ (np.sqrt(weights) * w)).reshape((loadings.p, loadings.q), order="F")
    null = case.rng.random((loadings.p, loadings.q)) < 0.7
    r = data.draw(st.integers(1, loadings.p * loadings.q))
    total = plugin_sum(loadings.row_norms_sq[null], common[null], t)
    expected = min(total / r, np.count_nonzero(null) / r)
    assert fdp_oracle(loadings, w, null, r, t) == pytest.approx(expected, rel=1e-12)


@PROPERTY
@seed(9)
@given(pair_cases(), st.floats(1e-6, 0.999), st.data())
def test_estimate_lies_in_zero_to_cells_over_r(case, t, data):
    x = case.statistic()
    cells = x.size
    r = data.draw(st.integers(1, cells))
    est = fdp_noodle(fit_noodle(stat_matrix(x), case.loadings), r, t)
    assert 0.0 <= est <= cells / r


@PROPERTY
@seed(10)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.sampled_from(["top", "grid", "clipped-top", "clipped-grid"]),
    st.floats(1e-6, 0.999),
    st.data(),
)
def test_zero_pairs_give_cells_t_over_r(p, q, kind, t, data):
    # No pairs, or pairs whose every weight is clipped to 0 (each eigenvalue
    # of -I is -1, so each product of -I x -I is +1 and still weighs 0):
    # either way no factor loads any cell.
    if kind == "top":
        loadings = noodle_loadings_from_corr(np.eye(p), np.eye(q), 0)
    elif kind == "clipped-top":
        h = data.draw(st.integers(1, p * q))
        loadings = noodle_loadings_from_corr(-np.eye(p), -np.eye(q), h)
    elif kind == "grid":
        k = data.draw(st.integers(0, min(p, q)))
        k1, k2 = data.draw(st.sampled_from([(0, k), (k, 0)]))
        loadings = sandwich_loadings_from_corr(np.eye(p), np.eye(q), k1, k2)
    else:
        k1, k2 = data.draw(st.integers(1, p)), data.draw(st.integers(1, q))
        loadings = sandwich_loadings_from_corr(-np.eye(p), np.eye(q), k1, k2)
    assert loadings.vector_factors()[0].shape == (p, loadings.h)
    assert not loadings.values.any() and not loadings.row_norms_sq.any()
    rng = np.random.default_rng(p * q)
    x = rng.standard_normal((p, q))
    null = rng.random((p, q)) < 0.5
    r = data.draw(st.integers(1, p * q))
    for fit_fn in (fit_noodle, fit_sandwich):
        for estimator in ("least_squares", "trimmed_l1"):
            fit = fit_fn(stat_matrix(x), loadings, estimator)
            assert fit.factors.shape == (loadings.h,) and not fit.factors.any()
            assert not fit.common_part.any()
            assert fdp_noodle(fit, r, t) == p * q * t / r
            assert fdp_noodle(fit, 0, t) == 0.0
            oracle = fdp_oracle(loadings, fit.factors, null, r, t)
            assert oracle == np.count_nonzero(null) * t / r


@PROPERTY
@seed(11)
@given(
    st.integers(3, 6),
    st.integers(3, 6),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
    st.floats(1e-4, 0.5),
)
def test_noodle_and_sandwich_agree_when_top_pairs_form_the_grid(p, q, k1, k2, seed, t):
    # Leading eigenvalues in [2, 3] and the rest in [0.01, 0.1]: every grid
    # product (>= 4) beats every product outside the grid (<= 0.3).
    rng = np.random.default_rng(seed)

    def spectrum_matrix(dim, k):
        values = np.concatenate([rng.uniform(2.0, 3.0, k), rng.uniform(0.01, 0.1, dim - k)])
        rot = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        return rot @ np.diag(values) @ rot.T

    s1, s2 = spectrum_matrix(p, k1), spectrum_matrix(q, k2)
    nl = noodle_loadings_from_corr(s1, s2, k1 * k2)
    sl = sandwich_loadings_from_corr(s1, s2, k1, k2)
    assert set(zip(nl.idx1.tolist(), nl.idx2.tolist())) == set(
        zip(sl.idx1.tolist(), sl.idx2.tolist())
    )
    # The same pairs in another order give the same weights at every cell.
    assert np.array_equal(nl.row_norms_sq, sl.row_norms_sq)
    x = stat_matrix(rng.standard_normal((p, q)))
    r = int(rng.integers(1, p * q + 1))
    nf, sf = fit_noodle(x, nl), fit_sandwich(x, sl)
    assert np.array_equal(nf.common_part, sf.common_part)
    assert fdp_noodle(nf, r, t) == fdp_sandwich(sf, r, t)
    # Trimmed refits keep the same cells and span the same design, in another
    # column order.
    nft = fit_noodle(x, nl, estimator="trimmed_l1")
    sft = fit_sandwich(x, sl, estimator="trimmed_l1")
    assert np.max(np.abs(nft.common_part - sft.common_part)) <= 1e-8


def test_noodle_weighs_an_indefinite_spectrum_as_the_grid():
    # Noodle's top six and the 3 x 2 grid hold the same six pairs. A pair
    # with a negative eigenvalue weighs 0 under both, (-0.5, -0.4) included,
    # though noodle still ranks it by its raw product +0.2.
    s1, s2 = np.diag([1.0, 0.3, -0.5]), np.diag([2.0, -0.4])
    nl = noodle_loadings_from_corr(s1, s2, 6)
    sl = sandwich_loadings_from_corr(s1, s2, 3, 2)

    def weights(loadings):
        pairs = zip(loadings.idx1.tolist(), loadings.idx2.tolist())
        return dict(zip(pairs, loadings.values.tolist()))

    assert weights(nl) == weights(sl)
    assert {pair for pair, w in weights(nl).items() if w != 0.0} == {(0, 0), (1, 0)}
    assert np.array_equal(nl.row_norms_sq, sl.row_norms_sq)
    x = stat_matrix(np.random.default_rng(11).standard_normal((3, 2)))
    for estimator in ("least_squares", "trimmed_l1"):
        nf = fit_noodle(x, nl, estimator)
        sf = fit_sandwich(x, sl, estimator)
        assert np.array_equal(nf.common_part, sf.common_part)
        for r in (1, 3, 6):
            for t in (0.01, 0.2):
                assert fdp_noodle(nf, r, t) == fdp_sandwich(sf, r, t)
