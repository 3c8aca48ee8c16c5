"""Property tests of the pair-loadings model shared by noodle and sandwich."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matfdp.covfactor import (
    NORM_SQ_CEIL,
    noodle_loadings_from_corr,
    sandwich_loadings_from_corr,
)
from matfdp.noodle import fdp_noodle, fdp_oracle, fit_noodle
from matfdp.sandwich import fdp_sandwich, fit_sandwich

from helpers import dense_columns, random_corr, stat_matrix

# Derandomized so a failure reproduces; few examples keep the suite fast.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def pair_cases(draw):
    """Random correlations, statistic matrix and either selector's loadings."""
    p = draw(st.integers(2, 5))
    q = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s1, s2 = random_corr(rng, p), random_corr(rng, q)
    if draw(st.booleans()):
        loadings = noodle_loadings_from_corr(s1, s2, draw(st.integers(0, p * q)))
    else:
        k1, k2 = draw(st.integers(0, p)), draw(st.integers(0, q))
        loadings = sandwich_loadings_from_corr(s1, s2, k1, k2)
    return loadings, 2.0 * rng.standard_normal((p, q))


@PROPERTY
@given(pair_cases())
def test_least_squares_common_part_is_dense_kron_projection(case):
    loadings, x = case
    fit = fit_noodle(stat_matrix(x), loadings)
    rho = dense_columns(loadings)
    gap = np.ravel(fit.common_part, order="F") - rho @ (rho.T @ np.ravel(x, order="F"))
    assert np.max(np.abs(gap)) <= 1e-10


@PROPERTY
@given(pair_cases())
def test_row_norms_match_dense_clamped_sum(case):
    loadings, _ = case
    dense = dense_columns(loadings) ** 2 @ loadings.values
    expected = np.clip(dense, 0.0, NORM_SQ_CEIL)
    assert np.max(np.abs(np.ravel(loadings.row_norms_sq, order="F") - expected)) <= 1e-10


@PROPERTY
@given(pair_cases(), st.floats(1e-6, 0.999), st.data())
def test_estimate_lies_in_zero_to_cells_over_r(case, t, data):
    loadings, x = case
    cells = x.size
    r = data.draw(st.integers(1, cells))
    est = fdp_noodle(fit_noodle(stat_matrix(x), loadings), r, t)
    assert 0.0 <= est <= cells / r


@PROPERTY
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
        k2 = data.draw(st.integers(0, q))
        loadings = sandwich_loadings_from_corr(np.eye(p), np.eye(q), 0, k2)
    else:
        k1, k2 = data.draw(st.integers(1, p)), data.draw(st.integers(1, q))
        loadings = sandwich_loadings_from_corr(-np.eye(p), np.eye(q), k1, k2)
    x = np.random.default_rng(p * q).standard_normal((p, q))
    r = data.draw(st.integers(1, p * q))
    every_cell = np.ones((p, q), dtype=bool)
    for estimator in ("least_squares", "trimmed_l1"):
        fit = fit_noodle(stat_matrix(x), loadings, estimator)
        assert fdp_noodle(fit, r, t) == p * q * t / r
        assert fdp_oracle(loadings, fit.factors, every_cell, r, t) == p * q * t / r


@PROPERTY
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
    x = stat_matrix(rng.standard_normal((p, q)))
    r = int(rng.integers(1, p * q + 1))
    nf, sf = fit_noodle(x, nl), fit_sandwich(x, sl)
    assert np.max(np.abs(nf.common_part - sf.common_part)) <= 1e-10
    assert abs(fdp_noodle(nf, r, t) - fdp_sandwich(sf, r, t)) <= 1e-10
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
