"""Streaming changes no results: the streamed paths against whole-array formulas.

Data generation transforms one observation at a time and the statistics add
one observation at a time; both must give the bits of the whole-group
formulas.  ``covfactor._BLOCK_SLICES`` sets the observations in a residual
block of correlation estimation and the matrix rows in a chunk of pfa's thin
factor: changing it must move the correlation estimates and pfa's FDP
estimate only by the order of their Gram and projection sums.
"""

import math

import numpy as np
import pytest

from matfdp import covfactor
from matfdp.covfactor import estimate_correlations
from matfdp.pfa import fdp_pfa
from matfdp.rng import derive_rng
from matfdp.simlab import (
    _draw_noise_entries,
    _RoundGenerator,
    gen_correlations,
    gen_round,
    preset_spec,
)
from matfdp.teststats import TwoSampleDataset
from matfdp.teststats import test_matrix as build_stats

from helpers import pfa_at_count, residual_stack

# p * q > 1 throughout: for 1 x 1 matrices numpy's axis-0 sum runs along a
# contiguous axis and switches to pairwise summation.
SHAPES = [(4, 5, 6, 7), (1, 6, 9, 8), (5, 1, 12, 3), (30, 20, 40, 35)]


def random_dataset(seed, p, q, n, m):
    rng = derive_rng(seed)
    return TwoSampleDataset(
        3.0 * rng.standard_normal((n, p, q)) + 2.0, rng.standard_normal((m, p, q)) - 1.0
    )


def whole_group_noise(gen, sigma1, sigma2, count, rng):
    """One group's noise by the whole-group formula, on the generator's draw order."""
    e22 = _draw_noise_entries(gen.noise_dist, (count, gen.spec.p, gen.spec.q), rng)
    if not gen.factored:
        return gen.left @ e22 @ gen.right
    # Model 1: D1 (E22 / 2 + sqrt(1/2) B1 E12 + sqrt(1/2) E21 B2' + B1 E11 B2') D2,
    # grouped as D1 (E22 / 2) D2 + [D1 B1, sqrt(1/2) D1 E21] @ right with
    # right = [E11 (D2 B2)' + sqrt(1/2) E12 D2; (D2 B2)']; the group's E22 is
    # drawn first, then every observation's E11, E12 and E21.
    (d1, b1), (d2, b2) = sigma1.factor, sigma2.factor
    p, q, l1, l2 = len(d1), len(d2), b1.shape[1], b2.shape[1]
    rows, cols_t = d1[:, None] * b1, (d2[:, None] * b2).T
    small = rng.standard_normal((count, l1 * l2 + l1 * q + p * l2))
    e11 = small[:, : l1 * l2].reshape(count, l1, l2)
    e12 = small[:, l1 * l2 : l1 * (l2 + q)].reshape(count, l1, q)
    e21 = small[:, l1 * (l2 + q) :].reshape(count, p, l2)
    left = np.concatenate(
        [np.broadcast_to(rows, (count, p, l1)), e21 * (math.sqrt(0.5) * d1)[:, None]], axis=2
    )
    right = np.concatenate(
        [
            e11 @ cols_t + e12 * (math.sqrt(0.5) * d2),
            np.broadcast_to(cols_t, (count, l2, q)),
        ],
        axis=1,
    )
    return 0.5 * np.outer(d1, d2) * e22 + left @ right


@pytest.mark.parametrize(
    "model,setting,w_dist",
    [(1, "a", "exp1"), (2, "b", "exp1"), (3, "a", "exp1"), (3, "d", "scaled_t6")],
)
def test_generation_is_bit_identical_in_blocks(model, setting, w_dist):
    spec = preset_spec(
        model, setting, p=12, q=9, n=5, m=6, signal_rows=3, signal_cols=4, w_dist=w_dist
    )
    sigma1, sigma2 = gen_correlations(spec, derive_rng(8, 0, 0))
    gen = _RoundGenerator(spec, sigma1, sigma2)
    # Model 1 draws from its factor form; models 2 and 3 keep left @ E @ right.
    assert gen.factored == (model == 1)
    rng = derive_rng(8, 1, 1)
    ey = whole_group_noise(gen, sigma1, sigma2, spec.n, rng)
    ez = whole_group_noise(gen, sigma1, sigma2, spec.m, rng)
    ds, _ = gen_round(spec, sigma1, sigma2, derive_rng(8, 1, 1))
    assert ds.treatment.tobytes() == (gen.mu + ey).tobytes()
    assert ds.control.tobytes() == ez.tobytes()


@pytest.mark.parametrize("p,q,n,m", SHAPES)
def test_statistics_are_bit_identical_to_the_two_pass_formula(p, q, n, m):
    ds = random_dataset(9, p, q, n, m)
    y, z = ds.treatment, ds.control
    ss = ((y - y.mean(axis=0)) ** 2).sum(axis=0) + ((z - z.mean(axis=0)) ** 2).sum(axis=0)
    sigma = np.sqrt(ss / (n + m - 2))
    scale = math.sqrt(n * m / (n + m))
    x = scale * (y.mean(axis=0) - z.mean(axis=0)) / sigma
    tm = build_stats(ds)
    assert tm.sigma_hat.tobytes() == sigma.tobytes()
    assert tm.x.tobytes() == x.tobytes()
    assert tm.scale == scale


@pytest.mark.parametrize("p,q,n,m", SHAPES)
def test_correlations_in_blocks_match_one_block(monkeypatch, p, q, n, m):
    ds = random_dataset(10, p, q, n, m)
    sig = build_stats(ds).sigma_hat
    monkeypatch.setattr(covfactor, "_BLOCK_SLICES", n + m)
    whole = estimate_correlations(ds, sig)
    # One block is the products of the whole (p, n + m, q) residual stack.
    resid = np.ascontiguousarray(residual_stack(ds, sig).transpose(1, 0, 2))
    rows, cols = resid.reshape(p, -1), resid.reshape(-1, q)
    s1 = (rows @ rows.T) / ((n + m - 2) * q)
    s2 = (cols.T @ cols) / ((n + m - 2) * p)
    assert np.array_equal(whole.sigma1, s1)
    assert np.array_equal(whole.sigma2, s2)
    # One observation per block, and five, so that a block spans both groups
    # for the first three shapes.
    for obs in (1, 5):
        monkeypatch.setattr(covfactor, "_BLOCK_SLICES", obs)
        blocked = estimate_correlations(ds, sig)
        for a, b in ((blocked.sigma1, whole.sigma1), (blocked.sigma2, whole.sigma2)):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


@pytest.mark.parametrize("p,q,n,m", SHAPES)
def test_pfa_row_walks_in_chunks_match_one_chunk(monkeypatch, p, q, n, m):
    # One row per chunk, three (a partial last chunk for every p here but
    # 30) and every row in one chunk.  Each count's estimate reads the Gram
    # eigenvalues, the leading subspace and the LS common part, so all of
    # them must move only by the order of the Gram and projection sums.
    ds = random_dataset(11, p, q, n, m)
    x = build_stats(ds)
    results = []
    for rows in (1, 3, p):
        monkeypatch.setattr(covfactor, "_BLOCK_SLICES", rows)
        results.append(
            [fdp_pfa(ds, x, t) for t in (0.01, 0.2)]
            + [pfa_at_count(ds, x, t, k) for t in (0.01, 0.2) for k in (1, 2, 3)]
        )
    whole = np.array(results[-1])
    assert np.all(whole > 0.0)
    for blocked in results[:-1]:
        assert np.all(np.abs(np.array(blocked) - whole) <= 1e-12 * whole)
