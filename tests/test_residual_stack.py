"""The residual stack and its observation blocks: layout, checks, aliasing and peak memory."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from matfdp import covfactor
from matfdp.covfactor import estimate_correlations
from matfdp.datafiles import read_dataset, write_dataset
from matfdp.errors import DegenerateVariance
from matfdp.pfa import _row_chunks, fdp_pfa
from matfdp.rng import derive_rng
from matfdp.simlab import (
    METHODS,
    _RoundGenerator,
    gen_correlations,
    gen_round,
    preset_spec,
    run_experiment,
)
from matfdp.teststats import TestMatrix, TwoSampleDataset, _standardise
from matfdp.teststats import test_matrix as build_stats

from helpers import PROPERTY, pfa_at_count, residual_stack

SHAPES = [(4, 5), (1, 6), (5, 1), (1, 1)]


def random_dataset(seed, p, q, n=6, m=7):
    rng = derive_rng(seed)
    return TwoSampleDataset(
        rng.standard_normal((n, p, q)) + 2.0, rng.standard_normal((m, p, q)) - 1.0
    )


@st.composite
def standardise_cases(draw):
    """A dataset, a positive sigma_hat and a block ``start:stop`` of rows ``rows``."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n, m = draw(st.integers(2, 5)), draw(st.integers(3, 5))
    values = st.floats(-1e3, 1e3)
    ds = TwoSampleDataset(
        draw(hnp.arrays(np.float64, (n, p, q), elements=values)),
        draw(hnp.arrays(np.float64, (m, p, q), elements=values)),
    )
    sigma_hat = draw(hnp.arrays(np.float64, (p, q), elements=st.floats(0.01, 100.0)))
    start = draw(st.integers(0, n + m - 1))
    stop = draw(st.integers(start + 1, n + m))
    r0 = draw(st.integers(0, p - 1))
    rows = draw(st.sampled_from([slice(None), slice(r0, draw(st.integers(r0 + 1, p)))]))
    return ds, sigma_hat, start, stop, rows, draw(st.booleans())


@settings(PROPERTY, max_examples=60)
@seed(12)
@given(standardise_cases())
def test_standardise_matches_the_dense_formula(case):
    # Blocks that straddle the groups, row slices, and a transposed out as in
    # estimate_correlations, all bit for bit.
    ds, sigma_hat, start, stop, rows, transposed = case
    expected = residual_stack(ds, sigma_hat)[start:stop, rows]
    b, r, q = expected.shape
    out = np.full((b, r, q), np.nan)
    if transposed:
        out = np.full((r, b, q), np.nan).transpose(1, 0, 2)
    _standardise(out, ds, sigma_hat, start, rows)
    assert np.array_equal(out, expected)


def test_residual_walks_compute_the_group_means_once_per_dataset(monkeypatch):
    # The correlation walk and both of pfa's walks share them; the statistics
    # keep theirs to themselves, so the dataset holds none after test_matrix.
    compute = TwoSampleDataset._group_means.func
    calls = []
    counted = functools.cached_property(lambda ds: calls.append(ds) or compute(ds))
    counted.__set_name__(TwoSampleDataset, "_group_means")
    monkeypatch.setattr(TwoSampleDataset, "_group_means", counted)
    ds = random_dataset(8, 5, 6)
    x = build_stats(ds)
    assert calls == []
    estimate_correlations(ds, x.sigma_hat)
    assert fdp_pfa(ds, x, 0.99) > 0.0  # it rejects, so pfa walks twice
    assert calls == [ds]


def test_dataset_stacks_are_read_only_views(tmp_path):
    # An edit through the dataset would leave its cached group means stale.
    rng = derive_rng(9)
    y, z = rng.standard_normal((3, 4, 5)), rng.standard_normal((4, 4, 5))
    own = TwoSampleDataset(y, z)
    assert np.shares_memory(own.treatment, y) and np.shares_memory(own.control, z)
    spec = preset_spec(1, "a", p=6, q=6, n=4, m=4)
    drawn, _ = gen_round(spec, *gen_correlations(spec, derive_rng(9, 0, 0)), derive_rng(9, 1, 1))
    write_dataset(tmp_path / "d", drawn)
    for ds in (own, drawn, read_dataset(tmp_path / "d")):
        for stack in (ds.treatment, ds.control):
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] += 1.0
    # The caller's own arrays keep their flags.
    y[0, 0, 0] += 1.0
    z[0] = 0.0


@pytest.mark.parametrize("p,q", SHAPES)
def test_pfa_row_chunks_are_vec_of_residuals(monkeypatch, p, q):
    # The factor is never held whole: put its columns together from the row
    # chunks that both walks of fdp_pfa see.
    ds = random_dataset(1, p, q)
    sig = build_stats(ds).sigma_hat
    for slices in (1, 2, covfactor._BLOCK_SLICES):
        monkeypatch.setattr(covfactor, "_BLOCK_SLICES", slices)
        for sigma_hat in (np.ones((p, q)), sig):
            cols = np.full((p * q, ds.n + ds.m), np.nan)
            cells = cols.reshape(q, p, -1)  # vec order: cell (r, c) is row c * p + r
            for r0, r1, chunk in _row_chunks(ds, sigma_hat):
                assert chunk.shape == (ds.n + ds.m, (r1 - r0) * q)
                assert chunk.flags.c_contiguous
                cells[:, r0:r1] = chunk.T.reshape(r1 - r0, q, -1).transpose(1, 0, 2)
            # Column s is vec of residual s.
            expected = residual_stack(ds, sigma_hat).transpose(2, 1, 0).reshape(p * q, -1)
            np.testing.assert_allclose(cols, expected, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("p,q", SHAPES)
def test_estimators_leave_the_data_unchanged(p, q):
    ds = random_dataset(2, p, q)
    y, z = ds.treatment.copy(), ds.control.copy()
    x = build_stats(ds)
    estimate_correlations(ds, x.sigma_hat)
    # The threshold rejects some cell, so pfa walks the data twice.
    assert pfa_at_count(ds, x, 0.99, 1) > 0.0
    assert np.array_equal(ds.treatment, y)
    assert np.array_equal(ds.control, z)


def traced_peak(fn, *args):
    """Bytes that ``fn(*args)`` allocates at its peak, beyond what was live."""
    # numpy reports its buffers to tracemalloc, so the peak counts every
    # temporary that fn makes.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_correlation_peak_memory_is_one_default_block():
    # A block holds 8 of the 40 observations: the peak is that block, the two
    # group means and numpy's fixed-size ufunc buffers (0.47 stacks measured,
    # 1.25 when the whole stack was one block).
    p = q = 60
    ds = random_dataset(3, p, q, n=20, m=20)
    sig = build_stats(ds).sigma_hat
    stack_bytes = 8 * (ds.n + ds.m) * p * q
    peak = traced_peak(estimate_correlations, ds, sig)
    assert peak < 0.6 * stack_bytes, (peak, stack_bytes)


def test_correlation_peak_memory_is_one_block(monkeypatch):
    p = q = 60
    ds = random_dataset(3, p, q, n=20, m=20)
    sig = build_stats(ds).sigma_hat
    stack_bytes = 8 * (ds.n + ds.m) * p * q
    monkeypatch.setattr(covfactor, "_BLOCK_SLICES", 4)
    peak = traced_peak(estimate_correlations, ds, sig)
    assert peak < 0.5 * stack_bytes, (peak, stack_bytes)


def test_pfa_row_walks_peak_memory_is_one_chunk():
    # Each of pfa's two walks fills one chunk of 8 of the 60 matrix rows, and
    # the first walk's chunk is freed before the second starts; beside it live
    # the group means and a few (p, q) arrays, never the factor, a copy of
    # the stack or a (p*q, k) eigenvector array.  Measured with numpy 2.4.6:
    # 0.33 stacks with three factors and 0.32 with the chosen count (1 here),
    # against 1.18 when the whole factor was held.
    p = q = 60
    ds = random_dataset(3, p, q, n=20, m=20)
    x = build_stats(ds)
    stack_bytes = 8 * (ds.n + ds.m) * p * q
    for peak in (traced_peak(pfa_at_count, ds, x, 0.2, 3), traced_peak(fdp_pfa, ds, x, 0.2)):
        assert peak < 0.4 * stack_bytes, (peak, stack_bytes)


def test_round_peak_memory_is_the_data_plus_small_arrays():
    # One run_experiment round with all three methods holds its data plus one
    # block at a time.  Measured with numpy 2.4.6: 1.88 times the data; 2.81
    # when pfa and the correlations each held a stack-sized residual array.
    spec = preset_spec(1, "a", p=60, q=60, n=20, m=20)
    data_bytes = 8 * (spec.n + spec.m) * spec.p * spec.q
    run_experiment(spec, 0.001, 1, 5, max_workers=1)  # warm caches outside the trace
    peak = traced_peak(run_experiment, spec, 0.001, 1, 5, METHODS, "trimmed_l1", 1)
    assert peak < 2.1 * data_bytes, (peak, data_bytes)


@pytest.mark.parametrize(
    "estimator",
    [
        lambda ds, x, bad: estimate_correlations(ds, bad),
        # Checked before the p-values too, which are a (p, q) array.
        lambda ds, x, bad: fdp_pfa(ds, TestMatrix(x.x, bad, x.scale), 0.5),
    ],
    ids=["estimate_correlations", "fdp_pfa"],
)
def test_sigma_hat_is_checked_before_any_residual_is_built(estimator):
    p = q = 60
    ds = random_dataset(7, p, q, n=20, m=20)
    x = build_stats(ds)
    sig = x.sigma_hat
    zero = sig.copy()
    zero[1, 2] = 0.0
    for bad, error, match in (
        (zero, DegenerateVariance, r"\(1, 2\)"),
        (sig[:, :-1], ValueError, "does not match"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(error, match=match):
                estimator(ds, x, bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A residual block holds at least one observation, and so does any
        # (p, q) array.
        assert peak < 8 * p * q, (peak, 8 * p * q)


def test_dataset_check_peak_memory_is_one_block():
    # A whole-group isfinite would build a bool array of 1/16 of the data;
    # the min/max check builds none.
    p = q = 60
    rng = derive_rng(6)
    y, z = rng.standard_normal((20, p, q)), rng.standard_normal((20, p, q))
    data_bytes = y.nbytes + z.nbytes
    peak = traced_peak(TwoSampleDataset, y, z)
    assert peak < 0.01 * data_bytes, (peak, data_bytes)


def test_statistics_peak_memory_is_a_few_cells():
    # The one-pass pooled moments keep a handful of (p, q) buffers, whatever n + m.
    p = q = 60
    ds = random_dataset(4, p, q, n=50, m=50)
    data_bytes = ds.treatment.nbytes + ds.control.nbytes
    peak = traced_peak(build_stats, ds)
    assert peak < 0.1 * data_bytes, (peak, data_bytes)


@pytest.mark.parametrize("model", [1, 3])
def test_generation_peak_memory_is_the_data_plus_one_observation(model):
    # Each observation is transformed in place: the only temporary is one.
    spec = preset_spec(model, "a", p=60, q=60, n=20, m=20)
    gen = _RoundGenerator(spec, *gen_correlations(spec, derive_rng(5, 0, 0)))
    data_bytes = 8 * (spec.n + spec.m) * spec.p * spec.q
    peak = traced_peak(gen.generate, derive_rng(5, 1, 1))
    assert peak < 1.1 * data_bytes, (peak, data_bytes)
