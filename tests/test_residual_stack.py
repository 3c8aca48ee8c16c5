"""The residual stack and its observation blocks: layout, checks, aliasing and peak memory."""

import tracemalloc

import numpy as np
import pytest

from matfdp import covfactor
from matfdp.covfactor import estimate_correlations
from matfdp.errors import DegenerateVariance
from matfdp.linalg import vec
from matfdp.pfa import build_thin_factor
from matfdp.rng import derive_rng
from matfdp.simlab import _RoundGenerator, gen_correlations, preset_spec
from matfdp.teststats import TwoSampleDataset, pooled_sigma
from matfdp.teststats import test_matrix as build_stats

SHAPES = [(4, 5), (1, 6), (5, 1), (1, 1)]


def random_dataset(seed, p, q, n=6, m=7):
    rng = derive_rng(seed)
    return TwoSampleDataset(
        rng.standard_normal((n, p, q)) + 2.0, rng.standard_normal((m, p, q)) - 1.0
    )


def expected_residual(ds, s, sigma_hat):
    """Observation ``s`` (treatment first) centred at its group mean, over ``sigma_hat``."""
    group = ds.treatment if s < ds.n else ds.control
    return (group[s if s < ds.n else s - ds.n] - group.mean(axis=0)) / sigma_hat


@pytest.mark.parametrize("p,q", SHAPES)
def test_thin_factor_columns_are_vec_of_residuals(p, q):
    ds = random_dataset(1, p, q)
    sig = pooled_sigma(ds)
    for sigma_hat in (np.ones((p, q)), sig):
        tf = build_thin_factor(ds, sigma_hat)
        assert tf.columns.shape == (p * q, ds.n + ds.m)
        scale = np.sqrt(ds.n + ds.m - 2)
        for s in range(ds.n + ds.m):
            np.testing.assert_allclose(
                tf.columns[:, s],
                vec(expected_residual(ds, s, sigma_hat)) / scale,
                rtol=1e-14,
                atol=1e-14,
            )


@pytest.mark.parametrize("p,q", SHAPES)
def test_estimators_leave_the_data_unchanged(p, q):
    ds = random_dataset(2, p, q)
    y, z = ds.treatment.copy(), ds.control.copy()
    sig = pooled_sigma(ds)
    estimate_correlations(ds, sig)
    build_thin_factor(ds, sig)
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


def test_correlation_peak_memory_is_one_stack():
    # At the default budget this 1.2 MB stack is a single block.
    p = q = 60
    ds = random_dataset(3, p, q, n=20, m=20)
    sig = pooled_sigma(ds)
    stack_bytes = 8 * (ds.n + ds.m) * p * q
    peak = traced_peak(estimate_correlations, ds, sig)
    assert peak < 1.5 * stack_bytes, (peak, stack_bytes)


def test_correlation_peak_memory_is_one_block(monkeypatch):
    p = q = 60
    ds = random_dataset(3, p, q, n=20, m=20)
    sig = pooled_sigma(ds)
    stack_bytes = 8 * (ds.n + ds.m) * p * q
    monkeypatch.setattr(covfactor, "_BLOCK_BYTES", 4 * 8 * p * q)
    peak = traced_peak(estimate_correlations, ds, sig)
    assert peak < 0.5 * stack_bytes, (peak, stack_bytes)


def test_thin_factor_peak_memory_is_the_factor():
    # Each group is centred straight into the factor: no residual block or
    # copy of the stack lives beside it.
    p = q = 60
    ds = random_dataset(3, p, q, n=20, m=20)
    sig = pooled_sigma(ds)
    stack_bytes = 8 * (ds.n + ds.m) * p * q
    peak = traced_peak(build_thin_factor, ds, sig)
    assert peak < 1.3 * stack_bytes, (peak, stack_bytes)


@pytest.mark.parametrize("estimator", [estimate_correlations, build_thin_factor])
def test_sigma_hat_is_checked_before_any_residual_is_built(estimator):
    p = q = 60
    ds = random_dataset(7, p, q, n=20, m=20)
    sig = pooled_sigma(ds)
    zero = sig.copy()
    zero[1, 2] = 0.0
    for bad, error, match in (
        (zero, DegenerateVariance, r"\(1, 2\)"),
        (sig[:, :-1], ValueError, "does not match"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(error, match=match):
                estimator(ds, bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A residual block holds at least one observation.
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
