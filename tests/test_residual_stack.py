"""The ``(p, n + m, q)`` residual stack: layout, aliasing and peak memory."""

import tracemalloc

import numpy as np
import pytest

from matfdp.covfactor import estimate_correlations
from matfdp.linalg import vec
from matfdp.pfa import build_thin_factor
from matfdp.rng import derive_rng
from matfdp.teststats import TwoSampleDataset, pooled_sigma, residuals

SHAPES = [(4, 5), (1, 6), (5, 1), (1, 1)]


def random_dataset(seed, p, q, n=6, m=7):
    rng = derive_rng(seed)
    return TwoSampleDataset(
        rng.standard_normal((n, p, q)) + 2.0, rng.standard_normal((m, p, q)) - 1.0
    )


def expected_residual(ds, s, sigma_hat=None):
    """Observation ``s`` (treatment first) centred at its group mean."""
    group = ds.treatment if s < ds.n else ds.control
    r = group[s if s < ds.n else s - ds.n] - group.mean(axis=0)
    return r if sigma_hat is None else r / sigma_hat


@pytest.mark.parametrize("p,q", SHAPES)
def test_residual_layout(p, q):
    ds = random_dataset(0, p, q)
    sig = pooled_sigma(ds)
    for sigma_hat in (None, sig):
        resid = residuals(ds, sigma_hat)
        assert resid.shape == (p, ds.n + ds.m, q)
        assert resid.flags.c_contiguous
        for s in range(ds.n + ds.m):
            np.testing.assert_allclose(
                resid[:, s, :], expected_residual(ds, s, sigma_hat), rtol=1e-14, atol=1e-14
            )


@pytest.mark.parametrize("p,q", SHAPES)
def test_thin_factor_columns_are_vec_of_residuals(p, q):
    ds = random_dataset(1, p, q)
    sig = pooled_sigma(ds)
    for sigma_hat in (None, sig):
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
    build_thin_factor(ds)
    residuals(ds, sig)
    assert np.array_equal(ds.treatment, y)
    assert np.array_equal(ds.control, z)


def test_correlation_peak_memory_is_one_stack():
    # numpy reports its buffers to tracemalloc, so the traced peak counts
    # every copy of the stack that estimate_correlations makes.
    p = q = 60
    ds = random_dataset(3, p, q, n=20, m=20)
    sig = pooled_sigma(ds)
    stack_bytes = 8 * (ds.n + ds.m) * p * q
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        estimate_correlations(ds, sig)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack_bytes, (peak, stack_bytes)
