import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matfdp.trimreg as trimreg
from matfdp.trimreg import trimmed_l1_fit

# Same settings as the other property tests: derandomized, few examples.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def dense(left, right):
    """The ``(p*q, h)`` design in vec order: row ``c * p + r`` is ``right[c] * left[r]``."""
    return (right[:, None, :] * left[None, :, :]).reshape(-1, left.shape[1])


def problem(seed, p=12, q=10, h=3, noise=0.5, outliers=6, shift=20.0):
    """Separable loadings and a statistic matrix with Laplace noise and a few large cells."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((p, h))
    right = rng.standard_normal((q, h))
    z = (left * rng.standard_normal(h)) @ right.T + rng.laplace(scale=noise, size=(p, q))
    z.flat[rng.choice(p * q, outliers, replace=False)] += shift
    return z, left, right


#: Outliers of the size of the noise, so the kept set moves over several C-steps.
MIXED = dict(p=20, q=15, h=3, noise=1.0, outliers=30, shift=4.0)


def smallest_residuals(z, left, right, w, m_keep):
    """Sorted vec-order indices of the ``m_keep`` smallest ``|z - Dw|``, ties by index."""
    r = np.abs(z.ravel(order="F") - dense(left, right) @ w)
    return np.sort(np.argsort(r, kind="stable")[:m_keep])


def trimmed_ss(z, left, right, fit):
    r = z.ravel(order="F")[fit.kept] - dense(left, right)[fit.kept] @ fit.w
    return float(r @ r)


def test_zero_factors_is_noop():
    z = np.array([[1.0], [-2.0], [3.0]])
    fit = trimmed_l1_fit(z, np.zeros((3, 0)), np.zeros((1, 0)))
    assert fit.w.shape == (0,)
    assert fit.iterations == 0
    assert not fit.used_fallback
    assert fit.converged is True


def test_noiseless_exact_recovery():
    rng = np.random.default_rng(7)
    left, right = rng.standard_normal((8, 3)), rng.standard_normal((5, 3))
    w_true = np.array([1.5, -0.25, 2.0])
    fit = trimmed_l1_fit((left * w_true) @ right.T, left, right)
    assert np.max(np.abs(fit.w - w_true)) <= 1e-10
    assert not fit.used_fallback


@pytest.mark.parametrize("seed", range(5))
def test_matches_dense_least_squares_on_kept_cells(seed):
    z, left, right = problem(seed)
    fit = trimmed_l1_fit(z, left, right)
    assert fit.converged and not fit.used_fallback
    assert fit.kept.size == int(trimreg.TRIM_FRACTION * z.size)
    zv = z.ravel(order="F")
    w_ref = np.linalg.lstsq(dense(left, right)[fit.kept], zv[fit.kept], rcond=None)[0]
    assert np.max(np.abs(fit.w - w_ref)) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_kept_set_is_a_fixed_point(seed):
    z, left, right = problem(seed)
    fit = trimmed_l1_fit(z, left, right)
    assert fit.converged
    assert np.array_equal(fit.kept, smallest_residuals(z, left, right, fit.w, fit.kept.size))
    # The outliers are all dropped.
    assert not np.any(np.abs(z.ravel(order="F")[fit.kept]) > 15.0)


def test_trimmed_sum_of_squares_never_rises(monkeypatch):
    z, left, right = problem(5, **MIXED)
    steps = trimmed_l1_fit(z, left, right).iterations
    assert steps >= 3
    sums = []
    for cap in range(1, steps + 1):
        monkeypatch.setattr(trimreg, "MAX_ITERS", cap)
        sums.append(trimmed_ss(z, left, right, trimmed_l1_fit(z, left, right)))
    assert np.all(np.diff(sums) <= 1e-12 * sums[0])


@PROPERTY
@given(
    st.integers(3, 8),
    st.integers(3, 8),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.integers(-8, 8),
    st.booleans(),
)
def test_scaling_equivariance(p, q, h, seed, exponent, negate):
    # A power of two scales every step exactly, so the kept sets match bit for bit.
    z, left, right = problem(seed, p, q, h, outliers=2)
    c = (-1.0 if negate else 1.0) * 2.0**exponent
    fit1 = trimmed_l1_fit(z, left, right)
    fit2 = trimmed_l1_fit(c * z, left, right)
    assert np.array_equal(fit2.w, c * fit1.w)
    assert np.array_equal(fit2.kept, fit1.kept)
    assert fit2.iterations == fit1.iterations


def test_converged_flag():
    z, left, right = problem(1)
    fit = trimmed_l1_fit(z, left, right)
    assert fit.converged is True
    assert fit.iterations < trimreg.MAX_ITERS
    # The zero-factor and rank-deficient returns run no C-step.
    empty = trimmed_l1_fit(z, np.zeros((12, 0)), np.zeros((10, 0)))
    assert empty.converged is True
    fallback = trimmed_l1_fit(z, left[:, [0, 0]], right[:, [0, 0]])
    assert fallback.used_fallback and fallback.converged is True
    assert fallback.iterations == 0


def test_iteration_cap_reports_not_converged(monkeypatch):
    z, left, right = problem(5, **MIXED)
    assert trimmed_l1_fit(z, left, right).iterations > 1
    monkeypatch.setattr(trimreg, "MAX_ITERS", 1)
    fit = trimmed_l1_fit(z, left, right)
    assert fit.converged is False
    assert fit.iterations == 1


def test_outlier_is_trimmed_to_median_like_fit():
    # Single unit factor: the fit is a location estimate.  The kept
    # floor(0.9 * 4) = 3 cells drop the huge observation, so the solution
    # sits at 1 exactly.
    z = np.array([[1.0], [1.0], [1.0], [100.0]])
    fit = trimmed_l1_fit(z, np.ones((4, 1)), np.ones((1, 1)))
    assert fit.w[0] == pytest.approx(1.0, abs=1e-12)
    assert fit.kept.tolist() == [0, 1, 2]


def test_kept_set_is_smallest_residuals(monkeypatch):
    monkeypatch.setattr(trimreg, "TRIM_FRACTION", 0.6)
    # A 1 x 5 matrix ravels in vec order as its one row.
    z = np.array([[5.0, -1.0, 0.5, -7.0, 2.0]])
    fit = trimmed_l1_fit(z, np.ones((1, 1)), np.ones((5, 1)))
    # Start at the mean -0.1, keep {-1, 0.5, 2}, refit at 0.5: the set repeats.
    assert fit.kept.tolist() == [1, 2, 4]
    assert fit.w[0] == pytest.approx(0.5, abs=1e-12)


def test_ties_keep_lower_indices(monkeypatch):
    monkeypatch.setattr(trimreg, "TRIM_FRACTION", 0.5)
    z = np.array([[1.0, -1.0, 1.0, -1.0]])
    fit = trimmed_l1_fit(z, np.ones((1, 1)), np.ones((4, 1)))
    # Every residual about the mean 0 is 1; the first two cells stay.
    assert fit.kept.tolist() == [0, 1]
    assert fit.converged


def test_rank_deficient_falls_back_to_least_squares():
    rng = np.random.default_rng(41)
    col_l, col_r = rng.standard_normal((5, 1)), rng.standard_normal((4, 1))
    left, right = np.hstack([col_l, col_l]), np.hstack([col_r, col_r])  # rank 1
    z = 2.0 * col_l @ col_r.T
    fit = trimmed_l1_fit(z, left, right)
    assert fit.used_fallback
    # Min-norm solution splits the coefficient across the duplicates.
    assert np.allclose(fit.w, [1.0, 1.0], atol=1e-8)
    assert np.allclose((left * fit.w) @ right.T, z, atol=1e-8)


def test_too_few_kept_rows_raises():
    # floor(0.9 * 4) = 3 kept cells cannot fit 3 factors.
    with pytest.raises(ValueError):
        trimmed_l1_fit(np.arange(4.0).reshape(2, 2), np.ones((2, 3)), np.ones((2, 3)))


def test_design_rows_mismatch_rejected():
    z = np.arange(6.0).reshape(2, 3)
    with pytest.raises(ValueError):
        trimmed_l1_fit(z, np.ones((3, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        trimmed_l1_fit(z, np.ones((2, 2)), np.ones((3, 1)))
    with pytest.raises(ValueError):
        trimmed_l1_fit(z.ravel(), np.ones((6, 2)), np.ones((1, 2)))
