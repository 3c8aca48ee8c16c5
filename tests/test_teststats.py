import numpy as np
import pytest
from scipy.special import ndtr

from matfdp.errors import DegenerateVariance
from matfdp.teststats import (
    TestMatrix,
    TwoSampleDataset,
    p_values,
    rejection_count,
    true_fdp,
)
from matfdp.teststats import test_matrix as build_stats


def make_dataset(y_cells, z_cells):
    """Build a 1x1-cell dataset from scalar observation lists."""
    y = np.asarray(y_cells, dtype=float).reshape(-1, 1, 1)
    z = np.asarray(z_cells, dtype=float).reshape(-1, 1, 1)
    return TwoSampleDataset(treatment=y, control=z)


def random_dataset(rng, n=6, m=7, p=4, q=5, shift=0.0):
    y = rng.standard_normal((n, p, q)) + shift
    z = rng.standard_normal((m, p, q))
    return TwoSampleDataset(treatment=y, control=z)


def test_dataset_validation():
    with pytest.raises(ValueError):
        TwoSampleDataset(np.zeros((1, 2, 2)), np.zeros((4, 2, 2)))
    with pytest.raises(ValueError):
        TwoSampleDataset(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))  # n + m < 5
    with pytest.raises(ValueError):
        TwoSampleDataset(np.zeros((3, 2, 2)), np.zeros((3, 2, 3)))
    with pytest.raises(ValueError, match="3-D"):
        TwoSampleDataset(np.zeros((3, 2)), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="dimensions must be positive"):
        TwoSampleDataset(np.zeros((3, 0, 2)), np.zeros((3, 0, 2)))
    bad = np.zeros((3, 2, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        TwoSampleDataset(bad, np.zeros((3, 2, 2)))
    bad = np.ones((3, 2, 2))
    bad[1, 0, 1] = -np.inf  # finite max: only the min sees it
    with pytest.raises(ValueError, match="non-finite"):
        TwoSampleDataset(bad, np.zeros((3, 2, 2)))
    bad = np.zeros((3, 2, 2))
    bad[-1, 1, 1] = np.nan  # the last control observation
    with pytest.raises(ValueError, match="non-finite"):
        TwoSampleDataset(np.zeros((3, 2, 2)), bad)


def test_pooled_sigma_hand_case():
    # Deviations of 1 around each group mean: ss = 4, df = 2, variance = 2.
    ds = make_dataset([1.0, 3.0, 2.0], [2.0, 4.0])
    # Recompute directly as the oracle.
    y = np.array([1.0, 3.0, 2.0])
    z = np.array([2.0, 4.0])
    expected = np.sqrt(
        (((y - y.mean()) ** 2).sum() + ((z - z.mean()) ** 2).sum()) / 3.0
    )
    assert build_stats(ds).sigma_hat[0, 0] == pytest.approx(expected, abs=1e-14)

    ds2 = make_dataset([1.0, 3.0], [2.0, 4.0, 3.0])
    y2, z2 = np.array([1.0, 3.0]), np.array([2.0, 4.0, 3.0])
    expected2 = np.sqrt(
        (((y2 - y2.mean()) ** 2).sum() + ((z2 - z2.mean()) ** 2).sum()) / 3.0
    )
    assert build_stats(ds2).sigma_hat[0, 0] == pytest.approx(expected2, abs=1e-14)


def test_pooled_sigma_degenerate_cell():
    ds = make_dataset([2.0, 2.0, 2.0], [5.0, 5.0])
    with pytest.raises(DegenerateVariance) as err:
        build_stats(ds)
    assert (err.value.row, err.value.col) == (0, 0)


def test_statistic_hand_case():
    # ybar = 2, zbar = 3, pooled sigma = sqrt((2 + 2) / 3), scale = sqrt(6/5).
    ds = make_dataset([1.0, 3.0, 2.0], [2.0, 4.0])
    tm = build_stats(ds)
    sigma = np.sqrt(4.0 / 3.0)
    expected = np.sqrt(3.0 * 2.0 / 5.0) * (2.0 - 3.0) / sigma
    assert tm.x[0, 0] == pytest.approx(expected, abs=1e-14)
    assert tm.scale == pytest.approx(np.sqrt(6.0 / 5.0), abs=1e-15)
    assert tm.sigma_hat[0, 0] == pytest.approx(sigma, abs=1e-14)


def test_statistic_translation_invariance():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng)
    shift = rng.standard_normal((ds.p, ds.q))
    shifted = TwoSampleDataset(ds.treatment + shift, ds.control + shift)
    assert np.allclose(build_stats(ds).x, build_stats(shifted).x, atol=1e-10)


def test_statistic_duplication_oracle():
    # Duplicating every observation is recomputed directly, not asserted from a
    # guessed closed form.
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, n=5, m=6, p=3, q=3)
    doubled = TwoSampleDataset(
        np.concatenate([ds.treatment, ds.treatment]),
        np.concatenate([ds.control, ds.control]),
    )
    tm, tm2 = build_stats(ds), build_stats(doubled)
    n, m = ds.n, ds.m
    scale_ratio = np.sqrt((4 * n * m / (2 * n + 2 * m)) / (n * m / (n + m)))
    sigma_ratio = tm.sigma_hat / tm2.sigma_hat
    assert np.allclose(tm2.x, tm.x * scale_ratio * sigma_ratio, atol=1e-10)


def test_p_values_reference_points():
    x = np.array([[1.959964, 0.0], [-1.959964, 10.0]])
    pv = p_values(TestMatrix(x=x, sigma_hat=np.ones((2, 2)), scale=1.0))
    assert pv[0, 0] == pytest.approx(0.05, abs=1e-6)
    assert pv[1, 0] == pytest.approx(0.05, abs=1e-6)
    assert pv[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert pv[1, 1] < 1.6e-23
    assert pv[1, 1] > 0.0
    # Symmetry in the statistic sign.
    assert pv[0, 0] == pv[1, 0]
    # Agreement with the plain CDF formula where it is accurate.
    assert pv[0, 0] == pytest.approx(2.0 * ndtr(-1.959964), rel=1e-12)


def test_rejection_count_and_bounds():
    p = np.array([[0.001, 0.2], [0.05, 0.05]])
    assert rejection_count(p, 0.05) == 3
    assert rejection_count(p, 0.0005) == 0
    with pytest.raises(ValueError):
        rejection_count(p, 0.0)
    with pytest.raises(ValueError):
        rejection_count(p, 1.0)


def test_true_fdp_conventions():
    p = np.array([[0.001, 0.2], [0.03, 0.6]])
    mask = np.array([[True, True], [False, True]])
    out = true_fdp(p, mask, 0.05)
    assert (out.false_discoveries, out.discoveries) == (1, 2)
    assert out.fdp == pytest.approx(0.5)
    # Nothing rejected: 0/0 = 0.
    out0 = true_fdp(p, mask, 1e-5)
    assert out0.fdp == 0.0 and out0.discoveries == 0
    # All-null mask makes V = R.
    outall = true_fdp(p, np.ones((2, 2), dtype=bool), 0.05)
    assert outall.false_discoveries == outall.discoveries == 2
    with pytest.raises(ValueError, match="mask shape"):
        true_fdp(p, np.ones((2, 3), dtype=bool), 0.05)


def test_true_fdp_monotone_counts():
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, shift=0.5)
    pv = p_values(build_stats(ds))
    mask = rng.uniform(size=pv.shape) < 0.5
    last_r = 0
    for t in (0.001, 0.01, 0.05, 0.2, 0.5):
        out = true_fdp(pv, mask, t)
        assert 0 <= out.false_discoveries <= out.discoveries <= pv.size
        assert out.discoveries >= last_r
        last_r = out.discoveries
