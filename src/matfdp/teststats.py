"""Cell-wise two-sample statistics.

Given a treatment stack and a control stack of ``p x q`` matrices, each cell
``(i, j)`` is tested for a mean difference with the standardised statistic

    x_ij = sqrt(n * m / (n + m)) * (ybar_ij - zbar_ij) / sigma_ij,

where ``sigma_ij`` is the pooled standard deviation over both groups.  Two-sided
p-values come from the standard normal reference; rejection counts and the
realised false discovery proportion are simple functionals of those p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateVariance

#: Pooled standard deviations at or below this are treated as degenerate.
SIGMA_FLOOR = 1e-300


@dataclass(frozen=True)
class TwoSampleDataset:
    """Two stacks of equally sized matrices, one per group.

    Attributes
    ----------
    treatment : numpy.ndarray
        Shape ``(n, p, q)`` with ``n >= 2``.
    control : numpy.ndarray
        Shape ``(m, p, q)`` with ``m >= 2`` and ``n + m >= 5``.
    """

    treatment: np.ndarray
    control: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.treatment, dtype=np.float64)
        z = np.asarray(self.control, dtype=np.float64)
        if y.ndim != 3 or z.ndim != 3:
            raise ValueError(
                f"group stacks must be 3-D, got shapes {y.shape} and {z.shape}"
            )
        if y.shape[1:] != z.shape[1:]:
            raise ValueError(
                f"group matrix shapes differ: {y.shape[1:]} vs {z.shape[1:]}"
            )
        if y.shape[1] == 0 or y.shape[2] == 0:
            raise ValueError(f"matrix dimensions must be positive, got {y.shape[1:]}")
        n, m = y.shape[0], z.shape[0]
        if n < 2 or m < 2:
            raise ValueError(f"each group needs at least 2 observations, got n={n}, m={m}")
        if n + m < 5:
            raise ValueError(f"need n + m >= 5 for a stable pooled scale, got {n + m}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "treatment", y)
        object.__setattr__(self, "control", z)

    @property
    def n(self) -> int:
        return int(self.treatment.shape[0])

    @property
    def m(self) -> int:
        return int(self.control.shape[0])

    @property
    def p(self) -> int:
        return int(self.treatment.shape[1])

    @property
    def q(self) -> int:
        return int(self.treatment.shape[2])


def residuals(ds: TwoSampleDataset, sigma_hat: np.ndarray | None = None) -> np.ndarray:
    """Observations centred at their group means, shape ``(p, n + m, q)``.

    Axis 1 is the observation axis, treatment first: ``resid[:, s, :]`` is
    observation ``s`` minus its group mean.  The stack is one C-contiguous
    array written in place, so ``reshape(p, -1)`` (rows) and
    ``reshape(-1, q)`` (columns) are views and both Gram products of
    :func:`~matfdp.covfactor.estimate_correlations` run without a copy.  With
    ``sigma_hat`` given, the stack is divided cell-wise by it in place (the
    correlation scale); a ``sigma_hat`` not of shape ``(p, q)`` raises
    ``ValueError`` and one with a non-positive cell raises
    :class:`DegenerateVariance` naming the first such cell.
    """
    if sigma_hat is not None:
        sigma_hat = np.asarray(sigma_hat, dtype=np.float64)
        if sigma_hat.shape != (ds.p, ds.q):
            raise ValueError(
                f"sigma_hat shape {sigma_hat.shape} does not match data ({ds.p}, {ds.q})"
            )
        bad = np.argwhere(sigma_hat <= 0.0)
        if bad.size:
            i, j = (int(v) for v in bad[0])
            raise DegenerateVariance(i, j)
    resid = np.empty((ds.p, ds.n + ds.m, ds.q))
    for group, out in ((ds.treatment, resid[:, : ds.n]), (ds.control, resid[:, ds.n :])):
        np.subtract(group.transpose(1, 0, 2), group.mean(axis=0)[:, None, :], out=out)
    if sigma_hat is not None:
        resid /= sigma_hat[:, None, :]
    return resid


def pooled_sigma(ds: TwoSampleDataset) -> np.ndarray:
    """Cell-wise pooled standard deviation, shape ``(p, q)``.

    Sums squared deviations from each group mean and divides by
    ``n + m - 2`` before taking the square root.

    Raises
    ------
    DegenerateVariance
        If any cell's pooled standard deviation is at or below ``SIGMA_FLOOR``;
        the exception carries the first offending cell in row-major order.
    """
    y = ds.treatment
    z = ds.control
    ss = ((y - y.mean(axis=0)) ** 2).sum(axis=0) + ((z - z.mean(axis=0)) ** 2).sum(axis=0)
    sigma = np.sqrt(ss / (ds.n + ds.m - 2))
    bad = np.argwhere(sigma <= SIGMA_FLOOR)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise DegenerateVariance(i, j)
    return sigma


@dataclass(frozen=True)
class TestMatrix:
    """Standardised mean-difference statistics for one dataset.

    Attributes
    ----------
    x : numpy.ndarray
        Statistics, shape ``(p, q)``.
    sigma_hat : numpy.ndarray
        Pooled standard deviations used in the standardisation, shape ``(p, q)``.
    scale : float
        The factor ``sqrt(n * m / (n + m))``.
    """

    x: np.ndarray
    sigma_hat: np.ndarray
    scale: float

    # Keep pytest from collecting this test-like name out of user test modules.
    __test__ = False

    @property
    def p(self) -> int:
        return int(self.x.shape[0])

    @property
    def q(self) -> int:
        return int(self.x.shape[1])


def test_matrix(ds: TwoSampleDataset) -> TestMatrix:
    """Compute the standardised statistic matrix for a dataset."""
    sigma = pooled_sigma(ds)
    scale = math.sqrt(ds.n * ds.m / (ds.n + ds.m))
    diff = ds.treatment.mean(axis=0) - ds.control.mean(axis=0)
    return TestMatrix(x=scale * diff / sigma, sigma_hat=sigma, scale=scale)


test_matrix.__test__ = False  # same collection guard as the class


def p_values(tm: TestMatrix) -> np.ndarray:
    """Two-sided normal p-values ``2 * Phi(-|x|)``, shape ``(p, q)``.

    Uses the erfc-backed normal CDF, so extreme statistics keep full relative
    accuracy instead of flushing to zero near ``|x| ~ 8``.
    """
    return 2.0 * ndtr(-np.abs(tm.x))


def check_threshold(threshold: float) -> None:
    """Raise ``ValueError`` unless the rejection threshold lies in ``(0, 1)``."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")


def rejection_count(p: np.ndarray, threshold: float) -> int:
    """Number of p-values at or below ``threshold``."""
    check_threshold(threshold)
    return int(np.count_nonzero(np.asarray(p) <= threshold))


@dataclass(frozen=True)
class TrueFdp:
    """Realised error counts at one threshold.

    ``false_discoveries`` is the number of rejected cells that are true nulls,
    ``discoveries`` the total rejections, and ``fdp`` their ratio with the
    ``0 / 0 = 0`` convention.
    """

    false_discoveries: int
    discoveries: int
    fdp: float


def true_fdp(p: np.ndarray, null_mask: np.ndarray, threshold: float) -> TrueFdp:
    """Realised false discovery proportion given the ground-truth null mask.

    Parameters
    ----------
    p : numpy.ndarray
        P-values, shape ``(p, q)``.
    null_mask : numpy.ndarray
        Boolean array of the same shape; ``True`` marks a true null cell.
    threshold : float
        Rejection threshold in ``(0, 1)``.
    """
    parr = np.asarray(p)
    mask = np.asarray(null_mask, dtype=bool)
    if mask.shape != parr.shape:
        raise ValueError(f"mask shape {mask.shape} does not match p-values {parr.shape}")
    check_threshold(threshold)
    rejected = parr <= threshold
    r = int(np.count_nonzero(rejected))
    v = int(np.count_nonzero(rejected & mask))
    return TrueFdp(false_discoveries=v, discoveries=r, fdp=(v / r) if r else 0.0)
