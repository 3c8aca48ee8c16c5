"""Cell-wise two-sample statistics.

Given a treatment stack and a control stack of ``p x q`` matrices, each cell
``(i, j)`` is tested for a mean difference with the standardised statistic

    x_ij = sqrt(n * m / (n + m)) * (ybar_ij - zbar_ij) / sigma_ij,

where ``sigma_ij`` is the pooled standard deviation over both groups.  Two-sided
p-values come from the standard normal reference; rejection counts and the
realised false discovery proportion are simple functionals of those p-values.
:func:`_standardise` fills every residual block that the correlations and
pfa read, with the group means each dataset computes once for those walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateVariance


@dataclass(frozen=True)
class TwoSampleDataset:
    """Two stacks of equally sized matrices, one per group.

    A float64 stack is not copied: the dataset keeps a read-only view, so an
    edit through ``treatment`` or ``control`` raises ``ValueError`` and the
    group means that the residual walks share cannot go stale.

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
        # Views, so that making them read-only leaves the caller's arrays writable.
        y = np.asarray(self.treatment, dtype=np.float64).view()
        z = np.asarray(self.control, dtype=np.float64).view()
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
        check_group_sizes(y.shape[0], z.shape[0])
        # min and max propagate NaN, and -inf / +inf show in one of them: no
        # data-sized temporary, unlike a whole-group isfinite.
        for group in (y, z):
            if not (np.isfinite(group.min()) and np.isfinite(group.max())):
                raise ValueError("dataset contains non-finite entries")
            group.flags.writeable = False
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

    @cached_property
    def _group_means(self) -> tuple[np.ndarray, np.ndarray]:
        """``(treatment.mean(axis=0), control.mean(axis=0))``, for the residual walks.

        Computed on the first walk and kept with the dataset.  :func:`test_matrix`
        frees its own copy on return, so a caller that stops at the statistics
        holds nothing more than them.
        """
        return self.treatment.mean(axis=0), self.control.mean(axis=0)


def check_group_sizes(n: int, m: int) -> None:
    """Raise ``ValueError`` unless ``n, m >= 2`` and ``n + m >= 5``.

    The one rule on group sizes: :class:`TwoSampleDataset` checks its stacks
    with it, and ``simlab.ModelSpec`` its ``n`` and ``m``.
    """
    if n < 2 or m < 2:
        raise ValueError(f"each group needs at least 2 observations, got n={n}, m={m}")
    if n + m < 5:
        raise ValueError(f"need n + m >= 5 for a stable pooled scale, got {n + m}")


def _standardise(out, ds: TwoSampleDataset, sigma_hat, start: int, rows=slice(None)) -> None:
    """Fill ``out[s - start]`` with rows ``rows`` of observation ``s``, standardised.

    Treatment comes first, and each group's segment of the block is copied,
    centred at its group mean and divided by ``sigma_hat`` in place.
    """
    for group, lo, mean in zip((ds.treatment, ds.control), (0, ds.n), ds._group_means):
        a, b = max(start, lo), min(start + len(out), lo + len(group))
        if a < b:
            # Copy, then subtract in place: numpy buffers one operand of this
            # broadcast (up to 64 kB), and two of a three-operand subtract.
            seg = out[a - start : b - start]
            seg[...] = group[a - lo : b - lo, rows]
            seg -= mean[rows]
            seg /= sigma_hat[rows]


def _pooled_moments(ds: TwoSampleDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both group means and the pooled standard deviation, in one pass.

    Squared deviations are added one observation at a time, the order of
    numpy's axis-0 sum, so the result has the bits of the two-pass formula
    ``((y - ybar) ** 2).sum(0) + ((z - zbar) ** 2).sum(0)`` without its
    data-sized temporaries.  A cell whose standard deviation is zero raises
    :class:`DegenerateVariance` through :func:`check_sigma_hat`.
    """
    means = (ds.treatment.mean(axis=0), ds.control.mean(axis=0))
    ss = np.zeros((ds.p, ds.q))
    dev = np.empty_like(ss)
    for group, mean in zip((ds.treatment, ds.control), means):
        acc = np.zeros_like(ss)
        for obs in group:
            np.subtract(obs, mean, out=dev)
            dev *= dev
            acc += dev
        ss += acc
    ss /= ds.n + ds.m - 2
    return means[0], means[1], check_sigma_hat(ds, np.sqrt(ss, out=ss))


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
    ybar, zbar, sigma = _pooled_moments(ds)
    scale = math.sqrt(ds.n * ds.m / (ds.n + ds.m))
    diff = ybar - zbar
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


def check_sigma_hat(ds: TwoSampleDataset, sigma_hat) -> np.ndarray:
    """Return ``sigma_hat`` as a float array after checking it against ``ds``.

    Raises ``ValueError`` unless its shape is ``(p, q)``, and
    :class:`DegenerateVariance` naming the first non-positive cell in
    row-major order.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=np.float64)
    if sigma_hat.shape != (ds.p, ds.q):
        raise ValueError(
            f"sigma_hat shape {sigma_hat.shape} does not match data ({ds.p}, {ds.q})"
        )
    bad = np.argwhere(sigma_hat <= 0.0)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise DegenerateVariance(i, j)
    return sigma_hat


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
