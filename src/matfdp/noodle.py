"""Factor fit and plug-in FDP estimate on pair loadings ("noodle" estimator).

The statistic vector is modelled as ``vec(X) = F w + noise`` where column
``k`` of ``F`` is the separable eigenvector ``kron(gamma_a, nu_b)`` of one
selected pair (see :class:`~matfdp.covfactor.PairLoadings`), scaled by the
square root of its weight ``theta_k = max(lam_b, 0) * max(xi_a, 0)``.
Noodle selects the top-``h`` products of the Kronecker spectrum; sandwich
runs the same fit and estimate on the full top-``k1`` x top-``k2`` grid.
Because those eigenvectors are orthonormal, the least-squares realised factors have the
closed form ``w_k = nu_b' X gamma_a / sqrt(theta_k)`` and the fitted common
component is the orthogonal projection of ``vec(X)`` onto the span of the
pairs with nonzero weight.  A pair with a negative eigenvalue weighs 0 and
has a zero loading column: its factor is 0 and it adds nothing to the
common component, as in the trimmed fit and :func:`fdp_oracle`.

The FDP estimate at threshold ``t`` sums, over all cells, the conditional
probability that a null cell rejects given the common component:

    (1 / R) * sum_l [ Phi(a_l * (z + zeta_l)) + Phi(a_l * (z - zeta_l)) ]

with ``z = Phi^{-1}(t / 2)``, ``a_l = (1 - ||f_l||^2)^{-1/2}``, and ``zeta_l``
the fitted common component at cell ``l``.  With no factors the sum collapses
to ``p * q * t`` and the estimate is exactly ``p * q * t / R``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .covfactor import PairLoadings
from .teststats import TestMatrix, check_threshold
from .trimreg import TrimmedFit, trimmed_l1_fit

_ESTIMATORS = ("least_squares", "trimmed_l1")


@dataclass(frozen=True)
class FactorFit:
    """Realised factors and fitted common component for one statistic matrix.

    ``common_part`` holds the fitted factor contribution per cell, shape
    ``(p, q)``; ``factors`` the realised factor estimates per pair, shape
    ``(h,)``.  For grid loadings ``factors.reshape((k1, k2), order="F")`` is
    the realised factor matrix.  ``trim`` is the trimmed fit run on the pairs
    with nonzero weight, which says how it ended (``converged``,
    ``used_fallback``, ``iterations``); ``None`` on the least-squares path.
    """

    loadings: PairLoadings
    factors: np.ndarray
    common_part: np.ndarray
    trim: TrimmedFit | None = None


def check_estimator(estimator: str) -> None:
    """Raise ``ValueError`` unless ``estimator`` is a known realised-factor fit."""
    if estimator not in _ESTIMATORS:
        raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")


def _fit(x: TestMatrix, loadings: PairLoadings, estimator: str, trimmed_fit) -> FactorFit:
    """The realised-factor fit of both methods; ``trimmed_fit`` is the caller's ``trimmed_l1_fit``.

    A pair of weight 0 gets factor 0 and adds nothing to the common part on
    either path.  Its loading column is all zeros, so it stays out of the
    trimmed design, which would otherwise be rank-deficient.
    """
    check_estimator(estimator)
    if (x.p, x.q) != (loadings.p, loadings.q):
        raise ValueError(
            f"statistic shape {(x.p, x.q)} does not match loadings "
            f"{(loadings.p, loadings.q)}"
        )
    sqrt_theta = np.sqrt(loadings.values)
    live = sqrt_theta > 0.0
    factors = np.zeros(loadings.h)
    trim = None
    if estimator == "trimmed_l1":
        v1, g1 = loadings.vector_factors()
        trim = trimmed_fit(x.x, v1[:, live] * sqrt_theta[live], g1[:, live])
        factors[live] = trim.w
        coef = sqrt_theta * factors
    else:
        v = loadings.eig1.vectors[:, : loadings.k1]
        g = loadings.eig2.vectors[:, : loadings.k2]
        proj = (v.T @ x.x @ g)[loadings.idx1, loadings.idx2]
        factors[live] = proj[live] / sqrt_theta[live]
        coef = np.where(live, proj, 0.0)
    return FactorFit(loadings, factors, loadings.expand(coef), trim)


def fit_noodle(
    x: TestMatrix,
    loadings: PairLoadings,
    estimator: str = "least_squares",
) -> FactorFit:
    """Estimate realised factors and the common component.

    Parameters
    ----------
    x : TestMatrix
        Statistic matrix, shape matching the loadings.
    loadings : PairLoadings
        Selected eigenvector pairs.
    estimator : str
        ``"least_squares"`` for the closed-form projection, ``"trimmed_l1"``
        to refit the factors by least trimmed squares: C-steps from the
        projection that keep the ``trimreg.TRIM_FRACTION`` of cells with the
        smallest residual ``|z - zeta|`` until the kept set repeats.
    """
    return _fit(x, loadings, estimator, trimmed_l1_fit)


def _plugin_estimate(row_norms_sq, common, rejections: int, threshold: float) -> float:
    """Plug-in sum over the given cells per rejection.

    ``row_norms_sq`` and ``common`` are the squared loading norms and common
    part of the same cells (all ``(p, q)``, or the oracle's null cells); when
    both are all zero no factor loads them, and the sum is exactly
    ``cells * t``.  Returns 0 when nothing is rejected and clamps to
    ``[0, cells / R]``.  All three estimators end here.
    """
    check_threshold(threshold)
    if rejections <= 0:
        return 0.0
    cells = row_norms_sq.size
    if row_norms_sq.any() or common.any():
        z = ndtri(threshold / 2.0)
        a = 1.0 / np.sqrt(1.0 - row_norms_sq)
        total = float((ndtr(a * (z + common)) + ndtr(a * (z - common))).sum())
    else:
        total = cells * threshold
    return float(min(max(total / rejections, 0.0), cells / rejections))


def fdp_noodle(fit: FactorFit, rejections: int, threshold: float) -> float:
    """Plug-in FDP estimate at ``threshold`` given ``rejections`` discoveries.

    Returns 0 when nothing is rejected.  With zero factors (or every weight
    0) the estimate is exactly ``p * q * threshold / rejections``.  The
    result is clamped to ``[0, p * q / rejections]``.
    """
    return _plugin_estimate(fit.loadings.row_norms_sq, fit.common_part, rejections, threshold)


def fdp_oracle(
    loadings: PairLoadings, factors, null_mask, rejections: int, threshold: float
) -> float:
    """Plug-in sum over the true null cells (``null_mask`` is ``True`` there).

    ``factors`` holds the known realised factors, shape ``(loadings.h,)`` in
    the order of :attr:`FactorFit.factors`: ``W.ravel(order="F")`` for a grid
    factor matrix ``W``.  The plug-in estimate approximates this sum from
    above by summing over every cell.  With no factor loading a null cell it
    is exactly ``#nulls * t / R``.
    """
    mask = np.asarray(null_mask, dtype=bool)
    p, q = loadings.p, loadings.q
    if mask.shape != (p, q):
        raise ValueError(f"mask shape {mask.shape} does not match ({p}, {q})")
    w = np.asarray(factors, dtype=np.float64)
    if w.shape != (loadings.h,):
        raise ValueError(f"factors shape {w.shape} does not match ({loadings.h},)")
    common = loadings.expand(np.sqrt(loadings.values) * w)
    return _plugin_estimate(loadings.row_norms_sq[mask], common[mask], rejections, threshold)
