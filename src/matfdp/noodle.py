"""Factor fit and plug-in FDP estimate on pair loadings ("noodle" estimator).

The statistic vector is modelled as ``vec(X) = F w + noise`` where column
``k`` of ``F`` is the separable eigenvector ``kron(gamma_a, nu_b)`` of one
selected pair (see :class:`~matfdp.covfactor.PairLoadings`), scaled by the
square root of its weight ``theta_k = lam_b * xi_a``.  Noodle selects the
top-``h`` products of the Kronecker spectrum; sandwich runs the same fit and
estimate on the full top-``k1`` x top-``k2`` grid.  Because those
eigenvectors are orthonormal, the least-squares realised factors have the
closed form ``w_k = nu_b' X gamma_a / sqrt(theta_k)`` and the fitted common
component is the orthogonal projection of ``vec(X)`` onto the factor span.

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

from .covfactor import PairLoadings, noodle_loadings_from_corr
from .linalg import vec
from .teststats import TestMatrix, check_threshold
from .trimreg import TrimSpec, trimmed_l1_fit

_ESTIMATORS = ("least_squares", "trimmed_l1")


@dataclass(frozen=True)
class FactorFit:
    """Realised factors and fitted common component for one statistic matrix.

    ``common_part`` holds the fitted factor contribution per cell, shape
    ``(p, q)``; ``factors`` the realised factor estimates per pair, shape
    ``(h,)``.  For grid loadings ``factors.reshape((k1, k2), order="F")`` is
    the realised factor matrix.
    """

    loadings: PairLoadings
    factors: np.ndarray
    common_part: np.ndarray
    trim_fallback: bool = False


def _sqrt_weights(loadings: PairLoadings) -> np.ndarray:
    return np.sqrt(np.clip(loadings.values, 0.0, None))


def check_estimator(estimator: str) -> None:
    """Raise ``ValueError`` unless ``estimator`` is a known realised-factor fit."""
    if estimator not in _ESTIMATORS:
        raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")


def _needs_trimmed_fit(x: TestMatrix, loadings: PairLoadings, estimator: str) -> bool:
    """Validate fit arguments; ``False`` when the closed-form path applies."""
    check_estimator(estimator)
    if (x.p, x.q) != (loadings.p, loadings.q):
        raise ValueError(
            f"statistic shape {(x.p, x.q)} does not match loadings "
            f"{(loadings.p, loadings.q)}"
        )
    return estimator == "trimmed_l1" and loadings.h > 0


def _least_squares_fit(x: TestMatrix, loadings: PairLoadings) -> FactorFit:
    """Orthogonal projection onto the pair span; zero pairs give a zero fit."""
    v = loadings.eig1.vectors[:, : loadings.k1]
    g = loadings.eig2.vectors[:, : loadings.k2]
    proj = (v.T @ x.x @ g)[loadings.idx1, loadings.idx2]
    sqrt_theta = _sqrt_weights(loadings)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(sqrt_theta > 0.0, proj / sqrt_theta, 0.0)
    return FactorFit(loadings=loadings, factors=factors, common_part=loadings.expand(proj))


def _design(loadings: PairLoadings) -> np.ndarray:
    """Trimmed-fit design, ``(p*q, h)`` in vec order.

    Row ``c * p + r`` holds ``gamma_a[c] * (sqrt(theta) * nu_b)[r]`` per pair.
    """
    v1, g1 = loadings.vector_factors()
    v1 = v1 * _sqrt_weights(loadings)
    return (g1[:, None, :] * v1[None, :, :]).reshape(loadings.p * loadings.q, loadings.h)


def _from_factors(loadings: PairLoadings, factors: np.ndarray, fallback: bool) -> FactorFit:
    """Assemble the common component from realised factors."""
    common = loadings.expand(_sqrt_weights(loadings) * factors)
    return FactorFit(
        loadings=loadings, factors=factors, common_part=common, trim_fallback=fallback
    )


def fit_noodle(
    x: TestMatrix,
    loadings: PairLoadings,
    estimator: str = "least_squares",
    trim: TrimSpec | None = None,
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
        to refit the factors robustly on the low-magnitude cells.
    trim : TrimSpec, optional
        Trimming configuration for the robust path; defaults to
        ``TrimSpec()``.
    """
    if not _needs_trimmed_fit(x, loadings, estimator):
        return _least_squares_fit(x, loadings)
    fit = trimmed_l1_fit(vec(x.x), _design(loadings), trim if trim is not None else TrimSpec())
    return _from_factors(loadings, fit.w, fit.used_fallback)


def _plugin_estimate(
    row_norms_sq, common, rejections: int, threshold: float, mask=None
) -> float:
    """Plug-in sum over the cells in ``mask`` (every cell when ``None``) per rejection.

    ``row_norms_sq`` and ``common`` hold one entry per cell, in any matching
    shape; ``common=None`` means the model has no factors and gives the exact
    independence value ``cells * t / R``.  Returns 0 when nothing is rejected
    and clamps to ``[0, cells / R]``.  All three estimators end here.
    """
    check_threshold(threshold)
    if rejections <= 0:
        return 0.0
    cells = row_norms_sq.size
    if common is None:
        total = (cells if mask is None else np.count_nonzero(mask)) * threshold
    else:
        z = ndtri(threshold / 2.0)
        a = 1.0 / np.sqrt(1.0 - row_norms_sq)
        terms = ndtr(a * (z + common)) + ndtr(a * (z - common))
        total = float((terms if mask is None else terms[mask]).sum())
    return float(min(max(total / rejections, 0.0), cells / rejections))


def fdp_noodle(fit: FactorFit, rejections: int, threshold: float) -> float:
    """Plug-in FDP estimate at ``threshold`` given ``rejections`` discoveries.

    Returns 0 when nothing is rejected.  With zero factors the estimate is
    exactly ``p * q * threshold / rejections``.  The result is clamped to
    ``[0, p * q / rejections]``.
    """
    common = fit.common_part if fit.loadings.h else None
    return _plugin_estimate(fit.loadings.row_norms_sq, common, rejections, threshold)


def _oracle(
    loadings: PairLoadings, factors, null_mask, rejections: int, threshold: float
) -> float:
    """Plug-in sum over the true null cells with known realised factors per pair."""
    mask = np.asarray(null_mask, dtype=bool)
    p, q = loadings.p, loadings.q
    if mask.shape != (p, q):
        raise ValueError(f"mask shape {mask.shape} does not match ({p}, {q})")
    w = np.asarray(factors, dtype=np.float64).ravel()
    if w.size != loadings.h:
        raise ValueError(f"expected {loadings.h} realised factors, got {w.size}")
    common = loadings.expand(_sqrt_weights(loadings) * w) if loadings.h else None
    return _plugin_estimate(loadings.row_norms_sq, common, rejections, threshold, mask)


def fdp_oracle_noodle(
    sigma1,
    sigma2,
    n_factors: int,
    factors,
    null_mask,
    rejections: int,
    threshold: float,
) -> float:
    """Oracle variant: known correlations, known realised factors, known nulls.

    The sum runs over true null cells only (``null_mask`` is ``True`` there),
    which is the quantity the plug-in estimate approximates from above by
    summing over every cell.
    """
    loadings = noodle_loadings_from_corr(sigma1, sigma2, n_factors)
    return _oracle(loadings, factors, null_mask, rejections, threshold)
