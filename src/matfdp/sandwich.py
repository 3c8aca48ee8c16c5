"""The noodle model restricted to the top-``k1`` x top-``k2`` grid ("sandwich").

Sandwich keeps the top ``k1`` eigenpairs of the row correlation and the top
``k2`` eigenpairs of the column correlation and uses every pair of the grid
(:func:`~matfdp.covfactor.build_sandwich_loadings`), row index fastest.  The
fit, the plug-in estimate and the oracle (:func:`~matfdp.noodle.fdp_oracle`)
are those of :mod:`matfdp.noodle`: the realised factor matrix is
``W = fit.factors.reshape((k1, k2), order="F")`` and the oracle takes
``W.ravel(order="F")``.  On the grid the least-squares common component is
the two-sided projection

    eta = (sum_b nu_b nu_b') X (sum_a gamma_a gamma_a'),

computed as three small matrix products (cost ``O(p q (k1 + k2))``).  The
trimmed fit is noodle's least-trimmed-squares fit on the separable loadings
of the grid pairs, so on the same loadings it gives noodle's trimmed fit bit
for bit.
"""

from __future__ import annotations

from .covfactor import PairLoadings
from .noodle import FactorFit, _fit, fdp_noodle
from .teststats import TestMatrix
from .trimreg import trimmed_l1_fit


def fit_sandwich(
    x: TestMatrix,
    loadings: PairLoadings,
    estimator: str = "least_squares",
) -> FactorFit:
    """Estimate the realised factors and the common component on the grid.

    Same contract as :func:`~matfdp.noodle.fit_noodle`: the least-squares
    path computes the projection directly from the eigenvector blocks; the
    trimmed path refits the ``k1 * k2`` factor coefficients on the cells with
    the smallest residuals.
    """
    # The same fit as fit_noodle, called through this module's own name for
    # trimmed_l1_fit so the benchmark's traced run can reach that binding.
    return _fit(x, loadings, estimator, trimmed_l1_fit)


#: Plug-in FDP estimate; identical to the noodle one on grid loadings.
fdp_sandwich = fdp_noodle
