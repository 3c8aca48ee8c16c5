"""Principal-factor baseline on the vectorised data.

This estimator ignores the two-sided dependence structure and works with the
pooled sample covariance of ``vec(X)`` directly.  That covariance is never
formed: with the standardised residuals of
:func:`~matfdp.teststats.residuals` laid out as columns of a thin factor ``F``
of shape ``(p*q, n+m)`` scaled by ``1/sqrt(n+m-2)`` (column ``s`` is ``vec``
of observation ``s``, read from the ``(p, n+m, q)`` stack by one transpose and
reshape, and scaled in place), the covariance is
``F F'`` and its eigenpairs come from the small Gram matrix ``F' F``
(decomposed by :func:`~matfdp.linalg.sym_eigen`).  For a Gram eigenpair
``(s, u)`` with ``s`` above a cutoff, the covariance eigenvector is
``F u / sqrt(s)``.

The FDP estimate runs through the plug-in core that noodle and sandwich use,
but with eigenpairs of the vectorised (standardised) covariance, so it serves
as the single-dependency baseline in comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covfactor import NORM_SQ_CEIL, default_max_factors, eigenvalue_ratio
from .linalg import _fix_signs, sym_eigen, vec
from .noodle import _plugin_estimate
from .teststats import TestMatrix, TwoSampleDataset, p_values, rejection_count, residuals

#: Gram eigenvalues at or below this are numerical nulls and carry no factor.
GRAM_EIGEN_CUTOFF = 1e-12


@dataclass(frozen=True)
class ThinFactor:
    """Thin factorisation of a pooled vec-covariance.

    ``columns`` has shape ``(p*q, n_total)``; the implied covariance is
    ``columns @ columns.T``.  ``values`` are its nonzero eigenvalues (Gram
    eigenvalues above the cutoff), non-increasing; ``gram_vectors`` the
    matching orthonormal Gram eigenvectors, shape ``(n_total, rank)``.
    """

    columns: np.ndarray
    values: np.ndarray
    gram_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.values.shape[0])

    def eigenvectors(self, count: int) -> np.ndarray:
        """Leading ``count`` covariance eigenvectors, shape ``(p*q, count)``.

        Materialised on demand; columns are orthonormal and sign-normalised
        the same way as dense eigendecompositions in this package.
        """
        if not 0 <= count <= self.rank:
            raise ValueError(f"count must be in [0, {self.rank}], got {count}")
        vecs = self.columns @ (self.gram_vectors[:, :count] / np.sqrt(self.values[:count]))
        _fix_signs(vecs)
        return vecs


def build_thin_factor(
    ds: TwoSampleDataset, sigma_hat: np.ndarray | None = None
) -> ThinFactor:
    """Thin factor of the pooled sample covariance of the vectorised data.

    The columns are the residuals of :func:`~matfdp.teststats.residuals`:
    observations centred at their group means and, with ``sigma_hat`` given,
    divided cell-wise by it, which moves the covariance to the correlation
    scale (unit diagonal).
    """
    resid = residuals(ds, sigma_hat)
    n_total = ds.n + ds.m
    # Column s of the factor is vec (column-major) of observation s.
    cols = resid.transpose(2, 0, 1).reshape(ds.p * ds.q, n_total)
    # In place: cols is a copy of resid, or a view of it when p or q is 1.
    cols /= np.sqrt(n_total - 2)
    gram = cols.T @ cols
    gram = 0.5 * (gram + gram.T)
    es = sym_eigen(gram)
    keep = es.values > GRAM_EIGEN_CUTOFF
    return ThinFactor(columns=cols, values=es.values[keep], gram_vectors=es.vectors[:, keep])


def fdp_pfa(
    ds: TwoSampleDataset,
    x: TestMatrix,
    threshold: float,
    n_factors: int | None = None,
) -> float:
    """Plug-in FDP estimate from principal factors of the vectorised data.

    Operates on the standardised centred observations (division by
    ``x.sigma_hat``), so the eigenstructure lives on the correlation scale
    like the other estimators.  With ``n_factors=None`` the count is chosen by
    the eigenvalue-ratio rule capped at ``floor(0.2 * (n + m))``; an explicit
    count is capped at the factor rank.  Zero factors reduce exactly to
    ``p * q * threshold / rejections``.  The realised factors are always the
    least-squares projection: the ``estimator`` and ``trim_fraction`` of
    :func:`~matfdp.simlab.run_experiment` (``simulate --estimator`` and
    ``--trim-fraction``) choose only the noodle and sandwich fit.
    """
    if (x.p, x.q) != (ds.p, ds.q):
        raise ValueError(
            f"statistic shape {(x.p, x.q)} does not match data ({ds.p}, {ds.q})"
        )
    rejections = rejection_count(p_values(x), threshold)
    if rejections == 0:
        return 0.0
    tf = build_thin_factor(ds, sigma_hat=x.sigma_hat)
    if n_factors is None:
        n_factors = eigenvalue_ratio(tf.values, default_max_factors(ds.n + ds.m))
    # A negative count fails the range check in ThinFactor.eigenvectors.
    n_factors = min(n_factors, tf.rank)
    rho = tf.eigenvectors(n_factors)
    norms = np.clip((rho * rho) @ tf.values[:n_factors], 0.0, NORM_SQ_CEIL)
    common = rho @ (rho.T @ vec(x.x)) if n_factors else None
    return _plugin_estimate(norms, common, rejections, threshold)
