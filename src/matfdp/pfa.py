"""Principal-factor baseline on the vectorised data.

This estimator ignores the two-sided dependence structure and works with the
pooled sample covariance of ``vec(X)`` directly.  That covariance is never
formed: with the standardised residuals laid out as columns of a thin factor
``F`` of shape ``(p*q, n+m)`` scaled by ``1/sqrt(n+m-2)`` (column ``s`` is
``vec`` of observation ``s``), the covariance is ``F F'`` and its eigenpairs
come from the small Gram matrix ``F' F`` (decomposed by
:func:`~matfdp.linalg.sym_eigen`).  Each group is centred straight into
``F``, so the residuals are held once, in vec order.  For a Gram eigenpair
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
from .teststats import TestMatrix, TwoSampleDataset, check_sigma_hat, p_values, rejection_count

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


def build_thin_factor(ds: TwoSampleDataset, sigma_hat: np.ndarray) -> ThinFactor:
    """Thin factor of the pooled sample covariance of the vectorised data.

    The columns are the standardised residuals: observations centred at their
    group means and divided cell-wise by ``sigma_hat`` (shape ``(p, q)``, all
    positive, checked by :func:`~matfdp.teststats.check_sigma_hat` first),
    which puts the covariance on the correlation scale (unit diagonal).  Each
    group is written once into a row-major ``(q, p, n+m)`` array that
    ``columns`` reshapes without a copy, so the factor is the only
    stack-sized array.
    """
    sigma_hat = check_sigma_hat(ds, sigma_hat)
    n_total = ds.n + ds.m
    # Row-major: a matrix-vector product on column-major columns sums in
    # another order, which would move the bits of eigenvectors(1).
    factor = np.empty((ds.q, ds.p, n_total))
    for group, lo, hi in ((ds.treatment, 0, ds.n), (ds.control, ds.n, n_total)):
        np.subtract(
            group.transpose(2, 1, 0),
            group.mean(axis=0).T[:, :, None],
            out=factor[:, :, lo:hi],
        )
    factor /= sigma_hat.T[:, :, None]
    factor /= np.sqrt(n_total - 2)
    # Column s of the factor is vec (column-major) of observation s.
    cols = factor.reshape(ds.p * ds.q, n_total)
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
    least-squares projection: the ``estimator`` of
    :func:`~matfdp.simlab.run_experiment` (``simulate --estimator``) and
    ``trimreg.TRIM_FRACTION`` act only on the noodle and sandwich fit.
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
