"""Principal-factor baseline on the vectorised data.

This estimator ignores the two-sided dependence structure and works with the
pooled sample covariance of ``vec(X)`` directly.  That covariance is never
formed: with centred observation columns stacked into a thin factor ``F`` of
shape ``(p*q, n+m)`` scaled by ``1/sqrt(n+m-2)``, the covariance is ``F F'``
and its eigenpairs come from the small Gram matrix ``F' F``.  For a Gram
eigenpair ``(s, u)`` with ``s`` above a cutoff, the covariance eigenvector is
``F u / sqrt(s)``.

The FDP estimate uses the same plug-in formula as the Kronecker-spectrum
estimator, but with eigenpairs of the vectorised (standardised) covariance,
so it serves as the single-dependency baseline in comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covfactor import NORM_SQ_CEIL, default_max_factors, eigenvalue_ratio
from .linalg import _fix_signs, vec
from .noodle import _finish, _plugin_sum
from .teststats import TestMatrix, TwoSampleDataset, p_values, rejection_count

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
    def cells(self) -> int:
        return int(self.columns.shape[0])

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

    Observations are centred at their group means; with ``sigma_hat`` given,
    each centred observation is also divided cell-wise by it, which moves the
    covariance to the correlation scale (unit diagonal).
    """
    resid = np.concatenate(
        [
            ds.treatment - ds.treatment.mean(axis=0),
            ds.control - ds.control.mean(axis=0),
        ]
    )
    if sigma_hat is not None:
        resid = resid / np.asarray(sigma_hat, dtype=np.float64)
    n_total = ds.n + ds.m
    # Column s of the factor is vec (column-major) of observation s.
    cols = resid.transpose(0, 2, 1).reshape(n_total, ds.p * ds.q).T
    cols = cols / np.sqrt(n_total - 2)
    gram = cols.T @ cols
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    keep = evals > GRAM_EIGEN_CUTOFF
    return ThinFactor(
        columns=cols,
        values=evals[keep].copy(),
        gram_vectors=evecs[:, keep].copy(),
    )


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
    ``p * q * threshold / rejections``.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if (x.p, x.q) != (ds.p, ds.q):
        raise ValueError(
            f"statistic shape {(x.p, x.q)} does not match data ({ds.p}, {ds.q})"
        )
    cells = ds.p * ds.q
    pv = p_values(x)
    rejections = rejection_count(pv, threshold)
    if rejections == 0:
        return 0.0
    tf = build_thin_factor(ds, sigma_hat=x.sigma_hat)
    if n_factors is None:
        n_factors = eigenvalue_ratio(tf.values, default_max_factors(ds.n + ds.m))
    if n_factors < 0:
        raise ValueError(f"n_factors must be >= 0, got {n_factors}")
    n_factors = min(n_factors, tf.rank)
    if n_factors == 0:
        return _finish(cells * threshold, rejections, cells)
    rho = tf.eigenvectors(n_factors)
    theta = tf.values[:n_factors]
    vx = vec(x.x)
    common = rho @ (rho.T @ vx)
    norms = np.clip((rho * rho) @ theta, 0.0, NORM_SQ_CEIL)
    terms = _plugin_sum(norms, common, threshold)
    return _finish(float(terms.sum()), rejections, cells)
