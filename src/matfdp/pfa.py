"""Principal-factor baseline on the vectorised data.

This estimator ignores the two-sided dependence structure and works with the
pooled sample covariance of ``vec(X)`` directly.  That covariance is never
formed, and neither is its thin factor: with ``F`` the ``(n+m, p*q)`` matrix
of standardised residuals (row ``s`` is ``vec`` of observation ``s``), the
covariance is ``F' F / (n+m-2)`` and its eigenpairs come from the small Gram
matrix ``F F' / (n+m-2)`` (decomposed by :func:`~matfdp.linalg.sym_eigen`).
Both the Gram matrix and, for a Gram eigenpair ``(s, u)``, the covariance
eigenvector ``F' u / sqrt((n+m-2) s)`` are summed over chunks of
``covfactor._BLOCK_SLICES`` matrix rows: rows ``r0:r1`` of every observation,
centred and standardised into one reused buffer.  So pfa holds the data plus
one chunk, never a second stack, at the price of a second walk for the
eigenvectors.

The FDP estimate runs through the plug-in core that noodle and sandwich use,
but with eigenpairs of the vectorised (standardised) covariance, so it serves
as the single-dependency baseline in comparisons.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import covfactor
from .covfactor import NORM_SQ_CEIL, default_max_factors, eigenvalue_ratio
from .linalg import _fix_signs, sym_eigen, vec
from .noodle import _plugin_estimate
from .teststats import TestMatrix, TwoSampleDataset, check_sigma_hat, p_values, rejection_count

#: Gram eigenvalues at or below this are numerical nulls and carry no factor.
GRAM_EIGEN_CUTOFF = 1e-12


def _row_chunks(
    ds: TwoSampleDataset, sigma_hat: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(r0, r1, chunk)`` over blocks of ``covfactor._BLOCK_SLICES`` rows.

    ``chunk`` is C-contiguous, shape ``(n+m, (r1-r0)*q)``: rows ``r0:r1`` of
    every observation (treatment first), centred at its group mean and
    divided by ``sigma_hat``, each row of the chunk row-major in ``(r, c)``.
    One buffer backs every chunk, so each is overwritten by the next.
    """
    p, q, n_total = ds.p, ds.q, ds.n + ds.m
    means = (ds.treatment.mean(axis=0), ds.control.mean(axis=0))
    step = min(covfactor._BLOCK_SLICES, p)
    buf = np.empty(n_total * step * q)
    for r0 in range(0, p, step):
        r1 = min(r0 + step, p)
        chunk = buf[: n_total * (r1 - r0) * q].reshape(n_total, r1 - r0, q)
        for group, lo, hi, mean in (
            (ds.treatment, 0, ds.n, means[0]),
            (ds.control, ds.n, n_total, means[1]),
        ):
            np.subtract(group[:, r0:r1], mean[r0:r1], out=chunk[lo:hi])
        chunk /= sigma_hat[r0:r1]
        yield r0, r1, chunk.reshape(n_total, -1)


@dataclass(frozen=True)
class ThinFactor:
    """Eigenpairs of a pooled vec-covariance, from its small Gram matrix.

    ``values`` are the covariance's nonzero eigenvalues (Gram eigenvalues
    above the cutoff), non-increasing; ``gram_vectors`` the matching
    orthonormal Gram eigenvectors, shape ``(n_total, rank)``.  The factor
    itself is not kept: ``ds`` and ``sigma_hat`` are references to the
    dataset and scale it was built from, which :meth:`eigenvectors` walks
    again, so the dataset must not change while the factor is in use.
    """

    ds: TwoSampleDataset
    sigma_hat: np.ndarray
    values: np.ndarray
    gram_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.values.shape[0])

    def eigenvectors(self, count: int) -> np.ndarray:
        """Leading ``count`` covariance eigenvectors, shape ``(p*q, count)``.

        Summed chunk by chunk straight into vec order; columns are
        orthonormal and sign-normalised the same way as dense
        eigendecompositions in this package.
        """
        if not 0 <= count <= self.rank:
            raise ValueError(f"count must be in [0, {self.rank}], got {count}")
        p, q, n_total = self.ds.p, self.ds.q, self.ds.n + self.ds.m
        w = self.gram_vectors[:, :count] / np.sqrt((n_total - 2) * self.values[:count])
        vecs = np.empty((p * q, count))
        # vec order: cell (r, c) is row c * p + r.
        cells = vecs.reshape(q, p, count)
        if count:
            for r0, r1, chunk in _row_chunks(self.ds, self.sigma_hat):
                cells[:, r0:r1] = (chunk.T @ w).reshape(r1 - r0, q, count).transpose(1, 0, 2)
        _fix_signs(vecs)
        return vecs


def build_thin_factor(ds: TwoSampleDataset, sigma_hat: np.ndarray) -> ThinFactor:
    """Eigenpairs of the pooled sample covariance of the vectorised data.

    The standardised residuals are the observations centred at their group
    means and divided cell-wise by ``sigma_hat`` (shape ``(p, q)``, all
    positive, checked by :func:`~matfdp.teststats.check_sigma_hat` first),
    which puts the covariance on the correlation scale (unit diagonal).  The
    Gram matrix is summed over row chunks, so the peak memory is the data
    plus one chunk.
    """
    sigma_hat = check_sigma_hat(ds, sigma_hat)
    n_total = ds.n + ds.m
    gram = np.zeros((n_total, n_total))
    for _, _, chunk in _row_chunks(ds, sigma_hat):
        gram += chunk @ chunk.T
    gram = (0.5 / (n_total - 2)) * (gram + gram.T)
    es = sym_eigen(gram)
    keep = es.values > GRAM_EIGEN_CUTOFF
    return ThinFactor(ds, sigma_hat, es.values[keep], es.vectors[:, keep])


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
    norms = np.einsum("ik,ik,k->i", rho, rho, tf.values[:n_factors])
    norms = np.clip(norms, 0.0, NORM_SQ_CEIL, out=norms)
    common = rho @ (rho.T @ vec(x.x)) if n_factors else None
    return _plugin_estimate(norms, common, rejections, threshold)
