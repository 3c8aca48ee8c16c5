"""Principal-factor baseline on the vectorised data.

This estimator ignores the two-sided dependence structure and works with the
pooled sample covariance of ``vec(X)`` directly, on the correlation scale.
With ``F`` the ``(n+m, p*q)`` thin factor of standardised residuals (row
``s`` is ``vec`` of observation ``s``), the covariance is ``F' F / (n+m-2)``
and its eigenpairs come from the small Gram matrix ``F F' / (n+m-2)``.  For
Gram eigenpairs ``(s_k, U_k)`` the covariance eigenvectors are ``rho = F' W``
with ``W = U_k / sqrt((n+m-2) s_k)``, and the plug-in needs only each cell's
squared loading norm ``(rho * rho) @ s_k`` and least-squares common part
``rho W' F vec(x)``.  So neither the covariance, nor ``F``, nor ``rho`` is
held: a walk over chunks of ``covfactor._BLOCK_SLICES`` matrix rows, each
with every observation as the Gram needs, sums the Gram matrix and
``F vec(x)``; after its eigendecomposition a second walk writes each chunk's
rows of both ``(p, q)`` arrays.  pfa holds the data plus one chunk.

The estimate runs through the plug-in core that noodle and sandwich use, so
pfa serves as the single-dependency baseline in comparisons.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import covfactor, teststats
from .covfactor import NORM_SQ_CEIL, default_max_factors, eigenvalue_ratio
from .linalg import sym_eigen
from .noodle import _plugin_estimate
from .teststats import TestMatrix, TwoSampleDataset, check_sigma_hat, p_values, rejection_count


def _row_chunks(ds: TwoSampleDataset, sigma_hat) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(r0, r1, chunk)`` over blocks of ``covfactor._BLOCK_SLICES`` rows.

    ``chunk`` is C-contiguous, shape ``(n+m, (r1-r0)*q)``: rows ``r0:r1`` of
    every observation (treatment first) as :func:`~matfdp.teststats._standardise`
    fills them, row-major in ``(r, c)``.  One buffer backs every chunk.
    """
    p, q, n_total = ds.p, ds.q, ds.n + ds.m
    step = min(covfactor._BLOCK_SLICES, p)
    buf = np.empty(n_total * step * q)
    for r0 in range(0, p, step):
        r1 = min(r0 + step, p)
        chunk = buf[: n_total * (r1 - r0) * q].reshape(n_total, r1 - r0, q)
        teststats._standardise(chunk, ds, sigma_hat, 0, slice(r0, r1))
        yield r0, r1, chunk.reshape(n_total, -1)


def fdp_pfa(ds: TwoSampleDataset, x: TestMatrix, threshold: float) -> float:
    """Plug-in FDP estimate from principal factors of the vectorised data.

    Operates on the standardised centred observations (division by
    ``x.sigma_hat``, all positive, checked by
    :func:`~matfdp.teststats.check_sigma_hat` first), so the eigenstructure
    lives on the correlation scale like the other estimators.  The factor
    count is :func:`~matfdp.covfactor.eigenvalue_ratio` on the Gram spectrum,
    capped at ``floor(0.2 * (n + m))`` as for noodle and sandwich.  That rule
    ignores eigenvalues below ``RATIO_FLOOR_REL`` times the largest, so each
    chosen one is positive, and it raises
    :class:`~matfdp.errors.NonPositiveEigenvalue` when none is usable (all
    residuals zero).  The realised factors are always the least-squares
    projection: the ``estimator`` of :func:`~matfdp.simlab.run_experiment`
    (``simulate --estimator``) and ``trimreg.TRIM_FRACTION`` act only on the
    noodle and sandwich fit.
    """
    if (x.p, x.q) != (ds.p, ds.q):
        raise ValueError(
            f"statistic shape {(x.p, x.q)} does not match data ({ds.p}, {ds.q})"
        )
    sigma_hat = check_sigma_hat(ds, x.sigma_hat)
    rejections = rejection_count(p_values(x), threshold)
    if rejections == 0:
        return 0.0
    n_total = ds.n + ds.m
    gram = np.zeros((n_total, n_total))
    fx = np.zeros(n_total)
    for r0, r1, chunk in _row_chunks(ds, sigma_hat):
        gram += chunk @ chunk.T
        fx += chunk @ x.x[r0:r1].ravel()
    del chunk  # the last chunk is a view that would keep walk 1's buffer alive
    # chunk @ chunk.T is a symmetric rank-k update, so gram is exactly symmetric.
    es = sym_eigen(gram * (1.0 / (n_total - 2)))
    k = eigenvalue_ratio(es.values, default_max_factors(n_total))
    s_k = es.values[:k]
    w = es.vectors[:, :k] / np.sqrt((n_total - 2) * s_k)
    c = w.T @ fx  # rho' vec(x)
    norms = np.empty((ds.p, ds.q))
    common = np.empty((ds.p, ds.q))
    for r0, r1, chunk in _row_chunks(ds, sigma_hat):
        rho = chunk.T @ w
        norms[r0:r1] = np.einsum("ik,ik,k->i", rho, rho, s_k).reshape(r1 - r0, ds.q)
        common[r0:r1] = (rho @ c).reshape(r1 - r0, ds.q)
    np.clip(norms, 0.0, NORM_SQ_CEIL, out=norms)
    return _plugin_estimate(norms, common, rejections, threshold)
