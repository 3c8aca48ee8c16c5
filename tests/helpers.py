"""Shared test fixtures: random matrices, the one reference per formula, small adapters.

Tests draw matrix-normal data only through ``simlab.gen_round``
(:func:`matrix_normal_dataset`), and compare against the one residual stack
(:func:`residual_stack`) and the one plug-in sum (:func:`plugin_sum`) here.

A plain module, not a test file: pytest does not collect it, and the test
modules import it by name because pytest puts ``tests/`` on ``sys.path``.
"""

from unittest import mock

import numpy as np
from scipy.special import ndtr, ndtri

from matfdp import pfa
from matfdp.covfactor import NORM_SQ_CEIL
from matfdp.noodle import fdp_noodle, fit_noodle
from matfdp.sandwich import fit_sandwich
from matfdp.simlab import ModelSpec, gen_round
from matfdp.teststats import TestMatrix, p_values, rejection_count


def random_spd(rng, dim, spread=1.0):
    """``a a' + spread * I`` for a standard normal ``dim x dim`` matrix ``a``."""
    a = rng.standard_normal((dim, dim))
    return a @ a.T + spread * np.eye(dim)


def random_corr(rng, dim):
    """``random_spd(rng, dim, spread=dim)`` rescaled to unit diagonal."""
    c = random_spd(rng, dim, spread=dim)
    d = 1.0 / np.sqrt(np.diag(c))
    out = c * np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return out


def matrix_normal_dataset(u, v, n, m, rng, rows=0, cols=0, amplitude=0.0):
    """``n`` treatment and ``m`` control matrix-normal draws, by ``gen_round``.

    Plain arrays ``u`` (``p x p``) and ``v`` (``q x q``) take its dense path:
    draw ``s`` is ``mu + sqrt(u) @ g_s @ sqrt(v)``, so ``vec`` of each draw
    has covariance ``v kron u``.  The treatment mean ``mu`` is ``amplitude``
    on its top-left ``rows x cols`` block and zero elsewhere; the control
    mean is zero.
    """
    spec = ModelSpec(
        model=1, p=len(u), q=len(v), n=n, m=m,
        signal_rows=rows, signal_cols=cols, signal_amplitude=amplitude,
    )
    return gen_round(spec, u, v, rng)[0]


def stat_matrix(x):
    """Statistic matrix ``x`` with unit standard errors."""
    return TestMatrix(x=np.asarray(x, dtype=np.float64), sigma_hat=np.ones_like(x), scale=1.0)


def check_planted_trimmed_recovery(loadings, w_true, rng):
    """The trimmed fit recovers ``w_true`` within 0.2 through both fit entry points.

    The statistic is the planted common part on ``loadings``' pairs plus
    noise of sd 0.05 drawn from ``rng``.
    """
    v1, g1 = loadings.vector_factors()
    noise = 0.05 * rng.standard_normal((loadings.p, loadings.q))
    x = stat_matrix((v1 * (np.sqrt(loadings.values) * w_true)) @ g1.T + noise)
    for fit_fn in (fit_noodle, fit_sandwich):
        fit = fit_fn(x, loadings, estimator="trimmed_l1")
        assert not fit.trim.used_fallback and fit.trim.iterations >= 1
        np.testing.assert_array_equal(fit.factors, fit.trim.w)
        assert np.max(np.abs(fit.factors - w_true)) < 0.2
        assert 0.0 <= fdp_noodle(fit, 4, 0.01) <= x.x.size / 4


def residual_stack(ds, sigma_hat):
    """Observations (treatment first) centred at their group means, over ``sigma_hat``."""
    return np.concatenate([g - g.mean(axis=0) for g in (ds.treatment, ds.control)]) / sigma_hat


def plugin_sum(row_norms_sq, common, threshold):
    """``sum Phi(a (z + common)) + Phi(a (z - common))`` over the cells.

    ``z = Phi^-1(threshold / 2)`` and ``a = (1 - row_norms_sq)^-1/2``.
    """
    z = ndtri(threshold / 2.0)
    a = 1.0 / np.sqrt(1.0 - row_norms_sq)
    return (ndtr(a * (z + common)) + ndtr(a * (z - common))).sum()


def dense_vec_covariance(ds, sigma_hat):
    """Pooled covariance of ``vec`` of the residuals over ``sigma_hat``, ``(p*q, p*q)``."""
    resid = residual_stack(ds, sigma_hat)
    flat = resid.transpose(0, 2, 1).reshape(resid.shape[0], -1)  # row s is vec(resid[s])
    return flat.T @ flat / (ds.n + ds.m - 2)


def pfa_at_count(ds, x, threshold, count):
    """``fdp_pfa`` with ``count`` factors in place of the ratio rule's choice.

    ``count`` must not exceed the rank ``n + m - 2``: beyond it the Gram
    eigenvalues are numerical nulls.
    """
    with mock.patch.object(pfa, "eigenvalue_ratio", lambda values, max_factors: count):
        return pfa.fdp_pfa(ds, x, threshold)


def dense_pfa(ds, x, threshold, count):
    """pfa's plug-in FDP from a dense eigendecomposition of the vec-covariance.

    The leading ``count`` eigenpairs ``(values, rho)`` give each cell the
    squared norm ``(rho * rho) @ values`` and the least-squares common part
    ``rho rho' vec(x)``; the estimate is their :func:`plugin_sum` over ``R``,
    clamped to ``pq / R``.
    """
    rejections = rejection_count(p_values(x), threshold)
    if rejections == 0:
        return 0.0
    values, vectors = np.linalg.eigh(dense_vec_covariance(ds, x.sigma_hat))
    values, rho = values[::-1][:count], vectors[:, ::-1][:, :count]
    norms = np.minimum((rho * rho) @ values, NORM_SQ_CEIL)
    common = rho @ (rho.T @ np.ravel(x.x, order="F"))
    total = float(plugin_sum(norms, common, threshold))
    return min(total / rejections, x.x.size / rejections)
