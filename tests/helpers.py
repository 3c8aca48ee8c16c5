"""Shared test fixtures: random matrices, matrix-normal draws and small adapters.

A plain module, not a test file: pytest does not collect it, and the test
modules import it by name because pytest puts ``tests/`` on ``sys.path``.
"""

from unittest import mock

import numpy as np
from scipy.special import ndtr, ndtri

from matfdp import pfa
from matfdp.covfactor import NORM_SQ_CEIL
from matfdp.errors import InvalidMatrix
from matfdp.linalg import as_matrix, symmetric_sqrt
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


def sample_matrix_normal_stack(mu, u, v, count, rng):
    """Stack of ``count`` matrix-normal draws, shape ``(count, p, q)``.

    Draw ``s`` is ``mu + sqrt(u) @ g_s @ sqrt(v)`` with ``g_s`` a matrix of
    independent standard normals, so ``vec`` of each draw has covariance
    ``v kron u``.  ``u`` (``p x p``) and ``v`` (``q x q``) must be symmetric
    positive semidefinite; the stack is deterministic given ``rng``'s state.
    """
    mean = as_matrix(mu, "mu")
    u_half = symmetric_sqrt(u)
    v_half = symmetric_sqrt(v)
    if u_half.shape[0] != mean.shape[0] or v_half.shape[0] != mean.shape[1]:
        raise InvalidMatrix(
            f"shape mismatch: mu {mean.shape}, u {u_half.shape}, v {v_half.shape}"
        )
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    g = rng.standard_normal((count,) + mean.shape)
    return mean + u_half @ g @ v_half


def stat_matrix(x):
    """Statistic matrix ``x`` with unit standard errors."""
    return TestMatrix(x=np.asarray(x, dtype=np.float64), sigma_hat=np.ones_like(x), scale=1.0)


def side_loadings(sl):
    """Scaled grid blocks ``sqrt(lam_b) nu_b``, ``(p, k1)``, and ``sqrt(xi_a) gamma_a``."""
    lam = np.clip(sl.eig1.values[: sl.k1], 0.0, None)
    xi = np.clip(sl.eig2.values[: sl.k2], 0.0, None)
    left = sl.eig1.vectors[:, : sl.k1] * np.sqrt(lam)
    return left, sl.eig2.vectors[:, : sl.k2] * np.sqrt(xi)


def dense_vec_covariance(ds, sigma_hat):
    """Pooled covariance of ``vec`` of the residuals over ``sigma_hat``, ``(p*q, p*q)``."""
    resid = np.concatenate(
        [ds.treatment - ds.treatment.mean(axis=0), ds.control - ds.control.mean(axis=0)]
    ) / sigma_hat
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
    ``rho rho' vec(x)``; the estimate is
    ``sum(Phi(a (z + common)) + Phi(a (z - common))) / R`` with
    ``z = Phi^-1(t / 2)`` and ``a = 1 / sqrt(1 - norm)``, clamped to ``pq / R``.
    """
    rejections = rejection_count(p_values(x), threshold)
    if rejections == 0:
        return 0.0
    values, vectors = np.linalg.eigh(dense_vec_covariance(ds, x.sigma_hat))
    values, rho = values[::-1][:count], vectors[:, ::-1][:, :count]
    norms = np.minimum((rho * rho) @ values, NORM_SQ_CEIL)
    common = rho @ (rho.T @ np.ravel(x.x, order="F"))
    z = ndtri(threshold / 2.0)
    a = 1.0 / np.sqrt(1.0 - norms)
    total = float((ndtr(a * (z + common)) + ndtr(a * (z - common))).sum())
    return min(total / rejections, x.x.size / rejections)
