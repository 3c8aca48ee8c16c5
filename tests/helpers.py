"""Shared test fixtures: random matrices, matrix-normal draws and small adapters.

A plain module, not a test file: pytest does not collect it, and the test
modules import it by name because pytest puts ``tests/`` on ``sys.path``.
"""

import numpy as np

from matfdp.errors import InvalidMatrix
from matfdp.linalg import as_matrix, symmetric_sqrt
from matfdp.teststats import TestMatrix


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


def dense_columns(loadings):
    """Explicit unit loading columns ``kron(gamma_a, nu_b)``, shape ``(p*q, h)``."""
    v1, g1 = loadings.vector_factors()
    cols = [np.kron(g1[:, k], v1[:, k]) for k in range(loadings.h)]
    return np.stack(cols, axis=1) if cols else np.zeros((loadings.p * loadings.q, 0))
