"""Shared test fixtures: random matrices and small adapters.

A plain module, not a test file: pytest does not collect it, and the test
modules import it by name because pytest puts ``tests/`` on ``sys.path``.
"""

import numpy as np

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
