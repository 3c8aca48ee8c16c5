"""Dense symmetric-matrix primitives.

Everything downstream leans on four operations implemented here: symmetric
eigendecomposition with a deterministic ordering and sign convention, the
eigenpair bookkeeping for Kronecker products of two symmetric matrices,
symmetric square roots of semidefinite matrices, and conversion of a
covariance matrix to a correlation matrix.

Conventions
-----------
* ``vec`` always means column stacking (Fortran order): cell ``(r, c)`` of a
  ``p x q`` matrix lands at flat index ``c * p + r``.
* Eigenvalues are reported in non-increasing order.
* Each eigenvector is sign-normalised so that its first component larger than
  ``SIGN_EPS`` in magnitude is positive.  This makes decompositions of the
  same matrix bitwise reproducible across calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, InvalidMatrix, NotPsd

#: Relative tolerance for symmetry checks.
SYMMETRY_RTOL = 1e-12

#: Eigenvalues below ``-PSD_RTOL * max_eigenvalue`` count as genuinely negative.
PSD_RTOL = 1e-8

#: Components smaller than this in magnitude are skipped when fixing signs.
SIGN_EPS = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a non-empty 2-D float64 array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidMatrix(f"{name} must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return arr


def check_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square and symmetric up to ``SYMMETRY_RTOL``."""
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {arr.shape}")
    scale = np.maximum(1.0, np.abs(arr))
    if np.any(np.abs(arr - arr.T) > SYMMETRY_RTOL * scale):
        raise InvalidMatrix(f"{name} is not symmetric within tolerance")
    return arr


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a 1-D array."""
    return np.ravel(x, order="F")


def unvec(v: np.ndarray, p: int, q: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``p x q`` matrix."""
    return np.reshape(v, (p, q), order="F")


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip columns in place so the leading non-negligible component is positive."""
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        nz = np.flatnonzero(np.abs(col) > SIGN_EPS)
        if nz.size and col[nz[0]] < 0.0:
            vectors[:, k] = -col


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    values : numpy.ndarray
        Eigenvalues, shape ``(d,)``, sorted non-increasing.
    vectors : numpy.ndarray
        Orthonormal eigenvectors as columns, shape ``(d, d)``, aligned with
        ``values`` and sign-normalised.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def sym_eigen(m) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix with deterministic layout.

    Parameters
    ----------
    m : array_like
        Square symmetric matrix.

    Returns
    -------
    EigenSystem
        Values non-increasing, vectors orthonormal and sign-normalised.

    Raises
    ------
    InvalidMatrix
        If ``m`` is not square, not finite, or not symmetric within tolerance.
    """
    arr = check_symmetric(m)
    values, vectors = np.linalg.eigh(arr)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    _fix_signs(vectors)
    return EigenSystem(values=values, vectors=vectors)


@dataclass(frozen=True)
class KronEigenIndex:
    """Sorted eigenpair index for a Kronecker product of two symmetric matrices.

    For eigensystems ``(lam_i, nu_i)`` of a ``p x p`` matrix and
    ``(xi_j, gamma_j)`` of a ``q x q`` matrix, the product matrix
    ``(q x q) kron (p x p)`` has eigenvalue ``xi_j * lam_i`` with eigenvector
    ``gamma_j kron nu_i``.  Entries here are sorted by value, non-increasing,
    with ties broken lexicographically by ``(idx1, idx2)``.

    Attributes
    ----------
    values : numpy.ndarray
        Products, shape ``(p * q,)``, non-increasing.
    idx1 : numpy.ndarray
        Column index into the first eigensystem for each entry (0-based).
    idx2 : numpy.ndarray
        Column index into the second eigensystem for each entry (0-based).
    """

    values: np.ndarray
    idx1: np.ndarray
    idx2: np.ndarray


def kron_eigenpairs(e1: EigenSystem, e2: EigenSystem) -> KronEigenIndex:
    """Eigenpairs of the Kronecker product, without forming it.

    The flat list is assembled in lexicographic ``(idx1, idx2)`` order and then
    stably sorted by descending value, which yields the documented tie-break.
    """
    p = e1.dim
    q = e2.dim
    prods = np.outer(e1.values, e2.values).ravel()
    i_idx = np.repeat(np.arange(p), q)
    j_idx = np.tile(np.arange(q), p)
    order = np.argsort(-prods, kind="stable")
    return KronEigenIndex(
        values=prods[order],
        idx1=i_idx[order],
        idx2=j_idx[order],
    )


def symmetric_sqrt(m) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues in ``[-PSD_RTOL * max_eigenvalue, 0)`` are clamped to zero;
    anything more negative raises :class:`NotPsd`.
    """
    es = sym_eigen(m)
    top = max(float(es.values[0]), 0.0)
    if es.values[-1] < -PSD_RTOL * top:
        raise NotPsd(
            f"matrix has eigenvalue {es.values[-1]:.6g} beyond the "
            f"semidefinite tolerance (largest is {top:.6g})"
        )
    clamped = np.clip(es.values, 0.0, None)
    return (es.vectors * np.sqrt(clamped)) @ es.vectors.T


def corr_from_cov(c) -> np.ndarray:
    """Scale a covariance matrix to a correlation matrix.

    The diagonal of the result is set to exactly 1.

    Raises
    ------
    DegenerateVariance
        If any diagonal entry of ``c`` is not strictly positive.
    """
    arr = check_symmetric(c, "covariance")
    d = np.diag(arr)
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DegenerateVariance(i, i)
    s = 1.0 / np.sqrt(d)
    out = arr * np.outer(s, s)
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    return out
