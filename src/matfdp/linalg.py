"""Dense symmetric-matrix primitives.

Everything downstream leans on the operations implemented here: symmetric
eigendecomposition with a deterministic ordering and sign convention, the
eigenpair bookkeeping for Kronecker products of two symmetric matrices,
and checked eigendecompositions and symmetric square roots of semidefinite
matrices.

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

from .errors import InvalidMatrix, NotPsd

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


def check_symmetric(a) -> np.ndarray:
    """Validate that ``a`` is square and symmetric up to ``SYMMETRY_RTOL``."""
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidMatrix(f"matrix must be square, got shape {arr.shape}")
    scale = np.maximum(1.0, np.abs(arr))
    if np.any(np.abs(arr - arr.T) > SYMMETRY_RTOL * scale):
        raise InvalidMatrix("matrix is not symmetric within tolerance")
    return arr


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip columns in place so the leading non-negligible component is positive."""
    # Two comparisons rather than np.abs: no float temporary the size of vectors.
    big = vectors > SIGN_EPS
    big |= vectors < -SIGN_EPS
    cols = np.arange(vectors.shape[1])
    # argmax finds each column's first True; a column without one stays.
    lead = big.argmax(axis=0)
    vectors[:, big[lead, cols] & (vectors[lead, cols] < 0.0)] *= -1.0


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

    The products are laid out in lexicographic ``(idx1, idx2)`` order (flat
    position ``idx1 * q + idx2``) and stably sorted by descending value, which
    yields the documented tie-break.
    """
    prods = np.outer(e1.values, e2.values).ravel()
    order = np.argsort(-prods, kind="stable")
    idx1, idx2 = np.divmod(order, e2.dim)
    return KronEigenIndex(values=prods[order], idx1=idx1, idx2=idx2)


def psd_eigen(m) -> EigenSystem:
    """Eigendecomposition of a positive semidefinite matrix.

    As :func:`sym_eigen`, but eigenvalues in ``[-PSD_RTOL * max_eigenvalue, 0)``
    are clamped to zero; anything more negative raises :class:`NotPsd`.
    """
    es = sym_eigen(m)
    top = max(float(es.values[0]), 0.0)
    if es.values[-1] < -PSD_RTOL * top:
        raise NotPsd(
            f"matrix has eigenvalue {es.values[-1]:.6g} beyond the "
            f"semidefinite tolerance (largest is {top:.6g})"
        )
    return EigenSystem(values=np.clip(es.values, 0.0, None), vectors=es.vectors)


def symmetric_sqrt(m) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix (see :func:`psd_eigen`)."""
    es = psd_eigen(m)
    return (es.vectors * np.sqrt(es.values)) @ es.vectors.T

