"""Row/column correlation estimation and factor-loading construction.

The dependence model treats the ``p x q`` data matrices as doubly correlated:
one correlation matrix across rows and one across columns, with the full
dependence of ``vec(X)`` given by their Kronecker product.  Both correlation
matrices are Gram products of the standardised residuals, summed over blocks
that :func:`~matfdp.teststats._standardise` fills, so that peak memory is the
data plus one block; their eigensystems supply one kind of factor loadings
used by the FDP estimators: pairs of a row eigenvector ``nu_b`` and a column
eigenvector ``gamma_a`` with weight ``max(lam_b, 0) * max(xi_a, 0)``, the
same under either selector (:class:`PairLoadings`).  Two selectors choose the
pairs by the raw eigenvalues, as the scree and the ratio rule read them:

* noodle keeps the top-``h`` products of the Kronecker spectrum, and
* sandwich keeps the full top-``k1`` x top-``k2`` grid.

All three estimators (both selectors and :func:`~matfdp.pfa.fdp_pfa`) cap
data-driven factor counts at :func:`default_max_factors`.

Both correlation estimates have exactly unit diagonals by construction: the
standardised residual sum of squares at each cell telescopes to ``n + m - 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFactorCount, NonPositiveEigenvalue
from .linalg import EigenSystem, KronEigenIndex, kron_eigenpairs, sym_eigen
from .teststats import TwoSampleDataset, _standardise, check_sigma_hat

#: Squared loading row norms are clamped below 1 by this margin so the
#: variance-inflation factor 1 / sqrt(1 - norm^2) stays finite.
NORM_SQ_CEIL = 1.0 - 1e-8

#: Eigenvalues below this fraction of the largest are numerical nulls: unusable
#: for ratio selection (their ratios are noise), so no data-driven count reaches them.
RATIO_FLOOR_REL = 1e-12

#: Slices in one residual block: observations per block in
#: :func:`estimate_correlations` and matrix rows per chunk in both walks of
#: :func:`~matfdp.pfa.fdp_pfa`.  Read at call time, so tests can change it.
_BLOCK_SLICES = 8


def default_max_factors(n_total: int) -> int:
    """Cap on data-driven factor counts: ``floor(0.2 * n_total)``."""
    return int(0.2 * n_total)


@dataclass(frozen=True)
class CorrEstimates:
    """Estimated row and column correlation matrices with their eigensystems.

    Attributes
    ----------
    sigma1 : numpy.ndarray
        Row correlation estimate, shape ``(p, p)``, unit diagonal.
    sigma2 : numpy.ndarray
        Column correlation estimate, shape ``(q, q)``, unit diagonal.
    eig1, eig2 : EigenSystem
        Eigendecompositions of ``sigma1`` and ``sigma2``.
    n_total : int
        Combined sample size ``n + m`` behind the estimates; used to cap
        data-driven factor counts downstream.
    """

    sigma1: np.ndarray
    sigma2: np.ndarray
    eig1: EigenSystem
    eig2: EigenSystem
    n_total: int


def estimate_correlations(ds: TwoSampleDataset, sigma_hat: np.ndarray) -> CorrEstimates:
    """Estimate both correlation matrices from standardised residuals.

    The row estimate averages outer products of the residual columns
    (normalised by ``(n + m - 2) * q``) and the column estimate does the same
    across rows (normalised by ``(n + m - 2) * p``).  One reused C-contiguous
    ``(p, b, q)`` buffer holds ``b = _BLOCK_SLICES`` observations at a time
    (fewer in the last), which :func:`~matfdp.teststats._standardise` fills
    through its ``(b, p, q)`` transpose; the row estimate adds its ``(p, b q)``
    reshape times its transpose and the column estimate the transpose of its
    ``(b p, q)`` reshape times itself.  Each product of a block with its own
    transpose runs as one symmetric rank-k update, so both sums are exactly
    symmetric.  More blocks only change the order in which the Gram sums are
    added.

    Parameters
    ----------
    ds : TwoSampleDataset
        The two group stacks.
    sigma_hat : numpy.ndarray
        Cell-wise pooled standard deviations, shape ``(p, q)``, all positive;
        checked by :func:`~matfdp.teststats.check_sigma_hat` before any block
        is built.
    """
    sigma_hat = check_sigma_hat(ds, sigma_hat)
    p, q, n_total = ds.p, ds.q, ds.n + ds.m
    s1 = np.zeros((p, p))
    s2 = np.zeros((q, q))
    step = min(_BLOCK_SLICES, n_total)
    buf = np.empty(p * step * q)
    for start in range(0, n_total, step):
        stop = min(start + step, n_total)
        block = buf[: p * (stop - start) * q].reshape(p, stop - start, q)
        _standardise(block.transpose(1, 0, 2), ds, sigma_hat, start)
        rows = block.reshape(p, -1)
        cols = block.reshape(-1, q)
        s1 += rows @ rows.T
        s2 += cols.T @ cols
    del buf, block, rows, cols  # free the block before the eigendecompositions
    df = n_total - 2
    s1 /= df * q
    s2 /= df * p
    return CorrEstimates(
        sigma1=s1,
        sigma2=s2,
        eig1=sym_eigen(s1),
        eig2=sym_eigen(s2),
        n_total=n_total,
    )


def eigenvalue_ratio(values, max_factors: int) -> int:
    """Pick a factor count by the largest ratio of adjacent eigenvalues.

    Returns the 1-based position ``l`` in ``1..max_factors`` maximising
    ``values[l-1] / values[l]``; ties go to the smallest position.  Positions
    whose eigenvalue falls below ``RATIO_FLOOR_REL`` times the largest are
    excluded (ratios against a numerically null tail are meaningless), which
    can lower the effective cap.

    Raises
    ------
    NonPositiveEigenvalue
        If the leading eigenvalue is not positive, or no usable adjacent pair
        remains after discarding the numerically null tail.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if max_factors < 1:
        raise ValueError(f"max_factors must be >= 1, got {max_factors}")
    if vals.size < 2:
        raise NonPositiveEigenvalue("need at least two eigenvalues for ratio selection")
    if vals[0] <= 0.0:
        raise NonPositiveEigenvalue(f"leading eigenvalue is {vals[0]:.6g}")
    cutoff = RATIO_FLOOR_REL * vals[0]
    usable = int(np.count_nonzero(vals >= cutoff))
    limit = min(max_factors, usable - 1)
    if limit < 1:
        raise NonPositiveEigenvalue(
            "no usable adjacent eigenvalue pair above the relative floor"
        )
    prefix = vals[: limit + 1]
    if np.any(prefix <= 0.0):
        raise NonPositiveEigenvalue("non-positive eigenvalue inside the examined prefix")
    return int(np.argmax(prefix[:-1] / prefix[1:])) + 1


def _extent(idx: np.ndarray) -> int:
    return int(idx.max()) + 1 if idx.size else 0


def _pair_sum(v: np.ndarray, g: np.ndarray, idx1, idx2, coef) -> np.ndarray:
    """``v[:, :k1] @ C @ g[:, :k2].T``, ``C`` holding ``coef[k]`` at ``(idx1[k], idx2[k])``.

    ``k1``/``k2`` are the index extents and ``C`` is zero off the pairs.  Cost
    ``O(p k2 (k1 + q))``, never the ``(p q) x h`` design; no pairs give zeros.
    """
    k1, k2 = _extent(idx1), _extent(idx2)
    c = np.zeros((k1, k2))
    c[idx1, idx2] = coef
    return v[:, :k1] @ c @ g[:, :k2].T


@dataclass(frozen=True)
class PairLoadings:
    """Separable factor loadings: pairs of row and column eigenvectors.

    Factor ``k`` pairs column ``b = idx1[k]`` of the row eigensystem with
    column ``a = idx2[k]`` of the column eigensystem; its weight
    ``values[k]`` is the product ``max(lam_b, 0) * max(xi_a, 0)``, so a pair
    with a negative eigenvalue on either side weighs 0, and its loading
    column is ``sqrt(values[k]) * kron(gamma_a, nu_b)``.  Nothing builds the
    dense ``(p*q, h)`` loading matrix: the fits use the separable form through
    :meth:`expand`, and the trimmed fit takes the per-pair columns of
    :meth:`vector_factors` and forms only the loading rows of the cells it
    drops.

    ``row_norms_sq[r, c]`` is the squared loading row norm
    ``sum_k values[k] * nu_{r,b}^2 * gamma_{c,a}^2`` at cell ``(r, c)``,
    clamped to ``[0, NORM_SQ_CEIL]``; shape ``(p, q)``.
    """

    eig1: EigenSystem
    eig2: EigenSystem
    values: np.ndarray
    idx1: np.ndarray
    idx2: np.ndarray
    row_norms_sq: np.ndarray

    @property
    def h(self) -> int:
        """Number of pairs."""
        return int(self.values.shape[0])

    @property
    def k1(self) -> int:
        """Row eigenvectors in use: ``max(idx1) + 1``, or 0 with no pairs."""
        return _extent(self.idx1)

    @property
    def k2(self) -> int:
        """Column eigenvectors in use: ``max(idx2) + 1``, or 0 with no pairs."""
        return _extent(self.idx2)

    @property
    def p(self) -> int:
        return self.eig1.dim

    @property
    def q(self) -> int:
        return self.eig2.dim

    def vector_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair eigenvector columns ``(p, h)`` and ``(q, h)``."""
        return self.eig1.vectors[:, self.idx1], self.eig2.vectors[:, self.idx2]

    def expand(self, coef) -> np.ndarray:
        """Cell matrix ``sum_k coef[k] * nu_b gamma_a'``, shape ``(p, q)``."""
        return _pair_sum(self.eig1.vectors, self.eig2.vectors, self.idx1, self.idx2, coef)


def _pair_loadings(e1: EigenSystem, e2: EigenSystem, idx1, idx2) -> PairLoadings:
    """Both selectors' pairs: each side's eigenvalue clamped at 0, then the product."""
    values = np.clip(e1.values, 0.0, None)[idx1] * np.clip(e2.values, 0.0, None)[idx2]
    norms = _pair_sum(e1.vectors**2, e2.vectors**2, idx1, idx2, values)
    return PairLoadings(e1, e2, values, idx1, idx2, np.clip(norms, 0.0, NORM_SQ_CEIL))


def _top_pairs(
    e1: EigenSystem, e2: EigenSystem, kron: KronEigenIndex, h: int
) -> PairLoadings:
    p, q = e1.dim, e2.dim
    if h < 0 or h > p * q:
        raise InvalidFactorCount(f"factor count must be in [0, {p * q}], got {h}")
    return _pair_loadings(e1, e2, kron.idx1[:h].copy(), kron.idx2[:h].copy())


def _grid_pairs(e1: EigenSystem, e2: EigenSystem, k1: int, k2: int) -> PairLoadings:
    p, q = e1.dim, e2.dim
    if k1 < 0 or k1 > p:
        raise InvalidFactorCount(f"row factor count must be in [0, {p}], got {k1}")
    if k2 < 0 or k2 > q:
        raise InvalidFactorCount(f"column factor count must be in [0, {q}], got {k2}")
    # b runs fastest, so factors.reshape((k1, k2), order="F") is the factor matrix.
    idx1 = np.tile(np.arange(k1), k2)
    idx2 = np.repeat(np.arange(k2), k1)
    return _pair_loadings(e1, e2, idx1, idx2)


def build_noodle_loadings(ce: CorrEstimates) -> PairLoadings:
    """Top-``h`` Kronecker-spectrum pairs from fitted correlations.

    The count ``h`` is selected by :func:`eigenvalue_ratio` over the sorted
    raw eigenvalue products, capped at ``default_max_factors(n_total)``; for
    an explicit count, see :func:`noodle_loadings_from_corr`.
    """
    kron = kron_eigenpairs(ce.eig1, ce.eig2)
    h = eigenvalue_ratio(kron.values, default_max_factors(ce.n_total))
    return _top_pairs(ce.eig1, ce.eig2, kron, h)


def noodle_loadings_from_corr(sigma1, sigma2, h: int) -> PairLoadings:
    """Top-``h`` pairs built directly from known correlation matrices.

    Used with :func:`~matfdp.noodle.fdp_oracle` and by tests; the factor count
    is explicit because there is no sample size to drive a data-based cap.
    """
    e1 = sym_eigen(sigma1)
    e2 = sym_eigen(sigma2)
    return _top_pairs(e1, e2, kron_eigenpairs(e1, e2), h)


def build_sandwich_loadings(ce: CorrEstimates) -> PairLoadings:
    """Full top-``k1`` x top-``k2`` grid of pairs from fitted correlations.

    Each count is selected by :func:`eigenvalue_ratio` over its side's
    eigenvalues, with the same cap as :func:`build_noodle_loadings`; the
    pairs run row index fastest and are weighed as in :class:`PairLoadings`.
    For explicit counts, see :func:`sandwich_loadings_from_corr`.
    """
    cap = default_max_factors(ce.n_total)
    k1 = eigenvalue_ratio(ce.eig1.values, cap)
    k2 = eigenvalue_ratio(ce.eig2.values, cap)
    return _grid_pairs(ce.eig1, ce.eig2, k1, k2)


def sandwich_loadings_from_corr(sigma1, sigma2, k1: int, k2: int) -> PairLoadings:
    """Grid pairs built directly from known correlation matrices."""
    return _grid_pairs(sym_eigen(sigma1), sym_eigen(sigma2), k1, k2)
