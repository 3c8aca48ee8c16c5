"""Robust realised-factor estimation by least trimmed squares.

Large entries of the statistic matrix are dominated by genuine signals, which
contaminate a least-squares fit of the realised factors.  The trimmed fit runs
the C-steps of Rousseeuw & Van Driessen (2006, FAST-LTS): start at the
all-cell least-squares fit, keep the ``TRIM_FRACTION`` of cells with the
smallest residual ``|z - zeta|``, refit on them, and repeat until the kept set
repeats.  No C-step raises the trimmed sum of squares and there are finitely
many kept sets, so the loop ends at a fixed point; ``MAX_ITERS`` is a safety
cap.  The design is separable and never built: each step subtracts the dropped
cells' rows from the all-cell ``h x h`` normal equations.  The names
``trimmed_l1_fit`` and ``"trimmed_l1"`` are those of the trimmed L1 fit this
replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFactorCount

#: Cap on C-steps; the kept set repeats after a handful of steps in practice.
MAX_ITERS = 200

#: Fraction of cells the fit keeps, by smallest residual: Fan, Han & Gu (2012)
#: fit the realised factors on the 90% of statistics least likely to carry
#: signal.
TRIM_FRACTION = 0.9


@dataclass(frozen=True)
class TrimmedFit:
    """Result of a trimmed fit.

    ``w`` is the least-squares fit on ``kept``, the sorted vec-order indices
    of the cells the last of ``iterations`` C-steps used.  ``converged`` is
    False when ``MAX_ITERS`` steps ran without the kept set repeating.
    ``used_fallback`` flags a numerically singular kept normal matrix: ``w``
    is then the minimum-norm least-squares fit over all cells, and
    ``iterations`` counts the steps completed before it.
    """

    w: np.ndarray
    used_fallback: bool
    iterations: int
    kept: np.ndarray
    converged: bool = True


def _smallest(r_abs: np.ndarray, m_keep: int) -> np.ndarray:
    """Mask of the ``m_keep`` smallest entries; ties at the cut keep lower indices."""
    cut = np.partition(r_abs, m_keep - 1)[m_keep - 1]
    keep = r_abs < cut
    ties = np.flatnonzero(r_abs == cut)
    keep[ties[: m_keep - np.count_nonzero(keep)]] = True
    return keep


def trimmed_l1_fit(z, left, right) -> TrimmedFit:
    """Fit realised factors to the cells of ``z``, shape ``(p, q)``, with the smallest residuals.

    Cell ``(r, c)`` loads ``left[r, k] * right[c, k]`` on factor ``k``
    (``left`` is ``(p, h)``, ``right`` is ``(q, h)``), so design column ``k``
    is ``kron(right[:, k], left[:, k])`` in vec order.  Each C-step keeps the
    ``floor(TRIM_FRACTION * p * q)`` cells with the smallest ``|z - zeta|``,
    ties broken by vec-order index.  With ``h = 0`` the fit is a no-op; a kept
    count below ``h + 1`` raises :class:`~matfdp.errors.InvalidFactorCount`.
    """
    z, left, right = (np.asarray(a, dtype=np.float64) for a in (z, left, right))
    shapes_ok = z.ndim == left.ndim == 2 and right.shape == (z.shape[1], left.shape[1])
    if not shapes_ok or left.shape[0] != z.shape[0]:
        raise ValueError(f"loadings {left.shape} and {right.shape} do not match z {z.shape}")
    (p, q), n_factors = z.shape, left.shape[1]
    if n_factors == 0:
        return TrimmedFit(np.empty(0), False, 0, np.empty(0, dtype=np.intp))
    m_keep = int(TRIM_FRACTION * p * q)
    if m_keep < n_factors + 1:
        raise InvalidFactorCount(
            f"kept count {m_keep} is too small for {n_factors} factors "
            f"(need at least {n_factors + 1})"
        )
    # Row c of the transpose is column c of z, so it ravels in vec order.
    zt = np.ascontiguousarray(z.T)
    gram = (left.T @ left) * (right.T @ right)
    rhs = ((left.T @ z) * right.T).sum(axis=1)
    w_all = np.linalg.lstsq(gram, rhs, rcond=None)[0]

    def kept_mask(w: np.ndarray) -> np.ndarray:
        return _smallest(np.abs(zt - (right * w) @ left.T).ravel(), m_keep)

    keep, converged = kept_mask(w_all), False
    for iterations in range(1, MAX_ITERS + 1):
        cols, rows = np.divmod(np.flatnonzero(~keep), p)
        dropped = left[rows] * right[cols]
        w, _, rank, _ = np.linalg.lstsq(
            gram - dropped.T @ dropped, rhs - zt[cols, rows] @ dropped, rcond=None
        )
        if rank < n_factors:
            return TrimmedFit(w_all, True, iterations - 1, np.flatnonzero(keep))
        new_keep = kept_mask(w)
        converged = np.array_equal(new_keep, keep)
        if converged:
            break
        keep = new_keep
    return TrimmedFit(w, False, iterations, np.flatnonzero(keep), converged)
