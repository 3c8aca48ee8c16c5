"""Robust realised-factor estimation from low-magnitude cells.

Large entries of the statistic vector are dominated by genuine signals, which
contaminate a least-squares fit of the realised factors.  The trimmed fit keeps
only the ``TRIM_FRACTION`` of cells with the smallest absolute statistics (90%,
following Fan, Han & Gu 2012) and solves an L1 regression of those entries on
their loading rows.  The L1 problem is smoothed (``|r| ~ sqrt(r^2 + eps^2)``)
and solved by iteratively reweighted least squares from the least-squares warm
start.  Each step majorises the smoothed loss by a weighted least-squares
problem with weights ``1 / sqrt(r^2 + eps^2)`` and solves it through its
``k x k`` normal equations ``(D'WD) w = D'Wz``, so an iteration costs a few
passes over the kept design and one ``k x k`` solve instead of an SVD of the
weighted design.  The weighted problem touches the
smoothed loss at the current coefficients and lies above it elsewhere, so each
full step is a majorise-minimise step and cannot raise the objective (Hunter
and Lange 2004); no step-size guard is needed.  The loop stops when no
coefficient moves more than ``STEP_TOL`` or after ``MAX_ITERS`` iterations;
``TrimmedFit.converged`` says which.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidFactorCount

#: Smoothing half-width for the absolute-value loss.
SMOOTH_EPS = 1e-6

#: Stop when no coefficient moves more than this between iterations.
STEP_TOL = 1e-8

#: Iteration cap for the reweighting loop.
MAX_ITERS = 200

#: Fraction of cells the fit keeps, by smallest ``|z|``: Fan, Han & Gu (2012)
#: fit the realised factors on the 90% of statistics least likely to carry
#: signal.
TRIM_FRACTION = 0.9


@dataclass(frozen=True)
class TrimmedFit:
    """Result of a trimmed L1 fit.

    ``used_fallback`` flags a rank-deficient kept design, in which case ``w``
    is the minimum-norm least-squares solution over all cells instead.
    ``kept`` holds the sorted flat indices of the cells the fit used.
    ``objectives`` holds the smoothed L1 objective at the least-squares warm
    start and at each iterate, so it has ``iterations + 1`` entries and the
    last is the objective at ``w``; it is non-increasing because every step
    minimises a majoriser of the objective.  ``converged`` is False
    when the reweighting loop ran ``MAX_ITERS`` iterations without its step
    falling below ``STEP_TOL``; the zero-factor and fallback results, which
    run no loop, report True.
    """

    w: np.ndarray
    used_fallback: bool
    iterations: int
    kept: np.ndarray
    objectives: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = True


def trimmed_l1_fit(z, design) -> TrimmedFit:
    """Fit realised factors to the smallest-magnitude entries of ``z``.

    Parameters
    ----------
    z : array_like
        Statistic vector, length ``total``.
    design : array_like
        Loading matrix, shape ``(total, k)``; row ``l`` belongs to entry ``l``
        of ``z``.  With ``k = 0`` the fit is a no-op returning an empty
        coefficient vector.

    Notes
    -----
    The kept set is the ``floor(TRIM_FRACTION * total)`` entries with the
    smallest ``|z|``; ties are broken by index, so the fit is deterministic.
    ``TRIM_FRACTION`` is read at call time.  The kept count must be at least
    ``k + 1``, else :class:`~matfdp.errors.InvalidFactorCount` is raised.
    """
    zv = np.asarray(z, dtype=np.float64).ravel()
    design = np.asarray(design, dtype=np.float64)
    total = zv.size
    if design.ndim != 2 or design.shape[0] != total:
        raise ValueError(f"design shape {design.shape} does not have {total} rows")
    n_factors = design.shape[1]
    if n_factors == 0:
        return TrimmedFit(
            w=np.empty(0), used_fallback=False, iterations=0, kept=np.empty(0, dtype=np.intp)
        )
    m_keep = int(TRIM_FRACTION * total)
    if m_keep < n_factors + 1:
        raise InvalidFactorCount(
            f"kept count {m_keep} is too small for {n_factors} factors "
            f"(need at least {n_factors + 1})"
        )
    kept = np.sort(np.argsort(np.abs(zv), kind="stable")[:m_keep])
    dk, zk = design[kept], zv[kept]

    w, _, rank, _ = np.linalg.lstsq(dk, zk, rcond=None)
    if rank < n_factors:
        w_full, _, _, _ = np.linalg.lstsq(design, zv, rcond=None)
        return TrimmedFit(w=w_full, used_fallback=True, iterations=0, kept=kept)

    # The transposed copy makes the per-iteration products row-contiguous.
    dk_t = np.ascontiguousarray(dk.T)
    r = zk - w @ dk_t
    smooth_abs = np.sqrt(r * r + SMOOTH_EPS * SMOOTH_EPS)
    trace = [float(np.mean(smooth_abs))]
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERS + 1):
        # Weighting by 1 / smoothed |r| makes the weighted LS the standard
        # majorisation of the smoothed absolute loss; the k x k normal
        # equations solve it.  ``smooth_abs`` belongs to the current ``w``.
        weighted = dk_t / smooth_abs
        step = np.linalg.solve(weighted @ dk, weighted @ zk) - w
        w = w + step
        r = zk - w @ dk_t
        smooth_abs = np.sqrt(r * r + SMOOTH_EPS * SMOOTH_EPS)
        trace.append(float(np.mean(smooth_abs)))
        if np.max(np.abs(step)) < STEP_TOL:
            converged = True
            break
    return TrimmedFit(
        w=w,
        used_fallback=False,
        iterations=iterations,
        kept=kept,
        objectives=np.asarray(trace),
        converged=converged,
    )
