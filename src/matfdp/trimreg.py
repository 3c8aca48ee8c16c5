"""Robust realised-factor estimation from low-magnitude cells.

Large entries of the statistic vector are dominated by genuine signals, which
contaminate a least-squares fit of the realised factors.  The trimmed fit keeps
only the cells with the smallest absolute statistics and solves an L1
regression of those entries on their loading rows.  The L1 problem is smoothed
(``|r| ~ sqrt(r^2 + eps^2)``) and solved by iteratively reweighted least
squares from the least-squares warm start.  Each step majorises the smoothed
loss by a weighted least-squares problem with weights ``1 / sqrt(r^2 + eps^2)``
and solves it through its ``k x k`` normal equations ``(D'WD) w = D'Wz``, so an
iteration costs a few passes over the kept design and one ``k x k`` solve
instead of an SVD of the weighted design.  A backtracking guard keeps the
objective monotone.  The loop stops when no coefficient moves more than
``STEP_TOL`` or after ``MAX_ITERS`` iterations; ``TrimmedFit.converged`` says
which.

Loading rows are requested lazily through an accessor so callers with
separable loadings never materialise a dense ``(p*q, h)`` design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidFactorCount

#: Smoothing half-width for the absolute-value loss.
SMOOTH_EPS = 1e-6

#: Stop when no coefficient moves more than this between iterations.
STEP_TOL = 1e-8

#: Iteration cap for the reweighting loop.
MAX_ITERS = 200

_BACKTRACK_LIMIT = 30

RowAccessor = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TrimSpec:
    """Configuration of the trimming step.

    ``trim_fraction`` is the fraction of cells kept, by smallest absolute
    statistic; the kept count is ``floor(trim_fraction * total)``.
    """

    trim_fraction: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.trim_fraction <= 1.0:
            raise ValueError(
                f"trim_fraction must be in (0, 1], got {self.trim_fraction}"
            )


@dataclass(frozen=True)
class TrimmedFit:
    """Result of a trimmed L1 fit.

    ``used_fallback`` flags a rank-deficient kept design, in which case ``w``
    is the minimum-norm least-squares solution over all cells instead.
    ``kept`` holds the sorted flat indices of the cells the fit used.
    ``objectives`` traces the smoothed L1 objective, starting at the
    least-squares warm start; it is non-increasing.  ``converged`` is False
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


def trimmed_l1_fit(
    z,
    loading_rows: RowAccessor,
    n_factors: int,
    spec: TrimSpec = TrimSpec(),
) -> TrimmedFit:
    """Fit realised factors to the smallest-magnitude entries of ``z``.

    Parameters
    ----------
    z : array_like
        Statistic vector, length ``total``.
    loading_rows : callable
        ``loading_rows(indices)`` returns the design rows for those flat
        indices as an ``(len(indices), n_factors)`` array.
    n_factors : int
        Number of columns in the design.  Zero is a no-op returning an empty
        coefficient vector.
    spec : TrimSpec
        Trimming configuration.  The kept count must be at least
        ``n_factors + 1``, else :class:`~matfdp.errors.InvalidFactorCount`
        is raised.

    Notes
    -----
    The kept set is the ``floor(trim_fraction * total)`` entries with the
    smallest ``|z|``; ties are broken by index, so the fit is deterministic.
    """
    zv = np.asarray(z, dtype=np.float64).ravel()
    total = zv.size
    if n_factors < 0:
        raise ValueError(f"n_factors must be >= 0, got {n_factors}")
    if n_factors == 0:
        return TrimmedFit(
            w=np.empty(0), used_fallback=False, iterations=0, kept=np.empty(0, dtype=np.intp)
        )
    m_keep = int(spec.trim_fraction * total)
    if m_keep < n_factors + 1:
        raise InvalidFactorCount(
            f"kept count {m_keep} is too small for {n_factors} factors "
            f"(need at least {n_factors + 1})"
        )
    kept = np.sort(np.argsort(np.abs(zv), kind="stable")[:m_keep])
    design = np.asarray(loading_rows(kept), dtype=np.float64)
    if design.shape != (m_keep, n_factors):
        raise ValueError(
            f"loading_rows returned shape {design.shape}, expected {(m_keep, n_factors)}"
        )
    zk = zv[kept]

    w, _, rank, _ = np.linalg.lstsq(design, zk, rcond=None)
    if rank < n_factors:
        full = np.asarray(loading_rows(np.arange(total)), dtype=np.float64)
        w_full, _, _, _ = np.linalg.lstsq(full, zv, rcond=None)
        return TrimmedFit(w=w_full, used_fallback=True, iterations=0, kept=kept)

    # The transposed copy makes the per-iteration products row-contiguous.
    design_t = np.ascontiguousarray(design.T)

    def objective(coef: np.ndarray) -> tuple[float, np.ndarray]:
        """Smoothed L1 objective and the smoothed ``|r|`` it averages."""
        r = zk - coef @ design_t
        smooth_abs = np.sqrt(r * r + SMOOTH_EPS * SMOOTH_EPS)
        return float(np.mean(smooth_abs)), smooth_abs

    obj, smooth_abs = objective(w)
    trace = [obj]
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERS + 1):
        # Weighting by 1 / smoothed |r| makes the weighted LS the standard
        # majorisation of the smoothed absolute loss; the k x k normal
        # equations solve it.  ``smooth_abs`` belongs to the current ``w``.
        weighted = design_t / smooth_abs
        step = np.linalg.solve(weighted @ design, weighted @ zk) - w
        alpha = 1.0
        cand_obj, smooth_abs = objective(w + step)
        for _ in range(_BACKTRACK_LIMIT):
            if cand_obj <= obj + 1e-15:
                break
            alpha *= 0.5
            cand_obj, smooth_abs = objective(w + alpha * step)
        w = w + alpha * step
        obj = min(obj, cand_obj)
        trace.append(obj)
        if np.max(np.abs(alpha * step)) < STEP_TOL:
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
