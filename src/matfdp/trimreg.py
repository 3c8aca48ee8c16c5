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

_BACKTRACK_LIMIT = 30


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


def trimmed_l1_fit(z, design, spec: TrimSpec = TrimSpec()) -> TrimmedFit:
    """Fit realised factors to the smallest-magnitude entries of ``z``.

    Parameters
    ----------
    z : array_like
        Statistic vector, length ``total``.
    design : array_like
        Loading matrix, shape ``(total, k)``; row ``l`` belongs to entry ``l``
        of ``z``.  With ``k = 0`` the fit is a no-op returning an empty
        coefficient vector.
    spec : TrimSpec
        Trimming configuration.  The kept count must be at least ``k + 1``,
        else :class:`~matfdp.errors.InvalidFactorCount` is raised.

    Notes
    -----
    The kept set is the ``floor(trim_fraction * total)`` entries with the
    smallest ``|z|``; ties are broken by index, so the fit is deterministic.
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
    m_keep = int(spec.trim_fraction * total)
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

    def objective(coef: np.ndarray) -> tuple[float, np.ndarray]:
        """Smoothed L1 objective and the smoothed ``|r|`` it averages."""
        r = zk - coef @ dk_t
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
        weighted = dk_t / smooth_abs
        step = np.linalg.solve(weighted @ dk, weighted @ zk) - w
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
