"""Monte-Carlo experiments comparing the FDP estimators.

Three data-generating models share a common shape: a treatment group with a
block of signal cells in the mean and a control group centred at zero, both
with the same doubly-correlated noise.

* Model 1: each correlation matrix comes from a random low-rank loading
  matrix plus a diagonal floor, rescaled to unit diagonal.  Its noise is
  drawn from that factor form, at ``O(pq(l1 + l2))`` per observation plus
  the normal draws (see :class:`_RoundGenerator`).  The matrix and its
  factor are read-only, so the factor cannot go stale.
* Model 2: same, but the floor is a power-decay matrix ``rho ** |i - j|``.
* Model 3: the correlations are built as in Model 1, but the noise itself is
  non-normal: full-spectrum square-root factors applied to a matrix of
  centred heavy-tailed or skewed entries.

Each experiment draws the correlation pair once, then generates fresh data
every round, computes the realised FDP from the ground-truth null mask, and
records each estimator's plug-in value.  Bias and spread are reported in
percent of the difference ``estimate - realised``.  The estimates are those
of the plug-in core, clamped to ``[0, pq/R]``; only ``analyze`` also clamps
them to 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .covfactor import build_noodle_loadings, build_sandwich_loadings, estimate_correlations
from .datafiles import _usable_cores
from .errors import MatfdpError
from .linalg import as_matrix, psd_eigen, symmetric_sqrt
from .noodle import check_estimator, fdp_noodle, fit_noodle
from .pfa import fdp_pfa
from .rng import derive_rng
from .sandwich import fdp_sandwich, fit_sandwich
from .teststats import (
    TwoSampleDataset,
    check_group_sizes,
    check_threshold,
    p_values,
    rejection_count,
    test_matrix,
    true_fdp,
)

METHODS = ("noodle", "sandwich", "pfa")


@dataclass(frozen=True)
class ModelSpec:
    """Configuration of one data-generating model.

    ``loading_dist`` is either ``"std_normal"`` or ``("uniform", lo, hi)``
    and governs the entries of the random loading matrices behind both
    correlation matrices.  ``w_dist`` only matters for model 3 and selects the
    non-normal noise entries: ``"exp1"`` (unit exponential, centred) or
    ``"scaled_t6"`` (t with 6 degrees of freedom scaled to unit variance).
    """

    model: int
    p: int = 100
    q: int = 100
    n: int = 50
    m: int = 50
    l1: int = 3
    l2: int = 3
    loading_dist: str | tuple = "std_normal"
    rho1: float | None = None
    rho2: float | None = None
    w_dist: str = "exp1"
    signal_rows: int = 8
    signal_cols: int = 25
    signal_amplitude: float = 1.0

    def __post_init__(self):
        if self.model not in (1, 2, 3):
            raise ValueError(f"model must be 1, 2, or 3, got {self.model}")
        for name in ("p", "q"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        check_group_sizes(self.n, self.m)
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError(f"loading ranks must be >= 0, got l1={self.l1}, l2={self.l2}")
        if self.model == 2:
            for name in ("rho1", "rho2"):
                val = getattr(self, name)
                if val is None or not -1.0 < val < 1.0:
                    raise ValueError(f"model 2 needs {name} in (-1, 1), got {val}")
        if self.model == 3 and self.w_dist not in ("exp1", "scaled_t6"):
            raise ValueError(f"w_dist must be 'exp1' or 'scaled_t6', got {self.w_dist!r}")
        _check_loading_dist(self.loading_dist)
        if not math.isfinite(self.signal_amplitude):
            raise ValueError(f"signal_amplitude must be finite, got {self.signal_amplitude}")
        if self.signal_rows < 0 or self.signal_cols < 0:
            raise ValueError(
                f"signal block sizes must be >= 0, got "
                f"{self.signal_rows} x {self.signal_cols}"
            )
        if self.signal_rows > self.p or self.signal_cols > self.q:
            raise ValueError(
                f"signal block ({self.signal_rows} x {self.signal_cols}) exceeds "
                f"matrix ({self.p} x {self.q})"
            )


def _check_loading_dist(dist) -> None:
    if dist == "std_normal":
        return
    if (
        isinstance(dist, tuple)
        and len(dist) == 3
        and dist[0] == "uniform"
        and float(dist[1]) < float(dist[2])
        and math.isfinite(float(dist[2]) - float(dist[1]))
    ):
        return
    raise ValueError(
        "loading_dist must be 'std_normal' or ('uniform', lo, hi) with lo < hi "
        f"and a finite range, got {dist!r}"
    )


#: Named parameter presets per model.  Models 1 and 3 use a diagonal noise
#: floor of 0.5; model 2 replaces it with power-decay matrices.
PRESETS: dict[tuple[int, str], dict] = {
    (1, "a"): dict(l1=2, l2=4, loading_dist=("uniform", -1.0, 1.0)),
    (1, "b"): dict(l1=3, l2=3, loading_dist="std_normal"),
    (2, "a"): dict(l1=3, l2=3, loading_dist=("uniform", 0.0, 1.0), rho1=0.5, rho2=0.3),
    (2, "b"): dict(l1=3, l2=3, loading_dist=("uniform", 0.0, 1.0), rho1=0.5, rho2=0.8),
    (3, "a"): dict(l1=2, l2=2, loading_dist=("uniform", 0.0, 1.0)),
    (3, "b"): dict(l1=3, l2=3, loading_dist=("uniform", 0.0, 1.0)),
    (3, "c"): dict(l1=4, l2=4, loading_dist=("uniform", 0.0, 1.0)),
    (3, "d"): dict(l1=2, l2=4, loading_dist=("uniform", 0.0, 1.0)),
}


def preset_spec(model: int, setting: str, **overrides) -> ModelSpec:
    """Build a :class:`ModelSpec` from a named preset plus overrides.

    The default 8 x 25 signal block is cut to ``min(8, p) x min(25, q)``; a
    block given in ``overrides`` is kept as given, so one larger than the
    matrix still raises.
    """
    key = (model, setting)
    if key not in PRESETS:
        known = sorted(s for (mdl, s) in PRESETS if mdl == model)
        raise ValueError(f"unknown setting {setting!r} for model {model}; known: {known}")
    params = dict(PRESETS[key])
    params.update(overrides)
    params.setdefault("signal_rows", min(ModelSpec.signal_rows, params.get("p", ModelSpec.p)))
    params.setdefault("signal_cols", min(ModelSpec.signal_cols, params.get("q", ModelSpec.q)))
    return ModelSpec(model=model, **params)


def _draw_loadings(dist, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    if dist == "std_normal":
        return rng.standard_normal(shape)
    _, lo, hi = dist
    return rng.uniform(float(lo), float(hi), size=shape)


def _draw_noise_entries(dist: str, shape, rng: np.random.Generator) -> np.ndarray:
    if dist == "normal":
        return rng.standard_normal(shape)
    if dist == "exp1":
        # Centred so the factor construction keeps the covariance exact.
        entries = rng.exponential(1.0, size=shape)
        entries -= 1.0
        return entries
    entries = rng.standard_t(6, size=shape)
    entries *= math.sqrt(2.0 / 3.0)
    return entries


def _noise_floor(spec: ModelSpec, side: int) -> np.ndarray:
    dim = spec.p if side == 1 else spec.q
    if spec.model == 2:
        rho = spec.rho1 if side == 1 else spec.rho2
        idx = np.arange(dim)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    return 0.5 * np.eye(dim)


class _FactoredCorrelation(np.ndarray):
    """A read-only correlation matrix ``D (B B' + I / 2) D`` that keeps its factor.

    ``factor`` is ``(d, B)``: the diagonal of ``D`` and the loadings, so
    ``L = D [B, sqrt(1/2) I]`` has ``L L' = Sigma``.  The matrix and both
    factor parts are read-only, so an edit in place raises ``ValueError``
    rather than leaving a stale factor.  This is numpy's ndarray subclass
    with an extra attribute: every array derived from one (a view, a copy,
    arithmetic) has ``factor = None``, and ``np.array`` returns a plain,
    writable array.
    """

    def __array_finalize__(self, obj):
        self.factor = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _correlation(spec: ModelSpec, loadings: np.ndarray, side: int) -> np.ndarray:
    # The diagonal is squares plus a positive floor: only an overflow can break it.
    cov = as_matrix(loadings @ loadings.T + _noise_floor(spec, side), "covariance")
    d = _read_only(1.0 / np.sqrt(np.diag(cov)))
    sigma = cov * np.outer(d, d)
    np.fill_diagonal(sigma, 1.0)
    sigma = _read_only(0.5 * (sigma + sigma.T))
    if spec.model != 1:
        return sigma
    sigma = sigma.view(_FactoredCorrelation)
    sigma.factor = (d, _read_only(loadings))
    return sigma


def gen_correlations(
    spec: ModelSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the row and column correlation matrices for one experiment.

    Each is ``D (B B' + F) D``, with unit diagonal, for random loadings ``B``,
    the model's floor ``F`` and ``d = diag(D)``, and is read-only: to change
    one, edit a copy (``np.array(sigma)``).  For model 1, ``F = I / 2`` and
    each matrix also carries its read-only factor ``(d, B)`` as ``.factor``
    (:class:`_FactoredCorrelation`, still an ndarray with the same values),
    which :class:`_RoundGenerator` draws from.  Loadings whose ``B B'``
    overflows raise :class:`~matfdp.errors.InvalidMatrix`.
    """
    b1 = _draw_loadings(spec.loading_dist, (spec.p, spec.l1), rng)
    b2 = _draw_loadings(spec.loading_dist, (spec.q, spec.l2), rng)
    return _correlation(spec, b1, 1), _correlation(spec, b2, 2)


class _RoundGenerator:
    """Per-experiment cache of the deterministic parts of data generation.

    Every observation is ``L1 E L2'`` for factors with ``L1 L1' = sigma1`` and
    ``L2 L2' = sigma2``.  When both matrices carry a factor and the
    noise is normal (model 1), ``Lk = Dk [Bk, sqrt(1/2) I]`` and ``E`` has
    shape ``(p + l1, q + l2)``, so an observation is

        ``D1 (E22 / 2 + sqrt(1/2) B1 E12 + sqrt(1/2) E21 B2' + B1 E11 B2') D2``

    at ``O(pq(l1 + l2))``.  A group draws its ``(count, p, q)`` blocks ``E22``
    first, then each observation in turn draws its ``E11``, ``E12`` and
    ``E21`` entries, in that order.  Otherwise ``E`` is ``(p, q)`` and the
    factors are dense: the symmetric square roots (model 2, or matrices
    without a factor, such as a copy of a model-1 matrix), or model 3's
    full-spectrum eigenfactors.
    """

    def __init__(self, spec: ModelSpec, sigma1: np.ndarray, sigma2: np.ndarray):
        (p, q), shapes = (spec.p, spec.q), (np.shape(sigma1), np.shape(sigma2))
        if shapes != ((p, p), (q, q)):
            raise ValueError(
                f"sigma1 {shapes[0]} and sigma2 {shapes[1]} do not match ({p}, {p}) and ({q}, {q})"
            )
        self.spec = spec
        mu = np.zeros((spec.p, spec.q))
        mask = np.ones((spec.p, spec.q), dtype=bool)
        if spec.signal_amplitude != 0.0:
            mu[: spec.signal_rows, : spec.signal_cols] = spec.signal_amplitude
            mask[: spec.signal_rows, : spec.signal_cols] = False
        self.mu = mu
        self.mask = mask
        self.noise_dist = spec.w_dist if spec.model == 3 else "normal"
        f1, f2 = getattr(sigma1, "factor", None), getattr(sigma2, "factor", None)
        self.factored = spec.model != 3 and f1 is not None and f2 is not None
        if self.factored:
            (d1, b1), (d2, b2) = f1, f2
            self.half_scale = 0.5 * np.outer(d1, d2)  # D1 (E22 / 2) D2, entrywise
            self.row_loadings = d1[:, None] * b1  # D1 B1
            self.col_loadings_t = (d2[:, None] * b2).T  # (D2 B2)'
            self.row_scale = math.sqrt(0.5) * d1
            self.col_scale = math.sqrt(0.5) * d2
        elif spec.model == 3:
            # Dense noise is left @ E @ right: left @ left.T = sigma1, right.T @ right = sigma2.
            e1 = psd_eigen(sigma1)
            e2 = psd_eigen(sigma2)
            self.left = e1.vectors * np.sqrt(e1.values)
            self.right = (e2.vectors * np.sqrt(e2.values)).T
        else:
            self.left = symmetric_sqrt(sigma1)
            self.right = symmetric_sqrt(sigma2)

    def _factored_obs(self, obs: np.ndarray, rng: np.random.Generator) -> None:
        # obs holds E22 and becomes half_scale * E22 + left @ right, with
        # left = [D1 B1, sqrt(1/2) D1 E21] and
        # right = [E11 (D2 B2)' + sqrt(1/2) E12 D2; (D2 B2)'].
        p, q = obs.shape
        l1, l2 = self.row_loadings.shape[1], self.col_loadings_t.shape[0]
        small = rng.standard_normal(l1 * l2 + l1 * q + p * l2)
        e11 = small[: l1 * l2].reshape(l1, l2)
        e12 = small[l1 * l2 : l1 * (l2 + q)].reshape(l1, q)
        e21 = small[l1 * (l2 + q) :].reshape(p, l2)
        left = np.concatenate([self.row_loadings, e21 * self.row_scale[:, None]], axis=1)
        top = e11 @ self.col_loadings_t + e12 * self.col_scale
        right = np.concatenate([top, self.col_loadings_t])
        obs *= self.half_scale
        obs += left @ right

    def _noise(self, count: int, rng: np.random.Generator) -> np.ndarray:
        # One draw for the whole group, then each observation is replaced in
        # place: the only temporary is one observation, and the bits are those
        # of the whole-group batched formula.
        noise = _draw_noise_entries(self.noise_dist, (count, self.spec.p, self.spec.q), rng)
        for obs in noise:
            if self.factored:
                self._factored_obs(obs, rng)
            else:
                np.matmul(self.left @ obs, self.right, out=obs)
        return noise

    def generate(self, rng: np.random.Generator) -> tuple[TwoSampleDataset, np.ndarray]:
        y = self._noise(self.spec.n, rng)
        y += self.mu
        z = self._noise(self.spec.m, rng)
        return TwoSampleDataset(treatment=y, control=z), self.mask


def gen_round(
    spec: ModelSpec,
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    rng: np.random.Generator,
) -> tuple[TwoSampleDataset, np.ndarray]:
    """Generate one round of data plus the ground-truth null mask.

    ``True`` in the mask marks a true null cell; with zero signal amplitude
    the mask is all ``True`` (global null).  Model 1 draws through the
    factors that :func:`gen_correlations` attached to its read-only matrices;
    any other matrix, such as a writable copy of one, draws through its dense
    symmetric root.  ``ValueError`` when ``sigma1`` is not ``p x p`` or
    ``sigma2`` is not ``q x q``, before any draw.
    """
    return _RoundGenerator(spec, sigma1, sigma2).generate(rng)


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    method: str
    fdp_hat: float
    fdp_true: float
    rejections: int


@dataclass(frozen=True)
class RoundFailure:
    round_index: int
    method: str  # empty string when the whole round failed before any method
    error: str


@dataclass(frozen=True)
class MethodSummary:
    """Bias and spread of ``fdp_hat - fdp_true`` over completed rounds, in percent.

    Both are ``None`` when the method completed no round.
    """

    bias_percent: float | None
    sd_percent: float | None
    rounds: int


@dataclass(frozen=True)
class ExperimentResult:
    records: list[RoundRecord]
    summaries: dict[str, MethodSummary]
    failures: list[RoundFailure]


def check_experiment(threshold: float, rounds: int, methods, estimator: str) -> tuple[str, ...]:
    """Check an experiment's arguments; return ``methods`` in ``METHODS`` order.

    Raises ``ValueError`` on a bad threshold or estimator, on rounds that are
    not an integer in ``[1, 2**32)`` (``derive_rng``'s streams), or on methods
    that are a bare string, empty, unknown or repeated.
    """
    check_threshold(threshold)
    check_estimator(estimator)
    if not (np.issubdtype(type(rounds), np.integer) and 1 <= rounds < 2**32):
        raise ValueError(f"rounds must be an integer in [1, 2**32), got {rounds!r}")
    if isinstance(methods, str):
        raise ValueError(f"methods must be a sequence of names, not the string {methods!r}")
    methods = tuple(methods)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    if not methods:
        raise ValueError("need at least one method")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat, got {methods}")
    return tuple(m for m in METHODS if m in methods)


def run_experiment(
    spec: ModelSpec,
    threshold: float,
    rounds: int,
    seed: int,
    methods: tuple[str, ...] = METHODS,
    estimator: str = "trimmed_l1",
    max_workers: int | None = None,
) -> ExperimentResult:
    """Run one simulation experiment.

    The correlation pair is drawn once from the ``(seed, round 0)`` stream;
    round ``r`` draws its data from the ``(seed, round r)`` stream, so results
    are identical for any worker count.  Rounds run on ``max_workers``
    threads, at most the usable cores (the default).  Per-round estimator
    failures are recorded and the round (or just that method) is skipped; the
    experiment never aborts on them.  Invalid arguments raise ``ValueError``
    (see :func:`check_experiment`) before any data is drawn.  Records and
    summaries follow ``METHODS`` order, whatever the order of ``methods``.
    """
    methods = check_experiment(threshold, rounds, methods, estimator)
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    cores = _usable_cores()

    sigma1, sigma2 = gen_correlations(spec, derive_rng(seed, 0, 0))
    gen = _RoundGenerator(spec, sigma1, sigma2)
    need_corr = any(m in ("noodle", "sandwich") for m in methods)

    def one_round(r: int) -> tuple[list[RoundRecord], list[RoundFailure]]:
        try:
            ds, mask = gen.generate(derive_rng(seed, r, 1))
            x = test_matrix(ds)
            pv = p_values(x)
            rej = rejection_count(pv, threshold)
            truth = true_fdp(pv, mask, threshold)
            ce = estimate_correlations(ds, x.sigma_hat) if need_corr else None
        except (MatfdpError, np.linalg.LinAlgError) as exc:
            return [], [RoundFailure(r, "", repr(exc))]
        records: list[RoundRecord] = []
        failures: list[RoundFailure] = []
        for method in methods:
            try:
                if method == "noodle":
                    fit = fit_noodle(x, build_noodle_loadings(ce), estimator)
                    val = fdp_noodle(fit, rej, threshold)
                elif method == "sandwich":
                    fit = fit_sandwich(x, build_sandwich_loadings(ce), estimator)
                    val = fdp_sandwich(fit, rej, threshold)
                else:
                    val = fdp_pfa(ds, x, threshold)
                records.append(RoundRecord(r, method, val, truth.fdp, rej))
            except (MatfdpError, np.linalg.LinAlgError) as exc:
                failures.append(RoundFailure(r, method, repr(exc)))
        return records, failures

    with ThreadPoolExecutor(max_workers=min(max_workers or cores, cores)) as pool:
        outcomes = list(pool.map(one_round, range(1, rounds + 1)))

    records: list[RoundRecord] = []
    failures: list[RoundFailure] = []
    for recs, fails in outcomes:
        records.extend(recs)
        failures.extend(fails)

    summaries: dict[str, MethodSummary] = {}
    for method in methods:
        diffs = np.array(
            [rec.fdp_hat - rec.fdp_true for rec in records if rec.method == method]
        )
        bias = sd = None
        if diffs.size:
            bias = 100.0 * float(diffs.mean())
            sd = 100.0 * float(diffs.std(ddof=1)) if diffs.size > 1 else 0.0
        summaries[method] = MethodSummary(bias, sd, int(diffs.size))

    return ExperimentResult(records, summaries, failures)
