"""Monte-Carlo experiments comparing the FDP estimators.

Three data-generating models share a common shape: a treatment group with a
block of signal cells in the mean and a control group centred at zero, both
with the same doubly-correlated noise.

* Model 1: each correlation matrix comes from a random low-rank loading
  matrix plus a diagonal floor, rescaled to unit diagonal.
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
from .linalg import corr_from_cov, sym_eigen, symmetric_sqrt
from .noodle import check_estimator, fdp_noodle, fit_noodle
from .pfa import fdp_pfa
from .rng import derive_rng
from .sandwich import fdp_sandwich, fit_sandwich
from .teststats import (
    TwoSampleDataset,
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
        if self.n < 2 or self.m < 2 or self.n + self.m < 5:
            raise ValueError(f"need n, m >= 2 and n + m >= 5, got n={self.n}, m={self.m}")
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
    ):
        return
    raise ValueError(
        f"loading_dist must be 'std_normal' or ('uniform', lo, hi) with lo < hi, got {dist!r}"
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
    """Build a :class:`ModelSpec` from a named preset plus overrides."""
    key = (model, setting)
    if key not in PRESETS:
        known = sorted(s for (mdl, s) in PRESETS if mdl == model)
        raise ValueError(f"unknown setting {setting!r} for model {model}; known: {known}")
    params = dict(PRESETS[key])
    params.update(overrides)
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


def gen_correlations(
    spec: ModelSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the row and column correlation matrices for one experiment."""
    b1 = _draw_loadings(spec.loading_dist, (spec.p, spec.l1), rng)
    b2 = _draw_loadings(spec.loading_dist, (spec.q, spec.l2), rng)
    sigma1 = corr_from_cov(b1 @ b1.T + _noise_floor(spec, 1))
    sigma2 = corr_from_cov(b2 @ b2.T + _noise_floor(spec, 2))
    return sigma1, sigma2


class _RoundGenerator:
    """Per-experiment cache of the deterministic parts of data generation."""

    def __init__(self, spec: ModelSpec, sigma1: np.ndarray, sigma2: np.ndarray):
        self.spec = spec
        mu = np.zeros((spec.p, spec.q))
        mask = np.ones((spec.p, spec.q), dtype=bool)
        if spec.signal_amplitude != 0.0:
            mu[: spec.signal_rows, : spec.signal_cols] = spec.signal_amplitude
            mask[: spec.signal_rows, : spec.signal_cols] = False
        self.mu = mu
        self.mask = mask
        # Noise is left @ E @ right: left @ left.T = sigma1, right.T @ right = sigma2.
        self.noise_dist = spec.w_dist if spec.model == 3 else "normal"
        if spec.model == 3:
            e1 = sym_eigen(sigma1)
            e2 = sym_eigen(sigma2)
            self.left = e1.vectors * np.sqrt(np.clip(e1.values, 0.0, None))
            self.right = (e2.vectors * np.sqrt(np.clip(e2.values, 0.0, None))).T
        else:
            self.left = symmetric_sqrt(sigma1)
            self.right = symmetric_sqrt(sigma2)

    def _noise(self, count: int, rng: np.random.Generator) -> np.ndarray:
        # One draw for the whole group, then each observation is replaced by
        # left @ E @ right in place: the only temporary is one observation,
        # and the bits are those of a whole-group batched matmul.
        noise = _draw_noise_entries(self.noise_dist, (count, self.spec.p, self.spec.q), rng)
        for obs in noise:
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
    the mask is all ``True`` (global null).
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
    before any data is drawn.
    """
    check_threshold(threshold)
    check_estimator(estimator)
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    methods = tuple(methods)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    if not methods:
        raise ValueError("need at least one method")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat, got {methods}")
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
