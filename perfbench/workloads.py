"""The four benchmark workloads and their correctness gates.

Each workload builds its inputs from the seed, runs timed units one after
another (a closed loop: the next unit starts when the previous one returns)
and checks every unit's output.  A unit is one ``run_experiment`` batch of
rounds for the simulation workloads, and one op otherwise.

Gate failures are collected in ``problems``; any entry fails the run.  The
checks use tolerances and invariants, not digests, because BLAS threading
changes the last bits of the estimates.

Timed code calls the package through module attributes (``teststats.p_values``)
so the traced run can wrap them; the gate and the reference use the names
imported directly below, which stay unwrapped and out of the trace.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import statistics

import numpy as np

import matfdp.cli as cli
import matfdp.covfactor as covfactor
import matfdp.sandwich as sandwich
import matfdp.teststats as teststats
from matfdp.rng import derive_rng
from matfdp.teststats import p_values, rejection_count, test_matrix, true_fdp
from matfdp.simlab import METHODS, gen_correlations, gen_round, preset_spec, run_experiment

THRESHOLD = 0.001


def _check_estimate(problems: list[str], where: str, value: float, rejections: int, cells: int):
    """An estimate is finite and inside ``[0, cells / R]`` (exactly 0 when R = 0)."""
    upper = cells / rejections if rejections > 0 else 0.0
    if not (math.isfinite(value) and 0.0 <= value <= upper * (1.0 + 1e-12)):
        problems.append(f"{where}: estimate {value!r} outside [0, {upper}] at R={rejections}")


class Simulation:
    """``run_experiment`` on preset 1a at the paper size, all three methods."""

    root_layer = "simlab.run_experiment"

    def __init__(self, estimator: str, seed: int, smoke: bool, workers: int):
        size, obs = (30, 10) if smoke else (100, 50)
        self.spec = preset_spec(1, "a", p=size, q=size, n=obs, m=obs)
        self.estimator = estimator
        self.seed = seed
        self.threads = workers
        trimmed = estimator == "trimmed_l1"
        self.rounds = workers * (1 if smoke else 2 if trimmed else 8)
        # Accuracy comes from the first units only (16 or 128 rounds), so it
        # depends on the seed and not on how many units fit in the time.
        self.min_units = 1 if smoke else max(1, (16 if trimmed else 128) // self.rounds)
        self.problems: list[str] = []
        self._errors: dict[str, list[float]] = {m: [] for m in METHODS}

    def setup(self) -> None:
        """Nothing to prepare: run_experiment draws every round's data itself."""

    def reference(self) -> None:
        pass

    def run(self, index: int):
        # Every unit gets its own experiment seed, hence its own correlation pair.
        seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        return run_experiment(
            self.spec,
            threshold=THRESHOLD,
            rounds=self.rounds,
            seed=seed,
            estimator=self.estimator,
            max_workers=self.threads,
        )

    def check(self, index: int, result) -> tuple[int, int, int]:
        """Gate one batch; returns ``(ops, attempted, failed)``."""
        cells = self.spec.p * self.spec.q
        expected = {(r, m) for r in range(1, self.rounds + 1) for m in METHODS}
        recorded = [(rec.round_index, rec.method) for rec in result.records]
        failed = set()
        for f in result.failures:
            failed |= {(f.round_index, m) for m in METHODS} if f.method == "" else {
                (f.round_index, f.method)
            }
        if len(set(recorded)) != len(recorded) or set(recorded) & failed:
            self.problems.append(f"unit {index}: an op is recorded twice or both ways")
        if len(recorded) + len(failed) != len(expected) or set(recorded) | failed != expected:
            self.problems.append(
                f"unit {index}: {len(recorded)} records + {len(failed)} failures "
                f"!= {self.rounds} rounds x {len(METHODS)} methods"
            )
        for rec in result.records:
            where = f"unit {index} round {rec.round_index} {rec.method}"
            _check_estimate(self.problems, where, rec.fdp_hat, rec.rejections, cells)
            if not 0.0 <= rec.fdp_true <= 1.0:
                self.problems.append(f"{where}: realised FDP {rec.fdp_true!r} outside [0, 1]")
            if 1 <= index <= self.min_units:
                self._errors[rec.method].append(abs(rec.fdp_hat - rec.fdp_true))
        attempted = len(expected)
        return self.rounds, attempted, attempted - len(expected & set(recorded))

    def accuracy(self) -> dict[str, float]:
        return {m: 100.0 * statistics.fmean(v) for m, v in self._errors.items() if v}


class LargeSandwich:
    """The 500 x 500 sandwich estimation path with the least-squares fit."""

    root_layer = "bench.op"
    threads = 1

    def __init__(self, seed: int, smoke: bool):
        size, obs = (40, 10) if smoke else (500, 100)
        self.spec = preset_spec(1, "a", p=size, q=size, n=obs, m=obs)
        self.seed = seed
        self.min_units = 1
        self.problems: list[str] = []
        self.ds = None
        self._first = None

    def setup(self) -> None:
        self.ds = None  # let the previous copy go before drawing a new one
        sigma1, sigma2 = gen_correlations(self.spec, derive_rng(self.seed, 0, 0))
        self.ds, self.mask = gen_round(self.spec, sigma1, sigma2, derive_rng(self.seed, 1, 1))

    def reference(self) -> None:
        pv = p_values(test_matrix(self.ds))
        self.rejections = rejection_count(pv, THRESHOLD)
        self.fdp_true = true_fdp(pv, self.mask, THRESHOLD).fdp

    def run(self, index: int):
        ds = self.ds
        x = teststats.test_matrix(ds)
        rej = teststats.rejection_count(teststats.p_values(x), THRESHOLD)
        ce = covfactor.estimate_correlations(ds, x.sigma_hat)
        loadings = covfactor.build_sandwich_loadings(ce)
        fit = sandwich.fit_sandwich(x, loadings, estimator="least_squares")
        return rej, sandwich.fdp_sandwich(fit, rej, THRESHOLD)

    def check(self, index: int, result) -> tuple[int, int, int]:
        rej, value = result
        _check_estimate(self.problems, f"op {index}", value, rej, self.spec.p * self.spec.q)
        if rej != self.rejections:
            self.problems.append(f"op {index}: R={rej}, reference R={self.rejections}")
        if self._first is None:
            self._first = value
        elif not math.isclose(value, self._first, rel_tol=1e-9, abs_tol=1e-12):
            self.problems.append(f"op {index}: estimate {value!r} differs from {self._first!r}")
        return 1, 1, 0

    def accuracy(self) -> dict[str, float]:
        return {"sandwich": 100.0 * abs(self._first - self.fdp_true)}


class AnalyzeSweep:
    """``analyze --method noodle --sweep 25`` on a gen-synthetic directory."""

    root_layer = "cli.analyze"
    threads = 1

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        size, obs = (30, 10) if smoke else (100, 50)
        self.spec = preset_spec(1, "a", p=size, q=size, n=obs, m=obs)
        self.seed = seed
        self.min_units = 1
        self.problems: list[str] = []
        self.data_dir = os.path.join(work_dir, "dataset")
        self.out_dir = os.path.join(work_dir, "report")
        self._error: float | None = None

    def _cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def setup(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        spec = self.spec
        code = self._cli(
            "gen-synthetic", "--model", "1", "--setting", "a",
            "--p", str(spec.p), "--q", str(spec.q), "--n", str(spec.n), "--m", str(spec.m),
            "--seed", str(self.seed), "--out", self.data_dir,
        )  # fmt: skip
        if code != 0:
            raise RuntimeError(f"gen-synthetic exited with {code}")

    def reference(self) -> None:
        # The same streams gen-synthetic used, so these are the data on disk.
        sigma1, sigma2 = gen_correlations(self.spec, derive_rng(self.seed, 0, 0))
        ds, self.mask = gen_round(self.spec, sigma1, sigma2, derive_rng(self.seed, 1, 1))
        self.pv = p_values(test_matrix(ds))

    def run(self, index: int) -> int:
        return self._cli(
            "analyze", "--data", self.data_dir, "--method", "noodle",
            "--sweep", "25", "--out", self.out_dir,
        )  # fmt: skip

    def check(self, index: int, code: int) -> tuple[int, int, int]:
        where = f"op {index}"
        if code != 0:
            self.problems.append(f"{where}: analyze exited with {code}")
            return 1, 1, 1
        p, q = self.spec.p, self.spec.q
        with open(os.path.join(self.out_dir, "report.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(self.out_dir, "scree.csv"), newline="") as fh:
            scree_rows = sum(1 for _ in fh) - 1
        if scree_rows != p + q + p * q:
            self.problems.append(f"{where}: scree has {scree_rows} rows, expected {p + q + p * q}")
        if not rows:
            self.problems.append(f"{where}: empty sweep")
        thresholds = [float(r["t"]) for r in rows]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            self.problems.append(f"{where}: sweep thresholds do not strictly increase")
        errors = []
        for row, t in zip(rows, thresholds):
            rej, fdp = int(row["R"]), float(row["fdp_hat"])
            if not (0.0 < t < 1.0 and math.isfinite(fdp) and 0.0 <= fdp <= 1.0):
                self.problems.append(f"{where}: row t={t!r} fdp_hat={fdp!r} out of range")
                continue
            if rej != rejection_count(self.pv, t):
                self.problems.append(f"{where}: R={rej} at t={t!r} disagrees with the data")
            truth = true_fdp(self.pv, self.mask, t).fdp
            errors.append(abs(fdp - truth))
        if index == 1 and errors:
            self._error = statistics.fmean(errors)
        return 1, 1, 0

    def accuracy(self) -> dict[str, float]:
        return {} if self._error is None else {"noodle": 100.0 * self._error}


def make(name: str, seed: int, smoke: bool, workers: int, work_dir: str):
    if name == "sim-trimmed":
        return Simulation("trimmed_l1", seed, smoke, workers)
    if name == "sim-ls":
        return Simulation("least_squares", seed, smoke, workers)
    if name == "large-sandwich":
        return LargeSandwich(seed, smoke)
    return AnalyzeSweep(seed, smoke, work_dir)
