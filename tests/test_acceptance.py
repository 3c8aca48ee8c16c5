"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 5 also has a full-size variant that reruns the
reference simulation at p = q = 100 with 500 rounds; it takes minutes and is
opt-in via ``MATFDP_FULL_TABLES=1``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from matfdp.covfactor import (
    estimate_correlations,
    noodle_loadings_from_corr,
    sandwich_loadings_from_corr,
)
from matfdp.linalg import (
    kron_eigenpairs,
    sym_eigen,
    vec,
)
from matfdp.noodle import fdp_noodle, fit_noodle
from matfdp.pfa import build_thin_factor, fdp_pfa
from matfdp.sandwich import fdp_sandwich, fit_sandwich
from matfdp.simlab import preset_spec, run_experiment
from matfdp.teststats import (
    TwoSampleDataset,
    p_values,
    rejection_count,
    test_matrix,
)
from matfdp.trimreg import TrimSpec, trimmed_l1_fit

from helpers import random_spd, sample_matrix_normal_stack, stat_matrix


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{tail}")
    assert ok, f"criterion {num}: {name}{tail}"


def test_01_kron_eigen_matches_dense():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_val = 0.0
    worst_proj = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 9))
        q = int(rng.integers(2, 9))
        s1 = random_spd(rng, p, spread=0.5)
        s2 = random_spd(rng, q, spread=0.5)
        e1 = sym_eigen(s1)
        e2 = sym_eigen(s2)
        kron = kron_eigenpairs(e1, e2)

        dvals, dvecs = np.linalg.eigh(np.kron(s2, s1))
        dvals = dvals[::-1]
        dvecs = dvecs[:, ::-1]
        worst_val = max(worst_val, float(np.max(np.abs(kron.values - dvals))))

        # Compare subspaces at the largest spectral gap, where the top-h
        # projector is unambiguous.
        gaps = dvals[:-1] - dvals[1:]
        h = int(np.argmax(gaps)) + 1
        cols = [
            np.kron(e2.vectors[:, kron.idx2[k]], e1.vectors[:, kron.idx1[k]])
            for k in range(h)
        ]
        v = np.column_stack(cols)
        proj = v @ v.T
        dense_proj = dvecs[:, :h] @ dvecs[:, :h].T
        worst_proj = max(worst_proj, float(np.linalg.norm(proj - dense_proj)))
    elapsed = time.perf_counter() - start
    ok = worst_val <= 1e-10 and worst_proj <= 1e-8 and elapsed < 5.0
    _report(
        1,
        "factored eigenpairs match the dense product matrix",
        ok,
        f"max value err {worst_val:.2e}, max projector err {worst_proj:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_02_two_sided_projection_identity():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_vec = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 9))
        q = int(rng.integers(2, 9))
        s1 = random_spd(rng, p, spread=0.5)
        s2 = random_spd(rng, q, spread=0.5)
        k1 = int(rng.integers(1, p + 1))
        k2 = int(rng.integers(1, q + 1))
        x = stat_matrix(rng.standard_normal((p, q)))
        loadings = sandwich_loadings_from_corr(s1, s2, k1, k2)
        fit = fit_sandwich(x, loadings)

        v1 = sym_eigen(s1).vectors[:, :k1]
        g2 = sym_eigen(s2).vectors[:, :k2]
        big = np.kron(g2 @ g2.T, v1 @ v1.T)
        worst_vec = max(
            worst_vec, float(np.max(np.abs(vec(fit.common_part) - big @ vec(x.x))))
        )

    # Spectra whose top products form a complete grid, so both estimators
    # use the same factor set.
    worst_fdp = 0.0
    for round_idx in range(10):
        rng2 = np.random.default_rng(300 + round_idx)
        q1 = np.linalg.qr(rng2.standard_normal((5, 5)))[0]
        q2 = np.linalg.qr(rng2.standard_normal((4, 4)))[0]
        s1 = q1 @ np.diag([4.0, 3.0, 0.1, 0.05, 0.02]) @ q1.T
        s2 = q2 @ np.diag([2.0, 1.5, 0.04, 0.01]) @ q2.T
        x = stat_matrix(rng2.standard_normal((5, 4)))
        nf = fit_noodle(x, noodle_loadings_from_corr(s1, s2, 4))
        sf = fit_sandwich(x, sandwich_loadings_from_corr(s1, s2, 2, 2))
        worst_fdp = max(
            worst_fdp,
            abs(fdp_noodle(nf, 7, 0.01) - fdp_sandwich(sf, 7, 0.01)),
        )
    elapsed = time.perf_counter() - start
    ok = worst_vec <= 1e-10 and worst_fdp <= 1e-10 and elapsed < 5.0
    _report(
        2,
        "two-sided fit equals the explicit Kronecker projection",
        ok,
        f"max vec err {worst_vec:.2e}, max estimate gap {worst_fdp:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_03_independent_case_closed_form():
    rng = np.random.default_rng(33)
    y = rng.standard_normal((6, 5, 4))
    y[:, :2, :2] += 2.0
    z = rng.standard_normal((6, 5, 4))
    ds = TwoSampleDataset(treatment=y, control=z)
    x = test_matrix(ds)
    t = 0.2
    rej = rejection_count(p_values(x), t)
    assert rej > 0
    expected = 5 * 4 * t / rej

    noodle_val = fdp_noodle(
        fit_noodle(x, noodle_loadings_from_corr(np.eye(5), np.eye(4), 0)), rej, t
    )
    sandwich_val = fdp_sandwich(
        fit_sandwich(x, sandwich_loadings_from_corr(np.eye(5), np.eye(4), 0, 0)), rej, t
    )
    pfa_val = fdp_pfa(ds, x, t, n_factors=0)
    ok = noodle_val == expected and sandwich_val == expected and pfa_val == expected
    _report(
        3,
        "zero factors reduce every estimator to the independence formula",
        ok,
        f"expected {expected:.6g}, got {noodle_val:.6g}/{sandwich_val:.6g}/{pfa_val:.6g}",
    )


def test_04_correlation_estimates_have_unit_diagonals():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(2, 10))
        q = int(rng.integers(2, 10))
        n = int(rng.integers(3, 8))
        m = int(rng.integers(3, 8))
        u = random_spd(rng, p, spread=0.5)
        v = random_spd(rng, q, spread=0.5)
        mu = np.zeros((p, q))
        y = sample_matrix_normal_stack(mu, u, v, n, rng)
        z = sample_matrix_normal_stack(mu, u, v, m, rng)
        ds = TwoSampleDataset(treatment=y, control=z)
        ce = estimate_correlations(ds, test_matrix(ds).sigma_hat)
        worst = max(
            worst,
            float(np.max(np.abs(np.diag(ce.sigma1) - 1.0))),
            float(np.max(np.abs(np.diag(ce.sigma2) - 1.0))),
        )
    ok = worst <= 1e-10
    _report(4, "fitted correlations have unit diagonals", ok, f"max err {worst:.2e}")


def test_05_reference_simulation_bias_small_size():
    spec = preset_spec(1, "a", p=50, q=50, n=50, m=50)
    result = run_experiment(
        spec,
        threshold=0.001,
        rounds=200,
        seed=20240817,
        methods=("sandwich", "pfa"),
    )
    sandwich_bias = result.summaries["sandwich"].bias_percent
    pfa_bias = result.summaries["pfa"].bias_percent
    ok = (
        not result.failures
        and -1.0 <= sandwich_bias <= 3.5
        and pfa_bias < 0.0
    )
    _report(
        5,
        "simulation bias at half size",
        ok,
        f"sandwich {sandwich_bias:+.3f}%, pfa {pfa_bias:+.3f}%, "
        f"{len(result.failures)} failures",
    )


@pytest.mark.skipif(
    os.environ.get("MATFDP_FULL_TABLES") != "1",
    reason="full-size simulation takes minutes; set MATFDP_FULL_TABLES=1 to run",
)
def test_05_reference_simulation_bias_full_size():
    spec = preset_spec(1, "a")
    result = run_experiment(
        spec,
        threshold=0.001,
        rounds=500,
        seed=20240817,
        methods=("sandwich", "pfa"),
    )
    sandwich_bias = result.summaries["sandwich"].bias_percent
    pfa_bias = result.summaries["pfa"].bias_percent
    ok = (
        not result.failures
        and -0.5 <= sandwich_bias <= 1.5
        and -3.5 <= pfa_bias <= -0.5
    )
    _report(
        5,
        "simulation bias at full size",
        ok,
        f"sandwich {sandwich_bias:+.3f}%, pfa {pfa_bias:+.3f}%",
    )


_FEASIBILITY_SCRIPT = """
import resource
import time

from matfdp.covfactor import build_sandwich_loadings, estimate_correlations
from matfdp.rng import derive_rng
from matfdp.sandwich import fdp_sandwich, fit_sandwich
from matfdp.simlab import gen_correlations, gen_round, preset_spec
from matfdp.teststats import p_values, rejection_count, test_matrix

spec = preset_spec(1, "a", p=500, q=500, n=100, m=100)
sigma1, sigma2 = gen_correlations(spec, derive_rng(99, 0, 0))
ds, _ = gen_round(spec, sigma1, sigma2, derive_rng(99, 1, 1))

start = time.perf_counter()
x = test_matrix(ds)
rej = rejection_count(p_values(x), 0.001)
ce = estimate_correlations(ds, x.sigma_hat)
fit = fit_sandwich(x, build_sandwich_loadings(ce))
value = fdp_sandwich(fit, rej, 0.001)
elapsed = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(elapsed, peak_kb, value, rej)
"""


def test_06_large_scale_feasibility():
    proc = subprocess.run(
        [sys.executable, "-c", _FEASIBILITY_SCRIPT],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    elapsed, peak_kb, value, rej = proc.stdout.split()
    elapsed = float(elapsed)
    peak_gb = float(peak_kb) / (1024.0 * 1024.0)
    ok = elapsed < 60.0 and peak_gb < 4.0
    _report(
        6,
        "500 x 500 round fits in one minute and 4 GB",
        ok,
        f"{elapsed:.1f}s, {peak_gb:.2f} GB peak, estimate {float(value):.4f} "
        f"at R={rej}",
    )


def test_07_trimmed_fit_examples():
    rng = np.random.default_rng(77)
    a = rng.standard_normal((60, 3))
    w_true = np.array([1.5, -2.0, 0.5])
    z = a @ w_true

    fit = trimmed_l1_fit(z, a, TrimSpec(trim_fraction=1.0))
    noiseless_err = float(np.max(np.abs(fit.w - w_true)))

    z2 = np.array([1.0, 1.0, 1.0, 100.0])
    ones = np.ones((4, 1))
    fit2 = trimmed_l1_fit(z2, ones, TrimSpec(0.75))
    outlier_err = abs(float(fit2.w[0]) - 1.0)
    kept_ok = fit2.kept.tolist() == [0, 1, 2]
    ok = noiseless_err <= 1e-6 and outlier_err <= 1e-12 and kept_ok
    _report(
        7,
        "trimmed fit recovers clean signals and ignores the outlier",
        ok,
        f"noiseless err {noiseless_err:.2e}, outlier err {outlier_err:.2e}",
    )


def test_08_sampler_covariance_law():
    rng = np.random.default_rng(88)
    u = random_spd(rng, 3, spread=0.5)
    v = random_spd(rng, 3, spread=0.5)
    draws = sample_matrix_normal_stack(np.zeros((3, 3)), u, v, 10_000, rng)
    vecs = draws.transpose(0, 2, 1).reshape(draws.shape[0], 9)
    emp = vecs.T @ vecs / draws.shape[0]
    target = np.kron(v, u)
    rel = float(np.linalg.norm(emp - target) / np.linalg.norm(target))
    ok = rel < 0.1
    _report(8, "sampler matches its covariance law", ok, f"rel err {rel:.3f}")


def test_09_thin_factor_route_matches_dense():
    rng = np.random.default_rng(99)
    worst = 0.0
    for p, q in ((4, 4), (8, 8), (2, 5)):
        u = random_spd(rng, p, spread=0.5)
        v = random_spd(rng, q, spread=0.5)
        mu = np.zeros((p, q))
        y = sample_matrix_normal_stack(mu, u, v, 4, rng)
        z = sample_matrix_normal_stack(mu, u, v, 4, rng)
        ds = TwoSampleDataset(treatment=y, control=z)
        thin = build_thin_factor(ds)

        df = ds.n + ds.m - 2
        res = np.concatenate(
            [ds.treatment - ds.treatment.mean(axis=0), ds.control - ds.control.mean(axis=0)]
        )
        flat = res.transpose(0, 2, 1).reshape(res.shape[0], p * q)
        dvals, dvecs = np.linalg.eigh(flat.T @ flat / df)
        dvals = dvals[::-1]
        dvecs = dvecs[:, ::-1]

        rank = thin.rank
        worst = max(worst, float(np.max(np.abs(thin.values - dvals[:rank]))))
        if rank:
            tv = thin.eigenvectors(rank)
            worst = max(
                worst,
                float(
                    np.linalg.norm(tv @ tv.T - dvecs[:, :rank] @ dvecs[:, :rank].T)
                ),
            )
    ok = worst <= 1e-8
    _report(9, "thin factor route equals the dense eigendecomposition", ok, f"max err {worst:.2e}")


def test_10_simulation_output_is_thread_invariant():
    flags = [
        "simulate", "--model", "1", "--p", "8", "--q", "25", "--n", "6", "--m", "6",
        "--seed", "17", "--t", "0.1", "--rounds", "6",
    ]
    contents = []
    with tempfile.TemporaryDirectory() as root:
        for label, threads in (("one", "1"), ("two", "2"), ("max", None)):
            out = os.path.join(root, label)
            env = dict(os.environ)
            env.pop("MATFDP_FULL_TABLES", None)
            if threads is None:
                env.pop("MATFDP_THREADS", None)
            else:
                env["MATFDP_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "matfdp.cli", *flags, "--out", out],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            with open(os.path.join(out, "rounds.csv"), "rb") as fh:
                contents.append(fh.read())
    ok = contents[0] == contents[1] == contents[2]
    _report(
        10,
        "per-round output is byte-identical for any worker count",
        ok,
        f"{len(contents[0])} bytes",
    )
