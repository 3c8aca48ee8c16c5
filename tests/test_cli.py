"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import csv
import errno
import json
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import matfdp
from matfdp import datafiles, noodle
from matfdp.cli import main
from matfdp.covfactor import (
    build_noodle_loadings,
    build_sandwich_loadings,
    estimate_correlations,
)
from matfdp.datafiles import read_dataset, write_dataset
from matfdp.errors import DegenerateVariance, NotPsd
from matfdp.noodle import fdp_noodle, fit_noodle
from matfdp.rng import derive_rng
from matfdp.sandwich import fdp_sandwich, fit_sandwich
from matfdp.simlab import RoundFailure, gen_correlations, gen_round, preset_spec, run_experiment
from matfdp.teststats import TwoSampleDataset, p_values, rejection_count, test_matrix

GEN_FLAGS = ["--model", "1", "--p", "8", "--q", "25", "--n", "6", "--m", "6"]

needs_two_cores = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="parser processes need two usable cores",
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_synthetic_then_analyze_threshold(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    rc = main(["gen-synthetic", *GEN_FLAGS, "--seed", "5", "--out", str(data)])
    assert rc == 0
    assert (data / "manifest.json").is_file()

    rc = main(
        [
            "analyze", "--data", str(data), "--method", "sandwich",
            "--threshold", "0.2", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 1
    row = rows[0]
    assert float(row["t"]) == 0.2
    rej = int(row["R"])
    fdp = float(row["fdp_hat"])
    assert rej >= 0
    assert 0.0 <= fdp <= 1.0
    assert float(row["estimated_false"]) == fdp * rej

    selected = np.loadtxt(out / "selected.csv", delimiter=",", dtype=int)
    assert selected.shape == (8, 25)
    assert set(np.unique(selected)) <= {0, 1}
    assert int(selected.sum()) == rej


def test_gen_synthetic_is_reproducible(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for target in (first, second):
        rc = main(["gen-synthetic", *GEN_FLAGS, "--seed", "9", "--out", str(target)])
        assert rc == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_gen_synthetic_matches_simulation_round_one(tmp_path):
    data = tmp_path / "data"
    rc = main(["gen-synthetic", *GEN_FLAGS, "--seed", "21", "--out", str(data)])
    assert rc == 0
    ds = read_dataset(data)

    spec = preset_spec(1, "a", p=8, q=25, n=6, m=6)
    sigma1, sigma2 = gen_correlations(spec, derive_rng(21, 0, 0))
    expected, _ = gen_round(spec, sigma1, sigma2, derive_rng(21, 1, 1))
    np.testing.assert_array_equal(ds.treatment, expected.treatment)
    np.testing.assert_array_equal(ds.control, expected.control)


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", *GEN_FLAGS, "--seed", "3", "--t", "0.1",
            "--rounds", "4", "--out", str(out),
        ]
    )
    assert rc == 0

    rows = read_csv(out / "rounds.csv")
    assert len(rows) == 4 * 3
    assert [r["method"] for r in rows[:3]] == ["noodle", "sandwich", "pfa"]
    for row in rows:
        assert 1 <= int(row["round"]) <= 4
        assert float(row["fdp_hat"]) >= 0.0
        assert 0.0 <= float(row["fdp_true"]) <= 1.0
        assert int(row["R"]) >= 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    config = summary["config"]
    assert config["model"] == 1
    assert (config["p"], config["q"]) == (8, 25)
    assert config["t"] == 0.1
    assert config["rounds"] == 4
    assert config["seed"] == 3
    assert config["estimator"] == "trimmed_l1"
    assert config["methods"] == ["noodle", "sandwich", "pfa"]
    assert summary["failures"] == []
    for name in ("noodle", "sandwich", "pfa"):
        stats = summary["methods"][name]
        assert stats["rounds"] == 4
        assert np.isfinite(stats["bias_percent"])
        assert np.isfinite(stats["sd_percent"])


def test_simulate_rounds_match_api_exactly(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", *GEN_FLAGS, "--seed", "7", "--t", "0.05",
            "--rounds", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out / "rounds.csv")

    spec = preset_spec(1, "a", p=8, q=25, n=6, m=6)
    result = run_experiment(
        spec, threshold=0.05, rounds=3, seed=7, max_workers=1
    )
    assert len(rows) == len(result.records)
    for row, rec in zip(rows, result.records):
        assert int(row["round"]) == rec.round_index
        assert row["method"] == rec.method
        # 17-significant-digit output must round-trip bit for bit.
        assert float(row["fdp_hat"]) == rec.fdp_hat
        assert float(row["fdp_true"]) == rec.fdp_true
        assert int(row["R"]) == rec.rejections


def test_simulate_method_subset(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", *GEN_FLAGS, "--seed", "3", "--t", "0.1", "--rounds", "2",
            "--methods", "pfa", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out / "rounds.csv")
    assert [r["method"] for r in rows] == ["pfa", "pfa"]
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["methods"]) == ["pfa"]


SMALL_FLAGS = ["--model", "1", "--p", "10", "--q", "10", "--n", "10", "--m", "10"]


def test_small_matrix_shrinks_the_signal_block(tmp_path):
    # The default 8 x 25 signal block is cut to the 10 x 10 matrix.
    out = tmp_path / "sim"
    rc = main(["simulate", *SMALL_FLAGS, "--rounds", "1", "--estimator", "ls", "--out", str(out)])
    assert rc == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert (config["signal_rows"], config["signal_cols"]) == (8, 10)
    gen = tmp_path / "gen"
    assert main(["gen-synthetic", *SMALL_FLAGS, "--out", str(gen)]) == 0
    spec = preset_spec(1, "a", p=10, q=10, n=10, m=10)
    s1, s2 = gen_correlations(spec, derive_rng(0, 0, 0))
    ds, _ = gen_round(spec, s1, s2, derive_rng(0, 1, 1))
    written = read_dataset(str(gen))
    assert np.array_equal(written.treatment, ds.treatment)
    assert np.array_equal(written.control, ds.control)


def test_w_dist_reaches_model_3(tmp_path):
    flags = ["--model", "3", "--p", "8", "--q", "25", "--n", "6", "--m", "6",
             "--w-dist", "scaled_t6", "--seed", "4"]
    gen = tmp_path / "gen"
    assert main(["gen-synthetic", *flags, "--out", str(gen)]) == 0
    spec = preset_spec(3, "a", w_dist="scaled_t6", p=8, q=25, n=6, m=6)
    s1, s2 = gen_correlations(spec, derive_rng(4, 0, 0))
    ds, _ = gen_round(spec, s1, s2, derive_rng(4, 1, 1))
    written = read_dataset(str(gen))
    assert np.array_equal(written.treatment, ds.treatment)
    assert np.array_equal(written.control, ds.control)
    out = tmp_path / "sim"
    rc = main(["simulate", *flags, "--rounds", "1", "--methods", "pfa", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["config"]["w_dist"] == "scaled_t6"


def test_a_failed_round_costs_only_that_round(tmp_path, monkeypatch):
    # GEN_FLAGS at seed 7 is this spec; the fake fails on round 2's data alone.
    spec = preset_spec(1, "a", p=8, q=25, n=6, m=6)
    plain = run_experiment(spec, threshold=0.05, rounds=3, seed=7)
    sigma1, sigma2 = gen_correlations(spec, derive_rng(7, 0, 0))
    doomed = gen_round(spec, sigma1, sigma2, derive_rng(7, 2, 1))[0].treatment

    def fail_round_2(ds, sigma_hat):
        if np.array_equal(ds.treatment, doomed):
            raise DegenerateVariance(0, 1)
        return estimate_correlations(ds, sigma_hat)

    monkeypatch.setattr("matfdp.simlab.estimate_correlations", fail_round_2)
    error = repr(DegenerateVariance(0, 1))
    result = run_experiment(spec, threshold=0.05, rounds=3, seed=7)
    assert result.failures == [RoundFailure(2, "", error)]
    assert result.records == [rec for rec in plain.records if rec.round_index != 2]
    assert all(s.rounds == 2 for s in result.summaries.values())

    out = tmp_path / "sim"
    rc = main(["simulate", *GEN_FLAGS, "--seed", "7", "--t", "0.05", "--rounds", "3",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failures"] == [{"round": 2, "method": "", "error": error}]
    assert {r["round"] for r in read_csv(out / "rounds.csv")} == {"1", "3"}


def test_simulate_refuses_rounds_without_a_stream(tmp_path, capsys, monkeypatch):
    # derive_rng has no round 2**32; the check must come before any draw (the
    # round pool would queue one future per round first).
    def no_draw(*args, **kwargs):
        raise AssertionError("data drawn before --rounds was checked")

    monkeypatch.setattr("matfdp.simlab.gen_correlations", no_draw)
    out = tmp_path / "sim"
    rc = main(["simulate", *GEN_FLAGS, "--rounds", str(2**32), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: rounds must be")
    assert not out.exists()


def test_simulate_refuses_repeated_methods(tmp_path, capsys):
    # The library refuses a repeated method, so the CLI does too, before --out.
    out = tmp_path / "sim"
    rc = main(["simulate", *GEN_FLAGS, "--rounds", "1", "--methods", "pfa,pfa", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: methods must not repeat")
    assert not out.exists()


def test_bad_flags_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x")
    cases = [
        ["simulate", *GEN_FLAGS, "--t", "1.5", "--out", out],
        ["simulate", *GEN_FLAGS, "--rounds", "0", "--out", out],
        ["simulate", *GEN_FLAGS, "--methods", "ols", "--out", out],
        ["simulate", "--model", "1", "--setting", "z", "--out", out],
        ["simulate", "--out", out],
        ["analyze", "--data", out, "--method", "noodle", "--threshold", "0", "--out", out],
        ["analyze", "--data", out, "--method", "noodle", "--sweep", "0", "--out", out],
        ["analyze", "--data", out, "--method", "noodle", "--out", out],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()


def test_malformed_dataset_exit_3(tmp_path, capsys):
    data = tmp_path / "data"
    out = tmp_path / "out"
    rc = main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)])
    assert rc == 0
    capsys.readouterr()

    victim = data / "control_002.csv"
    analyze = [
        "analyze", "--data", str(data), "--method", "noodle",
        "--threshold", "0.1", "--out", str(out),
    ]
    # An empty file, or one with no data rows, makes np.loadtxt warn.
    for content in ("not,a,number\n", "", "\n\n", "# comment only\n"):
        victim.write_text(content)
        assert main(analyze) == 3, content
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: malformed dataset"), content
        assert f"malformed dataset ({victim}):" in err
        assert not out.exists()

    victim.unlink()
    victim.mkdir()
    assert main(analyze) == 3
    err = capsys.readouterr().err
    assert err == f"error: malformed dataset ({victim}): {victim} is not a regular file\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []

    # A FIFO would block np.loadtxt until some writer opened it, so it runs in
    # a process with a timeout: a regression then fails instead of hanging.
    victim.rmdir()
    os.mkfifo(victim)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(matfdp.__file__))}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "matfdp.cli", *analyze],
            env=env, capture_output=True, text=True, timeout=60,
        )
    finally:
        try:  # Let a process left blocked on the FIFO see its end.
            os.close(os.open(victim, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass  # Nothing has it open for reading.
    assert run.returncode == 3
    assert run.stderr == f"error: malformed dataset ({victim}): {victim} is not a regular file\n"
    assert not out.exists()


def test_missing_manifest_exit_3(tmp_path, capsys):
    data = tmp_path / "empty"
    data.mkdir()
    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    assert "manifest" in capsys.readouterr().err


def test_unwritable_out_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub"
    rc = main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(out)])
    assert rc == 4
    capsys.readouterr()

    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(out),
        ]
    )
    assert rc == 4
    assert "cannot write" in capsys.readouterr().err


def test_out_dir_probe_keeps_existing_files(tmp_path, capsys):
    # The writability probe must not touch a file the user already keeps in --out.
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    for argv in (
        ["simulate", *GEN_FLAGS, "--rounds", "1", "--estimator", "ls"],
        ["analyze", "--data", str(data), "--method", "noodle", "--threshold", "0.5"],
    ):
        out = tmp_path / argv[0]
        out.mkdir()
        notes = out / ".write_probe"
        notes.write_bytes(b"my notes\n")
        assert main([*argv, "--out", str(out)]) == 0
        assert notes.read_bytes() == b"my notes\n"
    capsys.readouterr()


def test_analyze_sweep_outputs(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "13", "--out", str(data)]) == 0
    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--sweep", "10", "--out", str(out),
        ]
    )
    assert rc == 0

    rows = read_csv(out / "report.csv")
    assert 0 < len(rows) <= 20
    thresholds = [float(r["t"]) for r in rows]
    assert all(0.0 < t < 1.0 for t in thresholds)
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
    rejections = [int(r["R"]) for r in rows]
    assert all(a <= b for a, b in zip(rejections, rejections[1:]))
    for row in rows:
        fdp = float(row["fdp_hat"])
        assert 0.0 <= fdp <= 1.0
        assert float(row["estimated_false"]) == fdp * int(row["R"])

    scree = read_csv(out / "scree.csv")
    by_kind = {}
    for row in scree:
        by_kind.setdefault(row["kind"], []).append(float(row["value"]))
    assert len(by_kind["sigma1"]) == 8
    assert len(by_kind["sigma2"]) == 25
    assert len(by_kind["kron"]) == 200
    kron = by_kind["kron"]
    assert all(a >= b for a, b in zip(kron, kron[1:]))


def test_analyze_sweep_default_step(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "13", "--out", str(data)]) == 0
    rc = main(
        ["analyze", "--data", str(data), "--method", "sandwich", "--sweep", "--out", str(out)]
    )
    assert rc == 0
    assert 0 < len(read_csv(out / "report.csv")) <= 200 // 25


@pytest.mark.parametrize(
    "change, what",
    [
        ({"converged": False}, "did not converge"),
        ({"used_fallback": True}, "fell back to the all-cell fit"),
    ],
)
def test_analyze_warns_when_the_trimmed_fit_did_not_end_cleanly(
    tmp_path, capsys, monkeypatch, change, what
):
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "13", "--out", str(data)]) == 0
    real, fits = noodle.trimmed_l1_fit, []

    def analyze(name):
        capsys.readouterr()
        out = tmp_path / name
        flags = ["--method", "sandwich", "--sweep", "--out", str(out)]
        assert main(["analyze", "--data", str(data), *flags]) == 0
        files = [(out / f).read_bytes() for f in ("report.csv", "scree.csv")]
        return capsys.readouterr().err, files

    # A normal run writes nothing on stderr.
    plain_err, plain_files = analyze("plain")
    assert plain_err == ""
    # A flagged fit adds one warning line with its C-step count; the exit
    # code and both output files stay the same.
    monkeypatch.setattr(
        noodle, "trimmed_l1_fit", lambda *a: fits.append(replace(real(*a), **change)) or fits[-1]
    )
    err, files = analyze("flagged")
    (fit,) = fits
    assert err == f"warning: trimmed fit {what} after {fit.iterations} C-steps\n"
    assert files == plain_files


def test_analyze_sweep_without_thresholds_exit_2(tmp_path, capsys):
    # A 4 x 5 matrix has 20 p-values, fewer than one sweep step of 25.
    data = tmp_path / "data"
    out = tmp_path / "out"
    small = ["--model", "1", "--p", "4", "--q", "5", "--n", "5", "--m", "5"]
    assert main(["gen-synthetic", *small, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(
        ["analyze", "--data", str(data), "--method", "noodle", "--sweep", "25", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "--sweep 25 selects no threshold" in err
    assert not out.exists()


def test_analyze_identical_groups_rejects_nothing(tmp_path):
    rng = np.random.default_rng(30)
    stack = rng.standard_normal((6, 8, 25))
    ds = TwoSampleDataset(treatment=stack, control=stack.copy())
    data = tmp_path / "data"
    out = tmp_path / "out"
    write_dataset(data, ds)

    rc = main(
        [
            "analyze", "--data", str(data), "--method", "sandwich",
            "--threshold", "0.1", "--out", str(out),
        ]
    )
    assert rc == 0
    row = read_csv(out / "report.csv")[0]
    assert int(row["R"]) == 0
    assert float(row["fdp_hat"]) == 0.0
    selected = np.loadtxt(out / "selected.csv", delimiter=",", dtype=int)
    assert not selected.any()


def test_analyze_constant_cell_exit_5(tmp_path, capsys):
    rng = np.random.default_rng(31)
    y = rng.standard_normal((6, 8, 25))
    z = rng.standard_normal((6, 8, 25))
    y[:, 2, 3] = 1.5
    z[:, 2, 3] = 1.5
    data = tmp_path / "data"
    write_dataset(data, TwoSampleDataset(treatment=y, control=z))

    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "(2, 3)" in err and "Traceback" not in err


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def test_simulate_tiny_trim_fraction_records_failures(tmp_path, capsys, monkeypatch):
    # floor(0.001 * 900) = 0 kept cells: the trimmed fit cannot run, so each
    # round records the noodle and sandwich failures and still scores pfa.
    monkeypatch.setattr("matfdp.trimreg.TRIM_FRACTION", 0.001)
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", "--model", "1", "--p", "30", "--q", "30", "--n", "10",
            "--m", "10", "--rounds", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
    # The summary reports the fraction the fit used.
    assert summary["config"]["trim_fraction"] == 0.001
    failed = sorted((f["round"], f["method"]) for f in summary["failures"])
    assert failed == [(1, "noodle"), (1, "sandwich"), (2, "noodle"), (2, "sandwich")]
    assert all("InvalidFactorCount" in f["error"] for f in summary["failures"])
    assert summary["methods"]["pfa"]["rounds"] == 2
    assert summary["methods"]["noodle"] == {"bias_percent": None, "sd_percent": None, "rounds": 0}
    rows = read_csv(out / "rounds.csv")
    assert [(r["round"], r["method"]) for r in rows] == [("1", "pfa"), ("2", "pfa")]


def _manifest_edit(change):
    """A case that rewrites the manifest as ``change(manifest)``; the manifest is blamed."""

    def apply(data):
        path = data / "manifest.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        return path

    return apply


def _not_json(data):
    path = data / "manifest.json"
    path.write_text("{not json")
    return path


def _missing_member(data):
    path = data / "control_002.csv"
    path.unlink()
    return path


def _nan_member(data):
    path = data / "treatment_001.csv"
    mat = np.loadtxt(path, delimiter=",")
    mat[3, 7] = np.nan
    np.savetxt(path, mat, delimiter=",")
    return path


@pytest.mark.parametrize(
    "edit",
    [
        _manifest_edit(lambda manifest: 5),
        _manifest_edit(lambda manifest: None),
        _manifest_edit(lambda manifest: {**manifest, "treatment": 7}),
        # Right length, so only the element type is wrong.
        _manifest_edit(
            lambda manifest: {**manifest, "treatment": [3, *manifest["treatment"][1:]]}
        ),
        _manifest_edit(lambda manifest: {**manifest, "schema_version": 2}),
        # Both compare equal to 1.
        _manifest_edit(lambda manifest: {**manifest, "schema_version": True}),
        _manifest_edit(lambda manifest: {**manifest, "schema_version": 1.0}),
        # No file is left after the first, so no share is dealt out.
        _manifest_edit(lambda manifest: {
            **manifest, "n": 1, "m": 0, "treatment": manifest["treatment"][:1], "control": [],
        }),
        # Well-formed, but the same observation twice.
        _manifest_edit(lambda manifest: {
            **manifest, "control": [manifest["control"][0], *manifest["control"][:-1]],
        }),
        _not_json,
        _manifest_edit(lambda manifest: {k: v for k, v in manifest.items() if k != "control"}),
        _manifest_edit(lambda manifest: {**manifest, "n": manifest["n"] + 1}),
        _manifest_edit(
            lambda manifest: {**manifest, "n": 0, "m": 0, "treatment": [], "control": []}
        ),
        _missing_member,
        _nan_member,
    ],
    ids=["number", "null", "treatment-number", "treatment-int-list", "foreign-schema",
         "schema-true", "schema-float", "single-member", "duplicate-member", "not-json",
         "missing-key", "size-mismatch", "no-member", "missing-member", "nan-member"],
)
def test_malformed_manifest_exit_3(tmp_path, capsys, edit):
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    blamed = edit(data)

    out = tmp_path / "out"
    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(out),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: malformed dataset")
    assert f"malformed dataset ({blamed}):" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda manifest, data: {**manifest, "p": manifest["p"] + 0.9},
        lambda manifest, data: {**manifest, "q": True},
        lambda manifest, data: {**manifest, "n": str(manifest["n"])},
        # Each name below names a readable, well-formed member file.
        lambda manifest, data: {
            **manifest,
            "treatment": [str(data / manifest["control"][0]), *manifest["treatment"][1:]],
        },
        lambda manifest, data: {
            **manifest,
            "treatment": [f"../data/{manifest['control'][0]}", *manifest["treatment"][1:]],
        },
        lambda manifest, data: {**manifest, "control": ["..", *manifest["control"][1:]]},
        lambda manifest, data: {**manifest, "control": ["", *manifest["control"][1:]]},
    ],
    ids=["float-dim", "bool-dim", "string-dim", "absolute-name", "parent-name", "dotdot",
         "empty-name"],
)
def test_untrusted_dataset_fields_exit_3(tmp_path, capsys, edit):
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    manifest = data / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()), data)))

    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: malformed dataset")
    assert f"malformed dataset ({manifest}):" in err


@pytest.mark.parametrize("value", [0, -1, 10**12])
@pytest.mark.parametrize("key", ["p", "q"])
def test_manifest_dimension_sizes_nothing(tmp_path, capsys, key, value):
    # The first member file must confirm (p, q) before the stacks are sized.
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    manifest_path = data / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest, key: value}))

    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: malformed dataset")
    assert f"malformed dataset ({data / manifest['treatment'][0]}):" in err


def test_unallocatable_stacks_exit_3(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    mapping = mmap.mmap

    def refuse_anonymous(fileno, *args, **kwargs):
        if fileno == -1:
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        return mapping(fileno, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", refuse_anonymous)
    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: malformed dataset")
    assert f"malformed dataset ({data / 'manifest.json'}): cannot allocate" in err
    assert not (tmp_path / "out").exists()


def test_read_holds_the_dataset_once(tmp_path):
    data = tmp_path / "data"
    flags = ["--model", "1", "--p", "40", "--q", "50", "--n", "15", "--m", "15"]
    assert main(["gen-synthetic", *flags, "--seed", "1", "--out", str(data)]) == 0
    read_dataset(data)
    tracemalloc.start()
    try:
        ds = read_dataset(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Both groups are views of one buffer that holds exactly the 30
    # matrices. It is a shared mapping, which tracemalloc does not see.
    buffers = []
    for group in (ds.treatment, ds.control):
        while isinstance(group, np.ndarray):
            group = group.base
        buffers.append(group)
    assert buffers[0] is buffers[1]
    assert memoryview(buffers[0]).nbytes == 30 * 40 * 50 * 8
    assert ds.treatment.ctypes.data + ds.treatment.nbytes == ds.control.ctypes.data
    # What the calling process allocates besides the buffer: numpy 2.4.6
    # measured 6.0 matrices, most of them np.loadtxt's own temporaries for
    # the first file. Stacking a list of the parsed matrices measured 30.8
    # matrices besides the 30 held.
    assert peak < 8 * (40 * 50 * 8)


def test_failed_read_names_the_first_bad_file_in_manifest_order(tmp_path, capsys):
    data = tmp_path / "data"
    flags = ["--model", "1", "--p", "8", "--q", "25", "--n", "10", "--m", "10"]
    assert main(["gen-synthetic", *flags, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    assert read_dataset(data).n == 10
    assert multiprocessing.active_children() == []
    for name in ("treatment_003.csv", "control_001.csv"):
        (data / name).write_text("1,x\n")

    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"malformed dataset ({data / 'treatment_003.csv'}):" in err
    assert "control_001" not in err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


@needs_two_cores
def test_parsers_exit_when_the_reader_is_killed(tmp_path):
    data = tmp_path / "data"
    flags = ["--model", "1", "--p", "8", "--q", "25", "--n", "10", "--m", "10"]
    assert main(["gen-synthetic", *flags, "--seed", "1", "--out", str(data)]) == 0
    starts = tmp_path / "starts"
    starts.mkdir()
    # Each parser process records every file it starts and takes 2 s over it;
    # the reader is killed while every parser is inside its first file.
    script = f"""
import os, time
from matfdp import datafiles, noodle
reader, read = os.getpid(), datafiles._read_matrix
def slow(path, p, q):
    if os.getpid() != reader:
        name = f"{{os.getpid()}} {{os.path.basename(path)}}"
        open(os.path.join({str(starts)!r}, name), "w").close()
        time.sleep(2)
    return read(path, p, q)
datafiles._read_matrix = slow
datafiles.read_dataset({str(data)!r})
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(matfdp.__file__))}
    # The reader parses one share itself; 19 files are left after the first.
    parsers = min(len(os.sched_getaffinity(0)), 19) - 1
    reader = subprocess.Popen([sys.executable, "-c", script], env=env)
    pids = set()
    try:
        deadline = time.monotonic() + 30
        while len(pids) < parsers and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = {int(name.split()[0]) for name in os.listdir(starts)}
        assert len(pids) == parsers
        reader.kill()
        reader.wait(timeout=10)

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
        # Each parser finished the file it was in and started no other.
        assert len(os.listdir(starts)) == parsers
    finally:
        reader.kill()
        reader.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


@needs_two_cores
def test_killed_parser_costs_only_time(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    flags = ["--model", "1", "--p", "8", "--q", "25", "--n", "10", "--m", "10"]
    assert main(["gen-synthetic", *flags, "--seed", "1", "--out", str(data)]) == 0
    analyze = ["analyze", "--data", str(data), "--method", "noodle", "--threshold", "0.1"]
    assert main([*analyze, "--out", str(tmp_path / "expected")]) == 0
    killed = tmp_path / "killed"
    killed.mkdir()
    reader, read = os.getpid(), datafiles._read_matrix

    def die_in_a_parser(path, p, q):
        if os.getpid() != reader:
            (killed / str(os.getpid())).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return read(path, p, q)

    monkeypatch.setattr(datafiles, "_read_matrix", die_in_a_parser)
    assert main([*analyze, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    # Every parser died at its first file; the reader parsed what they left.
    assert len(os.listdir(killed)) == min(len(os.sched_getaffinity(0)), 19) - 1
    for name in ("report.csv", "selected.csv"):
        expected = (tmp_path / "expected" / name).read_bytes()
        assert (tmp_path / "out" / name).read_bytes() == expected
    assert multiprocessing.active_children() == []


def test_usable_cores_without_an_affinity_call(monkeypatch):
    # Where os has no sched_getaffinity, the CPU count decides; 1 if unknown.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert datafiles._usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert datafiles._usable_cores() == 1


def test_parsers_leave_the_reader_only_its_share(tmp_path, capsys, monkeypatch):
    # More parsers than cores. A parser that failed would still give the right
    # stack, because the reader parses what is left, so count the reader's reads.
    data = tmp_path / "data"
    flags = ["--model", "1", "--p", "8", "--q", "25", "--n", "10", "--m", "10"]
    assert main(["gen-synthetic", *flags, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(datafiles, "_usable_cores", lambda: 1)
    expected = read_dataset(data)
    reader, read, in_reader = os.getpid(), datafiles._read_matrix, []

    def count_reader_reads(path, p, q):
        if os.getpid() == reader:
            in_reader.append(os.path.basename(path))
        return read(path, p, q)

    monkeypatch.setattr(datafiles, "_read_matrix", count_reader_reads)
    monkeypatch.setattr(datafiles, "_usable_cores", lambda: 8)
    ds = read_dataset(data)
    assert np.array_equal(ds.treatment, expected.treatment)
    assert np.array_equal(ds.control, expected.control)
    # The first file, then share 0 of 8: slots 1, 9 and 17.
    assert in_reader == ["treatment_000.csv", "treatment_001.csv", "treatment_009.csv",
                         "control_007.csv"]
    assert multiprocessing.active_children() == []


def test_one_usable_core_forks_no_parser(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    expected = read_dataset(data)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    forked = AssertionError("read_dataset forked")
    refused = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    # One usable core; 64 usable cores on a platform without fork; 64 usable
    # cores where every fork is refused, as under a process-count limit.
    for cores, methods, fork_error in (
        ({0}, ["fork", "spawn"], forked),
        (set(range(64)), ["spawn"], forked),
        (set(range(64)), ["fork", "spawn"], refused),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
            patch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
            patch.setattr(os, "fork", _raise(fork_error))
            if fork_error is forked:
                patch.setattr(
                    multiprocessing.process.BaseProcess, "start",
                    _raise(AssertionError("read_dataset started a process")),
                )
            ds = read_dataset(data)
        assert np.array_equal(ds.treatment, expected.treatment)
        assert np.array_equal(ds.control, expected.control)
        assert multiprocessing.active_children() == []


def blocked_outs(tmp_path):
    """``--out`` paths that cannot become directories: below a file, and dangling links."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "missing")
    return blocker / "sub", dangling, dangling / "sub"


def test_simulate_checks_out_before_running(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("run_experiment reached with an unwritable --out")

    monkeypatch.setattr("matfdp.cli.run_experiment", unreachable)
    for out in blocked_outs(tmp_path):
        rc = main(["simulate", *GEN_FLAGS, "--rounds", "2", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: cannot write output")
        # Flags are checked before --out.
        for bad in (["--rounds", "2", "--t", "2"], ["--rounds", "0"]):
            assert main(["simulate", *GEN_FLAGS, *bad, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert "cannot write output" not in err


def test_simulate_bad_threshold_leaves_no_out(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", *GEN_FLAGS, "--rounds", "2", "--t", "2", "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_gen_synthetic_checks_out_before_generating(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("gen_round reached with an unwritable --out")

    monkeypatch.setattr("matfdp.cli.gen_round", unreachable)
    for out in blocked_outs(tmp_path):
        rc = main(["gen-synthetic", *GEN_FLAGS, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: cannot write output")


def test_analyze_checks_out_before_reading(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("read_dataset reached with an unwritable --out")

    monkeypatch.setattr("matfdp.cli.read_dataset", unreachable)
    for out in (tmp_path / "blocker", *blocked_outs(tmp_path)):
        rc = main(
            ["analyze", "--data", str(tmp_path), "--method", "noodle", "--threshold", "0.1",
             "--out", str(out)]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: cannot write output")


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_setup_failure_exit_5(tmp_path, capsys, monkeypatch):
    for exc in (NotPsd("drawn sigma1"), MemoryError("Unable to allocate 298. GiB")):
        monkeypatch.setattr("matfdp.simlab.gen_correlations", _raise(exc))
        out = tmp_path / "sim"
        rc = main(["simulate", *GEN_FLAGS, "--rounds", "2", "--out", str(out)])
        assert rc == 5, exc
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(exc) in err
        assert not out.exists()


def test_linalg_error_in_analyze_exit_5(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        "matfdp.cli.estimate_correlations",
        _raise(np.linalg.LinAlgError("Eigenvalues did not converge")),
    )
    rc = main(
        [
            "analyze", "--data", str(data), "--method", "sandwich",
            "--threshold", "0.1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "did not converge" in err


@pytest.mark.parametrize(
    "mode", [["--threshold", "0.05"], ["--sweep", "10"]], ids=["fixed", "sweep"]
)
@pytest.mark.parametrize(
    "method, fit, select, fdp",
    [
        ("noodle", fit_noodle, build_noodle_loadings, fdp_noodle),
        ("sandwich", fit_sandwich, build_sandwich_loadings, fdp_sandwich),
    ],
    ids=["noodle", "sandwich"],
)
def test_analyze_matches_library(tmp_path, mode, method, fit, select, fdp):
    # At seed 14 noodle keeps 2 pairs and sandwich a 2 x 2 grid, so the two differ.
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "14", "--out", str(data)]) == 0
    rc = main(["analyze", "--data", str(data), "--method", method, *mode, "--out", str(out)])
    assert rc == 0

    ds = read_dataset(data)
    x = test_matrix(ds)
    pv = p_values(x)
    factor_fit = fit(x, select(estimate_correlations(ds, x.sigma_hat)), estimator="trimmed_l1")
    rows = read_csv(out / "report.csv")
    assert rows
    for row in rows:
        t = float(row["t"])
        rej = rejection_count(pv, t)
        assert int(row["R"]) == rej
        assert float(row["fdp_hat"]) == min(fdp(factor_fit, rej, t), 1.0)
