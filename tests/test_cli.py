"""End-to-end tests of the command-line interface.

Each output file is checked once, exactly, against the library call it
reports.  The rules of a dataset directory are checked at ``read_dataset``
in ``tests/test_datafiles.py``; here ``analyze`` only has to map each refusal
to exit 3.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import matfdp
from matfdp import noodle, trimreg
from matfdp.cli import main
from matfdp.covfactor import (
    build_noodle_loadings,
    build_sandwich_loadings,
    estimate_correlations,
)
from matfdp.datafiles import read_dataset, write_dataset
from matfdp.errors import DatasetFormatError, DegenerateVariance, NotPsd
from matfdp.linalg import kron_eigenpairs
from matfdp.noodle import fdp_noodle, fit_noodle
from matfdp.rng import derive_rng
from matfdp.sandwich import fdp_sandwich, fit_sandwich
from matfdp.simlab import (
    METHODS,
    MethodSummary,
    RoundFailure,
    gen_correlations,
    gen_round,
    preset_spec,
    run_experiment,
)
from matfdp.teststats import TwoSampleDataset, p_values, rejection_count, test_matrix

from helpers import DATASET_FAULTS, failing, write_small_dataset

GEN_FLAGS = ["--model", "1", "--p", "8", "--q", "25", "--n", "6", "--m", "6"]

# Model flags of gen-synthetic and simulate, with the spec they select.
MODEL_RUNS = {
    "model-1": (GEN_FLAGS, preset_spec(1, "a", p=8, q=25, n=6, m=6)),
    # The default 8 x 25 signal block is cut to the 10 x 10 matrix.
    "cut-block": (
        ["--model", "1", "--p", "10", "--q", "10", "--n", "10", "--m", "10"],
        preset_spec(1, "a", p=10, q=10, n=10, m=10),
    ),
    "model-3-t6": (
        ["--model", "3", "--w-dist", "scaled_t6", *GEN_FLAGS[2:]],
        preset_spec(3, "a", w_dist="scaled_t6", p=8, q=25, n=6, m=6),
    ),
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def seed_14(tmp_path_factory):
    """The analyze tests' dataset; at seed 14 noodle keeps 2 pairs and sandwich a 2 x 2 grid."""
    data = tmp_path_factory.mktemp("seed-14")
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "14", "--out", str(data)]) == 0
    return data


@pytest.mark.parametrize("run", MODEL_RUNS)
def test_gen_synthetic_writes_simulate_round_one(tmp_path, run):
    # Two runs write the same bytes, which hold round 1 of the matching simulate.
    flags, spec = MODEL_RUNS[run]
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["gen-synthetic", *flags, "--seed", "21", "--out", str(out)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    assert all((first / name).read_bytes() == (second / name).read_bytes() for name in names)
    sigma1, sigma2 = gen_correlations(spec, derive_rng(21, 0, 0))
    expected, _ = gen_round(spec, sigma1, sigma2, derive_rng(21, 1, 1))
    ds = read_dataset(first)
    np.testing.assert_array_equal(ds.treatment, expected.treatment)
    np.testing.assert_array_equal(ds.control, expected.control)


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def check_simulate(tmp_path, flags, spec, **call):
    """``simulate flags`` writes exactly what ``run_experiment(spec, **call)`` returns.

    ``summary.json`` must be strict JSON: ``null``, never ``NaN``.  Returns
    the library's result.
    """
    out = tmp_path / "sim"
    assert main(["simulate", *flags, "--out", str(out)]) == 0
    call = {"methods": METHODS, "estimator": "trimmed_l1", **call}
    result = run_experiment(spec, **call)
    # 17-significant-digit output must round-trip bit for bit.
    rows = [
        (int(row["round"]), row["method"], float(row["fdp_hat"]), float(row["fdp_true"]),
         int(row["R"]))
        for row in read_csv(out / "rounds.csv")
    ]
    assert rows == [dataclasses.astuple(rec) for rec in result.records]
    config = {
        **dataclasses.asdict(spec), "command": "simulate", "setting": "a",
        "w_dist": spec.w_dist if spec.model == 3 else None, "t": call["threshold"],
        "rounds": call["rounds"], "seed": call["seed"], "methods": list(call["methods"]),
        "estimator": call["estimator"], "trim_fraction": trimreg.TRIM_FRACTION,
    }
    summary = {
        "schema_version": 1, "config": config,
        "methods": {name: dataclasses.asdict(s) for name, s in result.summaries.items()},
        "failures": [
            {"round": f.round_index, "method": f.method, "error": f.error} for f in result.failures
        ],
    }
    written = json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
    assert written == json.loads(json.dumps(summary))
    return result


@pytest.mark.parametrize(
    "run, flags, call",
    [
        ("model-1", ["--seed", "7", "--t", "0.05", "--rounds", "3"],
         dict(threshold=0.05, rounds=3, seed=7)),
        ("model-1", ["--seed", "3", "--t", "0.1", "--rounds", "2", "--methods", "pfa"],
         dict(threshold=0.1, rounds=2, seed=3, methods=("pfa",))),
        ("cut-block", ["--rounds", "1", "--estimator", "ls"],
         dict(threshold=0.001, rounds=1, seed=0, estimator="least_squares")),
        ("model-3-t6", ["--seed", "4", "--rounds", "1", "--methods", "pfa"],
         dict(threshold=0.001, rounds=1, seed=4, methods=("pfa",))),
    ],
    ids=["all-methods", "pfa-only", "cut-block-ls", "model-3-t6"],
)
def test_simulate_matches_library(tmp_path, run, flags, call):
    model_flags, spec = MODEL_RUNS[run]
    assert check_simulate(tmp_path, [*model_flags, *flags], spec, **call).failures == []


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
    flags = [*GEN_FLAGS, "--seed", "7", "--t", "0.05", "--rounds", "3"]
    result = check_simulate(tmp_path, flags, spec, threshold=0.05, rounds=3, seed=7)
    assert result.failures == [RoundFailure(2, "", repr(DegenerateVariance(0, 1)))]
    assert result.records == [rec for rec in plain.records if rec.round_index != 2]
    assert all(s.rounds == 2 for s in result.summaries.values())


def blocked_outs(tmp_path):
    """Blocked ``--out`` paths: a file, a path below it, a dangling link, a path below that."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "missing")
    return blocker, blocker / "sub", dangling, dangling / "sub"


def check_refused_flags(tmp_path, capsys, monkeypatch, *cases):
    """Each ``(argv, error)`` exits 2 with one ``error`` line, whatever its ``--out``.

    Flags are checked before --out and before any draw or read, so a blocked
    --out still exits 2 and the free one, ``tmp_path / "x"``, is never made.
    """
    monkeypatch.setattr("matfdp.simlab.gen_correlations", failing(AssertionError("drew data")))
    monkeypatch.setattr("matfdp.cli.read_dataset", failing(AssertionError("read the data")))
    free = tmp_path / "x"
    outs = (free, *blocked_outs(tmp_path))
    for argv, error in cases:
        for out in outs:
            assert main([*argv, "--out", str(out)]) == 2, argv
            err = capsys.readouterr().err
            # One error line; argparse prints its usage above it.
            assert err.endswith("\n") and err.splitlines()[-1].startswith(error), err
            assert err.count("\n") == 1 or err.startswith("usage: "), err
            assert not free.exists()


def test_bad_flags_exit_2(tmp_path, capsys, monkeypatch):
    analyze = ["analyze", "--data", str(tmp_path / "x"), "--method", "noodle"]
    check_refused_flags(
        tmp_path, capsys, monkeypatch,
        (["simulate", *GEN_FLAGS, "--rounds", "0"], "error: rounds must be an integer"),
        (["simulate", *GEN_FLAGS, "--methods", "ols"], "error: unknown methods"),
        (["simulate", "--model", "1", "--setting", "z"], "error: unknown setting 'z'"),
        (["simulate"], "matfdp simulate: error: the following arguments are required"),
        ([*analyze, "--threshold", "0"], "error: threshold must be in (0, 1)"),
        ([*analyze, "--sweep", "0"], "error: --sweep must be >= 1"),
        (analyze, "matfdp analyze: error: one of the arguments --threshold --sweep"),
    )


def test_simulate_refuses_rounds_without_a_stream(tmp_path, capsys, monkeypatch):
    # derive_rng has no round 2**32, and the round pool would queue one
    # future per round before running any.
    check_refused_flags(
        tmp_path, capsys, monkeypatch,
        (["simulate", *GEN_FLAGS, "--rounds", str(2**32)], "error: rounds must be an integer"),
    )


def test_simulate_refuses_repeated_methods(tmp_path, capsys, monkeypatch):
    check_refused_flags(
        tmp_path, capsys, monkeypatch,
        (["simulate", *GEN_FLAGS, "--methods", "pfa,pfa"], "error: methods must not repeat"),
    )


def test_simulate_bad_threshold_leaves_no_out(tmp_path, capsys, monkeypatch):
    check_refused_flags(
        tmp_path, capsys, monkeypatch,
        (["simulate", *GEN_FLAGS, "--t", "1.5"], "error: threshold must be in (0, 1)"),
    )


NOODLE_AT = ["--method", "noodle", "--threshold", "0.1"]


def analyze(data, out, *flags):
    """``analyze --data data ... --out out``; returns the exit code."""
    return main(["analyze", "--data", str(data), *flags, "--out", str(out)])


def read_error(data):
    """What ``analyze`` must print on ``data``: ``read_dataset``'s refusal, on one line."""
    with pytest.raises(DatasetFormatError) as refused:
        read_dataset(data)
    return f"error: malformed dataset ({refused.value.path}): {refused.value}\n"


@pytest.fixture
def exits_3(tmp_path, capsys, monkeypatch):
    """Check that ``analyze`` exits 3 on each named fault and prints ``read_dataset``'s error.

    The faults are rows of ``helpers.DATASET_FAULTS``, whose rules
    ``tests/test_datafiles.py`` checks.  No ``--out`` and no parser process
    may be left.
    """
    out = tmp_path / "out"

    def check(*faults):
        for fault in faults:
            data = write_small_dataset(tmp_path / fault / "data")
            with monkeypatch.context() as patch:
                DATASET_FAULTS[fault][0](data, patch)
                assert analyze(data, out, *NOODLE_AT) == 3, fault
                assert capsys.readouterr().err == read_error(data)
            assert not out.exists()
            assert multiprocessing.active_children() == []

    return check


def test_malformed_dataset_exit_3(tmp_path, exits_3):
    # A FIFO would block np.loadtxt until some writer opened it, so analyze
    # runs on it in a process with a timeout: a regression then fails instead
    # of hanging.  The member faults run here while that process starts.
    data = write_small_dataset(tmp_path / "fifo")
    victim = data / "control_002.csv"
    victim.unlink()
    os.mkfifo(victim)
    out = tmp_path / "fifo-out"
    argv = ["analyze", "--data", str(data), *NOODLE_AT, "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(matfdp.__file__))}
    with subprocess.Popen([sys.executable, "-m", "matfdp.cli", *argv], env=env, text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as run:
        try:
            exits_3("not-a-number", "empty-file", "blank-lines", "comment-only",
                    "directory-member")
            err = run.communicate(timeout=60)[1]
        finally:
            run.kill()
            try:  # Let a process left blocked on the FIFO see its end.
                os.close(os.open(victim, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass  # Nothing has it open for reading.
    assert run.returncode == 3
    # That run did not block, so neither does the read here.
    assert err == read_error(data)
    assert not out.exists()


def test_missing_manifest_exit_3(exits_3):
    exits_3("missing-manifest")


@pytest.mark.parametrize(
    "fault",
    "number null treatment-number treatment-int-list foreign-schema schema-true schema-float "
    "single-member duplicate-member not-json missing-key size-mismatch no-member missing-member "
    "nan-member".split(),
)
def test_malformed_manifest_exit_3(exits_3, fault):
    exits_3(fault)


@pytest.mark.parametrize(
    "fault", "float-dim bool-dim string-dim absolute-name parent-name dotdot empty-name".split()
)
def test_untrusted_dataset_fields_exit_3(exits_3, fault):
    exits_3(fault)


@pytest.mark.parametrize("fault", "p-0 p--1 p-1000000000000 q-0 q--1 q-1000000000000".split())
def test_manifest_dimension_sizes_nothing(exits_3, fault):
    exits_3(fault)


def test_unallocatable_stacks_exit_3(exits_3):
    exits_3("unallocatable")


def test_failed_read_names_the_first_bad_file_in_manifest_order(exits_3):
    exits_3("first-bad-file")


# One run of each command that writes --out; --out is appended.
OUT_RUNS = {
    "simulate": ["simulate", *GEN_FLAGS, "--rounds", "2"],
    "gen-synthetic": ["gen-synthetic", *GEN_FLAGS],
    "analyze": ["analyze", "--data", "data", "--method", "noodle", "--threshold", "0.1"],
}


def no_first_draw_or_read(monkeypatch):
    """Make every command's first draw or read fail if it is reached."""
    for name in ("run_experiment", "gen_correlations", "gen_round", "read_dataset"):
        monkeypatch.setattr(f"matfdp.cli.{name}", failing(AssertionError(f"{name} reached")))


def check_blocked_outs_exit_4(tmp_path, capsys, monkeypatch, argv):
    """``argv`` exits 4 at each blocked ``--out``, naming it, before any draw or read."""
    no_first_draw_or_read(monkeypatch)
    blocker, below_file, dangling, below_link = blocked_outs(tmp_path)
    heads = {blocker: blocker, below_file: blocker, dangling: dangling, below_link: dangling}
    for out, head in heads.items():
        assert main([*argv, "--out", str(out)]) == 4, out
        err = capsys.readouterr().err
        assert err == f"error: cannot write output: {head} is not a writable directory\n"


def test_simulate_checks_out_before_running(tmp_path, capsys, monkeypatch):
    check_blocked_outs_exit_4(tmp_path, capsys, monkeypatch, OUT_RUNS["simulate"])


def test_gen_synthetic_checks_out_before_generating(tmp_path, capsys, monkeypatch):
    check_blocked_outs_exit_4(tmp_path, capsys, monkeypatch, OUT_RUNS["gen-synthetic"])


def test_analyze_checks_out_before_reading(tmp_path, capsys, monkeypatch):
    check_blocked_outs_exit_4(tmp_path, capsys, monkeypatch, OUT_RUNS["analyze"])


def test_unwritable_out_exit_4(tmp_path, capsys, monkeypatch):
    # An existing directory the user may not write, for every command. Under
    # root os.access is always true, so a chmod cannot show this case.
    no_first_draw_or_read(monkeypatch)
    kept = tmp_path / "kept"
    kept.mkdir()
    for argv in OUT_RUNS.values():
        with monkeypatch.context() as patch:
            patch.setattr(os, "access", lambda *args, **kwargs: False)
            assert main([*argv, "--out", str(kept / "sub")]) == 4, argv
        err = capsys.readouterr().err
        assert err == f"error: cannot write output: {kept} is not a writable directory\n"
        assert not any(kept.iterdir())


def test_out_dir_probe_keeps_existing_files(tmp_path, capsys):
    # The writability probe must not touch a file the user already keeps in --out.
    data = write_small_dataset(tmp_path / "data")
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


@pytest.mark.parametrize(
    "change, what",
    [
        ({"converged": False}, "did not converge"),
        ({"used_fallback": True}, "fell back to the all-cell fit"),
    ],
)
def test_analyze_warns_when_the_trimmed_fit_did_not_end_cleanly(
    tmp_path, capsys, monkeypatch, seed_14, change, what
):
    real, fits = noodle.trimmed_l1_fit, []

    def run(name):
        capsys.readouterr()
        assert analyze(seed_14, tmp_path / name, "--method", "sandwich", "--sweep") == 0
        files = [(tmp_path / name / f).read_bytes() for f in ("report.csv", "scree.csv")]
        return capsys.readouterr().err, files

    # A normal run writes nothing on stderr.
    plain_err, plain_files = run("plain")
    assert plain_err == ""
    # A flagged fit adds one warning line with its C-step count; the exit
    # code and both output files stay the same.
    monkeypatch.setattr(
        noodle, "trimmed_l1_fit",
        lambda *a: fits.append(dataclasses.replace(real(*a), **change)) or fits[-1],
    )
    err, files = run("flagged")
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
    assert analyze(data, out, "--method", "noodle", "--sweep", "25") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "--sweep 25 selects no threshold" in err
    assert not out.exists()


def test_analyze_identical_groups_rejects_nothing(tmp_path):
    stack = np.random.default_rng(30).standard_normal((6, 8, 25))
    data, out = tmp_path / "data", tmp_path / "out"
    write_dataset(data, TwoSampleDataset(treatment=stack, control=stack.copy()))
    assert analyze(data, out, "--method", "sandwich", "--threshold", "0.1") == 0
    row = read_csv(out / "report.csv")[0]
    assert (int(row["R"]), float(row["fdp_hat"])) == (0, 0.0)
    assert not np.loadtxt(out / "selected.csv", delimiter=",", dtype=int).any()


def test_analyze_constant_cell_exit_5(tmp_path, capsys):
    rng = np.random.default_rng(31)
    y = rng.standard_normal((6, 8, 25))
    z = rng.standard_normal((6, 8, 25))
    y[:, 2, 3] = 1.5
    z[:, 2, 3] = 1.5
    write_dataset(tmp_path / "data", TwoSampleDataset(treatment=y, control=z))
    assert analyze(tmp_path / "data", tmp_path / "out", *NOODLE_AT) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "(2, 3)" in err and "Traceback" not in err


def test_simulate_tiny_trim_fraction_records_failures(tmp_path, capsys, monkeypatch):
    # floor(0.001 * 900) = 0 kept cells: the trimmed fit cannot run, so each
    # round records the noodle and sandwich failures and still scores pfa.
    monkeypatch.setattr("matfdp.trimreg.TRIM_FRACTION", 0.001)
    flags = ["--model", "1", "--p", "30", "--q", "30", "--n", "10", "--m", "10", "--rounds", "2"]
    spec = preset_spec(1, "a", p=30, q=30, n=10, m=10)
    # The summary reports the fraction the fit used.
    result = check_simulate(tmp_path, flags, spec, threshold=0.001, rounds=2, seed=0)
    assert "Traceback" not in capsys.readouterr().err
    failed = [(f.round_index, f.method) for f in result.failures]
    assert failed == [(1, "noodle"), (1, "sandwich"), (2, "noodle"), (2, "sandwich")]
    assert all("InvalidFactorCount" in f.error for f in result.failures)
    assert [(rec.round_index, rec.method) for rec in result.records] == [(1, "pfa"), (2, "pfa")]
    assert result.summaries["pfa"].rounds == 2
    assert result.summaries["noodle"] == MethodSummary(None, None, 0)


def test_setup_failure_exit_5(tmp_path, capsys, monkeypatch):
    for exc in (NotPsd("drawn sigma1"), MemoryError("Unable to allocate 298. GiB")):
        monkeypatch.setattr("matfdp.simlab.gen_correlations", failing(exc))
        out = tmp_path / "sim"
        rc = main(["simulate", *GEN_FLAGS, "--rounds", "2", "--out", str(out)])
        assert rc == 5, exc
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(exc) in err
        assert not out.exists()


def test_linalg_error_in_analyze_exit_5(tmp_path, capsys, monkeypatch):
    data = write_small_dataset(tmp_path / "data")
    monkeypatch.setattr(
        "matfdp.cli.estimate_correlations",
        failing(np.linalg.LinAlgError("Eigenvalues did not converge")),
    )
    assert analyze(data, tmp_path / "out", "--method", "sandwich", "--threshold", "0.1") == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "did not converge" in err


@pytest.mark.parametrize(
    "mode", [["--threshold", "0.05"], ["--sweep", "10"], ["--sweep"]],
    ids=["fixed", "sweep", "default-sweep"],
)
@pytest.mark.parametrize(
    "method, fit, select, fdp",
    [
        ("noodle", fit_noodle, build_noodle_loadings, fdp_noodle),
        ("sandwich", fit_sandwich, build_sandwich_loadings, fdp_sandwich),
    ],
    ids=["noodle", "sandwich"],
)
def test_analyze_matches_library(tmp_path, seed_14, mode, method, fit, select, fdp):
    out = tmp_path / "out"
    assert analyze(seed_14, out, "--method", method, *mode) == 0

    ds = read_dataset(seed_14)
    x = test_matrix(ds)
    pv = p_values(x)
    ce = estimate_correlations(ds, x.sigma_hat)
    factor_fit = fit(x, select(ce), estimator="trimmed_l1")
    rows = read_csv(out / "report.csv")
    thresholds = [float(row["t"]) for row in rows]
    if mode[0] == "--threshold":
        assert sorted(os.listdir(out)) == ["report.csv", "selected.csv"]
        assert thresholds == [float(mode[1])]
        selected = np.loadtxt(out / "selected.csv", delimiter=",", dtype=int)
        np.testing.assert_array_equal(selected, pv <= thresholds[0])
    else:
        assert sorted(os.listdir(out)) == ["report.csv", "scree.csv"]
        # Every step-th sorted p-value (25 by default), strictly increasing in (0, 1).
        step = int(mode[1]) if len(mode) > 1 else 25
        assert thresholds == list(np.sort(pv, axis=None)[step - 1::step])
        assert 0.0 < thresholds[0] and thresholds[-1] < 1.0
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        kron = kron_eigenpairs(ce.eig1, ce.eig2)
        spectra = (("sigma1", ce.eig1.values), ("sigma2", ce.eig2.values), ("kron", kron.values))
        assert [
            (row["kind"], int(row["rank"]), float(row["value"]))
            for row in read_csv(out / "scree.csv")
        ] == [
            (kind, rank, value)
            for kind, values in spectra
            for rank, value in enumerate(values, start=1)
        ]
    for row, t in zip(rows, thresholds):
        rej = rejection_count(pv, t)
        fdp_hat = min(fdp(factor_fit, rej, t), 1.0)
        assert int(row["R"]) == rej
        assert float(row["fdp_hat"]) == fdp_hat
        assert float(row["estimated_false"]) == fdp_hat * rej
