"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

from matfdp.cli import main
from matfdp.covfactor import (
    build_noodle_loadings,
    build_sandwich_loadings,
    estimate_correlations,
)
from matfdp.datafiles import read_dataset, write_dataset
from matfdp.errors import NotPsd
from matfdp.noodle import fdp_noodle, fit_noodle
from matfdp.rng import derive_rng
from matfdp.sandwich import fdp_sandwich, fit_sandwich
from matfdp.simlab import gen_correlations, gen_round, preset_spec, run_experiment
from matfdp.teststats import TwoSampleDataset, p_values, rejection_count, test_matrix

GEN_FLAGS = ["--model", "1", "--p", "8", "--q", "25", "--n", "6", "--m", "6"]


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
    spec = preset_spec(1, "a", p=10, q=10, n=10, m=10, signal_rows=8, signal_cols=10)
    s1, s2 = gen_correlations(spec, derive_rng(0, 0, 0))
    ds, _ = gen_round(spec, s1, s2, derive_rng(0, 1, 1))
    written = read_dataset(str(gen))
    assert np.array_equal(written.treatment, ds.treatment)
    assert np.array_equal(written.control, ds.control)


def test_bad_flags_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x")
    cases = [
        ["simulate", *GEN_FLAGS, "--t", "1.5", "--out", out],
        ["simulate", *GEN_FLAGS, "--rounds", "0", "--out", out],
        ["simulate", *GEN_FLAGS, "--methods", "ols", "--out", out],
        ["simulate", *GEN_FLAGS, "--trim-fraction", "0", "--out", out],
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
    victim.write_text("not,a,number\n")
    rc = main(
        [
            "analyze", "--data", str(data), "--method", "noodle",
            "--threshold", "0.1", "--out", str(out),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "malformed dataset" in err
    assert "control_002.csv" in err


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


def test_simulate_tiny_trim_fraction_records_failures(tmp_path, capsys):
    # floor(0.001 * 900) = 0 kept cells: the trimmed fit cannot run, so each
    # round records the noodle and sandwich failures and still scores pfa.
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", "--model", "1", "--p", "30", "--q", "30", "--n", "10",
            "--m", "10", "--rounds", "2", "--trim-fraction", "0.001",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
    failed = sorted((f["round"], f["method"]) for f in summary["failures"])
    assert failed == [(1, "noodle"), (1, "sandwich"), (2, "noodle"), (2, "sandwich")]
    assert all("InvalidFactorCount" in f["error"] for f in summary["failures"])
    assert summary["methods"]["pfa"]["rounds"] == 2
    assert summary["methods"]["noodle"] == {"bias_percent": None, "sd_percent": None, "rounds": 0}
    rows = read_csv(out / "rounds.csv")
    assert [(r["round"], r["method"]) for r in rows] == [("1", "pfa"), ("2", "pfa")]


@pytest.mark.parametrize(
    "edit",
    [
        lambda manifest: 5,
        lambda manifest: None,
        lambda manifest: {**manifest, "treatment": 7},
        # Right length, so only the element type is wrong.
        lambda manifest: {**manifest, "treatment": [3, *manifest["treatment"][1:]]},
    ],
    ids=["number", "null", "treatment-number", "treatment-int-list"],
)
def test_malformed_manifest_exit_3(tmp_path, capsys, edit):
    data = tmp_path / "data"
    assert main(["gen-synthetic", *GEN_FLAGS, "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    manifest = data / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))

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


def test_simulate_checks_out_before_running(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("run_experiment reached with an unwritable --out")

    monkeypatch.setattr("matfdp.cli.run_experiment", unreachable)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["simulate", *GEN_FLAGS, "--rounds", "2", "--out", str(blocker / "sub")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot write output")


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_setup_failure_exit_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("matfdp.simlab.gen_correlations", _raise(NotPsd("drawn sigma1")))
    rc = main(["simulate", *GEN_FLAGS, "--rounds", "2", "--out", str(tmp_path / "sim")])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "drawn sigma1" in err


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


@pytest.mark.parametrize("value", ["x", "0"])
def test_bad_thread_count_exit_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("MATFDP_THREADS", value)
    rc = main(["simulate", *GEN_FLAGS, "--rounds", "2", "--out", str(tmp_path / "sim")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "MATFDP_THREADS" in err


def test_bad_thread_count_does_not_create_out(tmp_path, monkeypatch):
    monkeypatch.setenv("MATFDP_THREADS", "x")
    out = tmp_path / "sim"
    assert main(["simulate", *GEN_FLAGS, "--rounds", "2", "--out", str(out)]) == 2
    assert not out.exists()


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
