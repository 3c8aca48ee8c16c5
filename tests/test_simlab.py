"""Tests for the simulation experiments."""

from __future__ import annotations

import os
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from matfdp import simlab
from matfdp.errors import InvalidMatrix, NotPsd
from matfdp.linalg import symmetric_sqrt
from matfdp.simlab import (
    METHODS,
    ModelSpec,
    _draw_noise_entries,
    _RoundGenerator,
    check_experiment,
    gen_correlations,
    gen_round,
    preset_spec,
    run_experiment,
)
from matfdp.rng import derive_rng


def test_model2_zero_rank_gives_power_decay():
    spec = ModelSpec(
        model=2, p=5, q=4, n=6, m=6, l1=0, l2=0, rho1=0.5, rho2=0.3,
        signal_rows=2, signal_cols=2,
    )
    sigma1, sigma2 = gen_correlations(spec, np.random.default_rng(0))
    idx = np.arange(5)
    expected1 = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    idx = np.arange(4)
    expected2 = 0.3 ** np.abs(idx[:, None] - idx[None, :])
    np.testing.assert_allclose(sigma1, expected1, atol=1e-12)
    np.testing.assert_allclose(sigma2, expected2, atol=1e-12)
    assert sigma1[0, 2] == pytest.approx(0.25, abs=1e-12)


def test_model2_zero_rank_zero_rho_is_identity():
    spec = ModelSpec(
        model=2, p=4, q=4, n=6, m=6, l1=0, l2=0, rho1=0.0, rho2=0.0,
        signal_rows=2, signal_cols=2,
    )
    sigma1, sigma2 = gen_correlations(spec, np.random.default_rng(1))
    np.testing.assert_allclose(sigma1, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(sigma2, np.eye(4), atol=1e-12)


def test_gen_correlations_unit_diagonal_and_psd():
    specs = [
        preset_spec(1, "a", p=7, q=6, n=6, m=6, signal_rows=2, signal_cols=2),
        preset_spec(2, "b", p=7, q=6, n=6, m=6, signal_rows=2, signal_cols=2),
        preset_spec(3, "d", p=7, q=6, n=6, m=6, signal_rows=2, signal_cols=2),
    ]
    for i, spec in enumerate(specs):
        sigma1, sigma2 = gen_correlations(spec, np.random.default_rng(10 + i))
        for sigma in (sigma1, sigma2):
            np.testing.assert_allclose(np.diag(sigma), 1.0, atol=1e-12)
            np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
            assert np.linalg.eigvalsh(sigma).min() > -1e-10


def test_signal_mask_marks_block():
    spec = ModelSpec(
        model=1, p=10, q=10, n=6, m=6, l1=2, l2=2,
        signal_rows=2, signal_cols=3, signal_amplitude=1.0,
    )
    sigma1, sigma2 = gen_correlations(spec, np.random.default_rng(2))
    _, mask = gen_round(spec, sigma1, sigma2, np.random.default_rng(3))
    assert mask.shape == (10, 10)
    assert int(np.count_nonzero(~mask)) == 6
    assert not mask[:2, :3].any()
    assert mask[2:, :].all() and mask[:, 3:].all()


def test_zero_amplitude_means_global_null():
    spec = ModelSpec(
        model=1, p=6, q=6, n=6, m=6, l1=2, l2=2,
        signal_rows=2, signal_cols=2, signal_amplitude=0.0,
    )
    sigma1, sigma2 = gen_correlations(spec, np.random.default_rng(4))
    ds, mask = gen_round(spec, sigma1, sigma2, np.random.default_rng(5))
    assert mask.all()
    assert abs(ds.treatment.mean()) < 0.5


def test_signal_shifts_treatment_mean():
    spec = ModelSpec(
        model=1, p=6, q=6, n=400, m=2, l1=1, l2=1,
        signal_rows=2, signal_cols=2, signal_amplitude=5.0,
    )
    sigma1, sigma2 = gen_correlations(spec, np.random.default_rng(6))
    ds, _ = gen_round(spec, sigma1, sigma2, np.random.default_rng(7))
    block = ds.treatment[:, :2, :2].mean()
    rest = ds.treatment[:, 2:, 2:].mean()
    assert abs(block - 5.0) < 0.5
    assert abs(rest) < 0.5


def test_noise_entry_moments():
    rng = np.random.default_rng(8)
    for dist in ("exp1", "scaled_t6"):
        draws = _draw_noise_entries(dist, (100_000,), rng)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05


@pytest.mark.parametrize(
    "model, extra",
    [
        (1, {}),
        (2, dict(rho1=0.5, rho2=0.3)),
        (3, dict(w_dist="exp1")),
        (3, dict(w_dist="scaled_t6")),
        (1, dict(l1=0)),
    ],
    ids=["model1", "model2", "model3-exp1", "model3-scaled_t6", "model1-l1_0"],
)
def test_gen_round_matches_target_covariance(model, extra):
    spec = ModelSpec(
        model=model, p=3, q=3, n=6000, m=6000,
        loading_dist=("uniform", 0.0, 1.0),
        signal_rows=2, signal_cols=2, signal_amplitude=0.0, **{"l1": 2, "l2": 2, **extra},
    )
    sigma1, sigma2 = gen_correlations(spec, np.random.default_rng(9))
    ds, _ = gen_round(spec, sigma1, sigma2, np.random.default_rng(10))
    target = np.kron(sigma2, sigma1)
    for group in (ds.treatment, ds.control):
        vecs = group.transpose(0, 2, 1).reshape(len(group), spec.p * spec.q)
        emp = vecs.T @ vecs / len(group)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.15


@pytest.mark.parametrize(
    "spec",
    [
        preset_spec(1, "a", p=40, q=30, n=6, m=6),
        preset_spec(1, "b", p=40, q=30, n=6, m=6),
        ModelSpec(model=1, p=7, q=6, n=6, m=6, l1=0, l2=3, signal_rows=2, signal_cols=2),
        ModelSpec(model=1, p=7, q=6, n=6, m=6, l1=3, l2=0, signal_rows=2, signal_cols=2),
    ],
    ids=["1a", "1b", "l1_0", "l2_0"],
)
def test_model1_factor_rebuilds_sigma(spec):
    # L = D [B, sqrt(1/2) I] has L L' = Sigma: the exact form model 1 draws from.
    sigmas = gen_correlations(spec, derive_rng(12, 0, 0))
    for sigma in sigmas:
        d, b = sigma.factor
        dim = len(sigma)
        factor = d[:, None] * np.hstack([b, np.sqrt(0.5) * np.eye(dim)])
        assert factor.shape == (dim, b.shape[1] + dim)
        assert np.abs(factor @ factor.T - sigma).max() <= 1e-14
    assert _RoundGenerator(spec, *sigmas).factored


@pytest.mark.parametrize("model", [1, 2, 3])
def test_generated_correlations_are_read_only(model):
    spec = preset_spec(model, "a", p=6, q=5, n=6, m=6, signal_rows=2, signal_cols=2)
    sigmas = gen_correlations(spec, derive_rng(14, 0, 0))
    parts = list(sigmas)
    if model == 1:
        parts += [part for sigma in sigmas for part in sigma.factor]
    for part in parts:
        with pytest.raises(ValueError, match="read-only"):
            part[0] += 1.0


def _edited_copy(sigma):
    out = sigma.copy()
    out[0, 0] += 1e-3
    return out


@pytest.mark.parametrize(
    "derive",
    [np.array, lambda s: s * 1.0, _edited_copy, lambda s: s.T, lambda s: s[:, :]],
    ids=["np.array", "times-one", "edited-copy", "transpose", "full-slice"],
)
def test_derived_sigma_generates_through_the_dense_root(derive):
    spec = preset_spec(1, "a", p=12, q=9, n=5, m=6, signal_rows=3, signal_cols=4)
    sigma1, sigma2 = (derive(s) for s in gen_correlations(spec, derive_rng(13, 0, 0)))
    gen = _RoundGenerator(spec, sigma1, sigma2)
    assert not gen.factored
    # The dense path: one draw per group, then mu + sqrt(sigma1) @ E @ sqrt(sigma2).
    left, right = symmetric_sqrt(sigma1), symmetric_sqrt(sigma2)
    rng = derive_rng(13, 1, 1)
    ey = _draw_noise_entries("normal", (spec.n, spec.p, spec.q), rng)
    ez = _draw_noise_entries("normal", (spec.m, spec.p, spec.q), rng)
    ds, _ = gen_round(spec, sigma1, sigma2, derive_rng(13, 1, 1))
    assert ds.treatment.tobytes() == (gen.mu + left @ ey @ right).tobytes()
    assert ds.control.tobytes() == (left @ ez @ right).tobytes()


@pytest.mark.parametrize("model", [2, 3])
def test_indefinite_correlation_is_refused(model):
    # Smallest eigenvalue -0.8: neither model 2's symmetric root nor model 3's
    # eigenfactor exists, so neither may clip the spectrum and draw.
    bad = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    spec = preset_spec(model, "a", p=3, q=3, n=4, m=4, signal_rows=1, signal_cols=1)
    for sigma1, sigma2 in ((bad, np.eye(3)), (np.eye(3), bad)):
        with pytest.raises(NotPsd, match="semidefinite"):
            gen_round(spec, sigma1, sigma2, derive_rng(1, 1, 1))


@pytest.mark.parametrize(
    "model,derive",
    [(1, lambda s: s), (1, np.array), (2, lambda s: s), (3, lambda s: s)],
    ids=["model1-factor", "model1-writable-copy", "model2-dense", "model3-dense"],
)
def test_mismatched_sigma_is_refused_before_any_draw(model, derive):
    small = preset_spec(model, "a", p=10, q=9, n=5, m=5)
    sigma1, sigma2 = (derive(s) for s in gen_correlations(small, derive_rng(3, 0, 0)))
    for spec in (replace(small, p=11), replace(small, q=10)):
        rng = derive_rng(3, 1, 1)
        message = (
            rf"sigma1 \(10, 10\) and sigma2 \(9, 9\) do not match "
            rf"\({spec.p}, {spec.p}\) and \({spec.q}, {spec.q}\)"
        )
        with pytest.raises(ValueError, match=message):
            gen_round(spec, sigma1, sigma2, rng)
        assert rng.random() == derive_rng(3, 1, 1).random()


def test_gen_round_is_deterministic():
    spec = preset_spec(1, "b", p=8, q=8, n=5, m=5, signal_rows=2, signal_cols=2)
    sigma1, sigma2 = gen_correlations(spec, derive_rng(42, 0, 0))
    ds_a, mask_a = gen_round(spec, sigma1, sigma2, derive_rng(42, 3, 1))
    ds_b, mask_b = gen_round(spec, sigma1, sigma2, derive_rng(42, 3, 1))
    np.testing.assert_array_equal(ds_a.treatment, ds_b.treatment)
    np.testing.assert_array_equal(ds_a.control, ds_b.control)
    np.testing.assert_array_equal(mask_a, mask_b)


def test_presets_fill_parameters():
    spec = preset_spec(1, "a", p=40, q=30)
    assert (spec.l1, spec.l2) == (2, 4)
    assert spec.loading_dist == ("uniform", -1.0, 1.0)
    assert (spec.p, spec.q) == (40, 30)
    spec = preset_spec(2, "a")
    assert (spec.rho1, spec.rho2) == (0.5, 0.3)
    with pytest.raises(ValueError, match="unknown setting"):
        preset_spec(1, "z")


def test_preset_cuts_only_the_default_signal_block():
    # The default 8 x 25 block is cut to a smaller matrix, as simulate and
    # gen-synthetic run it; a block given explicitly is kept and checked.
    for (p, q), block in (((10, 12), (8, 12)), ((5, 30), (5, 25)), ((30, 30), (8, 25))):
        spec = preset_spec(1, "a", p=p, q=q, n=5, m=5)
        assert (spec.signal_rows, spec.signal_cols) == block
    spec = preset_spec(2, "b")
    assert (spec.signal_rows, spec.signal_cols) == (8, 25)
    with pytest.raises(ValueError, match=r"signal block \(8 x 25\) exceeds matrix \(10 x 12\)"):
        preset_spec(1, "a", p=10, q=12, signal_rows=8, signal_cols=25)
    with pytest.raises(ValueError, match=r"signal block \(11 x 12\) exceeds matrix \(10 x 12\)"):
        preset_spec(1, "a", p=10, q=12, signal_rows=11)


# ModelSpec owns every rule of a spec; preset_spec and the CLI build through it.
SMALL_SPEC = dict(model=1, p=4, q=4, signal_rows=2, signal_cols=2)


def test_spec_validation():
    cases = [
        (dict(model=4), "model must be 1, 2, or 3, got 4"),
        (dict(model=1, p=1), "p must be >= 2, got 1"),
        (dict(model=1, n=1), "each group needs at least 2 observations, got n=1, m=50"),
        (dict(model=1, n=2, m=2), r"need n \+ m >= 5 for a stable pooled scale, got 4"),
        (dict(model=1, l2=-1), "loading ranks must be >= 0, got l1=3, l2=-1"),
        (dict(model=2, rho2=0.3), r"model 2 needs rho1 in \(-1, 1\), got None"),
        (dict(model=2, rho1=1.0, rho2=0.3), r"model 2 needs rho1 in \(-1, 1\), got 1.0"),
        (dict(model=2, rho1=0.5, rho2=-1.0), r"model 2 needs rho2 in \(-1, 1\), got -1.0"),
        (dict(model=3, w_dist="cauchy"), "w_dist must be 'exp1' or 'scaled_t6', got 'cauchy'"),
        (dict(model=1, loading_dist=("uniform", 2.0, 1.0)), "loading_dist must be"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError, match=message):
            ModelSpec(**fields)


@pytest.mark.parametrize(
    "rows,cols,message",
    [
        (8, 25, r"signal block \(8 x 25\) exceeds matrix \(4 x 4\)"),
        (2, 5, r"signal block \(2 x 5\) exceeds matrix \(4 x 4\)"),
        (2, -1, r"signal block sizes must be >= 0, got 2 x -1"),
        (-1, 0, r"signal block sizes must be >= 0, got -1 x 0"),
    ],
)
def test_signal_block_messages(rows, cols, message):
    with pytest.raises(ValueError, match=message):
        ModelSpec(**{**SMALL_SPEC, "signal_rows": rows, "signal_cols": cols})


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
def test_spec_rejects_non_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match=f"signal_amplitude must be finite, got {amplitude}"):
        ModelSpec(**SMALL_SPEC, signal_amplitude=amplitude)


@pytest.mark.parametrize(
    "dist",
    [("uniform", -float("inf"), 1.0), ("uniform", 0.0, float("inf")), ("uniform", -1e308, 1e308)],
)
def test_spec_rejects_an_unbounded_uniform_range(dist):
    with pytest.raises(ValueError, match="finite range"):
        ModelSpec(**SMALL_SPEC, loading_dist=dist)


def test_overflowing_loadings_are_refused():
    # The range is finite, so the spec accepts it; B B' overflows to inf.
    spec = ModelSpec(
        model=1, p=4, q=4, signal_rows=2, signal_cols=2,
        loading_dist=("uniform", -1e200, 1e200),
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(InvalidMatrix, match="covariance contains non-finite"):
            gen_correlations(spec, derive_rng(0))


def test_run_experiment_records_and_summaries():
    spec = preset_spec(1, "a", p=12, q=12, n=8, m=8, signal_rows=3, signal_cols=4)
    result = run_experiment(spec, threshold=0.05, rounds=5, seed=11, max_workers=1)
    assert result.failures == []
    assert len(result.records) == 5 * 3
    for rec in result.records:
        assert rec.fdp_hat >= 0.0
        assert 0.0 <= rec.fdp_true <= 1.0
        assert rec.rejections >= 0
    for method in ("noodle", "sandwich", "pfa"):
        summ = result.summaries[method]
        diffs = [r.fdp_hat - r.fdp_true for r in result.records if r.method == method]
        assert summ.rounds == 5
        assert summ.bias_percent == pytest.approx(100.0 * np.mean(diffs))
        assert summ.sd_percent == pytest.approx(100.0 * np.std(diffs, ddof=1))


def test_run_experiment_single_round_sd_is_zero():
    spec = preset_spec(1, "b", p=8, q=8, n=6, m=6, signal_rows=2, signal_cols=2)
    result = run_experiment(
        spec, threshold=0.1, rounds=1, seed=12, methods=("sandwich",), max_workers=1
    )
    assert result.summaries["sandwich"].rounds == 1
    assert result.summaries["sandwich"].sd_percent == 0.0


def test_run_experiment_worker_count_does_not_change_results(monkeypatch):
    monkeypatch.setattr("matfdp.simlab._usable_cores", lambda: 2)
    spec = preset_spec(3, "a", p=10, q=10, n=6, m=6, signal_rows=2, signal_cols=5)
    serial = run_experiment(spec, threshold=0.05, rounds=6, seed=13, max_workers=1)
    parallel = run_experiment(spec, threshold=0.05, rounds=6, seed=13, max_workers=2)
    assert serial.records == parallel.records
    assert serial.summaries == parallel.summaries
    assert serial.failures == parallel.failures


def test_numpy_integer_seeds_give_the_python_integer_stream():
    for args in ((np.int64(5),), (5, np.int64(3)), (np.uint32(5), 3, np.int8(1))):
        python_args = [int(a) for a in args]
        assert np.array_equal(derive_rng(*args).random(4), derive_rng(*python_args).random(4))
    with pytest.raises(TypeError):
        derive_rng(5.0)
    spec = preset_spec(1, "b", p=6, q=6, n=6, m=6, signal_rows=2, signal_cols=2)
    numpy_seed = run_experiment(spec, 0.001, 2, seed=np.int64(7), max_workers=1)
    assert numpy_seed.records == run_experiment(spec, 0.001, 2, seed=7, max_workers=1).records


# Each check_experiment rule, by the argument it names, and its message.
REFUSED = {
    "rounds": r"rounds must be an integer in \[1, 2\*\*32\)",
    "estimator": "estimator must be one of",
    "threshold": r"threshold must be in \(0, 1\)",
    "max_workers": "max_workers must be >= 1",
    "repeat": "methods must not repeat",
}


def refused_before_drawing(monkeypatch, kwargs, match):
    """``run_experiment`` refuses ``kwargs`` with ``match`` and draws nothing."""
    def no_draw(*args, **kw):
        raise AssertionError("data drawn before the arguments were checked")

    monkeypatch.setattr(simlab, "gen_correlations", no_draw)
    spec = preset_spec(1, "b", p=6, q=6, n=6, m=6, signal_rows=2, signal_cols=2)
    call = dict(threshold=0.05, rounds=2, seed=1, max_workers=1)
    with pytest.raises(ValueError, match=match):
        run_experiment(spec, **{**call, **kwargs})


def test_run_experiment_validation(monkeypatch):
    refused_before_drawing(monkeypatch, dict(rounds=0), REFUSED["rounds"])
    refused_before_drawing(monkeypatch, dict(methods=("ols",)), "unknown methods")
    refused_before_drawing(monkeypatch, dict(methods=()), "need at least one method")


@pytest.mark.parametrize("rounds", [1.5, 2.0, True, "2"])
def test_run_experiment_refuses_a_non_integer_round_count(monkeypatch, rounds):
    refused_before_drawing(monkeypatch, dict(rounds=rounds), REFUSED["rounds"])
    # A numpy integer is a round count.
    assert check_experiment(0.05, np.int64(2), METHODS, "least_squares") == METHODS


def test_run_experiment_refuses_a_string_of_methods(monkeypatch):
    # "pfa" is a string, not a sequence of names: it must not split into letters.
    refused_before_drawing(monkeypatch, dict(methods="pfa"), "not the string 'pfa'")


@pytest.mark.parametrize(
    "kwargs, rule",
    [
        (dict(methods=("pfa",), estimator="bogus"), "estimator"),
        (dict(threshold=1.5), "threshold"),
        (dict(threshold=0.0), "threshold"),
        (dict(max_workers=0), "max_workers"),
        (dict(methods=("pfa", "pfa")), "repeat"),
        # Round 2**32 has no derive_rng stream, and the pool would queue one
        # future per round before running any.
        (dict(rounds=2**32), "rounds"),
    ],
)
def test_run_experiment_rejects_bad_arguments_before_drawing(monkeypatch, kwargs, rule):
    refused_before_drawing(monkeypatch, kwargs, REFUSED[rule])


def test_run_experiment_keeps_the_methods_order():
    # Records and summaries follow METHODS, whatever order the caller gives.
    spec = preset_spec(1, "b", p=6, q=6, n=6, m=6, signal_rows=2, signal_cols=2)
    res = run_experiment(spec, threshold=0.1, rounds=2, seed=1, methods=("pfa", "noodle"))
    assert list(res.summaries) == ["noodle", "pfa"]
    assert [(rec.round_index, rec.method) for rec in res.records] == [
        (1, "noodle"), (1, "pfa"), (2, "noodle"), (2, "pfa")
    ]


class _UnreadableEnvironment(Mapping):
    def __getitem__(self, key):
        raise AssertionError(f"read the environment variable {key!r}")

    def __iter__(self):
        raise AssertionError("listed the environment")

    def __len__(self):
        raise AssertionError("counted the environment")


def test_run_experiment_reads_no_environment(monkeypatch):
    spec = preset_spec(1, "b", p=8, q=8, n=6, m=6, signal_rows=2, signal_cols=2)
    call = dict(threshold=0.1, rounds=2, seed=14)
    plain = run_experiment(spec, **call)
    with monkeypatch.context() as patch:
        patch.setattr(os, "environ", _UnreadableEnvironment())
        assert run_experiment(spec, **call) == plain
    assert plain.failures == [] and len(plain.records) == 2 * 3


@pytest.mark.parametrize("affinity, workers", [({0}, 1), ({0, 1}, 2)])
def test_round_workers_follow_the_cpu_affinity(monkeypatch, affinity, workers):
    pool_sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pool_sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr("matfdp.simlab.ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    spec = preset_spec(1, "b", p=8, q=8, n=6, m=6, signal_rows=2, signal_cols=2)
    for max_workers in (None, 8):
        run_experiment(
            spec, threshold=0.1, rounds=2, seed=3, methods=("pfa",), max_workers=max_workers
        )
    assert pool_sizes == [workers, workers]
