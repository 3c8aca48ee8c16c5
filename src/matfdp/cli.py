"""Command-line interface.

Three subcommands: ``simulate`` runs a Monte-Carlo experiment and writes
per-round records plus a summary, ``analyze`` estimates the FDP on a dataset
directory at a fixed threshold or over a sweep, and ``gen-synthetic`` writes a
synthetic dataset directory matching round 1 of the corresponding simulation.

Exit codes: 0 success, 2 invalid flags, 3 malformed dataset, 4 unwritable
output path, 5 estimation failed on the data (for example a cell with zero
variance), in the setup of a run (for example the correlation draw) or for
lack of memory.  ``main`` maps exceptions to these codes in one place.  Every command checks
``--out`` after its flags and before any work, and makes the directory only
when it writes its first output file, so a run that fails leaves no ``--out``
behind.  No command reads an environment variable: ``simulate`` rounds and
``analyze`` parsers each use one worker per core of the CPU affinity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import trimreg
from .covfactor import (
    build_noodle_loadings,
    build_sandwich_loadings,
    estimate_correlations,
)
from .datafiles import FLOAT_FMT, read_dataset, write_dataset
from .errors import DatasetFormatError, MatfdpError
from .linalg import kron_eigenpairs
from .noodle import fdp_noodle, fit_noodle
from .rng import derive_rng
from .simlab import (
    METHODS,
    check_experiment,
    gen_correlations,
    gen_round,
    preset_spec,
    run_experiment,
)
from .teststats import check_threshold, p_values, rejection_count, test_matrix

_ESTIMATOR_FLAGS = {"ls": "least_squares", "trimmed": "trimmed_l1"}
_SWEEP_ROW_CAP = 100


def _fmt(v: float) -> str:
    """Format a float as the dataset files do: 17 significant digits, round-trip exact."""
    return FLOAT_FMT % float(v)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matfdp",
        description="FDP estimation for two-sample tests on matrix-valued data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser, with_sim: bool) -> None:
        p.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
        p.add_argument("--setting", default="a", help="named parameter preset")
        p.add_argument("--p", type=int, default=100, dest="p")
        p.add_argument("--q", type=int, default=100, dest="q")
        p.add_argument("--n", type=int, default=50, dest="n")
        p.add_argument("--m", type=int, default=50, dest="m")
        p.add_argument(
            "--w-dist",
            choices=("exp1", "scaled_t6"),
            default="exp1",
            help="noise entry distribution (model 3 only)",
        )
        p.add_argument("--seed", type=int, default=0)
        if with_sim:
            p.add_argument("--t", type=float, default=0.001, help="rejection threshold")
            p.add_argument("--rounds", type=int, default=500)
            p.add_argument(
                "--methods",
                default=",".join(METHODS),
                help="comma-separated subset of noodle,sandwich,pfa",
            )
            p.add_argument("--estimator", choices=tuple(_ESTIMATOR_FLAGS), default="trimmed")

    sim = sub.add_parser("simulate", help="run a Monte-Carlo experiment")
    add_model_flags(sim, with_sim=True)
    sim.add_argument("--out", required=True, help="output directory")

    ana = sub.add_parser("analyze", help="estimate the FDP on a dataset directory")
    ana.add_argument("--data", required=True, help="dataset directory")
    ana.add_argument("--method", choices=("noodle", "sandwich"), required=True)
    mode = ana.add_mutually_exclusive_group(required=True)
    mode.add_argument("--threshold", type=float, help="fixed rejection threshold")
    mode.add_argument(
        "--sweep",
        type=int,
        nargs="?",
        const=25,
        help="sweep thresholds at every SWEEP-th sorted p-value (default 25)",
    )
    ana.add_argument("--out", required=True, help="output directory")

    gen = sub.add_parser("gen-synthetic", help="write a synthetic dataset directory")
    add_model_flags(gen, with_sim=False)
    gen.add_argument("--out", required=True, help="output directory")

    return parser


def _build_spec(args: argparse.Namespace):
    overrides = dict(p=args.p, q=args.q, n=args.n, m=args.m)
    if args.model == 3:
        overrides["w_dist"] = args.w_dist
    return preset_spec(args.model, args.setting, **overrides)


def _open_out(directory: str, name: str):
    os.makedirs(directory, exist_ok=True)
    return open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n")


def _check_out_path(path: str) -> None:
    """Raise ``OSError`` unless ``path`` could be made a writable directory; make nothing."""
    head = os.path.abspath(path)
    # lexists: a dangling symlink stops the walk, and fails the check below.
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise OSError(f"{head} is not a writable directory")


def _run_simulate(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    estimator = _ESTIMATOR_FLAGS[args.estimator]
    methods = check_experiment(args.t, args.rounds, args.methods.split(","), estimator)
    _check_out_path(args.out)
    result = run_experiment(
        spec,
        threshold=args.t,
        rounds=args.rounds,
        seed=args.seed,
        methods=methods,
        estimator=estimator,
    )

    with _open_out(args.out, "rounds.csv") as fh:
        fh.write("round,method,fdp_hat,fdp_true,R\n")
        for rec in result.records:
            fh.write(
                f"{rec.round_index},{rec.method},{_fmt(rec.fdp_hat)},"
                f"{_fmt(rec.fdp_true)},{rec.rejections}\n"
            )
    summary = {
        "schema_version": 1,
        "config": {
            **dataclasses.asdict(spec),
            "command": "simulate",
            "setting": args.setting,
            "w_dist": spec.w_dist if spec.model == 3 else None,
            "t": args.t,
            "rounds": args.rounds,
            "seed": args.seed,
            "methods": list(methods),
            "estimator": estimator,
            "trim_fraction": trimreg.TRIM_FRACTION,
        },
        "methods": {name: dataclasses.asdict(s) for name, s in result.summaries.items()},
        "failures": [
            {"round": f.round_index, "method": f.method, "error": f.error}
            for f in result.failures
        ],
    }
    with _open_out(args.out, "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.join(args.out, 'rounds.csv')}")
    return 0


def _sweep_thresholds(pv: np.ndarray, step: int) -> list[float]:
    """Every ``step``-th sorted p-value, at most ``_SWEEP_ROW_CAP`` of them."""
    sorted_p = np.sort(pv, axis=None)
    thresholds: list[float] = []
    for i in range(1, min(sorted_p.size // step, _SWEEP_ROW_CAP) + 1):
        t = float(sorted_p[i * step - 1])
        # Duplicate p-values would repeat a threshold; keep the sweep
        # strictly increasing and inside (0, 1).
        if 0.0 < t < 1.0 and (not thresholds or t > thresholds[-1]):
            thresholds.append(t)
    return thresholds


def _run_analyze(args: argparse.Namespace) -> int:
    # Flag checks come before the dataset is read.
    if args.threshold is not None:
        check_threshold(args.threshold)
    if args.sweep is not None and args.sweep < 1:
        raise ValueError(f"--sweep must be >= 1, got {args.sweep}")
    _check_out_path(args.out)
    ds = read_dataset(args.data)
    x = test_matrix(ds)
    pv = p_values(x)
    fixed = args.threshold is not None
    thresholds = [args.threshold] if fixed else _sweep_thresholds(pv, args.sweep)
    if not thresholds:
        raise ValueError(
            f"--sweep {args.sweep} selects no threshold in (0, 1) from {pv.size} p-values"
        )
    # Sandwich is the noodle fit on the top-k1 x top-k2 grid of pairs.
    select = build_noodle_loadings if args.method == "noodle" else build_sandwich_loadings
    ce = estimate_correlations(ds, x.sigma_hat)
    fit = fit_noodle(x, select(ce), estimator="trimmed_l1")
    if fit.trim.used_fallback or not fit.trim.converged:
        what = "fell back to the all-cell fit" if fit.trim.used_fallback else "did not converge"
        print(f"warning: trimmed fit {what} after {fit.trim.iterations} C-steps", file=sys.stderr)

    with _open_out(args.out, "report.csv") as fh:
        fh.write("t,R,fdp_hat,estimated_false\n")
        for t in thresholds:
            rej = rejection_count(pv, t)
            fdp = min(fdp_noodle(fit, rej, t), 1.0)
            fh.write(f"{_fmt(t)},{rej},{_fmt(fdp)},{_fmt(fdp * rej)}\n")
    if fixed:
        selected = (pv <= args.threshold).astype(int)
        np.savetxt(
            os.path.join(args.out, "selected.csv"),
            selected,
            fmt="%d",
            delimiter=",",
            newline="\n",
        )
    else:
        kron = kron_eigenpairs(ce.eig1, ce.eig2)
        with _open_out(args.out, "scree.csv") as fh:
            fh.write("kind,rank,value\n")
            for kind, values in (
                ("sigma1", ce.eig1.values),
                ("sigma2", ce.eig2.values),
                ("kron", kron.values),
            ):
                for rank, val in enumerate(values, start=1):
                    fh.write(f"{kind},{rank},{_fmt(val)}\n")
    print(f"wrote {os.path.join(args.out, 'report.csv')}")
    return 0


def _run_gen_synthetic(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    _check_out_path(args.out)
    sigma1, sigma2 = gen_correlations(spec, derive_rng(args.seed, 0, 0))
    # Same stream as simulate round 1, so the directory reproduces that round.
    ds, _ = gen_round(spec, sigma1, sigma2, derive_rng(args.seed, 1, 1))
    manifest = write_dataset(args.out, ds)
    print(f"wrote {manifest}")
    return 0


_COMMANDS = {
    "simulate": _run_simulate,
    "analyze": _run_analyze,
    "gen-synthetic": _run_gen_synthetic,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # Clause order matters: DatasetFormatError is a MatfdpError, and both
    # LinAlgError and InvalidFactorCount are also ValueErrors.
    try:
        return _COMMANDS[args.command](args)
    except DatasetFormatError as exc:
        where = f" ({exc.path})" if exc.path else ""
        return _fail(3, f"malformed dataset{where}: {exc}")
    except (MatfdpError, np.linalg.LinAlgError) as exc:
        return _fail(5, f"estimation failed: {exc}")
    except MemoryError as exc:
        return _fail(5, f"out of memory: {exc}")
    except ValueError as exc:
        return _fail(2, str(exc))
    except OSError as exc:
        return _fail(4, f"cannot write output: {exc}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
