"""Benchmark of matfdp: one workload per process, closed loop, seeded inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-trimmed --seed 1 --seconds 20 --trace 0

Workloads: ``sim-trimmed``, ``sim-ls``, ``large-sandwich``, ``analyze-sweep``
(see ``perfbench/README.md``).  The package is imported from this checkout's
``src/``; without it the run exits with code 2.

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it measures half the time untraced and
half traced, and reports the per-layer metrics of the traced half (see
``tracing.py``) plus the tracing overhead between the halves.  Every unit's
output goes through the workload's correctness gate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is a
JSON report with the environment, the gate's findings, the accuracy of each
estimator and the per-wrapper call counts.  Exit code 0 means every check
passed, 1 that a check failed, 2 that the run could not start.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Workload -> (round workers, BLAS threads).  Workers x BLAS threads stays at
#: or below two, the core count the benchmark was tuned on.
THREADS = {
    "sim-trimmed": (2, 1),
    "sim-ls": (2, 1),
    "large-sandwich": (1, 2),
    "analyze-sweep": (1, 1),
}

#: Input preparation is repeated this often; setup_s takes the median.
SETUP_REPEATS = 3

#: End-to-end metric names and units declared in BENCHMARK.json.  The median
#: op time is printed and reported too, but not declared: on a busy machine op
#: times are bimodal and their median jumps between runs where ops_per_s,
#: their mean rate, holds.
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, help="override the round worker count")
    parser.add_argument("--blas-threads", type=int, help="override the BLAS thread count")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes and one unit per phase (smoke test)"
    )
    args = parser.parse_args(argv)
    workers, blas = THREADS[args.workload]
    args.workers = args.workers or workers
    args.blas_threads = args.blas_threads or blas
    return args


def pin_threads(workers: int, blas: int) -> None:
    """Fix thread counts; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    os.environ["MATFDP_THREADS"] = str(workers)


def _cannot_start(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import matfdp from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "matfdp")):
        _cannot_start(f"no package at {SRC}; run from the root of a matfdp checkout")
    sys.path.insert(0, SRC)
    import matfdp

    if os.path.dirname(os.path.dirname(os.path.abspath(matfdp.__file__))) != SRC:
        _cannot_start(f"matfdp was imported from {matfdp.__file__}, not {SRC}")


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_runtime_threads() -> int | None:
    """Thread count numpy's OpenBLAS reports, when its library exposes it."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def environment(args) -> dict:
    import platform

    import numpy
    import scipy

    def blas(config) -> str | None:
        return config["Build Dependencies"]["blas"].get("version")

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "MATFDP_THREADS": os.environ["MATFDP_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_runtime_threads(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
    }


@dataclass
class Phase:
    """Totals of one measured phase."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    next_index: int = 1
    op_s: list[float] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s


def measure(wl, seconds: float, min_units: int, first_index: int, tracer=None) -> Phase:
    """Run units back to back for ``seconds`` and at least ``min_units`` units."""
    phase = Phase(next_index=first_index)
    deadline = time.perf_counter() + seconds
    units = 0
    while units < min_units or time.perf_counter() < deadline:
        index = phase.next_index
        span = tracer.root(wl.root_layer, wl.threads) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            out = wl.run(index)
        elapsed = time.perf_counter() - start
        ops, attempted, failed = wl.check(index, out)
        phase.ops += ops
        phase.attempted += attempted
        phase.failed += failed
        phase.busy_s += elapsed
        phase.op_s.append(elapsed / ops)
        phase.next_index += 1
        units += 1
    return phase


def run(args) -> int:
    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = workloads.make(args.workload, args.seed, args.smoke, args.workers, work_dir)
        setup_times = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        wl.reference()
        # One unit before timing, so lazy imports and first-touch costs settle.
        wl.check(0, wl.run(0))
        min_units = wl.min_units
        if args.trace:
            half = 0 if args.smoke else args.seconds / 2
            main = measure(wl, half, min_units, 1)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = measure(wl, half, 1, main.next_index, tracer)
            layers = tracing.layer_metrics(
                tracer, traced.ops, main.ops_per_s / traced.ops_per_s - 1.0
            )
            calls = tracing.binding_calls(tracer)
        else:
            main = measure(wl, 0 if args.smoke else args.seconds, min_units, 1)
            traced, layers, calls = None, None, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it

    end_to_end = {
        "ops_per_s": main.ops_per_s,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    op_s_p50 = statistics.median(main.op_s)
    phases = [main] + ([traced] if traced else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    accuracy = wl.accuracy()
    correct = not wl.problems and failed == 0

    for name, value in end_to_end.items():
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END[name]}")
    print(f"{args.workload} op_s_p50 = {op_s_p50:.6g} s ({len(main.op_s)} samples)")
    print(f"{args.workload} failed_share = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for method, value in accuracy.items():
        print(f"{args.workload} abs_err_pct.{method} = {value:.6g} %")
    units = {**tracing.LAYER_METRICS, **tracing.SELECTED_COUNTS}
    for name, value in (layers or {}).items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for problem in wl.problems:
        print(f"{args.workload} CHECK FAILED: {problem}")

    report = {
        "environment": environment(args),
        "settings": {
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "workers": args.workers,
            "blas_threads": args.blas_threads,
        },
        "end_to_end": end_to_end,
        "op_s_p50": op_s_p50,
        "op_s": main.op_s,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "failed_share": failed / attempted,
        "abs_err_pct": accuracy,
        "problems": wl.problems,
        "layers": layers,
        "binding_calls": calls,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    if args.trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in tracing.LAYER_METRICS.items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in end_to_end.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(args.workers, args.blas_threads)
    import_package()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
