"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: every public function the
workloads reach is replaced, under the name its caller binds (for example
``matfdp.simlab.estimate_correlations``), by a wrapper that records a span
around the call.  Nothing inside ``src/`` changes.

A span holds its layer, the binding it came through, start and end times, the
index of its parent span on the same thread, the op it belongs to and a few
attributes computed from the call's arguments or result.  Spans stay in
memory until the run ends.  A layer's self time is its span duration minus
the durations of its direct children.

Installing a wrapper whose target is missing raises :class:`LookupError`, so a
refactor that renames or removes a traced function fails the run instead of
silently reporting zero for its layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    layer: str
    binding: str
    start: float
    op: int | None
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span store with a per-thread parent stack and op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.roots: list[tuple[int, int]] = []  # (span index, threads working under it)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ops = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_op(self) -> None:
        """Give the calling thread a fresh op id for the spans it opens next."""
        with self._lock:
            self._ops += 1
            self._local.op = self._ops

    def begin(self, layer: str, binding: str) -> int:
        stack = self._stack()
        span = Span(
            layer=layer,
            binding=binding,
            start=time.perf_counter(),
            op=getattr(self._local, "op", None),
            parent=stack[-1] if stack else None,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    @contextmanager
    def root(self, layer: str, threads: int = 1):
        """Span around one timed unit of the benchmark; ``threads`` work under it."""
        self.start_op()
        index = self.begin(layer, "perfbench")
        try:
            yield
        finally:
            self.end(index)
            self.roots.append((index, threads))


# --- what gets wrapped --------------------------------------------------------


def _trim_attrs(max_iters: int):
    def attrs(args, kwargs, fit) -> dict:
        return {
            "iters": fit.iterations,
            "cap_hit": fit.iterations == max_iters,
            "fallback": bool(fit.used_fallback),
        }

    return attrs


def _corr_attrs(args, kwargs, result) -> dict:
    ds = args[0]
    cells, obs = ds.p * ds.q, ds.n + ds.m
    # The two Gram products over the residual stack, and that stack's size.
    return {"flops": 2 * obs * cells * (ds.p + ds.q), "bytes": 8 * obs * cells}


def _generate_attrs(args, kwargs, result) -> dict:
    ds = result[0]
    return {"bytes": ds.treatment.nbytes + ds.control.nbytes}


def _noodle_select_attrs(args, kwargs, loadings) -> dict:
    pairs = frozenset(zip(loadings.idx1.tolist(), loadings.idx2.tolist()))
    return {"h": loadings.h, "pairs": pairs}


def _sandwich_select_attrs(args, kwargs, loadings) -> dict:
    grid = frozenset((b, a) for b in range(loadings.k1) for a in range(loadings.k2))
    return {"k1": loadings.k1, "k2": loadings.k2, "pairs": grid}


def _dataset_attrs(args, kwargs, result) -> dict:
    files = [e for e in os.scandir(os.fspath(args[0])) if e.is_file()]
    return {"files": len(files), "bytes": sum(e.stat().st_size for e in files)}


def _targets() -> list[tuple[str, str, str, object]]:
    """``(module, attribute path, layer, attribute function)`` for every wrapper."""
    trim = _trim_attrs(_resolve("matfdp.trimreg", "MAX_ITERS"))
    return [
        # simulate: the calls run_experiment makes per round, on worker threads.
        ("matfdp.simlab", "_RoundGenerator.generate", "simlab.generate", _generate_attrs),
        ("matfdp.simlab", "test_matrix", "teststats", None),
        ("matfdp.simlab", "p_values", "teststats", None),
        ("matfdp.simlab", "rejection_count", "teststats", None),
        ("matfdp.simlab", "true_fdp", "teststats", None),
        ("matfdp.simlab", "estimate_correlations", "covfactor.estimate_correlations", _corr_attrs),
        ("matfdp.simlab", "build_noodle_loadings", "covfactor.select", _noodle_select_attrs),
        ("matfdp.simlab", "build_sandwich_loadings", "covfactor.select", _sandwich_select_attrs),
        ("matfdp.simlab", "fit_noodle", "noodle.fit", None),
        ("matfdp.simlab", "fit_sandwich", "sandwich.fit", None),
        ("matfdp.simlab", "fdp_noodle", "noodle.fdp", None),
        ("matfdp.simlab", "fdp_sandwich", "sandwich.fdp", None),
        ("matfdp.simlab", "fdp_pfa", "pfa", None),
        ("matfdp.pfa", "p_values", "teststats", None),
        ("matfdp.pfa", "rejection_count", "teststats", None),
        # Shared below the estimators.
        ("matfdp.covfactor", "sym_eigen", "linalg.sym_eigen", None),
        ("matfdp.covfactor", "kron_eigenpairs", "linalg.kron_eigenpairs", None),
        ("matfdp.noodle", "trimmed_l1_fit", "trimreg", trim),
        ("matfdp.sandwich", "trimmed_l1_fit", "trimreg", trim),
        # large-sandwich: the benchmark calls these through their modules.
        ("matfdp.teststats", "test_matrix", "teststats", None),
        ("matfdp.teststats", "p_values", "teststats", None),
        ("matfdp.teststats", "rejection_count", "teststats", None),
        ("matfdp.covfactor", "estimate_correlations", "covfactor.estimate_correlations",
         _corr_attrs),
        ("matfdp.covfactor", "build_sandwich_loadings", "covfactor.select", _sandwich_select_attrs),
        ("matfdp.sandwich", "fit_sandwich", "sandwich.fit", None),
        ("matfdp.sandwich", "fdp_sandwich", "sandwich.fdp", None),
        # analyze --method noodle --sweep.
        ("matfdp.cli", "read_dataset", "datafiles.read_dataset", _dataset_attrs),
        ("matfdp.cli", "test_matrix", "teststats", None),
        ("matfdp.cli", "p_values", "teststats", None),
        ("matfdp.cli", "rejection_count", "teststats", None),
        ("matfdp.cli", "estimate_correlations", "covfactor.estimate_correlations", _corr_attrs),
        ("matfdp.cli", "build_noodle_loadings", "covfactor.select", _noodle_select_attrs),
        ("matfdp.cli", "fit_noodle", "noodle.fit", None),
        ("matfdp.cli", "fdp_noodle", "noodle.fdp", None),
        ("matfdp.cli", "kron_eigenpairs", "linalg.kron_eigenpairs", None),
    ]


_SIM = [
    "matfdp.simlab._RoundGenerator.generate",
    "matfdp.simlab.test_matrix",
    "matfdp.simlab.p_values",
    "matfdp.simlab.rejection_count",
    "matfdp.simlab.true_fdp",
    "matfdp.simlab.estimate_correlations",
    "matfdp.simlab.build_noodle_loadings",
    "matfdp.simlab.build_sandwich_loadings",
    "matfdp.simlab.fit_noodle",
    "matfdp.simlab.fit_sandwich",
    "matfdp.simlab.fdp_noodle",
    "matfdp.simlab.fdp_sandwich",
    "matfdp.simlab.fdp_pfa",
    "matfdp.pfa.p_values",
    "matfdp.pfa.rejection_count",
    "matfdp.covfactor.sym_eigen",
    "matfdp.covfactor.kron_eigenpairs",
]

#: Wrappers each workload must reach; the smoke test holds every run to this.
EXPECTED_BINDINGS = {
    "sim-trimmed": _SIM + ["matfdp.noodle.trimmed_l1_fit", "matfdp.sandwich.trimmed_l1_fit"],
    "sim-ls": _SIM,
    "large-sandwich": [
        "matfdp.teststats.test_matrix",
        "matfdp.teststats.p_values",
        "matfdp.teststats.rejection_count",
        "matfdp.covfactor.estimate_correlations",
        "matfdp.covfactor.sym_eigen",
        "matfdp.covfactor.build_sandwich_loadings",
        "matfdp.sandwich.fit_sandwich",
        "matfdp.sandwich.fdp_sandwich",
    ],
    "analyze-sweep": [
        "matfdp.cli.read_dataset",
        "matfdp.cli.test_matrix",
        "matfdp.cli.p_values",
        "matfdp.cli.rejection_count",
        "matfdp.cli.estimate_correlations",
        "matfdp.cli.build_noodle_loadings",
        "matfdp.cli.fit_noodle",
        "matfdp.cli.fdp_noodle",
        "matfdp.cli.kron_eigenpairs",
        "matfdp.covfactor.sym_eigen",
        "matfdp.covfactor.kron_eigenpairs",
        "matfdp.noodle.trimmed_l1_fit",
    ],
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(owner, part):
            raise LookupError(f"traced target {module}.{path} is missing")
        owner = getattr(owner, part)
    return owner


def _wrap(tracer: Tracer, binding: str, layer: str, fn, attrs, starts_op: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if starts_op:
            tracer.start_op()
        index = tracer.begin(layer, binding)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.end(index)
        if attrs is not None:
            span.attrs.update(attrs(args, kwargs, result))
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block; restore them after."""
    originals = []
    try:
        for module, path, layer, attrs in _targets():
            fn = _resolve(module, path)
            if not callable(fn):
                raise LookupError(f"traced target {module}.{path} is not callable")
            owner_path, _, name = path.rpartition(".")
            owner = _resolve(module, owner_path) if owner_path else importlib.import_module(module)
            # A new round begins where run_experiment generates its data.
            starts_op = layer == "simlab.generate"
            setattr(owner, name, _wrap(tracer, f"{module}.{path}", layer, fn, attrs, starts_op))
            originals.append((owner, name, fn))
        yield
    finally:
        for owner, name, fn in reversed(originals):
            setattr(owner, name, fn)


# --- per-layer metrics --------------------------------------------------------

#: Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "trimreg.busy_s": "s",
    "trimreg.calls": "count",
    "trimreg.iters": "count",
    "trimreg.cap_hit_share": "ratio",
    "trimreg.fallback_share": "ratio",
    "trimreg.duplicate_fit_share": "ratio",
    "covfactor.estimate_correlations.busy_s": "s",
    "covfactor.estimate_correlations.flops": "flop",
    "covfactor.estimate_correlations.bytes": "B",
    "linalg.sym_eigen.busy_s": "s",
    "linalg.sym_eigen.calls": "count",
    "linalg.kron_eigenpairs.busy_s": "s",
    "covfactor.select.busy_s": "s",
    "simlab.generate.busy_s": "s",
    "simlab.generate.bytes": "B",
    "teststats.busy_s": "s",
    "teststats.p_values.calls": "count",
    "pfa.busy_s": "s",
    "noodle.fit.busy_s": "s",
    "sandwich.fit.busy_s": "s",
    "noodle.fdp.busy_s": "s",
    "noodle.fdp.calls": "count",
    "sandwich.fdp.busy_s": "s",
    "sandwich.fdp.calls": "count",
    "datafiles.read_dataset.busy_s": "s",
    "datafiles.read_dataset.bytes": "B",
    "datafiles.read_dataset.files": "count",
    "cli.analyze.self_s": "s",
    "trace.coverage_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Factor counts the selectors chose, per call.  Reported next to the layer
#: metrics but not declared in BENCHMARK.json: they describe the model's
#: choices, not a cost an optimisation should move.
SELECTED_COUNTS = {f"covfactor.select.{k}": "count" for k in ("h", "k1", "k2")}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int, overhead_share: float) -> dict[str, float]:
    """Per-op layer numbers (and selected counts) from a traced phase of ``ops`` ops.

    Busy times are summed self times divided by ``ops``.  Calls and computed
    work are per op; iterations, shares and chosen factor counts are per call.
    A layer the workload never reaches reads 0.
    """
    root_ids = {index for index, _ in tracer.roots}
    layers = [s for i, s in enumerate(tracer.spans) if i not in root_ids]
    by_layer: dict[str, list[Span]] = defaultdict(list)
    for span in layers:
        by_layer[span.layer].append(span)

    def busy(layer: str) -> float:
        return sum(s.self_s for s in by_layer[layer]) / ops

    def per_op(layer: str, key: str) -> float:
        return sum(s.attrs[key] for s in by_layer[layer]) / ops

    def per_call(spans: list[Span], key: str) -> float:
        return _mean(float(s.attrs[key]) for s in spans)

    trim = by_layer["trimreg"]
    select = by_layer["covfactor.select"]
    noodle_select = [s for s in select if "h" in s.attrs]
    sandwich_select = [s for s in select if "k1" in s.attrs]
    # Rounds where noodle's top-h pairs are exactly sandwich's k1 x k2 grid.
    grids = {s.op: s.attrs["pairs"] for s in sandwich_select}
    duplicate = _mean(
        float(s.attrs["pairs"] == grids[s.op]) for s in noodle_select if s.op in grids
    )
    analyze_roots = [
        tracer.spans[i] for i, _ in tracer.roots if tracer.spans[i].layer == "cli.analyze"
    ]
    top_level = sum(s.duration for s in layers if s.parent is None or s.parent in root_ids)
    capacity = sum(tracer.spans[i].duration * threads for i, threads in tracer.roots)
    teststats_calls = Counter(s.binding.rsplit(".", 1)[-1] for s in by_layer["teststats"])

    return {
        "trimreg.busy_s": busy("trimreg"),
        "trimreg.calls": len(trim) / ops,
        "trimreg.iters": per_call(trim, "iters"),
        "trimreg.cap_hit_share": per_call(trim, "cap_hit"),
        "trimreg.fallback_share": per_call(trim, "fallback"),
        "trimreg.duplicate_fit_share": duplicate,
        "covfactor.estimate_correlations.busy_s": busy("covfactor.estimate_correlations"),
        "covfactor.estimate_correlations.flops": per_op("covfactor.estimate_correlations", "flops"),
        "covfactor.estimate_correlations.bytes": per_op("covfactor.estimate_correlations", "bytes"),
        "linalg.sym_eigen.busy_s": busy("linalg.sym_eigen"),
        "linalg.sym_eigen.calls": len(by_layer["linalg.sym_eigen"]) / ops,
        "linalg.kron_eigenpairs.busy_s": busy("linalg.kron_eigenpairs"),
        "covfactor.select.busy_s": busy("covfactor.select"),
        "covfactor.select.h": per_call(noodle_select, "h"),
        "covfactor.select.k1": per_call(sandwich_select, "k1"),
        "covfactor.select.k2": per_call(sandwich_select, "k2"),
        "simlab.generate.busy_s": busy("simlab.generate"),
        "simlab.generate.bytes": per_op("simlab.generate", "bytes"),
        "teststats.busy_s": busy("teststats"),
        "teststats.p_values.calls": teststats_calls["p_values"] / ops,
        "pfa.busy_s": busy("pfa"),
        "noodle.fit.busy_s": busy("noodle.fit"),
        "sandwich.fit.busy_s": busy("sandwich.fit"),
        "noodle.fdp.busy_s": busy("noodle.fdp"),
        "noodle.fdp.calls": len(by_layer["noodle.fdp"]) / ops,
        "sandwich.fdp.busy_s": busy("sandwich.fdp"),
        "sandwich.fdp.calls": len(by_layer["sandwich.fdp"]) / ops,
        "datafiles.read_dataset.busy_s": busy("datafiles.read_dataset"),
        "datafiles.read_dataset.bytes": per_op("datafiles.read_dataset", "bytes"),
        "datafiles.read_dataset.files": per_op("datafiles.read_dataset", "files"),
        "cli.analyze.self_s": sum(s.self_s for s in analyze_roots) / ops,
        "trace.coverage_share": top_level / capacity if capacity else 0.0,
        "trace.overhead_share": overhead_share,
    }


def binding_calls(tracer: Tracer) -> dict[str, int]:
    """Calls recorded per wrapped binding, for the every-wrapper-fires check."""
    return dict(Counter(s.binding for s in tracer.spans if s.binding != "perfbench"))
