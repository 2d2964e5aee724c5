"""Span recorder for the traced benchmark run.

The traced run wraps the public functions of each circdmd module from
outside. A function is looked up wherever a caller finds it: in its own
module for calls inside that module (``sparsity.admm_sparsify`` calling
``polish``), and in every module that bound it with ``from ... import``
(``circdmd.variants.snapshot_svd``, ``circdmd.cli.fit``). ``Patch``
therefore replaces the function in every ``circdmd`` namespace that
holds it, and puts the originals back afterwards. Nothing under ``src/``
knows about the spans.

Spans stay in memory (name, start, end, parent, pass id) and are written
out once the run ends. Times are integer nanoseconds, so a parent's self
time (its duration minus its children's) is exact and never negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

MB = 1e6

# Layer -> wrapped public functions. ``errors`` does no work and is left out.
LAYERS = {
    "datamodel": ("load_matrix", "save_matrix"),
    "synthgen": ("generate",),
    "embedding": (
        "anti_circulant",
        "apply_right_permutation",
        "hankel",
        "collapse_snapshot_reconstruction",
        "inverse_hankel",
    ),
    "spectral": (
        "snapshot_svd",
        "projected_dynamics",
        "eigendecompose",
        "dynamic_modes",
        "amplitudes",
        "reconstruct",
    ),
    "sparsity": ("build_quadratic", "admm_sparsify", "polish", "gamma_path"),
    "variants": (
        "fit",
        "predict",
        "fit_forward_backward",
        "fit_total_least_squares",
        "fit_gamma_path",
    ),
    "analysis": (
        "residual_acf",
        "residual_lag_correlation",
        "classify_stability",
        "oscillation_periods",
        "mape_per_sensor",
        "reshape_mode",
    ),
    "cli": (
        "save_bundle",
        "load_bundle",
        "input_digest",
        "cmd_fit",
        "cmd_forecast",
        "cmd_reconstruct",
        "cmd_analyze",
    ),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Spans whose self time (duration minus traced children) is reported.
SELF_TIMED = (
    "variants.fit",
    "variants.predict",
    "cli.cmd_fit",
    "cli.cmd_forecast",
    "cli.cmd_reconstruct",
    "cli.cmd_analyze",
)

# Counts per pass, computed at the layer boundaries or, for the rank
# warnings and the weekly periods found, by the pass itself.
COUNTS = (
    "embedding.stack_mb",
    "spectral.gram_dim",
    "spectral.rank",
    "spectral.reconstruct_mb",
    "spectral.optimal_rank_warnings",
    "analysis.weekly_periods_found",
    "sparsity.admm_iterations",
    "sparsity.admm_converged_frac",
    "sparsity.nnz",
    "datamodel.load_matrix_calls",
    "datamodel.load_matrix_mb",
    "cli.load_bundle_calls",
    "cli.bundle_mb",
)

SETUP = "setup"


def metric_names():
    """Every per-layer metric the traced run emits, in a fixed order."""
    names = [f"{name}_s" for name in FUNCTIONS]
    names += [f"{name}_self_s" for name in SELF_TIMED]
    names += list(COUNTS)
    names += ["trace.spans", "trace.overhead_s"]
    return names


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def circdmd_namespaces():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "circdmd" or name.startswith("circdmd."))
    ]


class Patch:
    """Replace functions in every circdmd namespace that binds them."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for module in circdmd_namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def leftover_wrappers():
    """(module, attribute) pairs still bound to a benchmark wrapper."""
    return [
        (module.__name__, attr)
        for module in circdmd_namespaces()
        for attr, value in vars(module).items()
        if getattr(value, "bench_wrapper", False)
    ]


# --- count hooks: (counter, bound arguments, result) -------------------------

def _stack(counter, args, result):
    counter["embedding.stack_mb"] += result.values.nbytes / MB


def _snapshot_svd(counter, args, result):
    rows, cols = args["matrix"].shape
    counter["spectral.gram_dim"] = max(counter["spectral.gram_dim"], min(rows, cols))
    counter["spectral.rank"] = max(counter["spectral.rank"], result.rank)


def _reconstruct(counter, args, result):
    rows = args["spectrum"].modes.shape[0]
    counter["spectral.reconstruct_mb"] += rows * args["horizon"] * 16 / MB


def _admm(counter, args, result):
    counter["sparsity.admm_calls"] += 1
    counter["sparsity.admm_converged"] += int(result.converged)
    counter["sparsity.admm_iterations"] += result.iterations
    counter["sparsity.nnz"] += result.nonzero_count


def _load_matrix(counter, args, result):
    counter["datamodel.load_matrix_calls"] += 1
    counter["datamodel.load_matrix_mb"] += os.path.getsize(args["path"]) / MB


def _load_bundle(counter, args, result):
    counter["cli.load_bundle_calls"] += 1


def _save_bundle(counter, args, result):
    size = sum(p.stat().st_size for p in Path(args["outdir"]).iterdir())
    counter["cli.bundle_mb"] += size / MB


HOOKS = {
    "embedding.anti_circulant": _stack,
    "embedding.apply_right_permutation": _stack,
    "embedding.hankel": _stack,
    "spectral.snapshot_svd": _snapshot_svd,
    "spectral.reconstruct": _reconstruct,
    "sparsity.admm_sparsify": _admm,
    "datamodel.load_matrix": _load_matrix,
    "cli.load_bundle": _load_bundle,
    "cli.save_bundle": _save_bundle,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id")

    def __init__(self, name, parent, pass_id):
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = time.perf_counter_ns()
        self.end = None


class Recorder:
    """In-memory spans and per-pass counts for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.pass_id = None
        self._open = []
        self._patch = Patch()

    @contextmanager
    def span(self, name):
        span = Span(name, self._open[-1] if self._open else None, self.pass_id)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts[self.pass_id], signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.bench_wrapper = True
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function in LAYERS for the duration of the block."""
        try:
            for layer, functions in LAYERS.items():
                module = importlib.import_module(f"circdmd.{layer}")
                for fn_name in functions:
                    original = getattr(module, fn_name)
                    self._patch.replace(original, self.wrap(f"{layer}.{fn_name}", original))
            yield self
        finally:
            self._patch.restore()

    def self_times(self):
        """Self time in ns of every span: its duration minus its children's."""
        children = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        return [(s.end - s.start) - c for s, c in zip(self.spans, children)]

    def pass_values(self, pass_id):
        """Per-layer metrics of one pass: span totals, self times and counts."""
        total = Counter()
        own = Counter()
        spans = 0
        for span, self_ns in zip(self.spans, self.self_times()):
            if span.pass_id == pass_id:
                spans += 1
                total[span.name] += span.end - span.start
                own[span.name] += self_ns
        values = {f"{name}_s": total[name] / 1e9 for name in FUNCTIONS}
        values.update({f"{name}_self_s": own[name] / 1e9 for name in SELF_TIMED})
        counter = self.counts[pass_id]
        values.update({name: counter[name] for name in COUNTS})
        calls = counter["sparsity.admm_calls"]
        values["sparsity.admm_converged_frac"] = (
            counter["sparsity.admm_converged"] / calls if calls else 0
        )
        values["trace.spans"] = spans
        return values

    def dump(self, path, extra):
        record = dict(extra)
        record["spans"] = [
            [s.name, s.start, s.end, s.parent, s.pass_id] for s in self.spans
        ]
        record["span_fields"] = ["name", "start_ns", "end_ns", "parent", "pass"]
        Path(path).write_text(json.dumps(record) + "\n")
