"""Span tracing for the traced benchmark run.

Spans are recorded from outside the package: :func:`install` rebinds public
function names in the modules that look them up (``triptych.cli`` calls
``read_table`` through its own module global, ``triptych.methods`` calls
``decompose`` through its own, and so on), so every call into a layer opens
a span without any change to the package.  Spans stay in memory until the
run ends.

Each span records its wall interval, its parent and optional counts taken
from the call's arguments or result.  Spans of the layers in
:data:`MEMORY_LAYERS` also record the peak of ``tracemalloc``-traced memory
above what was allocated when the span opened; tracemalloc runs only inside
those spans, because it slows every Python allocation (the table parser's
per-cell loop most of all).  A span's self time is its duration minus the
durations of its child spans (calls nest and run on one thread, so children
never overlap).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MEMORY_LAYERS = ("graph", "linalg", "compare")


class Tracer:
    """In-memory recorder of nested call spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        # One [traced bytes at entry, highest peak seen so far] per open span
        # while tracemalloc runs; its single peak register is shared, so each
        # span resets it on entry and hands its own peak up on exit.
        self._mem: list[list[int]] = []

    def call(self, name, fn, args, kwargs, counter=None):
        span = {"name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        starts_tracing = (not tracemalloc.is_tracing()
                          and name.split(".")[0] in MEMORY_LAYERS)
        if starts_tracing:
            tracemalloc.start()
        tracing_memory = tracemalloc.is_tracing()
        if tracing_memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        self._open.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            if tracing_memory:
                entry, carried = self._mem.pop()
                top = max(carried, tracemalloc.get_traced_memory()[1])
                span["peak_bytes"] = top - entry
                if self._mem:
                    self._mem[-1][1] = max(self._mem[-1][1], top)
            if starts_tracing:
                tracemalloc.stop()
        if counter is not None:
            span.update(counter(args, kwargs, result))
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced


# --- counts taken at the layer boundaries ----------------------------------

def _cells(args, kwargs, ds):
    return {"cells": int(ds.matrix.size)}


def _edges(args, kwargs, g):
    return {"edges": int(g.n_edges)}


def _written(args, kwargs, result):
    out = {"bytes": os.path.getsize(args[0])}
    if args[0].endswith("_rows.tsv"):
        out["axes_written"] = int(np.shape(args[2])[1])
    return out


def _adjacency(args, kwargs, g):
    rows, cols = np.shape(args[0] if args else kwargs["adjacency"])
    return {"adjacency_bytes": 8 * rows * cols}


def _nxn(data, weights):
    n = np.shape(data)[0]
    return {"nxn_bytes": 8 * n * n if np.shape(weights) == (n, n) else 0}


def _nxn_make_triple(args, kwargs, t):
    return _nxn(t.data, t.weights)


def _nxn_of_triple(args, kwargs, result):
    t = args[0]
    return _nxn(t.data, t.weights)


def _nxn_gram(args, kwargs, result):
    weights = args[2] if len(args) > 2 else kwargs["weights"]
    return _nxn(args[0], weights)


def _n_axes(args, kwargs, result):
    return {"n_axes": int(result.decomposition.n_axes)}


_METHODS = ("pca", "ca", "lda", "pcaiv", "cca")
_CLI = "triptych.cli"

# (module that looks the name up, name, span, counter)
BINDINGS = [
    (_CLI, "read_table", "io.read_table", _cells),
    (_CLI, "read_weights", "io.read_weights", None),
    (_CLI, "read_edges", "io.read_edges", _edges),
    (_CLI, "write_scree", "io.write", _written),
    (_CLI, "write_coordinates", "io.write", _written),
    (_CLI, "write_manifest", "io.write", _written),
    ("triptych.io", "make_graph", "graph.make_graph", _adjacency),
    ("triptych.graph", "make_graph", "graph.make_graph", _adjacency),
    (_CLI, "component_subgraphs", "graph.component_subgraphs", None),
    (_CLI, "spectrum", "graph.spectrum", None),
    ("triptych.graph", "spectrum", "graph.spectrum", None),
    (_CLI, "layout", "graph.layout", None),
    (_CLI, "regress_on_covariates", "graph.regress_on_covariates", _n_axes),
    (_CLI, "local_variance", "graph.geary", None),
    (_CLI, "classical_geary", "graph.geary", None),
    (_CLI, "geary", "graph.geary", None),
    ("triptych.graph", "pcaiv", "methods.pcaiv", None),
    ("triptych.methods", "make_triple", "linalg.make_triple", _nxn_make_triple),
    ("triptych.methods", "center_columns", "linalg.center_columns", _nxn_of_triple),
    ("triptych.methods", "decompose", "linalg.decompose", _nxn_of_triple),
    ("triptych.methods", "decompose_gram_metric", "linalg.decompose_gram_metric", _nxn_gram),
    *[(_CLI, m, f"methods.{m}", _n_axes) for m in _METHODS],
    # The benchmark's own in-process calls look names up in the package.
    *[("triptych", m, f"methods.{m}", _n_axes) for m in _METHODS],
    ("triptych", "spectrum", "graph.spectrum", None),
    ("triptych", "layout", "graph.layout", None),
    ("triptych", "regress_on_covariates", "graph.regress_on_covariates", _n_axes),
    ("triptych", "local_variance", "graph.geary", None),
    ("triptych", "classical_geary", "graph.geary", None),
    ("triptych", "geary", "graph.geary", None),
    ("triptych", "rv_triples", "compare.rv_triples", None),
]


def install(tracer: Tracer):
    """Rebind every name in :data:`BINDINGS` to a tracing wrapper; returns a
    function that puts the original functions back."""
    saved = []
    for module_name, attr, span, counter in BINDINGS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span, original, counter))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


# --- aggregation ------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, children)]


SELF_SPANS = (
    "cli", "io.read_table", "io.write", "io.read_edges", "graph.make_graph",
    "graph.component_subgraphs", "graph.spectrum", "graph.layout",
    "graph.regress_on_covariates", "graph.geary", "linalg.make_triple",
    "linalg.center_columns", "linalg.decompose", "linalg.decompose_gram_metric",
    *[f"methods.{m}" for m in _METHODS],
)


def analysis_metrics(analyses: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics over traced CLI analyses, one span list each.

    Times and counts are means per analysis; rates divide a count by the
    layer's total self time; peaks are the largest seen in any span of the
    layer.
    """
    n = max(len(analyses), 1)
    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    peak: dict[str, int] = defaultdict(int)
    axes_written = axes_computed = 0
    for spans in analyses:
        method_axes = None
        rows_written = 0
        for s, t in zip(spans, self_times(spans)):
            name = s["name"]
            self_s[name] += t
            for key in ("cells", "edges", "bytes", "adjacency_bytes", "nxn_bytes"):
                total[key] += s.get(key, 0)
            total["spectrum_calls"] += name == "graph.spectrum"
            layer = name.split(".")[0]
            peak[layer] = max(peak[layer], s.get("peak_bytes", 0))
            if s["parent"] == 0 and "n_axes" in s:
                method_axes = s["n_axes"]
            rows_written += s.get("axes_written", 0)
        if method_axes is not None:
            axes_written += rows_written
            axes_computed += method_axes
    metrics = {f"{name}.self_s": self_s[name] / n for name in SELF_SPANS}
    metrics["io.read_table.cells_per_s"] = _rate(total["cells"], self_s["io.read_table"])
    metrics["io.write.bytes"] = total["bytes"] / n
    metrics["io.read_edges.edges_per_s"] = _rate(total["edges"], self_s["io.read_edges"])
    metrics["graph.adjacency_bytes"] = total["adjacency_bytes"] / n
    metrics["graph.spectrum.calls_per_op"] = total["spectrum_calls"] / n
    metrics["graph.peak_mb"] = peak["graph"] / 1e6
    metrics["linalg.nxn_bytes"] = total["nxn_bytes"] / n
    metrics["linalg.peak_mb"] = peak["linalg"] / 1e6
    metrics["linalg.axes_kept_ratio"] = axes_written / axes_computed if axes_computed else 0.0
    return metrics


def rv_metrics(calls: list[list[dict]]) -> dict[str, float]:
    """compare-layer metrics over traced in-process rv_triples calls."""
    spans = [s for spans in calls for s in spans if s["name"] == "compare.rv_triples"]
    selfs = [t for spans in calls for s, t in zip(spans, self_times(spans))
             if s["name"] == "compare.rv_triples"]
    return {
        "compare.rv_triples.self_s": sum(selfs) / len(selfs) if selfs else 0.0,
        "compare.peak_mb": max((s.get("peak_bytes", 0) for s in spans), default=0) / 1e6,
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def import_buckets(importtime_stderr: str) -> dict[str, float]:
    """Seconds of import self time per package from ``-X importtime`` output.

    A module's self time goes to numpy, scipy or triptych when its name
    starts with that package, otherwise to the package of the nearest
    enclosing import (so the stdlib modules numpy pulls in count as numpy).
    """
    buckets: dict[str, float] = defaultdict(float)
    stack: list[tuple[int, str | None]] = []
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((int(self_us), depth, name.strip()))
    # -X importtime prints a module after its nested imports; read it in
    # reverse so each parent comes before its children.
    for self_us, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        owner = package if package in ("numpy", "scipy", "triptych") else (
            stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner is not None:
            buckets[owner] += self_us / 1e6
    return buckets
