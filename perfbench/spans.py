"""Span recorder that traces pqscan from outside the library.

Library modules import their helpers by name (``from .scan import
scan_distances``), so a function is traced by replacing that name in the
namespace of the module that calls it. ``Tracer.install`` does this for every
layer boundary the benchmark reports and ``Tracer.remove`` puts the original
objects back, so an untraced run calls unmodified library code.

A span records its name, start, end, parent span and query id. Spans stay in
memory until ``write`` dumps them at the end of a run. A layer's self time is
its span duration minus the time its child spans cover; the process is single
threaded, so children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from importlib import import_module
from time import perf_counter

# The package re-exports functions named like some of its modules (pqscan.scan
# is the scan function), so the modules are looked up by their full names.
_derived, _fastscan, _ivf, _quantizer, _quickadc, _scan = (
    import_module(f"pqscan.{name}")
    for name in ("derived", "fastscan", "ivf", "quantizer", "quickadc", "scan")
)


# (module, attribute, span name) for every boundary inside the library.
# Functions the benchmark itself calls are traced with Tracer.call instead.
LIBRARY_BOUNDARIES = [
    (_scan, "scan_distances", "scan.scan_distances"),
    (_fastscan, "scan_distances", "scan.scan_distances"),
    (_quickadc, "scan_distances", "scan.scan_distances"),
    (_derived, "scan_distances", "scan.scan_distances"),
    (_ivf, "compute_tables", "scan.compute_tables"),
    (_ivf, "scan", "scan.scan"),
    (_ivf, "transpose_blocks", "scan.relayout"),
    (_quickadc, "detranspose_blocks", "scan.relayout"),
    (_fastscan.GroupedDatabase, "reconstruct_codes", "fastscan.reconstruct"),
    (_ivf, "qadc_scan", "quickadc.qadc_scan"),
    (_quickadc, "quantized_distances", "quickadc.quantized_distances"),
    (_derived, "compute_compact_tables", "derived.compact_tables"),
    (_derived, "quantize_compact_tables", "derived.quantize_tables"),
    (_derived, "scan_candidates", "derived.first_pass"),
    (_derived, "rerank", "derived.rerank"),
    (_ivf, "nearest_k", "dist.nearest_k"),
    (_ivf, "nearest", "dist.nearest"),
    (_ivf, "kmeans", "quantizer.kmeans"),
    (_quantizer, "_kmeans_seeded", "quantizer.kmeans"),
    (_derived, "_kmeans_seeded", "quantizer.kmeans"),
    (_fastscan, "same_size_kmeans", "quantizer.same_size_kmeans"),
    (_derived, "same_size_kmeans", "quantizer.same_size_kmeans"),
    (_ivf, "train_pq", "quantizer.train"),
    (_ivf, "encode", "quantizer.encode"),
]

# Counts read from a span's return value once the query has finished, so no
# timed region pays for them.
COUNTS = {
    "scan.scan_distances": lambda out: {"scan.rows_distanced": len(out)},
    "derived.first_pass": lambda out: {"derived.candidates": len(out)},
    "fastscan.fast_scan": lambda out: {
        "fastscan.pruned": out[1].pruned, "fastscan.total": out[1].total},
    "derived.lazy_tables": lambda out: {"derived.table_entries": out.computed},
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self.query = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._returned: list[tuple[str, object]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.query])
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()
        if name in COUNTS:
            self._returned.append((name, out))
        return out

    def _traced(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def settle(self) -> None:
        """Add the counts of every object returned since the last call."""
        for name, out in self._returned:
            for key, value in COUNTS[name](out).items():
                self.counts[key] += value
        self._returned.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Route every library boundary through this tracer."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in LIBRARY_BOUNDARIES:
            self._patch(owner, attr, self._traced(name, owner.__dict__[attr]))
        push = _scan.NeighborSet.push
        lazy_cls = _derived.LazyTables

        def counted_push(nset, distance, ident):
            self.counts["scan.push_calls"] += 1
            return push(nset, distance, ident)

        def captured_lazy(*args, **kwargs):
            lazy = lazy_cls(*args, **kwargs)
            self._returned.append(("derived.lazy_tables", lazy))
            return lazy

        self._patch(_scan.NeighborSet, "push", counted_push)
        self._patch(_derived, "LazyTables", captured_lazy)

    def remove(self) -> None:
        """Restore the original library objects."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, lo: int, hi: int) -> dict[str, tuple[float, int]]:
        """Per span name over spans[lo:hi]: (total self seconds, span count)."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans[lo:hi]:
            child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for idx in range(lo, hi):
            name, start, end, _, _ = self.spans[idx]
            acc = out[name]
            acc[0] += (end - start) - child[idx]
            acc[1] += 1
        return {name: (acc[0], acc[1]) for name, acc in out.items()}

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as f:
            for name, start, end, parent, query in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "query": query}) + "\n")
