"""Seeded query and build benchmark for pqscan.

    python3 perfbench/run.py --workload flat-8x8 --seed 1 --seconds 10 --trace 0

Builds the workload's index from data generated from --seed (``setup_s``),
then runs one closed-loop client for --seconds: each query goes through the
workload's kernel path and its ref path, in alternating order, and the next
query is sent only after both return. Every result is checked afterwards.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end metrics named in BENCHMARK.json. With --trace 1
every query also runs both paths again under a span recorder that wraps the
library's module boundaries, and the metrics are the per-layer ones; the
spans are written to perfbench/out/. The lines before the last one print
every metric by name and unit, the sample counts and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
import zlib
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

WARMUP = 4
POOL = 4000
# host_pace runs this long before and after the build. PACE_REF_S is its
# mean step time on the reference host (see README); setup_s is the build's
# wall time scaled by PACE_REF_S over the pace measured around it.
PACE_SECONDS = 2.0
PACE_REF_S = 0.0057
RECALL_RANKS = (1, 10, 100)

# name -> unit, for every end-to-end metric the runner computes.
END_TO_END = {
    "kernel_p50_ms": "ms", "kernel_p90_ms": "ms", "kernel_p99_ms": "ms",
    "kernel_qps": "1/s", "ref_p50_ms": "ms", "ref_p90_ms": "ms", "ref_p99_ms": "ms",
    "ref_qps": "1/s",
    "recall_at_1": "fraction", "recall_at_10": "fraction",
    "recall_at_100": "fraction", "ref_recall_at_100": "fraction",
    "recall_parity_at_100": "fraction", "setup_s": "s", "index_bytes_per_vector": "B", "failed_frac": "fraction",
}

# Per-layer metrics computed from span self times, in ms per query or s per
# build: metric -> span name.
QUERY_MS = {
    "scan.compute_tables_ms": "scan.compute_tables",
    "scan.scan_distances_ms": "scan.scan_distances",
    "scan.select_ms": "scan.scan",
    "scan.relayout_ms": "scan.relayout",
    "fastscan.fast_scan_ms": "fastscan.fast_scan",
    "fastscan.reconstruct_ms": "fastscan.reconstruct",
    "quickadc.qadc_scan_ms": "quickadc.qadc_scan",
    "quickadc.quantized_distances_ms": "quickadc.quantized_distances",
    "derived.compact_tables_ms": "derived.compact_tables",
    "derived.quantize_tables_ms": "derived.quantize_tables",
    "derived.first_pass_ms": "derived.first_pass",
    "derived.rerank_ms": "derived.rerank",
    "ivf.query_ms": "ivf.query",
    "dist.nearest_k_ms": "dist.nearest_k",
}
BUILD_S = {
    "fastscan.relabel_s": "fastscan.relabel",
    "fastscan.group_s": "fastscan.group",
    "derived.train_s": "derived.train",
    "ivf.build_s": "ivf.build",
    "dist.nearest_s": "dist.nearest",
    "quantizer.train_s": "quantizer.train",
    "quantizer.kmeans_s": "quantizer.kmeans",
    "quantizer.same_size_kmeans_s": "quantizer.same_size_kmeans",
    "quantizer.encode_s": "quantizer.encode",
}
# Counts per query, read from returned objects after the query.
QUERY_COUNTS = (
    "scan.rows_distanced", "scan.push_calls", "derived.candidates",
    "derived.table_entries", "ivf.cells_visited", "ivf.codes_visited",
)
PER_LAYER_UNITS = {
    **{k: "ms" for k in QUERY_MS},
    **{k: "s" for k in BUILD_S},
    **{k: "count" for k in QUERY_COUNTS},
    "scan.compute_tables_calls": "count",
    "fastscan.pruned_frac": "fraction",
    "derived.table_entry_frac": "fraction",
    "ivf.short_results": "count",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}
PATHS = ("kernel", "ref")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # else git reports an enclosing repository
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }


def make_inputs(wl, seed: int):
    """Base, warm-up queries, query pool and training seed from one seed."""
    import numpy as np
    from pqscan import generate_synthetic
    from workloads import N

    ss = np.random.SeedSequence([seed, zlib.crc32(wl.name.encode())])
    data_seed, train_seed = (int(v) for v in ss.generate_state(2))
    rows = generate_synthetic(N + WARMUP + POOL, wl.d, wl.clusters, data_seed)
    return rows[:N], rows[N : N + WARMUP], rows[N + WARMUP :], train_seed


def host_pace(seconds: float) -> list[float]:
    """Times of one fixed k-means assignment step, repeated for ``seconds``.

    The step is what dominates every build (scipy ``cdist`` plus ``argmin``
    at the 8x8 PQ's sub-space shape) but calls no pqscan code, so no change
    to the library moves it. The shared host runs everything up to twice as
    fast for minutes at a time; the pace measures that phase.
    """
    import numpy as np
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(0)
    points, centroids = rng.random((2048, 16)), rng.random((256, 16))
    times = []
    end = perf_counter() + seconds
    while not times or perf_counter() < end:
        t0 = perf_counter()
        np.argmin(cdist(points, centroids, "sqeuclidean"), axis=1)
        times.append(perf_counter() - t0)
    return times


class Runner:
    """Closed-loop client: one query at a time through both paths."""

    def __init__(self, wl, state, tracer=None):
        self.wl, self.state, self.tracer = wl, state, tracer
        self.errors = 0

    def _path(self, path: str, q, traced: bool):
        """(result as (distances, ids) arrays, seconds), or (None, None) if it raised."""
        fn = getattr(self.wl, path)
        t0 = perf_counter()
        try:
            if traced:
                out = self.tracer.call(f"bench.{path}", fn, self.state, q, self.tracer.call)
            else:
                out = fn(self.state, q)
        except Exception:  # a failed operation is counted, not fatal
            if self.errors == 0:
                traceback.print_exc(file=sys.stderr)
            self.errors += 1
            return None, None
        elapsed = perf_counter() - t0
        # Compact arrays keep the garbage collector's work out of later queries.
        return out.to_arrays(), elapsed

    def query(self, i: int, q) -> dict:
        order = PATHS if i % 2 == 0 else PATHS[::-1]
        rec = {}
        for path in order:
            rec[path] = self._path(path, q, traced=False)
        if self.tracer is not None:
            self.tracer.query = i
            self.tracer.install()
            try:
                for path in order:
                    rec["traced_" + path] = self._path(path, q, traced=True)
            finally:
                self.tracer.remove()
            self.tracer.settle()
            for key, value in self.wl.visits(self.state, q).items():
                self.tracer.counts[key] += value
        return rec

    def loop(self, pool, seconds: float) -> list[dict]:
        records = []
        start = perf_counter()
        while not records or perf_counter() - start < seconds:
            i = len(records)
            records.append(self.query(i, pool[i % len(pool)]))
        return records


def items(result):
    """(distance, id) pairs of a stored result, None for a raised operation."""
    return None if result is None else list(zip(result[0].tolist(), result[1].tolist()))


def latency_metrics(records, path: str, prefix: str) -> dict:
    """Median, tail and throughput of one path's successful operations."""
    import numpy as np

    lat = np.array([r[path][1] for r in records if r[path][1] is not None])
    return {
        f"{prefix}_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        f"{prefix}_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        f"{prefix}_p99_ms": float(np.percentile(lat, 99)) * 1e3,
        f"{prefix}_qps": lat.size / float(lat.sum()),
    }


def recall(records, path: str, truth, rank: int) -> float:
    """Recall@rank of one path against the exact 1-NN of each query."""
    import numpy as np
    from pqscan import GroundTruth, recall_at_r
    from checks import padded_ids
    from workloads import R

    ids = np.stack([padded_ids(items(rec[path][0]), R) for rec in records])
    gt = GroundTruth(ids=truth[:, None], distances=np.zeros((truth.size, 1)))
    return recall_at_r(ids, gt, rank)


def per_layer(wl, tracer, build_end: int, records, tally) -> dict:
    """Every per-layer metric from the traced run's spans and counts."""
    import numpy as np

    nq = len(records)
    build = tracer.self_times(0, build_end)
    query = tracer.self_times(build_end, len(tracer.spans))
    out = {k: query.get(v, (0.0, 0))[0] * 1e3 / nq for k, v in QUERY_MS.items()}
    out.update({k: build.get(v, (0.0, 0))[0] for k, v in BUILD_S.items()})
    out.update({k: tracer.counts.get(k, 0.0) / nq for k in QUERY_COUNTS})
    out["scan.compute_tables_calls"] = query.get("scan.compute_tables", (0.0, 0))[1] / nq
    total = tracer.counts.get("fastscan.total", 0.0)
    out["fastscan.pruned_frac"] = tracer.counts.get("fastscan.pruned", 0.0) / total if total else 0.0
    full = wl.FULL_TABLE
    out["derived.table_entry_frac"] = out["derived.table_entries"] / full if full else 0.0
    out["ivf.short_results"] = 2 * tally.short / tally.attempted
    # Only the reported layers count: self time of an entry point no metric
    # names (such as derived.two_pass) lowers the figure.
    traced_ms = sum(r["traced_" + p][1] or 0.0 for r in records for p in PATHS) * 1e3 / nq
    out["trace.coverage_frac"] = sum(out[k] for k in QUERY_MS) / traced_ms
    traced = np.median([r["traced_kernel"][1] for r in records if r["traced_kernel"][1]])
    plain = np.median([r["kernel"][1] for r in records if r["kernel"][1]])
    out["trace.overhead_frac"] = float(traced / plain) - 1.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pqscan" / "__init__.py").is_file():
        print(f"error: pqscan sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from checks import Tally, nearest_ids
    from spans import Tracer
    from workloads import N, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    phases, mark = {}, perf_counter()

    def lap(name):
        nonlocal mark
        now = perf_counter()
        phases[name], mark = now - mark, now

    base, warm, pool, train_seed = make_inputs(wl, args.seed)
    lap("inputs")
    tracer = Tracer() if args.trace else None
    pace = host_pace(PACE_SECONDS)
    t0 = perf_counter()
    if tracer is None:
        state = wl.build(base, train_seed)
    else:
        tracer.install()
        try:
            state = tracer.call("bench.setup", wl.build, base, train_seed, tracer.call)
        finally:
            tracer.remove()
    build_s = perf_counter() - t0
    pace += host_pace(PACE_SECONDS)
    pace_s = statistics.fmean(pace)  # the mean, as the build's time is a sum of steps
    if tracer is not None:
        tracer.settle()
    build_end = len(tracer.spans) if tracer else 0
    lap("setup")

    runner = Runner(wl, state, tracer)
    for i, q in enumerate(warm):
        runner.query(i, q)
    # Objects built so far live for the whole run; keep them out of every
    # garbage collection the timed loop triggers.
    gc.collect()
    gc.freeze()
    if tracer is not None:
        del tracer.spans[build_end:]
        tracer.counts.clear()
    lap("warmup")
    records = runner.loop(pool, args.seconds)
    lap("loop")

    tally = Tally()
    for i, rec in enumerate(records):
        q = pool[i % len(pool)]
        wl.check(state, q, items(rec["kernel"][0]), items(rec["ref"][0]), tally)
        if tracer is not None:
            wl.check(state, q, items(rec["traced_kernel"][0]),
                     items(rec["traced_ref"][0]), tally)
    lap("check")
    truth = nearest_ids(base, pool[: min(len(records), len(pool))])
    truth = truth[[i % len(pool) for i in range(len(records))]]
    lap("truth")

    e2e = {
        **latency_metrics(records, "kernel", "kernel"),
        **latency_metrics(records, "ref", "ref"),
        **{f"recall_at_{R}": recall(records, "kernel", truth, R) for R in RECALL_RANKS},
        "ref_recall_at_100": recall(records, "ref", truth, 100),
        "setup_s": build_s * PACE_REF_S / pace_s,
        "index_bytes_per_vector": wl.index_bytes(state) / N,
        "failed_frac": tally.failed / tally.attempted,
    }
    ref_recall = e2e["ref_recall_at_100"]
    e2e["recall_parity_at_100"] = e2e["recall_at_100"] / ref_recall if ref_recall else 1.0

    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# build wall s {build_s:.3f}, host pace ms {pace_s * 1e3:.4f} "
          f"(reference {PACE_REF_S * 1e3:.4f})")
    print(f"# queries {len(records)} (each through both paths), "
          f"attempted {tally.attempted}, failed {tally.failed}, short {tally.short}")
    print("# phase seconds " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    for reason, count in sorted(tally.reasons.items()):
        print(f"# failure: {reason}: {count}")
    print(f"# env {json.dumps(environment())}")
    for name, unit in END_TO_END.items():
        print(f"{name} {e2e[name]:.6g} {unit}")

    if tracer is None:
        wanted, units, values = config["end_to_end"], END_TO_END, e2e
    else:
        values = per_layer(wl, tracer, build_end, records, tally)
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name} {values[name]:.6g} {unit}")
        wanted, units = config["per_layer"], PER_LAYER_UNITS
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One client on a small machine: keep BLAS single-threaded. This must
    # happen before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.exit(main())
