"""Command-line front end: data generation, training, indexing, querying,
and CSV benchmark reports."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from ._binio import FormatError
from .data import (
    GroundTruth,
    exact_knn,
    generate_synthetic,
    read_vecs,
    recall_at_r,
    write_vecs,
)
from .ivf import (
    KERNELS,
    _sample_rows,
    build_ivf,
    check_kernel,
    check_kernel_shape,
    check_search_args,
    check_train_options,
    default_r2,
    load_ivf,
    query_ivf_stats,
    save_ivf,
    scan_lists,
    train_quantizer,
)
from .quantizer import (
    DerivedPQ,
    TrainConfig,
    TrainError,
    encode,
    load_quantizer,
    save_quantizer,
)
from .scan import CodeList, load_codes, save_codes

BENCH_HEADER = (
    "method",
    "m",
    "b",
    "K",
    "ma",
    "r",
    "r2",
    "recall",
    "mean_ms",
    "median_ms",
    "mcodes_per_s",
    "pruned_fraction",
)


def _read_auto(path: str) -> np.ndarray:
    kind = Path(path).suffix.lower().lstrip(".")
    if kind not in ("fvecs", "bvecs", "ivecs"):
        raise ValueError(f"cannot infer vector format from extension: {path}")
    return read_vecs(path, kind)


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(
        kmeans_iters=args.iters,
        opq_iters=getattr(args, "opq_iters", TrainConfig.opq_iters),
        seed=args.seed,
    )


def cmd_generate(args) -> int:
    vecs = generate_synthetic(args.n, args.d, args.clusters, args.seed)
    if args.kind == "bvecs":
        vecs = np.clip(np.rint(vecs), 0, 255).astype(np.uint8)
    write_vecs(args.out, vecs, args.kind)
    print(f"wrote {args.n} x {args.d} {args.kind} to {args.out}")
    return 0


def cmd_train(args) -> int:
    base = _read_auto(args.base)
    rng = np.random.default_rng(args.seed)
    size = args.sample if args.sample > 0 else base.shape[0]
    training = base[_sample_rows(rng, base.shape[0], size)].astype(np.float64)
    pq = train_quantizer(training, args.m, args.b, _train_cfg(args), args.opq, args.bderived)
    save_quantizer(args.out, pq)
    if isinstance(pq, DerivedPQ):
        print(f"trained derived {args.m}x{args.bderived},{args.b} -> {args.out}")
    else:
        print(f"trained {'opq' if args.opq else 'pq'} {args.m}x{args.b} -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    base = _read_auto(args.base)
    pq = load_quantizer(args.quantizer)
    save_codes(args.out, CodeList(encode(pq, base), m=pq.m), pq.b)
    print(f"encoded {base.shape[0]} codes -> {args.out}")
    return 0


def cmd_build_ivf(args) -> int:
    base = _read_auto(args.base)
    index = build_ivf(
        base, args.K, args.m, args.b, _train_cfg(args), use_opq=args.opq, bderived=args.bderived
    )
    save_ivf(args.out, index)
    print(f"built ivf K={args.K} over {index.n} codes -> {args.out}")
    return 0


def cmd_ground_truth(args) -> int:
    base = _read_auto(args.base).astype(np.float64)
    queries = _read_auto(args.queries).astype(np.float64)
    truth = exact_knn(base, queries, args.k)
    write_vecs(args.out, truth.ids.astype(np.int32), "ivecs")
    if args.distances_out:
        write_vecs(args.distances_out, truth.distances.astype(np.float32), "fvecs")
    print(f"wrote {truth.n_queries} x {args.k} ground truth to {args.out}")
    return 0


def _load_truth(path: str, n_queries: int) -> GroundTruth:
    ids = _read_auto(path)
    if ids.shape[0] < n_queries:
        raise ValueError(
            f"ground truth covers {ids.shape[0]} queries, need {n_queries}"
        )
    ids = ids[:n_queries].astype(np.int64)
    return GroundTruth(ids=ids, distances=np.zeros(ids.shape, dtype=np.float64))


def _exhaustive_search_fn(args, pq, codelist: CodeList):
    """Returns a per-query search fn -> (NeighborSet, ScanStats)."""
    kernel = check_kernel(args.kernel, pq)
    return lambda q: scan_lists(pq, [codelist], q[None, :], args.r, kernel, args.r2)


def _index_search_fn(args, index):
    """Returns a per-query search fn over an inverted index, as above."""
    return lambda q: query_ivf_stats(index, q, args.ma, args.r, args.kernel, args.r2)


def cmd_query(args) -> int:
    queries = _read_auto(args.queries).astype(np.float64)
    # validate inputs and build the search closure before any output
    check_search_args(args.r, args.r2)
    if args.index:
        run = _index_search_fn(args, load_ivf(args.index))
    else:
        if not (args.codes and args.quantizer):
            raise ValueError("need either --index or both --codes and --quantizer")
        pq = load_quantizer(args.quantizer)
        codelist, b = load_codes(args.codes)
        if (codelist.m, b) != (pq.m, pq.b):
            raise ValueError(
                f"codes are {codelist.m}x{b} but the quantizer is {pq.m}x{pq.b}"
            )
        run = _exhaustive_search_fn(args, pq, codelist)
    results = [run(q)[0].to_arrays() for q in queries]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("query", "rank", "id", "distance"))
    for qi, (dists, ids) in enumerate(results):
        for rank, (dist, ident) in enumerate(zip(dists.tolist(), ids.tolist())):
            writer.writerow((qi, rank, ident, f"{dist:.9g}"))
    return 0


def _run_timed(run, queries: np.ndarray):
    """(seconds, result) of each query, one at a time after a warm-up call."""
    def timed(q):
        t0 = time.perf_counter()
        out = run(q)
        return time.perf_counter() - t0, out

    run(queries[0])
    return [timed(q) for q in queries]


def cmd_bench(args) -> int:
    base = _read_auto(args.base).astype(np.float64)
    if base.shape[0] == 0:
        raise ValueError("empty base")
    queries = _read_auto(args.queries).astype(np.float64)
    if queries.shape[0] == 0:
        raise ValueError("empty query set")
    if queries.shape[1] != base.shape[1]:
        raise ValueError(f"query dimensionality {queries.shape[1]}, expected {base.shape[1]}")
    truth = _load_truth(args.truth, queries.shape[0])
    check_kernel_shape(args.kernel, args.m, args.b, args.bderived is not None)
    check_search_args(args.r, args.r2, args.K, args.ma)
    check_train_options(base.shape, args.m, args.b, args.opq, args.bderived)
    cfg = _train_cfg(args)
    rng = np.random.default_rng(args.seed)
    r = args.r
    r2_used = ""
    if args.kernel == "derived":
        r2_used = default_r2(r) if args.r2 is None else args.r2
    if args.K is not None:
        index = build_ivf(
            base, args.K, args.m, args.b, cfg, use_opq=args.opq, bderived=args.bderived
        )
        run = _index_search_fn(args, index)
        method = f"ivf-{args.kernel}"
        k_col, ma_col = args.K, args.ma
    else:
        rows = _sample_rows(rng, base.shape[0], 100 * (1 << args.b))
        pq = train_quantizer(base[rows], args.m, args.b, cfg, args.opq, args.bderived)
        codelist = CodeList(encode(pq, base), m=pq.m)
        run = _exhaustive_search_fn(args, pq, codelist)
        method = args.kernel
        k_col, ma_col = "", ""

    outcomes = _run_timed(run, queries)
    times = np.array([t for t, _ in outcomes], dtype=np.float64)
    result_ids = np.full((queries.shape[0], r), -1, dtype=np.int64)
    pruned_total = 0
    codes_total = 0
    for qi, (_, (found, stats)) in enumerate(outcomes):
        ids = found.to_arrays()[1]
        result_ids[qi, : ids.shape[0]] = ids
        codes_total += stats.total
        pruned_total += stats.pruned
    recall = recall_at_r(result_ids, truth, r)
    mean_ms = float(times.mean() * 1e3)
    median_ms = float(np.median(times) * 1e3)
    mcodes = codes_total / float(times.sum()) / 1e6
    pruned_col = ""
    if args.kernel == "quick-adc":
        pruned_col = f"{pruned_total / max(1, codes_total):.4f}"
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(BENCH_HEADER)
    writer.writerow(
        (
            method,
            args.m,
            args.b,
            k_col,
            ma_col,
            r,
            r2_used,
            f"{recall:.4f}",
            f"{mean_ms:.3f}",
            f"{median_ms:.3f}",
            f"{mcodes:.2f}",
            pruned_col,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqscan",
        description="Product-quantization nearest-neighbor toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several commands, declared once so their defaults agree.
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--base", required=True)
    training.add_argument("--m", type=int, required=True)
    training.add_argument("--b", type=int, required=True)
    training.add_argument("--bderived", type=int, default=None)
    training.add_argument("--opq", action="store_true")
    training.add_argument("--iters", type=int, default=TrainConfig.kmeans_iters)
    training.add_argument("--seed", type=int, default=TrainConfig.seed)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--queries", required=True)
    search.add_argument("--ma", type=int, default=8)
    search.add_argument("--kernel", choices=KERNELS, default="adc")
    search.add_argument("--r2", type=int, default=None)

    p = sub.add_parser("generate", help="write a synthetic fvecs/bvecs dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--clusters", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("fvecs", "bvecs"), default="fvecs")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", parents=[training],
                       help="train a (derived/optimized) product quantizer")
    p.add_argument("--sample", type=int, default=0, help="training rows (0 = all)")
    p.add_argument("--opq-iters", dest="opq_iters", type=int, default=TrainConfig.opq_iters)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("encode", help="encode vectors into a code list")
    p.add_argument("--base", required=True)
    p.add_argument("--quantizer", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("build-ivf", parents=[training], help="build an inverted index")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_ivf)

    p = sub.add_parser("ground-truth", help="exact nearest neighbors to ivecs")
    p.add_argument("--base", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--distances-out", dest="distances_out", default=None)
    p.set_defaults(fn=cmd_ground_truth)

    p = sub.add_parser("query", parents=[search], help="search and print id,distance rows")
    p.add_argument("--index", default=None)
    p.add_argument("--codes", default=None)
    p.add_argument("--quantizer", default=None)
    p.add_argument("--r", type=int, default=10)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("bench", parents=[training, search],
                       help="time a kernel and report a CSV row")
    p.add_argument("--truth", required=True)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--r", type=int, default=100)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, TrainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
