"""Command-line front end: data generation, training, indexing, querying,
and CSV benchmark reports."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ._binio import FormatError
from ._dist import nearest_k
from .data import (
    GroundTruth,
    exact_knn,
    generate_synthetic,
    read_vecs,
    recall_at_r,
    write_recall_csv,
    write_vecs,
)
from .derived import DerivedPQ, load_quantizer_any, save_derived
from .ivf import (
    KERNELS,
    _sample_rows,
    build_ivf,
    check_kernel,
    check_kernel_shape,
    default_r2,
    load_ivf,
    plain_pq,
    query_ivf_stats,
    save_ivf,
    scan_list,
    train_quantizer,
)
from .quantizer import TrainConfig, TrainError, encode, save_quantizer
from .quickadc import DEFAULT_INIT_COUNT
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
        opq_iters=getattr(args, "opq_iters", 50),
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
    quant = train_quantizer(
        training, args.m, args.b, _train_cfg(args), args.opq, args.bderived
    )
    if isinstance(quant, DerivedPQ):
        save_derived(args.out, quant)
        print(f"trained derived {args.m}x{args.bderived},{args.b} -> {args.out}")
    else:
        save_quantizer(args.out, quant)
        print(f"trained {'opq' if args.opq else 'pq'} {args.m}x{args.b} -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    base = _read_auto(args.base)
    pq = plain_pq(load_quantizer_any(args.quantizer))
    save_codes(args.out, CodeList(encode(pq, base), m=pq.m), pq.b)
    print(f"encoded {base.shape[0]} codes -> {args.out}")
    return 0


def cmd_build_ivf(args) -> int:
    base = _read_auto(args.base)
    index = build_ivf(
        base,
        args.K,
        args.m,
        args.b,
        cfg=_train_cfg(args),
        use_opq=args.opq,
        bderived=args.bderived,
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


def _exhaustive_search_fn(args, quant, codelist: CodeList):
    """Returns a per-query search fn -> ((D, I), checked, pruned)."""
    kernel = check_kernel(args.kernel, quant)

    def run(q):
        nset, stats = scan_list(quant, codelist, q, args.r, kernel, args.init_count, args.r2)
        return nset.to_arrays(), stats.checked, stats.pruned

    return run


def _index_search_fn(args, index):
    """Returns a per-query search fn over an inverted index, as above."""

    def run(q):
        found, stats = query_ivf_stats(
            index, q, args.ma, args.r, args.kernel, args.init_count, args.r2
        )
        return found.to_arrays(), stats.checked, stats.pruned

    return run


def cmd_query(args) -> int:
    queries = _read_auto(args.queries).astype(np.float64)
    # validate inputs and build the search closure before any output
    if args.index:
        run = _index_search_fn(args, load_ivf(args.index))
    else:
        if not (args.codes and args.quantizer):
            raise ValueError("need either --index or both --codes and --quantizer")
        quant = load_quantizer_any(args.quantizer)
        pq = plain_pq(quant)
        codelist, b = load_codes(args.codes)
        if (codelist.m, b) != (pq.m, pq.b):
            raise ValueError(
                f"codes are {codelist.m}x{b} but the quantizer is {pq.m}x{pq.b}"
            )
        run = _exhaustive_search_fn(args, quant, codelist)
    results = [run(q)[0] for q in queries]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("query", "rank", "id", "distance"))
    for qi, (dists, ids) in enumerate(results):
        for rank, (dist, ident) in enumerate(zip(dists.tolist(), ids.tolist())):
            writer.writerow((qi, rank, ident, f"{dist:.9g}"))
    return 0


def _run_timed(run, queries: np.ndarray, threads: int):
    def timed(q):
        t0 = time.perf_counter()
        out = run(q)
        return time.perf_counter() - t0, out

    run(queries[0])
    if threads <= 1:
        return [timed(q) for q in queries]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(timed, queries))


def cmd_bench(args) -> int:
    base = _read_auto(args.base).astype(np.float64)
    if base.shape[0] == 0:
        raise ValueError("empty base")
    queries = _read_auto(args.queries).astype(np.float64)
    if queries.shape[0] == 0:
        raise ValueError("empty query set")
    if not args.truth:
        raise ValueError("recall reporting requires --truth")
    truth = _load_truth(args.truth, queries.shape[0])
    check_kernel_shape(args.kernel, args.m, args.b, args.bderived is not None, bool(args.K))
    cfg = _train_cfg(args)
    rng = np.random.default_rng(args.seed)
    r = args.r
    r2_used = ""
    if args.kernel == "derived":
        r2_used = default_r2(r) if args.r2 is None else args.r2
    if args.K:
        index = build_ivf(
            base,
            args.K,
            args.m,
            args.b,
            cfg=cfg,
            use_opq=args.opq,
            bderived=args.bderived,
        )
        run = _index_search_fn(args, index)
        method = f"ivf-{args.kernel}"
        k_col, ma_col = args.K, args.ma
    else:
        rows = _sample_rows(rng, base.shape[0], 100 * (1 << args.b))
        quant = train_quantizer(base[rows], args.m, args.b, cfg, args.opq, args.bderived)
        pq = plain_pq(quant)
        codelist = CodeList(encode(pq, base), m=pq.m)
        run = _exhaustive_search_fn(args, quant, codelist)
        method = args.kernel
        k_col, ma_col = "", ""

    outcomes = _run_timed(run, queries, args.threads)
    times = np.array([t for t, _ in outcomes], dtype=np.float64)
    result_ids = np.full((queries.shape[0], r), -1, dtype=np.int64)
    pruned_total = 0
    codes_total = 0
    for qi, (_, ((_, ids), checked, pruned)) in enumerate(outcomes):
        result_ids[qi, : ids.shape[0]] = ids
        codes_total += checked + pruned
        pruned_total += pruned
    if args.K:
        # Codes in the visited lists, counted outside the timed region.
        cells, _ = nearest_k(queries, index.coarse.astype(np.float64), args.ma)
        list_sizes = np.array([lst.n for lst in index.lists])
        codes_total = int(list_sizes[cells].sum())
    recall = recall_at_r(result_ids, truth, r)
    mean_ms = float(times.mean() * 1e3)
    median_ms = float(np.median(times) * 1e3)
    mcodes = codes_total / float(times.sum()) / 1e6
    pruned_col = ""
    if args.kernel in ("fast-scan", "quick-adc"):
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
    if args.csv:
        write_recall_csv(
            args.csv,
            [(method, args.m, args.b, r, f"{recall:.4f}", f"{mean_ms:.3f}")],
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqscan",
        description="Product-quantization nearest-neighbor toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic fvecs/bvecs dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--clusters", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("fvecs", "bvecs"), default="fvecs")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train a (derived/optimized) product quantizer")
    p.add_argument("--base", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--bderived", type=int, default=None)
    p.add_argument("--opq", action="store_true")
    p.add_argument("--sample", type=int, default=0, help="training rows (0 = all)")
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--opq-iters", dest="opq_iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("encode", help="encode vectors into a code list")
    p.add_argument("--base", required=True)
    p.add_argument("--quantizer", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("build-ivf", help="build an inverted index")
    p.add_argument("--base", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--bderived", type=int, default=None)
    p.add_argument("--opq", action="store_true")
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_ivf)

    p = sub.add_parser("ground-truth", help="exact nearest neighbors to ivecs")
    p.add_argument("--base", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--distances-out", dest="distances_out", default=None)
    p.set_defaults(fn=cmd_ground_truth)

    p = sub.add_parser("query", help="search and print id,distance rows")
    p.add_argument("--queries", required=True)
    p.add_argument("--index", default=None)
    p.add_argument("--codes", default=None)
    p.add_argument("--quantizer", default=None)
    p.add_argument("--r", type=int, default=10)
    p.add_argument("--ma", type=int, default=8)
    p.add_argument("--kernel", choices=KERNELS, default="adc")
    p.add_argument("--r2", type=int, default=None)
    p.add_argument("--init-count", dest="init_count", type=int, default=DEFAULT_INIT_COUNT)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("bench", help="time a kernel and report a CSV row")
    p.add_argument("--base", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--bderived", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--ma", type=int, default=8)
    p.add_argument("--r", type=int, default=100)
    p.add_argument("--r2", type=int, default=None)
    p.add_argument("--init-count", dest="init_count", type=int, default=DEFAULT_INIT_COUNT)
    p.add_argument("--kernel", choices=KERNELS, default="adc")
    p.add_argument("--opq", action="store_true")
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--csv", default=None)
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
