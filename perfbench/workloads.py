"""The three benchmark workloads: build, kernel path, ref path, contract.

Each workload builds its index from generated base vectors (the part that
``setup_s`` times) and answers every query twice: through its kernel, the
accelerated path under study, and through its ref, the path that kernel has
to beat. ``call(name, fn, *args)`` runs each library entry point; the traced
run passes a span recorder there, the untraced run a plain call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pqscan import (
    CBINS,
    CodeList,
    TrainConfig,
    assignment_permutation,
    build_ivf,
    compute_compact_tables,
    compute_tables,
    encode,
    fast_scan,
    group_codes,
    optimize_centroid_assignment,
    quantize_compact_tables,
    query_ivf,
    relabel_codes,
    scan,
    scan_candidates,
    scan_distances,
    search_two_pass,
    train_derived,
    train_pq,
)
from pqscan._dist import nearest_k

from checks import Tally, check_op, top_r

R = 100
N = 100_000


def direct(name, fn, *args, **kwargs):
    """The untraced form of ``call``."""
    return fn(*args, **kwargs)


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    clusters: int

    # m * 2^b entries of the full-resolution lookup tables, for workloads
    # whose kernel fills them lazily; 0 elsewhere.
    FULL_TABLE = 0

    def build(self, base: np.ndarray, seed: int, call=direct):
        raise NotImplementedError

    def kernel(self, state, q: np.ndarray, call=direct):
        raise NotImplementedError

    def ref(self, state, q: np.ndarray, call=direct):
        raise NotImplementedError

    def check(self, state, q: np.ndarray, kernel_items, ref_items, tally: Tally) -> None:
        """Count both operations of one query, applying the contract."""
        raise NotImplementedError

    def index_bytes(self, state) -> int:
        """Bytes of every array the kernel path reads."""
        raise NotImplementedError

    def visits(self, state, q: np.ndarray) -> dict[str, int]:
        """Per-layer counts both paths of one query incur, read untimed."""
        return {}


class Flat8x8(Workload):
    """Pruned exact fast scan over grouped 8x8 codes against the plain scan."""

    TRAIN_ROWS = 20_000
    INIT = 0.005

    def build(self, base, seed, call=direct):
        cfg = TrainConfig(kmeans_iters=8, seed=seed)
        pq = call("quantizer.train", train_pq, base[: self.TRAIN_ROWS], 8, 8, cfg)
        codes = call("quantizer.encode", encode, pq, base)
        perm = call("fastscan.relabel", assignment_permutation, pq, cfg)
        pq = call("fastscan.relabel", optimize_centroid_assignment, pq, cfg)
        codes = CodeList(call("fastscan.relabel", relabel_codes, codes, perm))
        grouped = call("fastscan.group", group_codes, codes)
        return pq, codes, grouped

    def kernel(self, state, q, call=direct):
        pq, _, grouped = state
        tables = call("scan.compute_tables", compute_tables, pq, q)
        return call("fastscan.fast_scan", fast_scan, grouped, tables, self.INIT, R)[0]

    def ref(self, state, q, call=direct):
        pq, codes, _ = state
        tables = call("scan.compute_tables", compute_tables, pq, q)
        return call("scan.scan", scan, codes, tables, R)

    def check(self, state, q, kernel_items, ref_items, tally):
        # Contract: fast scan returns exactly what scan returns.
        check_op(tally, kernel_items, R, N, expected=ref_items)
        check_op(tally, ref_items, R, N)

    def index_bytes(self, state):
        pq, _, g = state
        arrays = (g.keys, g.offsets, g.counts, g.packed, g.ids, pq.codebooks)
        return sum(a.nbytes for a in arrays)


class Derived10x5(Workload):
    """Two-pass search with (b, bbar) = (10, 5) against a full b=10 scan."""

    TRAIN_ROWS = 5_000
    R2 = N // 10
    FULL_TABLE = 4 << 10

    def build(self, base, seed, call=direct):
        cfg = TrainConfig(kmeans_iters=8, seed=seed)
        dpq = call("derived.train", train_derived, base[: self.TRAIN_ROWS], 4, 10, 5, cfg)
        codes = CodeList(call("quantizer.encode", encode, dpq.pq, base))
        return dpq, codes

    def kernel(self, state, q, call=direct):
        dpq, codes = state
        return call("derived.two_pass", search_two_pass, dpq, codes, q, R, self.R2)

    def ref(self, state, q, call=direct):
        dpq, codes = state
        tables = call("scan.compute_tables", compute_tables, dpq.pq, q)
        return call("scan.scan", scan, codes, tables, R)

    def check(self, state, q, kernel_items, ref_items, tally):
        # Contract: two-pass equals a full-resolution scan restricted to the
        # candidates its own first pass kept.
        dpq, codes = state
        qt = quantize_compact_tables(compute_compact_tables(dpq, q), codes, self.R2)
        cand = scan_candidates(codes, qt, self.R2)
        kept = np.array(
            [i for v in range(CBINS + 1) for i in cand.bucket(v)], dtype=np.int64
        )
        exact = scan_distances(compute_tables(dpq.pq, q), codes.codes[kept])
        check_op(tally, kernel_items, R, N, expected=top_r(exact, codes.ids[kept], R))
        check_op(tally, ref_items, R, N)

    def index_bytes(self, state):
        dpq, codes = state
        return codes.codes.nbytes + codes.ids.nbytes + dpq.pq.codebooks.nbytes + dpq.derived.nbytes


class Ivf16x4(Workload):
    """IVF over 16x4 residual codes: Quick ADC against plain ADC per list."""

    K = 256
    MA = 8

    def build(self, base, seed, call=direct):
        cfg = TrainConfig(kmeans_iters=8, seed=seed)
        return call("ivf.build", build_ivf, base, self.K, 16, 4, cfg)

    def kernel(self, index, q, call=direct):
        return call("ivf.query", query_ivf, index, q, self.MA, R, kernel="quick-adc")

    def ref(self, index, q, call=direct):
        return call("ivf.query", query_ivf, index, q, self.MA, R, kernel="adc")

    def cells(self, index, q):
        """Cells a query visits, from an untimed coarse assignment."""
        q64 = np.asarray(q, dtype=np.float64)
        return nearest_k(q64[None, :], index.coarse.astype(np.float64), self.MA)[0][0]

    def visits(self, index, q):
        cells = self.cells(index, q)
        codes = sum(index.lists[int(c)].n for c in cells)
        return {"ivf.cells_visited": 2 * len(cells), "ivf.codes_visited": 2 * codes}

    def check(self, index, q, kernel_items, ref_items, tally):
        # Contract: ADC over the visited lists equals an exact top-r over the
        # concatenated lists; Quick ADC returns only ids from those lists.
        q64 = np.asarray(q, dtype=np.float64)
        dists, ids = [], []
        for cell in self.cells(index, q):
            lst = index.lists[int(cell)]
            if lst.n:
                tables = compute_tables(index.pq, q64 - index.coarse[int(cell)].astype(np.float64))
                dists.append(scan_distances(tables, lst.codes))
                ids.append(lst.ids)
        dists, ids = np.concatenate(dists), np.concatenate(ids)
        check_op(tally, kernel_items, R, N, allowed_ids=ids, allow_short=True)
        check_op(tally, ref_items, R, N, expected=top_r(dists, ids, R), allow_short=True)

    def index_bytes(self, index):
        lists = sum(lst.codes.nbytes + lst.ids.nbytes for lst in index.lists)
        return lists + index.coarse.nbytes + index.pq.codebooks.nbytes


WORKLOADS = {
    w.name: w
    for w in (
        Flat8x8("flat-8x8", d=128, clusters=16),
        Derived10x5("derived-10x5", d=32, clusters=16),
        Ivf16x4("ivf-16x4", d=128, clusters=64),
    )
}
