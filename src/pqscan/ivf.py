"""Inverted index over residual-encoded codes.

A coarse K-centroid quantizer partitions the base; each vector's residual
(vector minus its coarse centroid) is product-quantized into the inverted
list of that centroid. A query visits the ma nearest cells and scans their lists
with the chosen kernel in one scan_lists call, each list against the query's
residual to its cell; an exhaustive search is the one-list case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _binio
from ._dist import _select_best, nearest, nearest_k
from ._parallel import assign_cost, fork_map
from .derived import check_derived_bits, search_two_pass, train_derived
from .quantizer import (
    ENCODE_ROWS,
    DerivedPQ,
    ProductQuantizer,
    TrainConfig,
    _check_query,
    _require_finite,
    check_shape,
    encode,
    kmeans,
    read_quantizer_body,
    train_opq,
    train_pq,
    write_quantizer_body,
)
from .quickadc import _stored_width, qadc_scan
from .scan import (
    CodeList,
    NeighborSet,
    ScanStats,
    compute_tables,
    read_codes_body,
    scan,
    # Not called here; the benchmark's tracer patches this name.
    transpose_blocks,  # noqa: F401
    write_codes_body,
)

# Every scan kernel by name; check_kernel_shape holds what each one requires.
KERNELS = ("adc", "quick-adc", "derived")
DEFAULT_R2_SMALL = 9000
DEFAULT_R2_LARGE = 120000


def default_r2(r: int) -> int:
    """Candidate-set size for the two-pass search at million scale."""
    return DEFAULT_R2_SMALL if r <= 100 else DEFAULT_R2_LARGE


@dataclass
class IvfIndex:
    """Coarse centroids, the residual quantizer, and K inverted lists."""

    coarse: np.ndarray
    pq: ProductQuantizer
    lists: list[CodeList]

    def __post_init__(self):
        self.coarse = np.ascontiguousarray(self.coarse, dtype=np.float32)
        if self.coarse.ndim != 2 or self.coarse.shape[1] != self.pq.d:
            raise ValueError("coarse centroids must have shape (K, d)")
        if len(self.lists) != self.coarse.shape[0]:
            raise ValueError("need exactly one inverted list per coarse centroid")

    @property
    def K(self) -> int:
        return self.coarse.shape[0]

    @property
    def d(self) -> int:
        return self.coarse.shape[1]

    @property
    def n(self) -> int:
        return sum(lst.n for lst in self.lists)


def _sample_rows(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    if size >= n:
        return np.arange(n, dtype=np.int64)
    return np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)


def build_ivf(
    base: np.ndarray,
    K: int,
    m: int,
    b: int,
    cfg: TrainConfig | None = None,
    ids: np.ndarray | None = None,
    use_opq: bool = False,
    bderived: int | None = None,
) -> IvfIndex:
    """Train coarse and residual quantizers, then encode every vector's
    residual into the list of its nearest coarse centroid (ties to the
    lowest index). Training uses seeded samples of the base; then one pass
    over row chunks, spread over the CPUs, assigns the rows outside both
    training samples and encodes every residual."""
    cfg = cfg or TrainConfig()
    # float32 rows are not widened up front: each pass below widens one
    # chunk at a time, which is exact, so nothing differs from a float64 copy.
    base = np.asarray(base)
    if base.dtype != np.float32:
        base = base.astype(np.float64, copy=False)
    check_train_options(base.shape, m, b, use_opq, bderived)
    _require_finite(base, "base vectors")
    n, d = base.shape
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if n < K or n < (1 << b):
        raise ValueError(f"{n} vectors cannot train K={K}, b={b}")
    ids = _binio.index_array(np.arange(n) if ids is None else ids)
    if ids.shape != (n,):
        raise ValueError(f"ids must have shape ({n},), got {ids.shape}")
    rng = np.random.default_rng(cfg.seed)
    coarse_rows = _sample_rows(rng, n, max(K, 100 * K))
    coarse, sample_assign = kmeans(base[coarse_rows], K, cfg)
    # Means of finite rows can still overflow the float32 cast.
    if not np.isfinite(coarse).all():
        raise ValueError("coarse centroids overflow float32")
    coarse64 = coarse.astype(np.float64)
    train_rows = _sample_rows(rng, n, 100 * (1 << b))
    train = base[train_rows]
    train_cells = nearest(train, coarse64)
    train_res = train - coarse64[train_cells]
    pq = train_quantizer(train_res, m, b, cfg, use_opq, bderived)
    # kmeans assigns its sample to the float32 centroids it returns as
    # nearest does, so rows in both samples get one cell; -1 marks the
    # rows still to assign.
    assign = np.full(n, -1, dtype=np.int64)
    assign[train_rows] = train_cells
    assign[coarse_rows] = sample_assign

    def cells_and_codes(i):
        lo, hi = i * ENCODE_ROWS, min((i + 1) * ENCODE_ROWS, n)
        rows, cells = base[lo:hi], assign[lo:hi]
        other = np.flatnonzero(cells < 0)
        cells[other] = nearest(rows[other], coarse64)
        return cells, encode(pq, rows - coarse64[cells])

    cost = assign_cost(np.count_nonzero(assign < 0), K, d)
    cost += pq.m * assign_cost(n, pq.k, pq.dsub)
    cells, codes = zip(*fork_map(cells_and_codes, -(-n // ENCODE_ROWS), cost))
    assign, codes = np.concatenate(cells), np.concatenate(codes)

    # A stable sort keeps each cell's rows in base order.
    order = np.argsort(assign, kind="stable")
    codes, ids = codes[order], ids[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=K))))
    lists = [
        CodeList(codes[lo:hi], ids[lo:hi], m) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return IvfIndex(coarse=coarse, pq=pq, lists=lists)


def train_quantizer(
    training: np.ndarray,
    m: int,
    b: int,
    cfg: TrainConfig | None = None,
    use_opq: bool = False,
    bderived: int | None = None,
) -> ProductQuantizer:
    """A derived quantizer with bderived-bit derived codebooks when bderived
    is given, else an optimized (rotated) one when use_opq, else a plain one."""
    check_train_options(np.shape(training), m, b, use_opq, bderived)
    if bderived is not None:
        return train_derived(training, m, b, bderived, cfg)
    if use_opq:
        return train_opq(training, m, b, cfg)
    return train_pq(training, m, b, cfg)


def check_train_options(shape: tuple, m: int, b: int, use_opq: bool, bderived: int | None) -> None:
    """Reject, before any training, rows of this shape that are not 2-D, a
    quantizer shape check_shape refuses, or options train_quantizer cannot combine."""
    if len(shape) != 2:
        raise ValueError("training set must be 2-D")
    check_shape(shape[1], m, b)
    if bderived is not None:
        if use_opq:
            raise ValueError("derived quantizers do not support a rotation")
        check_derived_bits(b, bderived)


def check_kernel_shape(kernel: str, m: int, b: int, derived: bool) -> str:
    """The kernel's canonical name, once a quantizer of m b-bit components,
    derived or not, is known to support it, flat or under an inverted index.
    Needs no trained quantizer, so callers can check before training."""
    kernel = kernel.replace("_", "-")
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}")
    if kernel == "quick-adc" and _stored_width(m, 1 << b) < 0:
        raise ValueError("quick-adc kernel requires b=4, or b=8 with even m")
    if kernel == "derived" and not derived:
        raise ValueError("derived kernel needs a derived quantizer")
    return kernel


def check_kernel(kernel: str, pq: ProductQuantizer) -> str:
    """check_kernel_shape for the trained pq."""
    return check_kernel_shape(kernel, pq.m, pq.b, isinstance(pq, DerivedPQ))


def scan_lists(
    pq: ProductQuantizer,
    lists: list[CodeList],
    queries: np.ndarray,
    r: int,
    kernel: str,
    r2: int | None,
) -> tuple[NeighborSet, ScanStats]:
    """The r best codes over lists, list i scanned against row i of the
    (len(lists), d) queries, under a kernel that check_kernel accepted, and
    the kernel's counts: the exact distances and pruned codes of quick-adc
    (qadc_scan), every code as checked for the others. A PQ kernel builds
    every list's tables in one compute_tables call and scans them in one
    call; derived keeps r2 candidates per list, so it searches each list,
    then selects."""
    total = sum(lst.n for lst in lists)
    stats = ScanStats(total=total, checked=total)
    if kernel == "derived":
        r2 = default_r2(r) if r2 is None else r2
        parts = [(np.empty(0), np.empty(0, np.int64))]
        for lst, query in zip(lists, queries):
            parts.append(search_two_pass(pq, lst, query, r, r2).to_arrays())
        dists, ids = (np.concatenate(column) for column in zip(*parts))
        return NeighborSet.from_pairs(r, *_select_best(dists, ids, r)), stats
    tables = compute_tables(pq, queries)
    if kernel == "quick-adc":
        return qadc_scan(lists, tables, r)
    return scan(lists, tables, r), stats


def check_search_args(r: int, r2: int | None = None, K: int | None = None, ma: int = 1) -> None:
    """Reject r, r2 when given, and K and ma when K is given, as a search
    would. Needs no index, so callers can check before building one."""
    if K is not None:
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        if not 1 <= ma <= K:
            raise ValueError(f"ma must be in [1, {K}]")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r2 is not None and r2 < 1:
        raise ValueError("r2 must be >= 1")


def query_ivf(
    index: IvfIndex,
    query: np.ndarray,
    ma: int,
    r: int,
    kernel: str = "adc",
    r2: int | None = None,
) -> NeighborSet:
    """Scan the ma nearest cells' lists against the query residuals and
    select the r best of their union."""
    return query_ivf_stats(index, query, ma, r, kernel, r2)[0]


def query_ivf_stats(
    index: IvfIndex,
    query: np.ndarray,
    ma: int,
    r: int,
    kernel: str = "adc",
    r2: int | None = None,
) -> tuple[NeighborSet, ScanStats]:
    """query_ivf's result and its counts: one scan_lists call over the
    non-empty visited lists, nearest cell first."""
    kernel = check_kernel(kernel, index.pq)
    check_search_args(r, r2, index.K, ma)
    query = _check_query(np.asarray(query, dtype=np.float64), index.d)
    cells, _ = nearest_k(query[None, :], index.coarse.astype(np.float64), ma)
    visited = [cell for cell in cells[0].tolist() if index.lists[cell].n]
    residuals = query - index.coarse[visited].astype(np.float64)
    return scan_lists(index.pq, [index.lists[c] for c in visited], residuals, r, kernel, r2)


MAGIC_IVF = b"IVF1"


def _write_ivf(f, index: IvfIndex) -> None:
    _binio.write_magic(f, MAGIC_IVF)
    _binio.write_i32(f, index.K)
    _binio.write_i32(f, 1 if isinstance(index.pq, DerivedPQ) else 0)
    write_quantizer_body(f, index.pq)
    _binio.write_array(f, index.coarse, "<f4")
    for lst in index.lists:
        write_codes_body(f, lst, index.pq.b)


def save_ivf(path, index: IvfIndex) -> None:
    _binio.save(path, _write_ivf, index)


def load_ivf(path) -> IvfIndex:
    with open(path, "rb") as f:
        _binio.expect_magic(f, MAGIC_IVF)
        K = _binio.read_i32(f)
        has_derived = _binio.read_i32(f)
        if K < 1 or has_derived not in (0, 1):
            raise _binio.FormatError(
                f"bad index header K={K} derived={has_derived}", offset=4
            )
        pq = read_quantizer_body(f, derived=bool(has_derived))
        coarse = _binio.read_array(f, "<f4", K * pq.d).reshape(K, pq.d)
        lists = []
        for _ in range(K):
            lst, b = read_codes_body(f)
            if (lst.m, b) != (pq.m, pq.b):
                raise _binio.FormatError("inverted list shape differs from the quantizer")
            lists.append(lst)
        _binio.expect_eof(f, "last inverted list")
    return IvfIndex(coarse=coarse, pq=pq, lists=lists)
