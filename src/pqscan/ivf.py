"""Inverted index over residual-encoded codes.

A coarse K-centroid quantizer partitions the base; each vector's residual
(vector minus its coarse centroid) is product-quantized into the inverted
list of that centroid. A query visits the ma nearest cells, scanning each
list against the residual of the query with the chosen kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _binio
from ._dist import _select_best, nearest, nearest_k
from ._parallel import assign_cost, fork_map
from .derived import (
    DerivedPQ,
    check_derived_bits,
    read_derived_body,
    search_two_pass,
    train_derived,
    write_derived_body,
)
from .quantizer import (
    ENCODE_ROWS,
    ProductQuantizer,
    TrainConfig,
    _check_query,
    _checked_rows,
    _require_finite,
    encode,
    kmeans,
    read_quantizer_body,
    train_opq,
    train_pq,
    write_quantizer_body,
)
from .quickadc import DEFAULT_INIT_COUNT, qadc_scan
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
KERNELS = ("adc", "fast-scan", "quick-adc", "derived")
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
    dpq: DerivedPQ | None = None

    def __post_init__(self):
        self.coarse = np.ascontiguousarray(self.coarse, dtype=np.float32)
        if self.coarse.ndim != 2 or self.coarse.shape[1] != self.pq.d:
            raise ValueError("coarse centroids must have shape (K, d)")
        if len(self.lists) != self.coarse.shape[0]:
            raise ValueError("need exactly one inverted list per coarse centroid")
        if self.dpq is not None and self.dpq.pq is not self.pq:
            raise ValueError("derived quantizer must wrap the index quantizer")

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
    over row chunks, spread over the CPUs, assigns the rows outside the
    coarse sample and encodes every residual."""
    cfg = cfg or TrainConfig()
    check_train_options(b, use_opq, bderived)
    # float32 rows are not widened up front: each pass below widens one
    # chunk at a time, which is exact, so nothing differs from a float64 copy.
    base = np.asarray(base)
    if base.dtype != np.float32:
        base = base.astype(np.float64, copy=False)
    if base.ndim != 2:
        raise ValueError("base must be 2-D")
    _require_finite(base, "base vectors")
    n, d = base.shape
    if n < K or n < (1 << b):
        raise ValueError(f"{n} vectors cannot train K={K}, b={b}")
    ids = _binio.index_array(np.arange(n) if ids is None else ids)
    if ids.shape != (n,):
        raise ValueError(f"ids must have shape ({n},), got {ids.shape}")
    rng = np.random.default_rng(cfg.seed)
    # Every row below is a checked base row or its residual, so the callees
    # skip their own checks.
    with _checked_rows():
        coarse_rows = _sample_rows(rng, n, max(K, 100 * K))
        coarse, sample_assign = kmeans(base[coarse_rows], K, cfg)
        # A float64 residual of a finite row and a finite float32 centroid
        # is finite, so only the centroids' cast can overflow.
        if not np.isfinite(coarse).all():
            raise ValueError("coarse centroids overflow float32")
        coarse64 = coarse.astype(np.float64)
        train = base[_sample_rows(rng, n, 100 * (1 << b))]
        train_res = train - coarse64[nearest(train, coarse64)]
        quant = train_quantizer(train_res, m, b, cfg, use_opq, bderived)
        pq = plain_pq(quant)
        dpq = quant if isinstance(quant, DerivedPQ) else None
        # kmeans' assignment of its sample to the float32 centroids it
        # returns is what nearest gives; -1 marks the rows still to assign.
        assign = np.full(n, -1, dtype=np.int64)
        assign[coarse_rows] = sample_assign
        # Every chunk reuses these buffers; every index is in range, and
        # mode="clip" only spares take the buffering its default mode does
        # before writing to out.
        rows = np.empty((min(ENCODE_ROWS, n), d), dtype=base.dtype)
        res = np.empty((min(ENCODE_ROWS, n), d))

        def cells_and_codes(i):
            lo, hi = i * ENCODE_ROWS, min((i + 1) * ENCODE_ROWS, n)
            cells = assign[lo:hi]
            other = np.flatnonzero(cells < 0)
            cells[other] = nearest(
                np.take(base[lo:hi], other, axis=0, out=rows[: other.size], mode="clip"),
                coarse64,
            )
            chunk = np.take(coarse64, cells, axis=0, out=res[: hi - lo], mode="clip")
            np.subtract(base[lo:hi], chunk, out=chunk)
            return cells, encode(pq, chunk)

        cost = assign_cost(n - coarse_rows.size, K, d) + pq.m * assign_cost(n, pq.k, pq.dsub)
        cells, codes = zip(*fork_map(cells_and_codes, -(-n // ENCODE_ROWS), cost))
        assign, codes = np.concatenate(cells), np.concatenate(codes)

    # A stable sort keeps each cell's rows in base order.
    order = np.argsort(assign, kind="stable")
    codes, ids = codes[order], ids[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=K))))
    lists = [
        CodeList(codes[lo:hi], ids[lo:hi], m) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return IvfIndex(coarse=coarse, pq=pq, lists=lists, dpq=dpq)


def train_quantizer(
    training: np.ndarray,
    m: int,
    b: int,
    cfg: TrainConfig | None = None,
    use_opq: bool = False,
    bderived: int | None = None,
) -> ProductQuantizer | DerivedPQ:
    """A derived quantizer with bderived-bit derived codebooks when bderived
    is given, else an optimized (rotated) one when use_opq, else a plain one."""
    check_train_options(b, use_opq, bderived)
    if bderived is not None:
        return train_derived(training, m, b, bderived, cfg)
    if use_opq:
        return train_opq(training, m, b, cfg)
    return train_pq(training, m, b, cfg)


def plain_pq(quant: ProductQuantizer | DerivedPQ) -> ProductQuantizer:
    """The full-resolution product quantizer of quant."""
    return quant.pq if isinstance(quant, DerivedPQ) else quant


def check_train_options(b: int, use_opq: bool, bderived: int | None) -> None:
    """Reject quantizer options train_quantizer cannot combine, before any
    training."""
    if bderived is not None:
        if use_opq:
            raise ValueError("derived quantizers do not support a rotation")
        check_derived_bits(b, bderived)


def check_kernel_shape(
    kernel: str, m: int, b: int, derived: bool, indexed: bool = False
) -> str:
    """The kernel's canonical name, once a quantizer of m b-bit components,
    derived or not, under an inverted index if indexed, is known to support
    it. Needs no trained quantizer, so callers can check before training."""
    kernel = kernel.replace("_", "-")
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}")
    if kernel == "fast-scan" and indexed:
        raise ValueError("fast-scan is not available under an inverted index")
    if kernel == "fast-scan" and (m, b) != (8, 8):
        raise ValueError("fast-scan requires m=8, b=8")
    if kernel == "quick-adc" and b != 4:
        raise ValueError("quick-adc kernel requires b=4")
    if kernel == "derived" and not derived:
        raise ValueError("derived kernel needs a derived quantizer")
    return kernel


def check_kernel(
    kernel: str, quant: ProductQuantizer | DerivedPQ, indexed: bool = False
) -> str:
    """check_kernel_shape for the trained quant."""
    pq = plain_pq(quant)
    return check_kernel_shape(kernel, pq.m, pq.b, isinstance(quant, DerivedPQ), indexed)


def scan_list(
    quant: ProductQuantizer | DerivedPQ,
    codelist: CodeList,
    query: np.ndarray,
    r: int,
    kernel: str,
    init_count: int,
    r2: int | None,
) -> tuple[NeighborSet, ScanStats]:
    """One list's r best under a kernel that check_kernel accepted, and the
    kernel's counts: the exact distances and pruned codes of quick-adc and
    fast-scan (both ``qadc_scan``), every code as checked for the others."""
    if kernel == "derived":
        nset = search_two_pass(quant, codelist, query, r, default_r2(r) if r2 is None else r2)
        return nset, ScanStats(total=codelist.n, checked=codelist.n)
    tables = compute_tables(plain_pq(quant), query)
    if kernel in ("quick-adc", "fast-scan"):
        return qadc_scan([codelist], [tables], init_count, r)
    return scan(codelist, tables, r), ScanStats(total=codelist.n, checked=codelist.n)


def query_ivf(
    index: IvfIndex,
    query: np.ndarray,
    ma: int,
    r: int,
    kernel: str = "adc",
    init_count: int = DEFAULT_INIT_COUNT,
    r2: int | None = None,
) -> NeighborSet:
    """Scan the ma nearest cells' lists against the query residuals and
    select the r best of their union."""
    return query_ivf_stats(index, query, ma, r, kernel, init_count, r2)[0]


def query_ivf_stats(
    index: IvfIndex,
    query: np.ndarray,
    ma: int,
    r: int,
    kernel: str = "adc",
    init_count: int = DEFAULT_INIT_COUNT,
    r2: int | None = None,
) -> tuple[NeighborSet, ScanStats]:
    """query_ivf's result and the counts summed over the visited lists (see
    scan_list). quick-adc scans every visited list in one qadc_scan call,
    nearest cell first; the other kernels scan each list and merge."""
    quant = index.pq if index.dpq is None else index.dpq
    kernel = check_kernel(kernel, quant, indexed=True)
    if not 1 <= ma <= index.K:
        raise ValueError(f"ma must be in [1, {index.K}]")
    if r < 1:
        raise ValueError("r must be >= 1")
    query = _check_query(np.asarray(query, dtype=np.float64), index.d)
    cells, _ = nearest_k(query[None, :], index.coarse.astype(np.float64), ma)
    visited = [cell for cell in cells[0].tolist() if index.lists[cell].n]
    lists = [index.lists[cell] for cell in visited]
    residuals = [query - index.coarse[cell].astype(np.float64) for cell in visited]
    if kernel == "quick-adc":
        tables = [compute_tables(index.pq, residual) for residual in residuals]
        return qadc_scan(lists, tables, init_count, r)
    parts = [(np.empty(0, np.float64), np.empty(0, np.int64))]
    parts += [scan_list(quant, lst, residual, r, kernel, init_count, r2)[0].to_arrays()
              for lst, residual in zip(lists, residuals)]
    dists, ids = (np.concatenate(column) for column in zip(*parts))
    total = sum(lst.n for lst in lists)
    stats = ScanStats(total=total, checked=total)
    return NeighborSet.from_pairs(r, *_select_best(dists, ids, r)), stats


MAGIC_IVF = b"IVF1"


def save_ivf(path, index: IvfIndex) -> None:
    with open(path, "wb") as f:
        _binio.write_magic(f, MAGIC_IVF)
        _binio.write_i32(f, index.K)
        _binio.write_i32(f, 1 if index.dpq is not None else 0)
        if index.dpq is not None:
            write_derived_body(f, index.dpq)
        else:
            write_quantizer_body(f, index.pq)
        _binio.write_array(f, index.coarse, "<f4")
        for lst in index.lists:
            write_codes_body(f, lst, index.pq.b)


def load_ivf(path) -> IvfIndex:
    with open(path, "rb") as f:
        _binio.expect_magic(f, MAGIC_IVF)
        K = _binio.read_i32(f)
        has_derived = _binio.read_i32(f)
        if K < 1 or has_derived not in (0, 1):
            raise _binio.FormatError(
                f"bad index header K={K} derived={has_derived}", offset=4
            )
        dpq = None
        if has_derived:
            dpq = read_derived_body(f)
            pq = dpq.pq
        else:
            pq = read_quantizer_body(f)
        coarse = _binio.read_array(f, "<f4", K * pq.d).reshape(K, pq.d)
        lists = []
        for _ in range(K):
            lst, b = read_codes_body(f)
            if (lst.m, b) != (pq.m, pq.b):
                raise _binio.FormatError("inverted list shape differs from the quantizer")
            lists.append(lst)
        _binio.expect_eof(f, "last inverted list")
    return IvfIndex(coarse=coarse, pq=pq, lists=lists, dpq=dpq)
