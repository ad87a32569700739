"""Inverted index over residual-encoded codes.

A coarse K-centroid quantizer partitions the base; each vector's residual
(vector minus its coarse centroid) is product-quantized into the inverted
list of that centroid. A query visits the ma nearest cells, scanning each
list against the residual of the query with the chosen kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _binio
from ._dist import nearest, nearest_k
from .derived import (
    DerivedPQ,
    read_derived_body,
    search_two_pass,
    train_derived,
    write_derived_body,
)
from .quantizer import (
    ProductQuantizer,
    TrainConfig,
    _check_query,
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
    compute_tables,
    read_codes_body,
    scan,
    # Not called here; the benchmark's tracer patches this name.
    transpose_blocks,  # noqa: F401
    write_codes_body,
)

KERNELS = ("adc", "quick-adc", "derived")
DEFAULT_R2_SMALL = 9000
DEFAULT_R2_LARGE = 120000


def default_r2(r: int) -> int:
    """Candidate-set size for the two-pass search at million scale."""
    return DEFAULT_R2_SMALL if r <= 100 else DEFAULT_R2_LARGE

_ENCODE_CHUNK = 1 << 17


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
    lowest index). Training uses seeded samples of the base."""
    cfg = cfg or TrainConfig()
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2:
        raise ValueError("base must be 2-D")
    _require_finite(base, "base vectors")
    n = base.shape[0]
    if n < K or n < (1 << b):
        raise ValueError(f"{n} vectors cannot train K={K}, b={b}")
    if use_opq and bderived is not None:
        raise ValueError("derived quantizers do not support a rotation")
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
    rng = np.random.default_rng(cfg.seed)

    coarse_rows = _sample_rows(rng, n, max(K, 100 * K))
    coarse, _ = kmeans(base[coarse_rows], K, cfg)
    assign, _ = nearest(base, coarse.astype(np.float64))

    train_rows = _sample_rows(rng, n, 100 * (1 << b))
    train_res = base[train_rows] - coarse[assign[train_rows]].astype(np.float64)
    dpq = None
    if bderived is not None:
        dpq = train_derived(train_res, m, b, bderived, cfg)
        pq = dpq.pq
    elif use_opq:
        pq = train_opq(train_res, m, b, cfg)
    else:
        pq = train_pq(train_res, m, b, cfg)

    codes = np.empty((n, pq.code_width), dtype=pq.code_dtype)
    for start in range(0, n, _ENCODE_CHUNK):
        stop = min(start + _ENCODE_CHUNK, n)
        res = base[start:stop] - coarse[assign[start:stop]].astype(np.float64)
        codes[start:stop] = encode(pq, res)

    lists = []
    for c in range(K):
        rows = np.flatnonzero(assign == c)
        lists.append(CodeList(codes[rows], ids[rows], m))
    return IvfIndex(coarse=coarse, pq=pq, lists=lists, dpq=dpq)


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
    merge into one neighbor set of size r."""
    kernel = kernel.replace("_", "-")
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}")
    if not 1 <= ma <= index.K:
        raise ValueError(f"ma must be in [1, {index.K}]")
    if r < 1:
        raise ValueError("r must be >= 1")
    if kernel == "quick-adc" and index.pq.b != 4:
        raise ValueError("quick-adc kernel requires b=4")
    if kernel == "derived" and index.dpq is None:
        raise ValueError("index has no derived quantizer")
    query = _check_query(np.asarray(query, dtype=np.float64), index.d)
    cells, _ = nearest_k(query[None, :], index.coarse.astype(np.float64), ma)
    merged = NeighborSet(r)
    for cell in cells[0]:
        lst = index.lists[int(cell)]
        if lst.n == 0:
            continue
        residual = query - index.coarse[int(cell)].astype(np.float64)
        if kernel == "adc":
            part = scan(lst, compute_tables(index.pq, residual), r)
            for dist, ident in part.items():
                merged.push(dist, ident)
        elif kernel == "quick-adc":
            tables = compute_tables(index.pq, residual)
            part, qt = qadc_scan(lst, tables, init_count, r)
            for dist, ident in part.items():
                merged.push(float(qt.rescale(dist)), ident)
        else:
            part = search_two_pass(
                index.dpq, lst, residual, r, r2 if r2 is not None else default_r2(r)
            )
            for dist, ident in part.items():
                merged.push(dist, ident)
    return merged


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
    return IvfIndex(coarse=coarse, pq=pq, lists=lists, dpq=dpq)
