"""Distance tables and the baseline table-lookup scan.

Given a query, one lookup table per sub-space holds the squared distance
from the query sub-vector to every centroid. The asymmetric distance of a
code is the sum of m table entries; a scan keeps the r best codes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _binio
from ._dist import sqdist_matrix
from .quantizer import (
    ProductQuantizer,
    _check_query,
    code_columns,
    code_layout_error,
    code_width,
)


@dataclass
class LookupTables:
    """Per-sub-space squared distances, shape (m, 2^b) float32."""

    tables: np.ndarray

    def __post_init__(self):
        self.tables = np.ascontiguousarray(self.tables, dtype=np.float32)
        if self.tables.ndim != 2:
            raise ValueError("tables must be 2-D (m, 2^b)")

    @property
    def m(self) -> int:
        return self.tables.shape[0]

    @property
    def k(self) -> int:
        return self.tables.shape[1]

    @property
    def nbytes(self) -> int:
        return self.tables.nbytes


def compute_tables(pq: ProductQuantizer, query: np.ndarray) -> LookupTables:
    """Squared distances from each query sub-vector to every centroid."""
    query = _check_query(query, pq.d)
    z = pq.rotate(query[None, :])[0]
    dsub = pq.dsub
    out = np.empty((pq.m, pq.k), dtype=np.float32)
    for j in range(pq.m):
        sub = z[j * dsub : (j + 1) * dsub]
        out[j] = sqdist_matrix(sub[None, :], pq.codebooks[j].astype(np.float64))[0]
    return LookupTables(out)


def adc_distance(tables: LookupTables, code: np.ndarray) -> float:
    """Sum of m table entries, accumulated in float64, sub-space order.

    code is one row of m components or of their nibble-packed bytes."""
    t = tables.tables
    acc = 0.0
    for j, col in enumerate(code_columns(np.asarray(code)[None, :], tables.m)):
        acc += float(t[j, int(col[0])])
    return acc


def scan_distances(tables: LookupTables, codes: np.ndarray) -> np.ndarray:
    """adc_distance of the components of every row of codes, bit-identical
    to the scalar form. Rows are one component per column or nibble-packed.

    Accumulates in float64 with a fixed left-to-right sub-space order so that
    the vectorized result matches per-element scalar summation exactly.
    """
    codes = np.asarray(codes)
    m = tables.m
    widths = (m, (m + 1) // 2) if tables.k <= 16 else (m,)
    if codes.ndim != 2 or codes.shape[1] not in widths:
        raise ValueError(f"codes must have shape (n, w), w in {widths}")
    t64 = tables.tables.astype(np.float64)
    acc = np.zeros(codes.shape[0], dtype=np.float64)
    for j, col in enumerate(code_columns(codes, m)):
        acc += t64[j].take(col)
    return acc


class NeighborSet:
    """The r smallest (distance, id) pairs seen so far.

    Bounded max-heap; ties on distance resolve to the lower id. The final
    contents do not depend on push order.
    """

    __slots__ = ("r", "_heap")

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r
        self._heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def worst(self) -> float:
        """Current r-th best distance; inf while fewer than r held."""
        if len(self._heap) < self.r:
            return float("inf")
        return -self._heap[0][0]

    def push(self, distance: float, ident: int) -> bool:
        """Offer a candidate; returns True if it was retained."""
        entry = (-float(distance), -int(ident))
        if len(self._heap) < self.r:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:
            heapq.heappushpop(self._heap, entry)
            return True
        return False

    def items(self) -> list[tuple[float, int]]:
        """Retained (distance, id) pairs, ascending."""
        return sorted((-d, -i) for d, i in self._heap)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(distances float64, ids int64), ascending by (distance, id)."""
        pairs = self.items()
        dists = np.array([p[0] for p in pairs], dtype=np.float64)
        ids = np.array([p[1] for p in pairs], dtype=np.int64)
        return dists, ids

    @classmethod
    def from_pairs(cls, r: int, dists: np.ndarray, ids: np.ndarray) -> "NeighborSet":
        """Bulk-load at most r pairs (assumed already the r best)."""
        out = cls(r)
        out._heap = [
            (-float(d), -int(i)) for d, i in zip(dists[:r], ids[:r])
        ]
        heapq.heapify(out._heap)
        return out


def _select_best(
    dists: np.ndarray, ids: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """The r smallest (distance, id) pairs, ascending, as parallel arrays."""
    n = dists.shape[0]
    r_eff = min(r, n)
    if r_eff == 0:
        return np.empty(0, np.float64), np.empty(0, np.int64)
    kth = np.partition(dists, r_eff - 1)[r_eff - 1]
    cand = np.flatnonzero(dists <= kth)
    order = np.lexsort((ids[cand], dists[cand]))[:r_eff]
    pick = cand[order]
    return dists[pick], ids[pick]


@dataclass
class CodeList:
    """Encoded database: codes of m components with parallel int64 ids.

    codes is (n, m), or (n, ceil(m/2)) uint8 for nibble-packed b <= 4 codes.
    m defaults to the width, so packed lists must pass it: an odd m and the
    next even one pack to the same width.
    """

    codes: np.ndarray
    ids: np.ndarray | None = None
    m: int | None = None

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes)
        if self.codes.ndim != 2:
            raise ValueError("codes must be 2-D (n, width)")
        if self.codes.dtype not in (np.dtype(np.uint8), np.dtype(np.uint16)):
            raise ValueError("codes must be uint8 or uint16")
        width = self.codes.shape[1]
        if self.m is None:
            self.m = width
        if width != self.m and (
            width != (self.m + 1) // 2 or self.codes.dtype != np.dtype(np.uint8)
        ):
            raise ValueError(f"width {width} holds neither {self.m} components "
                             "nor their nibble-packed uint8 form")
        if self.ids is None:
            self.ids = np.arange(self.codes.shape[0], dtype=np.int64)
        else:
            self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        if self.ids.shape != (self.codes.shape[0],):
            raise ValueError("ids length must match codes")

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @classmethod
    def from_vectors(
        cls,
        pq: ProductQuantizer,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> "CodeList":
        from .quantizer import encode

        return cls(encode(pq, np.atleast_2d(vectors)), ids, pq.m)


def scan(codelist: CodeList, tables: LookupTables, r: int) -> NeighborSet:
    """Exhaustive table-lookup scan: the r best codes by (distance, id)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if codelist.m != tables.m:
        raise ValueError(f"tables have m={tables.m}, code list m={codelist.m}")
    dists = scan_distances(tables, codelist.codes)
    best_d, best_i = _select_best(dists, codelist.ids, r)
    return NeighborSet.from_pairs(r, best_d, best_i)


BLOCK = 16


@dataclass
class TransposedCodeList:
    """Codes regrouped into blocks of 16 for in-register lookups.

    Row j of a block holds byte j of the stored code of each of its 16
    codes: for b=4 (m/2 rows) component 2j in the low nibble and 2j+1 in the
    high nibble, for b=8 (m rows) component j. The tail block is
    zero-padded; n is the validity count.
    """

    blocks: np.ndarray
    n: int
    m: int
    b: int
    ids: np.ndarray

    def __post_init__(self):
        self.blocks = np.ascontiguousarray(self.blocks, dtype=np.uint8)
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        rows = code_width(self.m, self.b)
        nblocks = (self.n + BLOCK - 1) // BLOCK
        if self.blocks.shape != (nblocks, rows, BLOCK):
            raise ValueError(
                f"blocks shape {self.blocks.shape}, expected {(nblocks, rows, BLOCK)}"
            )
        if self.ids.shape != (self.n,):
            raise ValueError("ids length must match n")

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    def block_validity(self, block_index: int) -> int:
        """Number of real (non-padding) codes in one block."""
        if block_index < self.n_blocks - 1:
            return BLOCK
        return self.n - block_index * BLOCK


def transpose_blocks(codelist: CodeList, b: int) -> TransposedCodeList:
    """Reorder a code list's stored bytes into blocks of 16 codes."""
    if b not in (4, 8):
        raise ValueError(f"block transposition supports b in (4, 8), got b={b}")
    m = codelist.m
    if b == 4 and m % 2 != 0:
        raise ValueError("b=4 transposition needs even m")
    error = code_layout_error(codelist.codes, m, b)
    if error:
        raise ValueError(error)
    n, width = codelist.codes.shape
    nblocks = (n + BLOCK - 1) // BLOCK
    padded = np.zeros((nblocks * BLOCK, width), dtype=np.uint8)
    padded[:n] = codelist.codes
    blocks = padded.reshape(nblocks, BLOCK, width).transpose(0, 2, 1)
    return TransposedCodeList(blocks=blocks, n=n, m=m, b=b, ids=codelist.ids)


def detranspose_blocks(tlist: TransposedCodeList) -> CodeList:
    """Inverse of transpose_blocks; reproduces the original list exactly."""
    width = tlist.blocks.shape[1]
    codes = tlist.blocks.transpose(0, 2, 1).reshape(-1, width)[: tlist.n]
    return CodeList(codes, tlist.ids, tlist.m)


MAGIC_CODES = b"PQL1"


def _code_dtype(b: int) -> str:
    return "<u2" if b > 8 else "u1"


def write_codes_body(f: BinaryIO, codelist: CodeList, b: int) -> None:
    """One PQL1 code list: the header, the stored code bytes, the ids."""
    if not 1 <= b <= 16:
        raise ValueError(f"b={b} out of range [1, 16]")
    error = code_layout_error(codelist.codes, codelist.m, b)
    if error:
        raise ValueError(error)
    _binio.write_magic(f, MAGIC_CODES)
    _binio.write_i32(f, codelist.n)
    _binio.write_i32(f, codelist.m)
    _binio.write_i32(f, b)
    _binio.write_i32(f, 1)
    _binio.write_array(f, codelist.codes, _code_dtype(b))
    _binio.write_array(f, codelist.ids, "<i8")


def read_codes_body(f: BinaryIO) -> tuple[CodeList, int]:
    """Reads one code list, keeping its bytes as the in-memory layout;
    returns (codelist, b)."""
    _binio.expect_magic(f, MAGIC_CODES)
    off = f.tell()
    n = _binio.read_i32(f)
    m = _binio.read_i32(f)
    b = _binio.read_i32(f)
    has_ids = _binio.read_i32(f)
    if n < 0 or m < 1 or not 1 <= b <= 16 or has_ids not in (0, 1):
        raise _binio.FormatError(
            f"bad code list header n={n} m={m} b={b} ids={has_ids}", offset=off
        )
    width = code_width(m, b)
    dtype = _code_dtype(b)
    _binio.require_bytes(
        f, n * width * np.dtype(dtype).itemsize + 8 * n * has_ids, "code list"
    )
    codes = _binio.read_array(f, dtype, n * width).reshape(n, width)
    error = code_layout_error(codes, m, b)
    if error:
        raise _binio.FormatError(error, offset=off)
    ids = _binio.read_array(f, "<i8", n) if has_ids else None
    return CodeList(codes, ids, m), b


def save_codes(path, codelist: CodeList, b: int) -> None:
    with open(path, "wb") as f:
        write_codes_body(f, codelist, b)


def load_codes(path) -> tuple[CodeList, int]:
    with open(path, "rb") as f:
        return read_codes_body(f)
