"""Distance tables and the baseline table-lookup scan.

Given a query, one lookup table per sub-space holds the squared distance
from the query sub-vector to every centroid. The asymmetric distance of a
code is the sum of m table entries; a scan keeps the r best codes of one
list or of several, each under its own tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from . import _binio
from ._dist import _select_best, sqdist_matrix
from .quantizer import (
    ProductQuantizer,
    _check_query,
    code_columns,
    code_layout_error,
    code_width,
)


@dataclass
class LookupTables:
    """Per-sub-space squared distances, shape (m, 2^b) float32, all finite,
    so every kernel ranks the same finite sums."""

    tables: np.ndarray

    def __post_init__(self):
        self.tables = np.ascontiguousarray(self.tables, dtype=np.float32)
        if self.tables.ndim != 2:
            raise ValueError("tables must be 2-D (m, 2^b)")
        if not np.isfinite(self.tables).all():
            raise ValueError("lookup table entries must be finite")

    @property
    def m(self) -> int:
        return self.tables.shape[0]

    @property
    def k(self) -> int:
        return self.tables.shape[1]

    @property
    def nbytes(self) -> int:
        return self.tables.nbytes


_F32_MAX = float(np.finfo(np.float32).max)


def _float32_entries(values: np.ndarray) -> np.ndarray:
    """float64 table entries as float32; ValueError if any does not fit, as
    for a finite query so far from the codebooks that its squared distances
    overflow."""
    if not np.all(values <= _F32_MAX):
        raise ValueError("lookup table entries overflow float32")
    return values.astype(np.float32)


def _subspace_tables(
    pq: ProductQuantizer, books: np.ndarray, queries: np.ndarray
) -> LookupTables | list[LookupTables]:
    """Squared distances from each rotated query sub-vector to every row of
    books[j], computed in float64 and stored as float32: one LookupTables for
    a (d,) query, a list of n for (n, d) queries. Each sub-space takes one
    sqdist_matrix call over all rows; each row is rotated on its own, as a
    GEMM over all rows may round differently from one-row products."""
    queries = np.asarray(queries)
    single = queries.ndim != 2
    rows = [_check_query(q, pq.d)[None, :] for q in (queries[None] if single else queries)]
    z = np.reshape([pq.rotate(row)[0] for row in rows], (-1, pq.d))
    dsub = pq.dsub
    out = np.empty((len(rows), *books.shape[:2]))
    for j in range(pq.m):
        out[:, j] = sqdist_matrix(z[:, j * dsub : (j + 1) * dsub], books[j].astype(np.float64))
    tables = [LookupTables(t) for t in _float32_entries(out)]
    return tables[0] if single else tables


def compute_tables(pq: ProductQuantizer, queries: np.ndarray) -> LookupTables | list[LookupTables]:
    """Squared distances from each query sub-vector to every centroid: the
    tables of a (d,) query, or a list of the tables of each row of (n, d)
    queries, each equal bit for bit to its row's own call."""
    return _subspace_tables(pq, pq.codebooks, queries)


def scan_distances(tables: LookupTables, codes: np.ndarray) -> np.ndarray:
    """ADC distance of every row of codes: the sum of its m table entries.
    uint8 codes under tables of at most 16 entries are nibble-packed, (n,
    ceil(m/2)), as every 4-bit list is stored; other codes, uint16 among
    them, hold one component per column.

    Accumulates in float64 with a fixed left-to-right sub-space order, so
    each result equals the scalar sum taken in sub-space order exactly.
    """
    codes = np.asarray(codes)
    m = tables.m
    packed = tables.k <= 16 and codes.dtype == np.uint8
    width = (m + 1) // 2 if packed else m
    if codes.ndim != 2 or codes.shape[1] != width:
        raise ValueError(f"codes must have shape (n, {width}) for m={m}"
                         + (", nibble-packed" if packed else ""))
    t64 = tables.tables.astype(np.float64)
    acc = np.zeros(codes.shape[0], dtype=np.float64)
    for j, col in enumerate(code_columns(codes, m)):
        acc += t64[j].take(col)
    return acc


class NeighborSet:
    """The r best (distance, id) pairs, held as two arrays ascending by
    (distance, id): float64 distances and int64 ids.

    Ties on distance resolve to the lower id, so the contents do not depend
    on the order pairs arrive in. Every selection is ``_select_best``'s.
    """

    __slots__ = ("r", "_d", "_i")

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r
        self._d = np.empty(0, np.float64)
        self._i = np.empty(0, np.int64)

    def __len__(self) -> int:
        return self._d.shape[0]

    @property
    def worst(self) -> float:
        """Current r-th best distance; inf while fewer than r held."""
        return float(self._d[-1]) if len(self) == self.r else float("inf")

    def push(self, distance: float, ident: int) -> bool:
        """Offer a candidate; returns True if it was retained."""
        distance, ident = float(distance), int(ident)
        if len(self) == self.r and (distance, ident) >= (self.worst, int(self._i[-1])):
            return False
        self._d, self._i = _select_best(
            np.append(self._d, distance), np.append(self._i, ident), self.r
        )
        return True

    def items(self) -> list[tuple[float, int]]:
        """Held (distance, id) pairs, ascending."""
        return list(zip(self._d.tolist(), self._i.tolist()))

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(distances float64, ids int64), ascending by (distance, id)."""
        return self._d, self._i

    @classmethod
    def from_pairs(cls, r: int, dists: np.ndarray, ids: np.ndarray) -> "NeighborSet":
        """Hold dists and ids, which must be the r best, ascending, as
        ``_select_best`` returns them."""
        out = cls(r)
        out._d = np.asarray(dists, dtype=np.float64)
        out._i = np.asarray(ids, dtype=np.int64)
        return out


@dataclass
class CodeList:
    """Encoded database: codes of m components with parallel ids.

    ids are int32 when every id fits, else int64 (``_binio.index_array``);
    results still report int64 ids.

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
            self.ids = np.arange(self.codes.shape[0])
        self.ids = _binio.index_array(self.ids)
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


@dataclass
class ScanStats:
    """Pruning outcome counts: checked = exact distances computed, pruned =
    the rest."""

    total: int = 0
    checked: int = 0

    @property
    def pruned(self) -> int:
        return self.total - self.checked

    @property
    def pruned_fraction(self) -> float:
        return self.pruned / self.total if self.total else 0.0


# Why scan and the derived passes refuse a list whose m is not their tables'.
LIST_M_ERROR = "need one set of lookup tables of the list's m per code list"


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def scan(
    lists: CodeList | Sequence[CodeList],
    tables: LookupTables | Sequence[LookupTables],
    r: int,
) -> NeighborSet:
    """Exhaustive table-lookup scan: the r best codes by (distance, id) of a
    code list under its tables, or over equal-length sequences of lists and
    tables, list i scored with tables[i], in one selection over them all."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if isinstance(lists, CodeList):
        lists, tables = [lists], [tables]
    if len(lists) != len(tables) or any(lst.m != tab.m for lst, tab in zip(lists, tables)):
        raise ValueError(LIST_M_ERROR)
    if not lists:
        return NeighborSet(r)
    dists = _joined([scan_distances(tab, lst.codes) for lst, tab in zip(lists, tables)])
    best_d, best_i = _select_best(dists, _joined([lst.ids for lst in lists]), r)
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
        self.ids = _binio.index_array(self.ids)
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
    _binio.save(path, write_codes_body, codelist, b)


def load_codes(path) -> tuple[CodeList, int]:
    with open(path, "rb") as f:
        out = read_codes_body(f)
        _binio.expect_eof(f, "code list")
    return out
