"""Grouped 8x8 codes and the fast scan over them.

PQ Fast Scan (André, Kermarrec & Le Scouarnec, VLDB 2015) stores 8x8 codes
grouped by the high nibbles of their first four components and packed to 6
bytes. Its scan is the one exact pruned kernel of ``quickadc``, which reads
8x8 codes as four 16-bit words: ``fast_scan`` rebuilds the (n, 8) codes of a
grouped database and makes one ``qadc_scan`` call, so its results equal the
plain scan's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _binio
from .quantizer import ProductQuantizer, TrainConfig, same_size_kmeans
from .quickadc import qadc_scan
from .scan import (
    CodeList,
    LookupTables,
    NeighborSet,
    ScanStats,
    # Not called here; the benchmark's tracer patches this name.
    scan_distances,  # noqa: F401
)

GROUP_NIBBLES = 4
PACKED_BYTES = 6


def assignment_permutation(
    pq: ProductQuantizer, cfg: TrainConfig | None = None
) -> np.ndarray:
    """Per-codebook centroid order placing each same-size cluster of 16
    centroids in one contiguous block. Identity for codebooks 0-3; codebooks
    4-7 are the ones whose small tables keep only portion minima in the
    paper's per-group bound (``fast_scan``'s bound does not depend on the
    labels). Returns (m, 256) int64 of old indexes."""
    if pq.m != 8 or pq.b != 8:
        raise ValueError("optimized assignment requires m=8, b=8")
    perm = np.tile(np.arange(pq.k, dtype=np.int64), (pq.m, 1))
    for j in range(4, 8):
        book = pq.codebooks[j].astype(np.float64)
        # Cluster in canonical row order so a relabeled codebook (same rows,
        # different order) yields the same partition; keeps the operation
        # idempotent up to block and within-block order.
        order = np.lexsort(book.T[::-1])
        _, partition = same_size_kmeans(book[order], 16, cfg)
        perm[j] = np.concatenate([order[part] for part in partition])
    return perm


def optimize_centroid_assignment(
    pq: ProductQuantizer, cfg: TrainConfig | None = None
) -> ProductQuantizer:
    """Relabel centroids so indexes 16p..16p+15 form one cluster of mutually
    close centroids. Quantizer semantics unchanged up to index relabeling."""
    perm = assignment_permutation(pq, cfg)
    books = np.stack([pq.codebooks[j][perm[j]] for j in range(pq.m)])
    return ProductQuantizer(
        m=pq.m, b=pq.b, d=pq.d, codebooks=books, rotation=pq.rotation
    )


def relabel_codes(codes: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Rewrite codes produced before a centroid permutation: component j's
    old index i becomes the position of i in perm[j]."""
    codes = np.asarray(codes)
    m, k = perm.shape
    if codes.ndim != 2 or codes.shape[1] != m:
        raise ValueError(f"codes must have shape (n, {m})")
    inverse = np.empty_like(perm)
    for j in range(m):
        inverse[j, perm[j]] = np.arange(k, dtype=np.int64)
    out = np.empty_like(codes)
    for j in range(m):
        out[:, j] = inverse[j][codes[:, j].astype(np.int64)].astype(codes.dtype)
    return out


@dataclass
class GroupedDatabase:
    """Codes bucketed by the high nibbles of components 0-3.

    keys (G, 4) uint8 ascending; offsets/counts (G,) index into the packed
    rows; packed (n, 6) uint8 holds the low nibbles of components 0-3 in two
    bytes plus components 4-7 verbatim; ids (n,). offsets, counts and ids
    are int32 when their values fit, else int64 (``_binio.index_array``).
    """

    keys: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray
    packed: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        self.keys = np.ascontiguousarray(self.keys, dtype=np.uint8)
        self.offsets = _binio.index_array(self.offsets)
        self.counts = _binio.index_array(self.counts)
        self.packed = np.ascontiguousarray(self.packed, dtype=np.uint8)
        self.ids = _binio.index_array(self.ids)
        g = self.keys.shape[0]
        if self.keys.ndim != 2 or self.keys.shape[1] != GROUP_NIBBLES:
            raise ValueError("keys must have shape (G, 4)")
        if np.any(self.keys >= 16):
            raise ValueError("group key nibbles must be < 16")
        if self.offsets.shape != (g,) or self.counts.shape != (g,):
            raise ValueError("directory arrays must match key count")
        n = self.packed.shape[0]
        if self.packed.ndim != 2 or self.packed.shape[1] != PACKED_BYTES:
            raise ValueError("packed codes must have shape (n, 6)")
        if self.ids.shape != (n,):
            raise ValueError("ids length must match packed codes")
        if int(self.counts.sum()) != n:
            raise ValueError("group counts do not cover the code rows")
        expected = np.cumsum(self.counts) - self.counts
        if not np.array_equal(self.offsets, expected):
            raise ValueError("offsets must be the exclusive prefix sum of counts")

    @property
    def n(self) -> int:
        return self.packed.shape[0]

    @property
    def n_groups(self) -> int:
        return self.keys.shape[0]

    def reconstruct_codes(self) -> np.ndarray:
        """The original (n, 8) uint8 codes, in grouped storage order."""
        highs = np.repeat(self.keys, self.counts, axis=0)
        codes = np.empty((self.n, 8), dtype=np.uint8)
        codes[:, 0] = (highs[:, 0] << 4) | (self.packed[:, 0] >> 4)
        codes[:, 1] = (highs[:, 1] << 4) | (self.packed[:, 0] & 0x0F)
        codes[:, 2] = (highs[:, 2] << 4) | (self.packed[:, 1] >> 4)
        codes[:, 3] = (highs[:, 3] << 4) | (self.packed[:, 1] & 0x0F)
        codes[:, 4:8] = self.packed[:, 2:6]
        return codes


def group_codes(codelist: CodeList) -> GroupedDatabase:
    """Bucket codes by high nibbles of components 0-3, keys ascending,
    original order preserved within each group."""
    codes = codelist.codes
    if codes.shape[1] != 8 or codes.dtype != np.dtype(np.uint8):
        raise ValueError("grouping requires 8-component uint8 codes (m=8, b=8)")
    highs = (codes[:, :GROUP_NIBBLES] >> 4).astype(np.uint32)
    key_val = (highs[:, 0] << 12) | (highs[:, 1] << 8) | (highs[:, 2] << 4) | highs[:, 3]
    order = np.argsort(key_val, kind="stable")
    sorted_vals = key_val[order]
    uniq, counts = np.unique(sorted_vals, return_counts=True)
    keys = np.stack(
        [(uniq >> 12) & 0xF, (uniq >> 8) & 0xF, (uniq >> 4) & 0xF, uniq & 0xF],
        axis=1,
    ).astype(np.uint8)
    offsets = np.cumsum(counts) - counts  # exclusive prefix sum, empty for no groups
    sorted_codes = codes[order]
    packed = np.empty((codes.shape[0], PACKED_BYTES), dtype=np.uint8)
    packed[:, 0] = ((sorted_codes[:, 0] & 0x0F) << 4) | (sorted_codes[:, 1] & 0x0F)
    packed[:, 1] = ((sorted_codes[:, 2] & 0x0F) << 4) | (sorted_codes[:, 3] & 0x0F)
    packed[:, 2:6] = sorted_codes[:, 4:8]
    return GroupedDatabase(
        keys=keys,
        offsets=offsets,
        counts=counts,
        packed=packed,
        ids=codelist.ids[order],
    )


def fast_scan(
    grouped: GroupedDatabase,
    tables: LookupTables,
    init: float,
    r: int,
) -> tuple[NeighborSet, ScanStats]:
    """The baseline scan's neighbor set, from ``qadc_scan`` over the grouped
    codes with the first ceil(init*n) of them as its prefix."""
    if tables.m != 8 or tables.k != 256:
        raise ValueError("fast scan requires m=8, b=8 lookup tables")
    if not 0.0 < init <= 1.0:
        raise ValueError("init must be in (0, 1]")
    codes = CodeList(grouped.reconstruct_codes(), grouped.ids)
    return qadc_scan([codes], [tables], max(1, math.ceil(init * grouped.n)), r)


MAGIC_GROUPED = b"PQG1"
_DIR_DTYPE = np.dtype([("key", "u1", (4,)), ("offset", "<i8"), ("count", "<i8")])


def write_grouped_body(f: BinaryIO, grouped: GroupedDatabase) -> None:
    _binio.write_magic(f, MAGIC_GROUPED)
    _binio.write_i32(f, grouped.n)
    _binio.write_i32(f, grouped.n_groups)
    directory = np.zeros(grouped.n_groups, dtype=_DIR_DTYPE)
    directory["key"] = grouped.keys
    directory["offset"] = grouped.offsets
    directory["count"] = grouped.counts
    f.write(directory.tobytes())
    _binio.write_array(f, grouped.packed, "u1")
    _binio.write_array(f, grouped.ids, "<i8")


def read_grouped_body(f: BinaryIO) -> GroupedDatabase:
    _binio.expect_magic(f, MAGIC_GROUPED)
    off = f.tell()
    n = _binio.read_i32(f)
    g = _binio.read_i32(f)
    if n < 0 or g < 0:
        raise _binio.FormatError(f"bad grouped header n={n} g={g}", offset=off)
    _binio.require_bytes(
        f, g * _DIR_DTYPE.itemsize + n * (PACKED_BYTES + 8), "grouped codes"
    )
    directory = _binio.read_array(f, _DIR_DTYPE, g)
    packed = _binio.read_array(f, "u1", n * PACKED_BYTES).reshape(n, PACKED_BYTES)
    ids = _binio.read_array(f, "<i8", n)
    try:
        return GroupedDatabase(
            keys=directory["key"],
            offsets=directory["offset"],
            counts=directory["count"],
            packed=packed,
            ids=ids,
        )
    except ValueError as exc:
        raise _binio.FormatError(str(exc), offset=off) from None


def save_grouped(path, grouped: GroupedDatabase) -> None:
    with open(path, "wb") as f:
        write_grouped_body(f, grouped)


def load_grouped(path) -> GroupedDatabase:
    with open(path, "rb") as f:
        grouped = read_grouped_body(f)
        _binio.expect_eof(f, "grouped codes")
    return grouped
