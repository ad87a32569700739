"""Pruned exact scan over grouped 8x8 codes.

Codes are grouped by the high nibbles of their first four components and
packed to 6 bytes. Per query, lookup tables are quantized to 127 bins so a
cheap 8-bit saturating sum of small-table entries lower-bounds the true
distance; the exact distance is evaluated only when that bound does not
exceed the quantized current r-th best. Results match the baseline scan
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _binio
from .quantizer import ProductQuantizer, TrainConfig, same_size_kmeans
from .scan import CodeList, LookupTables, NeighborSet, scan_distances

BINS = 127
GROUP_NIBBLES = 4
PACKED_BYTES = 6


@dataclass
class QuantParams:
    """127-bin quantization range: qmin is the global table minimum, qmax a
    temporary r-th-neighbor distance. Values at or above qmax map to 127."""

    qmin: float
    qmax: float

    def __post_init__(self):
        if not (math.isfinite(self.qmin) and math.isfinite(self.qmax)):
            raise ValueError("quantization bounds must be finite")
        if self.qmax < self.qmin:
            raise ValueError("qmax must be >= qmin")

    @property
    def scale(self) -> float:
        span = self.qmax - self.qmin
        return BINS / span if span > 0.0 else 0.0


def quantize(params: QuantParams, values) -> np.ndarray | int:
    """Map distances to [0, 127]: 127 at or above qmax, else a floor-scaled
    bin clamped to [0, 126]. Monotone non-decreasing."""
    v = np.asarray(values, dtype=np.float64)
    if params.scale == 0.0:
        out = np.zeros(v.shape, dtype=np.uint8)
    else:
        bins = np.clip(np.floor((v - params.qmin) * params.scale), 0, BINS - 1)
        out = np.where(v >= params.qmax, BINS, bins).astype(np.uint8)
    return int(out[()]) if out.ndim == 0 else out


def compute_quant_params(
    tables: LookupTables, codelist: CodeList, init: float, r: int
) -> QuantParams:
    """qmin from the tables; qmax from a baseline scan of the first
    ceil(init*n) codes: the r-th smallest distance, or the largest seen when
    fewer than r codes were scanned."""
    if not 0.0 < init <= 1.0:
        raise ValueError("init must be in (0, 1]")
    if r < 1:
        raise ValueError("r must be >= 1")
    if codelist.n == 0:
        raise ValueError("empty code list")
    n_init = math.ceil(init * codelist.n)
    prefix_d = scan_distances(tables, codelist.codes[:n_init])
    return prefix_quant_params(tables, prefix_d, r)


def prefix_quant_params(tables: LookupTables, prefix_d: np.ndarray, r: int) -> QuantParams:
    """The quantization range compute_quant_params picks, given the exact
    distances of the scanned prefix."""
    if prefix_d.shape[0] >= r:
        qmax = float(np.partition(prefix_d, r - 1)[r - 1])
    else:
        qmax = float(prefix_d.max())
    qmin = float(tables.tables.min())
    return QuantParams(qmin=qmin, qmax=max(qmax, qmin))


def assignment_permutation(
    pq: ProductQuantizer, cfg: TrainConfig | None = None
) -> np.ndarray:
    """Per-codebook centroid order placing each same-size cluster of 16
    centroids in one contiguous block. Identity for codebooks 0-3; codebooks
    4-7 are the ones whose small tables keep only portion minima, so tight
    portions matter there. Returns (m, 256) int64 of old indexes."""
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

    keys (G, 4) uint8 ascending; offsets/counts (G,) int64 index into the
    packed rows; packed (n, 6) uint8 holds the low nibbles of components 0-3
    in two bytes plus components 4-7 verbatim; ids (n,) int64.
    """

    keys: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray
    packed: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        self.keys = np.ascontiguousarray(self.keys, dtype=np.uint8)
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        self.packed = np.ascontiguousarray(self.packed, dtype=np.uint8)
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
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
        expected = np.concatenate(([0], np.cumsum(self.counts[:-1])))
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

    def ungroup(self) -> CodeList:
        return CodeList(self.reconstruct_codes(), self.ids)


def pack_code(code: np.ndarray) -> np.ndarray:
    """6-byte packed form of one 8-component code (group key dropped)."""
    code = np.asarray(code, dtype=np.uint8)
    out = np.empty(PACKED_BYTES, dtype=np.uint8)
    out[0] = ((code[0] & 0x0F) << 4) | (code[1] & 0x0F)
    out[1] = ((code[2] & 0x0F) << 4) | (code[3] & 0x0F)
    out[2:6] = code[4:8]
    return out


def group_key(code: np.ndarray) -> tuple[int, int, int, int]:
    code = np.asarray(code, dtype=np.uint8)
    return tuple(int(code[j]) >> 4 for j in range(GROUP_NIBBLES))


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
    offsets = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.int64)
    sorted_codes = codes[order]
    packed = np.empty((codes.shape[0], PACKED_BYTES), dtype=np.uint8)
    packed[:, 0] = ((sorted_codes[:, 0] & 0x0F) << 4) | (sorted_codes[:, 1] & 0x0F)
    packed[:, 1] = ((sorted_codes[:, 2] & 0x0F) << 4) | (sorted_codes[:, 3] & 0x0F)
    packed[:, 2:6] = sorted_codes[:, 4:8]
    return GroupedDatabase(
        keys=keys,
        offsets=offsets,
        counts=counts.astype(np.int64),
        packed=packed,
        ids=codelist.ids[order],
    )


@dataclass
class SmallTables:
    """Eight 16-entry uint8 tables in [0, 127]: S0..S3 are the quantized
    group portions of the full tables, S4..S7 the quantized minima of the 16
    portions of tables 4-7."""

    tables: np.ndarray

    def __post_init__(self):
        self.tables = np.ascontiguousarray(self.tables, dtype=np.uint8)
        if self.tables.shape != (8, 16):
            raise ValueError("small tables must have shape (8, 16)")
        if np.any(self.tables > BINS):
            raise ValueError("small-table entries must be <= 127")


def _quantized_tables(tables: LookupTables, params: QuantParams) -> np.ndarray:
    return quantize(params, tables.tables)


def _min_tables(qtables: np.ndarray) -> np.ndarray:
    """(4, 16) per-portion minima of quantized tables 4-7."""
    return qtables[4:8].reshape(4, 16, 16).min(axis=2)


def build_small_tables(
    tables: LookupTables, params: QuantParams, key: tuple[int, int, int, int]
) -> SmallTables:
    if tables.m != 8 or tables.k != 256:
        raise ValueError("small tables require m=8, b=8 lookup tables")
    if len(key) != GROUP_NIBBLES or any(not 0 <= v < 16 for v in key):
        raise ValueError("group key must be four nibbles")
    qt = _quantized_tables(tables, params)
    small = np.empty((8, 16), dtype=np.uint8)
    for j in range(4):
        small[j] = qt[j, key[j] * 16 : (key[j] + 1) * 16]
    small[4:8] = _min_tables(qt)
    return SmallTables(small)


def lower_bound(small: SmallTables, packed: np.ndarray) -> int:
    """Saturating 8-bit sum (clamped at 127) over the small-table lookups
    addressed by a packed code: low nibbles for components 0-3, high nibbles
    for components 4-7. Never exceeds the quantized true distance."""
    packed = np.asarray(packed, dtype=np.uint8)
    t = small.tables
    lanes = (
        t[0, packed[0] >> 4],
        t[1, packed[0] & 0x0F],
        t[2, packed[1] >> 4],
        t[3, packed[1] & 0x0F],
        t[4, packed[2] >> 4],
        t[5, packed[3] >> 4],
        t[6, packed[4] >> 4],
        t[7, packed[5] >> 4],
    )
    acc = 0
    for v in lanes:
        acc = min(acc + int(v), BINS)
    return acc


def _lower_bounds_all(codes: np.ndarray, qt: np.ndarray, mins: np.ndarray) -> np.ndarray:
    """Vectorized lower_bound over full (n, 8) codes. Group portions indexed
    by the full byte equal the per-group small-table lookups exactly."""
    idx = codes.astype(np.int64)
    acc = qt[0][idx[:, 0]].astype(np.int16)
    for j in range(1, 4):
        acc += qt[j][idx[:, j]]
    for j in range(4, 8):
        acc += mins[j - 4][idx[:, j] >> 4]
    return np.minimum(acc, BINS).astype(np.uint8)


@dataclass
class ScanStats:
    """Pruning outcome counts: checked = exact distances computed."""

    total: int = 0
    checked: int = 0
    pruned: int = 0

    @property
    def pruned_fraction(self) -> float:
        return self.pruned / self.total if self.total else 0.0


_CHUNK = 1 << 10


def fast_scan(
    grouped: GroupedDatabase,
    tables: LookupTables,
    init: float,
    r: int,
) -> tuple[NeighborSet, ScanStats]:
    """Pruned scan returning exactly the baseline scan's neighbor set.

    The first ceil(init*n) codes are scanned with exact distances to fix the
    quantization range and seed the neighbor set. For the rest, an 8-bit
    lower bound is compared to the quantized current r-th best; only codes
    whose bound does not exceed it get an exact distance. The threshold is
    refreshed between batches, which can only weaken pruning, never
    correctness.
    """
    if tables.m != 8 or tables.k != 256:
        raise ValueError("fast scan requires m=8, b=8 lookup tables")
    if not 0.0 < init <= 1.0:
        raise ValueError("init must be in (0, 1]")
    if r < 1:
        raise ValueError("r must be >= 1")
    nset = NeighborSet(r)
    stats = ScanStats(total=grouped.n)
    if grouped.n == 0:
        return nset, stats
    codes = grouped.reconstruct_codes()
    ids = grouped.ids
    n = grouped.n
    n_init = math.ceil(init * n)

    prefix_d = scan_distances(tables, codes[:n_init])
    stats.checked += n_init
    order = np.lexsort((ids[:n_init], prefix_d))
    for pos in order[: min(r, n_init)]:
        nset.push(float(prefix_d[pos]), int(ids[pos]))
    params = prefix_quant_params(tables, prefix_d, r)

    qt = _quantized_tables(tables, params)
    mins = _min_tables(qt)
    start = n_init
    while start < n:
        stop = min(start + _CHUNK, n)
        chunk = codes[start:stop]
        threshold = quantize(params, nset.worst)
        lb = _lower_bounds_all(chunk, qt, mins)
        keep = lb <= threshold
        stats.pruned += int(np.count_nonzero(~keep))
        kept = np.flatnonzero(keep)
        if kept.size:
            d = scan_distances(tables, chunk[kept])
            stats.checked += kept.size
            kid = ids[start:stop][kept]
            for pos in np.lexsort((kid, d)):
                if not nset.push(float(d[pos]), int(kid[pos])):
                    break
        start = stop
    return nset, stats


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
    n = _binio.read_i32(f)
    g = _binio.read_i32(f)
    want = g * _DIR_DTYPE.itemsize
    raw = f.read(want)
    if len(raw) != want:
        raise _binio.FormatError(
            f"truncated group directory at byte {f.tell() - len(raw)}"
        )
    directory = np.frombuffer(raw, dtype=_DIR_DTYPE)
    packed = _binio.read_array(f, "u1", n * PACKED_BYTES).reshape(n, PACKED_BYTES)
    ids = _binio.read_array(f, "<i8", n)
    return GroupedDatabase(
        keys=directory["key"].copy(),
        offsets=directory["offset"].copy(),
        counts=directory["count"].copy(),
        packed=packed,
        ids=ids,
    )


def save_grouped(path, grouped: GroupedDatabase) -> None:
    with open(path, "wb") as f:
        write_grouped_body(f, grouped)


def load_grouped(path) -> GroupedDatabase:
    with open(path, "rb") as f:
        return read_grouped_body(f)
