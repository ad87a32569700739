"""Derived low-resolution quantizers sharing codes with high-resolution ones.

A b-bit codebook is reordered so the low b-bar bits of every centroid index
name the cluster of a coarser derived codebook (property P1). Stored codes
then serve two table resolutions: a cheap quantized first pass over the
derived tables collects candidates into distance-indexed buckets, and a
second pass reranks them with lazily computed full-resolution tables.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _binio
from ._dist import sqdist_matrix
from .quantizer import (
    ProductQuantizer,
    TrainConfig,
    _check_query,
    _kmeans_seeded,
    _require_finite,
    _seed_for,
    code_columns,
    code_components,
    read_quantizer_body,
    same_size_kmeans,
    write_quantizer_body,
)
from .scan import CodeList, LookupTables, NeighborSet, scan_distances

CBINS = 255


@dataclass
class DerivedPQ:
    """Full b-bit quantizer plus per-sub-space derived 2^bbar codebooks.

    P1: for every full index i, its low bbar bits give the derived cluster
    that full centroid i belongs to, so one stored code addresses both
    codebooks.
    """

    pq: ProductQuantizer
    bbar: int
    derived: np.ndarray

    def __post_init__(self):
        if not 1 <= self.bbar <= self.pq.b:
            raise ValueError(f"bbar={self.bbar} out of range [1, {self.pq.b}]")
        self.derived = np.ascontiguousarray(self.derived, dtype=np.float32)
        expect = (self.pq.m, 1 << self.bbar, self.pq.dsub)
        if self.derived.shape != expect:
            raise ValueError(f"derived shape {self.derived.shape}, expected {expect}")

    @property
    def kbar(self) -> int:
        return 1 << self.bbar

    def low_bits(self, indexes) -> np.ndarray | int:
        """Derived cluster of full centroid index(es): the low bbar bits."""
        out = np.asarray(indexes, dtype=np.int64) & (self.kbar - 1)
        return int(out[()]) if out.ndim == 0 else out


def build_derived_quantizers(
    training_sub: np.ndarray,
    kbar: int,
    k: int,
    cfg: TrainConfig | None = None,
    seed_seq: np.random.SeedSequence | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One sub-space's (full, derived) codebook pair.

    A temporary k-centroid codebook is clustered into kbar same-size groups;
    the derived codebook is the group centroids, and the full codebook is
    the temporary one reordered so entry (i_high << bbar) | l is group l's
    i_high-th member. Low index bits then name the derived cluster (P1).
    """
    cfg = cfg or TrainConfig()
    if k % kbar != 0 or kbar < 1:
        raise ValueError(f"k={k} must be a positive multiple of kbar={kbar}")
    if kbar & (kbar - 1) or k & (k - 1):
        raise ValueError("k and kbar must be powers of two")
    training_sub = np.asarray(training_sub, dtype=np.float64)
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(cfg.seed)
    temp = _kmeans_seeded(training_sub, k, cfg, seed_seq)
    derived, partition = same_size_kmeans(temp.astype(np.float64), kbar, cfg)
    bbar = kbar.bit_length() - 1
    per_cluster = k // kbar
    full = np.empty_like(temp)
    for low, members in enumerate(partition):
        for i_high in range(per_cluster):
            full[(i_high << bbar) | low] = temp[members[i_high]]
    return full, derived


def train_derived(
    training: np.ndarray,
    m: int,
    b: int,
    bbar: int,
    cfg: TrainConfig | None = None,
) -> DerivedPQ:
    """Train a DerivedPQ: per sub-space, a 2^b codebook reordered for P1
    plus its 2^bbar derived codebook."""
    cfg = cfg or TrainConfig()
    training = np.asarray(training, dtype=np.float64)
    if training.ndim != 2 or training.shape[1] % m != 0:
        raise ValueError("training set must be 2-D with d divisible by m")
    if not 1 <= bbar < b <= 16:
        raise ValueError(f"need 1 <= bbar < b <= 16, got bbar={bbar}, b={b}")
    if training.shape[0] < (1 << b):
        raise ValueError(f"{training.shape[0]} training points for {1 << b} centroids")
    _require_finite(training, "training vectors")
    d = training.shape[1]
    dsub = d // m
    k, kbar = 1 << b, 1 << bbar
    full = np.empty((m, k, dsub), dtype=np.float32)
    derived = np.empty((m, kbar, dsub), dtype=np.float32)
    for j in range(m):
        sub = np.ascontiguousarray(training[:, j * dsub : (j + 1) * dsub])
        full[j], derived[j] = build_derived_quantizers(
            sub, kbar, k, cfg, _seed_for(cfg.seed, j)
        )
    pq = ProductQuantizer(m=m, b=b, d=d, codebooks=full)
    return DerivedPQ(pq=pq, bbar=bbar, derived=derived)


def compute_compact_tables(dpq: DerivedPQ, query: np.ndarray) -> LookupTables:
    """Per-sub-space squared distances to the derived centroids only."""
    query = _check_query(query, dpq.pq.d)
    z = dpq.pq.rotate(query[None, :])[0]
    dsub = dpq.pq.dsub
    out = np.empty((dpq.pq.m, dpq.kbar), dtype=np.float32)
    for j in range(dpq.pq.m):
        sub = z[j * dsub : (j + 1) * dsub]
        out[j] = sqdist_matrix(sub[None, :], dpq.derived[j].astype(np.float64))[0]
    return LookupTables(out)


def quantize_255(qmin: float, qmax: float, values) -> np.ndarray | int:
    """255-bin quantization: 255 at or above qmax, else a floor-scaled bin
    clamped to [0, 254]."""
    v = np.asarray(values, dtype=np.float64)
    span = qmax - qmin
    if span <= 0.0:
        out = np.zeros(v.shape, dtype=np.uint8)
    else:
        bins = np.clip(np.floor((v - qmin) * (CBINS / span)), 0, CBINS - 1)
        out = np.where(v >= qmax, CBINS, bins).astype(np.uint8)
    return int(out[()]) if out.ndim == 0 else out


@dataclass
class QuantizedCompactTables:
    """m derived tables quantized to [0, 255]; 255 means at-or-above qmax."""

    tables: np.ndarray
    qmin: float
    qmax: float

    def __post_init__(self):
        self.tables = np.ascontiguousarray(self.tables, dtype=np.uint8)
        if self.tables.ndim != 2:
            raise ValueError("tables must be 2-D (m, kbar)")
        if self.qmax < self.qmin:
            raise ValueError("qmax must be >= qmin")

    @property
    def m(self) -> int:
        return self.tables.shape[0]

    @property
    def kbar(self) -> int:
        return self.tables.shape[1]


def quantize_compact_tables(
    compact: LookupTables, db: CodeList, r2: int
) -> QuantizedCompactTables:
    """Quantize derived tables with qmax = the largest approximate distance
    among the first min(r2, n) codes (scanned via the float tables)."""
    if db.n == 0:
        raise ValueError("empty code list")
    if r2 < 1:
        raise ValueError("r2 must be >= 1")
    kbar = compact.k
    qmin = float(compact.tables.min())
    head = code_components(db.codes[: min(r2, db.n)], compact.m)
    low = (head.astype(np.int64) & (kbar - 1)).astype(np.uint16)
    dists = scan_distances(compact, low)
    qmax = float(dists.max())
    qmax = max(qmax, qmin)
    return QuantizedCompactTables(
        tables=quantize_255(qmin, qmax, compact.tables), qmin=qmin, qmax=qmax
    )


def adc_low_bits(qt: QuantizedCompactTables, codes: np.ndarray) -> np.ndarray:
    """Approximate distances: saturating (at 255) sums of quantized derived
    table entries addressed by the low bbar bits of each full sub-index.
    Codes are one component per column or nibble-packed."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] not in (qt.m, (qt.m + 1) // 2):
        raise ValueError(f"codes must have shape (n, {qt.m}) or packed")
    mask = qt.kbar - 1
    acc = np.zeros(codes.shape[0], dtype=np.int32)
    for j, col in enumerate(code_columns(codes, qt.m)):
        acc = np.minimum(acc + qt.tables[j].take(col & mask), CBINS)
    return acc.astype(np.uint8)


class CappedBuckets:
    """Distance-indexed candidate store with a running admission bound.

    Buckets 0..254 hold ids by quantized distance; bucket 255 (at-or-above
    qmax) admits ids only while fewer than r2 are retained. Once r2 ids are
    held, the upper bound is the bucket of the r2-th smallest retained
    distance and anything above it is refused; finalize() also drops
    already-stored ids above the final bound.
    """

    __slots__ = ("r2", "_buckets", "_counts", "_retained")

    def __init__(self, r2: int):
        if r2 < 1:
            raise ValueError("r2 must be >= 1")
        self.r2 = r2
        self._buckets: list[list[int]] = [[] for _ in range(CBINS + 1)]
        self._counts = np.zeros(CBINS + 1, dtype=np.int64)
        self._retained = 0

    def __len__(self) -> int:
        return self._retained

    @property
    def upper_bound(self) -> int:
        """Bucket of the r2-th smallest retained distance; 255 while fewer
        than r2 ids are held."""
        if self._retained < self.r2:
            return CBINS
        cum = np.cumsum(self._counts)
        return int(np.argmax(cum >= self.r2))

    def put(self, dist: int, ident: int) -> bool:
        """Offer one candidate; returns True if retained."""
        if not 0 <= dist <= CBINS:
            raise ValueError("quantized distance out of range")
        if dist == CBINS:
            if self._retained >= self.r2:
                return False
        elif dist > self.upper_bound:
            return False
        self._buckets[dist].append(int(ident))
        self._counts[dist] += 1
        self._retained += 1
        return True

    def finalize(self) -> int:
        """Drop ids stored above the final bound; returns that bound."""
        bound = self.upper_bound
        for v in range(bound + 1, CBINS + 1):
            self._retained -= len(self._buckets[v])
            self._counts[v] = 0
            self._buckets[v] = []
        return bound

    def bucket(self, dist: int) -> list[int]:
        return self._buckets[dist]

    def counts(self) -> np.ndarray:
        return self._counts.copy()

    @classmethod
    def _from_selection(
        cls, r2: int, bins: np.ndarray, ids: np.ndarray
    ) -> "CappedBuckets":
        """Bulk build from already-admitted candidates in stream order."""
        out = cls(r2)
        order = np.argsort(bins, kind="stable")
        sorted_bins = bins[order]
        sorted_ids = ids[order]
        starts = np.searchsorted(sorted_bins, np.arange(CBINS + 2))
        for v in range(CBINS + 1):
            lo, hi = starts[v], starts[v + 1]
            if hi > lo:
                out._buckets[v] = [int(i) for i in sorted_ids[lo:hi]]
                out._counts[v] = hi - lo
        out._retained = int(bins.shape[0])
        return out


def scan_candidates(
    db: CodeList, qt: QuantizedCompactTables, r2: int
) -> CappedBuckets:
    """First pass: bucket every code's approximate distance, discarding
    those above the running bound, and drop over-bound leftovers.

    Equivalent to sequential put() calls in storage order followed by
    finalize(): any candidate at or below the final bound is always admitted
    (the running bound only tightens toward it), and anything above the
    final bound is dropped at the end regardless of when it was seen.
    """
    if r2 < 1:
        raise ValueError("r2 must be >= 1")
    d = adc_low_bits(qt, db.codes)
    ids = db.ids
    smalls = d <= CBINS - 1
    count_small = int(np.count_nonzero(smalls))
    if count_small >= r2:
        hist = np.bincount(d[smalls], minlength=CBINS)
        bound = int(np.argmax(np.cumsum(hist) >= r2))
        sel = d <= bound
    else:
        sel = smalls.copy()
        pos255 = np.flatnonzero(~smalls)
        if pos255.size:
            smalls_before = np.cumsum(smalls)[pos255]
            viol = np.flatnonzero(
                smalls_before + np.arange(pos255.size, dtype=np.int64) >= r2
            )
            take = int(viol[0]) if viol.size else pos255.size
            sel[pos255[:take]] = True
    pick = np.flatnonzero(sel)
    return CappedBuckets._from_selection(r2, d[pick], ids[pick])


class LazyTables:
    """Full-resolution tables computed entry-by-entry on demand.

    Uncomputed entries hold a negative sentinel (true distances are >= 0);
    each (sub-space, index) pair is computed at most once per query, and
    `computed` counts those computations. Values match compute_tables
    bit-for-bit: the same float64 squared distance rounded to float32.
    """

    __slots__ = ("_z", "_books", "_dsub", "_values", "computed")

    def __init__(self, pq: ProductQuantizer, query: np.ndarray):
        query = _check_query(query, pq.d)
        self._z = pq.rotate(query[None, :])[0]
        self._books = pq.codebooks
        self._dsub = pq.dsub
        self._values = np.full((pq.m, pq.k), -1.0, dtype=np.float64)
        self.computed = 0

    def lookup(self, j: int, index: int) -> float:
        v = self._values[j, index]
        if v < 0.0:
            sub = self._z[j * self._dsub : (j + 1) * self._dsub]
            cent = self._books[j, index].astype(np.float64)
            raw = sqdist_matrix(sub[None, :], cent[None, :])[0, 0]
            v = float(np.float32(raw))
            self._values[j, index] = v
            self.computed += 1
        return v


def rerank(
    db: CodeList,
    cand: CappedBuckets,
    pq: ProductQuantizer,
    query: np.ndarray,
    r: int,
    r2: int,
    lazy: LazyTables | None = None,
) -> NeighborSet:
    """Second pass: walk buckets ascending, processing whole buckets until at
    least r2 candidates got exact distances; return the r best by
    (distance, id)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if lazy is None:
        lazy = LazyTables(pq, query)
    ids = db.ids
    if np.array_equal(ids, np.arange(db.n, dtype=np.int64)):
        position = None
    else:
        position = {int(ident): pos for pos, ident in enumerate(ids)}
    nset = NeighborSet(r)
    processed = 0
    for v in range(CBINS + 1):
        if processed >= r2:
            break
        bucket = cand.bucket(v)
        if not bucket:
            continue
        pos = bucket if position is None else [position[i] for i in bucket]
        rows = code_components(db.codes[pos], pq.m).tolist()
        for ident, code in zip(bucket, rows):
            dist = 0.0
            for j, c in enumerate(code):
                dist += lazy.lookup(j, c)
            nset.push(dist, ident)
        processed += len(bucket)
    return nset


def search_two_pass(
    dpq: DerivedPQ, db: CodeList, query: np.ndarray, r: int, r2: int
) -> NeighborSet:
    """Quantized derived-table candidate scan, then lazy full-table rerank."""
    compact = compute_compact_tables(dpq, query)
    qt = quantize_compact_tables(compact, db, r2)
    cand = scan_candidates(db, qt, r2)
    return rerank(db, cand, dpq.pq, query, r, r2)


def write_derived_body(f: BinaryIO, dpq: DerivedPQ) -> None:
    write_quantizer_body(f, dpq.pq)
    _binio.write_i32(f, dpq.bbar)
    _binio.write_array(f, dpq.derived, "<f4")


def read_derived_body(f: BinaryIO) -> DerivedPQ:
    pq = read_quantizer_body(f)
    bbar = _binio.read_i32(f)
    derived = _binio.read_array(f, "<f4", pq.m * (1 << bbar) * pq.dsub)
    return DerivedPQ(
        pq=pq, bbar=bbar, derived=derived.reshape(pq.m, 1 << bbar, pq.dsub)
    )


def save_derived(path, dpq: DerivedPQ) -> None:
    with open(path, "wb") as f:
        write_derived_body(f, dpq)


def load_derived(path) -> DerivedPQ:
    with open(path, "rb") as f:
        return read_derived_body(f)


def load_quantizer_any(path) -> ProductQuantizer | DerivedPQ:
    """Load a quantizer file, returning a DerivedPQ when the derived-codebook
    extension is present (detected by remaining bytes)."""
    with open(path, "rb") as f:
        pq = read_quantizer_body(f)
        peek = f.read(4)
        if len(peek) < 4:
            return pq
        (bbar,) = struct.unpack("<i", peek)
        derived = _binio.read_array(f, "<f4", pq.m * (1 << bbar) * pq.dsub)
        return DerivedPQ(
            pq=pq, bbar=bbar, derived=derived.reshape(pq.m, 1 << bbar, pq.dsub)
        )
