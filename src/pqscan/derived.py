"""Derived low-resolution quantizers sharing codes with high-resolution ones.

A b-bit codebook is reordered so the low b-bar bits of every centroid index
name the cluster of a coarser derived codebook (property P1). Stored codes
then serve two table resolutions: a cheap quantized first pass over the
derived tables keeps the candidates of capped distance buckets, sorted by
bucket, and a second pass reranks them with lazily computed full-resolution
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _binio
from ._dist import _select_best, sqdist_matrix
from ._parallel import assign_cost, fork_map
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
from .scan import (
    CodeList,
    LookupTables,
    NeighborSet,
    QuantizedTables,
    _float32_entries,
    _subspace_tables,
    quantize_tables,
    scan_distances,
)

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


def check_derived_bits(b: int, bbar: int) -> None:
    """Reject derived codebooks of bbar bits under b-bit full ones unless
    1 <= bbar < b <= 16."""
    if not 1 <= bbar < b <= 16:
        raise ValueError(f"need 1 <= bbar < b <= 16, got bbar={bbar}, b={b}")


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
    check_derived_bits(b, bbar)
    if training.shape[0] < (1 << b):
        raise ValueError(f"{training.shape[0]} training points for {1 << b} centroids")
    _require_finite(training, "training vectors")
    d = training.shape[1]
    dsub = d // m
    k, kbar = 1 << b, 1 << bbar

    def books(j):
        sub = np.ascontiguousarray(training[:, j * dsub : (j + 1) * dsub])
        return build_derived_quantizers(sub, kbar, k, cfg, _seed_for(cfg.seed, j))

    cost = m * (cfg.kmeans_iters + 1) * assign_cost(training.shape[0], k, dsub)
    full, derived = (np.stack(column) for column in zip(*fork_map(books, m, cost)))
    pq = ProductQuantizer(m=m, b=b, d=d, codebooks=full)
    return DerivedPQ(pq=pq, bbar=bbar, derived=derived)


def compute_compact_tables(dpq: DerivedPQ, query: np.ndarray) -> LookupTables:
    """Per-sub-space squared distances to the derived centroids only."""
    return _subspace_tables(dpq.pq, dpq.derived, query)


def quantize_compact_tables(
    compact: LookupTables, db: CodeList, r2: int
) -> QuantizedTables:
    """Quantize derived tables to CBINS bins (quantize_tables); the prefix is
    the first r2 codes, scanned via the float tables, so qmax is the largest
    of their distances."""
    if r2 < 1:
        raise ValueError("r2 must be >= 1")
    head = code_components(db.codes[:r2], compact.m)
    low = (head.astype(np.int64) & (compact.k - 1)).astype(np.uint16)
    return quantize_tables(compact, scan_distances(compact, low), r2, CBINS)


def adc_low_bits(qt: QuantizedTables, codes: np.ndarray) -> np.ndarray:
    """Approximate distances: saturating (at qt.bins) sums of quantized
    derived table entries addressed by the low bbar bits of each full
    sub-index. Codes are one component per column or nibble-packed.

    The sum is exact in an accumulator wide enough for m * qt.bins and
    clamped once; entries are non-negative, so that equals clamping every
    step."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] not in (qt.m, (qt.m + 1) // 2):
        raise ValueError(f"codes must have shape (n, {qt.m}) or packed")
    mask = qt.k - 1
    acc = np.zeros(codes.shape[0], dtype=np.min_scalar_type(qt.m * qt.bins))
    for j, col in enumerate(code_columns(codes, qt.m)):
        acc += qt.tables[j].take(col & mask)
    return np.minimum(acc, qt.bins).astype(np.uint8)


@dataclass
class Candidates:
    """First-pass survivors sorted stably by quantized distance bin, so each
    bin keeps storage order: their bins, code list positions and ids."""

    bins: np.ndarray
    positions: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return self.bins.shape[0]

    def bucket(self, v: int) -> list[int]:
        """Ids in bin v, in storage order."""
        lo, hi = self.bins.searchsorted(v, "left"), self.bins.searchsorted(v, "right")
        return self.ids[lo:hi].tolist()


def scan_candidates(
    db: CodeList, qt: QuantizedTables, r2: int
) -> Candidates:
    """First pass: bin every code's approximate distance and keep the codes
    a capped bucket store admits.

    The store takes codes in storage order. Bins below qt.bins hold codes by
    quantized distance; the top bin (at-or-above qmax) admits codes only
    while fewer than r2 are held. Once r2 are held, the running bound is the
    bin of the r2-th smallest held distance and anything above it is
    refused; at the end, codes held above the final bound are dropped. A
    code below the top bin and at or below the final bound is always
    admitted (the running bound only tightens toward it), and anything above
    it is dropped regardless of when it was seen, so the survivors are
    computed in bulk.
    """
    if r2 < 1:
        raise ValueError("r2 must be >= 1")
    d = adc_low_bits(qt, db.codes)
    smalls = d < qt.bins
    count_small = int(np.count_nonzero(smalls))
    if count_small >= r2:
        hist = np.bincount(d[smalls], minlength=qt.bins)
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
    positions = pick[np.argsort(d[pick], kind="stable")]
    return Candidates(d[positions], positions, db.ids[positions])


class LazyTables:
    """Full-resolution tables filled on demand, one sub-space per call.

    Each (sub-space, index) entry is computed at most once per query, and
    `computed` counts those computations. Values match compute_tables
    bit-for-bit: the same float64 squared distance rounded to float32.
    """

    __slots__ = ("_z", "_books", "_dsub", "_values", "_known", "computed")

    def __init__(self, pq: ProductQuantizer, query: np.ndarray):
        query = _check_query(query, pq.d)
        self._z = pq.rotate(query[None, :])[0]
        self._books = pq.codebooks
        self._dsub = pq.dsub
        self._values = np.empty((pq.m, pq.k), dtype=np.float32)
        self._known = np.zeros((pq.m, pq.k), dtype=bool)
        self.computed = 0

    def entries(self, j: int, indexes: np.ndarray) -> np.ndarray:
        """Table j's float32 entries at indexes; the missing ones are
        computed first, in one distance call."""
        need = np.zeros(self._known.shape[1], dtype=bool)
        need[indexes] = True
        missing = np.flatnonzero(need & ~self._known[j])
        if missing.size:
            sub = self._z[j * self._dsub : (j + 1) * self._dsub]
            cents = self._books[j, missing].astype(np.float64)
            dists = sqdist_matrix(sub[None, :], cents)[0]
            self._values[j, missing] = _float32_entries(dists)
            self._known[j, missing] = True
            self.computed += missing.size
        return self._values[j].take(indexes)


def rerank(
    db: CodeList,
    cand: Candidates,
    pq: ProductQuantizer,
    query: np.ndarray,
    r: int,
    lazy: LazyTables | None = None,
) -> NeighborSet:
    """Second pass: full-resolution distances of every candidate, summed in
    float64 in sub-space order as scan_distances does; return the r best by
    (distance, id)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if lazy is None:
        lazy = LazyTables(pq, query)
    dists = np.zeros(len(cand), dtype=np.float64)
    for j, col in enumerate(code_columns(db.codes[cand.positions], pq.m)):
        dists += lazy.entries(j, col)
    return NeighborSet.from_pairs(r, *_select_best(dists, cand.ids, r))


def search_two_pass(
    dpq: DerivedPQ, db: CodeList, query: np.ndarray, r: int, r2: int
) -> NeighborSet:
    """Quantized derived-table candidate scan, then lazy full-table rerank."""
    compact = compute_compact_tables(dpq, query)
    qt = quantize_compact_tables(compact, db, r2)
    cand = scan_candidates(db, qt, r2)
    return rerank(db, cand, dpq.pq, query, r)


def write_derived_body(f: BinaryIO, dpq: DerivedPQ) -> None:
    write_quantizer_body(f, dpq.pq)
    _binio.write_i32(f, dpq.bbar)
    _binio.write_array(f, dpq.derived, "<f4")


def read_derived_body(f: BinaryIO) -> DerivedPQ:
    pq = read_quantizer_body(f)
    off = f.tell()
    bbar = _binio.read_i32(f)
    if not 1 <= bbar <= pq.b:
        raise _binio.FormatError(f"bbar={bbar} out of range [1, {pq.b}]", offset=off)
    derived = _binio.read_array(f, "<f4", pq.m * (1 << bbar) * pq.dsub)
    return DerivedPQ(
        pq=pq, bbar=bbar, derived=derived.reshape(pq.m, 1 << bbar, pq.dsub)
    )


def save_derived(path, dpq: DerivedPQ) -> None:
    with open(path, "wb") as f:
        write_derived_body(f, dpq)


def load_derived(path) -> DerivedPQ:
    with open(path, "rb") as f:
        dpq = read_derived_body(f)
        _binio.expect_eof(f, "derived codebooks")
    return dpq


def load_quantizer_any(path) -> ProductQuantizer | DerivedPQ:
    """Load a quantizer file, returning a DerivedPQ when derived codebooks
    follow the PQZ1 body."""
    with open(path, "rb") as f:
        pq = read_quantizer_body(f)
        if not f.read(1):
            return pq
        f.seek(0)
        dpq = read_derived_body(f)
        _binio.expect_eof(f, "derived codebooks")
        return dpq
