"""Derived low-resolution quantizers sharing codes with high-resolution ones.

A b-bit codebook is reordered so the low b-bar bits of every centroid index
name the cluster of a coarser derived codebook (property P1). Stored codes
then serve two table resolutions: a cheap quantized first pass over the
derived tables keeps, sorted by bucket, the codes at or below the bucket of
the r2-th smallest quantized distance, or, when fewer than r2 lie below the
top bucket, all of those plus the top-bucket codes among the first r2
stored; a second pass reranks them with lazily computed full-resolution
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import _select_best, sqdist_matrix
from ._parallel import fork_map, kmeans_cost
from .quantizer import (
    DerivedPQ,
    ProductQuantizer,
    TrainConfig,
    _check_query,
    _check_train_args,
    _kmeans_seeded,
    _seed_for,
    code_columns,
    code_components,
    same_size_kmeans,
)
from .scan import (
    CodeList,
    LookupTables,
    NeighborSet,
    _float32_entries,
    _subspace_tables,
    scan_distances,
)

CBINS = 255


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
    check_derived_bits(b, bbar)
    _check_train_args(training, m, b)
    d = training.shape[1]
    dsub = d // m
    k, kbar = 1 << b, 1 << bbar

    def books(j):
        sub = np.ascontiguousarray(training[:, j * dsub : (j + 1) * dsub])
        return build_derived_quantizers(sub, kbar, k, cfg, _seed_for(cfg.seed, j))

    cost = m * kmeans_cost(training.shape[0], k, dsub, cfg.kmeans_iters)
    full, derived = (np.stack(column) for column in zip(*fork_map(books, m, cost)))
    return DerivedPQ(m=m, b=b, d=d, codebooks=full, bbar=bbar, derived=derived)


def compute_compact_tables(dpq: DerivedPQ, query: np.ndarray) -> LookupTables:
    """Per-sub-space squared distances to the derived centroids only."""
    return _subspace_tables(dpq, dpq.derived, query)


def quantize_compact_tables(
    compact: LookupTables, db: CodeList, r2: int
) -> np.ndarray:
    """The (m, 2^bbar) uint8 bins of the derived tables over [qmin, qmax]:
    qmin is the smallest entry, qmax the largest distance of the first r2
    codes under the float tables, never below qmin. An entry at or above
    qmax takes bin CBINS, any other floor((t - qmin) * CBINS / span) clipped
    to [0, CBINS - 1]; all bins are 0 when the span is 0."""
    if r2 < 1:
        raise ValueError("r2 must be >= 1")
    head = code_components(db.codes[:r2], compact.m)
    low = (head.astype(np.int64) & (compact.k - 1)).astype(np.uint16)
    prefix_d = scan_distances(compact, low)
    qmin = float(compact.tables.min())
    qmax = max(float(prefix_d.max()), qmin) if prefix_d.size else qmin
    span = qmax - qmin
    if not span > 0.0:
        return np.zeros(compact.tables.shape, dtype=np.uint8)
    t = compact.tables.astype(np.float64)
    bins = np.clip(np.floor((t - qmin) * (CBINS / span)), 0, CBINS - 1)
    return np.where(t >= qmax, CBINS, bins).astype(np.uint8)


def adc_low_bits(bins: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Approximate distances: sums, saturating at CBINS, of the (m, 2^bbar)
    derived-table bins addressed by the low bbar bits of each full
    sub-index. Codes are one component per column or nibble-packed.

    The sum is exact in an accumulator wide enough for m * CBINS and
    clamped once; entries are non-negative, so that equals clamping every
    step."""
    codes = np.asarray(codes)
    m, k = bins.shape
    if codes.ndim != 2 or codes.shape[1] not in (m, (m + 1) // 2):
        raise ValueError(f"codes must have shape (n, {m}) or packed")
    acc = np.zeros(codes.shape[0], dtype=np.min_scalar_type(m * CBINS))
    for j, col in enumerate(code_columns(codes, m)):
        acc += bins[j].take(col & (k - 1))
    return np.minimum(acc, CBINS).astype(np.uint8)


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


def scan_candidates(db: CodeList, bins: np.ndarray, r2: int) -> Candidates:
    """First pass: bin every code's approximate distance and keep the
    candidates of the capped bucket store, sorted stably by bin.

    bins are quantize_compact_tables'. Bins below CBINS hold codes by
    quantized distance; the top bin (at or above qmax) is capped by storage
    position. When at least r2 codes lie below the top bin, the kept codes
    are those at or below the bin of the r2-th smallest. Otherwise every code
    below the top bin is kept, and a top-bin code only among the first r2
    codes in storage order: a store filled in that order holds fewer than r2
    codes just before position p exactly when p < r2.
    """
    if r2 < 1:
        raise ValueError("r2 must be >= 1")
    d = adc_low_bits(bins, db.codes)
    keep = d < CBINS
    if np.count_nonzero(keep) >= r2:
        hist = np.bincount(d[keep], minlength=CBINS)
        keep = d <= int(np.argmax(np.cumsum(hist) >= r2))
    else:
        keep[:r2] = True
    pick = np.flatnonzero(keep)
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
    cand = scan_candidates(db, quantize_compact_tables(compact, db, r2), r2)
    return rerank(db, cand, dpq, query, r)
