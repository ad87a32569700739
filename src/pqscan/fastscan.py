"""The 8x8 fast scan and the grouped layout it reads.

PQ Fast Scan (André, Kermarrec & Le Scouarnec, VLDB 2015) groups 8x8 codes
by the high nibbles of their first four components, which saves 2 bytes per
code once groups are large. At 100,000 codes the directory of about 43,800
groups costs more than it saves, so ``group_codes`` keeps the paper's layout
with zero key nibbles: one group over the stored (n, 8) codes and ids,
shared rather than copied. ``fast_scan`` makes one ``qadc_scan`` call over
those codes, read as four 16-bit words, so its results equal the plain
scan's.

The library, IVF and the CLI reach that kernel as ``quick-adc``.
``fast_scan``, ``group_codes`` and the relabelling are kept only as the
entry points of the benchmark's flat-8x8 workload, until it calls
``qadc_scan`` itself (ROADMAP item 1)."""

from __future__ import annotations

from dataclasses import dataclass

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
    m = perm.shape[0]
    if codes.ndim != 2 or codes.shape[1] != m:
        raise ValueError(f"codes must have shape (n, {m})")
    # Each perm[j] is a permutation, so its argsort is its inverse.
    inverse = np.argsort(perm, axis=1).astype(codes.dtype)
    return np.stack([inverse[j].take(codes[:, j]) for j in range(m)], axis=1)


@dataclass
class GroupedDatabase:
    """8x8 codes as the paper's grouped layout with zero key nibbles.

    keys (G, 0) uint8; offsets/counts (G,) index into the packed rows, one
    group over every row (none when there are no rows); packed (n, 8) uint8
    holds the stored codes; ids (n,). offsets, counts and ids are int32 when
    their values fit, else int64 (``_binio.index_array``).
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
        if self.keys.shape != (g, 0) or self.offsets.shape != (g,) or self.counts.shape != (g,):
            raise ValueError("directory must be (G, 0) keys, (G,) offsets and counts")
        n = self.packed.shape[0]
        if self.packed.shape != (n, 8) or self.ids.shape != (n,):
            raise ValueError("packed codes must have shape (n, 8), ids (n,)")
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
        """The (n, 8) uint8 codes: the stored array itself."""
        return self.packed


def group_codes(codelist: CodeList) -> GroupedDatabase:
    """The stored codes and ids as they are, shared rather than copied, in
    one group (none for an empty list)."""
    codes = codelist.codes
    if codes.shape[1] != 8 or codes.dtype != np.dtype(np.uint8):
        raise ValueError("grouping requires 8-component uint8 codes (m=8, b=8)")
    groups = 1 if codelist.n else 0
    return GroupedDatabase(
        np.zeros((groups, 0), np.uint8), [0] * groups, [codelist.n] * groups, codes, codelist.ids
    )


def fast_scan(
    grouped: GroupedDatabase,
    tables: LookupTables,
    init: float,
    r: int,
) -> tuple[NeighborSet, ScanStats]:
    """The baseline scan's neighbor set, from ``qadc_scan`` over the stored
    codes. init, the paper's prefix fraction, is only range-checked: the
    prefix is the first r codes. It goes when fast scan does."""
    if tables.m != 8 or tables.k != 256:
        raise ValueError("fast scan requires m=8, b=8 lookup tables")
    if not 0.0 < init <= 1.0:
        raise ValueError("init must be in (0, 1]")
    codes = CodeList(grouped.reconstruct_codes(), grouped.ids)
    return qadc_scan([codes], [tables], r)
