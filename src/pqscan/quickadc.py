"""Quick ADC: an exact pruned scan of nibble-packed 4-bit codes.

With b=4 a lookup table has 16 entries and a stored byte holds two
components (2j in the low nibble of byte j, 2j+1 in the high one). Quick ADC
(André, Kermarrec & Le Scouarnec, ICMR 2017) scans codes through small
integer tables. Here their sum is a lower bound, and only the codes it cannot
rule out get an exact distance, so results equal the plain scan's, ties
included. One call scans any number of lists, each with its own tables (the
visited cells of an inverted index):

1. T0 is the r-th smallest exact distance of the first init_count codes of
   the first non-empty list (their largest if there are fewer).
2. Bound pass (``quantized_distances``). Each table row is shifted by its
   minimum; M_c, the sum of list c's minima, is below every distance in c.
   All lists share BINS = 32767 // m and one scale s = BINS / (T0 - min M_c),
   or s = 0 for a span below 2^-989 (so 1 / s stays normal), and every entry
   maps to q = min(BINS, floor((t - min) s)) in int16. A code's lower bound is
   L = M_c + B / s, where B <= m BINS, the sum of its entries, is read one
   stored byte at a time from 256-entry tables of summed entry pairs.
3. Exact pass. The prefix and the seeds, the r other codes with the smallest
   L, get exact distances; T is the r-th smallest of them, so at least the
   true r-th best. Every other code with L <= T + slack gets one too, summed
   in sub-space order as ``scan_distances`` sums it, and one selection over
   them all gives the result. A skipped code's computed distance exceeds T,
   so it lies outside the top r, ties included.

The slack. Let u = 2^-53, gamma_k = k u / (1 - k u) (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3), and for a code of list c with
float32 entries t_j and row minima m_j let D = sum t_j, M_c = sum m_j (in
real arithmetic), E = D - M_c >= 0 and A = m max |t| over all tables.
t_j - m_j and its product with s round once each, and the floor and the
clamp only lower q_j (a product that overflows clamps to BINS, below the real
one), so B <= (1 + u)^2 s E. With w = fl(1 / s), fl(B w) <= (1 + u)^4 E; the
float sum of the minima is within gamma_(m-1) A of M_c, and adding the two
rounds by at most u (A + 3 E). So the computed L is at most
D + gamma_(m-1) A + 7 u E + u A, and the computed distance D' is within
gamma_(m-1) A of D: L - D' <= (2 m + 13) u A, as E <= 2 A. A code is skipped
when L > fl(T + slack) with slack = 4 (m + 8) u (A + |T|), and then
D' > T + slack - u (|T| + slack) - (2 m + 13) u A >= T.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._dist import _select_best
from .scan import (
    CodeList,
    LookupTables,
    NeighborSet,
    ScanStats,
    # Not called here; the benchmark's tracer patches this name.
    detranspose_blocks,  # noqa: F401
    scan_distances,
)

DEFAULT_INIT_COUNT = 200
BOUND_MAX = np.iinfo(np.int16).max
_U = np.finfo(np.float64).eps / 2
_MIN_SPAN = 2.0**-989


def quantized_distances(codes: np.ndarray, q: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """int16 bounds of nibble-packed (n, ceil(m/2)) codes: row i sums its m
    entries of q[cells[i]], for (C, m, 16) int16 entries q whose m-entry
    sums fit int16. Each stored byte is one lookup, at cell * 256 + byte, in
    tables of summed entry pairs."""
    codes, q = np.asarray(codes), np.asarray(q, dtype=np.int16)
    n_cells, m, _ = q.shape
    width = (m + 1) // 2
    if q.shape[2] != 16 or codes.ndim != 2 or codes.shape[1] != width:
        raise ValueError(f"need (C, m, 16) entries and (n, {width}) codes")
    if m % 2:
        q = np.concatenate([q, np.zeros((n_cells, 1, 16), np.int16)], axis=1)
    # pairs[j, c * 256 + byte] = q[c, 2j, byte & 15] + q[c, 2j + 1, byte >> 4]
    pairs = q[:, 1::2, :, None] + q[:, 0::2, None, :]
    pairs = np.ascontiguousarray(pairs.transpose(1, 0, 2, 3)).reshape(width, -1)
    offsets = np.asarray(cells, dtype=np.intp) * 256
    acc = np.zeros(codes.shape[0], dtype=np.int16)
    for j in range(width):
        acc += pairs[j].take(codes[:, j] + offsets)
    return acc


def _bound_tables(t64: np.ndarray, t0: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(q, M, s) of (C, m, 16) float64 tables and T0, as the module
    docstring defines them."""
    mins = t64.min(axis=2)
    shifts = mins.sum(axis=1)
    bins = BOUND_MAX // t64.shape[1]
    span = t0 - shifts.min()
    s = bins / span if span >= _MIN_SPAN else 0.0
    q = np.minimum(np.floor((t64 - mins[:, :, None]) * s), bins).astype(np.int16)
    return q, shifts, s


def _exact_distances(t64: np.ndarray, codes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """scan_distances of each row of packed codes under its cell's tables
    t64[cell], bit for bit: the same float64 entries added to 0 in order."""
    _, m, k = t64.shape
    flat = np.empty((2 * codes.shape[1], codes.shape[0]), dtype=np.intp)
    np.bitwise_and(codes.T, 0x0F, out=flat[0::2])
    np.right_shift(codes.T, 4, out=flat[1::2])
    flat = flat[:m]
    flat += cells * (m * k) + np.arange(0, m * k, k)[:, None]
    acc = np.zeros(codes.shape[0], dtype=np.float64)
    for entries in t64.reshape(-1).take(flat):
        acc += entries
    return acc


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def qadc_scan(
    lists: Sequence[CodeList],
    tables: Sequence[LookupTables],
    init_count: int,
    r: int,
) -> tuple[NeighborSet, ScanStats]:
    """The r best codes by (distance, id) over every list, list i scored
    with tables[i] (see the module docstring), and the pruning counts."""
    if len(lists) != len(tables) or len({tab.m for tab in tables}) > 1:
        raise ValueError("need one set of lookup tables per code list, all of one m")
    for lst, tab in zip(lists, tables):
        if tab.k != 16 or tab.m != lst.m:
            raise ValueError("quick scan requires 4-bit tables matching the code list")
        if lst.codes.shape[1] != (lst.m + 1) // 2:
            raise ValueError("quick scan requires nibble-packed 4-bit codes")
    if init_count < 1 or r < 1:
        raise ValueError("init_count and r must be >= 1")
    visited = [(lst, tab) for lst, tab in zip(lists, tables) if lst.n]
    if not visited:
        return NeighborSet(r), ScanStats()
    lists, tables = zip(*visited)
    codes = _joined([lst.codes for lst in lists])
    ids = _joined([lst.ids for lst in lists])
    cells = np.repeat(np.arange(len(lists)), [lst.n for lst in lists])
    t64 = np.stack([tab.tables for tab in tables]).astype(np.float64)
    if not np.isfinite(t64).all():
        raise ValueError("quick scan requires finite lookup tables")
    m = t64.shape[1]

    prefix_d = scan_distances(tables[0], lists[0].codes[:init_count])
    n_init = prefix_d.shape[0]
    kth = min(r, n_init) - 1
    q, shifts, s = _bound_tables(t64, np.partition(prefix_d, kth)[kth])
    rest, rest_cells = codes[n_init:], cells[n_init:]
    lower = quantized_distances(rest, q, rest_cells) * (1.0 / s if s else 0.0)
    lower += shifts[rest_cells]

    seeds = np.argpartition(lower, r - 1)[:r] if lower.size > r else np.arange(lower.size)
    known = np.concatenate([prefix_d, _exact_distances(t64, rest[seeds], rest_cells[seeds])])
    later = np.empty(0, dtype=np.intp)
    if lower.size > r:
        t = np.partition(known, r - 1)[r - 1]
        keep = lower <= t + 4 * (m + 8) * _U * (m * np.abs(t64).max() + abs(t))
        keep[seeds] = False
        later = np.flatnonzero(keep)
    dists = np.concatenate([known, _exact_distances(t64, rest[later], rest_cells[later])])
    rows = np.concatenate([np.arange(n_init), n_init + seeds, n_init + later])
    best_d, best_i = _select_best(dists, ids[rows], r)
    stats = ScanStats(total=codes.shape[0], checked=dists.size, pruned=codes.shape[0] - dists.size)
    return NeighborSet.from_pairs(r, best_d, best_i), stats
