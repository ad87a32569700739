"""One exact pruned scan for 4- and 8-bit codes (Quick ADC and PQ Fast Scan).

PQ Fast Scan (André, Kermarrec & Le Scouarnec, VLDB 2015) and Quick ADC (the
same authors, ICMR 2017) scan codes through small integer tables whose sum
lower-bounds each code's distance. Here both are one algorithm that reads the
stored codes two components at a time, one word per lookup:

- b=4: one nibble-packed byte (component 2j in the low nibble of byte j,
  2j+1 in the high one);
- b=8 at even m: the (n, m) uint8 codes viewed as (n, m/2) little-endian
  uint16 words (component 2j in the low byte of word j, 2j+1 in the high one).

Only the codes the bound cannot rule out get an exact distance, so results
equal the plain scan's, ties included. One call scans any number of lists,
each with its own tables (the visited cells of an inverted index):

1. T0 is the largest exact distance of the first r codes of the first
   non-empty list (all of them if there are fewer), so at least the r-th
   best. It only sets the scale: the results do not depend on it.
2. Bound pass (``quantized_distances``). Each table row is shifted by its
   minimum; M_c, the sum of list c's minima, is below every distance in c.
   All lists share BINS = 32767 // m and one scale s = BINS / span, and every
   entry maps to q = min(BINS, floor((t - min) s)) in int16. The span is
   T0 - min M_c, or the largest shifted entry where that is below 2^-989 (the
   prefix takes every row minimum); s = 0 if this too is below 2^-989, so
   1 / s stays normal. The slack below holds for any such s. A code's lower
   bound is L = M_c + B / s, where B <= m BINS, the sum of its entries, is
   read one word at a time from k^2-entry tables of summed entry pairs
   (k = 2^b).
3. Exact pass. The prefix and the seeds, the r other codes with the smallest
   L, get exact distances; T is the r-th smallest of them, so at least the
   true r-th best. Every other code with L <= T + slack gets one too, summed
   in sub-space order as ``scan_distances`` sums it, and one selection over
   them all gives the result. A skipped code's computed distance exceeds T,
   so it lies outside the top r, ties included.

The slack, for k in {16, 256} alike. Let u = 2^-53, gamma_k = k u / (1 - k u)
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), and for a
code of list c with float32 entries t_j and row minima m_j let D = sum t_j,
M_c = sum m_j (in real arithmetic), E = D - M_c >= 0 and A = m max |t| over
all tables. t_j - m_j and its product with s round once each, and the floor
and the clamp only lower q_j (a product that overflows clamps to BINS, below
the real one), so B <= (1 + u)^2 s E. With w = fl(1 / s), fl(B w) <=
(1 + u)^4 E; the float sum of the minima is within gamma_(m-1) A of M_c, and
adding the two rounds by at most u (A + 3 E). So the computed L is at most
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
    _joined,
    # Not called here; the benchmark's tracer patches this name.
    detranspose_blocks,  # noqa: F401
    scan_distances,
)

BOUND_MAX = np.iinfo(np.int16).max
_U = np.finfo(np.float64).eps / 2
_MIN_SPAN = 2.0**-989


def _stored_width(m: int, k: int) -> int:
    """Stored columns of an m-component code read with k-entry tables, or
    -1 where no word fits (module docstring)."""
    if k == 16:
        return (m + 1) // 2
    return m if k == 256 and m % 2 == 0 else -1


def quantized_distances(codes: np.ndarray, q: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """int16 bounds of stored codes: row i sums its m entries of q[cells[i]],
    for (C, m, k) int16 entries q whose m-entry sums fit int16. At k=16 the
    codes are nibble-packed (n, ceil(m/2)), at k=256 (n, m) uint8 of even m.
    Each stored word is one lookup, at cell * k^2 + word, in tables of summed
    entry pairs."""
    codes, q = np.ascontiguousarray(codes), np.asarray(q, dtype=np.int16)
    n_cells, m, k = q.shape
    width = (m + 1) // 2
    if codes.ndim != 2 or codes.shape[1] != _stored_width(m, k) or codes.dtype != np.uint8:
        raise ValueError("need (C, m, 16) entries and (n, ceil(m/2)) uint8 codes, "
                         "or (C, m, 256) entries of even m and (n, m) uint8 codes")
    if m % 2:
        q = np.concatenate([q, np.zeros((n_cells, 1, k), np.int16)], axis=1)
    # pairs[j, c * k^2 + high * k + low] = q[c, 2j, low] + q[c, 2j + 1, high]
    pairs = q[:, 1::2, :, None] + q[:, 0::2, None, :]
    pairs = np.ascontiguousarray(pairs.transpose(1, 0, 2, 3)).reshape(width, -1)
    words = codes if k == 16 else codes.view("<u2")
    offsets = np.asarray(cells, dtype=np.intp) * (k * k) if n_cells > 1 else 0
    acc = np.zeros(codes.shape[0], dtype=np.int16)
    for j in range(width):
        # One cell takes the word column as it is: adding 0 would copy it.
        acc += pairs[j].take(words[:, j] if n_cells == 1 else words[:, j] + offsets)
    return acc


def _bound_tables(t64: np.ndarray, t0: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(q, M, s) of (C, m, k) float64 tables and T0, as the module
    docstring defines them."""
    mins = t64.min(axis=2)
    shifts = mins.sum(axis=1)
    shifted = t64 - mins[:, :, None]
    span = t0 - shifts.min()
    span = span if span >= _MIN_SPAN else shifted.max()
    bins = BOUND_MAX // t64.shape[1]
    s = bins / span if span >= _MIN_SPAN else 0.0
    q = np.minimum(np.floor(shifted * s), bins).astype(np.int16)
    return q, shifts, s


def _exact_distances(t64: np.ndarray, codes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """scan_distances of each row of stored codes under its cell's tables
    t64[cell], bit for bit: the same float64 entries added to 0 in order."""
    _, m, k = t64.shape
    if k == 16:
        flat = np.empty((2 * codes.shape[1], codes.shape[0]), dtype=np.intp)
        np.bitwise_and(codes.T, 0x0F, out=flat[0::2])
        np.right_shift(codes.T, 4, out=flat[1::2])
        flat = flat[:m]
    else:
        flat = codes.T.astype(np.intp)
    flat += cells * (m * k) + np.arange(0, m * k, k)[:, None]
    acc = np.zeros(codes.shape[0], dtype=np.float64)
    for entries in t64.reshape(-1).take(flat):
        acc += entries
    return acc


def qadc_scan(
    lists: Sequence[CodeList],
    tables: Sequence[LookupTables],
    r: int,
) -> tuple[NeighborSet, ScanStats]:
    """The r best codes by (distance, id) over every list, list i scored
    with tables[i] (see the module docstring), and the pruning counts."""
    if len(lists) != len(tables) or len({tab.tables.shape for tab in tables}) > 1:
        raise ValueError("need one set of lookup tables per code list, all of one m and k")
    for lst, tab in zip(lists, tables):
        width = _stored_width(lst.m, tab.k)
        if tab.m != lst.m or lst.codes.shape[1] != width or lst.codes.dtype != np.uint8:
            raise ValueError("quick scan requires tables matching nibble-packed 4-bit "
                             "codes or 8-bit codes of even m")
    if r < 1:
        raise ValueError("r must be >= 1")
    visited = [(lst, tab) for lst, tab in zip(lists, tables) if lst.n]
    if not visited:
        return NeighborSet(r), ScanStats()
    lists, tables = zip(*visited)
    codes = _joined([lst.codes for lst in lists])
    ids = _joined([lst.ids for lst in lists])
    cells = np.repeat(np.arange(len(lists)), [lst.n for lst in lists])
    t64 = np.stack([tab.tables for tab in tables]).astype(np.float64)
    m = t64.shape[1]

    prefix_d = scan_distances(tables[0], lists[0].codes[:r])
    n_prefix = prefix_d.shape[0]
    q, shifts, s = _bound_tables(t64, prefix_d.max())
    rest, rest_cells = codes[n_prefix:], cells[n_prefix:]
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
    rows = np.concatenate([np.arange(n_prefix), n_prefix + seeds, n_prefix + later])
    best_d, best_i = _select_best(dists, ids[rows], r)
    return NeighborSet.from_pairs(r, best_d, best_i), ScanStats(codes.shape[0], dists.size)
