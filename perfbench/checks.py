"""Output checks and the exact 1-NN ground truth for the benchmark.

An operation is one query sent down one path. It fails when it raises, when
it returns fewer than r valid unique ids (unless the workload allows short
lists), or when it breaks its workload's exactness contract.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    short: int = 0
    reasons: Counter = field(default_factory=Counter)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1


def check_op(
    tally: Tally,
    items,
    r: int,
    n: int,
    expected=None,
    allowed_ids=None,
    allow_short: bool = False,
) -> bool:
    """Count one operation and return whether it passed.

    items is the (distance, id) list the path returned, or None if it raised.
    expected, when given, is the exact (distance, id) list the workload's
    contract demands. allowed_ids, when given, is an array of the ids the
    operation may return.
    """
    tally.attempted += 1
    if items is None:
        tally.fail("raised")
        return False
    ids = np.fromiter((i for _, i in items), dtype=np.int64, count=len(items))
    if ids.size < r:
        if not allow_short:
            tally.fail("fewer than r results")
            return False
        tally.short += 1
    if ids.size > r:
        tally.fail("more than r results")
    elif ids.size and (ids.min() < 0 or ids.max() >= n):
        tally.fail("id out of range")
    elif np.unique(ids).size != ids.size:
        tally.fail("duplicate id")
    elif allowed_ids is not None and not np.all(np.isin(ids, allowed_ids)):
        tally.fail("id outside the scanned lists")
    elif expected is not None and list(items) != list(expected):
        tally.fail("breaks the exactness contract")
    else:
        return True
    return False


def top_r(dists: np.ndarray, ids: np.ndarray, r: int) -> list[tuple[float, int]]:
    """The r best (distance, id) pairs, ascending, ties to the lower id."""
    order = np.lexsort((ids, dists))[:r]
    return [(float(dists[i]), int(ids[i])) for i in order]


def padded_ids(items, r: int) -> np.ndarray:
    """Result ids as a length-r row; missing ranks read -1, a recall miss."""
    row = np.full(r, -1, dtype=np.int64)
    got = [i for _, i in items][:r] if items is not None else []
    row[: len(got)] = got
    return row


_GT_CHUNK = 64
_GT_SHORTLIST = 16


def nearest_ids(base: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact 1-NN id per query under squared Euclidean distance.

    A float64 GEMM shortlists candidates; the shortlist is then ranked with
    the same cdist form as pqscan.exact_knn, ties to the lower id, so the
    answer matches exact_knn at a fraction of its cost.
    """
    base64 = np.asarray(base, dtype=np.float64)
    norms = np.einsum("ij,ij->i", base64, base64)
    out = np.empty(queries.shape[0], dtype=np.int64)
    for lo in range(0, queries.shape[0], _GT_CHUNK):
        q = np.asarray(queries[lo : lo + _GT_CHUNK], dtype=np.float64)
        approx = norms[None, :] - 2.0 * (q @ base64.T)
        short = np.argpartition(approx, _GT_SHORTLIST, axis=1)[:, :_GT_SHORTLIST]
        for row, cand in enumerate(short):
            exact = cdist(q[row : row + 1], base64[cand], "sqeuclidean")[0]
            out[lo + row] = top_r(exact, cand, 1)[0][1]
    return out
