"""Batched squared-Euclidean distance helpers and the one top-r selection.

Exactness contract of ``nearest``
---------------------------------
``nearest(x, c)`` returns, bit for bit, what
``argmin(cdist(x, c, "sqeuclidean"), axis=1)`` returns: per row, the lowest
index among the centroids at the smallest distance. It returns indexes only;
a caller that needs the distances computes ``sqdist_rows(x, c[idx])``, which
is cdist's value for those pairs bit for bit. Codebooks, codes and coarse
assignments therefore do not depend on how the distances are found.

It gets there in two steps, following the GEMM form faiss uses (Johnson et
al., 2017). Coordinates are first shifted by the centroid mean mu, so a
large common offset cancels: xs = x - mu, cs = c - mu. Then, per row,

    a(c) = <[xs, 1], [-2 cs, ||cs||^2]> = ||cs||^2 - 2 <xs, cs>

(one BLAS GEMM per chunk of rows, the norms riding in as an extra column)

ranks the centroids as ||xs - cs||^2 does, up to the row constant ||xs||^2.
The argmin of ``a`` is a shortlist of one unless another centroid scores
within the rounding bound below of the row minimum; only such rows are
reranked, over their shortlist, with the pair form cdist itself uses.

The bound. Let u = eps/2, S = ||xs||^2 + max_c ||cs||^2 and D(c) the cdist
value. With gamma_n = n u / (1 - n u), for every centroid (Higham, Accuracy
and Stability of Numerical Algorithms, ch. 3):

- the shift rounds each coordinate by at most u relative, which moves
  ||xs - cs||^2 away from ||x - c||^2 by at most about 4 u S;
- ||cs||^2 is off by at most gamma_d S, and the GEMM dot product of length
  d + 1 by at most gamma_(d+1) (2 ||xs|| ||cs|| + ||cs||^2) <=
  2 gamma_(d+1) S, in any summation order and with or without FMA;
- cdist sums d rounded squares of rounded differences, all non-negative,
  so D is within gamma_(d+2) ||x - c||^2 <= 2 gamma_(d+2) S of the exact
  value.

So a(c) + ||xs||^2 is within delta = (5d + 10) u S (to first order) of D(c)
for every c. If c* minimizes D, a(c*) <= a(argmin a) + 2 delta, and the same
holds for every centroid tied with c*. Every centroid that can win therefore
scores within 2 delta = (5d + 10) eps S of the row minimum. ``shortlist_slack``
allows 16 (d + 4) eps S, over three times that, which also absorbs the
rounding of S and of the threshold itself; the term in tiny covers gradual
underflow. A row whose S is not below max/4 (overflow, inf or NaN) is
reranked against every centroid, so non-finite input gives cdist's answer
too. k-means++ seeding (``quantizer._kmeanspp_init``) uses the same bound
one-sidedly: a point's cdist distance to a new seed can fall below its
current nearest-seed distance only if its score minus the slack does. The
seeding also returns each point's owner, the index of its nearest seed. The
owner moves to a new seed only when the distance strictly decreases, so
ties keep the lower index, which is ``nearest``'s own tie rule: the owners
equal ``nearest(points, seeds)`` and serve as Lloyd's first assignment.

The pair form ``sqdist_rows`` sums (x_j - c_j)^2 over the columns in order
0..d-1, which is the order scipy's cdist uses. The tests compare against
cdist directly, so a scipy that changes its summation order fails them.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

# Rows per chunk for nearest_k, sized so a chunk of distances to ~64K
# centroids stays well under a GiB of float64.
_CHUNK = 2048
# Score-matrix entries per chunk in nearest (512 KiB of float64), so the
# passes over it stay in cache.
_CHUNK_ENTRIES = 1 << 16
# Entries per block in sqdist_rows (32 KiB of float64), so its transposed
# block stays in L1/L2 cache.
_ROW_BLOCK_ENTRIES = 1 << 12
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# Below this scale S nothing in the bound's arithmetic can overflow.
SAFE_SCALE = float(np.finfo(np.float64).max) / 4


def sqdist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances, float64, shape (len(a), len(b)).

    Uses the naive sum((u - v)^2) form so that exactly symmetric inputs give
    exactly equal distances; argmin tie-breaking stays meaningful.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return cdist(a, b, "sqeuclidean")


def sqdist_rows(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-wise squared distances ||x[i] - c[i]||^2 (c may be one (d,) row).

    Summed over columns 0..d-1 in order, bit-identical to cdist
    "sqeuclidean": blocks of rows are transposed to (d, rows) and reduced
    over axis 0, one column at a time. numpy would reduce a one-row block
    pairwise, so a lone last row goes through the sequential accumulate.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n, d = x.shape
    out = np.empty(n)
    step = max(2, _ROW_BLOCK_ENTRIES // max(d, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        sq = x[lo:hi] - (c if c.ndim == 1 else c[lo:hi])
        np.square(sq, out=sq)
        if hi - lo == 1:
            out[lo] = np.add.accumulate(sq[0])[-1] if d else 0.0
        else:
            out[lo:hi] = np.add.reduce(sq.T.copy(), axis=0)
    return out


def shortlist_slack(d: int, scale):
    """Rounding allowance for scores of dimension d at scale S (see above)."""
    return 16.0 * (d + 4) * (_EPS * scale + _TINY)


# Non-finite or huge input takes the full rerank; like cdist, stay quiet.
@np.errstate(invalid="ignore", over="ignore")
def nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Per point, the index of the nearest centroid, int64.

    Bit-identical to cdist "sqeuclidean" followed by argmin, ties to the
    lowest centroid index (see the module docstring). Chunked over points.
    """
    x = np.asarray(points, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    n, d = x.shape
    k = c.shape[0]
    mu = c.mean(axis=0)
    cs = c - mu
    cn = np.einsum("ij,ij->i", cs, cs)
    cmax = cn.max()
    w = np.empty((d + 1, k))
    w[:d] = -2.0 * cs.T
    w[d] = cn
    idx = np.empty(n, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // k)
    # Column d stays 1, so the GEMM adds ||cs||^2 from row d of w.
    xs1 = np.ones((min(step, n), d + 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        xc = x[lo:hi]
        xs = xs1[: hi - lo, :d]
        np.subtract(xc, mu, out=xs)
        a = xs1[: hi - lo] @ w
        part = np.argmin(a, axis=1)
        rows = np.arange(hi - lo)
        scale = np.einsum("ij,ij->i", xs, xs) + cmax
        thr = a[rows, part] + shortlist_slack(d, scale)
        a[rows, part] = np.inf
        second = a.min(axis=1)
        unsafe = ~(scale < SAFE_SCALE)
        amb = np.flatnonzero(~(second > thr) | unsafe)
        if amb.size:
            short = a[amb] <= thr[amb, None]
            short[np.arange(amb.size), part[amb]] = True
            short[unsafe[amb]] = True
            ri, ci = np.nonzero(short)
            exact = np.full(short.shape, np.inf)
            exact[ri, ci] = sqdist_rows(xc[amb[ri]], c[ci])
            part[amb] = np.argmin(exact, axis=1)
        idx[lo:hi] = part
    return idx


def nearest_k(points: np.ndarray, centroids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point: indexes and distances of the k nearest centroids.

    Sorted ascending by (distance, index); ties resolve to the lower index.
    """
    points = np.asarray(points)
    n = points.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k), dtype=np.float64)
    cent_ids = np.arange(centroids.shape[0], dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        dm = sqdist_matrix(points[lo:hi], centroids)
        for row in range(hi - lo):
            dist[lo + row], idx[lo + row] = _select_best(dm[row], cent_ids, k)
    return idx, dist


def _select_best(
    dists: np.ndarray, ids: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """The r smallest (distance, id) pairs, ascending, as parallel arrays;
    ids come back int64 whatever the stored id dtype."""
    n = dists.shape[0]
    r_eff = min(r, n)
    if r_eff == 0:
        return np.empty(0, np.float64), np.empty(0, np.int64)
    kth = np.partition(dists, r_eff - 1)[r_eff - 1]
    cand = np.flatnonzero(dists <= kth)
    order = np.lexsort((ids[cand], dists[cand]))[:r_eff]
    pick = cand[order]
    return dists[pick], ids[pick].astype(np.int64, copy=False)
