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
too.

float32 scores. ``nearest`` runs the GEMM in float32 (one SGEMM, half the
bytes and about half the time of the DGEMM) whenever the centroid scale
max_c ||cs||^2 lies in [TINY_SCALE32, SAFE_SCALE32). With u32 the float32
unit roundoff, casting xs, -2 cs and ||cs||^2 moves each product and the
norm by at most 2 u32 relative, 2 u32 S in all (2 ||xs|| ||cs|| <= S), and
the float32 dot product of length d + 1 adds gamma_(d+1)(u32) 2 S. So the
score is off by about (2d + 5) u32 S, and every centroid that can win
scores within (2d + 5) eps32 S of the row minimum, plus the float64 terms
above. ``shortlist_slack(d, S, np.float32)`` = 16 (d + 4) eps32 S is over
eight times that. S is summed in float32 from the cast coordinates, within
(d + 2) u32 of its value, and the threshold (row minimum plus slack, in
float32) is rounded up with ``nextafter``, so a win never lies above it.
The term in tiny32 covers float32 gradual underflow and flush-to-zero
alike: a cast coordinate may then be off by 2^-150 absolute, which moves
its product by at most 2^-149 sqrt(S), and each product or sum by as much
again. Below ``SAFE_SCALE32`` (max32 / 4) every partial sum
is under 2 S, so nothing overflows; a row whose S reaches it (its cast may
overflow to inf) is reranked against every centroid, as above. Centroid
sets outside the window keep float64 scores in the same code: at scale
SAFE_SCALE32 and above every row would need the full rerank, and below
TINY_SCALE32 = tiny32 / eps32 the tiny32 term would make every row
ambiguous. The scores' dtype changes which rows are reranked, never the
result.

Score layout, picked from k. A per-row numpy reduction (``argmin`` or
``min`` over axis 1) costs tens of ns per row whatever k is: at k = 16
that is several times the GEMM. So codebooks of at most ``NARROW_K`` (256)
centroids are scored centroid-major, a (k, rows) block, where each pass
over the scores is one vectorized reduction across k rows: the row minimum,
the test against the threshold, the hit count, and the largest hit index
(a uint8, which k <= 256 keeps exact), which is the winner of a row with a
single hit. Wider codebooks are scored row-major, where the per-row cost is
small next to k, with ``argmin`` and a second-minimum test. Measured at
8,192 rows and d = 8, 16, 128 (2-vCPU x86-64, OpenBLAS 1 thread), the
centroid-major time over the row-major one is 0.53-0.85 at k = 64,
0.72-1.00 at k = 256, 1.07-1.17 at k = 384 and 1.17-1.57 at k = 1024, so
the crossover lies between 256 and 384.

Chunks hold ``_CHUNK_ENTRIES`` (2^18) scores, 1 MiB in float32, so every
pass over a chunk after the GEMM reads L2 cache; each chunk reuses the same
buffers, as fresh ones would fault in new pages every time. Above 4,096
centroids that would leave under 64 rows per chunk, and the per-chunk
overhead would dominate, so chunks keep ``_MIN_CHUNK_ROWS`` (64) rows: at
k = 65,536, d = 32 and 1,024 rows, 4-row chunks took 1.06 s and 64-row
chunks 0.32 s.

k-means++ seeding (``quantizer._kmeanspp_init``) uses the same bound
one-sidedly: a point's cdist distance to a new seed can fall below its
current nearest-seed distance only if its score minus the slack does. To
halve the bytes each seed's GEMV reads, it scores in float32: one float32
copy of the points, shifted by their mean and stored (d, n), per k-means
run, and one sgemv per seed. The Lloyd steps' ``nearest`` calls read the
same copy. The casts move each product by at most 2 u32 relative and the
float32 dot product adds gamma_d(u32); as 2 ||xs|| ||cs|| <= S, the score
is off by about (d + 3) u32 S at most, well within the same float32 slack.
If the largest ||xs||^2 reaches ``SAFE_SCALE32`` nothing is cast, and a
seed whose xn_max + cn reaches it gets every point's distance exactly.
Points whose bound says they might drop get the exact float64 distance, so
the draws stay bit-identical. The draws are split by rows: each share of
a worker team (``quantizer._Shares``) scores and updates its own points,
against its own xn_max, while the caller keeps the RNG and the cumulative
weights over all of them. Which points get the exact distance depends on
the split and on the GEMV's summation order, but no point whose bound
holds can change, so the draws stay bit-identical on any number of shares
as well. The seeding also returns each point's owner,
the index of its nearest seed. The owner moves to a new seed only when the
distance strictly decreases, so ties keep the lower index, which is
``nearest``'s own tie rule: the owners equal ``nearest(points, seeds)`` and
serve as Lloyd's first assignment.

The pair form ``sqdist_rows`` sums (x_j - c_j)^2 over the columns in order
0..d-1, which is the order scipy's cdist uses. Against one row it calls
cdist itself, which is that reference and several times faster there. The
tests compare against cdist directly, so a scipy that changes its summation
order fails them.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

# nearest scores codebooks of at most NARROW_K centroids centroid-major.
NARROW_K = 256
# Score-matrix entries per chunk in nearest: 1 MiB of float32 scores, so
# the passes over a chunk stay in L2 cache; but never fewer rows than
# _MIN_CHUNK_ROWS (see the module docstring). nearest_k's chunks hold as
# many float64 distances, and at least one row.
_CHUNK_ENTRIES = 1 << 18
_MIN_CHUNK_ROWS = 64
# Entries per block in sqdist_rows (32 KiB of float64), so its transposed
# block stays in L1/L2 cache.
_ROW_BLOCK_ENTRIES = 1 << 12
# Below these scales S nothing in the bound's arithmetic can overflow, in
# float64 and in float32 scores respectively.
SAFE_SCALE = float(np.finfo(np.float64).max) / 4
SAFE_SCALE32 = float(np.finfo(np.float32).max) / 4
# Below this centroid scale the tiny32 term would dominate the float32 slack.
TINY_SCALE32 = float(np.finfo(np.float32).tiny / np.finfo(np.float32).eps)
# (eps, smallest normal) per score dtype, for shortlist_slack.
_ROUNDING = {
    t: (float(np.finfo(t).eps), float(np.finfo(t).tiny)) for t in (np.float64, np.float32)
}


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
    "sqeuclidean". Against one row this is cdist itself. Otherwise blocks of
    rows are transposed to (d, rows) and reduced over axis 0, one column at
    a time. numpy would reduce a one-row block pairwise, so a lone last row
    goes through the sequential accumulate.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if c.ndim == 1:
        return cdist(x, c[None], "sqeuclidean")[:, 0]
    n, d = x.shape
    out = np.empty(n)
    step = max(2, _ROW_BLOCK_ENTRIES // max(d, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        sq = x[lo:hi] - c[lo:hi]
        np.square(sq, out=sq)
        if hi - lo == 1:
            out[lo] = np.add.accumulate(sq[0])[-1] if d else 0.0
        else:
            out[lo:hi] = np.add.reduce(sq.T.copy(), axis=0)
    return out


def shortlist_slack(d: int, scale, dtype=np.float64):
    """Rounding allowance for scores of dimension d at scale S computed in
    dtype, float64 or float32 (see above)."""
    eps, tiny = _ROUNDING[dtype]
    return 16.0 * (d + 4) * (eps * scale + tiny)


# Non-finite or huge input takes the full rerank; like cdist, stay quiet.
@np.errstate(invalid="ignore", over="ignore")
def nearest(points: np.ndarray, centroids: np.ndarray, _shifted=None) -> np.ndarray:
    """Per point, the index of the nearest centroid, int64.

    Bit-identical to cdist "sqeuclidean" followed by argmin, ties to the
    lowest centroid index (see the module docstring). Chunked over points.

    ``_shifted``, for k-means, is ``(mu, xt, xn)``: the shift mu, the points
    minus mu in float32 stored (d + 1, n) with a last row of ones, and the
    float32 squared norms of their first d rows. Scores then shift by mu
    instead of the centroid mean, and float32 scores read xt instead of
    shifting and casting every chunk again. The bound holds for any shift,
    and the rerank is exact, so the result is the same.
    """
    # float32 rows widen exactly inside the subtraction and the rerank, so
    # they are not copied to float64 first.
    x = np.asarray(points)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    c = np.asarray(centroids, dtype=np.float64)
    n, d = x.shape
    k = c.shape[0]
    mu = c.mean(axis=0) if _shifted is None else _shifted[0]
    cs = c - mu
    cn = np.einsum("ij,ij->i", cs, cs)
    cmax = cn.max()
    if TINY_SCALE32 <= cmax < SAFE_SCALE32:
        dtype, limit = np.float32, SAFE_SCALE32
    else:
        dtype, limit = np.float64, SAFE_SCALE
    # Scores are xs1 @ w.T; column d of xs1 stays 1, so the GEMM adds
    # ||cs||^2 from column d of w.
    w = np.empty((k, d + 1), dtype)
    w[:, :d] = -2.0 * cs
    w[:, d] = cn
    narrow = k <= NARROW_K
    step = max(1, min(n, max(_MIN_CHUNK_ROWS, _CHUNK_ENTRIES // k)))
    if dtype is not np.float32:
        _shifted = None
    # Every chunk reuses these buffers: fresh ones would fault in new pages.
    xs1 = np.ones((step if _shifted is None else 0, d + 1), dtype)
    scores = np.empty(step * k, dtype)
    if narrow:
        hits = np.empty(step * k, np.uint8)
        iota = np.arange(k, dtype=np.uint8)[:, None]
    idx = np.empty(n, dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = hi - lo
        xc = x[lo:hi]
        if _shifted is None:
            xs = xs1[:rows, :d]
            np.subtract(xc, mu, out=xs, casting="same_kind")
            scale = np.einsum("ij,ij->i", xs, xs) + dtype(cmax)
            xt = xs1[:rows].T
        else:
            xt = _shifted[1][:, lo:hi]
            scale = _shifted[2][lo:hi] + dtype(cmax)
        unsafe = ~(scale < limit)
        part = idx[lo:hi]
        if narrow:
            # Centroid-major: each pass is one vectorized reduction over k
            # rows of scores, where argmin(axis=1) pays numpy's per-row cost.
            a = np.matmul(w, xt, out=scores[: k * rows].reshape(k, rows))
            thr = _threshold(np.minimum.reduce(a, axis=0), d, scale, dtype)
            hit = hits[: k * rows].reshape(k, rows)
            np.less_equal(a, thr, out=hit.view(bool))
            single = np.add.reduce(hit, axis=0, dtype=np.uint16) == 1
            # A row with one hit has its winner's index as its largest.
            part[:] = np.maximum.reduce(np.multiply(hit, iota, out=hit), axis=0)
            amb = np.flatnonzero(~single | unsafe)
            a = a.T  # row-major view for the rerank
        else:
            a = np.matmul(xt.T, w.T, out=scores[: rows * k].reshape(rows, k))
            part[:] = np.argmin(a, axis=1)
            r = np.arange(rows)
            best = a[r, part]
            thr = _threshold(best, d, scale, dtype)
            a[r, part] = np.inf
            amb = np.flatnonzero(~(a.min(axis=1) > thr) | unsafe)
            a[r, part] = best
        if amb.size:
            short = a[amb] <= thr[amb, None]
            short[unsafe[amb]] = True
            # Flat positions: numpy's 2-D nonzero is several times slower.
            pos = np.flatnonzero(short)
            exact = np.full(short.size, np.inf)
            exact[pos] = sqdist_rows(xc[amb[pos // k]], c[pos % k])
            part[amb] = np.argmin(exact.reshape(short.shape), axis=1)
    return idx


def _threshold(best, d, scale, dtype):
    """Per row, the highest score a centroid that may win can have, as a
    score of dtype rounded up: the row minimum plus the slack."""
    return np.nextafter(best + shortlist_slack(d, scale, dtype), dtype(np.inf))


def nearest_k(points: np.ndarray, centroids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point: indexes and distances of the k nearest centroids.

    Sorted ascending by (distance, index); ties resolve to the lower index.
    """
    points = np.asarray(points)
    n = points.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k), dtype=np.float64)
    cent_ids = np.arange(centroids.shape[0], dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(1, cent_ids.size))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
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
