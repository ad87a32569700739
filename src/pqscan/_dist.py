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
single hit. Scoring every centroid of a wider codebook is cheaper
row-major, where the per-row cost is small next to k, with ``argmin`` and
a second-minimum test: measured at 8,192 rows and d = 8, 16, 128 (2-vCPU
x86-64, OpenBLAS 1 thread), the centroid-major time over the row-major one
is 0.53-0.85 at k = 64, 0.72-1.00 at k = 256, 1.07-1.17 at k = 384 and
1.17-1.57 at k = 1024.

Wider codebooks: the group bound. Most centroids of a wide codebook cannot
win a given row, and a triangle-inequality bound over groups of centroids
(Elkan, ICML 2003) rules them out before they are scored.
``centroid_groups`` splits the k centroids once per codebook into
G = 0.75 sqrt(k) groups (at most NARROW_K) by four Lloyd steps over the
centroids. Each group g has a centre (its members' float64 mean), a radius
R_g and a representative (the member nearest the centre). R_g is the
largest float64 member distance widened by 2 (d + 4) eps and rounded up:
a sum of d rounded squares is within gamma_(d+2) of its value, so R_g is
at least every member's exact distance to the centre. Per chunk of rows,
one GEMM scores the G representatives and the G centres in the shifted
form above, with S now over their norms too. Write E(v) for the exact
squared distance from a row to v, A(v) = a(v) + ||xs||^2 for its estimate
from the score and the computed row norm, and L for
``shortlist_slack(d, S, dtype)``:

- |A(v) - E(v)| and |A(v) - D(v)| are at most L/4 for every scored v, in
  float64 and in float32 scores: the score's error above, the norm's
  ((d + 2) u S) and the sum's add up to at most (3d + 7) eps S, and
  L/4 = (4d + 16) eps S; the tiny terms carry over as above.
- ub = (min over representatives of a) + ||xs||^2 + L, rounded up, is at
  least E(c) for the cdist winner c* and every c with D(c) <= D(c*):
  E(c) <= D(c) + L/4 <= D(rep) + L/4 <= A(rep) + L/2, and computing ub
  rounds it down by far less than L/2.
- Such a c lies within R_g + sqrt(ub) of its centre, so a(centre) <=
  (R_g + sqrt(ub))^2 - ||xs||^2 + L/4. Group g is kept if a(centre) <=
  (R_g + sqrt(ub))^2 - (||xs||^2 - 2 L), computed in the score dtype with
  R_g rounded up to it. R_g <= 2 max ||cs||, so the square is at most
  12 S and the rounding of that right side is under 56 eps S, less than
  the 7L/4 = (28d + 112) eps S it has to spare.

So every centroid that can win lies in a kept group. The kept groups'
members are scored centroid-major, group by group, over the rows that kept
the group (a gather), and the row minimum, threshold, single-hit test and
exact rerank follow as above: the minimum over the kept members is at
least the minimum over all, so every centroid that can win still scores
within the slack of it. Unsafe rows keep no group and take the full
rerank. The grouping changes which centroids are scored, never the
result.

The bound pays only where it prunes. ``centroid_groups`` returns no
grouping, and every centroid is scored row-major, for calls below
``_GROUP_MIN_ROWS`` (16,384) rows and where the bound, tried in float64 on
up to 512 evenly spaced rows, keeps more than ``_PRUNED_SHARE`` (1/4) of
the centroids on average; isotropic codebooks of d >= 8 keep nearly all.
A chunk whose bound keeps more than that share is also scored row-major,
and one that would score more than ``_WIDE_CHUNK_ENTRIES`` (2^21) is
halved. ``encode`` groups each codebook once for all its rows. A k-means
run (``quantizer._Shares``) groups its codebook at its first assignment,
for the rows of all its Lloyd steps, and ``moved_groups`` keeps that
grouping valid at each later step: the centres stay, and each radius
grows by its members' largest move since, widened and rounded up as R_g
is. Other callers are grouped inside ``nearest``. Measured on rows and centroids of
``generate_synthetic`` (16 clusters), 2-vCPU x86-64, OpenBLAS 1 thread, us
per row, minimum of 5 runs (1 at k = 65,536), grouping given:

    d   k       share  G    grouping  row-major (n=64/5000/8192)  pruned (64/5000/8192)
    8   257     44%    11   0.7 ms    1.42 / 0.43 / 0.43          2.45 / 0.52 / 0.48
    8   512     22%    17   1.0 ms    1.89 / 0.79 / 0.77          7.04 / 0.51 / 0.46
    8   1024     9%    24   1.5 ms    3.14 / 1.33 / 1.28          9.83 / 0.56 / 0.52
    8   4096    13%    48   5.4 ms    12.2 / 3.46 / 3.39          46.2 / 1.98 / 1.82
    8   65536    7%    192  147 ms    360 / 116 / 109             251 / 29.4 / 28.4
    32  257     40%    12   1.1 ms    1.84 / 0.61 / 0.59          3.12 / 0.73 / 0.68
    32  512     29%    16   1.5 ms    3.31 / 1.01 / 1.02          5.10 / 1.20 / 1.13
    32  1024     6%    24   2.6 ms    4.65 / 1.76 / 1.73          11.9 / 0.69 / 0.65
    32  4096     6%    48   8.6 ms    15.2 / 6.95 / 7.01          30.2 / 1.62 / 1.56
    32  65536    6%    192  321 ms    537 / 226 / 205             1095 / 37.5 / 35.6

Pruning wins wherever the bound scores at most about a quarter of the
centroids (share, the centroids scored per row) and loses above it (k =
257, and 512 at d = 32), hence ``_PRUNED_SHARE``. Thousands of rows repay
a grouping at 1,600-3,400 rows; ``_GROUP_MIN_ROWS`` sits several times
above that, so a grouping the probe then rejects (2-7 ms at k = 1,024,
d = 8-128) costs a call of 16,384 rows or more at most about a tenth.
A handful of rows is faster row-major, which calls below the row gate get;
encode's last chunk may be short and still prunes. G = 0.75 sqrt(k): at
8,192 rows of derived-10x5 codebooks (k = 1,024, d = 8), 0.5, 0.75, 1.0
and 1.5 sqrt(k) took 0.50, 0.49, 0.53 and 0.72 us per row; at k = 4,096,
d = 8 0.98, 1.13, 1.27 and 1.55; at k = 1,024, d = 32 0.96, 0.77, 0.74 and
0.88. Pruned chunks hold _WIDE_CHUNK_ENTRIES // (4 k / G) rows, about
12,000 at k = 1,024, as the bound keeps about four groups of k / G per
row: of 2^16 to 2^20 rows times k / G, 2^19 measured fastest at k = 1,024
to 16,384.

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
The seed's norm less its slack, cn - L(cn), rides in the GEMV through
the copy's row of ones, which adds one float32 rounding of it and one
product to the score, about 2 u32 S more, well within the slack too.
Each point keeps gap = closest - (||xs||^2 - L(||xs||^2)), cast to
float32 and stepped up once with ``nextafter`` (so never below its float64
value), and is a candidate when its score is below its gap: one compare
per point per seed, and the gap changes only where closest does. The
float64 roundings of the gap are 2^-29 times smaller than the slack, and
the step up only adds candidates. Candidates get the exact float64
distance, so the draws stay bit-identical. The draws are split by rows:
each share of a worker team (``quantizer._Shares``) scores and updates
its own points, against its own xn_max, while the caller keeps the RNG and
picks each seed over all of them. Which points get the exact distance
depends on the split and on the GEMV's summation order, but no point whose
bound holds can change, so the draws stay bit-identical on any number of
shares as well. The pick itself reads blocked sums of closest: one pass
over blocks of ``quantizer._PICK_BLOCK`` points, a cumulative sum over the
block sums and one inside the block that holds the draw. It is accepted
only where the draw lies outside a margin that covers the roundings of
those sums and of the sequential cumulative sum ``rng.choice`` compares
against; inside the margin the draw forms that sum, so every pick is
rng.choice's (proof in ``quantizer._kmeanspp_init``). The seeding also
returns each point's owner,
the index of its nearest seed. The owner moves to a new seed only when the
distance strictly decreases, so ties keep the lower index, which is
``nearest``'s own tie rule: the owners equal ``nearest(points, seeds)`` and
serve as Lloyd's first assignment.

The pair form ``sqdist_rows`` sums (x_j - c_j)^2 over the columns in order
0..d-1, which is the order scipy's cdist uses. Against one row it calls
cdist itself, which is that reference, also for the tens to hundreds of
rows a seed's draw passes: at 4 to 4,096 rows and d = 8, 16 and 128, the
column-order sum was never more than 8% faster than cdist and up to 3.5
times slower (timeit, 2-vCPU x86-64, one BLAS thread). The
tests compare against cdist directly, so a scipy that changes its summation
order fails them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

# nearest scores codebooks of at most NARROW_K centroids centroid-major.
NARROW_K = 256
# Wider codebooks assigned at least _GROUP_MIN_ROWS rows are split into
# _GROUPS_PER_ROOT * sqrt(k) groups by _GROUP_STEPS Lloyd steps, unless the
# group bound, tried on _PROBE_ROWS of the rows, keeps more than
# _PRUNED_SHARE of the centroids. Pruned chunks budget _WIDE_CHUNK_ENTRIES
# scores (see the module docstring).
_GROUP_MIN_ROWS = 1 << 14
_GROUPS_PER_ROOT = 0.75
_GROUP_STEPS = 4
_PROBE_ROWS = 512
_PRUNED_SHARE = 0.25
_WIDE_CHUNK_ENTRIES = 1 << 21
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


class CentroidGroups(NamedTuple):
    """A partition of k centroids for ``nearest``'s wide branch.

    Group g holds the centroids ``order[cuts[g]:cuts[g + 1]]``, all within
    ``radius[g]`` (rounded up) of ``centre[g]``; ``rep[g]`` is the member
    nearest that centre.
    """

    order: np.ndarray  # (k,) int64
    cuts: np.ndarray  # (G + 1,) int64
    centre: np.ndarray  # (G, d) float64
    radius: np.ndarray  # (G,) float64
    rep: np.ndarray  # (G,) int64


@np.errstate(invalid="ignore", over="ignore")
def centroid_groups(
    centroids: np.ndarray, points: np.ndarray, rows: int | None = None
) -> CentroidGroups | None:
    """The grouping ``nearest`` prunes with when it assigns ``rows`` points
    like ``points`` (by default ``len(points)``) to these centroids, or None
    where scoring every centroid costs less (see the module docstring): for
    at most NARROW_K centroids, below _GROUP_MIN_ROWS rows, for non-finite
    centroids, and where the bound keeps more than _PRUNED_SHARE of the
    centroids on average over up to _PROBE_ROWS evenly spaced points. The
    groups come from _GROUP_STEPS Lloyd steps over the centroids, started
    from evenly spaced ones."""
    c = np.asarray(centroids, dtype=np.float64)
    k = c.shape[0]
    rows = len(points) if rows is None else rows
    if k <= NARROW_K or rows < _GROUP_MIN_ROWS or not np.isfinite(c).all():
        return None
    count = min(NARROW_K, round(_GROUPS_PER_ROOT * k**0.5))
    centre = c[np.linspace(0, k - 1, count).astype(np.int64)]
    for _ in range(_GROUP_STEPS):
        owner = nearest(c, centre)
        order = np.argsort(owner, kind="stable")
        sizes = np.bincount(owner)
        cuts = np.concatenate([[0], np.cumsum(sizes[sizes > 0])])
        centre = _means(c, order, cuts)
    groups = _partition(c, order, cuts)
    # The bound below without its rounding terms: it only picks the path.
    probe = np.asarray(points[:: max(1, len(points) // _PROBE_ROWS)], dtype=np.float64)
    ub = sqdist_matrix(probe, c[groups.rep]).min(axis=1)
    kept = sqdist_matrix(probe, groups.centre) <= (groups.radius + np.sqrt(ub)[:, None]) ** 2
    if kept.sum(axis=0) @ np.diff(cuts) > _PRUNED_SHARE * k * probe.shape[0]:
        return None
    return groups


def moved_groups(groups: CentroidGroups, old: np.ndarray, new: np.ndarray) -> CentroidGroups:
    """The grouping of centroids ``old``, made valid for ``new``, the same
    centroids moved: each radius grows by its members' largest move. The
    centres stay, and each representative is its member at its new place."""
    move = np.maximum.reduceat(sqdist_rows(new, old)[groups.order], groups.cuts[:-1])
    radius = np.nextafter(groups.radius + _root_up(move, old.shape[1]), np.inf)
    return groups._replace(radius=radius)


def _root_up(sq: np.ndarray, d: int) -> np.ndarray:
    """At least the exact root of each float64 ``sqdist_rows`` value sq of
    dimension d: such a sum of d rounded squares is within gamma_(d+2) of
    its value (terms below tiny off by tiny each), so widen, then round the
    root up."""
    eps, tiny = _ROUNDING[np.float64]
    return np.nextafter(np.sqrt(sq * (1.0 + 2.0 * (d + 4) * eps) + (d + 1) * tiny), np.inf)


def _means(c: np.ndarray, order: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The mean of each group ``order[cuts[g]:cuts[g + 1]]`` of c."""
    return np.add.reduceat(c[order], cuts[:-1], axis=0) / np.diff(cuts)[:, None]


def _partition(c: np.ndarray, order: np.ndarray, cuts: np.ndarray) -> CentroidGroups:
    """The groups ``order[cuts[g]:cuts[g + 1]]`` of c, each with its
    members' mean as centre, a radius rounded up and a representative."""
    centre = _means(c, order, cuts)
    group = np.repeat(np.arange(cuts.size - 1), np.diff(cuts))
    dist = sqdist_rows(c[order], centre[group])
    radius = _root_up(np.maximum.reduceat(dist, cuts[:-1]), c.shape[1])
    # The member nearest its centre, the lowest index among ties.
    rep = order[np.lexsort((order, dist, group))[cuts[:-1]]]
    return CentroidGroups(order, cuts, centre, radius, rep)


# Non-finite or huge input takes the full rerank; like cdist, stay quiet.
@np.errstate(invalid="ignore", over="ignore")
def nearest(
    points: np.ndarray, centroids: np.ndarray, _shifted=None, _groups=None
) -> np.ndarray:
    """Per point, the index of the nearest centroid, int64.

    Bit-identical to cdist "sqeuclidean" followed by argmin, ties to the
    lowest centroid index (see the module docstring). Chunked over points.

    ``_shifted``, for k-means, is ``(mu, xt, xn)``: the shift mu, the points
    minus mu in float32 stored (d + 1, n) with a last row of ones, and the
    float32 squared norms of their first d rows. Scores then shift by mu
    instead of the centroid mean, and float32 scores read xt instead of
    shifting and casting every chunk again. The bound holds for any shift,
    and the rerank is exact, so the result is the same. Codebooks of more
    than NARROW_K centroids shift the rows themselves.

    ``_groups``, for encode, is ``centroid_groups(centroids, points,
    rows)``, built once for every chunk of rows that goes to ``nearest``
    against the same centroids; without it a wide codebook is grouped here
    when the call has enough rows (see above).
    """
    # float32 rows widen exactly inside the subtraction and the rerank, so
    # they are not copied to float64 first.
    x = np.asarray(points)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    c = np.asarray(centroids, dtype=np.float64)
    n, d = x.shape
    k = c.shape[0]
    narrow = k <= NARROW_K
    ref = c
    if not narrow:
        # Wide scores read each chunk's rows from xs1, row-major.
        _shifted = None
        if _groups is None:
            _groups = centroid_groups(c, x)
        if _groups is not None:
            # Members in group order, then the representatives and centres.
            ref = np.concatenate([c[_groups.order], c[_groups.rep], _groups.centre])
    mu = c.mean(axis=0) if _shifted is None else _shifted[0]
    cs = ref - mu
    cn = np.einsum("ij,ij->i", cs, cs)
    cmax = cn.max()
    if TINY_SCALE32 <= cmax < SAFE_SCALE32:
        dtype, limit = np.float32, SAFE_SCALE32
    else:
        dtype, limit = np.float64, SAFE_SCALE
    # Scores are xs1 @ w.T; column d of xs1 stays 1, so the GEMM adds
    # ||cs||^2 from column d of w.
    w = np.empty((ref.shape[0], d + 1), dtype)
    w[:, :d] = -2.0 * cs
    w[:, d] = cn
    step = _CHUNK_ENTRIES // k
    if _groups is not None:
        step = _WIDE_CHUNK_ENTRIES // (4 * (k // _groups.rep.size))
    step = max(1, min(n, max(_MIN_CHUNK_ROWS, step)))
    if dtype is not np.float32:
        _shifted = None
    # Every chunk reuses these buffers: fresh ones would fault in new pages.
    xs1 = np.ones((step if _shifted is None else 0, d + 1), dtype)
    if narrow:
        scores = np.empty(step * k, dtype)
        hits = np.empty(step * k, np.uint8)
        iota = np.arange(k, dtype=np.uint8)[:, None]
    else:
        wide = _Wide(c, w, _groups, step)
    idx = np.empty(n, dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = hi - lo
        xc = x[lo:hi]
        if _shifted is None:
            xs = xs1[:rows, :d]
            np.subtract(xc, mu, out=xs, casting="same_kind")
            xn = np.einsum("ij,ij->i", xs, xs)
            xt = xs1[:rows].T
        else:
            xt = _shifted[1][:, lo:hi]
            xn = _shifted[2][lo:hi]
        scale = xn + dtype(cmax)
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
            amb = np.flatnonzero(~single & ~unsafe)
            if amb.size:
                pos = np.flatnonzero(a[:, amb] <= thr[amb])
                _rerank(part, xc, c, amb[pos % amb.size], pos // amb.size)
        else:
            wide.chunk(part, xc, xs1[:rows], xn, scale, unsafe)
        # Rows whose scores may overflow, or are not finite: cdist's argmin.
        bad = np.flatnonzero(unsafe)
        for at in range(0, bad.size, max(1, _CHUNK_ENTRIES // k)):
            rr = bad[at : at + max(1, _CHUNK_ENTRIES // k)]
            part[rr] = np.argmin(sqdist_matrix(xc[rr], c), axis=1)
    return idx


class _Wide:
    """nearest's scoring of a codebook of more than NARROW_K centroids for
    one call (see the module docstring), with the buffers its chunks reuse.

    Each chunk's group bound picks the groups that may hold a row's winner;
    their members are scored centroid-major, group by group. A chunk whose
    bound keeps more than _PRUNED_SHARE of the centroids, or a call without
    groups, scores every centroid row-major instead.
    """

    def __init__(self, c: np.ndarray, w: np.ndarray, groups: CentroidGroups | None, step: int):
        k = c.shape[0]
        self.c, self.w, self.groups = c, w, groups
        dtype = w.dtype.type
        self.scores = np.empty(max(_MIN_CHUNK_ROWS, _CHUNK_ENTRIES // k) * k, dtype)
        if groups is not None:
            count = groups.rep.size
            # R_g rounded up to the score dtype.
            radius = groups.radius.astype(dtype)
            up = radius < groups.radius
            radius[up] = np.nextafter(radius[up], dtype(np.inf))
            self.radius = radius
            self.sizes = np.diff(groups.cuts)
            self.bound = np.empty(2 * count * step, dtype)
            self.reach = np.empty(count * step, dtype)
            self.keep = np.empty(count * step, bool)

    def chunk(self, part, xc, xs, xn, scale, unsafe) -> None:
        """Fill part with the winners of the chunk's safe rows."""
        groups, w, c = self.groups, self.w, self.c
        if groups is None:
            return self.score_all(part, xc, xs, scale, unsafe)
        k, d = c.shape
        rows, count = xs.shape[0], groups.rep.size
        dtype = w.dtype.type
        slack = shortlist_slack(d, scale, dtype)
        # Scores of the representatives, then of the centres.
        bound = np.matmul(w[k:], xs.T, out=self.bound[: 2 * count * rows].reshape(2 * count, rows))
        # sqrt(ub) bounds the winner's distance; a group whose centre lies
        # farther than its radius plus that holds no winner.
        ub = np.minimum.reduce(bound[:count], axis=0)
        ub += xn + slack
        reach = self.reach[: count * rows].reshape(count, rows)
        np.add.outer(self.radius, np.sqrt(np.nextafter(ub, dtype(np.inf))), out=reach)
        reach *= reach
        reach -= xn - 2 * slack
        keep = self.keep[: count * rows].reshape(count, rows)
        np.less_equal(bound[count:], reach, out=keep)
        if unsafe.any():
            keep[:, unsafe] = False
        pos = np.flatnonzero(keep)
        cut = np.searchsorted(pos, np.arange(count + 1) * rows)
        load = self.sizes @ np.diff(cut)
        if load > _PRUNED_SHARE * rows * k:
            return self.score_all(part, xc, xs, scale, unsafe)
        if load > _WIDE_CHUNK_ENTRIES and rows > 1:
            # Far or tied rows keep many groups: halve the chunk to bound
            # the scores' memory.
            for s in (slice(0, rows // 2), slice(rows // 2, rows)):
                self.chunk(part[s], xc[s], xs[s], xn[s], scale[s], unsafe[s])
            return None
        mins = reach  # its last use is above
        mins.fill(np.inf)
        blocks = []
        for g in np.flatnonzero(cut[1:] > cut[:-1]):
            at = pos[cut[g] : cut[g + 1]] - g * rows
            blk = w[groups.cuts[g] : groups.cuts[g + 1]] @ np.take(xs, at, axis=0).T
            mins[g, at] = np.minimum.reduce(blk, axis=0)
            blocks.append((groups.order[groups.cuts[g] : groups.cuts[g + 1]], at, blk))
        thr = _threshold(np.minimum.reduce(mins, axis=0), d, scale, dtype)
        # Every (row, centroid) scoring at most thr; a safe row has one at least.
        rr, cc = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for members, at, blk in blocks:
            hit = np.flatnonzero(blk <= thr[at])
            rr.append(at[hit % at.size])
            cc.append(members[hit // at.size])
        rr, cc = np.concatenate(rr), np.concatenate(cc)
        part[rr] = cc
        amb = np.bincount(rr, minlength=rows)[rr] > 1
        if amb.any():
            _rerank(part, xc, c, rr[amb], cc[amb])
        return None

    def score_all(self, part, xc, xs, scale, unsafe) -> None:
        """Every centroid's score, row-major: ``argmin`` and a second-minimum
        test per row, whose per-row cost is small next to k."""
        c, w = self.c, self.w
        k, d = c.shape
        order = None if self.groups is None else self.groups.order
        step = self.scores.size // k
        for lo in range(0, xs.shape[0], step):
            s = slice(lo, lo + step)
            rows = part[s].size
            a = np.matmul(xs[s], w[:k].T, out=self.scores[: rows * k].reshape(rows, k))
            at = np.argmin(a, axis=1)
            r = np.arange(rows)
            best = a[r, at]
            thr = _threshold(best, d, scale[s], w.dtype.type)
            a[r, at] = np.inf
            amb = np.flatnonzero(~(a.min(axis=1) > thr) & ~unsafe[s])
            a[r, at] = best
            part[s] = at if order is None else order[at]
            if amb.size:
                pos = np.flatnonzero(a[amb] <= thr[amb, None])
                cent = pos % k
                _rerank(part[s], xc[s], c, amb[pos // k], cent if order is None else order[cent])


def _rerank(part, xc, c, rows, cents):
    """For every row r in rows, part[r] = the lowest-indexed centroid of
    least cdist distance among the (rows, cents) pairs of r."""
    exact = np.empty(rows.size)
    step = max(1, _CHUNK_ENTRIES // c.shape[1])
    for lo in range(0, rows.size, step):
        exact[lo : lo + step] = sqdist_rows(xc[rows[lo : lo + step]], c[cents[lo : lo + step]])
    low = np.full(part.size, np.inf)
    np.minimum.at(low, rows, exact)
    win = exact == low[rows]
    first = np.full(part.size, c.shape[0])
    np.minimum.at(first, rows[win], cents[win])
    done = first < c.shape[0]
    part[done] = first[done]


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
