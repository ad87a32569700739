"""Codebook training and short-code encoding.

A product quantizer splits a d-dimensional vector into m consecutive
sub-vectors and quantizes each against its own codebook of 2^b centroids.
The code of a vector is the tuple of m centroid indexes. An optional
orthonormal rotation is applied before splitting (and undone on decode).

Codes are stored one component per column (uint8 for b <= 8, uint16 above),
except for b <= 4, where two components share a byte: component 2j sits in
the low nibble of byte j and component 2j+1 in the high nibble, and for odd
m the last high nibble is 0. Code readers go through ``code_columns``,
which tells the two layouts apart by the width of the array.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np
from scipy import sparse

from . import _binio
from ._dist import (
    NARROW_K,
    SAFE_SCALE,
    SAFE_SCALE32,
    _ROUNDING,
    centroid_groups,
    moved_groups,
    nearest,
    shortlist_slack,
    sqdist_matrix,
    sqdist_rows,
)
from ._parallel import Team, assign_cost, fork_map, kmeans_cost, shared_array, split_cost


# Rows per chunk wherever a build turns input rows into float64 work arrays
# (encode, and the IVF assignment and residual passes).
ENCODE_ROWS = 1 << 13
# Weights per block of a k-means++ draw's blocked sums (see _kmeanspp_init).
_PICK_BLOCK = 256
_EPS, _TINY = _ROUNDING[np.float64]


class TrainError(RuntimeError):
    """Training could not produce a valid quantizer."""


@dataclass
class TrainConfig:
    kmeans_iters: int = 25
    opq_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")
        if self.opq_iters < 0:
            raise ValueError("opq_iters must be >= 0")


@dataclass
class ProductQuantizer:
    """m codebooks of 2^b centroids over d/m dimensions each.

    codebooks has shape (m, 2^b, d/m), float32. rotation, when present, is a
    d x d orthonormal matrix applied to vectors before sub-space splitting.
    """

    m: int
    b: int
    d: int
    codebooks: np.ndarray
    rotation: np.ndarray | None = None

    def __post_init__(self):
        check_shape(self.d, self.m, self.b)
        k, dsub = 1 << self.b, self.d // self.m
        self.codebooks = np.ascontiguousarray(self.codebooks, dtype=np.float32)
        if self.codebooks.shape != (self.m, k, dsub):
            raise ValueError(
                f"codebooks shape {self.codebooks.shape}, expected {(self.m, k, dsub)}"
            )
        if not np.all(np.isfinite(self.codebooks)):
            raise ValueError("codebooks contain non-finite values")
        if self.rotation is not None:
            self.rotation = np.ascontiguousarray(self.rotation, dtype=np.float32)
            if self.rotation.shape != (self.d, self.d):
                raise ValueError("rotation must be d x d")
            gram = self.rotation.T.astype(np.float64) @ self.rotation.astype(np.float64)
            if np.max(np.abs(gram - np.eye(self.d))) > 1e-4:
                raise ValueError("rotation is not orthonormal within 1e-4")

    @property
    def k(self) -> int:
        return 1 << self.b

    @property
    def dsub(self) -> int:
        return self.d // self.m

    @property
    def code_dtype(self) -> np.dtype:
        return np.dtype(np.uint8 if self.b <= 8 else np.uint16)

    @property
    def code_width(self) -> int:
        """Columns of one stored code: ceil(m/2) packed bytes for b <= 4."""
        return code_width(self.m, self.b)

    def rotate(self, x: np.ndarray) -> np.ndarray:
        """Apply the rotation (identity if absent) to rows of x."""
        if self.rotation is None:
            return np.asarray(x, dtype=np.float64)
        return np.asarray(x, dtype=np.float64) @ self.rotation.T.astype(np.float64)


@dataclass(kw_only=True)
class DerivedPQ(ProductQuantizer):
    """A b-bit product quantizer plus per-sub-space derived 2^bbar codebooks.

    P1: for every full index i, its low bbar bits give the derived cluster
    that full centroid i belongs to, so one stored code addresses both
    codebooks.
    """

    bbar: int
    derived: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        check_derived_bits(self.b, self.bbar)
        self.derived = np.ascontiguousarray(self.derived, dtype=np.float32)
        expect = (self.m, 1 << self.bbar, self.dsub)
        if self.derived.shape != expect:
            raise ValueError(f"derived shape {self.derived.shape}, expected {expect}")
        if not np.all(np.isfinite(self.derived)):
            raise ValueError("derived codebooks contain non-finite values")

    @property
    def kbar(self) -> int:
        return 1 << self.bbar

    @property
    def pq(self) -> DerivedPQ:
        """self; kept only while perfbench/workloads.py reads ``dpq.pq``."""
        return self


def check_derived_bits(b: int, bbar: int) -> None:
    """Reject derived codebooks of bbar bits under b-bit full ones unless
    1 <= bbar < b <= 16."""
    if not 1 <= bbar < b <= 16:
        raise ValueError(f"need 1 <= bbar < b <= 16, got bbar={bbar}, b={b}")


def check_shape(d: int, m: int, b: int) -> None:
    """Reject m b-bit sub-quantizers over d dimensions unless m >= 1 divides d, 1 <= b <= 16."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if d % m != 0:
        raise ValueError(f"d={d} not divisible by m={m}")
    if not 1 <= b <= 16:
        raise ValueError(f"b={b} out of range [1, 16]")


def code_width(m: int, b: int) -> int:
    """Columns of one stored code of m components of b bits."""
    return (m + 1) // 2 if b <= 4 else m


def code_columns(codes: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """Components 0..m-1, in order, of every row of (n, width) codes.

    Rows m wide hold one component per column; rows ceil(m/2) wide are
    nibble-packed. For m = 1 the two layouts are the same bytes.
    """
    if codes.shape[1] == m:
        yield from codes.T
        return
    low, high = codes & 0x0F, codes >> 4
    for j in range(m):
        yield (high if j & 1 else low)[:, j >> 1]


def code_components(codes: np.ndarray, m: int) -> np.ndarray:
    """(n, m) components of codes in either layout (see code_columns)."""
    if codes.shape[1] == m:
        return codes
    return np.stack(list(code_columns(codes, m)), axis=1)


def code_layout_error(codes: np.ndarray, m: int, b: int) -> str | None:
    """Why codes are not stored (n, code_width) codes of m b-bit
    components, or None if they are."""
    if codes.ndim != 2 or codes.shape[1] != code_width(m, b):
        return f"codes must have shape (n, {code_width(m, b)}) for m={m}, b={b}"
    comps = code_components(codes, m)
    if np.any(comps.astype(np.int64) >= (1 << b)):
        return f"component out of range for b={b}"
    if b <= 4 and m % 2 and np.any(codes[:, -1] >> 4):
        return "non-zero padding nibble for odd m"
    return None


def _check_query(query: np.ndarray, d: int) -> np.ndarray:
    """The query as an array, after checking its shape and values."""
    query = np.asarray(query)
    if query.ndim != 1 or query.shape[0] != d:
        raise ValueError(f"query must have shape ({d},)")
    if not np.isfinite(query).all():
        raise ValueError("query contains non-finite values")
    return query


def _seed_for(seed: int, lane: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(lane,))


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contain non-finite values")


def _draw(closest: np.ndarray, rng: np.random.Generator) -> int:
    """One k-means++ draw over the weights closest (n >= 1, each >= 0 or
    NaN): the index ``rng.choice(n, p=closest / closest.sum())`` picks, or
    ``rng.integers(n)`` when the weights sum to 0, with the same RNG calls.

    The pick comes from blocked sums of the weights where u lies clear of
    every rounding of rng.choice's cumulative sum (``_block_pick``), and
    from that sum itself elsewhere (proof in _kmeanspp_init).
    """
    ends = np.cumsum(np.add.reduceat(closest, np.arange(0, closest.size, _PICK_BLOCK)))
    if _TINY <= ends[-1] < SAFE_SCALE:
        u = rng.random()
        pick = _block_pick(closest, ends, u)
        if pick is not None:
            return pick
    elif closest.sum() <= 0.0:
        return int(rng.integers(closest.size))
    else:
        u = rng.random()
    # The steps rng.choice(n, p=closest / total) runs, without its
    # per-call validation of p: the same draw, bit for bit.
    return _cdf_index(np.cumsum(closest / closest.sum()), u)


def _block_pick(w: np.ndarray, ends: np.ndarray, u: float) -> int | None:
    """``_cdf_index(np.cumsum(w / w.sum()), u)``, or None where the block
    sums cannot decide it: ends[b] is the running sum of w up to the end of
    block b, of _PICK_BLOCK weights each, and ends[-1] lies in [tiny,
    SAFE_SCALE). Proof in _kmeanspp_init."""
    total = float(ends[-1])
    t = u * total
    g = 2.0 * (w.size + 2 * _PICK_BLOCK + ends.size + 8) * _EPS * total
    b = int(ends.searchsorted(t, side="right"))
    if b == ends.size:
        return None
    lo = b * _PICK_BLOCK
    run = np.cumsum(w[lo : lo + _PICK_BLOCK])
    if b:
        run += ends[b - 1]
    j = int(run.searchsorted(t, side="right"))
    if j == run.size:
        return None
    before = run[j - 1] if j else ends[b - 1] if b else 0.0
    if not before + g <= t < run[j] - g:
        return None
    return lo + j


def _cdf_index(cdf: np.ndarray, u: float) -> int:
    """``searchsorted(cdf / cdf[-1], u, side="right")`` for non-decreasing
    cdf, without the division pass over it.

    Division by cdf[-1] is monotone, so the entries with cdf[i] / cdf[-1] <= u
    form a prefix. One search for u * cdf[-1] lands within a few distinct
    values of its end; stepping over whole runs of equal entries with that
    exact test finds it.
    """
    last = cdf[-1]
    pick = int(cdf.searchsorted(u * last, side="right"))
    while pick > 0 and not cdf[pick - 1] / last <= u:
        pick = int(cdf.searchsorted(cdf[pick - 1], side="left"))
    while pick < cdf.size and cdf[pick] / last <= u:
        pick = int(cdf.searchsorted(cdf[pick], side="right"))
    return pick


class _Shares:
    """The points of one k-means run, split by rows over a worker team
    (``_parallel.Team``), for the two steps that are independent per row:
    k-means++ draws and Lloyd assignments.

    Each share shifts its rows once by the points' mean and keeps them in
    float32, so every draw's GEMV and every Lloyd ``nearest`` reads that one
    copy. The seeding's per-point state, closest and owner, lives in shared
    memory, each share updating its own rows; the draws themselves (the RNG,
    each pick) and the mean updates stay with the caller.
    """

    def __init__(self, points: np.ndarray, k: int, iters: int):
        n, d = points.shape
        if n < k:
            raise TrainError(f"{n} training points for {k} clusters")
        self.points = points
        self.mu = points.mean(axis=0)
        self.closest = shared_array(n, np.float64)
        self.owner = shared_array(n, np.int64)
        self.rows_assigned = n * iters
        self.groups = None  # (grouping or None, the centroids it was built for)
        self._rows: dict[int, _ShareRows] = {}  # by share start, where it runs
        self.team = Team(self._work, n, split_cost(n, k, d, iters))

    def __enter__(self) -> _Shares:
        return self

    def __exit__(self, *exc) -> None:
        self.team.close()

    def run(self, step: str, *args) -> list:
        """Every share's _ShareRows.<step>(*args), in share order."""
        return self.team.map((step, args))

    def nearest(self, centroids: np.ndarray) -> np.ndarray:
        """``nearest(points, centroids)``.

        A wide codebook is grouped at the run's first call, for the rows of
        all its Lloyd steps (``_dist.centroid_groups``); later calls widen
        each group's radius by how far its members have moved since.
        """
        if self.groups is None:
            built = centroid_groups(centroids, self.points, self.rows_assigned)
            self.groups = (built, centroids.copy())
        built, at = self.groups
        groups = None if built is None else moved_groups(built, at, centroids)
        return np.concatenate(self.run("assign", centroids, groups))

    def _work(self, share: range, msg) -> object:
        rows = self._rows.get(share.start)
        if rows is None:
            rows = self._rows[share.start] = _ShareRows(self, share)
        step, args = msg
        return getattr(rows, step)(*args)


class _ShareRows:
    """One share's rows, shifted once, and its slices of the seeding state."""

    def __init__(self, shares: _Shares, share: range):
        rows = slice(share.start, share.stop)
        self.points, self.mu = shares.points, shares.mu
        self.x = self.points[rows]
        self.closest, self.owner = shares.closest[rows], shares.owner[rows]
        xs = self.x - self.mu
        d = xs.shape[1]
        xn = np.einsum("ij,ij->i", xs, xs)
        self.xn_max = xn.max(initial=0.0)
        self.xlow = xn - shortlist_slack(d, xn, np.float32)
        # Rows too large for float32 scores cast nothing: every draw then
        # takes the exact branch, and nearest shifts them itself. Stored
        # (d, n), a draw's score is d + 1 contiguous axpys over the points
        # instead of n dot products; the row of ones lets nearest's GEMM add
        # the centroid norms, and a draw's GEMV its seed's norm less slack.
        self.shifted = None
        if self.xn_max < SAFE_SCALE32:
            xt = np.ones((d + 1, xn.size), np.float32)
            xt[:d] = xs.T
            self.shifted = (self.mu, xt, np.einsum("ij,ij->j", xt[:d], xt[:d]))
        self.gap = None  # see first

    def first(self, pick: int) -> None:
        self.closest[:] = sqdist_rows(self.x, self.points[pick])
        # closest - xlow rounded up to float32, the score a seed must stay
        # under to lower closest; rounding up only adds candidates.
        self.gap = _up32(self.closest - self.xlow)

    def draw(self, c: int, pick: int) -> None:
        """Seed c is point pick: update closest and owner."""
        cs = self.points[pick] - self.mu
        cn = float(cs @ cs)
        if self.shifted is not None and self.xn_max + cn < SAFE_SCALE32:
            d = cs.size
            w = np.empty(d + 1, np.float32)
            w[:d] = np.float32(-2.0) * cs.astype(np.float32)
            w[d] = cn - shortlist_slack(d, cn, np.float32)
            drop = np.flatnonzero(w @ self.shifted[1] < self.gap)
        else:
            drop = np.arange(self.closest.size)
        new = sqdist_rows(self.x[drop], self.points[pick])
        won = new < self.closest[drop]
        drop, new = drop[won], new[won]
        self.closest[drop] = new
        self.owner[drop] = c
        self.gap[drop] = _up32(new - self.xlow[drop])

    def assign(self, centroids: np.ndarray, groups) -> np.ndarray:
        return nearest(self.x, centroids, _shifted=self.shifted, _groups=groups)


@np.errstate(over="ignore")
def _up32(x: np.ndarray) -> np.ndarray:
    """x cast to float32 and stepped up once, so never below x."""
    y = x.astype(np.float32)
    return np.nextafter(y, np.float32(np.inf), out=y)


def _kmeanspp_init(
    points: np.ndarray, k: int, rng: np.random.Generator, shares: _Shares | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding (Arthur & Vassilvitskii, 2007).

    Returns (seeds (k, d) float64, owner (n,) int64). closest[i] is, bit for
    bit, the cdist distance from point i to its nearest seed so far, so the
    draws match per-seed cdist seeding with
    ``rng.choice(n, p=closest / closest.sum())``. owner[i] is the index of
    that seed; it moves only on a strict decrease, so ties keep the lower
    index and owner equals ``nearest(points, seeds)``. Each new seed is
    scored against every point with one float32 GEMV in the shifted form of
    ``_dist.nearest``; only points whose lower bound (score minus the
    float32 rounding slack) falls below closest get the exact distance.
    Each share of the points (one, unless shares says otherwise) updates
    its own rows; the draws read the whole of closest.

    The pick. With w = closest and T its sum, rng.choice sums p_j =
    fl(w_j / T) in order into c, and picks the count of i with q_i =
    fl(c_i / c_(n-1)) <= u, that is, the i with q_(i-1) <= u < q_i, as q
    never decreases. ``_draw`` finds that i from blocked sums instead, and
    checks it against both roundings. Write eps for the float64 epsilon,
    S_i = w_0 + ... + w_i and W = S_(n-1) exactly, r_i = S_i / W, and
    gamma_m = m (eps/2) / (1 - m eps/2). The w_j are >= 0, and float64
    arithmetic rounds to nearest with gradual underflow, so a float sum of
    non-negative terms, each passing through at most m additions, is within
    gamma_m of its exact value (Higham, ch. 4); bounds below are to first
    order in eps, far inside the factor of two kept for any n this runs on.

    - rng.choice's cdf: p_j is w_j / T within eps/2 relative, or 2^-1075
      absolute if it underflows. c_i is then within gamma_n relative and
      (i + 1) 2^-1075 of S_i / T, and c_(n-1) likewise of W / T, which is
      near 1. T cancels: q_i is within (n + 1) eps r_i + (n + 1) 2^-1074
      of r_i.
    - The blocked sums: with nb blocks of B = _PICK_BLOCK weights, ends[b]
      is the running sum of the block sums, and ends[b - 1] plus the
      block's own cumulative sum estimates S_i inside block b. No weight
      passes through more than 2B + nb additions, so each such estimate
      s_i is within gamma_(2B+nb) of S_i, and Wh = ends[-1] of W.

    So q_i lies within (n + 2B + nb + 1) eps s_i / Wh + (n + 1) 2^-1074
    of s_i / Wh. ``_block_pick`` takes the first i whose s_i exceeds t = u
    Wh and accepts it only if s_(i-1) + g <= t (s_(-1) = 0) and s_i - g > t,
    with g = 2 (n + 2B + nb + 8) eps Wh. For Wh >= tiny, the roundings of
    t, g and the two tests add at most 3 eps Wh, and the absolute terms
    less than eps Wh, so g covers all of it twice over: an accepted i has
    q_(i-1) <= u < q_i. Otherwise (u within the margin of a boundary, or Wh
    outside [tiny, SAFE_SCALE), where T may be 0 or overflow) the draw
    forms c as rng.choice does and searches it (``_cdf_index``). Wh >= tiny
    means some w_j > 0, so T > 0 and rng.choice draws u there too; the
    RNG stream, every pick and every codebook stay the same.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    centroids = np.empty((k, d), dtype=np.float64)
    with nullcontext(shares) if shares else _Shares(points, k, 0) as shares:
        first = int(rng.integers(n))
        centroids[0] = points[first]
        shares.run("first", first)
        closest = shares.closest
        for c in range(1, k):
            pick = _draw(closest, rng)
            centroids[c] = points[pick]
            shares.run("draw", c, pick)
        return centroids, shares.owner.copy()


def _repair_empty(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> bool:
    """Re-seed empty clusters from points farthest from their centroid."""
    counts = np.bincount(assign, minlength=centroids.shape[0])
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return False
    work = sqdist_rows(points, centroids[assign])
    for c in empties:
        far = int(np.argmax(work))
        centroids[c] = points[far]
        work[far] = -1.0
    return True


def _mean_update(
    points: np.ndarray, assign: np.ndarray, k: int, fallback: np.ndarray
) -> np.ndarray:
    n = points.shape[0]
    onehot = sparse.csr_matrix(
        (np.ones(n), assign, np.arange(n + 1)), shape=(n, k)
    )
    sums = onehot.T @ points
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    out = fallback.copy()
    nonzero = counts > 0
    out[nonzero] = sums[nonzero] / counts[nonzero, None]
    return out


def kmeans(
    points: np.ndarray, k: int, cfg: TrainConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with deterministic seeding.

    Returns (centroids (k, d) float32, assignment (n,) int64). The returned
    assignment maps every point to its nearest returned centroid, ties to the
    lowest centroid index. Empty clusters are re-seeded from the point
    farthest from its current centroid.
    """
    cfg = cfg or TrainConfig()
    points = np.asarray(points, dtype=np.float64)
    _require_finite(points, "points")
    # The final assignment runs on the shares the run itself used.
    with _Shares(points, k, cfg.kmeans_iters) as shares:
        centroids = _kmeans_seeded(points, k, cfg, np.random.SeedSequence(cfg.seed), shares)
        assign = shares.nearest(centroids.astype(np.float64))
    return centroids, assign


def same_size_kmeans(
    points: np.ndarray, k: int, cfg: TrainConfig | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """k-means constrained to k groups of exactly n/k members.

    Plain k-means first, then greedy rebalancing: each oversized cluster gives
    up the member whose distance delta to its nearest undersized cluster is
    smallest (ties to the lower point index, then the lower target index),
    until all sizes are equal. Group centroids are the means of the final
    members. Returns (centroids (k, d) float32, list of k index arrays).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n % k != 0:
        raise ValueError(f"{n} points not divisible into {k} equal groups")
    target = n // k
    seed_centroids, assign = kmeans(points, k, cfg)
    assign = assign.copy()
    D = sqdist_matrix(points, seed_centroids.astype(np.float64))
    sizes = np.bincount(assign, minlength=k)
    while np.any(sizes > target):
        for c in np.flatnonzero(sizes > target):
            if sizes[c] <= target:
                continue
            under = np.flatnonzero(sizes < target)
            members = np.flatnonzero(assign == c)
            sub = D[members][:, under]
            best_pos = np.argmin(sub, axis=1)
            deltas = sub[np.arange(members.size), best_pos] - D[members, c]
            mi = int(np.argmin(deltas))
            p = int(members[mi])
            u = int(under[best_pos[mi]])
            assign[p] = u
            sizes[c] -= 1
            sizes[u] += 1
    partition = [np.flatnonzero(assign == g) for g in range(k)]
    centroids = np.stack([points[g].mean(axis=0) for g in partition])
    return centroids.astype(np.float32), partition


def train_pq(
    training: np.ndarray, m: int, b: int, cfg: TrainConfig | None = None
) -> ProductQuantizer:
    """Train one codebook of 2^b centroids per sub-space. No rotation."""
    cfg = cfg or TrainConfig()
    training = np.asarray(training, dtype=np.float64)
    if training.ndim != 2:
        raise ValueError("training set must be 2-D")
    check_shape(training.shape[1], m, b)
    _require_finite(training, "training vectors")
    if training.shape[0] < (1 << b):
        raise TrainError(f"{training.shape[0]} training points for {1 << b} centroids")
    d = training.shape[1]
    dsub = d // m
    k = 1 << b

    def book(j):
        sub = np.ascontiguousarray(training[:, j * dsub : (j + 1) * dsub])
        return _kmeans_seeded(sub, k, cfg, _seed_for(cfg.seed, j))

    cost = m * kmeans_cost(training.shape[0], k, dsub, cfg.kmeans_iters)
    books = np.stack(fork_map(book, m, cost))
    return ProductQuantizer(m=m, b=b, d=d, codebooks=books)


def _kmeans_seeded(
    points: np.ndarray,
    k: int,
    cfg: TrainConfig,
    seed_seq: np.random.SeedSequence,
    shares: _Shares | None = None,
) -> np.ndarray:
    """kmeans() with an explicit SeedSequence instead of cfg.seed; returns
    only the centroids (k, d) float32.

    Seeding draws and assignments run on shares of the rows (``_Shares``,
    its own unless given); empty-cluster repair and mean updates run here
    on the whole arrays, so the result does not depend on the split."""
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed_seq)
    with nullcontext(shares) if shares else _Shares(points, k, cfg.kmeans_iters) as shares:
        # The seeding's owners are the first assignment, as nearest finds it.
        centroids, assign = _kmeanspp_init(points, k, rng, shares)
        prev_assign = None
        for it in range(cfg.kmeans_iters):
            if it:
                assign = shares.nearest(centroids)
            if _repair_empty(points, centroids, assign):
                assign = shares.nearest(centroids)
            if prev_assign is not None and np.array_equal(assign, prev_assign):
                break
            centroids = _mean_update(points, assign, k, centroids)
            prev_assign = assign
    return centroids.astype(np.float32)


def train_opq(
    training: np.ndarray,
    m: int,
    b: int,
    cfg: TrainConfig | None = None,
    error_trace: list[float] | None = None,
) -> ProductQuantizer:
    """Train codebooks jointly with an orthonormal rotation.

    Alternates (A) one k-means step per sub-space under the current rotation
    with (B) the closed-form orthogonal update: the rotation maximizing the
    trace of R (X^T Xhat) is V U^T where U S V^T is the SVD of the
    cross-covariance between data and reconstructions. opq_iters=0 degenerates
    to plain product-quantizer training with an identity rotation.

    If error_trace is given, each iteration appends the mean squared
    distance from the rotated data to the centroids step (A) assigned it,
    measured before that step's mean update.
    """
    cfg = cfg or TrainConfig()
    training = np.asarray(training, dtype=np.float64)
    base = train_pq(training, m, b, cfg)
    d = training.shape[1]
    dsub = d // m
    k = 1 << b
    books = base.codebooks.astype(np.float64)
    rot = np.eye(d, dtype=np.float64)
    n = training.shape[0]
    for _ in range(cfg.opq_iters):
        z = training @ rot.T
        recon = np.empty_like(z)
        total_err = 0.0
        for j in range(m):
            sub = z[:, j * dsub : (j + 1) * dsub]
            assign = nearest(sub, books[j])
            if _repair_empty(sub, books[j], assign):
                assign = nearest(sub, books[j])
            if error_trace is not None:
                total_err += float(sqdist_rows(sub, books[j][assign]).sum())
            books[j] = _mean_update(sub, assign, k, books[j])
            recon[:, j * dsub : (j + 1) * dsub] = books[j][assign]
        if error_trace is not None:
            error_trace.append(total_err / n)
        try:
            u, _, vh = np.linalg.svd(training.T @ recon)
        except np.linalg.LinAlgError as exc:
            raise TrainError(f"rotation update failed: {exc}") from exc
        rot = (u @ vh).T
    return ProductQuantizer(
        m=m,
        b=b,
        d=d,
        codebooks=books.astype(np.float32),
        rotation=rot.astype(np.float32),
    )


def encode(pq: ProductQuantizer, x: np.ndarray, _groups: list | None = None) -> np.ndarray:
    """Map vectors to codes: per sub-space index of the nearest centroid.

    Ties resolve to the lowest centroid index. Accepts a single row (d,) or a
    batch (n, d); returns (code_width,) or (n, code_width) codes in the stored
    layout: uint8 for b <= 8 (nibble-packed for b <= 4), uint16 above.

    ``_groups``, for a build that encodes its rows in several calls, is
    ``_code_groups`` for all of them; by default it is built for x.
    """
    x = np.asarray(x)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    if rows.shape[1] != pq.d:
        raise ValueError(f"vector dimensionality {rows.shape[1]}, expected {pq.d}")
    dsub = pq.dsub
    n = rows.shape[0]
    books = pq.codebooks.astype(np.float64)
    groups = _code_groups(pq, rows, n) if _groups is None else _groups

    # Rows are independent, so a float64 copy of one chunk at a time bounds
    # the memory whatever the input's size, and chunks can go to workers.
    def chunk_codes(i):
        chunk = rows[i * ENCODE_ROWS : (i + 1) * ENCODE_ROWS]
        _require_finite(chunk, "vectors")
        z = pq.rotate(chunk)
        part = np.zeros((chunk.shape[0], pq.code_width), dtype=pq.code_dtype)
        for j in range(pq.m):
            idx = nearest(z[:, j * dsub : (j + 1) * dsub], books[j], _groups=groups[j])
            if pq.b <= 4:
                part[:, j >> 1] |= idx.astype(np.uint8) << (4 * (j & 1))
            else:
                part[:, j] = idx
        return part

    parts = fork_map(chunk_codes, -(-n // ENCODE_ROWS), pq.m * assign_cost(n, pq.k, dsub))
    out = np.concatenate(parts) if parts else np.zeros((0, pq.code_width), pq.code_dtype)
    return out[0] if single else out


def _code_groups(pq: ProductQuantizer, probe: np.ndarray, rows: int) -> list:
    """Per sub-space, the grouping ``nearest`` prunes with when ``rows``
    vectors like probe (unrotated) are encoded: a wide codebook is grouped
    once for every chunk (see _dist.nearest), tried on a sample of the
    probe; None where the codebook is narrow or grouping does not pay."""
    if pq.k <= NARROW_K:
        return [None] * pq.m
    z, dsub = pq.rotate(probe[:: max(1, len(probe) // ENCODE_ROWS)]), pq.dsub
    return [
        centroid_groups(book, z[:, j * dsub : (j + 1) * dsub], rows)
        for j, book in enumerate(pq.codebooks)
    ]


def decode(pq: ProductQuantizer, codes: np.ndarray) -> np.ndarray:
    """Reconstruct vectors from codes (concatenated centroids, un-rotated)."""
    codes = np.asarray(codes)
    single = codes.ndim == 1
    rows = codes[None, :] if single else codes
    if rows.shape[1] != pq.code_width:
        raise ValueError(f"code width {rows.shape[1]}, expected {pq.code_width}")
    comps = code_components(rows, pq.m)
    if np.any(comps >= pq.k):
        raise ValueError(f"sub-index out of range for k={pq.k}")
    parts = [pq.codebooks[j][comps[:, j]] for j in range(pq.m)]
    z = np.concatenate(parts, axis=1).astype(np.float64)
    if pq.rotation is not None:
        z = z @ pq.rotation.astype(np.float64)
    out = z.astype(np.float32)
    return out[0] if single else out


MAGIC_QUANTIZER = b"PQZ1"


def write_quantizer_body(f: BinaryIO, pq: ProductQuantizer) -> None:
    """PQZ1: the product quantizer, then, for a DerivedPQ, bbar and the
    derived codebooks."""
    _binio.write_magic(f, MAGIC_QUANTIZER)
    _binio.write_i32(f, pq.m)
    _binio.write_i32(f, pq.b)
    _binio.write_i32(f, pq.d)
    _binio.write_i32(f, 1 if pq.rotation is not None else 0)
    if pq.rotation is not None:
        _binio.write_array(f, pq.rotation, "<f4")
    _binio.write_array(f, pq.codebooks, "<f4")
    if isinstance(pq, DerivedPQ):
        _binio.write_i32(f, pq.bbar)
        _binio.write_array(f, pq.derived, "<f4")


def read_quantizer_body(f: BinaryIO, derived: bool | None = None) -> ProductQuantizer:
    """One PQZ1 quantizer, a DerivedPQ when derived; by default, when any
    byte follows the product quantizer."""
    _binio.expect_magic(f, MAGIC_QUANTIZER)
    off = f.tell()
    m = _binio.read_i32(f)
    b = _binio.read_i32(f)
    d = _binio.read_i32(f)
    has_rot = _binio.read_i32(f)
    if m < 1 or not 1 <= b <= 16 or d < 1 or d % m or has_rot not in (0, 1):
        raise _binio.FormatError(
            f"bad quantizer header m={m} b={b} d={d} rotation={has_rot}", offset=off
        )
    rotation = None
    if has_rot:
        rotation = _binio.read_array(f, "<f4", d * d).reshape(d, d)
    k = 1 << b
    dsub = d // m
    books = _binio.read_array(f, "<f4", m * k * dsub).reshape(m, k, dsub)
    tail = f.tell()
    if derived is None:
        derived = bool(f.read(1))
        f.seek(tail)
    fields = dict(m=m, b=b, d=d, codebooks=books, rotation=rotation)
    if derived:
        bbar = _binio.read_i32(f)
        try:
            check_derived_bits(b, bbar)
        except ValueError as exc:
            raise _binio.FormatError(str(exc), offset=tail) from None
        books_bar = _binio.read_array(f, "<f4", m * (1 << bbar) * dsub)
        fields.update(bbar=bbar, derived=books_bar.reshape(m, 1 << bbar, dsub))
    try:
        return (DerivedPQ if derived else ProductQuantizer)(**fields)
    except ValueError as exc:  # non-finite codebooks, a rotation not orthonormal
        raise _binio.FormatError(str(exc), offset=off) from None


def save_quantizer(path, pq: ProductQuantizer) -> None:
    _binio.save(path, write_quantizer_body, pq)


def load_quantizer(path) -> ProductQuantizer:
    """The quantizer of a PQZ1 file: a DerivedPQ when derived codebooks
    follow the product quantizer, else a ProductQuantizer."""
    with open(path, "rb") as f:
        pq = read_quantizer_body(f)
        _binio.expect_eof(f, "derived codebooks")
    return pq
