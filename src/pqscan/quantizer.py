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

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np
from scipy import sparse

from . import _binio
from ._dist import SAFE_SCALE32, nearest, shortlist_slack, sqdist_matrix, sqdist_rows
from ._parallel import assign_cost, fork_map


# Rows per chunk wherever a build turns input rows into float64 work arrays
# (encode, and the IVF assignment and residual passes).
ENCODE_ROWS = 1 << 13


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
        if self.d % self.m != 0:
            raise ValueError(f"d={self.d} not divisible by m={self.m}")
        if not 1 <= self.b <= 16:
            raise ValueError(f"b={self.b} out of range [1, 16]")
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


# True while a build passes on rows it has already checked for non-finite
# values (see _checked_rows).
_ROWS_CHECKED: ContextVar[bool] = ContextVar("rows_checked", default=False)


def _require_finite(x: np.ndarray, what: str) -> None:
    if not _ROWS_CHECKED.get() and not np.isfinite(x).all():
        raise ValueError(f"{what} contain non-finite values")


@contextmanager
def _checked_rows() -> Iterator[None]:
    """Skip _require_finite inside: the caller vouches that every row it
    passes on is finite."""
    token = _ROWS_CHECKED.set(True)
    try:
        yield
    finally:
        _ROWS_CHECKED.reset(token)


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


def _kmeanspp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
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
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    centroids = np.empty((k, d), dtype=np.float64)
    owner = np.zeros(n, dtype=np.int64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = sqdist_rows(points, points[first])
    xs = points - points.mean(axis=0)
    xn = np.einsum("ij,ij->i", xs, xs)
    xn_max = xn.max()
    # Points too large for float32 scores cast nothing: every seed then
    # takes the exact branch below. Stored (d, n), a draw's score is d
    # contiguous axpys over the points instead of n dot products of length d.
    xsT = np.ascontiguousarray(xs.T, dtype=np.float32) if xn_max < SAFE_SCALE32 else None
    xlow = xn - shortlist_slack(d, xn, np.float32)
    low = np.empty(n)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            # The steps rng.choice(n, p=closest / total) runs, without its
            # per-call validation of p: the same draw, bit for bit.
            pick = _cdf_index(np.cumsum(closest / total), rng.random())
        centroids[c] = points[pick]
        cs = xs[pick]
        cn = float(cs @ cs)
        if xsT is not None and xn_max + cn < SAFE_SCALE32:
            np.add((np.float32(-2.0) * xsT[:, pick]) @ xsT, xlow, out=low)
            low += cn - shortlist_slack(d, cn, np.float32)
            drop = np.flatnonzero(low < closest)
        else:
            drop = np.arange(n)
        new = sqdist_rows(points[drop], points[pick])
        won = new < closest[drop]
        drop = drop[won]
        closest[drop] = new[won]
        owner[drop] = c
    return centroids, owner


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
    centroids = _kmeans_seeded(points, k, cfg, np.random.SeedSequence(cfg.seed))
    assign = nearest(points, centroids.astype(np.float64))
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


def _check_train_args(training: np.ndarray, m: int, b: int) -> None:
    if not 1 <= b <= 16:
        raise ValueError(f"b must be in [1, 16], got {b}")
    if training.ndim != 2:
        raise ValueError("training set must be 2-D")
    if training.shape[1] % m != 0:
        raise ValueError(f"d={training.shape[1]} not divisible by m={m}")
    _require_finite(training, "training vectors")
    if training.shape[0] < (1 << b):
        raise TrainError(
            f"{training.shape[0]} training points for {1 << b} centroids"
        )


def train_pq(
    training: np.ndarray, m: int, b: int, cfg: TrainConfig | None = None
) -> ProductQuantizer:
    """Train one codebook of 2^b centroids per sub-space. No rotation."""
    cfg = cfg or TrainConfig()
    training = np.asarray(training, dtype=np.float64)
    _check_train_args(training, m, b)
    d = training.shape[1]
    dsub = d // m
    k = 1 << b

    def book(j):
        sub = np.ascontiguousarray(training[:, j * dsub : (j + 1) * dsub])
        return _kmeans_seeded(sub, k, cfg, _seed_for(cfg.seed, j))

    cost = m * (cfg.kmeans_iters + 1) * assign_cost(training.shape[0], k, dsub)
    books = np.stack(fork_map(book, m, cost))
    return ProductQuantizer(m=m, b=b, d=d, codebooks=books)


def _kmeans_seeded(
    points: np.ndarray, k: int, cfg: TrainConfig, seed_seq: np.random.SeedSequence
) -> np.ndarray:
    """kmeans() with an explicit SeedSequence instead of cfg.seed; returns
    only the centroids (k, d) float32."""
    n = points.shape[0]
    if n < k:
        raise TrainError(f"{n} training points for {k} clusters")
    rng = np.random.default_rng(seed_seq)
    # The seeding's owners are the first assignment, as nearest would find it.
    centroids, assign = _kmeanspp_init(points, k, rng)
    prev_assign = None
    for it in range(cfg.kmeans_iters):
        if it:
            assign = nearest(points, centroids)
        if _repair_empty(points, centroids, assign):
            assign = nearest(points, centroids)
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
    _check_train_args(training, m, b)
    d = training.shape[1]
    dsub = d // m
    k = 1 << b
    base = train_pq(training, m, b, cfg)
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


def encode(pq: ProductQuantizer, x: np.ndarray) -> np.ndarray:
    """Map vectors to codes: per sub-space index of the nearest centroid.

    Ties resolve to the lowest centroid index. Accepts a single row (d,) or a
    batch (n, d); returns (code_width,) or (n, code_width) codes in the stored
    layout: uint8 for b <= 8 (nibble-packed for b <= 4), uint16 above.
    """
    x = np.asarray(x)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    if rows.shape[1] != pq.d:
        raise ValueError(f"vector dimensionality {rows.shape[1]}, expected {pq.d}")
    dsub = pq.dsub
    books = pq.codebooks.astype(np.float64)

    # Rows are independent, so a float64 copy of one chunk at a time bounds
    # the memory whatever the input's size, and chunks can go to workers.
    def chunk_codes(i):
        chunk = rows[i * ENCODE_ROWS : (i + 1) * ENCODE_ROWS]
        _require_finite(chunk, "vectors")
        z = pq.rotate(chunk)
        part = np.zeros((chunk.shape[0], pq.code_width), dtype=pq.code_dtype)
        for j in range(pq.m):
            idx = nearest(z[:, j * dsub : (j + 1) * dsub], books[j])
            if pq.b <= 4:
                part[:, j >> 1] |= idx.astype(np.uint8) << (4 * (j & 1))
            else:
                part[:, j] = idx
        return part

    n = rows.shape[0]
    parts = fork_map(chunk_codes, -(-n // ENCODE_ROWS), pq.m * assign_cost(n, pq.k, dsub))
    out = np.concatenate(parts) if parts else np.zeros((0, pq.code_width), pq.code_dtype)
    return out[0] if single else out


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
    _binio.write_magic(f, MAGIC_QUANTIZER)
    _binio.write_i32(f, pq.m)
    _binio.write_i32(f, pq.b)
    _binio.write_i32(f, pq.d)
    _binio.write_i32(f, 1 if pq.rotation is not None else 0)
    if pq.rotation is not None:
        _binio.write_array(f, pq.rotation, "<f4")
    _binio.write_array(f, pq.codebooks, "<f4")


def read_quantizer_body(f: BinaryIO) -> ProductQuantizer:
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
    try:
        return ProductQuantizer(m=m, b=b, d=d, codebooks=books, rotation=rotation)
    except ValueError as exc:  # non-finite codebooks, a rotation not orthonormal
        raise _binio.FormatError(str(exc), offset=off) from None


def save_quantizer(path, pq: ProductQuantizer) -> None:
    with open(path, "wb") as f:
        write_quantizer_body(f, pq)


def load_quantizer(path) -> ProductQuantizer:
    with open(path, "rb") as f:
        pq = read_quantizer_body(f)
        _binio.expect_eof(f, "codebooks")
    return pq
