"""nearest, sqdist_rows, k-means++ seeding and Lloyd's k-means against
their cdist oracles, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from pqscan import TrainConfig
from pqscan import _dist
from pqscan._dist import (
    _CHUNK_ENTRIES,
    _ROW_BLOCK_ENTRIES,
    NARROW_K,
    nearest,
    nearest_k,
    sqdist_rows,
)
from pqscan.quantizer import _cdf_index, _kmeans_seeded, _kmeanspp_init, _mean_update


def nearest_oracle(points, centroids):
    """cdist sqeuclidean + argmin: the assignment nearest must reproduce."""
    dm = cdist(np.asarray(points, np.float64), np.asarray(centroids, np.float64), "sqeuclidean")
    idx = np.argmin(dm, axis=1)
    return idx, dm[np.arange(dm.shape[0]), idx]


def kmeanspp_oracle(points, k, rng):
    """k-means++ seeding with one full cdist pass per new centroid."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    closest = cdist(points, centroids[:1], "sqeuclidean").ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[c] = points[pick]
        closest = np.minimum(closest, cdist(points, centroids[c : c + 1], "sqeuclidean").ravel())
    return centroids


def repair_empty_oracle(points, centroids, assign, dist):
    """Re-seed each empty cluster, in index order, from the point farthest
    from its centroid (dist from cdist); True if any was empty."""
    empties = np.flatnonzero(np.bincount(assign, minlength=centroids.shape[0]) == 0)
    work = dist.copy()
    for c in empties:
        far = int(np.argmax(work))
        centroids[c] = points[far]
        work[far] = -1.0
    return empties.size > 0


def kmeans_seeded_oracle(points, k, iters, seed_seq):
    """_kmeans_seeded with cdist only: kmeanspp_oracle seeds, then per
    iteration a cdist argmin, the empty-cluster repair and the mean update."""
    rng = np.random.default_rng(seed_seq)
    centroids = kmeanspp_oracle(points, k, rng)
    prev = None
    for _ in range(iters):
        assign, dist = nearest_oracle(points, centroids)
        if repair_empty_oracle(points, centroids, assign, dist):
            assign, dist = nearest_oracle(points, centroids)
        if prev is not None and np.array_equal(assign, prev):
            break
        centroids = _mean_update(points, assign, k, centroids)
        prev = assign
    return centroids.astype(np.float32)


def assert_bits_equal(got, want):
    # Bit equality, not closeness (array_equal treats -0.0 == 0.0; the
    # distances are sums of squares, so neither side produces -0.0).
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_as_oracle(points, centroids):
    idx = nearest(points, centroids)
    want_idx, want_dist = nearest_oracle(points, centroids)
    assert idx.dtype == np.int64
    np.testing.assert_array_equal(idx, want_idx)
    # The winners' distances, as callers compute them, are cdist's; they
    # may overflow to inf, as cdist's do, quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        got_dist = sqdist_rows(points, np.asarray(centroids, np.float64)[idx])
    assert_bits_equal(got_dist, want_dist)


def make_case(kind, n, d, k, rng):
    """Points and centroids of one structured kind."""
    x = rng.normal(size=(n, d))
    c = rng.normal(size=(k, d))
    if kind == "duplicates":
        # Whole centroids repeated: rows nearest to them tie exactly.
        c[rng.integers(0, k, k // 2)] = c[rng.integers(0, k, k // 2)]
        x[: n // 2] = c[rng.integers(0, k, n // 2)] + rng.normal(0, 0.3, (n // 2, d))
    elif kind == "grid":
        # Small integers: distances are integers, so exact ties abound.
        x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        c = rng.integers(-2, 3, size=(k, d)).astype(np.float64)
    elif kind == "ulp":
        # Centroid pairs one ulp apart per coordinate: distances tie or
        # differ in the last bits, well inside the shortlist slack.
        half = k // 2
        signs = rng.choice([-np.inf, np.inf], size=(half, d))
        c[half : 2 * half] = np.nextafter(c[:half], signs)
        x[: n // 2] = (c[rng.integers(0, max(half, 1), n // 2)] + c[:1]) / 2
    elif kind == "offset":
        # |x| near 1e6 with unit spread: the shift by the centroid mean must
        # cancel the offset, or every row would need a rerank to stay exact.
        x += 1e6
        c += 1e6
    return x, c


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([1, 2, 8, 16, 128]),
    k=st.sampled_from([1, 2, 16, 256, 1024]),
    n=st.integers(1, 80),
    kind=st.sampled_from(["normal", "duplicates", "grid", "ulp", "offset"]),
    scale=st.sampled_from([1e-42, 1e-20, 1.0, 1e18, 1e39, 1e150]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_matches_cdist_argmin(d, k, n, kind, scale, seed):
    # Scores are float32 only inside float32's window of centroid scales;
    # below it (1e-42, 1e-20) and from SAFE_SCALE32 on (1e39, 1e150, and
    # 1e18 at large d) they are float64, and 1e18 at small d puts some rows
    # past the float32 limit. Every case must match cdist.
    x, c = make_case(kind, n, d, k, np.random.default_rng(seed))
    assert_same_as_oracle(x * scale, c * scale)


_coords = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)), elements=_coords),
            hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)), elements=_coords),
        )
    )
)
def test_nearest_matches_cdist_argmin_on_arbitrary_floats(pair):
    x, c = pair
    assert_same_as_oracle(x, c)


def test_nearest_non_finite_matches_cdist():
    rng = np.random.default_rng(4)
    x, c = rng.normal(size=(40, 4)), rng.normal(size=(9, 4))
    x[3, 1], x[5] = np.nan, np.inf
    bad_c = c.copy()
    bad_c[4, 2] = np.inf
    for pts, cents in ((x, c), (rng.normal(size=(40, 4)), bad_c), (x * 1e200, c * 1e200)):
        idx = nearest(pts, cents)
        want_idx, want_dist = nearest_oracle(pts, cents)
        np.testing.assert_array_equal(idx, want_idx)
        with np.errstate(over="ignore", invalid="ignore"):  # cdist is quiet too
            np.testing.assert_array_equal(sqdist_rows(pts, cents[idx]), want_dist)


def test_nearest_is_independent_of_chunking():
    # Two whole chunks and a one-row third, on each side of the layout rule:
    # centroid-major up to NARROW_K centroids, row-major above. Rows of
    # NaN, inf and -inf sit in every chunk; in the centroid-major layout a
    # NaN row has no score at or below its threshold at all. float32 rows,
    # which builds pass, are widened chunk by chunk.
    for k, d in ((16, 8), (NARROW_K, 16), (NARROW_K + 1, 8), (1024, 8)):
        rng = np.random.default_rng(k)
        step = _CHUNK_ENTRIES // k
        x, c = make_case("duplicates", 2 * step + 1, d, k, rng)
        x[[0, step + 1, 2 * step], 0] = np.nan
        x[[1, step + 2]] = np.inf
        x[[2, step + 3], d // 2] = -np.inf
        assert_same_as_oracle(x, c)
        assert_same_as_oracle(x.astype(np.float32), c)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize(
    "n,d,k,offset",
    [(500, 1, 16, 0.0), (800, 8, 64, 0.0), (400, 16, 256, 0.0), (300, 128, 32, 0.0),
     (600, 4, 32, 1e6), (12, 2, 12, 0.0), (20_000, 2, 16, 0.0)],
)
def test_kmeanspp_matches_cdist_seeding(seed, n, d, k, offset):
    # The oracle draws with rng.choice(n, p=...); the seeding reproduces that
    # draw from the cumulative weights, so a numpy that changes choice()
    # fails here. k == n runs out of weight and falls back to uniform draws.
    data = np.random.default_rng(seed + 1000)
    centers = data.normal(0, 5, (8, d))
    points = centers[data.integers(0, 8, n)] + data.normal(size=(n, d)) + offset
    points[: n // 10] = points[n // 10 : 2 * (n // 10)]  # duplicated points
    got, owner = _kmeanspp_init(points, k, np.random.default_rng(seed))
    want = kmeanspp_oracle(points, k, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(owner, nearest_oracle(points, want)[0])


def test_kmeanspp_all_points_equal_uses_uniform_draws():
    points = np.full((50, 3), 2.5)
    got, owner = _kmeanspp_init(points, 4, np.random.default_rng(5))
    want = kmeanspp_oracle(points, 4, np.random.default_rng(5))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(owner, np.zeros(50, np.int64))


@settings(max_examples=300, deadline=None)
@given(
    weights=hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.one_of(
            st.just(0.0),
            st.sampled_from([1.0, 3.0, 1e-300, 1e300]),
            st.floats(0.0, 1e6, allow_subnormal=True),
        ),
    ),
    normalized=st.booleans(),
    pos=st.integers(0, 39),
    nudge=st.sampled_from([-2, -1, 0, 1, 2]),
)
def test_cdf_index_is_the_normalized_search(weights, normalized, pos, nudge):
    # u sits on, or a few ulps beside, a normalized cdf entry, where u * last
    # and the exact test cdf[i] / last <= u round differently; zero weights
    # make runs of equal entries to step over. Seeding passes weights that
    # sum to one; raw sums end anywhere, which moves u * last off the grid.
    total = weights.sum()
    if not 0.0 < total < np.inf:
        return
    cdf = np.cumsum(weights / total if normalized else weights)
    norm = cdf / cdf[-1]
    u = norm[min(pos, cdf.size - 1)]
    for _ in range(abs(nudge)):
        u = np.nextafter(u, np.inf if nudge > 0 else -np.inf)
    u = float(min(max(u, 0.0), np.nextafter(1.0, 0.0)))
    assert _cdf_index(cdf, u) == int(norm.searchsorted(u, side="right"))


@pytest.mark.parametrize("d", [1, 8, 16, 128])
@pytest.mark.parametrize("blocks", [0, 1, 2])
@pytest.mark.parametrize("extra", [1, 2, 3])
def test_sqdist_rows_matches_cdist_diagonal(d, blocks, extra):
    # n sits just past a whole number of blocks, so the last block is short
    # and may hold one row: every block must sum in cdist's column order.
    n = blocks * max(2, _ROW_BLOCK_ENTRIES // d) + extra
    rng = np.random.default_rng(d * 100 + blocks * 10 + extra)
    x = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e6], size=(n, 1))
    c = rng.normal(size=(n, d))
    want = np.concatenate([
        cdist(x[lo : lo + 256], c[lo : lo + 256], "sqeuclidean").diagonal()
        for lo in range(0, n, 256)
    ])
    assert_bits_equal(sqdist_rows(x, c), want)
    assert_bits_equal(sqdist_rows(x, c[0]), cdist(x, c[:1], "sqeuclidean").ravel())


@pytest.mark.parametrize("n,d", [(0, 4), (1, 4), (1, 1), (7, 1), (300, 128)])
def test_sqdist_rows_against_one_row_is_cdist(n, d):
    rng = np.random.default_rng(n * 1000 + d)
    x = rng.normal(size=(n, d)) * 1e3
    c = rng.normal(size=d)
    got = sqdist_rows(x, c)
    assert got.shape == (n,)
    assert_bits_equal(got, cdist(x, c[None], "sqeuclidean")[:, 0])


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["normal", "duplicates", "grid", "ulp", "offset"]),
    scale=st.sampled_from([1e-42, 1e-20, 1.0, 1e18, 1e39, 1e150]),
    d=st.sampled_from([1, 8, 16, 128]),
    n=st.integers(2, 60),
    k_frac=st.floats(0.05, 1.0),
    duplicated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeanspp_float32_scores_keep_draws_exact(kind, scale, d, n, k_frac, duplicated, seed):
    # Scores are float32, so the seeding's slack must hold from float32
    # subnormals (1e-42) through scales float32 cannot hold (1e39, 1e150),
    # where it must compute every distance exactly and cast nothing.
    rng = np.random.default_rng(seed)
    x, c = make_case(kind, n, d, max(2, n // 4), rng)
    points = np.concatenate([x, c]) * scale
    if duplicated:
        half = points.shape[0] // 2
        points[:half] = points[rng.integers(half, points.shape[0], half)]
    k = max(1, int(k_frac * points.shape[0]))
    got, owner = _kmeanspp_init(points, k, np.random.default_rng(seed))
    want = kmeanspp_oracle(points, k, np.random.default_rng(seed))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(owner, nearest_oracle(points, want)[0])


@pytest.mark.parametrize("kind", ["normal", "duplicates", "grid", "offset"])
@pytest.mark.parametrize(
    "n,d,k",
    [(300, 1, 16), (400, 2, 32), (500, 8, 64), (200, 16, 64), (120, 128, 8), (40, 3, 40)],
)
@pytest.mark.parametrize("seed", [0, 5])
def test_kmeans_seeded_matches_cdist_lloyd(kind, n, d, k, seed):
    # Duplicated and grid points give tied distances, repeated seeds and
    # empty clusters; k == n leaves no spare point at all.
    points, _ = make_case(kind, n, d, k, np.random.default_rng(seed))
    cfg = TrainConfig(kmeans_iters=6, seed=seed)
    got = _kmeans_seeded(points, k, cfg, np.random.SeedSequence(seed))
    want = kmeans_seeded_oracle(points, k, cfg.kmeans_iters, np.random.SeedSequence(seed))
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))


@pytest.mark.parametrize("kind", ["normal", "duplicates", "grid", "offset"])
@pytest.mark.parametrize("seed", [0, 3])
def test_kmeanspp_owners_are_nearest_seeds(kind, seed):
    points, _ = make_case(kind, 400, 4, 48, np.random.default_rng(seed))
    seeds, owner = _kmeanspp_init(points, 48, np.random.default_rng(seed))
    np.testing.assert_array_equal(seeds, kmeanspp_oracle(points, 48, np.random.default_rng(seed)))
    np.testing.assert_array_equal(owner, nearest_oracle(points, seeds)[0])


def test_nearest_at_65536_centroids_matches_cdist_argmin():
    # At k = 2^16 chunks keep the floor of rows, not 2^18 // k = 4. Some
    # centroids repeat and some points sit on a centroid, so ties occur.
    rng = np.random.default_rng(11)
    c = rng.normal(size=(1 << 16, 3))
    c[40_000:40_100] = c[100:200]
    x = rng.normal(size=(300, 3))
    x[:50] = c[100:150]
    want = np.concatenate(
        [nearest_oracle(x[lo : lo + 32], c)[0] for lo in range(0, x.shape[0], 32)]
    )
    np.testing.assert_array_equal(nearest(x, c), want)


def test_nearest_k_chunks_are_sized_from_the_centroid_count(monkeypatch):
    # exact_knn scores queries against the whole base: a fixed row count
    # per chunk would hold that many rows times every base row in float64.
    # A chunk holds at most _CHUNK_ENTRIES distances, or one row if a row
    # alone has more. Some centroids repeat, so ties go to the lower index.
    shapes, real = [], _dist.sqdist_matrix

    def spied(a, b):
        shapes.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(_dist, "sqdist_matrix", spied)
    for count, n in ((3_000, 300), (_CHUNK_ENTRIES + 1, 3)):
        rng = np.random.default_rng(count)
        c = rng.normal(size=(count, 2))
        c[-50:] = c[:50]
        x = rng.normal(size=(n, 2))
        x[:2] = c[:2]
        shapes.clear()
        idx, dist = nearest_k(x, c, 5)
        assert sum(rows for rows, _ in shapes) == n
        assert all(rows * cols <= max(_CHUNK_ENTRIES, cols) for rows, cols in shapes)
        dm = cdist(x, c, "sqeuclidean")
        want = np.argsort(dm, axis=1, kind="stable")[:, :5]
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(dist, np.take_along_axis(dm, want, axis=1))
