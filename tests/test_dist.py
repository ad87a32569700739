"""nearest, sqdist_rows, k-means++ seeding and Lloyd's k-means against
their cdist oracles, bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from pqscan import TrainConfig
from pqscan import _dist, quantizer
from pqscan._dist import (
    _CHUNK_ENTRIES,
    _GROUP_MIN_ROWS,
    _ROW_BLOCK_ENTRIES,
    NARROW_K,
    _partition,
    centroid_groups,
    moved_groups,
    nearest,
    nearest_k,
    sqdist_rows,
)
from pqscan.quantizer import _kmeans_seeded, _kmeanspp_init, _mean_update


def nearest_oracle(points, centroids):
    """cdist sqeuclidean + argmin: the assignment nearest must reproduce.
    Rows go 256 at a time, so thousands of rows against thousands of
    centroids stay small."""
    points = np.asarray(points, np.float64)
    centroids = np.asarray(centroids, np.float64)
    idx, dist = [np.empty(0, np.int64)], [np.empty(0)]
    # cdist itself is quiet about overflow and non-finite input.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, points.shape[0], 256):
            dm = cdist(points[lo : lo + 256], centroids, "sqeuclidean")
            idx.append(np.argmin(dm, axis=1))
            dist.append(dm[np.arange(dm.shape[0]), idx[-1]])
    return np.concatenate(idx), np.concatenate(dist)


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


def assert_same_as_oracle(points, centroids, groups=None):
    idx = nearest(points, centroids, _groups=groups)
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


WIDE_ROWS = 3000


@pytest.fixture
def always_grouped(monkeypatch):
    """Every codebook above NARROW_K is grouped, whatever the row count and
    whatever share of it the bound keeps; the test sets _PRUNED_SHARE."""
    monkeypatch.setattr(_dist, "_GROUP_MIN_ROWS", 0)
    monkeypatch.setattr(_dist, "_PRUNED_SHARE", 1.0)
    return monkeypatch


@pytest.mark.parametrize("share", [1.0, 0.0], ids=["pruned", "scored-in-full"])
@pytest.mark.parametrize("kind", ["normal", "duplicates", "grid", "ulp", "offset"])
@pytest.mark.parametrize("scale", [1e-42, 1e-20, 1.0, 1e18, 1e39, 1e150])
@pytest.mark.parametrize("k,d", [(NARROW_K + 1, 32), (1024, 8), (4096, 2)])
def test_wide_nearest_matches_cdist_argmin_on_thousands_of_rows(
    always_grouped, k, d, kind, scale, share
):
    # The scales of test_nearest_matches_cdist_argmin: float32 scores at
    # 1.0, float64 below and above float32's window, and at 1e18 some rows
    # past the float32 limit, which take the full rerank. "grid" at d = 2
    # ties each row with about k / 25 centroids. Each chunk either scores
    # the kept groups' members (share 1) or falls back to every centroid
    # in group order (share 0).
    x, c = make_case(kind, WIDE_ROWS, d, k, np.random.default_rng(k + d))
    x, c = x * scale, c * scale
    groups = centroid_groups(c, x)
    assert groups.rep.size > 1
    always_grouped.setattr(_dist, "_PRUNED_SHARE", share)
    assert_same_as_oracle(x, c, groups)


@pytest.mark.parametrize("n", [1, 63, 700, WIDE_ROWS])
def test_wide_nearest_with_a_grouping_built_for_other_rows(always_grouped, n):
    # encode groups each codebook once for all its rows and passes that
    # grouping to every chunk, whatever the chunk's size.
    rng = np.random.default_rng(n)
    c = make_case("duplicates", 1, 8, 1024, rng)[1]
    groups = centroid_groups(c, rng.normal(size=(500, 8)), rows=10**6)
    always_grouped.setattr(_dist, "_GROUP_MIN_ROWS", 10**9)
    x = make_case("duplicates", n, 8, 1024, rng)[0]
    assert groups.rep.size > 1 and centroid_groups(c, x) is None
    np.testing.assert_array_equal(nearest(x, c, _groups=groups), nearest_oracle(x, c)[0])


@pytest.mark.parametrize("k,d", [(1024, 8), (4096, 3)])
def test_wide_nearest_non_finite_rows_match_cdist(always_grouped, k, d):
    # NaN, inf and -inf rows among thousands: their group bounds are not
    # finite, so they take the full rerank, as cdist's argmin does.
    rng = np.random.default_rng(k)
    x, c = make_case("duplicates", WIDE_ROWS, d, k, rng)
    rows = rng.choice(WIDE_ROWS, 90, replace=False)
    x[rows[:30], 0] = np.nan
    x[rows[30:60]] = np.inf
    x[rows[60:], d // 2] = -np.inf
    assert_same_as_oracle(x, c)
    assert_same_as_oracle(x.astype(np.float32), c)


def test_wide_nearest_when_all_centroids_are_equal(always_grouped):
    # One group of radius 0, up to the rounding of its mean: every row ties
    # over all k centroids and index 0 wins.
    rng = np.random.default_rng(3)
    c = np.repeat(rng.normal(size=(1, 8)), 1000, axis=0)
    x = rng.normal(size=(WIDE_ROWS, 8))
    x[:10] = c[0]
    groups = centroid_groups(c, x)
    assert groups.rep.size == 1 and groups.radius[0] < 1e-12
    assert_same_as_oracle(x, c)


def test_wide_nearest_under_any_partition_of_the_centroids(always_grouped):
    # nearest stays exact whatever groups it is given: duplicated centroids
    # split across groups, groups of one, uneven sizes (k = 1000 is no
    # multiple of the 37 groups), and groups of equal centroids (radius 0).
    rng = np.random.default_rng(5)
    k = 1000
    x, c = make_case("duplicates", WIDE_ROWS, 8, k, rng)
    c[500:700] = c[:200]
    x[:300] = c[rng.integers(0, 200, 300)]
    inner = rng.choice(np.arange(3, k), 34, replace=False)
    cuts = np.unique(np.concatenate([[0, 1, 2, k], inner]))
    groups = _partition(c, rng.permutation(k), cuts)
    assert groups.rep.size == 37 and np.isin(1, np.diff(groups.cuts))
    np.testing.assert_array_equal(nearest(x, c, _groups=groups), nearest_oracle(x, c)[0])
    # 40 distinct centroids, 25 copies each, one group per distinct centroid.
    c = np.repeat(rng.normal(size=(40, 8)), 25, axis=0)[rng.permutation(k)]
    order = np.argsort(np.unique(c, axis=0, return_inverse=True)[1].ravel(), kind="stable")
    groups = _partition(c, order, np.arange(0, k + 1, 25))
    assert groups.radius.max() < 1e-12
    np.testing.assert_array_equal(nearest(x, c, _groups=groups), nearest_oracle(x, c)[0])


def test_centroids_are_grouped_only_where_the_bound_prunes():
    # Clustered centroids and rows prune; isotropic ones at d = 8 keep
    # nearly every group, and so are scored in full, as are calls below
    # _GROUP_MIN_ROWS rows and codebooks of at most NARROW_K centroids.
    rng = np.random.default_rng(2)
    centres = rng.normal(0, 10, (16, 8))
    clustered = centres[rng.integers(0, 16, 2000)] + rng.normal(size=(2000, 8))
    c, x = clustered[:1024], clustered[1024:]
    assert centroid_groups(c, x, rows=_GROUP_MIN_ROWS).rep.size > 1
    assert centroid_groups(c, x, rows=_GROUP_MIN_ROWS - 1) is None
    assert centroid_groups(c[:NARROW_K], x, rows=_GROUP_MIN_ROWS) is None
    iso = rng.normal(size=(2000, 8))
    assert centroid_groups(iso[:1024], iso[1024:], rows=_GROUP_MIN_ROWS) is None
    bad = c.copy()
    bad[5, 0] = np.inf
    assert centroid_groups(bad, x, rows=_GROUP_MIN_ROWS) is None


@settings(max_examples=100, deadline=None)
@given(
    scale=st.sampled_from([1e-150, 1e-42, 1.0, 1e18, 1e150]),
    d=st.sampled_from([1, 3, 8, 32]),
    groups=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_radius_bounds_every_member(scale, d, groups, seed):
    # The bound needs R_g >= ||c - centre_g|| exactly for every member c;
    # extended precision checks the float64 radius. The representative is
    # a member of its group.
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(300, d)) * scale
    c[rng.integers(0, 300, 50)] = c[rng.integers(0, 300, 50)]
    cuts = np.unique(np.concatenate([[0, 300], rng.integers(1, 300, groups - 1)]))
    part = _partition(c, rng.permutation(300), cuts)
    group = np.repeat(np.arange(cuts.size - 1), np.diff(cuts))

    def assert_radii_hold(groups, cents):
        diff = cents[groups.order].astype(np.longdouble) - groups.centre[group]
        exact = np.sqrt((diff * diff).sum(axis=1))
        assert np.all(exact <= groups.radius[group])

    assert_radii_hold(part, c)
    member_group = np.empty(300, np.int64)
    member_group[part.order] = group
    np.testing.assert_array_equal(member_group[part.rep], np.arange(cuts.size - 1))
    # The same centroids after a Lloyd step: the centres stay, the radii grow.
    moved = c + rng.normal(size=c.shape) * scale * rng.choice([0.0, 1e-9, 0.1], size=(300, 1))
    assert_radii_hold(moved_groups(part, c, moved), moved)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize(
    "n,d,k,offset",
    [(500, 1, 16, 0.0), (800, 8, 64, 0.0), (400, 16, 256, 0.0), (300, 128, 32, 0.0),
     (600, 4, 32, 1e6), (12, 2, 12, 0.0), (20_000, 2, 16, 0.0), (5000, 8, 1024, 0.0)],
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


class _Uniform:
    """An rng stand-in whose draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@settings(max_examples=400, deadline=None)
@given(
    blocks=st.integers(0, 3),
    extra=st.integers(-1, 1),
    run=st.sampled_from([1, 3, 300]),
    zeros=st.sampled_from([0.0, 0.5, 0.97]),
    exponent=st.sampled_from([-320, -310, -300, 0, 300]),
    spread=st.sampled_from([0, 2, 300]),
    pos=st.integers(0, 2**20),
    nudge=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_picks_what_the_cumulative_sum_picks(
    blocks, extra, run, zeros, exponent, spread, pos, nudge, seed
):
    # n sits on, or one beside, a whole number of pick blocks. Runs of
    # equal weights and zero weights make runs of equal cdf entries; the
    # scales reach subnormal weights and sums near 1e303. u sits on, or one
    # ulp beside, a normalized cdf entry, where the blocked sums cannot
    # decide the pick and the draw must fall back to the cumulative sum.
    rng = np.random.default_rng(seed)
    n = max(1, blocks * quantizer._PICK_BLOCK + extra)
    runs = -(-n // run)
    power = np.clip(exponent + rng.integers(-spread, spread + 1, runs), -323, 300)
    w = (rng.random(runs) * 10.0 ** power.astype(np.float64)).repeat(run)[:n]
    w[rng.random(n) < zeros] = 0.0
    assume(0.0 < w.sum() < np.inf)
    cdf = np.cumsum(w / w.sum())
    norm = cdf / cdf[-1]
    u = at = norm[pos % n]
    if nudge:
        u = np.nextafter(u, nudge * np.inf)
    u = float(min(max(u, 0.0), np.nextafter(1.0, 0.0)))
    want = int(norm.searchsorted(u, side="right"))
    block_pick, picks = quantizer._block_pick, []

    def spy(*args):
        picks.append(block_pick(*args))
        return picks[-1]

    with mock.patch.object(quantizer, "_block_pick", spy):
        assert quantizer._draw(w, _Uniform(u)) == want
    # The draw falls back when the blocked total is out of range (no
    # _block_pick call) or the blocks cannot decide (a None pick).
    if u == at:
        assert picks in ([], [None])


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


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n,d,k,iters", [(3000, 4, 512, 6), (2100, 2, 300, 8)])
def test_kmeans_seeded_on_wide_codebooks_matches_cdist_lloyd(monkeypatch, seed, n, d, k, iters):
    # Enough Lloyd steps over clustered points that the run groups its
    # codebook once and each later step prunes with radii grown by how far
    # the centroids moved. Some points repeat, so assignments tie.
    rng = np.random.default_rng(seed)
    points = rng.normal(0, 20, (24, d))[rng.integers(0, 24, n)] + rng.normal(size=(n, d))
    points[: n // 10] = points[n // 10 : 2 * (n // 10)]
    assert n * iters >= _GROUP_MIN_ROWS
    moves = []
    monkeypatch.setattr(quantizer, "moved_groups", lambda *a: moves.append(1) or moved_groups(*a))
    cfg = TrainConfig(kmeans_iters=iters, seed=seed)
    got = _kmeans_seeded(points, k, cfg, np.random.SeedSequence(seed))
    want = kmeans_seeded_oracle(points, k, cfg.kmeans_iters, np.random.SeedSequence(seed))
    assert moves
    np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))


def test_kmeans_grouping_follows_centroids_moved_in_place():
    # The empty-cluster repair moves centroids in place between Lloyd
    # steps; the grouping a run keeps must see those moves too.
    rng = np.random.default_rng(9)
    points = rng.normal(0, 20, (24, 2))[rng.integers(0, 24, 3000)] + rng.normal(size=(3000, 2))
    centroids = points[rng.choice(3000, 512, replace=False)].copy()
    with quantizer._Shares(points, 512, 8) as shares:
        for step in range(2):
            if step:
                centroids[::4] = points[rng.choice(3000, 128, replace=False)]
            want = nearest_oracle(points, centroids)[0]
            np.testing.assert_array_equal(shares.nearest(centroids), want)
            assert shares.groups[0] is not None


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
