import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqscan import (
    CBINS,
    CodeList,
    DerivedPQ,
    LazyTables,
    LookupTables,
    ProductQuantizer,
    TrainConfig,
    adc_low_bits,
    compute_compact_tables,
    compute_tables,
    decode,
    encode,
    load_quantizer,
    quantize_compact_tables,
    rerank,
    same_size_kmeans,
    save_quantizer,
    scan,
    scan_candidates,
    scan_distances,
    search_two_pass,
    train_derived,
    train_pq,
)
from pqscan.ivf import scan_lists

from conftest import pack

CFG = TrainConfig(kmeans_iters=10, seed=6)


@pytest.fixture(scope="module")
def dpq(blob_data):
    return train_derived(blob_data[:1600], 4, 6, 3, CFG)


@pytest.fixture(scope="module")
def dcodes(blob_data, dpq):
    return CodeList(encode(dpq, blob_data))


class CappedBuckets:
    """Sequential oracle for scan_candidates: a distance-indexed candidate
    store with a running admission bound.

    Buckets 0..254 hold ids by quantized distance; bucket 255 (at-or-above
    qmax) admits ids only while fewer than r2 are retained. Once r2 ids are
    held, the upper bound is the bucket of the r2-th smallest retained
    distance and anything above it is refused; finalize() also drops
    already-stored ids above the final bound.
    """

    def __init__(self, r2):
        if r2 < 1:
            raise ValueError("r2 must be >= 1")
        self.r2 = r2
        self._buckets = [[] for _ in range(CBINS + 1)]
        self._counts = np.zeros(CBINS + 1, dtype=np.int64)
        self._retained = 0

    def __len__(self):
        return self._retained

    @property
    def upper_bound(self):
        """Bucket of the r2-th smallest retained distance; 255 while fewer
        than r2 ids are held."""
        if self._retained < self.r2:
            return CBINS
        return int(np.argmax(np.cumsum(self._counts) >= self.r2))

    def put(self, dist, ident):
        """Offer one candidate; returns True if retained."""
        if not 0 <= dist <= CBINS:
            raise ValueError("quantized distance out of range")
        if dist == CBINS:
            if self._retained >= self.r2:
                return False
        elif dist > self.upper_bound:
            return False
        self._buckets[dist].append(int(ident))
        self._counts[dist] += 1
        self._retained += 1
        return True

    def finalize(self):
        """Drop ids stored above the final bound; returns that bound."""
        bound = self.upper_bound
        for v in range(bound + 1, CBINS + 1):
            self._retained -= len(self._buckets[v])
            self._counts[v] = 0
            self._buckets[v] = []
        return bound

    def bucket(self, dist):
        return self._buckets[dist]


def sequential_buckets(r2, dists, ids):
    """Reference: one put() per code in storage order, then finalize()."""
    cb = CappedBuckets(r2)
    for d, i in zip(dists, ids):
        cb.put(int(d), int(i))
    cb.finalize()
    return cb


def eager_rerank_oracle(db, cand, pq, query, r, r2):
    """Rerank reference with fully materialized float tables: whole buckets
    ascending until r2 candidates processed, then top r by (distance, id)."""
    tables = compute_tables(pq, query)
    pos = {int(i): p for p, i in enumerate(db.ids)}
    pairs = []
    processed = 0
    for b in range(256):
        if processed >= r2:
            break
        members = cand.bucket(b)
        for ident in members:
            code = db.codes[pos[ident]]
            acc = 0.0
            for j in range(pq.m):
                acc += float(np.float64(tables.tables[j][code[j]]))
            pairs.append((acc, ident))
        processed += len(members)
    pairs.sort()
    return pairs[:r]


def reference_bins(tables, comps, r2):
    """The derived first pass's (m, kbar) table bins by the rule of the
    generic table quantizer it once called: qmin is the smallest entry; qmax
    the largest distance of the first r2 codes' low bits (summed in order),
    qmin when there are none, never below qmin; then every entry maps to
    CBINS at or above qmax, else to its floor-scaled bin clipped to
    [0, CBINS - 1], and all to 0 when qmax == qmin."""
    m, kbar = tables.shape
    prefix = []
    for code in comps[:r2]:
        acc = 0.0
        for j in range(m):
            acc += float(tables[j, int(code[j]) & (kbar - 1)])
        prefix.append(acc)
    qmin = float(tables.min())
    qmax = max(max(prefix), qmin) if prefix else qmin
    v = tables.astype(np.float64)
    span = qmax - qmin
    if span > 0.0:
        out = np.clip(np.floor((v - qmin) * (CBINS / span)), 0, CBINS - 1)
        return np.where(v >= qmax, CBINS, out).astype(np.uint8)
    return np.zeros(v.shape, dtype=np.uint8)


def reference_low_bits(bins, comps):
    """Each code's bin sum over its low bits, capped at CBINS."""
    kbar = bins.shape[1]
    return [
        min(sum(int(bins[j, int(c) & (kbar - 1)]) for j, c in enumerate(code)), CBINS)
        for code in comps
    ]


# -- derived codebook construction -------------------------------------------


def test_p1_structure_low_bits(dpq):
    # P1: full centroid i belongs to derived cluster (i mod 2^bbar), so each
    # derived centroid is the mean of the full centroids sharing its low bits
    kbar = dpq.kbar
    for j in range(dpq.m):
        full = dpq.codebooks[j].astype(np.float64)
        der = dpq.derived[j].astype(np.float64)
        for low in range(kbar):
            members = full[np.arange(low, full.shape[0], kbar)]
            np.testing.assert_allclose(
                der[low], members.mean(axis=0), rtol=1e-4, atol=1e-4
            )


def test_p1_exhaustive_k64_kbar8():
    rng = np.random.default_rng(0)
    pts = rng.normal(0, 10, (2000, 4))
    dpq = train_derived(pts, 1, 6, 3, CFG)
    full, derived = dpq.codebooks[0], dpq.derived[0]
    for low in range(8):
        members = full[np.arange(low, 64, 8)].astype(np.float64)
        np.testing.assert_allclose(
            derived[low].astype(np.float64), members.mean(axis=0), rtol=1e-4, atol=1e-4
        )


def test_cluster_one_indexes_example():
    # k=16 into kbar=4 same-size groups: the 4 members of one cluster land
    # at indexes sharing low 2 bits, e.g. cluster 1 -> 1, 5, 9, 13
    rng = np.random.default_rng(1)
    centers = rng.normal(0, 100, (4, 3))
    locs = np.repeat(centers, 4, axis=0) + rng.normal(0, 0.1, (16, 3))
    pts = np.tile(locs, (16, 1))  # 16 copies force temp codebook == locs
    full = train_derived(pts, 1, 4, 2, CFG).codebooks[0]
    assert full.shape == (16, 3)
    for low in range(4):
        idx = np.arange(low, 16, 4)
        assert idx.tolist() == [low, low + 4, low + 8, low + 12]
        block = full[idx].astype(np.float64)
        spread = ((block - block.mean(0)) ** 2).sum()
        assert spread < 1.0  # the block is a single tight blob


def sorted_rows(book):
    return book[np.lexsort(book.T[::-1])]


@pytest.mark.parametrize("m, b, bbar", [
    (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 4, 3), (2, 5, 2), (2, 7, 4), (1, 9, 5),
])
def test_derived_codebooks_are_train_pq_codebooks_grouped_by_low_bits(m, b, bbar):
    # train_derived reorders train_pq's codebooks: the same rows, with
    # same-size group l's i-th member at index (i << bbar) | l and derived[l]
    # the mean of that group. The shapes with b <= 4 are the nibble-packed ones.
    pts = np.random.default_rng(b).normal(0, 4, (600, 2 * m))
    cfg = TrainConfig(kmeans_iters=4, seed=m + b)
    dpq = train_derived(pts, m, b, bbar, cfg)
    pq = train_pq(pts, m, b, cfg)
    for full, book, derived in zip(dpq.codebooks, pq.codebooks, dpq.derived, strict=True):
        np.testing.assert_array_equal(sorted_rows(full), sorted_rows(book))
        _, groups = same_size_kmeans(book.astype(np.float64), 1 << bbar, cfg)
        for low, members in enumerate(groups):
            held = full[low :: 1 << bbar]
            np.testing.assert_array_equal(held, book[members])
            np.testing.assert_allclose(derived[low], held.astype(np.float64).mean(axis=0),
                                       rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("bbar", [0, 4, 5])
def test_derived_bits_outside_one_to_b_are_refused(bbar):
    # bbar = b would make the derived codebook the full one, reordered: no
    # trainer builds it, and neither DerivedPQ nor train_derived takes it.
    b = 4
    with pytest.raises(ValueError, match="need 1 <= bbar < b <= 16"):
        DerivedPQ(m=1, b=b, d=1, codebooks=np.zeros((1, 1 << b, 1)), bbar=bbar,
                  derived=np.zeros((1, 1 << bbar, 1)))
    with pytest.raises(ValueError, match="need 1 <= bbar < b <= 16"):
        train_derived(np.zeros((20, 2)), 1, b, bbar, CFG)


def test_train_derived_shapes(dpq):
    assert dpq.codebooks.shape == (4, 64, 8)
    assert dpq.derived.shape == (4, 8, 8)
    assert dpq.kbar == 8


# -- compact tables ----------------------------------------------------------


def test_compact_tables_footprint(blob_data):
    d = train_derived(blob_data[:1600], 4, 9, 8, TrainConfig(kmeans_iters=3, seed=0))
    t = compute_compact_tables(d, blob_data[0])
    assert t.nbytes == 4 * 256 * 4 == 4096


def test_compact_tables_zero_at_derived_centroid(dpq):
    y = np.concatenate([dpq.derived[j][2] for j in range(dpq.m)])
    t = compute_compact_tables(dpq, y)
    for j in range(dpq.m):
        assert t.tables[j][2] == 0.0


def test_compact_tables_match_recomputation(dpq, blob_data):
    q = blob_data[11]
    t = compute_compact_tables(dpq, q)
    dsub = dpq.dsub
    for j in range(dpq.m):
        sub = q[j * dsub : (j + 1) * dsub].astype(np.float64)
        expect = ((dpq.derived[j].astype(np.float64) - sub) ** 2).sum(axis=1)
        np.testing.assert_allclose(t.tables[j], expect, rtol=1e-5)


def test_compact_bins_endpoints():
    # m=1, one code of entry 9: qmin 1, qmax 9
    tables = LookupTables(np.array([[1.0, 9.0, 100.0, 5.0]], dtype=np.float32))
    bins = quantize_compact_tables(tables, CodeList(np.array([[1]], np.uint8)), 1)
    assert bins.tolist() == [[0, CBINS, CBINS, 127]]
    ramp = np.append(np.linspace(0, 0.999, 63), 1.0).astype(np.float32)[None, :]
    bins = quantize_compact_tables(LookupTables(ramp), CodeList(np.array([[63]], np.uint8)), 1)
    assert (np.diff(bins[0].astype(np.int64)) >= 0).all()
    assert bins[0, :63].max() < CBINS == bins[0, 63]


def test_compact_bins_zero_at_qmin(dpq, dcodes, queries):
    for q in queries[:3]:
        compact = compute_compact_tables(dpq, q)
        bins = quantize_compact_tables(compact, dcodes, r2=100)
        assert not bins[compact.tables == compact.tables.min()].any()


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_compact_bins_monotone_in_entries(seed, m, r2):
    rng = np.random.default_rng(seed)
    tables = LookupTables((rng.random((m, 8)) * 10).astype(np.float32))
    db = CodeList(rng.integers(0, 8, (30, m)).astype(np.uint8))
    bins = quantize_compact_tables(tables, db, r2)
    order = np.argsort(tables.tables, axis=None, kind="stable")
    assert (np.diff(bins.ravel()[order].astype(np.int64)) >= 0).all()


def test_compact_bins_qmax_is_the_first_code_at_r2_1(dpq, dcodes, queries):
    compact = compute_compact_tables(dpq, queries[3])
    bins = quantize_compact_tables(compact, dcodes, r2=1)
    low = (dcodes.codes[:1] & (dpq.kbar - 1)).astype(np.uint16)
    first = float(scan_distances(compact, low)[0])
    np.testing.assert_array_equal(bins == CBINS, compact.tables >= first)


def test_compact_bins_read_only_the_first_r2_codes(dpq, dcodes, queries):
    compact = compute_compact_tables(dpq, queries[4])
    bins = quantize_compact_tables(compact, dcodes, r2=50)
    rest = np.random.default_rng(5).integers(0, 1 << dpq.b, dcodes.codes[50:].shape)
    changed = CodeList(np.concatenate([dcodes.codes[:50], rest.astype(dcodes.codes.dtype)]))
    np.testing.assert_array_equal(quantize_compact_tables(compact, changed, r2=50), bins)
    # past the end of the list, r2 reads the whole list
    np.testing.assert_array_equal(
        quantize_compact_tables(compact, dcodes, r2=dcodes.n + 50),
        quantize_compact_tables(compact, dcodes, r2=dcodes.n),
    )


def test_compact_bins_of_an_empty_list_are_zero(dpq, queries):
    compact = compute_compact_tables(dpq, queries[0])
    empty = CodeList(np.zeros((0, dpq.m), dtype=np.uint8))
    bins = quantize_compact_tables(compact, empty, r2=10)
    assert bins.shape == compact.tables.shape and bins.dtype == np.uint8
    assert not bins.any()
    with pytest.raises(ValueError, match="r2 must be >= 1"):
        quantize_compact_tables(compact, empty, r2=0)


def test_quantized_compact_qmax_rule(dpq, dcodes, queries):
    compact = compute_compact_tables(dpq, queries[0])
    bins = quantize_compact_tables(compact, dcodes, r2=150)
    low = (dcodes.codes[:150] & (dpq.kbar - 1)).astype(np.uint16)
    qmax = float(scan_distances(compact, low).max())
    np.testing.assert_array_equal(bins == CBINS, compact.tables >= qmax)
    np.testing.assert_array_equal(bins, reference_bins(compact.tables, dcodes.codes, 150))


def test_quantized_distance_below_255_except_maximal(dpq, dcodes, queries):
    # qmax drawn from the full list: no code below the largest distance
    # reaches the top bin
    compact = compute_compact_tables(dpq, queries[1])
    bins = quantize_compact_tables(compact, dcodes, r2=dcodes.n)
    low = (dcodes.codes & (dpq.kbar - 1)).astype(np.uint16)
    dists = scan_distances(compact, low)
    first = adc_low_bits(bins, dcodes.codes)
    assert (first[dists < dists.max()] < CBINS).all()


def test_adc_low_bits_saturation_order_consistent(dpq, dcodes, queries):
    compact = compute_compact_tables(dpq, queries[2])
    bins = quantize_compact_tables(compact, dcodes, r2=100)
    first = adc_low_bits(bins, dcodes.codes)
    assert first.max() <= 255
    low = (dcodes.codes & (dpq.kbar - 1)).astype(np.int64)
    raw = np.zeros(dcodes.n, dtype=np.int64)
    for j in range(dpq.m):
        raw += bins[j].astype(np.int64)[low[:, j]]
    below = raw < 255
    np.testing.assert_array_equal(first[below], raw[below])


# -- capped buckets ----------------------------------------------------------


def test_buckets_nothing_discarded_when_small():
    rng = np.random.default_rng(3)
    dists = rng.integers(0, 256, 80)
    cb = sequential_buckets(100, dists, np.arange(80))
    assert sum(len(cb.bucket(b)) for b in range(256)) == 80


def test_buckets_zero_distance_lands_in_zero():
    cb = CappedBuckets(4)
    cb.put(0, 42)
    assert cb.bucket(0) == [42]


def test_buckets_superset_of_top_r2():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 800))
        r2 = int(rng.integers(1, 200))
        dists = rng.integers(0, 256, n)
        ids = rng.permutation(n)
        cb = sequential_buckets(r2, dists, ids)
        kept = {i for b in range(256) for i in cb.bucket(b)}
        order = np.lexsort((ids, dists))
        for pos in order[: min(r2, n)]:
            if dists[pos] < 255:  # 255 bin is capacity-capped, ties allowed
                assert ids[pos] in kept
        assert len(kept) >= min(r2, n)


def assert_same_buckets(got, ref):
    assert len(got) == len(ref)
    for b in range(CBINS + 1):
        assert got.bucket(b) == ref.bucket(b), b


def test_scan_candidates_equals_sequential(dpq, dcodes, queries):
    for q in queries[:6]:
        compact = compute_compact_tables(dpq, q)
        for r2 in (7, 64, 300, dcodes.n):
            bins = quantize_compact_tables(compact, dcodes, r2)
            got = scan_candidates(dcodes, bins, r2)
            first = adc_low_bits(bins, dcodes.codes)
            assert_same_buckets(got, sequential_buckets(r2, first, dcodes.ids))


# m=1 with table arange(256): every code's bin is its own value
IDENTITY_BINS = np.arange(CBINS + 1, dtype=np.uint8)[None, :]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_scan_candidates_equals_sequential_on_any_bin_stream(data):
    # many 255s and r2 past the number of small bins reach the branch that
    # admits 255s only while fewer than r2 are held
    bins = data.draw(st.lists(st.one_of(
        st.integers(0, CBINS - 1), st.just(CBINS), st.sampled_from([0, 1, 254])
    ), min_size=1, max_size=150))
    n = len(bins)
    r2 = data.draw(st.integers(1, n + 5))
    ids = np.array(data.draw(st.permutations(range(n)))) + 2**31 + 5
    db = CodeList(np.array(bins, dtype=np.uint8)[:, None], ids)
    got = scan_candidates(db, IDENTITY_BINS, r2)
    assert_same_buckets(got, sequential_buckets(r2, bins, ids))


def emulated_candidates(d, ids, r2):
    """(bins, positions, ids) of the capped store emulated in bulk, as
    scan_candidates once computed it: with fewer than r2 codes below the top
    bin, a top-bin code is admitted while the small codes before it plus the
    top-bin codes admitted before it number fewer than r2."""
    d = np.asarray(d, dtype=np.uint8)
    smalls = d < CBINS
    if np.count_nonzero(smalls) >= r2:
        hist = np.bincount(d[smalls], minlength=CBINS)
        sel = d <= int(np.argmax(np.cumsum(hist) >= r2))
    else:
        sel = smalls.copy()
        pos255 = np.flatnonzero(~smalls)
        if pos255.size:
            smalls_before = np.cumsum(smalls)[pos255]
            viol = np.flatnonzero(
                smalls_before + np.arange(pos255.size, dtype=np.int64) >= r2
            )
            take = int(viol[0]) if viol.size else pos255.size
            sel[pos255[:take]] = True
    pick = np.flatnonzero(sel)
    positions = pick[np.argsort(d[pick], kind="stable")]
    return d[positions], positions, np.asarray(ids)[positions]


@given(
    bins=st.lists(st.one_of(st.integers(0, CBINS - 1), st.just(CBINS)), max_size=150),
    r2=st.integers(1, 160),
)
@example(bins=[], r2=3)  # an empty list
@example(bins=[7, CBINS, 0, CBINS], r2=50)  # r2 > n
@example(bins=[CBINS] * 12, r2=5)  # every code in the top bin
@example(bins=[CBINS, 2, CBINS, CBINS, 1, CBINS, CBINS], r2=4)  # top bin past r2
@settings(max_examples=300, deadline=None)
def test_scan_candidates_match_the_emulated_store(bins, r2):
    ids = np.arange(len(bins))[::-1] + 2**31 + 5
    db = CodeList(np.array(bins, dtype=np.uint8).reshape(-1, 1), ids)
    got = scan_candidates(db, IDENTITY_BINS, r2)
    want = emulated_candidates(bins, ids, r2)
    for got_column, want_column in zip((got.bins, got.positions, got.ids), want):
        assert got_column.tolist() == want_column.tolist()


def test_adc_low_bits_saturates_past_uint16_sums():
    # m * 255 = 65790 overflows a 16-bit accumulator
    m = 258
    tables = np.zeros((m, 2), dtype=np.uint8)
    tables[:, 0] = 255
    tables[5, 1] = 200
    codes = np.array([[0] * m, [1] * m], dtype=np.uint8)
    assert adc_low_bits(tables, codes).tolist() == [255, 200]


@given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_capped_buckets_property(seed, n, r2):
    rng = np.random.default_rng(seed)
    bins = rng.integers(0, 256, n)
    ids = rng.permutation(n)
    cb = sequential_buckets(r2, bins, ids)
    kept = [i for b in range(256) for i in cb.bucket(b)]
    assert len(kept) >= min(r2, n)
    bound = cb.upper_bound
    for b in range(bound + 1, 256):
        assert cb.bucket(b) == []


# -- rerank ------------------------------------------------------------------


def test_lazy_tables_match_eager(dpq, queries):
    lazy = LazyTables(dpq, queries[0])
    eager = compute_tables(dpq, queries[0])
    for j in range(dpq.m):
        idx = np.arange(0, dpq.k, 7)
        np.testing.assert_array_equal(lazy.entries(j, idx), eager.tables[j][idx])
        idx = np.arange(dpq.k)[::-1]  # the rest, plus cached entries
        np.testing.assert_array_equal(lazy.entries(j, idx), eager.tables[j][idx])


def test_lazy_tables_compute_each_entry_once(dpq, queries):
    lazy = LazyTables(dpq, queries[1])
    wanted = [(0, [3, 3]), (1, [5]), (0, [3, 4]), (2, [5]), (1, [5, 5])]
    for j, idx in wanted:
        lazy.entries(j, np.array(idx))
    assert lazy.computed == len({(j, i) for j, idx in wanted for i in idx})


@pytest.mark.parametrize("ids", ["identity", "permuted-offset"])
def test_rerank_matches_eager_oracle(dpq, dcodes, queries, ids):
    db = dcodes
    if ids == "permuted-offset":
        perm = np.random.default_rng(9).permutation(dcodes.n)
        db = CodeList(dcodes.codes[perm], perm.astype(np.int64) + 2**31 + 5)
    for q in queries[:4]:
        compact = compute_compact_tables(dpq, q)
        cand = scan_candidates(db, quantize_compact_tables(compact, db, 200), 200)
        lazy = LazyTables(dpq, q)
        got = rerank(db, cand, dpq, q, 10, lazy=lazy)
        assert got.items() == eager_rerank_oracle(db, cand, dpq, q, 10, 200)
        uniq = {(j, int(c)) for code in db.codes for j, c in enumerate(code)}
        assert lazy.computed <= len(uniq)


def test_two_pass_equals_full_scan_at_max_r2(dpq, dcodes, queries):
    # r2 = n disables candidate filtering: both passes see everything
    for q in queries:
        tables = compute_tables(dpq, q)
        base = scan(dcodes, tables, 10)
        got = search_two_pass(dpq, dcodes, q, 10, dcodes.n)
        assert got.items() == base.items()


def test_derived_passes_refuse_a_list_of_another_m(dpq, dcodes, queries):
    # Two columns of a 4-sub-space list used to pass for nibble-packed codes
    # and return neighbours; scan refuses such a list, and so does each pass.
    q = queries[0]
    short = CodeList(dcodes.codes[:, :2])
    compact = compute_compact_tables(dpq, q)
    bins = quantize_compact_tables(compact, dcodes, 50)
    cand = scan_candidates(dcodes, bins, 50)
    message = "need one set of lookup tables of the list's m per code list"
    with pytest.raises(ValueError, match=message):
        scan(short, compute_tables(dpq, q), 5)
    for call in (lambda: search_two_pass(dpq, short, q, 5, 50),
                 lambda: quantize_compact_tables(compact, short, 50),
                 lambda: scan_candidates(short, bins, 50),
                 lambda: rerank(short, cand, dpq, q, 5)):
        with pytest.raises(ValueError, match=message):
            call()


def test_a_packed_list_without_its_m_is_refused_with_the_cause(blob_data, queries):
    # Four 4-bit components pack into two bytes, and a CodeList built
    # without m= takes the width, 2, for m.
    dpq44 = train_derived(blob_data[:1600], 4, 4, 2, CFG)
    packed = encode(dpq44, blob_data[:200])
    q = queries[0]
    message = r"a nibble-packed list needs CodeList\(codes, m=\.\.\.\)"
    with pytest.raises(ValueError, match=message):
        scan(CodeList(packed), compute_tables(dpq44, q), 5)
    with pytest.raises(ValueError, match=message):
        search_two_pass(dpq44, CodeList(packed), q, 5, 50)
    codes = CodeList(packed, m=4)
    want = scan(codes, compute_tables(dpq44, q), 5)
    assert search_two_pass(dpq44, codes, q, 5, 200).items() == want.items()


def test_two_pass_reduces_to_full_sort_when_r_is_n(dpq, dcodes, queries):
    q = queries[0]
    tables = compute_tables(dpq, q)
    base = scan(dcodes, tables, dcodes.n)
    got = search_two_pass(dpq, dcodes, q, dcodes.n, dcodes.n)
    assert got.items() == base.items()


def test_two_pass_recall_not_below_first_pass(dpq, dcodes, blob_data, queries):
    from pqscan import exact_knn, recall_at_r

    truth = exact_knn(blob_data, queries, 10)
    two, one = [], []
    r2 = 200
    for q in queries:
        nset = search_two_pass(dpq, dcodes, q, 10, r2)
        two.append([i for _, i in nset.items()])
        compact = compute_compact_tables(dpq, q)
        bins = quantize_compact_tables(compact, dcodes, r2)
        first = adc_low_bits(bins, dcodes.codes).astype(np.float64)
        order = np.lexsort((dcodes.ids, first))[:10]
        one.append(dcodes.ids[order].tolist())
    r_two = recall_at_r(np.array(two), truth, 10)
    r_one = recall_at_r(np.array(one), truth, 10)
    assert r_two >= r_one - 0.01


def test_recall_non_decreasing_in_r2(dpq, dcodes, blob_data, queries):
    from pqscan import exact_knn, recall_at_r

    truth = exact_knn(blob_data, queries, 10)
    recalls = []
    for r2 in (20, 100, 400, 1200):
        res = []
        for q in queries:
            nset = search_two_pass(dpq, dcodes, q, 10, r2)
            res.append([i for _, i in nset.items()])
        recalls.append(recall_at_r(np.array(res), truth, 10))
    for lo, hi in zip(recalls, recalls[1:]):
        assert hi >= lo - 0.01  # statistical noise band


# Small integer coordinates give exact, often tied table entries; at m=1
# the prefix distance is itself an entry, so entries sit exactly at qmax.
@given(
    m=st.integers(1, 4),
    bits=st.sampled_from([(4, 2), (6, 3), (5, 1)]),
    n=st.integers(0, 60),
    r2=st.integers(1, 80),
    r=st.integers(1, 10),
    flat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, bits=(6, 3), n=30, r2=5, r=3, flat=True, seed=1)  # span 0
@example(m=2, bits=(6, 3), n=0, r2=5, r=3, flat=False, seed=2)  # an empty list
@example(m=3, bits=(6, 3), n=12, r2=50, r=5, flat=False, seed=3)  # r2 > n
@example(m=1, bits=(6, 3), n=40, r2=10, r=5, flat=False, seed=4)  # entries at qmax
@example(m=3, bits=(4, 2), n=50, r2=20, r=5, flat=False, seed=5)  # nibble-packed
@settings(max_examples=150, deadline=None)
def test_first_pass_matches_the_generic_quantizer_rule(m, bits, n, r2, r, flat, seed):
    b, bbar = bits
    rng = np.random.default_rng(seed)
    derived = rng.integers(-2, 3, (m, 1 << bbar, 2))
    if flat:
        derived[:] = derived[:, :1]
    books = rng.integers(-3, 4, (m, 1 << b, 2))
    dpq = DerivedPQ(m=m, b=b, d=2 * m, codebooks=books, bbar=bbar, derived=derived)
    comps = rng.integers(0, 1 << b, (n, m)).astype(np.uint8)
    ids = rng.permutation(n) + 2**31 + 5
    db = CodeList(pack(comps) if b <= 4 else comps, ids, m)
    q = rng.integers(-3, 4, 2 * m).astype(np.float64)

    compact = compute_compact_tables(dpq, q)
    bins = quantize_compact_tables(compact, db, r2)
    assert bins.dtype == np.uint8
    np.testing.assert_array_equal(bins, reference_bins(compact.tables, comps, r2))

    cand = scan_candidates(db, bins, r2)
    ref = sequential_buckets(r2, reference_low_bits(bins, comps), ids)
    assert_same_buckets(cand, ref)

    tables = compute_tables(dpq, q)
    pos = {int(i): p for p, i in enumerate(ids)}
    pairs = []
    for ident in (i for v in range(CBINS + 1) for i in ref.bucket(v)):
        acc = 0.0
        for j, c in enumerate(comps[pos[ident]]):
            acc += float(tables.tables[j, int(c)])
        pairs.append((acc, ident))
    assert search_two_pass(dpq, db, q, r, r2).items() == sorted(pairs)[:r]


def test_a_derived_quantizer_works_wherever_a_product_quantizer_does(blob_data, queries):
    """A DerivedPQ is a ProductQuantizer: whatever takes one gives, for a
    derived quantizer, what it gives for the ProductQuantizer of its fields."""
    dpq = train_derived(blob_data[:800], 4, 4, 2, CFG)
    assert isinstance(dpq, ProductQuantizer)
    pq = ProductQuantizer(m=dpq.m, b=dpq.b, d=dpq.d, codebooks=dpq.codebooks,
                          rotation=dpq.rotation)
    codes = encode(dpq, blob_data[:500])
    np.testing.assert_array_equal(codes, encode(pq, blob_data[:500]))
    np.testing.assert_array_equal(decode(dpq, codes), decode(pq, codes))
    for got, want in zip(compute_tables(dpq, queries[:3]), compute_tables(pq, queries[:3]),
                         strict=True):
        np.testing.assert_array_equal(got.tables, want.tables)
    lists = [CodeList(codes[:200], m=4), CodeList(codes[200:], np.arange(200, 500), m=4)]
    for kernel in ("adc", "quick-adc"):
        found, stats = scan_lists(dpq, lists, queries[:2], 10, kernel, None)
        want_found, want_stats = scan_lists(pq, lists, queries[:2], 10, kernel, None)
        assert (found.items(), stats) == (want_found.items(), want_stats)


# -- persistence -------------------------------------------------------------


def test_derived_round_trip(tmp_path, dpq):
    path = tmp_path / "d.pqz"
    save_quantizer(path, dpq)
    back = load_quantizer(path)
    assert back.bbar == dpq.bbar
    np.testing.assert_array_equal(back.pq.codebooks, dpq.codebooks)
    np.testing.assert_array_equal(back.derived, dpq.derived)


def test_load_quantizer_discriminates(tmp_path, dpq, pq44):
    p1 = tmp_path / "plain.pqz"
    p2 = tmp_path / "derived.pqz"
    save_quantizer(p1, pq44)
    save_quantizer(p2, dpq)
    assert type(load_quantizer(p1)) is ProductQuantizer
    assert isinstance(load_quantizer(p2), DerivedPQ)
