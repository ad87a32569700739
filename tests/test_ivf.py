import numpy as np
import pytest
from scipy.spatial.distance import cdist

from pqscan import (
    CodeList,
    DerivedPQ,
    LazyTables,
    LookupTables,
    NeighborSet,
    ProductQuantizer,
    TrainConfig,
    build_ivf,
    compute_compact_tables,
    compute_tables,
    decode,
    default_r2,
    encode,
    exact_knn,
    fast_scan,
    generate_synthetic,
    group_codes,
    load_ivf,
    qadc_scan,
    query_ivf,
    recall_at_r,
    save_ivf,
    scan,
    scan_distances,
    search_two_pass,
    train_derived,
)
from pqscan._dist import _GROUP_MIN_ROWS, nearest, nearest_k
from pqscan.ivf import KERNELS as LIBRARY_KERNELS
from pqscan.ivf import check_kernel_shape, query_ivf_stats, scan_lists
from pqscan.quantizer import ENCODE_ROWS

from test_formats import assert_same_fields

CFG = TrainConfig(kmeans_iters=8, seed=4)


@pytest.fixture(scope="module")
def base(blob_data):
    return blob_data


@pytest.fixture(scope="module")
def index(base):
    return build_ivf(base, K=16, m=4, b=4, cfg=CFG)


def merged_oracle(index, query, ma, r):
    """Union of per-list residual scans, sorted by (distance, id)."""
    q64 = np.asarray(query, dtype=np.float64)
    cells, _ = nearest_k(q64[None, :], index.coarse.astype(np.float64), ma)
    pairs = []
    for cell in cells[0]:
        res = q64 - index.coarse[cell].astype(np.float64)
        sub = index.lists[cell]
        if sub.n == 0:
            continue
        pairs.extend(scan(sub, compute_tables(index.pq, res), sub.n).items())
    pairs.sort()
    return pairs[:r]


def test_default_r2_bands():
    assert default_r2(1) == 9000
    assert default_r2(100) == 9000
    assert default_r2(101) == 120000


def test_partition_complete(index, base):
    seen = np.concatenate([lst.ids for lst in index.lists])
    assert seen.shape[0] == base.shape[0]
    np.testing.assert_array_equal(np.sort(seen), np.arange(base.shape[0]))


def test_residual_encoding_of_centroid(index):
    # a vector equal to coarse centroid 3 assigns to cell 3 with residual 0,
    # so its stored code is the zero-vector encoding
    y = index.coarse[3]
    cells, dist = nearest_k(y[None, :].astype(np.float64), index.coarse, 1)
    assert cells[0][0] == 3
    assert dist[0][0] == 0.0
    residual = y.astype(np.float64) - index.coarse[3].astype(np.float64)
    code = encode(index.pq, residual)
    zero_code = encode(index.pq, np.zeros(index.d))
    np.testing.assert_array_equal(code, zero_code)


def test_residual_zero_end_to_end():
    # duplicate rows make every coarse centroid coincide with its members
    rng = np.random.default_rng(12)
    spots = rng.normal(0, 50, (8, 16)).astype(np.float32)
    base = np.repeat(spots, 4, axis=0)
    idx = build_ivf(base, K=8, m=4, b=4, cfg=TrainConfig(kmeans_iters=12, seed=1))
    zero_code = encode(idx.pq, np.zeros(16))
    for lst in idx.lists:
        assert lst.n == 4
        np.testing.assert_array_equal(lst.codes, np.tile(zero_code, (4, 1)))


def test_assignment_is_nearest_coarse(index, base):
    cells, _ = nearest_k(base.astype(np.float64), index.coarse, 1)
    for cell, lst in enumerate(index.lists):
        for ident in lst.ids:
            assert cells[ident][0] == cell


@pytest.mark.parametrize("K,with_ids", [(16, False), (16, True), (20, False)])
def test_lists_equal_per_cell_reference(base, K, with_ids):
    # Reference: cdist argmin over every row against the stored coarse
    # centroids, residuals encoded in one pass, and each cell's rows picked
    # with flatnonzero in base order. build_ivf reuses kmeans' assignment
    # of the coarse sample of 100 K rows (1,600 of 2,000 rows at K=16, all
    # of them at K=20) and sorts once.
    ids = np.arange(base.shape[0])[::-1] * 3 + 7 if with_ids else None
    idx = build_ivf(base, K=K, m=4, b=4, cfg=CFG, ids=ids)
    coarse = idx.coarse.astype(np.float64)
    assign = np.argmin(cdist(base, coarse, "sqeuclidean"), axis=1)
    codes = encode(idx.pq, base - coarse[assign])
    want_ids = np.arange(base.shape[0]) if ids is None else ids
    for cell, lst in enumerate(idx.lists):
        rows = np.flatnonzero(assign == cell)
        np.testing.assert_array_equal(lst.codes, codes[rows])
        np.testing.assert_array_equal(lst.ids, want_ids[rows])
        assert lst.codes.dtype == codes.dtype and lst.ids.dtype == np.int32


@pytest.mark.parametrize("variant", ["plain", "opq", "derived"])
@pytest.mark.parametrize("K", [16, 170])
def test_multi_chunk_build_equals_one_shot_reference(K, variant):
    # Two whole row chunks and a partial third. At K=16 the coarse sample
    # is 1,600 rows, so the other rows are assigned chunk by chunk; at
    # K=170 the sample of 100 K rows is the whole base and none are.
    n = 2 * ENCODE_ROWS + 77
    base = generate_synthetic(n, 8, 12, seed=2)
    cfg = TrainConfig(kmeans_iters=3, opq_iters=2, seed=1)
    options = {"plain": {}, "opq": {"use_opq": True}, "derived": {"bderived": 2}}[variant]
    idx = build_ivf(base, K=K, m=4, b=4, cfg=cfg, **options)
    coarse = idx.coarse.astype(np.float64)
    assign = nearest(base, coarse)
    codes = encode(idx.pq, base.astype(np.float64) - coarse[assign])
    assert (idx.pq.rotation is not None) == (variant == "opq")
    assert isinstance(idx.pq, DerivedPQ) == (variant == "derived")
    for cell, lst in enumerate(idx.lists):
        rows = np.flatnonzero(assign == cell)
        np.testing.assert_array_equal(lst.ids, rows)
        np.testing.assert_array_equal(lst.codes, codes[rows])


def test_query_matches_merged_oracle(index, queries):
    for kernel in ("adc", "quick-adc"):
        for q in queries:
            for ma in (1, 4, 16):
                got = query_ivf(index, q, ma=ma, r=20, kernel=kernel)
                assert got.items() == merged_oracle(index, q, ma, 20)


def test_query_of_stored_vector_finds_it(index, base):
    # distance to a stored member equals its residual quantization error
    for ident in (5, 100, 777):
        q = base[ident]
        nset = query_ivf(index, q, ma=2, r=200)
        hits = [d for d, i in nset.items() if i == ident]
        assert hits
        cells, _ = nearest_k(
            q[None, :].astype(np.float64), index.coarse.astype(np.float64), 1
        )
        res = q.astype(np.float64) - index.coarse[cells[0][0]].astype(np.float64)
        recon = decode(index.pq, encode(index.pq, res)[None, :])[0]
        err = float(((res - recon) ** 2).sum())
        assert hits[0] == pytest.approx(err, rel=1e-3, abs=1e-3)


def test_recall_non_decreasing_in_ma(index, base, queries):
    truth = exact_knn(base, queries, 10)
    recalls = []
    for ma in (1, 2, 4, 8, 16):
        res = []
        for q in queries:
            nset = query_ivf(index, q, ma=ma, r=10)
            ids = [i for _, i in nset.items()]
            ids += [-1] * (10 - len(ids))
            res.append(ids)
        recalls.append(recall_at_r(np.array(res), truth, 10))
    for lo, hi in zip(recalls, recalls[1:]):
        assert hi >= lo - 0.01


def test_scanned_fraction_tracks_ma(index, base, queries):
    # ma of K lists => roughly ma/K of the database visited
    sizes = np.array([lst.n for lst in index.lists])
    ma = 4
    visited = []
    for q in queries:
        cells, _ = nearest_k(q[None, :].astype(np.float64), index.coarse, ma)
        visited.append(sizes[cells[0]].sum())
    frac = float(np.mean(visited)) / base.shape[0]
    assert 0.3 * ma / 16 < frac < 3.0 * ma / 16


def test_quick_adc_kernel_agrees_on_ids(index, queries):
    # exact: the same (distance, id) pairs as ADC, bit for bit, whatever the
    # number of cells or r; the counts cover the visited codes
    for q in queries[:5]:
        for ma, r in ((1, 1), (1, 10), (4, 10), (16, 1), (16, 300)):
            a = query_ivf(index, q, ma=ma, r=r, kernel="adc")
            b, stats = query_ivf_stats(index, q, ma, r, "quick-adc")
            assert b.items() == a.items()
            assert a.to_arrays()[0].tobytes() == b.to_arrays()[0].tobytes()
            _, adc_stats = query_ivf_stats(index, q, ma, r, "adc")
            assert stats.total == adc_stats.total == adc_stats.checked
            assert stats.checked + stats.pruned == stats.total


@pytest.fixture(scope="module")
def index88(base):
    """8x8 index whose last 500 rows repeat the first 500: equal codes in
    one list, so distances tie."""
    return build_ivf(np.concatenate([base, base[:500]]), K=8, m=8, b=8, cfg=CFG)


def test_quick_adc_on_8bit_lists_equals_adc(index88, queries):
    # quick-adc reads 8x8 lists as 16-bit words; ties resolve to the lower
    # id, as in ADC, and the distances match bit for bit
    tied = False
    for q in queries:
        for ma in (1, 3, 8):
            for r in (1, 10, 100):
                a = query_ivf(index88, q, ma=ma, r=r, kernel="adc")
                b = query_ivf(index88, q, ma=ma, r=r, kernel="quick-adc")
                assert b.items() == a.items()
                dists = a.to_arrays()[0]
                assert b.to_arrays()[0].tobytes() == dists.tobytes()
                tied |= bool((np.diff(dists) == 0).any())
    assert tied


# (m, b, whether qadc_scan reads the codes): 4-bit codes at any m, 8-bit
# codes at even m, nothing else
QADC_SHAPES = [(1, 4, True), (3, 4, True), (4, 4, True), (2, 8, True), (6, 8, True),
               (1, 8, False), (3, 8, False), (4, 6, False), (5, 5, False)]


@pytest.mark.parametrize("m, b, reads", QADC_SHAPES)
def test_quick_adc_accepts_exactly_the_shapes_qadc_scan_reads(m, b, reads):
    # small integer centroids and vectors: exact, often tied distances
    rng = np.random.default_rng(16 * m + b)
    books = rng.integers(-3, 4, (m, 1 << b, 2))
    pq = ProductQuantizer(m=m, b=b, d=2 * m, codebooks=books)
    codes = encode(pq, rng.integers(-3, 4, (300, 2 * m)).astype(np.float32))
    lists = [CodeList(codes[:170], np.arange(170), m),
             CodeList(codes[170:], np.arange(170, 300), m)]
    queries = rng.integers(-3, 4, (2, 2 * m)).astype(np.float64)
    if not reads:
        with pytest.raises(ValueError, match="quick-adc kernel requires"):
            check_kernel_shape("quick-adc", m, b, False)
        with pytest.raises(ValueError, match="quick scan requires"):
            qadc_scan(lists, [compute_tables(pq, q) for q in queries], 10)
        return
    assert check_kernel_shape("quick-adc", m, b, False) == "quick-adc"
    for r in (1, 10, 100):
        got, _ = scan_lists(pq, lists, queries, r, "quick-adc", None)
        want, _ = scan_lists(pq, lists, queries, r, "adc", None)
        assert got.items() == want.items()


def test_quick_adc_scans_the_visited_lists_in_one_call(index, queries, monkeypatch):
    import pqscan.ivf as ivf

    calls = []

    def counted(lists, tables, r):
        calls.append([lst.n for lst in lists])
        return qadc_scan(lists, tables, r)

    monkeypatch.setattr(ivf, "qadc_scan", counted)
    query_ivf(index, queries[0], ma=4, r=10, kernel="quick-adc")
    cells, _ = nearest_k(queries[0][None, :].astype(np.float64), index.coarse, 4)
    sizes = [index.lists[c].n for c in cells[0]]
    assert calls == [[n for n in sizes if n]]


@pytest.mark.parametrize("ma", [1, 4, 16])
@pytest.mark.parametrize("kernel, scanner", [("adc", "scan"), ("quick-adc", "qadc_scan")])
def test_ivf_query_builds_tables_once_and_scans_once(
    index, queries, monkeypatch, ma, kernel, scanner
):
    import pqscan.ivf as ivf

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("compute_tables", "scan", "qadc_scan"):
        monkeypatch.setattr(ivf, name, counted(name, getattr(ivf, name)))
    for q in queries[:3]:
        calls.clear()
        query_ivf_stats(index, q, ma, 10, kernel)
        assert calls == ["compute_tables", scanner]


def test_derived_kernel_matches_adc_with_max_r2(base, queries):
    idx = build_ivf(base, K=8, m=4, b=6, cfg=CFG, bderived=3)
    assert isinstance(idx.pq, DerivedPQ)
    for q in queries[:5]:
        a = query_ivf(idx, q, ma=3, r=10, kernel="adc")
        b = query_ivf(idx, q, ma=3, r=10, kernel="derived", r2=base.shape[0])
        assert b.items() == a.items()


def test_kernel_validation(index):
    with pytest.raises(ValueError):
        query_ivf(index, np.zeros(index.d, dtype=np.float32), ma=1, r=1, kernel="nope")
    with pytest.raises(ValueError):
        # derived kernel without derived codebooks
        query_ivf(index, np.zeros(index.d, dtype=np.float32), ma=1, r=1, kernel="derived")


def test_opq_residual_rotation(base, queries):
    idx = build_ivf(base, K=8, m=4, b=4, cfg=TrainConfig(kmeans_iters=6, opq_iters=6, seed=9), use_opq=True)
    assert idx.pq.rotation is not None
    nset = query_ivf(idx, queries[0], ma=3, r=5)
    assert len(nset.items()) == 5


def test_ivf_round_trip(tmp_path, index, queries):
    path = tmp_path / "i.ivf"
    save_ivf(path, index)
    back = load_ivf(path)
    np.testing.assert_array_equal(back.coarse, index.coarse)
    np.testing.assert_array_equal(back.pq.codebooks, index.pq.codebooks)
    assert back.K == index.K
    for a, b in zip(back.lists, index.lists):
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.ids, b.ids)
    got = query_ivf(back, queries[0], ma=4, r=10)
    expect = query_ivf(index, queries[0], ma=4, r=10)
    assert got.items() == expect.items()


def test_ivf_round_trip_with_derived(tmp_path, base, queries):
    idx = build_ivf(base, K=8, m=4, b=6, cfg=CFG, bderived=3)
    path = tmp_path / "i.ivf"
    save_ivf(path, idx)
    back = load_ivf(path)
    assert type(back.pq) is DerivedPQ
    assert_same_fields(back.pq, idx.pq)
    a = query_ivf(back, queries[1], ma=3, r=10, kernel="derived", r2=500)
    b = query_ivf(idx, queries[1], ma=3, r=10, kernel="derived", r2=500)
    assert a.items() == b.items()

# Every per-query entry point; each must reject a non-finite query
# coordinate with the same ValueError before any table or scan work.
QUERY_ENTRY_POINTS = {
    "compute_tables": lambda index, dpq, q: compute_tables(index.pq, q),
    "compute_compact_tables": lambda index, dpq, q: compute_compact_tables(dpq, q),
    "LazyTables": lambda index, dpq, q: LazyTables(dpq, q),
    "query_ivf": lambda index, dpq, q: query_ivf(index, q, ma=2, r=5),
}


@pytest.fixture(scope="module")
def small_dpq(base):
    return train_derived(base[:600], 4, 4, 2, TrainConfig(kmeans_iters=3, seed=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(QUERY_ENTRY_POINTS))
def test_query_entry_points_reject_non_finite(index, small_dpq, base, entry, bad):
    q = base[3].astype(np.float64)
    QUERY_ENTRY_POINTS[entry](index, small_dpq, q)  # a finite query is accepted
    q[5] = bad
    with pytest.raises(ValueError, match="query contains non-finite values"):
        QUERY_ENTRY_POINTS[entry](index, small_dpq, q)


KERNELS = ["adc", "quick-adc", "derived"]


def test_kernels_match_the_library():
    assert tuple(KERNELS) == LIBRARY_KERNELS


# Every registry kernel, plus the flat 8x8 entry point fast_scan.
RUNNERS = [*KERNELS, "fast_scan"]


@pytest.fixture(scope="module")
def run_kernel(pq44, codes44, pq88, codes88, small_dpq, base):
    """run_kernel(kernel, q, n): the kernel's r=5 result over the first n
    codes of its list."""
    dcodes = CodeList(encode(small_dpq, base))

    def run(kernel, q, n):
        if kernel == "fast_scan":
            grouped = group_codes(CodeList(codes88.codes[:n]))
            return fast_scan(grouped, compute_tables(pq88, q), 0.05, 5)[0]
        if kernel == "derived":
            return search_two_pass(small_dpq, CodeList(dcodes.codes[:n]), q, 5, 50)
        codes = CodeList(codes44.codes[:n], m=pq44.m)
        if kernel == "adc":
            return scan(codes, compute_tables(pq44, q), 5)
        return qadc_scan([codes], [compute_tables(pq44, q)], 5)[0]

    return run


@pytest.mark.parametrize("scale", [1e20, 1e200])
@pytest.mark.parametrize("kernel", RUNNERS)
def test_kernels_reject_tables_that_overflow_float32(run_kernel, base, kernel, scale):
    # A finite query this far out has squared distances past float32; every
    # kernel raises the same error before a cast can warn or give inf.
    assert len(run_kernel(kernel, base[3], 100)) == 5
    with pytest.raises(ValueError, match="lookup table entries overflow float32"):
        run_kernel(kernel, np.full(base.shape[1], scale), 100)


TABLE_KERNELS = {
    "scan": lambda codes, tables: scan(codes, tables, 5),
    "scan_distances": lambda codes, tables: scan_distances(tables, codes.codes),
    "qadc_scan": lambda codes, tables: qadc_scan([codes], [tables], 5),
    "fast_scan": lambda codes, tables: fast_scan(group_codes(codes), tables, 0.05, 5),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kernel", sorted(TABLE_KERNELS))
def test_kernels_share_one_non_finite_table_rule(pq88, codes88, base, kernel, bad):
    # Every kernel reads LookupTables, which refuse a non-finite entry, so
    # none of them ranks codes on one or raises its own error.
    entries = compute_tables(pq88, base[3]).tables.copy()
    run = TABLE_KERNELS[kernel]
    run(codes88, LookupTables(entries))
    entries[2, 7] = bad
    with pytest.raises(ValueError, match="^lookup table entries must be finite$"):
        run(codes88, LookupTables(entries))


@pytest.mark.parametrize("K", [0, -1])
def test_build_ivf_rejects_K_below_1_before_training(base, no_coarse_kmeans, K):
    with pytest.raises(ValueError, match=rf"^K must be >= 1, got {K}$"):
        build_ivf(base, K=K, m=4, b=4, cfg=CFG)


@pytest.mark.parametrize("scale", [1e20, 1e200])
def test_lazy_tables_reject_entries_that_overflow_float32(small_dpq, scale):
    lazy = LazyTables(small_dpq, np.full(small_dpq.d, scale))
    with pytest.raises(ValueError, match="lookup table entries overflow float32"):
        lazy.entries(0, np.arange(small_dpq.k))
    assert lazy.computed == 0


@pytest.mark.parametrize("kernel", RUNNERS)
def test_kernels_return_nothing_for_an_empty_code_list(run_kernel, base, kernel):
    assert len(run_kernel(kernel, base[3], 0)) == 0


@pytest.fixture
def no_coarse_kmeans(monkeypatch):
    """Fail the test if build_ivf starts its coarse k-means."""
    from pqscan import ivf

    def trained(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(ivf, "kmeans", trained)


@pytest.mark.parametrize("options, message", [
    ({"use_opq": True, "bderived": 3}, "derived quantizers do not support a rotation"),
    ({"bderived": 4}, "need 1 <= bbar < b <= 16"),
    ({"m": 5}, "d=32 not divisible by m=5"),
    ({"m": 0}, "m must be >= 1, got 0"),
    ({"b": 0}, r"b=0 out of range \[1, 16\]"),
    ({"b": 17}, r"b=17 out of range \[1, 16\]"),
])
def test_build_ivf_rejects_options_before_training(base, no_coarse_kmeans, options, message):
    with pytest.raises(ValueError, match=message):
        build_ivf(base, K=8, cfg=CFG, **{"m": 4, "b": 4, **options})


def test_build_ivf_rejects_non_finite_base_before_training(base, no_coarse_kmeans):
    bad = base.copy()
    bad[-1, -1] = np.inf
    with pytest.raises(ValueError, match="^base vectors contain non-finite values$"):
        build_ivf(bad, K=8, m=4, b=4, cfg=CFG)


@pytest.mark.parametrize("extra", [5, -10])
def test_build_ivf_rejects_ids_of_another_length_before_training(base, no_coarse_kmeans, extra):
    ids = np.arange(base.shape[0] + extra)
    with pytest.raises(ValueError, match=rf"^ids must have shape \({base.shape[0]},\)"):
        build_ivf(base, K=8, m=4, b=4, cfg=CFG, ids=ids)


def test_build_ivf_assigns_and_encodes_in_one_pass(base, monkeypatch):
    # After the coarse k-means, one fork_map pass assigns the rows outside
    # the coarse sample and encodes every residual. The coarse sample keeps
    # kmeans' assignment, so none of its rows reaches nearest except as part
    # of the residual training sample, which is assigned before training.
    from pqscan import _parallel, ivf

    calls, reached = [], []
    real_kmeans, real_fork_map, real_nearest = ivf.kmeans, ivf.fork_map, ivf.nearest

    def kmeans(*args):
        calls.append("kmeans")
        return real_kmeans(*args)

    def fork_map(*args):
        calls.append("fork_map")
        return real_fork_map(*args)

    def nearest(points, centroids):
        reached.extend(bytes(row) for row in np.asarray(points, np.float32))
        return real_nearest(points, centroids)

    monkeypatch.setattr(ivf, "kmeans", kmeans)
    monkeypatch.setattr(ivf, "fork_map", fork_map)
    monkeypatch.setattr(ivf, "nearest", nearest)
    monkeypatch.setattr(ivf, "ENCODE_ROWS", 300)  # several chunks
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)  # every call in this process
    build_ivf(base, K=8, m=4, b=4, cfg=CFG)
    assert calls == ["kmeans", "fork_map"]
    n = base.shape[0]
    rng = np.random.default_rng(CFG.seed)
    coarse_rows = set(ivf._sample_rows(rng, n, 100 * 8).tolist())  # 100 K rows
    train_rows = set(ivf._sample_rows(rng, n, 100 * 16).tolist())  # 100 * 2^b rows
    row_of = {bytes(row): i for i, row in enumerate(base)}
    assert len(row_of) == n
    reached = [row_of[row] for row in reached]
    assert not (set(reached) & coarse_rows) - train_rows
    assert set(range(n)) - coarse_rows <= set(reached)


def test_build_ivf_checks_the_whole_base_first(base, monkeypatch):
    # The first finiteness check covers the whole base, before any k-means.
    from pqscan import ivf

    isfinite, kmeans, events = np.isfinite, ivf.kmeans, []

    def counted(x, *args, **kwargs):
        events.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    def started(*args, **kwargs):
        events.append("kmeans")
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    monkeypatch.setattr(ivf, "kmeans", started)
    build_ivf(base, K=8, m=4, b=4, cfg=CFG)
    assert events[0] == base.size
    assert "kmeans" in events[1:]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the float32 casts overflow
@pytest.mark.parametrize("scale", [1e39, 1e300])
def test_build_ivf_rejects_residuals_that_overflow(base, scale):
    # Finite float64 rows whose coarse centroids overflow float32: their
    # residuals are not finite, so no codes may be built from them.
    with pytest.raises(ValueError, match="^coarse centroids overflow float32$"):
        build_ivf(base.astype(np.float64) * scale, K=8, m=4, b=4, cfg=CFG)


def test_wide_codebook_build_groups_every_chunk(monkeypatch):
    # No chunk of ENCODE_ROWS rows reaches _GROUP_MIN_ROWS, so each chunk's
    # encode would score every one of a b = 10 quantizer's centroids. The
    # build groups each codebook once for all n rows, probed with the
    # training residuals, and every chunk's nearest calls prune with it.
    # The lists still hold the per-sub-space cdist argmin of the residuals.
    from pqscan import _parallel, ivf, quantizer

    n = _GROUP_MIN_ROWS + 1000
    base = generate_synthetic(n, 16, 12, seed=5)
    calls, encoding = [], []
    real_encode, real_nearest = ivf.encode, quantizer.nearest

    def encode(pq, x, **kwargs):
        encoding.append(True)
        try:
            return real_encode(pq, x, **kwargs)
        finally:
            encoding.pop()

    def nearest(points, centroids, **kwargs):
        if encoding:
            calls.append(kwargs.get("_groups") is not None)
        return real_nearest(points, centroids, **kwargs)

    monkeypatch.setattr(ivf, "encode", encode)
    monkeypatch.setattr(quantizer, "nearest", nearest)
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)  # every call in this process
    idx = build_ivf(base, K=4, m=2, b=10, cfg=TrainConfig(kmeans_iters=3, seed=2))
    assert calls == [True] * (2 * -(-n // ENCODE_ROWS))
    coarse = idx.coarse.astype(np.float64)
    assign = np.concatenate(
        [np.argmin(cdist(base[lo : lo + 2048], coarse, "sqeuclidean"), axis=1)
         for lo in range(0, n, 2048)]
    )
    res = base.astype(np.float64) - coarse[assign]
    books = idx.pq.codebooks.astype(np.float64)
    codes = np.stack(
        [np.concatenate(
            [np.argmin(cdist(res[lo : lo + 2048, 8 * j : 8 * j + 8], books[j], "sqeuclidean"), axis=1)
             for lo in range(0, n, 2048)])
         for j in range(2)],
        axis=1,
    )
    for cell, lst in enumerate(idx.lists):
        rows = np.flatnonzero(assign == cell)
        np.testing.assert_array_equal(lst.ids, rows)
        np.testing.assert_array_equal(lst.codes, codes[rows])
