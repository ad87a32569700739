"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line on the live terminal (bypassing
capture) with its headline number and elapsed time. Corpus-dependent recall
reproductions are skipped when the public SIFT1M corpus is absent; set
PQSCAN_SIFT1M_DIR or place it under ./data/sift1m.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import pqscan
from pqscan import (
    CodeList,
    GroundTruth,
    LookupTables,
    TrainConfig,
    build_ivf,
    compute_tables,
    encode,
    exact_knn,
    fast_scan,
    group_codes,
    generate_synthetic,
    optimize_centroid_assignment,
    qadc_scan,
    quantized_distances,
    recall_at_r,
    scan,
    scan_distances,
    search_two_pass,
    train_derived,
    train_pq,
)
from pqscan.quickadc import _bound_tables

from conftest import floor_sum_bounds, pack, unpack


def _sift_dir():
    root = os.environ.get("PQSCAN_SIFT1M_DIR", "data/sift1m")
    path = Path(root)
    if (path / "sift_base.fvecs").exists():
        return path
    return None


SIFT = _sift_dir()
needs_corpus = pytest.mark.skipif(SIFT is None, reason="SIFT1M corpus not present")


class Report:
    def __init__(self, capsys, name):
        self.capsys = capsys
        self.name = name
        self.t0 = time.perf_counter()

    def done(self, ok, detail=""):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if ok else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        with self.capsys.disabled():
            print(f"\n{self.name}: {verdict}{suffix} ({elapsed:.1f}s)")
        assert ok, f"{self.name}{suffix}"


def in_distribution_split(n, d, clusters, seed, n_queries):
    rows = generate_synthetic(n + n_queries, d, clusters, seed)
    return rows[:n], rows[n:]


def train_grouped(base, seed, train_rows, iters):
    cfg = TrainConfig(kmeans_iters=iters, seed=seed)
    pq = optimize_centroid_assignment(train_pq(base[:train_rows], 8, 8, cfg), cfg)
    codelist = CodeList(encode(pq, base))
    return pq, codelist, group_codes(codelist)


def test_criterion_1_fast_scan_exactness(capsys):
    rep = Report(capsys, "criterion 1 (fast-scan exactness, 3x100K, r in {1,10,100})")
    mismatches = 0
    for seed in (7, 11, 23):
        base, queries = in_distribution_split(100_000, 128, 16, seed, 100)
        pq, codelist, grouped = train_grouped(base, seed, 10_000, 4)
        for q in queries:
            tables = compute_tables(pq, q)
            for r in (1, 10, 100):
                want = scan(codelist, tables, r).items()
                got, _ = fast_scan(grouped, tables, 0.005, r)
                if got.items() != want:
                    mismatches += 1
    rep.done(mismatches == 0, f"{mismatches} mismatching result sets of 900")


def test_criterion_2_lower_bound_soundness(capsys):
    # Fast scan's bound pass: 8x8 codes read as four uint16 words from
    # 65,536-entry pair tables. The r-th distance of a 1% prefix sets the
    # scale, for r = 100 and r = 1 in turn; at r = 1 far entries clamp.
    rep = Report(capsys, "criterion 2 (8-bit bound == floor-sum oracle <= s(D - M), >= 1e6 pairs)")
    base, queries = in_distribution_split(50_000, 128, 16, 3, 20)
    pq = train_pq(base[:8_000], 8, 8, TrainConfig(kmeans_iters=4, seed=1))
    codes = encode(pq, base)
    cells = np.zeros(codes.shape[0], dtype=np.intp)
    bad = unsound = clamped = pairs = 0
    for i, query in enumerate(queries):
        tables = compute_tables(pq, query)
        t64 = tables.tables.astype(np.float64)[None]
        prefix = scan_distances(tables, codes[:500])
        kth = 99 if i % 2 else 0
        q, _, s = _bound_tables(t64, float(np.partition(prefix, kth)[kth]))
        got = quantized_distances(codes, q, cells).astype(np.int64)
        want, gap = floor_sum_bounds(t64, codes, cells, s)
        bad += int(np.count_nonzero(got != want))
        unsound += int(np.count_nonzero(got > s * gap * (1 + 1e-12)))
        clamped += int(np.count_nonzero(q == 32767 // 8))
        pairs += codes.shape[0]
    rep.done(bad == 0 and unsound == 0 and clamped > 0 and pairs >= 1_000_000,
             f"{pairs} pairs, {bad} differ from the oracle, {unsound} above s(D - M); "
             f"{clamped / (len(queries) * q.size):.0%} of entries clamped")


def test_criterion_3_pruning_power(capsys):
    # In distribution the bound leaves about r codes beyond the prefix and
    # the seeds. Queries drawn around another seed's cluster centres are
    # gated too: the bound does not depend on where the prefix's largest
    # distance falls among the table entries.
    rep = Report(capsys, "criterion 3 (pruning power, prefix r, r=100)")
    base, queries = in_distribution_split(100_000, 128, 16, 7, 20)
    outside = generate_synthetic(20, 128, 16, 8)
    pq, codelist, grouped = train_grouped(base, 1, 40_000, 25)
    pruned, mismatches = {}, 0
    for name, query_set in (("in", queries), ("out", outside)):
        checked = total = 0
        for q in query_set:
            tables = compute_tables(pq, q)
            got, stats = fast_scan(grouped, tables, 0.005, 100)
            if name == "out" and got.items() != scan(codelist, tables, 100).items():
                mismatches += 1
            checked += stats.checked
            total += stats.total
        pruned[name] = 1.0 - checked / total
    rep.done(
        pruned["in"] > 0.98 and pruned["out"] >= 0.90 and mismatches == 0,
        f"pruned fraction {pruned['in']:.4f} in distribution, "
        f"{pruned['out']:.4f} out of distribution, "
        f"{mismatches} mismatching result sets out of distribution",
    )


def _load_sift():
    base = pqscan.read_vecs(SIFT / "sift_base.fvecs", "fvecs")
    queries = pqscan.read_vecs(SIFT / "sift_query.fvecs", "fvecs")
    truth_ids = pqscan.read_vecs(SIFT / "sift_groundtruth.ivecs", "ivecs")
    learn_path = SIFT / "sift_learn.fvecs"
    learn = pqscan.read_vecs(learn_path, "fvecs") if learn_path.exists() else base[:100_000]
    truth = GroundTruth(truth_ids.astype(np.int64), np.zeros(truth_ids.shape))
    return base, learn, queries, truth


def _exhaustive_recall(pq, codelist, queries, truth, r):
    results = []
    for q in queries:
        tables = compute_tables(pq, q)
        results.append([i for _, i in scan(codelist, tables, r).items()])
    return recall_at_r(np.array(results), truth, r)


@needs_corpus
def test_criterion_4_sift1m_recall(capsys):
    rep = Report(capsys, "criterion 4 (SIFT1M ADC Recall@100 vs published)")
    base, learn, queries, truth = _load_sift()
    expectations = {(16, 4): 0.831, (8, 8): 0.922, (4, 16): 0.965}
    n_queries = 1000
    detail = []
    ok = True
    for (m, b), want in expectations.items():
        cfg = TrainConfig(kmeans_iters=25, seed=0)
        pq = train_pq(learn, m, b, cfg)
        codelist = CodeList(encode(pq, base))
        got = _exhaustive_recall(pq, codelist, queries[:n_queries],
                                 GroundTruth(truth.ids[:n_queries], truth.distances[:n_queries]), 100)
        detail.append(f"{m}x{b}: {got:.3f} vs {want}")
        ok = ok and abs(got - want) <= 0.02
    rep.done(ok, "; ".join(detail))


def test_criterion_5_quick_adc_recall_parity(capsys):
    rep = Report(capsys, "criterion 5 (Quick ADC returns scan's ids, b=4)")
    if SIFT is not None:
        base, learn, queries, truth = _load_sift()
        queries = queries[:200]
        truth = GroundTruth(truth.ids[:200], truth.distances[:200])
        m = 16
    else:
        # 256 blobs in d=32 keep neighbors distinguishable: float recall
        # lands near 0.97. 500 queries give the recall estimate 0.002
        # granularity.
        base, queries = in_distribution_split(50_000, 32, 256, 9, 500)
        truth = exact_knn(base, queries, 100)
        learn = base[:20_000]
        m = 16
    cfg = TrainConfig(kmeans_iters=15, seed=0)
    pq = train_pq(learn, m, 4, cfg)
    codelist = CodeList(encode(pq, base), m=m)
    float_res, quant_res = [], []
    mismatches = 0
    for q in queries:
        tables = compute_tables(pq, q)
        want = scan(codelist, tables, 100).items()
        got, _ = qadc_scan([codelist], [tables], 100)
        mismatches += got.items() != want
        float_res.append([i for _, i in want])
        quant_res.append([i for _, i in got.items()])
    r_f = recall_at_r(np.array(float_res), truth, 100)
    r_q = recall_at_r(np.array(quant_res), truth, 100)
    rep.done(mismatches == 0 and r_q == r_f,
             f"{mismatches} result sets differ from scan; parity {r_q / r_f:.4f} "
             f"(float {r_f:.4f}, Quick ADC {r_q:.4f})")


def test_criterion_6_qadc_kernel_equivalence(capsys):
    rep = Report(capsys, "criterion 6 (int16 bound == floor-sum oracle <= s(D - M), 1.6e6 codes)")
    rng = np.random.default_rng(0)
    n_codes, m, n_cells = 1_600_000, 8, 4
    t64 = rng.gamma(2.0, 50.0, (n_cells, m, 16)).astype(np.float32).astype(np.float64)
    codes = rng.integers(0, 256, (n_codes, m // 2)).astype(np.uint8)
    cells = np.sort(rng.integers(0, n_cells, n_codes))
    comps = unpack(codes, m)
    dists = sum(t64[cells, j, comps[:, j]] for j in range(m))
    # the 1,000th smallest distance sets the scale, so some entries clamp
    q, shifts, s = _bound_tables(t64, float(np.partition(dists, 999)[999]))
    got = quantized_distances(codes, q, cells).astype(np.int64)
    want, gap = floor_sum_bounds(t64, comps, cells, s)
    bad = int(np.count_nonzero(got != want))
    unsound = int(np.count_nonzero(got > s * gap * (1 + 1e-12)))
    clamped = float((q == 32767 // m).mean())
    rep.done(bad == 0 and unsound == 0 and 0 < clamped < 1,
             f"{bad} codes differ from the oracle, {unsound} bounds above s(D - M) "
             f"of {n_codes}; {clamped:.0%} of entries clamped")


def test_criterion_7_derived_p1(capsys):
    rep = Report(capsys, "criterion 7 (P1 for (b,bbar)=(10,5), 3 seeds)")
    failures = 0
    for seed in (1, 2, 3):
        x = generate_synthetic(4000, 32, 16, seed)
        dpq = train_derived(x, 4, 10, 5, TrainConfig(kmeans_iters=8, seed=seed))
        kbar = dpq.kbar
        for j in range(4):
            full = dpq.pq.codebooks[j].astype(np.float64)
            der = dpq.derived[j].astype(np.float64)
            for low in range(kbar):
                members = full[np.arange(low, 1024, kbar)]
                if not np.allclose(der[low], members.mean(axis=0), rtol=1e-4, atol=1e-3):
                    failures += 1
    rep.done(failures == 0, f"{failures} violated clusters of {3 * 4 * 32}")


def test_criterion_8_two_pass_recall(capsys):
    rep = Report(capsys, "criterion 8 (two-pass recall vs full scan, (10,5))")
    base, queries = in_distribution_split(100_000, 32, 16, 13, 100)
    truth = exact_knn(base, queries, 100)
    dpq = train_derived(base[:5000], 4, 10, 5, TrainConfig(kmeans_iters=8, seed=0))
    codelist = CodeList(encode(dpq.pq, base))
    r2 = base.shape[0] // 10
    full_res, two_res = [], []
    for q in queries:
        tables = compute_tables(dpq.pq, q)
        full_res.append([i for _, i in scan(codelist, tables, 100).items()])
        nset = search_two_pass(dpq, codelist, q, 100, r2)
        two_res.append([i for _, i in nset.items()])
    r_full = recall_at_r(np.array(full_res), truth, 100)
    r_two = recall_at_r(np.array(two_res), truth, 100)
    rep.done(r_full - r_two <= 0.01, f"full {r_full:.4f} vs two-pass {r_two:.4f}")


def test_criterion_9_scan_oracle_equivalence(capsys):
    rep = Report(capsys, "criterion 9 (scan == full sort oracle, 200 instances)")
    rng = np.random.default_rng(42)
    bad = 0
    for trial in range(200):
        n = int(rng.integers(1, 1000 if trial % 4 else 10_000))
        m = int(rng.integers(1, 9))
        k = int(rng.integers(2, 257))
        r = int(rng.integers(1, n + 1))
        tables = LookupTables(rng.random((m, k)).astype(np.float32) * 100)
        codes = rng.integers(0, k, (n, m)).astype(np.uint16)
        ids = rng.permutation(n).astype(np.int64)
        t64 = tables.tables.astype(np.float64)
        dists = np.zeros(n, dtype=np.float64)
        for j in range(m):
            dists += t64[j][codes[:, j].astype(np.int64)]
        order = np.lexsort((ids, dists))[:r]
        oracle = list(zip(dists[order].tolist(), ids[order].tolist()))
        got = scan(CodeList(codes, ids), tables, r).items()
        if got != oracle:
            bad += 1
    rep.done(bad == 0, f"{bad} mismatching instances of 200")


def test_criterion_10_throughput_reported(capsys):
    rep = Report(capsys, "criterion 10 (throughput, reported not gated)")
    base, queries = in_distribution_split(100_000, 128, 16, 7, 10)
    pq, codelist, grouped = train_grouped(base, 1, 20_000, 8)

    def rate(fn, qs, n, reps=10):
        fn(qs[0])  # warm-up
        t0 = time.perf_counter()
        for q in qs[:reps]:
            fn(q)
        return n * reps / (time.perf_counter() - t0) / 1e6

    n = codelist.n
    base_rate = rate(lambda q: scan(codelist, compute_tables(pq, q), 100), queries, n)
    fs_rate = rate(
        lambda q: fast_scan(grouped, compute_tables(pq, q), 0.005, 100), queries, n
    )

    base4, q4 = in_distribution_split(100_000, 64, 16, 9, 10)
    cfg = TrainConfig(kmeans_iters=8, seed=0)
    pq4 = train_pq(base4[:20_000], 16, 4, cfg)
    cl4 = CodeList(encode(pq4, base4), m=16)
    base4_rate = rate(lambda q: scan(cl4, compute_tables(pq4, q), 100), q4, cl4.n)
    qadc_rate = rate(lambda q: qadc_scan([cl4], [compute_tables(pq4, q)], 100), q4, cl4.n)
    ratio_fs = fs_rate / base_rate
    ratio_qa = qadc_rate / base4_rate
    detail = (f"fast-scan {fs_rate:.0f} vs scan {base_rate:.0f} Mcodes/s "
              f"({ratio_fs:.2f}x); qadc {qadc_rate:.0f} vs scan "
              f"{base4_rate:.0f} Mcodes/s ({ratio_qa:.2f}x); 2x target "
              f"{'met' if min(ratio_fs, ratio_qa) >= 2 else 'not met on this build'}")
    rep.done(True, detail)


def test_criterion_11_format_round_trips(tmp_path, capsys):
    rep = Report(capsys, "criterion 11 (file format round-trips bit-exact)")
    rng = np.random.default_rng(5)
    ok = True

    arr = rng.normal(size=(64, 24)).astype(np.float32)
    pqscan.write_vecs(tmp_path / "a.fvecs", arr, "fvecs")
    ok &= np.array_equal(pqscan.read_vecs(tmp_path / "a.fvecs", "fvecs"), arr)

    x = generate_synthetic(800, 32, 8, 2)
    cfg = TrainConfig(kmeans_iters=4, opq_iters=3, seed=0)
    opq = pqscan.train_opq(x, 4, 4, cfg)
    pqscan.save_quantizer(tmp_path / "q.pqz", opq)
    back = pqscan.load_quantizer(tmp_path / "q.pqz")
    ok &= np.array_equal(back.codebooks, opq.codebooks)
    ok &= np.array_equal(back.rotation, opq.rotation)

    dpq = train_derived(x, 4, 6, 3, TrainConfig(kmeans_iters=4, seed=1))
    pqscan.save_quantizer(tmp_path / "d.pqz", dpq)
    dback = pqscan.load_quantizer(tmp_path / "d.pqz")
    ok &= np.array_equal(dback.derived, dpq.derived)
    ok &= np.array_equal(dback.pq.codebooks, dpq.pq.codebooks)

    codes = CodeList(pack(rng.integers(0, 16, (57, 4))),
                     rng.permutation(57).astype(np.int64), m=4)
    pqscan.save_codes(tmp_path / "c.pql", codes, 4)
    cback, b_back = pqscan.load_codes(tmp_path / "c.pql")
    ok &= b_back == 4
    ok &= np.array_equal(cback.codes, codes.codes)
    ok &= np.array_equal(cback.ids, codes.ids)

    idx = build_ivf(x, K=4, m=4, b=4, cfg=TrainConfig(kmeans_iters=4, seed=3))
    pqscan.save_ivf(tmp_path / "i.ivf", idx)
    iback = pqscan.load_ivf(tmp_path / "i.ivf")
    ok &= np.array_equal(iback.coarse, idx.coarse)
    ok &= np.array_equal(iback.pq.codebooks, idx.pq.codebooks)
    ok &= all(
        np.array_equal(a.codes, b.codes) and np.array_equal(a.ids, b.ids)
        for a, b in zip(iback.lists, idx.lists)
    )
    rep.done(bool(ok))
