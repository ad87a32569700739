import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqscan import (
    CodeList,
    GroupedDatabase,
    LookupTables,
    assignment_permutation,
    compute_tables,
    encode,
    fast_scan,
    group_codes,
    optimize_centroid_assignment,
    qadc_scan,
    quantized_distances,
    relabel_codes,
    same_size_kmeans,
    scan,
    scan_distances,
)
from pqscan.quickadc import _bound_tables

from conftest import floor_sum_bounds

CODE_BYTES = np.array([0x3F, 0x11, 0x21, 0x00, 0xAB, 0xCD, 0xEF, 0x07], dtype=np.uint8)


# -- centroid assignment -----------------------------------------------------


def test_assignment_identity_on_low_codebooks(pq88):
    perm = assignment_permutation(pq88)
    for j in range(4):
        np.testing.assert_array_equal(perm[j], np.arange(256))
    for j in range(4, 8):
        assert sorted(perm[j].tolist()) == list(range(256))


def test_assignment_clusters_become_blocks():
    # codebook built from 16 tight blobs: permutation must gather each blob
    # into one aligned 16-block (order inside and among blocks is free)
    rng = np.random.default_rng(3)
    centers = rng.normal(0, 50, (16, 2))
    books = np.empty((8, 256, 2), dtype=np.float32)
    labels = np.repeat(np.arange(16), 16)
    for j in range(8):
        books[j] = centers[labels] + rng.normal(0, 0.01, (256, 2))
    from pqscan import ProductQuantizer

    pq = ProductQuantizer(m=8, b=8, d=16, codebooks=books)
    perm = assignment_permutation(pq)
    _, expect = same_size_kmeans(books[5].astype(np.float64), 16)
    expect_sets = {frozenset(g.tolist()) for g in expect}
    got_sets = {
        frozenset(perm[5][blk * 16 : (blk + 1) * 16].tolist()) for blk in range(16)
    }
    assert got_sets == expect_sets


def test_optimize_assignment_idempotent_min_tables(pq88, queries):
    # the minima of the 16-entry portions of tables 4-7 match up to block
    # order
    once = optimize_centroid_assignment(pq88)
    twice = optimize_centroid_assignment(once)
    mins = []
    for pq in (once, twice):
        tables = compute_tables(pq, queries[0])
        mins.append(np.sort(tables.tables[4:8].reshape(4, 16, 16).min(axis=2), 1))
    np.testing.assert_array_equal(mins[0], mins[1])


def test_relabel_codes_round_trips_decode(pq88, blob_data):
    from pqscan import decode

    opt = optimize_centroid_assignment(pq88)
    codes = encode(pq88, blob_data[:100])
    perm = assignment_permutation(pq88)
    relabeled = relabel_codes(codes, perm)
    np.testing.assert_allclose(
        decode(pq88, codes), decode(opt, relabeled), atol=1e-6
    )


# -- the one-group layout ----------------------------------------------------


def test_group_codes_shares_the_stored_codes(codes88):
    # No copy and no reorder: the stored codes and ids, in their order.
    g = group_codes(codes88)
    assert g.packed is codes88.codes and g.ids is codes88.ids
    assert g.reconstruct_codes() is g.packed
    permuted = CodeList(codes88.codes[::-1], np.arange(codes88.n)[::-1] + 5)
    g = group_codes(permuted)
    assert np.shares_memory(g.packed, permuted.codes)
    np.testing.assert_array_equal(g.reconstruct_codes(), permuted.codes)
    np.testing.assert_array_equal(g.ids, permuted.ids)


def test_group_codes_one_group(codes88):
    g = group_codes(codes88)
    assert (g.n, g.n_groups) == (codes88.n, 1)
    assert g.keys.shape == (1, 0) and g.keys.dtype == np.uint8
    assert g.offsets.tolist() == [0] and g.counts.tolist() == [codes88.n]


def test_group_codes_single_group(pq88, queries):
    # Seven copies of one code make one group of seven; every distance ties,
    # so the fast scan keeps the lowest ids whatever their stored order.
    codes = np.tile(CODE_BYTES, (7, 1))
    g = group_codes(CodeList(codes, np.arange(7)[::-1] + 10))
    assert g.n_groups == 1
    assert g.counts[0] == 7
    assert g.keys[0].shape == (0,)
    got, stats = fast_scan(g, compute_tables(pq88, queries[0]), 0.5, 3)
    assert [i for _, i in got.items()] == [10, 11, 12]
    assert stats.total == 7


def test_group_codes_empty(pq88, queries):
    # No codes, no groups: the directory is empty and a fast scan finds
    # nothing.
    g = group_codes(CodeList(np.zeros((0, 8), np.uint8)))
    assert (g.n, g.n_groups) == (0, 0)
    assert g.keys.shape == (0, 0) and g.offsets.shape == g.counts.shape == (0,)
    assert g.packed.shape == (0, 8) and g.ids.shape == (0,)
    got, stats = fast_scan(g, compute_tables(pq88, queries[0]), 0.5, 10)
    assert got.items() == []
    assert (stats.total, stats.checked, stats.pruned) == (0, 0, 0)


def test_grouped_database_rejects_a_bad_directory(codes88):
    g = group_codes(codes88)
    with pytest.raises(ValueError, match="directory"):
        GroupedDatabase(np.zeros((1, 4), np.uint8), g.offsets, g.counts, g.packed, g.ids)
    with pytest.raises(ValueError, match="cover"):
        GroupedDatabase(g.keys, g.offsets, g.counts - 1, g.packed, g.ids)
    with pytest.raises(ValueError, match=r"\(n, 8\)"):
        GroupedDatabase(g.keys, g.offsets, g.counts, g.packed[:, :6], g.ids)


# -- the 8-bit bound pass ----------------------------------------------------


def test_quantized_distances_k256_floor_sum_oracle():
    # The bound from 65,536-entry pair tables over the stored codes equals
    # the per-component floor sum and never exceeds s (D - M); the r-th
    # distance of a small prefix sets the scale, so some entries clamp.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        t64 = rng.random((1, 8, 256))
        t64[rng.random(t64.shape) < 0.2] *= 1e4
        codes = rng.integers(0, 256, (2500, 8)).astype(np.uint8)
        prefix = scan_distances(LookupTables(t64[0]), codes[:250])
        q, _, s = _bound_tables(t64, float(np.sort(prefix)[9]))
        cells = np.zeros(codes.shape[0], dtype=np.intp)
        got = quantized_distances(codes, q, cells)
        want, gap = floor_sum_bounds(t64, codes, cells, s)
        assert got.dtype == np.int16
        np.testing.assert_array_equal(got, want)
        assert (got <= s * gap * (1 + 1e-12)).all()
        assert 0 < (q == 32767 // 8).mean() < 1


def test_quantized_distances_k256_zero_tables():
    q, shifts, s = _bound_tables(np.zeros((1, 8, 256)), 0.0)
    assert s == 0.0 and not q.any() and not shifts.any()
    codes = np.tile(CODE_BYTES, (3, 1))
    assert not quantized_distances(codes, q, np.zeros(3, np.intp)).any()


def test_8bit_words_need_even_m():
    rng = np.random.default_rng(0)
    codes = CodeList(rng.integers(0, 256, (10, 3)).astype(np.uint8))
    tables = LookupTables(rng.random((3, 256)).astype(np.float32))
    with pytest.raises(ValueError, match="even m"):
        qadc_scan([codes], [tables], 3)
    with pytest.raises(ValueError, match="even m"):
        quantized_distances(codes.codes, np.zeros((1, 3, 256), np.int16), np.zeros(10, int))


def test_fast_scan_equals_scan(pq88, codes88, queries):
    opt = optimize_centroid_assignment(pq88)
    relab = CodeList(relabel_codes(codes88.codes, assignment_permutation(pq88)))
    g = group_codes(relab)
    for q in queries:
        tables = compute_tables(opt, q)
        for r in (1, 10, 100):
            base = scan(relab, tables, r)
            got, stats = fast_scan(g, tables, 0.05, r)
            assert got.items() == base.items()
            assert stats.checked + stats.pruned == stats.total == relab.n


@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(1, 60), st.integers(1000, 3000)),
    st.sampled_from([1, 3, 10, 100]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_fast_scan_property(seed, n, r, integer_tables, permuted_ids):
    # integer tables make many distances equal, so ties must resolve to the
    # lower id wherever in the scan the tied codes fall
    rng = np.random.default_rng(seed)
    if integer_tables:
        tables = LookupTables(rng.integers(0, 4, (8, 256)).astype(np.float32))
    else:
        tables = LookupTables(rng.random((8, 256)).astype(np.float32))
    codes = rng.integers(0, 256, (n, 8)).astype(np.uint8)
    ids = rng.permutation(n) if permuted_ids else None
    codelist = CodeList(codes, ids)
    init = float(rng.uniform(0.01, 1.0))
    base = scan(codelist, tables, r)
    got, _ = fast_scan(group_codes(codelist), tables, init, r)
    assert got.items() == base.items()


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 150),
    st.integers(1, 40),
    st.sampled_from([0.0, 0.1, 0.3]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_fast_scan_edges(seed, n, distinct, density, data):
    # Repeated codes under sparse tables of entries 1-2: many codes get tight
    # bounds and equal exact distances, so ties straddle the seed/later
    # boundary and the r-th place. Density 0 gives all-zero tables. r runs
    # from 1 past n, init from 1/n to 1.0.
    rng = np.random.default_rng(seed)
    palette = rng.integers(0, 256, (distinct, 8)).astype(np.uint8)
    codelist = CodeList(palette[rng.integers(0, distinct, n)], rng.permutation(n))
    entries = rng.integers(1, 3, (8, 256)) * (rng.random((8, 256)) < density)
    tables = LookupTables(entries.astype(np.float32))
    r = data.draw(st.integers(1, n + 5), label="r")
    init = data.draw(st.integers(1, n), label="init count") / n
    got, stats = fast_scan(group_codes(codelist), tables, init, r)
    assert got.items() == scan(codelist, tables, r).items()
    assert stats.checked + stats.pruned == stats.total == n


def test_fast_scan_small_groups_still_exact(pq88, blob_data, queries):
    # one group far below 50 codes: correctness must hold regardless
    codelist = CodeList(encode(pq88, blob_data[:40]))
    g = group_codes(codelist)
    assert (g.counts < 50).all()
    tables = compute_tables(pq88, queries[0])
    got, _ = fast_scan(g, tables, 0.5, 5)
    assert got.items() == scan(codelist, tables, 5).items()
