from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqscan import (
    CodeList,
    LookupTables,
    QuantizedTables,
    compute_tables,
    encode,
    qadc_scan,
    quantized_distances,
    scan,
    scan_distances,
    transpose_blocks,
)
from pqscan.quickadc import BOUND_MAX

from conftest import BINS, pack, qadc_block, quantized


def scalar_qadc(code, qt):
    """Clamped scalar accumulator, independent of the block kernel."""
    acc = 0
    for j, c in enumerate(code):
        acc = min(acc + int(qt.tables[j][c]), 127)
    return acc


def random_qt(rng, m):
    tables = rng.integers(0, 128, (m, 16)).astype(np.uint8)
    return QuantizedTables(tables, 0.0, 127.0, BINS)


# -- table quantization ------------------------------------------------------


def test_quantized_tables_bounds(pq44, queries):
    tables = compute_tables(pq44, queries[0])
    qt = quantized(tables, float(tables.tables.min()), float(tables.tables.max()))
    assert qt.tables.shape == (4, 16)
    assert qt.tables.max() <= 127
    row_mins = tables.tables.min(axis=1)
    assert qt.tables[np.argmin(row_mins)].min() == 0


def test_quantized_tables_row_all_qmin():
    t = np.zeros((2, 16), dtype=np.float32)
    t[1] += 5.0
    from pqscan import LookupTables

    qt = quantized(LookupTables(t), 0.0, 5.0)
    np.testing.assert_array_equal(qt.tables[0], np.zeros(16, dtype=np.uint8))
    np.testing.assert_array_equal(qt.tables[1], np.full(16, 127, dtype=np.uint8))


def test_quantized_tables_monotone_rows(pq44, queries):
    tables = compute_tables(pq44, queries[1])
    qt = quantized(tables, float(tables.tables.min()), float(tables.tables.max()))
    for j in range(4):
        order = np.argsort(tables.tables[j], kind="stable")
        q_sorted = qt.tables[j][order].astype(np.int64)
        assert (np.diff(q_sorted) >= 0).all()


# -- kernel equivalence ------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]))
@settings(max_examples=80, deadline=None)
def test_qadc_block_equals_scalar(seed, m):
    rng = np.random.default_rng(seed)
    qt = random_qt(rng, m)
    codes = rng.integers(0, 16, (16, m)).astype(np.uint8)
    tlist = transpose_blocks(CodeList(pack(codes), m=m), 4)
    out = qadc_block(tlist.blocks[0], qt)
    expect = np.array([scalar_qadc(c, qt) for c in codes], dtype=np.uint8)
    np.testing.assert_array_equal(out, expect)


def test_qadc_block_saturates():
    qt = QuantizedTables(np.full((2, 16), 127, dtype=np.uint8), 0.0, 1.0, BINS)
    codes = np.zeros((16, 2), dtype=np.uint8)
    tlist = transpose_blocks(CodeList(pack(codes), m=2), 4)
    np.testing.assert_array_equal(
        qadc_block(tlist.blocks[0], qt), np.full(16, 127, dtype=np.uint8)
    )


def test_quantized_distances_match_blocks():
    # int16 entries at most BOUND_MAX // m: no sum reaches the oracle's cap
    rng = np.random.default_rng(4)
    m = 6
    entries = rng.integers(0, BOUND_MAX // m + 1, (m, 16)).astype(np.int16)
    codes = pack(rng.integers(0, 16, (53, m)))
    tlist = transpose_blocks(CodeList(codes, m=m), 4)
    flat = quantized_distances(codes, entries[None], np.zeros(codes.shape[0], int))
    wide = SimpleNamespace(tables=entries, bins=BOUND_MAX)
    for blk in range(tlist.n_blocks):
        v = tlist.block_validity(blk)
        np.testing.assert_array_equal(
            qadc_block(tlist.blocks[blk], wide)[:v], flat[blk * 16 : blk * 16 + v]
        )


# -- full scan ---------------------------------------------------------------


def test_qadc_scan_zero_distance_first(pq44):
    y = np.concatenate([pq44.codebooks[j][0] for j in range(pq44.m)])
    codelist = CodeList.from_vectors(pq44, y)
    tables = compute_tables(pq44, y)
    nset, stats = qadc_scan([codelist], [tables], 1, 1)
    assert nset.items() == [(0.0, 0)]
    assert (stats.total, stats.checked, stats.pruned) == (1, 1, 0)


def exact_sort(tables, codelist, r):
    """The r best (distance, id) pairs of a full sort of scan_distances."""
    dists = scan_distances(tables, codelist.codes)
    return sorted(zip(dists.tolist(), codelist.ids.tolist()))[:r]


def test_qadc_scan_equals_exact_sort(pq44, codes44, queries):
    for q in queries[:4]:
        tables = compute_tables(pq44, q)
        nset, stats = qadc_scan([codes44], [tables], 100, 10)
        assert nset.items() == exact_sort(tables, codes44, 10)
        assert stats.total == codes44.n
        assert stats.checked + stats.pruned == stats.total
        assert stats.pruned > 0


def test_qadc_scan_padding_neutral(pq44, blob_data):
    # one more code changes nothing about the first 48 (49 codes would leave
    # 15 padding lanes in a last block of 16)
    codes = encode(pq44, blob_data[:49])
    a = CodeList(codes, m=pq44.m)
    b = CodeList(codes[:48], m=pq44.m)
    q = blob_data[7]
    tables = compute_tables(pq44, q)
    full, _ = qadc_scan([a], [tables], 20, 49)
    head, _ = qadc_scan([b], [tables], 20, 48)
    assert len(full.items()) == 49  # padding lanes emitted nothing
    full_items = [p for p in full.items() if p[1] != 48]
    assert full_items[:48] == head.items()


def test_qadc_init_count_full_matches_rth_exact(pq44, codes44, queries):
    # a prefix of the whole list scores every code exactly
    tables = compute_tables(pq44, queries[2])
    exact = np.sort(scan_distances(tables, codes44.codes))
    nset, stats = qadc_scan([codes44], [tables], codes44.n, 10)
    assert nset.items()[9][0] == float(exact[9])
    assert (stats.checked, stats.pruned) == (codes44.n, 0)


def test_qadc_recall_close_to_float_adc(pq44, codes44, queries):
    # exact: the same ids as the float scan, so the same recall
    for q in queries:
        tables = compute_tables(pq44, q)
        nset, _ = qadc_scan([codes44], [tables], 200, 10)
        assert nset.items() == scan(codes44, tables, 10).items()


def test_qadc_scan_over_lists_equals_merged_scans(pq44, codes44, queries):
    # each list keeps its own tables; the result is the merge of the
    # per-list scans, and empty lists are skipped
    cuts = [0, 0, 300, 301, 1200, codes44.n]
    lists = [
        CodeList(codes44.codes[lo:hi], codes44.ids[lo:hi], pq44.m)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    for qi, q in enumerate(queries[:4]):
        tables = [compute_tables(pq44, q + 0.5 * i) for i in range(len(lists))]
        for init_count in (1, 50, 2000):
            nset, stats = qadc_scan(lists, tables, init_count, 25)
            pairs = sorted(p for lst, t in zip(lists, tables) for p in exact_sort(t, lst, 25))
            assert nset.items() == pairs[:25]
            assert stats.total == codes44.n


def test_qadc_scan_rejects_mismatched_inputs(pq44, codes44, queries):
    tables = compute_tables(pq44, queries[0])
    with pytest.raises(ValueError, match="one set of lookup tables per code list"):
        qadc_scan([codes44, codes44], [tables], 10, 5)
    narrow = CodeList(codes44.codes[:, :1], m=2)
    narrow_tables = LookupTables(tables.tables[:2])
    with pytest.raises(ValueError, match="all of one m"):
        qadc_scan([codes44, narrow], [tables, narrow_tables], 10, 5)
    bad = tables.tables.copy()
    bad[1, 3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        qadc_scan([codes44], [LookupTables(bad)], 10, 5)
    with pytest.raises(ValueError, match="init_count"):
        qadc_scan([codes44], [tables], 0, 5)
    with pytest.raises(ValueError, match="r must be"):
        qadc_scan([codes44], [tables], 10, 0)
