from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqscan import (
    CodeList,
    LookupTables,
    compute_tables,
    encode,
    qadc_scan,
    quantized_distances,
    scan,
    scan_distances,
)
from pqscan import quickadc
from pqscan.quickadc import BOUND_MAX

from conftest import pack


def test_quantized_distances_match_component_sums():
    # int16 entries at most BOUND_MAX // m: no sum overflows int16; odd m
    # leaves the last high nibble as padding
    rng = np.random.default_rng(4)
    for m in (5, 6):
        entries = rng.integers(0, BOUND_MAX // m + 1, (m, 16)).astype(np.int16)
        comps = rng.integers(0, 16, (53, m))
        got = quantized_distances(pack(comps), entries[None], np.zeros(53, int))
        np.testing.assert_array_equal(got, entries[np.arange(m), comps].sum(axis=1))


# -- full scan ---------------------------------------------------------------


def test_qadc_scan_zero_distance_first(pq44):
    y = np.concatenate([pq44.codebooks[j][0] for j in range(pq44.m)])
    codelist = CodeList.from_vectors(pq44, y)
    tables = compute_tables(pq44, y)
    nset, stats = qadc_scan([codelist], [tables], 1)
    assert nset.items() == [(0.0, 0)]
    assert (stats.total, stats.checked, stats.pruned) == (1, 1, 0)


def exact_sort(tables, codelist, r):
    """The r best (distance, id) pairs of a full sort of scan_distances."""
    dists = scan_distances(tables, codelist.codes)
    return sorted(zip(dists.tolist(), codelist.ids.tolist()))[:r]


def test_qadc_scan_equals_exact_sort(pq44, codes44, queries):
    for q in queries[:4]:
        tables = compute_tables(pq44, q)
        nset, stats = qadc_scan([codes44], [tables], 10)
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
    full, _ = qadc_scan([a], [tables], 49)
    head, _ = qadc_scan([b], [tables], 48)
    assert len(full.items()) == 49  # padding lanes emitted nothing
    full_items = [p for p in full.items() if p[1] != 48]
    assert full_items[:48] == head.items()


def test_qadc_r_over_n_checks_every_code(pq44, codes44, queries):
    # at r >= n the prefix is the whole list: every code is scored exactly
    tables = compute_tables(pq44, queries[2])
    exact = np.sort(scan_distances(tables, codes44.codes))
    for r in (codes44.n, codes44.n + 7):
        nset, stats = qadc_scan([codes44], [tables], r)
        assert [d for d, _ in nset.items()] == exact.tolist()
        assert (stats.checked, stats.pruned) == (codes44.n, 0)


def test_qadc_r_1_checks_a_handful_of_codes(pq44, codes44, queries):
    # The scale comes from the first r codes, so at r=1 the prefix is one code
    # and only the codes whose bound reaches the best are checked: 7-47 of the
    # 2000 here, as duplicate 4x4 codes tie. Where the first code is itself
    # at the rows' minimum sum (query 6), the span falls back to the largest
    # shifted entry, so the bound still prunes.
    assert codes44.n >= 500
    for q in queries:
        tables = compute_tables(pq44, q)
        nset, stats = qadc_scan([codes44], [tables], 1)
        assert nset.items() == exact_sort(tables, codes44, 1)
        assert stats.checked <= 50


def test_qadc_recall_close_to_float_adc(pq44, codes44, queries):
    # exact: the same ids as the float scan, so the same recall
    for q in queries:
        tables = compute_tables(pq44, q)
        nset, _ = qadc_scan([codes44], [tables], 10)
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
        pairs = sorted(p for lst, t in zip(lists, tables) for p in exact_sort(t, lst, 2000))
        for r in (1, 25, 2000):
            nset, stats = qadc_scan(lists, tables, r)
            assert nset.items() == pairs[:r]
            assert stats.total == codes44.n


def test_qadc_scan_rejects_mismatched_inputs(pq44, codes44, queries):
    tables = compute_tables(pq44, queries[0])
    with pytest.raises(ValueError, match="one set of lookup tables per code list"):
        qadc_scan([codes44, codes44], [tables], 5)
    narrow = CodeList(codes44.codes[:, :1], m=2)
    narrow_tables = LookupTables(tables.tables[:2])
    with pytest.raises(ValueError, match="all of one m"):
        qadc_scan([codes44, narrow], [tables, narrow_tables], 5)
    bad = tables.tables.copy()
    bad[1, 3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        qadc_scan([codes44], [LookupTables(bad)], 5)
    with pytest.raises(ValueError, match="r must be"):
        qadc_scan([codes44], [tables], 0)


def scan_with_bounds(lists, tables, r):
    """qadc_scan's result and the int16 bounds of its bound pass."""
    seen = []
    real = quickadc.quantized_distances

    def record(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(quickadc, "quantized_distances", record):
        nset, stats = qadc_scan(lists, tables, r)
    return nset, stats, seen


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(4, 4), (6, 4), (4, 8), (8, 8)]),
    st.integers(1, 400),
    st.sampled_from([1, 5, 30]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_one_list_equals_the_same_codes_split_in_two(seed, shape, n, r, integer_tables, data):
    # One list, whose bound pass takes the word columns with no cell offset,
    # gives the items of the same codes in two lists under the same tables.
    # Where both take the same first r codes as the prefix, the bounds, and
    # so the checked codes, are the same too.
    m, b = shape
    rng = np.random.default_rng(seed)
    comps = rng.integers(0, 1 << b, (n, m)).astype(np.uint8)
    codes = pack(comps) if b == 4 else comps
    ids = rng.permutation(n)
    if integer_tables:
        entries = rng.integers(0, 4, (m, 1 << b))
    else:
        entries = rng.random((m, 1 << b))
    tables = LookupTables(entries.astype(np.float32))
    split = data.draw(st.integers(0, n), label="split")
    whole = CodeList(codes, ids, m)
    parts = [CodeList(codes[:split], ids[:split], m), CodeList(codes[split:], ids[split:], m)]
    one, one_stats, one_bounds = scan_with_bounds([whole], [tables], r)
    two, two_stats, two_bounds = scan_with_bounds(parts, [tables, tables], r)
    assert one.items() == two.items() == exact_sort(tables, whole, r)
    if split == 0 or split >= min(r, n):
        assert len(one_bounds) == len(two_bounds) == 1
        assert one_bounds[0].tobytes() == two_bounds[0].tobytes()
        assert (one_stats.checked, one_stats.pruned) == (two_stats.checked, two_stats.pruned)
