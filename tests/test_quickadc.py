import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqscan import (
    BINS,
    CodeList,
    QuantizedTables,
    compute_tables,
    encode,
    qadc_scan,
    quantized_distances,
    scan,
    scan_distances,
    transpose_blocks,
)

from conftest import pack, qadc_block, quantized


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
    rng = np.random.default_rng(4)
    qt = random_qt(rng, 6)
    codes = pack(rng.integers(0, 16, (53, 6)))
    tlist = transpose_blocks(CodeList(codes, m=6), 4)
    flat = quantized_distances(codes, qt)
    for blk in range(tlist.n_blocks):
        v = tlist.block_validity(blk)
        np.testing.assert_array_equal(
            qadc_block(tlist.blocks[blk], qt)[:v], flat[blk * 16 : blk * 16 + v]
        )


# -- full scan ---------------------------------------------------------------


def test_qadc_scan_zero_distance_first(pq44):
    y = np.concatenate([pq44.codebooks[j][0] for j in range(pq44.m)])
    codelist = CodeList.from_vectors(pq44, y)
    tables = compute_tables(pq44, y)
    nset, qt = qadc_scan(codelist, tables, 1, 1)
    assert nset.items() == [(0.0, 0)]


def test_qadc_scan_equals_quantized_sort(pq44, codes44, queries):
    for q in queries[:4]:
        tables = compute_tables(pq44, q)
        nset, qt = qadc_scan(codes44, tables, 100, 10)
        bins = quantized_distances(codes44.codes, qt).astype(np.float64)
        oracle = sorted(zip(bins.tolist(), codes44.ids.tolist()))[:10]
        assert nset.items() == oracle


def test_qadc_scan_padding_neutral(pq44, blob_data):
    # one more code changes nothing about the first 48 (49 codes would leave
    # 15 padding lanes in a last block of 16)
    codes = encode(pq44, blob_data[:49])
    a = CodeList(codes, m=pq44.m)
    b = CodeList(codes[:48], m=pq44.m)
    q = blob_data[7]
    tables = compute_tables(pq44, q)
    full, _ = qadc_scan(a, tables, 20, 49)
    head, _ = qadc_scan(b, tables, 20, 48)
    assert len(full.items()) == 49  # padding lanes emitted nothing
    full_items = [p for p in full.items() if p[1] != 48]
    assert full_items[:48] == head.items()


def test_qadc_init_count_full_matches_rth_exact(pq44, codes44, queries):
    tables = compute_tables(pq44, queries[2])
    exact = np.sort(scan_distances(tables, codes44.codes))
    _, qt = qadc_scan(codes44, tables, codes44.n, 10)
    assert qt.qmax == float(exact[9])


def test_qadc_recall_close_to_float_adc(pq44, codes44, blob_data, queries):
    # quantization should not change which region of the list survives
    from pqscan import exact_knn, recall_at_r

    truth = exact_knn(blob_data, queries, 10)
    r_float, r_quant = [], []
    for qi, q in enumerate(queries):
        tables = compute_tables(pq44, q)
        ids_f = np.array([i for _, i in scan(codes44, tables, 10).items()])
        nset, _ = qadc_scan(codes44, tables, 200, 10)
        ids_q = np.array([i for _, i in nset.items()])
        r_float.append(ids_f)
        r_quant.append(ids_q)
    rf = recall_at_r(np.array(r_float), truth, 10)
    rq = recall_at_r(np.array(r_quant), truth, 10)
    assert abs(rf - rq) <= 0.15  # tiny sample, loose band; acceptance tightens


def test_rescale_inverts_bins():
    qt = QuantizedTables(np.zeros((2, 16), dtype=np.uint8), 10.0, 137.0, BINS)
    assert qt.rescale(0) == pytest.approx(10.0)
    assert qt.rescale(127) == pytest.approx(137.0)
    np.testing.assert_allclose(qt.rescale(np.array([0, 127])), [10.0, 137.0])
