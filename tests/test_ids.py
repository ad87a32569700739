"""Stored ids and row indexes: int32 when they fit, int64 otherwise; every
result reports int64 ids, and the files keep <i8 either way."""

import io

import numpy as np
import pytest

from pqscan import (
    CodeList,
    TrainConfig,
    build_ivf,
    compute_tables,
    encode,
    fast_scan,
    group_codes,
    load_ivf,
    query_ivf,
    save_ivf,
    scan,
    search_two_pass,
    train_derived,
)
from pqscan._binio import index_array
from pqscan.ivf import scan_lists
from pqscan.scan import read_codes_body, write_codes_body

BIG = 2**31  # the first id int32 cannot hold


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([], np.int32),
        ([0, 1, 2], np.int32),
        ([-(2**31), 2**31 - 1], np.int32),
        ([0, 2**31], np.int64),
        ([-(2**31) - 1, 0], np.int64),
        (np.arange(5, dtype=np.uint64), np.int32),
        (np.array([2**40], dtype=np.int64), np.int64),
        (np.arange(4, dtype=np.int32)[::2], np.int32),  # strided input
    ],
)
def test_index_array_narrows_only_when_every_value_fits(values, dtype):
    out = index_array(values)
    assert out.dtype == dtype and out.flags.c_contiguous
    np.testing.assert_array_equal(out, np.asarray(values, dtype=np.int64))


def test_stored_ids_are_narrow_and_results_int64(codes88, pq88, pq44, codes44, queries):
    assert codes88.ids.dtype == np.int32
    grouped = group_codes(codes88)
    # the stored ids as they are; the one-group directory is int32
    assert grouped.ids is codes88.ids
    assert grouped.offsets.dtype == grouped.counts.dtype == np.int32
    tables = compute_tables(pq88, queries[0])
    want = scan(codes88, tables, 10).to_arrays()
    assert want[1].dtype == np.int64
    got = fast_scan(grouped, tables, 0.05, 10)[0].to_arrays()
    np.testing.assert_array_equal(got[1], want[1])
    one = [codes44], queries[:1]
    adc = scan_lists(pq44, *one, 10, "adc", None)[0].to_arrays()
    for kernel in ("adc", "quick-adc"):
        dists, ids = scan_lists(pq44, *one, 10, kernel, None)[0].to_arrays()
        assert ids.dtype == np.int64 and ids.size == 10
        np.testing.assert_array_equal(ids, adc[1])
        assert dists.tobytes() == adc[0].tobytes()


def scan_oracle(tables, codelist, r):
    """(distance, id) pairs of a full sort over Python ints."""
    pairs = []
    for code, ident in zip(codelist.codes.tolist(), codelist.ids.tolist()):
        pairs.append((sum(float(tables.tables[j, c]) for j, c in enumerate(code)), ident))
    return sorted(pairs)[:r]


def test_large_ids_keep_int64_scan_and_round_trip(codes88, pq88, queries):
    rng = np.random.default_rng(11)
    ids = BIG + rng.permutation(codes88.n).astype(np.int64) * 3
    big = CodeList(codes88.codes, ids)
    assert big.ids.dtype == np.int64
    tables = compute_tables(pq88, queries[1])
    got = scan(big, tables, 20).items()
    assert got == scan_oracle(tables, big, 20)
    assert min(i for _, i in got) >= BIG
    # the same ranking as the narrow list, ids mapped through the table
    small = scan(codes88, tables, 20).items()
    assert [i for _, i in got] == [int(ids[i]) for _, i in small]
    grouped = group_codes(big)
    assert grouped.ids is big.ids and grouped.ids.dtype == np.int64
    assert grouped.offsets.dtype == grouped.counts.dtype == np.int32
    assert fast_scan(grouped, tables, 0.005, 20)[0].items() == got
    out = io.BytesIO()
    write_codes_body(out, big, 8)
    back, _ = read_codes_body(io.BytesIO(out.getvalue()))
    assert back.ids.dtype == np.int64
    np.testing.assert_array_equal(back.ids, ids)
    again = io.BytesIO()
    write_codes_body(again, back, 8)
    assert again.getvalue() == out.getvalue()


def test_ivf_with_large_ids_matches_offset_small_ids(blob_data, queries, tmp_path):
    cfg = TrainConfig(kmeans_iters=4, seed=2)
    n = blob_data.shape[0]
    small = build_ivf(blob_data, K=8, m=4, b=4, cfg=cfg)
    big = build_ivf(blob_data, K=8, m=4, b=4, cfg=cfg, ids=np.arange(n) + 2**33)
    assert {lst.ids.dtype for lst in small.lists} == {np.dtype(np.int32)}
    assert {lst.ids.dtype for lst in big.lists} == {np.dtype(np.int64)}
    adc_d, adc_i = query_ivf(small, queries[2], 4, 15, "adc").to_arrays()
    for kernel in ("adc", "quick-adc"):
        want_d, want_i = query_ivf(small, queries[2], 4, 15, kernel).to_arrays()
        got_d, got_i = query_ivf(big, queries[2], 4, 15, kernel).to_arrays()
        assert got_i.dtype == np.int64
        # Quick ADC is exact: ADC's distances and ids, bit for bit
        assert want_d.tobytes() == adc_d.tobytes()
        np.testing.assert_array_equal(want_i, adc_i)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_i, want_i + 2**33)
    save_ivf(tmp_path / "big.ivf", big)
    back = load_ivf(tmp_path / "big.ivf")
    for a, b in zip(back.lists, big.lists):
        assert a.ids.dtype == np.int64
        np.testing.assert_array_equal(a.ids, b.ids)
    save_ivf(tmp_path / "again.ivf", back)
    assert (tmp_path / "again.ivf").read_bytes() == (tmp_path / "big.ivf").read_bytes()


def test_two_pass_returns_int64_ids_over_narrow_lists(blob_data, queries):
    dpq = train_derived(blob_data[:1200], 4, 6, 3, TrainConfig(kmeans_iters=4, seed=1))
    codes = CodeList(encode(dpq, blob_data))
    assert codes.ids.dtype == np.int32
    wide = CodeList(codes.codes, codes.ids.astype(np.int64) + BIG)
    got = search_two_pass(dpq, codes, queries[3], 10, 300).to_arrays()
    assert got[1].dtype == np.int64
    got_wide = search_two_pass(dpq, wide, queries[3], 10, 300).to_arrays()
    np.testing.assert_array_equal(got_wide[0], got[0])
    np.testing.assert_array_equal(got_wide[1], got[1] + BIG)
