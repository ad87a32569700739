import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqscan import (
    CodeList,
    LookupTables,
    NeighborSet,
    adc_distance,
    compute_tables,
    decode,
    detranspose_blocks,
    encode,
    load_codes,
    save_codes,
    scan,
    scan_distances,
    transpose_blocks,
)

from conftest import pack, unpack


def sorted_oracle(tables, codes, ids, r):
    """Full sort by (adc distance, id), truncated. Independent of scan()."""
    pairs = []
    for code, ident in zip(codes, ids):
        acc = 0.0
        for j in range(len(code)):
            acc += float(np.float64(tables.tables[j][code[j]]))
        pairs.append((acc, int(ident)))
    pairs.sort()
    return pairs[:r]


def test_tables_zero_at_own_centroid(pq44):
    y = np.concatenate([pq44.codebooks[j][5] for j in range(pq44.m)])
    tables = compute_tables(pq44, y)
    for j in range(pq44.m):
        assert tables.tables[j][5] == 0.0
        assert tables.tables[j].min() == 0.0


def test_tables_size_8kib(pq88):
    tables = compute_tables(pq88, np.zeros(pq88.d, dtype=np.float32))
    assert tables.nbytes == 8 * 256 * 4 == 8192


def test_tables_match_direct_recomputation(pq44, blob_data):
    q = blob_data[42]
    tables = compute_tables(pq44, q)
    dsub = pq44.dsub
    for j in range(pq44.m):
        sub = q[j * dsub : (j + 1) * dsub].astype(np.float64)
        expect = ((pq44.codebooks[j].astype(np.float64) - sub) ** 2).sum(axis=1)
        np.testing.assert_allclose(tables.tables[j], expect, rtol=1e-5)


def test_adc_zero_for_representable(pq44):
    y = np.concatenate([pq44.codebooks[j][2] for j in range(pq44.m)])
    tables = compute_tables(pq44, y)
    code = encode(pq44, y)
    assert adc_distance(tables, code) == 0.0


def test_adc_equals_decode_and_measure(pq44, blob_data, queries):
    codes = encode(pq44, blob_data[:40])
    recon = decode(pq44, codes)
    for q in queries[:4]:
        tables = compute_tables(pq44, q)
        for code, rec in zip(codes, recon):
            expect = float(((q - rec) ** 2).sum())
            assert adc_distance(tables, code) == pytest.approx(expect, rel=1e-3)


def test_scan_distances_matches_scalar(pq44, codes44, queries):
    tables = compute_tables(pq44, queries[0])
    vec = scan_distances(tables, codes44.codes)
    for i in range(0, codes44.n, 197):
        assert vec[i] == adc_distance(tables, codes44.codes[i])


def test_scan_exact_match_first(pq44, blob_data):
    y = np.concatenate([pq44.codebooks[j][1] for j in range(pq44.m)])
    others = encode(pq44, blob_data[:64])
    planted = encode(pq44, y)
    keep = ~(others == planted).all(axis=1)  # keep the planted code unique
    codelist = CodeList(np.vstack([others[keep], planted[None, :]]), m=pq44.m)
    tables = compute_tables(pq44, y)
    top = scan(codelist, tables, 3).items()
    assert top[0] == (0.0, codelist.n - 1)


def test_scan_equals_full_sort_oracle(pq44, codes44, queries):
    for q in queries:
        tables = compute_tables(pq44, q)
        got = scan(codes44, tables, codes44.n).items()
        assert got == sorted_oracle(
            tables, unpack(codes44.codes, pq44.m), codes44.ids, codes44.n
        )


def test_scan_random_instances_vs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(2, 17))
        n = int(rng.integers(1, 300))
        r = int(rng.integers(1, n + 1))
        tables = LookupTables(rng.random((m, k)).astype(np.float32))
        codes = rng.integers(0, k, (n, m)).astype(np.uint8)
        ids = rng.permutation(n).astype(np.int64)
        got = scan(CodeList(codes, ids), tables, r).items()
        assert got == sorted_oracle(tables, codes, ids, r)


@given(st.lists(st.tuples(st.floats(0, 100), st.integers(0, 10**6)), max_size=60),
       st.integers(1, 10), st.randoms())
@settings(max_examples=60, deadline=None)
def test_neighborset_order_insensitive(pairs, r, pyrng):
    a = NeighborSet(r)
    for d, i in pairs:
        a.push(d, i)
    shuffled = list(pairs)
    pyrng.shuffle(shuffled)
    b = NeighborSet(r)
    for d, i in shuffled:
        b.push(d, i)
    assert a.items() == b.items()


def test_neighborset_tie_breaks_to_lower_id():
    ns = NeighborSet(2)
    for ident in (9, 4, 7):
        ns.push(1.5, ident)
    assert ns.items() == [(1.5, 4), (1.5, 7)]


def test_neighborset_worst_tracks_rth():
    ns = NeighborSet(2)
    assert ns.worst == np.inf
    ns.push(5.0, 1)
    assert ns.worst == np.inf
    ns.push(3.0, 2)
    assert ns.worst == 5.0
    ns.push(1.0, 3)
    assert ns.worst == 3.0


def test_transpose_17_codes_two_blocks(pq88, blob_data):
    codelist = CodeList(encode(pq88, blob_data[:17]))
    tlist = transpose_blocks(codelist, 8)
    assert tlist.n_blocks == 2
    assert tlist.block_validity(0) == 16
    assert tlist.block_validity(1) == 1


def test_transpose_nibble_layout_b4():
    # two codes, m=4: byte i of row j holds comps 2j (low) and 2j+1 (high)
    codes = np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=np.uint8)
    tlist = transpose_blocks(CodeList(pack(codes), m=4), 4)
    assert tlist.blocks.shape == (1, 2, 16)
    assert tlist.blocks[0, 0, 0] == (2 << 4) | 1
    assert tlist.blocks[0, 1, 0] == (4 << 4) | 3
    assert tlist.blocks[0, 0, 1] == (6 << 4) | 5
    assert tlist.blocks[0, 1, 1] == (8 << 4) | 7


@given(st.integers(1, 40), st.integers(1, 4), st.sampled_from([4, 8]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_transpose_round_trip(n, half_m, b, seed):
    m = 2 * half_m  # b=4 layout needs even m
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << b, (n, m)).astype(np.uint8)
    if b == 4:
        codes = pack(codes)
    ids = rng.permutation(n).astype(np.int64)
    codelist = CodeList(codes, ids, m)
    back = detranspose_blocks(transpose_blocks(codelist, b))
    np.testing.assert_array_equal(back.codes, codes)
    np.testing.assert_array_equal(back.ids, ids)


@pytest.mark.parametrize("b", [4, 8, 12])
def test_codes_file_round_trip(tmp_path, b):
    rng = np.random.default_rng(b)
    n, m = 37, 6
    dtype = np.uint8 if b <= 8 else np.uint16
    codes = rng.integers(0, 1 << b, (n, m)).astype(dtype)
    if b <= 4:
        codes = pack(codes)
    ids = rng.permutation(1000)[:n].astype(np.int64)
    path = tmp_path / "c.pql"
    save_codes(path, CodeList(codes, ids, m), b)
    back, b_back = load_codes(path)
    assert b_back == b
    np.testing.assert_array_equal(back.codes, codes)
    np.testing.assert_array_equal(back.ids, ids)
