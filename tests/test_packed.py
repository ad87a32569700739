"""Properties of the nibble-packed layout of b <= 4 codes.

Every kernel reads packed codes in place; each property compares it with a
scalar reference over the unpacked components, for b in 1..4 and both even
and odd m (odd m leaves the last high nibble as padding).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from pqscan import (
    CodeList,
    LookupTables,
    ProductQuantizer,
    QuantizedTables4,
    QuantParams,
    TrainConfig,
    adc_distance,
    build_ivf,
    compute_tables,
    decode,
    encode,
    generate_synthetic,
    qadc_scan,
    quantized_distances,
    query_ivf,
    scan,
    scan_distances,
    search_two_pass,
    train_derived,
)

from conftest import pack, unpack

bits = st.integers(1, 4)
widths = st.integers(1, 9)
seeds = st.integers(0, 2**32 - 1)


def random_components(rng, n, m, b):
    return rng.integers(0, 1 << b, (n, m)).astype(np.uint8)


@given(bits, widths, st.integers(0, 40), seeds)
@settings(max_examples=120, deadline=None)
def test_scan_distances_packed_equals_scalar_adc(b, m, n, seed):
    rng = np.random.default_rng(seed)
    tables = LookupTables(rng.random((m, 1 << b)).astype(np.float32) * 100)
    comps = random_components(rng, n, m, b)
    got = scan_distances(tables, pack(comps))
    want = np.array([adc_distance(tables, c) for c in comps], dtype=np.float64)
    assert got.tobytes() == want.tobytes()


def scalar_qadc(code, tables):
    """Clamp after every component add, one code at a time."""
    acc = 0
    for j, c in enumerate(code):
        acc = min(acc + int(tables[j][c]), 127)
    return acc


@given(widths, st.integers(0, 40), seeds, st.integers(0, 127))
@settings(max_examples=120, deadline=None)
def test_pair_table_qadc_equals_clamped_scalar(m, n, seed, cap):
    # cap bounds the entries; low caps keep sums below 127, high ones saturate
    rng = np.random.default_rng(seed)
    tables = rng.integers(0, cap + 1, (m, 16)).astype(np.uint8)
    qt = QuantizedTables4(tables=tables, params=QuantParams(0.0, 127.0))
    comps = random_components(rng, n, m, 4)
    got = quantized_distances(pack(comps), qt)
    want = np.array([scalar_qadc(c, tables) for c in comps], dtype=np.uint8)
    np.testing.assert_array_equal(got, want)


@given(bits, st.sampled_from([1, 2, 3, 4, 5, 6]), seeds)
@settings(max_examples=60, deadline=None)
def test_encode_packs_argmin_and_decode_reads_it(b, m, seed):
    rng = np.random.default_rng(seed)
    dsub = 3
    books = rng.normal(size=(m, 1 << b, dsub)).astype(np.float32)
    pq = ProductQuantizer(m=m, b=b, d=m * dsub, codebooks=books)
    x = rng.normal(size=(30, m * dsub))
    comps = np.stack(
        [
            np.argmin(cdist(x[:, j * dsub : (j + 1) * dsub],
                            books[j].astype(np.float64), "sqeuclidean"), axis=1)
            for j in range(m)
        ],
        axis=1,
    )
    codes = encode(pq, x)
    np.testing.assert_array_equal(codes, pack(comps))
    want = np.concatenate([books[j][comps[:, j]] for j in range(m)], axis=1)
    assert decode(pq, codes).tobytes() == want.tobytes()
    np.testing.assert_array_equal(encode(pq, x[3]), codes[3])


@pytest.mark.parametrize("m", [3, 4])
def test_qadc_scan_reads_packed_list_of_any_m(m):
    rng = np.random.default_rng(m)
    comps = random_components(rng, 300, m, 4)
    codelist = CodeList(pack(comps), rng.permutation(300), m)
    tables = LookupTables(rng.random((m, 16)).astype(np.float32))
    nset, qt = qadc_scan(codelist, tables, 50, 10)
    exact = scan_distances(tables, comps)
    qmax = float(np.sort(exact[:50])[9])
    assert qt.params.qmax == qmax
    bins = np.array([scalar_qadc(c, qt.tables) for c in comps], dtype=np.float64)
    oracle = sorted(zip(bins.tolist(), codelist.ids.tolist()))[:10]
    assert nset.items() == oracle


def test_packed_list_needs_its_true_m():
    rng = np.random.default_rng(1)
    comps = random_components(rng, 20, 3, 4)
    tables = LookupTables(np.ones((4, 16), dtype=np.float32))
    # m=3 and m=4 both pack to two bytes; the list's m tells them apart
    with pytest.raises(ValueError):
        scan(CodeList(pack(comps), m=3), tables, 5)
    with pytest.raises(ValueError):
        qadc_scan(CodeList(pack(comps), m=3), tables, 5, 5)
    unpacked = CodeList(random_components(rng, 20, 4, 4), m=4)
    with pytest.raises(ValueError, match="nibble-packed"):
        qadc_scan(unpacked, tables, 5, 5)


def test_ivf_lists_store_packed_codes_and_quick_adc_takes_odd_m():
    base = generate_synthetic(1200, 15, 8, seed=4)
    index = build_ivf(base, K=4, m=5, b=4, cfg=TrainConfig(kmeans_iters=4, seed=2))
    for lst in index.lists:
        assert lst.codes.shape == (lst.n, 3) and lst.m == 5
        assert not np.any(lst.codes[:, -1] >> 4)
    q = base[7]
    assert len(query_ivf(index, q, ma=2, r=10, kernel="quick-adc").items()) == 10
    for lst in index.lists:
        tables = compute_tables(index.pq, q - index.coarse[0])
        np.testing.assert_array_equal(
            scan_distances(tables, lst.codes),
            scan_distances(tables, unpack(lst.codes, 5)),
        )


def test_two_pass_reads_packed_derived_codes():
    # b=4 derived quantizers store packed codes; both passes read them in
    # place and rank exactly as over the unpacked components
    x = generate_synthetic(900, 18, 8, seed=6)
    dpq = train_derived(x[:600], 3, 4, 2, TrainConfig(kmeans_iters=4, seed=3))
    packed = CodeList.from_vectors(dpq.pq, x)
    assert packed.codes.shape == (900, 2)
    components = CodeList(unpack(packed.codes, 3), packed.ids)
    for q in x[:5] + 0.5:
        assert (search_two_pass(dpq, packed, q, 10, 200).items()
                == search_two_pass(dpq, components, q, 10, 200).items())
