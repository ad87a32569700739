"""Properties of the nibble-packed layout of b <= 4 codes.

Every kernel reads packed codes in place; each property compares it with a
scalar reference over the unpacked components, for b in 1..4 and both even
and odd m (odd m leaves the last high nibble as padding). The pruned scan's
property also runs at b=8, where a word is two stored bytes.
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
    TrainConfig,
    build_ivf,
    decode,
    encode,
    generate_synthetic,
    qadc_scan,
    quantized_distances,
    query_ivf,
    save_codes,
    scan,
    scan_distances,
    search_two_pass,
    train_derived,
)

from pqscan.quickadc import BOUND_MAX

from conftest import adc_distance, pack, unpack

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


@given(st.sampled_from([4, 8]), widths, st.integers(1, 4), st.integers(0, 40), seeds,
       st.sampled_from([0.0, 0.01, 0.5, 1.0]))
@settings(max_examples=160, deadline=None)
def test_pair_table_qadc_equals_clamped_scalar(b, m, n_cells, n, seed, cap):
    # Entries run up to cap * (BOUND_MAX // m); at cap 1 every entry may sit
    # at that per-entry maximum, and a code's sum still fits int16. At b=8
    # word j is component 2j in its low byte and 2j+1 in its high byte.
    rng = np.random.default_rng(seed)
    m += m % 2 if b == 8 else 0
    top = int(cap * (BOUND_MAX // m))
    q = rng.integers(0, top + 1, (n_cells, m, 1 << b)).astype(np.int16)
    if cap == 1.0:
        q[:, :, 0] = top
    comps = random_components(rng, n, m, b)
    comps[: n // 2] = 0
    cells = rng.integers(0, n_cells, n)
    got = quantized_distances(pack(comps) if b == 4 else comps, q, cells)
    want = [sum(int(q[c, j, x]) for j, x in enumerate(code)) for code, c in zip(comps, cells)]
    assert got.dtype == np.int16
    np.testing.assert_array_equal(got, np.array(want, dtype=np.int64))


def table_rows(rng, kind, m, k):
    """(m, k) float32 table entries of one list: random, tie-heavy small
    integers, one constant (so every code of every list is at the same
    distance and the scale's span is 0), or random with spikes 10^4 times
    larger, whose bins clamp at the per-entry maximum."""
    if kind == "ties":
        return rng.integers(0, 3, (m, k)).astype(np.float32)
    if kind == "equal":
        return np.full((m, k), 2.5, dtype=np.float32)
    t = rng.random((m, k)).astype(np.float32)
    if kind == "spikes":
        t[rng.random((m, k)) < 0.2] *= 1e4
    return t


@given(st.sampled_from([4, 8]), widths, st.lists(st.integers(0, 40), min_size=1, max_size=4),
       st.integers(1, 60), st.sampled_from(["random", "ties", "equal", "spikes"]), seeds)
@settings(max_examples=200, deadline=None)
def test_qadc_scan_equals_exact_merge_over_cells(b, m, sizes, r, kind, seed):
    # Exact for any list sizes (empty lists and fewer codes than r or than the
    # r-code prefix included), tables with ties, equal tables and clamped
    # entries; each list is scored with its own tables, and ties fall to the
    # lower id. b=8 reads the stored codes as uint16 words, so its m is even.
    rng = np.random.default_rng(seed)
    m += m % 2 if b == 8 else 0
    ids = rng.permutation(sum(sizes)) * 3
    lists, tables, pairs = [], [], []
    for c, n in enumerate(sizes):
        comps = random_components(rng, n, m, b)
        stored = pack(comps) if b == 4 else comps
        lst = CodeList(stored, ids[sum(sizes[:c]) : sum(sizes[: c + 1])], m)
        tab = LookupTables(table_rows(rng, kind, m, 1 << b))
        lists.append(lst)
        tables.append(tab)
        pairs += [(adc_distance(tab, code), int(i)) for code, i in zip(comps, lst.ids)]
    nset, stats = qadc_scan(lists, tables, r)
    got_d, got_i = nset.to_arrays()
    want = sorted(pairs)[:r]
    assert list(zip(got_d.tolist(), got_i.tolist())) == want
    assert got_d.tobytes() == np.array([d for d, _ in want], dtype=np.float64).tobytes()
    assert stats.total == sum(sizes) and stats.checked + stats.pruned == stats.total


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
    nset, stats = qadc_scan([codelist], [tables], 10)
    assert nset.items() == scan(codelist, tables, 10).items()
    assert stats.pruned > 0


def test_packed_list_needs_its_true_m():
    rng = np.random.default_rng(1)
    comps = random_components(rng, 20, 3, 4)
    tables = LookupTables(np.ones((4, 16), dtype=np.float32))
    # m=3 and m=4 both pack to two bytes; the list's m tells them apart
    with pytest.raises(ValueError):
        scan(CodeList(pack(comps), m=3), tables, 5)
    with pytest.raises(ValueError):
        qadc_scan([CodeList(pack(comps), m=3)], [tables], 5)
    unpacked = CodeList(random_components(rng, 20, 4, 4), m=4)
    with pytest.raises(ValueError, match="nibble-packed"):
        qadc_scan([unpacked], [tables], 5)


def test_unpacked_4bit_list_is_refused_by_scan_qadc_scan_and_save_codes(tmp_path):
    # One stored layout per bit width: uint8 codes under 16-entry tables are
    # nibble-packed everywhere, so one component per byte is refused alike.
    rng = np.random.default_rng(3)
    unpacked = CodeList(random_components(rng, 50, 4, 4))
    tables = LookupTables(rng.random((4, 16)).astype(np.float32))
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        scan(unpacked, tables, 5)
    with pytest.raises(ValueError, match="nibble-packed"):
        qadc_scan([unpacked], [tables], 5)
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        save_codes(tmp_path / "codes.pql", unpacked, 4)


def test_ivf_lists_store_packed_codes_and_quick_adc_takes_odd_m():
    base = generate_synthetic(1200, 15, 8, seed=4)
    index = build_ivf(base, K=4, m=5, b=4, cfg=TrainConfig(kmeans_iters=4, seed=2))
    for lst in index.lists:
        assert lst.codes.shape == (lst.n, 3) and lst.m == 5
        assert not np.any(lst.codes[:, -1] >> 4)
    q = base[7]
    got = query_ivf(index, q, ma=2, r=10, kernel="quick-adc").items()
    assert len(got) == 10 and got == query_ivf(index, q, ma=2, r=10).items()


def test_two_pass_reads_packed_derived_codes():
    # b=4 derived quantizers store packed codes; both passes read them in
    # place and rank exactly as over the unpacked components
    x = generate_synthetic(900, 18, 8, seed=6)
    dpq = train_derived(x[:600], 3, 4, 2, TrainConfig(kmeans_iters=4, seed=3))
    packed = CodeList.from_vectors(dpq, x)
    assert packed.codes.shape == (900, 2)
    components = CodeList(unpack(packed.codes, 3), packed.ids)
    for q in x[:5] + 0.5:
        assert (search_two_pass(dpq, packed, q, 10, 200).items()
                == search_two_pass(dpq, components, q, 10, 200).items())
