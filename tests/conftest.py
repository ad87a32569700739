import math

import numpy as np
import pytest

from pqscan import (
    BINS,
    CodeList,
    QuantizedTables,
    TrainConfig,
    encode,
    generate_synthetic,
    quantize,
    quantize_tables,
    scan_distances,
    train_pq,
)

FAST_CFG = TrainConfig(kmeans_iters=10, seed=3)


def quantized(tables, qmin, qmax, bins=BINS):
    """LookupTables quantized over a given range rather than a prefix's."""
    return QuantizedTables(quantize(tables.tables, qmin, qmax, bins), qmin, qmax, bins)


def quantize_prefix(tables, codes, init, r):
    """The quantized tables fast scan uses: the prefix is the first
    ceil(init * n) codes."""
    prefix_d = scan_distances(tables, codes[: math.ceil(init * codes.shape[0])])
    return quantize_tables(tables, prefix_d, r, BINS)


def pack(components):
    """Reference nibble packing of (n, m) components < 16: component 2j in
    the low nibble of byte j, 2j+1 in the high nibble, 0 pads odd m."""
    components = np.asarray(components, dtype=np.uint8)
    n, m = components.shape
    out = np.zeros((n, (m + 1) // 2), dtype=np.uint8)
    for j in range(m):
        out[:, j // 2] |= components[:, j] << (4 * (j % 2))
    return out


def unpack(codes, m):
    """Reference inverse of pack: the (n, m) components."""
    codes = np.asarray(codes, dtype=np.uint8)
    out = np.empty((codes.shape[0], m), dtype=np.uint8)
    for j in range(m):
        out[:, j] = (codes[:, j // 2] >> (4 * (j % 2))) & 0x0F
    return out


def adc_distance(tables, code):
    """Reference ADC distance of one code: its m table entries summed in
    float64, sub-space order. code is one row of m components or of their
    nibble-packed bytes (the two are the same bytes for m = 1)."""
    code = np.asarray(code)
    if code.shape[0] != tables.m:
        code = unpack(code[None, :], tables.m)[0]
    acc = 0.0
    for j, c in enumerate(code):
        acc += float(tables.tables[j, int(c)])
    return acc


def qadc_block(block, qt):
    """Reference quantized distances of one block of 16 codes from
    transpose_blocks: row j carries components 2j (low nibble) and 2j+1
    (high nibble) of all 16 codes; each lookup is added with saturation at
    qt.bins. Returns 16 int16 distances."""
    block = np.asarray(block, dtype=np.uint8)
    t = qt.tables
    assert t.shape[0] % 2 == 0 and block.shape == (t.shape[0] // 2, 16)
    acc = np.zeros(16, dtype=np.int16)
    for j in range(block.shape[0]):
        acc = np.minimum(acc + t[2 * j][block[j] & 0x0F], qt.bins)
        acc = np.minimum(acc + t[2 * j + 1][block[j] >> 4], qt.bins)
    return acc


# -- the paper's per-group form of fast scan, one code at a time --------------


def pack_code(code):
    """6-byte packed form of one 8-component code (group key dropped): the
    low nibbles of components 0-3 in two bytes, components 4-7 verbatim."""
    code = np.asarray(code, dtype=np.uint8)
    out = np.empty(6, dtype=np.uint8)
    out[0] = ((code[0] & 0x0F) << 4) | (code[1] & 0x0F)
    out[1] = ((code[2] & 0x0F) << 4) | (code[3] & 0x0F)
    out[2:6] = code[4:8]
    return out


def group_key(code):
    """High nibbles of components 0-3."""
    code = np.asarray(code, dtype=np.uint8)
    return tuple(int(code[j]) >> 4 for j in range(4))


def ungroup(grouped):
    """A grouped database's codes and ids, in grouped storage order."""
    return CodeList(grouped.reconstruct_codes(), grouped.ids)


class SmallTables:
    """Eight 16-entry uint8 tables in [0, 127]: S0..S3 are the quantized
    group portions of the full tables, S4..S7 the quantized minima of the 16
    portions of tables 4-7."""

    def __init__(self, tables):
        self.tables = np.ascontiguousarray(tables, dtype=np.uint8)
        assert self.tables.shape == (8, 16) and not np.any(self.tables > BINS)


def build_small_tables(qt, key):
    """One group's small tables from (8, 256) quantized tables."""
    assert qt.m == 8 and qt.k == 256
    assert len(key) == 4 and all(0 <= v < 16 for v in key)
    small = np.empty((8, 16), dtype=np.uint8)
    for j in range(4):
        small[j] = qt.tables[j, key[j] * 16 : (key[j] + 1) * 16]
    small[4:8] = qt.tables[4:8].reshape(4, 16, 16).min(axis=2)
    return SmallTables(small)


def lower_bound(small, packed):
    """Saturating 8-bit sum (clamped at 127) over the small-table lookups
    addressed by a packed code: low nibbles for components 0-3, high nibbles
    for components 4-7. Never exceeds the quantized true distance."""
    packed = np.asarray(packed, dtype=np.uint8)
    t = small.tables
    lanes = (
        t[0, packed[0] >> 4],
        t[1, packed[0] & 0x0F],
        t[2, packed[1] >> 4],
        t[3, packed[1] & 0x0F],
        t[4, packed[2] >> 4],
        t[5, packed[3] >> 4],
        t[6, packed[4] >> 4],
        t[7, packed[5] >> 4],
    )
    acc = 0
    for v in lanes:
        acc = min(acc + int(v), BINS)
    return acc


@pytest.fixture(scope="session")
def blob_data():
    """Small clustered dataset: 2000 points, d=32, 8 blobs."""
    return generate_synthetic(2000, 32, 8, seed=5)


@pytest.fixture(scope="session")
def pq44(blob_data):
    """4x4 product quantizer trained on the blob data."""
    return train_pq(blob_data[:1600], 4, 4, FAST_CFG)


@pytest.fixture(scope="session")
def pq88(blob_data):
    """8x8 quantizer for fast-scan shaped tests (m=8, b=8)."""
    return train_pq(blob_data[:1600], 8, 8, FAST_CFG)


@pytest.fixture(scope="session")
def codes44(blob_data, pq44):
    return CodeList(encode(pq44, blob_data), m=pq44.m)


@pytest.fixture(scope="session")
def codes88(blob_data, pq88):
    return CodeList(encode(pq88, blob_data))


@pytest.fixture(scope="session")
def queries(blob_data):
    rng = np.random.default_rng(17)
    picks = rng.choice(blob_data.shape[0], size=12, replace=False)
    return blob_data[picks] + rng.normal(0.0, 4.0, (12, blob_data.shape[1])).astype(
        np.float32
    )
