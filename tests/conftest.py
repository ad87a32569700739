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
