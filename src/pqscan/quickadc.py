"""Quantized scan kernel for nibble-packed 4-bit codes.

With b=4 each lookup table has 16 entries, so after 127-bin quantization a
whole table fits one SIMD register. The kernel reads the stored codes in
place, two components per byte (component 2j in the low nibble of byte j,
2j+1 in the high nibble): one gather per byte column from a 256-entry table
of summed entry pairs, and one clamp at 127. Works under any inverted index
because it needs no code layout beyond the stored one.
"""

from __future__ import annotations

import numpy as np

from ._dist import _select_best
from .fastscan import BINS
from .scan import (
    CodeList,
    LookupTables,
    NeighborSet,
    QuantizedTables,
    # Not called here; the benchmark's tracer patches this name.
    detranspose_blocks,  # noqa: F401
    quantize_tables,
    scan_distances,
)

DEFAULT_INIT_COUNT = 200


def pair_tables(qt: QuantizedTables) -> np.ndarray:
    """(ceil(m/2), 256) sums of 16-entry table pairs: entry [j, byte] is
    qt[2j][byte & 15] + qt[2j+1][byte >> 4] (0 for the missing 2j+1 of odd m),
    in a dtype that holds m * qt.bins, the largest sum over all columns."""
    if qt.k != 16:
        raise ValueError("4-bit tables must have 16 entries per sub-space")
    t = qt.tables.astype(np.min_scalar_type(qt.m * qt.bins))
    if qt.m % 2:
        t = np.vstack([t, np.zeros((1, 16), dtype=t.dtype)])
    return (t[1::2, :, None] + t[0::2, None, :]).reshape(-1, 256)


def quantized_distances(codes: np.ndarray, qt: QuantizedTables) -> np.ndarray:
    """Per-code table sums over nibble-packed (n, ceil(m/2)) codes, clamped
    at qt.bins.

    Equals clamping after every component add, as a SIMD kernel's
    saturating adds do: all entries are non-negative, so a sum that reaches qt.bins never comes
    back below it.
    """
    codes = np.asarray(codes)
    pairs = pair_tables(qt)
    if codes.ndim != 2 or codes.shape[1] != pairs.shape[0]:
        raise ValueError(f"codes must have shape (n, {pairs.shape[0]})")
    acc = np.zeros(codes.shape[0], dtype=pairs.dtype)
    for j in range(pairs.shape[0]):
        acc += pairs[j].take(codes[:, j])
    return np.minimum(acc, qt.bins).astype(np.uint8)


def qadc_scan(
    codelist: CodeList,
    tables: LookupTables,
    init_count: int,
    r: int,
) -> tuple[NeighborSet, QuantizedTables]:
    """Scan nibble-packed codes with tables quantized to BINS; r smallest
    quantized distances.

    The prefix that sets the quantization range (quantize_tables) is a
    float-table scan of the first init_count codes. Returned distances are
    quantized bins; ties resolve to the smaller id.
    """
    if tables.k != 16 or tables.m != codelist.m:
        raise ValueError("quick scan requires 4-bit tables matching the code list")
    if codelist.codes.shape[1] != (codelist.m + 1) // 2:
        raise ValueError("quick scan requires nibble-packed 4-bit codes")
    if init_count < 1:
        raise ValueError("init_count must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    prefix_d = scan_distances(tables, codelist.codes[:init_count])
    qt = quantize_tables(tables, prefix_d, r, BINS)
    dq = quantized_distances(codelist.codes, qt).astype(np.float64)
    best_d, best_i = _select_best(dq, codelist.ids, r)
    return NeighborSet.from_pairs(r, best_d, best_i), qt
