"""Quantized scan kernel for nibble-packed 4-bit codes.

With b=4 each lookup table has 16 entries, so after 127-bin quantization a
whole table fits one SIMD register. The kernel reads the stored codes in
place, two components per byte (component 2j in the low nibble of byte j,
2j+1 in the high nibble): one gather per byte column from a 256-entry table
of summed entry pairs, and one clamp at 127. Works under any inverted index
because it needs no code layout beyond the stored one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fastscan import BINS, QuantParams, prefix_quant_params, quantize
from .scan import (
    BLOCK,
    CodeList,
    LookupTables,
    NeighborSet,
    _select_best,
    # Not called here; the benchmark's tracer patches this name.
    detranspose_blocks,  # noqa: F401
    scan_distances,
)

DEFAULT_INIT_COUNT = 200


@dataclass
class QuantizedTables4:
    """m 16-entry tables of 8-bit values in [0, 127], plus their range."""

    tables: np.ndarray
    params: QuantParams

    def __post_init__(self):
        self.tables = np.ascontiguousarray(self.tables, dtype=np.uint8)
        if self.tables.ndim != 2 or self.tables.shape[1] != 16:
            raise ValueError("quantized tables must have shape (m, 16)")
        if np.any(self.tables > BINS):
            raise ValueError("quantized entries must be <= 127")

    @property
    def m(self) -> int:
        return self.tables.shape[0]

    def rescale(self, bins) -> np.ndarray | float:
        """Map quantized distances back to representative float values."""
        p = self.params
        v = np.asarray(bins, dtype=np.float64) * (p.qmax - p.qmin) / BINS + p.qmin
        return float(v[()]) if v.ndim == 0 else v


def quantize_tables_4bit(
    tables: LookupTables, params: QuantParams
) -> QuantizedTables4:
    """127-bin quantization of 16-entry tables (same scheme as fast scan)."""
    if tables.k != 16:
        raise ValueError("4-bit tables must have 16 entries per sub-space")
    return QuantizedTables4(quantize(params, tables.tables), params)


def qadc_block(block: np.ndarray, qt: QuantizedTables4) -> np.ndarray:
    """Distances of one block of 16 codes from transpose_blocks.

    Row j carries components 2j (low nibble) and 2j+1 (high nibble) of all
    16 codes; each table lookup is added with saturation at 127. Returns 16
    uint8 distances.
    """
    block = np.asarray(block, dtype=np.uint8)
    t = qt.tables
    if t.shape[0] % 2 != 0:
        raise ValueError("block kernel needs even m")
    if block.shape != (t.shape[0] // 2, BLOCK):
        raise ValueError(f"block must have shape ({t.shape[0] // 2}, {BLOCK})")
    acc = np.zeros(BLOCK, dtype=np.int16)
    for j in range(block.shape[0]):
        row = block[j]
        acc = np.minimum(acc + t[2 * j][row & 0x0F], BINS)
        acc = np.minimum(acc + t[2 * j + 1][row >> 4], BINS)
    return acc.astype(np.uint8)


def pair_tables(qt: QuantizedTables4) -> np.ndarray:
    """(ceil(m/2), 256) sums of table-entry pairs: entry [j, byte] is
    qt[2j][byte & 15] + qt[2j+1][byte >> 4] (0 for the missing 2j+1 of odd m).

    Entries are at most 254, so int16 holds the sum of up to 129 columns.
    """
    t = qt.tables.astype(np.int16 if qt.m <= 258 else np.int32)
    if qt.m % 2:
        t = np.vstack([t, np.zeros((1, 16), dtype=t.dtype)])
    return (t[1::2, :, None] + t[0::2, None, :]).reshape(-1, 256)


def quantized_distances(codes: np.ndarray, qt: QuantizedTables4) -> np.ndarray:
    """Per-code table sums over nibble-packed (n, ceil(m/2)) codes, clamped
    at 127.

    Equals clamping after every component add, as qadc_block does: all
    entries are non-negative, so a sum that reaches 127 never comes back
    below it.
    """
    codes = np.asarray(codes)
    pairs = pair_tables(qt)
    if codes.ndim != 2 or codes.shape[1] != pairs.shape[0]:
        raise ValueError(f"codes must have shape (n, {pairs.shape[0]})")
    acc = np.zeros(codes.shape[0], dtype=pairs.dtype)
    for j in range(pairs.shape[0]):
        acc += pairs[j].take(codes[:, j])
    return np.minimum(acc, BINS).astype(np.uint8)


def qadc_scan(
    codelist: CodeList,
    tables: LookupTables,
    init_count: int,
    r: int,
) -> tuple[NeighborSet, QuantizedTables4]:
    """Scan nibble-packed codes with quantized tables; r smallest quantized
    distances.

    The quantization range comes from a float-table scan of the first
    init_count codes: qmax is the r-th smallest of those distances (largest
    seen if fewer). Returned distances are quantized bins; ties resolve to
    the smaller id.
    """
    if tables.k != 16 or tables.m != codelist.m:
        raise ValueError("quick scan requires 4-bit tables matching the code list")
    if codelist.codes.shape[1] != (codelist.m + 1) // 2:
        raise ValueError("quick scan requires nibble-packed 4-bit codes")
    if init_count < 1:
        raise ValueError("init_count must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if codelist.n == 0:
        raise ValueError("empty code list")
    prefix_d = scan_distances(tables, codelist.codes[:init_count])
    qt = quantize_tables_4bit(tables, prefix_quant_params(tables, prefix_d, r))
    dq = quantized_distances(codelist.codes, qt).astype(np.float64)
    best_d, best_i = _select_best(dq, codelist.ids, r)
    return NeighborSet.from_pairs(r, best_d, best_i), qt
