"""Quantized scan kernel for 4-bit codes over transposed blocks.

With b=4 each lookup table has 16 entries, so after 127-bin quantization a
whole table fits one SIMD register and 16 codes are processed per step:
even components come from low nibbles, odd components from 4-bit right
shifts, accumulated with saturating 8-bit adds. Works under any inverted
index because no code layout beyond block transposition is required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fastscan import BINS, QuantParams, quantize
from .scan import (
    BLOCK,
    LookupTables,
    NeighborSet,
    TransposedCodeList,
    _select_best,
    detranspose_blocks,
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
    """Distances of one transposed block of 16 codes.

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


def quantized_distances(codes: np.ndarray, qt: QuantizedTables4) -> np.ndarray:
    """Per-code saturating table sums, identical to qadc_block lane-for-lane.

    Both paths clamp after every component add; with non-negative entries
    that equals clamping once at the end, so the block kernel and this
    column-wise form agree exactly.
    """
    codes = np.asarray(codes)
    t = qt.tables
    if codes.ndim != 2 or codes.shape[1] != t.shape[0]:
        raise ValueError(f"codes must have shape (n, {t.shape[0]})")
    acc = np.zeros(codes.shape[0], dtype=np.int16)
    for j in range(t.shape[0]):
        acc = np.minimum(acc + t[j][codes[:, j].astype(np.int64)], BINS)
    return acc.astype(np.uint8)


def qadc_scan(
    tlist: TransposedCodeList,
    tables: LookupTables,
    init_count: int,
    r: int,
) -> tuple[NeighborSet, QuantizedTables4]:
    """Scan all blocks with quantized tables; r smallest quantized distances.

    The quantization range comes from a float-table scan of the first
    init_count codes: qmax is the r-th smallest of those distances (largest
    seen if fewer). Returned distances are quantized bins; ties resolve to
    the smaller id, and tail-block padding never contributes.
    """
    if tlist.b != 4:
        raise ValueError("quick scan requires 4-bit codes")
    if tables.k != 16 or tables.m != tlist.m:
        raise ValueError("tables do not match the code list shape")
    if tlist.m % 2 != 0:
        raise ValueError("quick scan needs even m")
    if init_count < 1:
        raise ValueError("init_count must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if tlist.n == 0:
        raise ValueError("empty code list")
    codelist = detranspose_blocks(tlist)
    n_init = min(init_count, tlist.n)
    prefix_d = scan_distances(tables, codelist.codes[:n_init])
    if n_init >= r:
        qmax = float(np.partition(prefix_d, r - 1)[r - 1])
    else:
        qmax = float(prefix_d.max())
    qmin = float(tables.tables.min())
    params = QuantParams(qmin=qmin, qmax=max(qmax, qmin))
    qt = quantize_tables_4bit(tables, params)
    dq = quantized_distances(codelist.codes, qt).astype(np.float64)
    best_d, best_i = _select_best(dq, codelist.ids, r)
    return NeighborSet.from_pairs(r, best_d, best_i), qt
