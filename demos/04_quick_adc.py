"""
4-bit codes scanned in their packed layout
==========================================

With b=4 every lookup table has 16 entries, and two components share one
byte of the stored code, so 16x4 codes take 8 bytes like 8x8 codes. The
kernel reads those bytes in place: one lookup per byte in a table of summed
entry pairs. Distances are quantized to 8-bit integers with saturating adds;
ranking quality is nearly unchanged.
"""

from pqscan import (
    CodeList,
    TrainConfig,
    compute_tables,
    exact_knn,
    generate_synthetic,
    qadc_scan,
    recall_at_r,
    scan,
    train_pq,
)

import numpy as np

rows = generate_synthetic(50_300, 32, 256, seed=9)
base, queries = rows[:50_000], rows[50_000:]
truth = exact_knn(base, queries, 100)

# 16 sub-quantizers x 4 bits = 8-byte codes, same budget as 8x8
pq = train_pq(base[:20_000], m=16, b=4, cfg=TrainConfig(kmeans_iters=15, seed=0))
codelist = CodeList.from_vectors(pq, base)
print(f"{codelist.n} codes of {codelist.m} components in "
      f"{codelist.codes.shape[1]} bytes each")

float_ids, quant_ids = [], []
for q in queries:
    tables = compute_tables(pq, q)
    float_ids.append([i for _, i in scan(codelist, tables, r=100).items()])
    nset, qt = qadc_scan(codelist, tables, init_count=200, r=100)
    quant_ids.append([i for _, i in nset.items()])

r_float = recall_at_r(np.array(float_ids), truth, 100)
r_quant = recall_at_r(np.array(quant_ids), truth, 100)
print(f"Recall@100 with float tables:     {r_float:.3f}")
print(f"Recall@100 with quantized tables: {r_quant:.3f}")

# the kernel ranks by 8-bit bins; rescale() maps bins back to distances
dist, ident = nset.items()[0]
print(f"closest id for the last query: {ident}, "
      f"bin {dist:.0f} -> distance about {qt.rescale(np.uint8(dist)):.0f}")
