"""
4-bit codes scanned in their packed layout
==========================================

With b=4 every lookup table has 16 entries, and two components share one
byte of the stored code, so 16x4 codes take 8 bytes like 8x8 codes. Quick
ADC reads those bytes in place: one int16 lookup per byte in a table of
summed, quantized entry pairs gives each code a lower bound on its
distance. Only the codes that bound cannot rule out get an exact distance,
so the result is exactly the plain scan's.
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

float_ids, quick_ids, pruned, same = [], [], [], 0
for q in queries:
    tables = compute_tables(pq, q)
    want = scan(codelist, tables, r=100)
    # one list here; an inverted index passes every visited list at once
    nset, stats = qadc_scan([codelist], [tables], r=100)
    same += nset.items() == want.items()
    float_ids.append([i for _, i in want.items()])
    quick_ids.append([i for _, i in nset.items()])
    pruned.append(stats.pruned_fraction)

r_float = recall_at_r(np.array(float_ids), truth, 100)
r_quick = recall_at_r(np.array(quick_ids), truth, 100)
print(f"Recall@100 with the plain scan: {r_float:.3f}")
print(f"Recall@100 with Quick ADC:      {r_quick:.3f}")
print(f"results equal to the plain scan's: {same} of {len(queries)} queries")
print(f"codes pruned by the bound: {np.mean(pruned):.1%} on average")

# the distances are exact ADC distances, not quantized bins
dist, ident = nset.items()[0]
print(f"closest id for the last query: {ident}, distance {dist:.1f} "
      f"({stats.checked} of {stats.total} codes got an exact distance)")
