"""
Two-pass search with derived quantizers
=======================================

High-resolution sub-quantizers (say b=10, so 1024 centroids) give accurate
distances but slow table computation. A derived quantizer reuses the same
codes at lower resolution: the low bits of each code index a small codebook
whose centroids average the full ones. Pass 1 scans cheap derived tables
and keeps the codes of the nearest capped distance buckets, sorted by
bucket; pass 2 reranks the survivors with full resolution, computing only
the table entries it actually touches.
"""

import numpy as np

from pqscan import (
    CodeList,
    LazyTables,
    TrainConfig,
    compute_tables,
    encode,
    exact_knn,
    generate_synthetic,
    recall_at_r,
    scan,
    search_two_pass,
    train_derived,
)

rows = generate_synthetic(30_010, 32, 64, seed=11)
base, queries = rows[:30_000], rows[30_000:]
truth = exact_knn(base, queries, 100)

# b=10 full resolution, bbar=5 derived: table work drops by a factor of 32
dpq = train_derived(base[:10_000], m=4, b=10, bbar=5,
                    cfg=TrainConfig(kmeans_iters=10, seed=2))
db = CodeList(encode(dpq, base))
print(f"full codebooks: {dpq.k} centroids per sub-space; "
      f"derived: {dpq.kbar}")

from pqscan import (
    compute_compact_tables,
    quantize_compact_tables,
    rerank,
    scan_candidates,
)

r2 = len(base) // 10  # candidates kept by the first pass
full_ids, two_ids = [], []
lookups = []
for q in queries:
    exact_set = scan(db, compute_tables(dpq, q), r=100)
    full_ids.append([i for _, i in exact_set.items()])

    result = search_two_pass(dpq, db, q, r=100, r2=r2)
    two_ids.append([i for _, i in result.items()])

    # count how much of the big table the lazy rerank actually filled in
    compact = compute_compact_tables(dpq, q)
    qt = quantize_compact_tables(compact, db, r2)
    cand = scan_candidates(db, qt, r2)
    lazy = LazyTables(dpq, q)
    rerank(db, cand, dpq, q, r=100, lazy=lazy)
    lookups.append(lazy.computed)

r_full = recall_at_r(np.array(full_ids), truth, 100)
r_two = recall_at_r(np.array(two_ids), truth, 100)
total_entries = dpq.m * dpq.k
print(f"Recall@100 full scan at b=10:  {r_full:.3f}")
print(f"Recall@100 two-pass (r2=10%):  {r_two:.3f}")
print(f"lazy tables computed {np.mean(lookups):.0f} of "
      f"{total_entries} entries per query ({np.mean(lookups) / total_entries:.0%})")
