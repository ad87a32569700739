"""
Pruned exact scan over 8x8 codes
================================

The pruned scan, `qadc_scan`, reads each stored 8x8 code as four 16-bit
words, two components per word. One int16 lookup per word in a table of
summed, quantized entry pairs gives each code a lower bound on its distance,
and only the codes that bound cannot rule out get an exact distance. Most
codes never get one, yet the results are identical to the plain scan.
"""

import time

import numpy as np

from pqscan import (
    CodeList,
    TrainConfig,
    compute_tables,
    encode,
    generate_synthetic,
    qadc_scan,
    scan,
    train_pq,
)

rows = generate_synthetic(100_020, 128, 16, seed=7)
base, queries = rows[:100_000], rows[100_000:]

cfg = TrainConfig(kmeans_iters=12, seed=1)
pq = train_pq(base[:20_000], m=8, b=8, cfg=cfg)
codelist = CodeList(encode(pq, base))
print(f"{codelist.n} codes, {codelist.codes.shape[1]} bytes per code")

same, checked, pruned = 0, [], []
for qi, q in enumerate(queries):
    tables = compute_tables(pq, q)

    t0 = time.perf_counter()
    exact = scan(codelist, tables, r=100)
    t_scan = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast, stats = qadc_scan([codelist], [tables], r=100)
    t_fast = time.perf_counter() - t0

    same += fast.items() == exact.items()
    checked.append(stats.checked)
    pruned.append(stats.pruned_fraction)
    if qi < 5:
        print(f"query {qi}: {stats.checked} of {stats.total} codes got an exact "
              f"distance (scan {t_scan * 1e3:.0f} ms, fast {t_fast * 1e3:.0f} ms)")

print(f"results equal to the plain scan's: {same} of {len(queries)} queries")
print(f"exact distances per query: median {np.median(checked):.0f}, "
      f"max {max(checked)}; the first 100 codes set the scale")
print(f"codes pruned by the bound: {np.mean(pruned):.1%} on average")
