"""Dataset readers, synthetic data, the exact-NN oracle, and Recall@R.

The on-disk vector formats are sequences of records, each record being a
little-endian int32 dimension header followed by the components:

* fvecs: d x float32
* bvecs: d x uint8 (widened to float32 on read, no scaling)
* ivecs: d x int32

All records within one file share the same dimension.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._binio import FormatError
from ._dist import nearest_k
from .quantizer import _require_finite

_ELEM = {"fvecs": ("<f4", 4), "bvecs": ("u1", 1), "ivecs": ("<i4", 4)}


@dataclass
class GroundTruth:
    """Per-query true nearest neighbors, nearest first.

    ids[q, j] is the id of the (j+1)-th nearest base vector to query q and
    distances[q, j] the squared Euclidean distance to it. Within a row ids are
    unique and distances non-decreasing.
    """

    ids: np.ndarray
    distances: np.ndarray

    @property
    def n_queries(self) -> int:
        return self.ids.shape[0]

    @property
    def k(self) -> int:
        return self.ids.shape[1]


def read_vecs(path: str | os.PathLike, kind: str) -> np.ndarray:
    """Read a whole fvecs/bvecs/ivecs file into an (n, d) array.

    fvecs and bvecs return float32 (bvecs components widened unscaled);
    ivecs returns int32. An empty file yields a (0, 0) array.
    """
    if kind not in _ELEM:
        raise ValueError(f"unknown vector file kind {kind!r}")
    dtype, itemsize = _ELEM[kind]
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) == 0:
        out_dt = np.int32 if kind == "ivecs" else np.float32
        return np.empty((0, 0), dtype=out_dt)
    if len(buf) < 4:
        raise FormatError("truncated record header", offset=0)
    d = int(np.frombuffer(buf, dtype="<i4", count=1)[0])
    if d <= 0:
        raise FormatError(f"non-positive dimension {d} in record header", offset=0)
    rec = 4 + d * itemsize
    if len(buf) % rec != 0:
        raise FormatError(
            f"file size {len(buf)} is not a multiple of the record size {rec}",
            offset=(len(buf) // rec) * rec,
        )
    n = len(buf) // rec
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(n, rec)
    headers = raw[:, :4].copy().view("<i4").ravel()
    bad = np.flatnonzero(headers != d)
    if bad.size:
        raise FormatError(
            f"record {bad[0]} has dimension {headers[bad[0]]}, expected {d}",
            offset=int(bad[0]) * rec,
        )
    body = raw[:, 4:].copy().view(dtype).reshape(n, d)
    if kind == "ivecs":
        return body.astype(np.int32, copy=False)
    return body.astype(np.float32)


def write_vecs(path: str | os.PathLike, arr: np.ndarray, kind: str) -> None:
    """Write an (n, d) array in the given record format (test fixtures, CLI)."""
    if kind not in _ELEM:
        raise ValueError(f"unknown vector file kind {kind!r}")
    dtype, _ = _ELEM[kind]
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    n, d = arr.shape
    if n and not d:
        raise ValueError("rows of dimension 0 have no readable record")
    body = np.ascontiguousarray(arr, dtype=np.dtype(dtype))
    with open(path, "wb") as f:
        if n == 0:
            return
        header = np.full(n, d, dtype="<i4")
        rows = np.empty((n, 4 + body.itemsize * d), dtype=np.uint8)
        rows[:, :4] = header.view(np.uint8).reshape(n, 4)
        rows[:, 4:] = body.view(np.uint8).reshape(n, body.itemsize * d)
        f.write(rows.tobytes())


def generate_synthetic(n: int, d: int, clusters: int, seed: int) -> np.ndarray:
    """Gaussian-blob data mimicking byte-valued descriptors.

    Cluster centers are uniform in [0, 255]^d, per-axis deviation 20.
    Deterministic for a fixed seed. Returns float32 (n, d).
    """
    if d <= 0 or clusters <= 0:
        raise ValueError("d and clusters must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 255.0, size=(clusters, d))
    if n == 0:
        return np.empty((0, d), dtype=np.float32)
    labels = rng.integers(0, clusters, size=n)
    out = centers[labels] + rng.normal(0.0, 20.0, size=(n, d))
    return out.astype(np.float32)


def exact_knn(base: np.ndarray, queries: np.ndarray, k: int) -> GroundTruth:
    """Brute-force k nearest neighbors under squared Euclidean distance.

    Ties broken by the smaller base id. Requires 1 <= k <= len(base).
    """
    base = np.asarray(base)
    queries = np.asarray(queries)
    if base.ndim != 2 or queries.ndim != 2 or base.shape[1] != queries.shape[1]:
        raise ValueError("base and queries must be 2-D with equal dimensionality")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > base.shape[0]:
        raise ValueError(f"k={k} exceeds base size {base.shape[0]}")
    _require_finite(base, "base vectors")
    _require_finite(queries, "queries")
    ids, dist = nearest_k(queries, base, k)
    return GroundTruth(ids=ids, distances=dist)


def recall_at_r(results: Sequence[Sequence[int]] | np.ndarray, truth: GroundTruth, R: int) -> float:
    """Fraction of queries whose true 1-NN appears in their first R results."""
    if len(results) != truth.n_queries:
        raise ValueError(
            f"{len(results)} result lists for {truth.n_queries} queries"
        )
    hits = 0
    for q, res in enumerate(results):
        res = np.asarray(res)
        if res.shape[0] < R:
            raise ValueError(f"result list {q} has {res.shape[0]} entries, need >= {R}")
        if truth.ids[q, 0] in res[:R]:
            hits += 1
    return hits / max(truth.n_queries, 1)
