import numpy as np
import pytest

from pqscan import (
    GroundTruth,
    exact_knn,
    generate_synthetic,
    read_vecs,
    recall_at_r,
    write_vecs,
)
from pqscan._binio import FormatError


def brute_knn(base, queries, k):
    """Independent O(n*q) reference: plain python loops, no shared code."""
    ids = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k), dtype=np.float64)
    for qi, q in enumerate(queries):
        pairs = []
        for i, row in enumerate(base):
            diff = row.astype(np.float64) - q.astype(np.float64)
            pairs.append((float(diff @ diff), i))
        pairs.sort()
        ids[qi] = [p[1] for p in pairs[:k]]
        dists[qi] = [p[0] for p in pairs[:k]]
    return ids, dists


def test_fvecs_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(13, 7)).astype(np.float32)
    path = tmp_path / "x.fvecs"
    write_vecs(path, arr, "fvecs")
    back = read_vecs(path, "fvecs")
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_bvecs_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 256, size=(9, 16), dtype=np.uint8)
    path = tmp_path / "x.bvecs"
    write_vecs(path, arr, "bvecs")
    np.testing.assert_array_equal(read_vecs(path, "bvecs"), arr)


def test_ivecs_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.integers(-5, 10**6, size=(4, 100), dtype=np.int32)
    path = tmp_path / "x.ivecs"
    write_vecs(path, arr, "ivecs")
    np.testing.assert_array_equal(read_vecs(path, "ivecs"), arr)


def test_read_vecs_rejects_inconsistent_dim(tmp_path):
    path = tmp_path / "bad.fvecs"
    with open(path, "wb") as f:
        f.write(np.int32(2).tobytes())
        f.write(np.zeros(2, dtype=np.float32).tobytes())
        f.write(np.int32(3).tobytes())
        f.write(np.zeros(3, dtype=np.float32).tobytes())
    with pytest.raises(FormatError):
        read_vecs(path, "fvecs")


def test_read_vecs_rejects_truncated_file(tmp_path):
    path = tmp_path / "trunc.fvecs"
    with open(path, "wb") as f:
        f.write(np.int32(4).tobytes())
        f.write(np.zeros(2, dtype=np.float32).tobytes())
    with pytest.raises(FormatError):
        read_vecs(path, "fvecs")


def test_generate_synthetic_empty():
    out = generate_synthetic(0, 16, 4, seed=0)
    assert out.shape == (0, 16)


def test_generate_synthetic_deterministic():
    a = generate_synthetic(50, 8, 4, seed=9)
    b = generate_synthetic(50, 8, 4, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.float32


def test_generate_synthetic_clusterable():
    # Points drawn near one of `clusters` centers: each point's nearest
    # other points should overwhelmingly share its blob.
    x = generate_synthetic(1000, 32, 8, seed=1)
    truth = exact_knn(x, x[:20], 2)
    self_dist = truth.distances[:, 0]
    np.testing.assert_allclose(self_dist, 0.0, atol=1e-3)
    # nearest non-self neighbor far closer than the typical pair
    nn = truth.distances[:, 1]
    typical = float(np.median(((x[:20, None, :] - x[None, ::37, :]) ** 2).sum(-1)))
    assert np.median(nn) < typical / 4


def test_exact_knn_matches_independent_reference():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(1000, 16)).astype(np.float32)
    queries = rng.normal(size=(10, 16)).astype(np.float32)
    truth = exact_knn(base, queries, 10)
    ref_ids, ref_dists = brute_knn(base, queries, 10)
    np.testing.assert_array_equal(truth.ids, ref_ids)
    np.testing.assert_allclose(truth.distances, ref_dists, rtol=1e-6)


def test_exact_knn_permutation_consistent():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(200, 8)).astype(np.float32)
    queries = rng.normal(size=(5, 8)).astype(np.float32)
    perm = rng.permutation(200)
    t1 = exact_knn(base, queries, 5)
    t2 = exact_knn(base[perm], queries, 5)
    np.testing.assert_allclose(
        np.sort(t1.distances, axis=1), np.sort(t2.distances, axis=1), rtol=1e-6
    )
    np.testing.assert_array_equal(perm[t2.ids], t1.ids)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side, message", [
    ("base", "base vectors contain non-finite values"),
    ("queries", "queries contain non-finite values"),
])
def test_exact_knn_rejects_non_finite(side, message, bad, monkeypatch):
    rng = np.random.default_rng(5)
    rows = {"base": rng.normal(size=(50, 8)), "queries": rng.normal(size=(4, 8))}
    exact_knn(rows["base"], rows["queries"], 3)  # finite input is accepted
    rows[side][2, 5] = bad

    def distanced(*args):
        raise AssertionError("distances computed")

    monkeypatch.setattr("pqscan.data.nearest_k", distanced)
    with pytest.raises(ValueError, match=f"^{message}$"):
        exact_knn(rows["base"], rows["queries"], 3)


def test_recall_perfect():
    truth = GroundTruth(
        ids=np.array([[7, 1], [7, 2]]), distances=np.zeros((2, 2))
    )
    results = np.array([[3, 7, 5], [7, 0, 1]])
    assert recall_at_r(results, truth, 3) == 1.0


def test_recall_zero():
    truth = GroundTruth(ids=np.array([[7], [8]]), distances=np.zeros((2, 1)))
    results = np.array([[1, 2], [3, 4]])
    assert recall_at_r(results, truth, 2) == 0.0


def test_recall_monotone_in_R():
    rng = np.random.default_rng(5)
    truth = GroundTruth(
        ids=rng.integers(0, 50, (20, 1)), distances=np.zeros((20, 1))
    )
    results = rng.integers(0, 50, (20, 30))
    vals = [recall_at_r(results, truth, R) for R in range(1, 31)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
