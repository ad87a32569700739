import io

import numpy as np
import pytest

from pqscan import (
    ProductQuantizer,
    TrainConfig,
    build_ivf,
    compute_tables,
    decode,
    encode,
    kmeans,
    load_quantizer,
    same_size_kmeans,
    save_quantizer,
    train_derived,
    train_opq,
    train_pq,
)

from pqscan import quantizer
from pqscan._dist import _GROUP_MIN_ROWS, centroid_groups
from pqscan.quantizer import ENCODE_ROWS, _mean_update

from conftest import adc_distance, unpack
from test_dist import nearest_oracle, repair_empty_oracle

CFG = TrainConfig(kmeans_iters=15, seed=2)


def two_blobs(n_per, d, gap, sigma, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, sigma, (n_per, d))
    b = rng.normal(0.0, sigma, (n_per, d)) + gap
    return np.vstack([a, b]), a.mean(axis=0), b.mean(axis=0)


def test_kmeans_distinct_points_zero_error():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(8, 4)) * 100
    cents, assign = kmeans(pts, 8, CFG)
    # each point its own centroid
    np.testing.assert_allclose(
        np.sort(cents, axis=0), np.sort(pts.astype(np.float32), axis=0), atol=1e-4
    )
    recon = cents[assign]
    assert float(((pts - recon) ** 2).sum()) < 1e-6


def test_kmeans_two_blobs_recovers_means():
    pts, mean_a, mean_b = two_blobs(500, 6, gap=50.0, sigma=1.0, seed=1)
    cents, _ = kmeans(pts, 2, CFG)
    order = np.argsort(cents[:, 0])  # blob a sits at 0, blob b at +50
    got_a, got_b = cents[order[0]], cents[order[1]]
    tol = 3.0 * 1.0 / np.sqrt(500)
    assert np.abs(got_a - mean_a).max() < tol
    assert np.abs(got_b - mean_b).max() < tol


def test_kmeans_lloyd_condition():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(300, 5))
    cents, assign = kmeans(pts, 10, CFG)
    d2 = ((pts[:, None, :] - cents[None].astype(np.float64)) ** 2).sum(-1)
    np.testing.assert_array_equal(assign, np.argmin(d2, axis=1))


def test_same_size_kmeans_exact_sizes():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(256, 8))
    _, part = same_size_kmeans(pts, 16, CFG)
    assert [len(g) for g in part] == [16] * 16
    all_ids = np.sort(np.concatenate(part))
    np.testing.assert_array_equal(all_ids, np.arange(256))


def test_same_size_kmeans_singletons():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(12, 3))
    cents, part = same_size_kmeans(pts, 12, CFG)
    assert all(len(g) == 1 for g in part)
    recon = np.vstack([cents[i] for i, g in enumerate(part) for _ in g])
    np.testing.assert_allclose(
        np.sort(recon, axis=0), np.sort(pts.astype(np.float32), axis=0), atol=1e-4
    )


def test_same_size_kmeans_recovers_tight_blobs():
    rng = np.random.default_rng(5)
    centers = rng.normal(0, 100, (4, 6))
    labels = np.repeat(np.arange(4), 16)
    pts = centers[labels] + rng.normal(0, 0.1, (64, 6))
    _, part = same_size_kmeans(pts, 4, CFG)
    got = {frozenset(g.tolist()) for g in part}
    expect = {frozenset(np.flatnonzero(labels == i).tolist()) for i in range(4)}
    assert got == expect


def test_train_pq_shapes_8x8():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2000, 128))
    pq = train_pq(x, 8, 8, TrainConfig(kmeans_iters=2, seed=0))
    assert pq.codebooks.shape == (8, 256, 16)
    codes = encode(pq, x[:10])
    assert codes.dtype == np.uint8
    assert codes.shape == (10, 8)  # 8 bytes = 64-bit codes


def test_train_pq_shapes_16x4():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(500, 128))
    pq = train_pq(x, 16, 4, TrainConfig(kmeans_iters=2, seed=0))
    assert pq.codebooks.shape == (16, 16, 8)
    codes = encode(pq, x[:5])
    assert codes.shape == (5, 8)  # nibble per sub-space, 64 bits packed


def test_train_pq_m1_is_plain_vq(blob_data):
    # single sub-space spanning all of d: encoding is whole-vector nearest
    cfg = TrainConfig(kmeans_iters=10, seed=1)
    pq = train_pq(blob_data[:500], 1, 4, cfg)
    assert pq.codebooks.shape == (1, 16, 32)
    x = blob_data[500:520]
    d2 = (
        (x[:, None, :].astype(np.float64) - pq.codebooks[0][None].astype(np.float64))
        ** 2
    ).sum(-1)
    np.testing.assert_array_equal(encode(pq, x)[:, 0], np.argmin(d2, axis=1))


def test_encode_tie_breaks_to_lower_index():
    books = np.zeros((1, 4, 2), dtype=np.float32)
    books[0] = [[0, 0], [4, 0], [2, 1], [2, -1]]
    pq = ProductQuantizer(m=1, b=2, d=2, codebooks=books)
    # (2, 0) ties centroids 2 and 3 at distance 1; lower index wins
    code = encode(pq, np.array([2.0, 0.0], dtype=np.float32))
    assert code[0] == 2


def test_encode_is_per_subspace_argmin(pq44, blob_data):
    x = blob_data[:50]
    codes = unpack(encode(pq44, x), pq44.m)
    dsub = pq44.dsub
    for j in range(pq44.m):
        sub = x[:, j * dsub : (j + 1) * dsub].astype(np.float64)
        book = pq44.codebooks[j].astype(np.float64)
        d2 = ((sub[:, None, :] - book[None]) ** 2).sum(-1)
        np.testing.assert_array_equal(d2[np.arange(50), codes[:, j]], d2.min(axis=1))


@pytest.mark.parametrize("m,b,opq", [(3, 4, True), (2, 8, False)])
def test_encode_in_row_chunks_equals_per_row(blob_data, m, b, opq):
    # An odd row count past one chunk: a whole chunk, then a partial one,
    # each widened from float32 on its own. Odd m packs a padding nibble.
    x = np.tile(blob_data[:, :30], (5, 1))[: ENCODE_ROWS + 3]
    x += np.random.default_rng(m).normal(0, 1, x.shape).astype(np.float32)
    cfg = TrainConfig(kmeans_iters=4, opq_iters=2, seed=m)
    pq = (train_opq if opq else train_pq)(x[:1000].astype(np.float64), m, b, cfg)
    got = encode(pq, x)
    assert got.shape == (x.shape[0], pq.code_width) and got.dtype == pq.code_dtype
    np.testing.assert_array_equal(got, np.stack([encode(pq, row) for row in x]))


@pytest.mark.parametrize("b", [10, 12])
def test_wide_codebook_codes_are_the_per_subspace_cdist_argmin(b):
    # Codebooks of 2^10 and 2^12 clustered centroids, encoded in three row
    # chunks: encode groups each codebook once and every chunk's nearest
    # call scores only the groups the bound keeps. Some centroids repeat
    # and some rows sit on one, so ties go to the lower index.
    rng = np.random.default_rng(b)
    m, d = 2, 16
    books = rng.normal(size=(m, 16, 1 << b, d // m)).astype(np.float32)
    books = books[:, :, 0].repeat(1 << (b - 4), axis=1) * 3 + books[:, 0]
    books[:, 1::7] = books[:, : books[:, 1::7].shape[1]]
    pq = ProductQuantizer(m=m, b=b, d=d, codebooks=books)
    n = _GROUP_MIN_ROWS + ENCODE_ROWS // 2
    x = decode(pq, rng.integers(0, 1 << b, (n, m)).astype(np.uint16))
    x[200:] += rng.normal(0, 0.3, x[200:].shape).astype(np.float32)
    codes = encode(pq, x)
    assert codes.dtype == np.uint16
    for j in range(m):
        sub = x[:, j * pq.dsub : (j + 1) * pq.dsub]
        assert centroid_groups(books[j], sub) is not None
        np.testing.assert_array_equal(codes[:, j], nearest_oracle(sub, books[j])[0])


def test_decode_encode_of_centroid_concat(pq44):
    # a vector assembled from codebook rows is exactly representable
    parts = [pq44.codebooks[j][3] for j in range(pq44.m)]
    x = np.concatenate(parts)
    back = decode(pq44, encode(pq44, x[None, :]))
    np.testing.assert_allclose(back[0], x, atol=1e-5)


def test_identity_rotation_equals_no_rotation(pq44, blob_data):
    with_rot = ProductQuantizer(
        m=pq44.m,
        b=pq44.b,
        d=pq44.d,
        codebooks=pq44.codebooks,
        rotation=np.eye(pq44.d, dtype=np.float32),
    )
    x = blob_data[:20]
    np.testing.assert_array_equal(encode(pq44, x), encode(with_rot, x))
    np.testing.assert_allclose(
        decode(pq44, encode(pq44, x)), decode(with_rot, encode(with_rot, x)), atol=1e-6
    )


def test_reconstruction_error_equals_adc(pq44, blob_data):
    # cross-module consistency: ||x - decode(encode(x))||^2 == adc distance
    for x in blob_data[:25]:
        tables = compute_tables(pq44, x)
        code = encode(pq44, x)
        err = float(((x - decode(pq44, code[None, :])[0]) ** 2).sum())
        got = adc_distance(tables, code)
        assert got == pytest.approx(err, rel=1e-3)


def test_encode_permutation_covariant(pq44, blob_data):
    rng = np.random.default_rng(8)
    books = pq44.codebooks.copy()
    perm = rng.permutation(pq44.k)
    books[0] = books[0][perm]
    shuffled = ProductQuantizer(m=pq44.m, b=pq44.b, d=pq44.d, codebooks=books)
    x = blob_data[:30]
    np.testing.assert_allclose(
        decode(pq44, encode(pq44, x)), decode(shuffled, encode(shuffled, x)), atol=1e-6
    )


def test_opq_zero_iters_is_plain_pq(blob_data):
    cfg = TrainConfig(kmeans_iters=5, opq_iters=0, seed=1)
    opq = train_opq(blob_data[:400], 4, 4, cfg)
    pq = train_pq(blob_data[:400], 4, 4, cfg)
    np.testing.assert_array_equal(opq.rotation, np.eye(32, dtype=np.float32))
    np.testing.assert_array_equal(opq.codebooks, pq.codebooks)


def test_opq_rotation_orthonormal(blob_data):
    cfg = TrainConfig(kmeans_iters=5, opq_iters=8, seed=1)
    opq = train_opq(blob_data[:400], 4, 4, cfg)
    rtr = opq.rotation.astype(np.float64).T @ opq.rotation.astype(np.float64)
    assert np.abs(rtr - np.eye(32)).max() <= 1e-4


def quantization_error(pq, x):
    return float(((x - decode(pq, encode(pq, x))) ** 2).sum())


def test_opq_no_gain_on_isotropic(blob_data):
    cfg = TrainConfig(kmeans_iters=10, opq_iters=10, seed=2)
    x = blob_data[:800]
    e_pq = quantization_error(train_pq(x, 4, 4, cfg), x)
    e_opq = quantization_error(train_opq(x, 4, 4, cfg), x)
    assert e_opq <= e_pq * 1.02


def test_opq_beats_pq_on_cross_boundary_correlation():
    # dominant correlated pair straddling the first sub-space boundary
    rng = np.random.default_rng(9)
    n, d = 3000, 8
    x = rng.normal(0, 0.2, (n, d))
    shared = rng.normal(0, 30.0, n)
    x[:, 3] += shared
    x[:, 4] += shared
    cfg = TrainConfig(kmeans_iters=15, opq_iters=25, seed=3)
    e_pq = quantization_error(train_pq(x, 4, 2, cfg), x)
    e_opq = quantization_error(train_opq(x, 4, 2, cfg), x)
    assert e_opq < e_pq


def test_opq_error_trace_non_increasing_tail(blob_data):
    cfg = TrainConfig(kmeans_iters=5, opq_iters=10, seed=4)
    trace = []
    train_opq(blob_data[:500], 4, 4, cfg, error_trace=trace)
    assert len(trace) == 10
    assert trace[-1] <= trace[0] * 1.001


def opq_trace_oracle(training, m, b, cfg):
    """train_opq's loop with cdist assignments; returns the error trace,
    each entry measured against the codebooks that made the assignment."""
    n, d = training.shape
    dsub, k = d // m, 1 << b
    books = train_pq(training, m, b, cfg).codebooks.astype(np.float64)
    rot = np.eye(d)
    trace = []
    for _ in range(cfg.opq_iters):
        z = training @ rot.T
        recon = np.empty_like(z)
        total = 0.0
        for j in range(m):
            sub = z[:, j * dsub : (j + 1) * dsub]
            assign, dist = nearest_oracle(sub, books[j])
            if repair_empty_oracle(sub, books[j], assign, dist):
                assign, dist = nearest_oracle(sub, books[j])
            total += float(dist.sum())
            books[j] = _mean_update(sub, assign, k, books[j])
            recon[:, j * dsub : (j + 1) * dsub] = books[j][assign]
        trace.append(total / n)
        u, _, vh = np.linalg.svd(training.T @ recon)
        rot = (u @ vh).T
    return trace


@pytest.mark.parametrize("m,b", [(4, 4), (8, 3)])
def test_opq_error_trace_matches_cdist_recomputation(blob_data, m, b):
    cfg = TrainConfig(kmeans_iters=5, opq_iters=4, seed=6)
    training = blob_data[:400].astype(np.float64)
    trace = []
    train_opq(training, m, b, cfg, error_trace=trace)
    want = opq_trace_oracle(training, m, b, cfg)
    np.testing.assert_array_equal(np.array(trace).view(np.int64), np.array(want).view(np.int64))


def test_train_rejects_bad_args(blob_data):
    from pqscan import TrainError

    with pytest.raises(ValueError):
        train_pq(blob_data[:100], 5, 4, CFG)  # d=32 not divisible by 5
    with pytest.raises(TrainError):
        train_pq(blob_data[:8], 4, 8, CFG)  # fewer points than centroids


def test_train_derived_rejects_bad_args(blob_data):
    from pqscan import TrainError

    with pytest.raises(ValueError):
        train_derived(blob_data[:100], 5, 4, 3, CFG)  # d=32 not divisible by 5
    with pytest.raises(TrainError):
        train_derived(blob_data[:8], 4, 8, 7, CFG)  # fewer points than centroids


@pytest.mark.parametrize("m", [0, -4])
def test_m_below_1_is_refused(blob_data, m):
    """m < 1 is a ValueError that names m, not a division by zero in d % m
    or an empty stack of codebooks."""
    message = f"m must be >= 1, got {m}"
    with pytest.raises(ValueError, match=message):
        ProductQuantizer(m=m, b=4, d=32, codebooks=np.zeros((0, 16, 0)))
    for train in (train_pq, train_opq):
        with pytest.raises(ValueError, match=message):
            train(blob_data[:100], m, 4, CFG)
    with pytest.raises(ValueError, match=message):
        train_derived(blob_data[:100], m, 4, 2, CFG)


def test_quantizer_round_trip(tmp_path, pq44):
    path = tmp_path / "q.pqz"
    save_quantizer(path, pq44)
    back = load_quantizer(path)
    assert (back.m, back.b, back.d) == (pq44.m, pq44.b, pq44.d)
    np.testing.assert_array_equal(back.codebooks, pq44.codebooks)
    assert back.rotation is None


def test_quantizer_round_trip_with_rotation(tmp_path, blob_data):
    cfg = TrainConfig(kmeans_iters=4, opq_iters=4, seed=5)
    opq = train_opq(blob_data[:400], 4, 4, cfg)
    path = tmp_path / "q.pqz"
    save_quantizer(path, opq)
    back = load_quantizer(path)
    np.testing.assert_array_equal(back.rotation, opq.rotation)
    np.testing.assert_array_equal(back.codebooks, opq.codebooks)


# Every build entry point, called on 64 x 8 vectors; each must reject a
# non-finite coordinate with ValueError before any training or encoding.
BUILD_ENTRY_POINTS = {
    "kmeans": lambda x: kmeans(x, 4, CFG),
    "train_pq": lambda x: train_pq(x, 2, 2, CFG),
    "train_opq": lambda x: train_opq(x, 2, 2, TrainConfig(kmeans_iters=2, opq_iters=1)),
    "train_derived": lambda x: train_derived(x, 2, 3, 1, CFG),
    "encode": lambda x: encode(
        ProductQuantizer(m=2, b=2, d=8, codebooks=np.zeros((2, 4, 4))), x
    ),
    "build_ivf": lambda x: build_ivf(x, 2, 2, 2, CFG),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(BUILD_ENTRY_POINTS))
def test_build_entry_points_reject_non_finite(entry, bad):
    x = np.random.default_rng(8).normal(size=(64, 8))
    BUILD_ENTRY_POINTS[entry](x)  # finite input is accepted
    x[17, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BUILD_ENTRY_POINTS[entry](x)


POINTS_ERROR = r"points must be 2-D \(n, d\) with d >= 1"


@pytest.mark.parametrize("shape, k, message", [
    ((12, 3), 0, "k must be >= 1, got 0"),
    ((12, 3), -2, "k must be >= 1, got -2"),
    ((12,), 2, POINTS_ERROR),
    ((12, 0), 2, POINTS_ERROR),
    ((2, 3, 2), 2, POINTS_ERROR),
])
@pytest.mark.parametrize("fn", [kmeans, same_size_kmeans])
def test_kmeans_checks_k_and_points_before_any_work(monkeypatch, fn, shape, k, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input check")

    monkeypatch.setattr(quantizer, "_Shares", no_work)
    monkeypatch.setattr(quantizer, "kmeans", no_work)
    with pytest.raises(ValueError, match=message):
        fn(np.zeros(shape), k)
