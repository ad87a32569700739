import csv
import io

import numpy as np
import pytest

from pqscan import (
    CodeList,
    DerivedPQ,
    load_quantizer,
    load_quantizer_any,
    read_vecs,
    save_codes,
    write_vecs,
)
from pqscan._dist import nearest_k
from pqscan.cli import BENCH_HEADER, main
from pqscan.ivf import KERNELS


def run(capsys, *argv):
    capsys.readouterr()  # drop output from any earlier main() calls
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    base = root / "base.fvecs"
    queries = root / "q.fvecs"
    truth = root / "t.ivecs"
    assert main(["generate", "--out", str(base), "--n", "600", "--d", "16",
                 "--clusters", "8", "--seed", "1"]) == 0
    assert main(["generate", "--out", str(queries), "--n", "8", "--d", "16",
                 "--clusters", "8", "--seed", "1"]) == 0
    assert main(["ground-truth", "--base", str(base), "--queries", str(queries),
                 "--k", "10", "--out", str(truth)]) == 0
    return root


def test_generate_deterministic(tmp_path, workspace):
    out2 = tmp_path / "again.fvecs"
    assert main(["generate", "--out", str(out2), "--n", "600", "--d", "16",
                 "--clusters", "8", "--seed", "1"]) == 0
    a = read_vecs(workspace / "base.fvecs", "fvecs")
    b = read_vecs(out2, "fvecs")
    np.testing.assert_array_equal(a, b)


def test_generate_bvecs(tmp_path):
    out = tmp_path / "x.bvecs"
    assert main(["generate", "--out", str(out), "--n", "40", "--d", "8",
                 "--kind", "bvecs"]) == 0
    arr = read_vecs(out, "bvecs")
    assert arr.shape == (40, 8)
    # byte components come back widened to float, unscaled
    assert arr.dtype == np.float32
    assert np.all(arr == np.floor(arr))
    assert arr.min() >= 0 and arr.max() <= 255


def test_train_encode_query_round_trip(workspace, capsys):
    quant = workspace / "q.pqz"
    codes = workspace / "c.pql"
    assert main(["train", "--base", str(workspace / "base.fvecs"), "--m", "4",
                 "--b", "4", "--iters", "8", "--seed", "2",
                 "--out", str(quant)]) == 0
    assert main(["encode", "--base", str(workspace / "base.fvecs"),
                 "--quantizer", str(quant), "--out", str(codes)]) == 0
    code, out, _ = run(capsys, "query", "--queries", str(workspace / "base.fvecs"),
                       "--codes", str(codes), "--quantizer", str(quant),
                       "--r", "1", "--kernel", "adc")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["query", "rank", "id", "distance"]
    assert rows[1][0] == "0" and rows[1][1] == "0"
    assert float(rows[1][3]) >= 0.0


def test_round_trip_lossless_returns_own_id(tmp_path, capsys):
    # 16 distinct rows, b=4: per-sub-space k-means hits zero error, so every
    # base member is exactly representable and its own code wins at r=1
    base = tmp_path / "b.fvecs"
    quant = tmp_path / "q.pqz"
    codes = tmp_path / "c.pql"
    assert main(["generate", "--out", str(base), "--n", "16", "--d", "8",
                 "--clusters", "16", "--seed", "4"]) == 0
    assert main(["train", "--base", str(base), "--m", "4", "--b", "4",
                 "--iters", "20", "--out", str(quant)]) == 0
    assert main(["encode", "--base", str(base), "--quantizer", str(quant),
                 "--out", str(codes)]) == 0
    code, out, _ = run(capsys, "query", "--queries", str(base),
                       "--codes", str(codes), "--quantizer", str(quant),
                       "--r", "1", "--kernel", "adc")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 16
    for qi, row in enumerate(rows):
        assert int(row[2]) == qi
        assert float(row[3]) < 1e-3


def test_train_reload_identical_encodes(workspace, tmp_path):
    quant = workspace / "q.pqz"
    pq = load_quantizer(quant)
    from pqscan import encode, generate_synthetic

    probe = generate_synthetic(1000, 16, 8, seed=3)
    again = load_quantizer(quant)
    np.testing.assert_array_equal(encode(pq, probe), encode(again, probe))


def test_query_quick_adc_equals_adc_csv(workspace, capsys):
    quant = workspace / "q.pqz"
    codes = workspace / "c.pql"
    outs = {}
    for kernel in ("adc", "quick-adc"):
        code, outs[kernel], _ = run(
            capsys, "query", "--queries", str(workspace / "q.fvecs"),
            "--codes", str(codes), "--quantizer", str(quant),
            "--r", "5", "--kernel", kernel, "--init-count", "50")
        assert code == 0
    assert len(list(csv.reader(io.StringIO(outs["adc"])))) == 1 + 8 * 5
    assert outs["quick-adc"] == outs["adc"]


def test_query_fast_scan_equals_adc_csv(workspace, tmp_path, capsys):
    # fast-scan reads the stored 8x8 codes; --init-count sets its prefix
    quant = tmp_path / "q88.pqz"
    codes = tmp_path / "c88.pql"
    assert main(["train", "--base", str(workspace / "base.fvecs"), "--m", "8",
                 "--b", "8", "--iters", "4", "--seed", "2", "--out", str(quant)]) == 0
    assert main(["encode", "--base", str(workspace / "base.fvecs"),
                 "--quantizer", str(quant), "--out", str(codes)]) == 0
    outs = {}
    for kernel, init_count in (("adc", "200"), ("fast-scan", "30"), ("fast-scan", "1000")):
        code, outs[kernel, init_count], _ = run(
            capsys, "query", "--queries", str(workspace / "q.fvecs"),
            "--codes", str(codes), "--quantizer", str(quant),
            "--r", "10", "--kernel", kernel, "--init-count", init_count)
        assert code == 0
    assert len(list(csv.reader(io.StringIO(outs["adc", "200"])))) == 1 + 8 * 10
    assert outs["fast-scan", "30"] == outs["fast-scan", "1000"] == outs["adc", "200"]
    with pytest.raises(SystemExit):
        main(["query", "--queries", str(workspace / "q.fvecs"), "--codes", str(codes),
              "--quantizer", str(quant), "--kernel", "fast-scan", "--init", "0.5"])


def test_fast_scan_kernel_needs_8x8(workspace, capsys):
    quant = workspace / "q.pqz"
    codes = workspace / "c.pql"
    code, _, err = run(capsys, "query", "--queries", str(workspace / "q.fvecs"),
                       "--codes", str(codes), "--quantizer", str(quant),
                       "--kernel", "fast-scan")
    assert code == 1
    assert err


def test_bench_adc_row(workspace, capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                       "--queries", str(workspace / "q.fvecs"),
                       "--truth", str(workspace / "t.ivecs"),
                       "--m", "4", "--b", "4", "--r", "10", "--iters", "6",
                       "--kernel", "adc", "--csv", str(csv_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(BENCH_HEADER)
    row = dict(zip(rows[0], rows[1]))
    assert row["method"] == "adc"
    assert 0.0 <= float(row["recall"]) <= 1.0
    assert float(row["mean_ms"]) > 0
    # compact csv written alongside
    with open(csv_path) as f:
        compact = list(csv.reader(f))
    assert compact[0] == ["method", "m", "b", "r", "recall", "ms_per_query"]
    assert compact[1][0] == "adc"


def test_bench_fast_scan_recall_equals_adc(tmp_path, capsys):
    base = tmp_path / "b.fvecs"
    queries = tmp_path / "q.fvecs"
    truth = tmp_path / "t.ivecs"
    assert main(["generate", "--out", str(base), "--n", "3000", "--d", "32",
                 "--clusters", "8", "--seed", "5"]) == 0
    assert main(["generate", "--out", str(queries), "--n", "6", "--d", "32",
                 "--clusters", "8", "--seed", "5"]) == 0
    assert main(["ground-truth", "--base", str(base), "--queries", str(queries),
                 "--k", "10", "--out", str(truth)]) == 0
    recalls = {}
    for kernel in ("adc", "fast-scan"):
        code, out, _ = run(capsys, "bench", "--base", str(base),
                           "--queries", str(queries), "--truth", str(truth),
                           "--m", "8", "--b", "8", "--r", "10", "--iters", "4",
                           "--seed", "3", "--kernel", kernel)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        recalls[kernel] = dict(zip(rows[0], rows[1]))
    assert recalls["adc"]["recall"] == recalls["fast-scan"]["recall"]
    assert float(recalls["fast-scan"]["pruned_fraction"]) >= 0.0


@pytest.mark.parametrize("index_args", [[], ["--K", "4", "--ma", "2"]])
def test_bench_quick_adc_reports_pruned_fraction(workspace, capsys, index_args):
    rows = {}
    for kernel in ("adc", "quick-adc"):
        code, out, _ = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                           "--queries", str(workspace / "q.fvecs"),
                           "--truth", str(workspace / "t.ivecs"),
                           "--m", "4", "--b", "4", "--r", "5", "--iters", "5",
                           "--init-count", "20", "--kernel", kernel, *index_args)
        assert code == 0
        rows[kernel] = dict(zip(*csv.reader(io.StringIO(out))))
    assert rows["adc"]["pruned_fraction"] == ""
    assert rows["quick-adc"]["recall"] == rows["adc"]["recall"]
    assert 0.0 < float(rows["quick-adc"]["pruned_fraction"]) < 1.0


def test_bench_empty_base_is_error(tmp_path, capsys):
    base = tmp_path / "empty.fvecs"
    queries = tmp_path / "q.fvecs"
    truth = tmp_path / "t.ivecs"
    csv_path = tmp_path / "out.csv"
    assert main(["generate", "--out", str(base), "--n", "0", "--d", "8"]) == 0
    assert main(["generate", "--out", str(queries), "--n", "2", "--d", "8"]) == 0
    with open(truth, "wb") as f:
        f.write(b"")
    code, out, err = run(capsys, "bench", "--base", str(base),
                         "--queries", str(queries), "--truth", str(truth),
                         "--m", "4", "--b", "4", "--csv", str(csv_path))
    assert code == 1
    assert err
    assert not csv_path.exists()  # no partial CSV on error


def test_bench_ivf_row(workspace, capsys):
    code, out, _ = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                       "--queries", str(workspace / "q.fvecs"),
                       "--truth", str(workspace / "t.ivecs"),
                       "--m", "4", "--b", "4", "--K", "8", "--ma", "4",
                       "--r", "10", "--iters", "5", "--kernel", "adc")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    row = dict(zip(rows[0], rows[1]))
    assert row["K"] == "8"
    assert 0.0 <= float(row["recall"]) <= 1.0



def test_bench_ivf_counts_visited_codes_outside_timed_queries(workspace, capsys, monkeypatch):
    # The coarse lookup that counts visited codes runs once, for all queries
    # together, not inside each timed query.
    import pqscan.cli as cli

    calls = []

    def counting_nearest_k(points, centroids, k):
        calls.append(np.asarray(points).shape[0])
        return nearest_k(points, centroids, k)

    monkeypatch.setattr(cli, "nearest_k", counting_nearest_k)
    code, out, _ = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                       "--queries", str(workspace / "q.fvecs"),
                       "--truth", str(workspace / "t.ivecs"),
                       "--m", "4", "--b", "4", "--K", "8", "--ma", "4",
                       "--r", "10", "--iters", "5", "--kernel", "adc")
    assert code == 0
    assert calls == [8]
    row = dict(zip(*csv.reader(io.StringIO(out))))
    assert float(row["mcodes_per_s"]) > 0.0


def test_build_ivf_and_query(workspace, tmp_path, capsys):
    index = tmp_path / "x.ivf"
    assert main(["build-ivf", "--base", str(workspace / "base.fvecs"),
                 "--K", "8", "--m", "4", "--b", "4", "--iters", "5",
                 "--out", str(index)]) == 0
    code, out, _ = run(capsys, "query", "--queries", str(workspace / "q.fvecs"),
                       "--index", str(index), "--ma", "4", "--r", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["query", "rank", "id", "distance"]
    assert len(rows) == 1 + 8 * 3


def test_query_index_rejects_fast_scan(workspace, tmp_path, capsys):
    index = tmp_path / "x.ivf"
    assert main(["build-ivf", "--base", str(workspace / "base.fvecs"),
                 "--K", "4", "--m", "4", "--b", "4", "--iters", "4",
                 "--out", str(index)]) == 0
    code, _, err = run(capsys, "query", "--queries", str(workspace / "q.fvecs"),
                       "--index", str(index), "--kernel", "fast-scan")
    assert code == 1
    assert err


def test_missing_file_is_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "encode", "--base", str(tmp_path / "nope.fvecs"),
                       "--quantizer", str(tmp_path / "nope.pqz"),
                       "--out", str(tmp_path / "o.pql"))
    assert code == 1
    assert err


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query"])  # missing required --queries
    assert exc.value.code == 2


def test_ground_truth_matches_library(workspace):
    from pqscan import exact_knn

    base = read_vecs(workspace / "base.fvecs", "fvecs")
    queries = read_vecs(workspace / "q.fvecs", "fvecs")
    truth_ids = read_vecs(workspace / "t.ivecs", "ivecs")
    expect = exact_knn(base, queries, 10)
    np.testing.assert_array_equal(truth_ids, expect.ids.astype(np.int32))


# train arguments of a quantizer each query kernel accepts
KERNEL_QUANTIZERS = {
    "adc": ["--m", "4", "--b", "4"],
    "fast-scan": ["--m", "8", "--b", "8"],
    "quick-adc": ["--m", "4", "--b", "4"],
    "derived": ["--m", "4", "--b", "6", "--bderived", "3"],
}


def test_kernel_quantizers_cover_every_kernel():
    assert tuple(KERNEL_QUANTIZERS) == KERNELS


@pytest.mark.parametrize("index_args", [[], ["--K", "8"]])
def test_bench_rejects_a_rotation_with_derived_codebooks(workspace, capsys, index_args):
    code, out, err = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                         "--queries", str(workspace / "q.fvecs"),
                         "--truth", str(workspace / "t.ivecs"),
                         "--m", "4", "--b", "4", "--bderived", "3", "--opq",
                         "--iters", "3", "--kernel", "derived", *index_args)
    assert (code, out) == (1, "")
    assert err == "error: derived quantizers do not support a rotation\n"


@pytest.fixture(scope="module")
def kernel_files(workspace):
    """kernel -> (quantizer path, path of the base encoded with it)."""
    files = {}
    for kernel, args in KERNEL_QUANTIZERS.items():
        quant, codes = workspace / f"{kernel}.pqz", workspace / f"{kernel}.pql"
        assert main(["train", "--base", str(workspace / "base.fvecs"), "--iters", "3",
                     *args, "--out", str(quant)]) == 0
        assert main(["encode", "--base", str(workspace / "base.fvecs"),
                     "--quantizer", str(quant), "--out", str(codes)]) == 0
        files[kernel] = quant, codes
    return files


@pytest.mark.parametrize("kernel", sorted(KERNEL_QUANTIZERS))
def test_query_empty_code_file_prints_only_the_header(
    workspace, kernel_files, kernel, tmp_path, capsys
):
    quant = kernel_files[kernel][0]
    loaded = load_quantizer_any(quant)
    pq = loaded.pq if isinstance(loaded, DerivedPQ) else loaded
    codes = tmp_path / "empty.pql"
    save_codes(codes, CodeList(np.zeros((0, pq.code_width), pq.code_dtype), m=pq.m), pq.b)
    got = run(capsys, "query", "--queries", str(workspace / "q.fvecs"),
              "--codes", str(codes), "--quantizer", str(quant), "--kernel", kernel)
    assert got == (0, "query,rank,id,distance\n", "")


@pytest.mark.parametrize("kernel", sorted(KERNEL_QUANTIZERS))
def test_query_overflowing_tables_is_exit_1(kernel_files, kernel, tmp_path, capsys):
    # finite float32 queries whose squared distances overflow float32
    queries = tmp_path / "far.fvecs"
    write_vecs(queries, np.full((2, 16), 1e20, dtype=np.float32), "fvecs")
    quant, codes = kernel_files[kernel]
    code, out, err = run(capsys, "query", "--queries", str(queries), "--codes",
                         str(codes), "--quantizer", str(quant), "--kernel", kernel)
    assert (code, out) == (1, "")
    assert err == "error: lookup table entries overflow float32\n"


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any k-means starts."""
    from pqscan import derived, ivf, quantizer

    def trained(*args, **kwargs):
        raise AssertionError("training started")

    for module, name in ((quantizer, "_kmeans_seeded"), (derived, "_kmeans_seeded"),
                         (ivf, "kmeans")):
        monkeypatch.setattr(module, name, trained)


@pytest.mark.parametrize("argv, message", [
    (["--m", "8", "--b", "8", "--K", "8", "--kernel", "fast-scan"],
     "fast-scan is not available under an inverted index"),
    (["--m", "4", "--b", "4", "--kernel", "derived"], "derived kernel needs a derived quantizer"),
    (["--m", "4", "--b", "4", "--K", "8", "--kernel", "derived"],
     "derived kernel needs a derived quantizer"),
    (["--m", "4", "--b", "6", "--kernel", "quick-adc"], "quick-adc kernel requires b=4"),
    (["--m", "4", "--b", "4", "--bderived", "3", "--opq", "--K", "8", "--kernel", "derived"],
     "derived quantizers do not support a rotation"),
])
def test_bench_rejects_bad_flags_before_training(workspace, capsys, no_training, argv, message):
    code, out, err = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                         "--queries", str(workspace / "q.fvecs"),
                         "--truth", str(workspace / "t.ivecs"), *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
