import csv
import io
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from pqscan import (
    CodeList,
    TrainConfig,
    load_quantizer,
    read_vecs,
    save_codes,
    write_vecs,
)
from pqscan._dist import nearest_k
from pqscan.cli import BENCH_HEADER, build_parser, main
from pqscan.ivf import KERNELS


QUICK_ADC_SHAPES = "quick-adc kernel requires b=4, or b=8 with even m"


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
            "--r", "5", "--kernel", kernel)
        assert code == 0
    assert len(list(csv.reader(io.StringIO(outs["adc"])))) == 1 + 8 * 5
    assert outs["quick-adc"] == outs["adc"]


def test_query_8x8_quick_adc_equals_adc_csv(workspace, tmp_path, capsys):
    # quick-adc reads the stored 8x8 codes as 16-bit words; its prefix is
    # the first r codes
    quant = tmp_path / "q88.pqz"
    codes = tmp_path / "c88.pql"
    assert main(["train", "--base", str(workspace / "base.fvecs"), "--m", "8",
                 "--b", "8", "--iters", "4", "--seed", "2", "--out", str(quant)]) == 0
    assert main(["encode", "--base", str(workspace / "base.fvecs"),
                 "--quantizer", str(quant), "--out", str(codes)]) == 0
    outs = {}
    for kernel in ("adc", "quick-adc"):
        for r in ("1", "10", "1000"):
            code, outs[kernel, r], _ = run(
                capsys, "query", "--queries", str(workspace / "q.fvecs"),
                "--codes", str(codes), "--quantizer", str(quant),
                "--r", r, "--kernel", kernel)
            assert code == 0
    assert len(list(csv.reader(io.StringIO(outs["adc", "10"])))) == 1 + 8 * 10
    for r in ("1", "10", "1000"):
        assert outs["quick-adc", r] == outs["adc", r]
    # neither the paper's prefix fraction nor a prefix count is an option
    base_args = ["--base", str(workspace / "base.fvecs"), "--queries",
                 str(workspace / "q.fvecs"), "--truth", str(workspace / "t.ivecs"),
                 "--m", "8", "--b", "8"]
    for argv in (["query", "--queries", str(workspace / "q.fvecs"), "--codes", str(codes),
                  "--quantizer", str(quant), "--kernel", "quick-adc", "--init", "0.5"],
                 ["query", "--queries", str(workspace / "q.fvecs"), "--codes", str(codes),
                  "--quantizer", str(quant), "--init-count", "5"],
                 ["bench", *base_args, "--init-count", "5"],
                 ["bench", *base_args, "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_query_quick_adc_rejects_6bit_codes(workspace, kernel_files, capsys):
    quant, codes = kernel_files["derived"]  # m=4, b=6
    got = run(capsys, "query", "--queries", str(workspace / "q.fvecs"),
              "--codes", str(codes), "--quantizer", str(quant), "--kernel", "quick-adc")
    assert got == (1, "", f"error: {QUICK_ADC_SHAPES}\n")


def test_bench_adc_row(workspace, capsys):
    code, out, _ = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                       "--queries", str(workspace / "q.fvecs"),
                       "--truth", str(workspace / "t.ivecs"),
                       "--m", "4", "--b", "4", "--r", "10", "--iters", "6",
                       "--kernel", "adc")
    assert code == 0
    # one table: the header row and one result row, nothing else
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0] == ",".join(BENCH_HEADER)
    row = dict(zip(*csv.reader(lines)))
    assert row["method"] == "adc"
    assert 0.0 <= float(row["recall"]) <= 1.0
    assert float(row["mean_ms"]) > 0


def test_bench_8x8_quick_adc_recall_equals_adc(tmp_path, capsys):
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
    for kernel in ("adc", "quick-adc"):
        code, out, _ = run(capsys, "bench", "--base", str(base),
                           "--queries", str(queries), "--truth", str(truth),
                           "--m", "8", "--b", "8", "--r", "10", "--iters", "4",
                           "--seed", "3", "--kernel", kernel)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        recalls[kernel] = dict(zip(rows[0], rows[1]))
    assert recalls["adc"]["recall"] == recalls["quick-adc"]["recall"]
    assert float(recalls["quick-adc"]["pruned_fraction"]) >= 0.0


@pytest.mark.parametrize("index_args", [[], ["--K", "4", "--ma", "2"]])
def test_bench_quick_adc_reports_pruned_fraction(workspace, capsys, index_args):
    rows = {}
    for kernel in ("adc", "quick-adc"):
        code, out, _ = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                           "--queries", str(workspace / "q.fvecs"),
                           "--truth", str(workspace / "t.ivecs"),
                           "--m", "4", "--b", "4", "--r", "5", "--iters", "5",
                           "--kernel", kernel, *index_args)
        assert code == 0
        rows[kernel] = dict(zip(*csv.reader(io.StringIO(out))))
    assert rows["adc"]["pruned_fraction"] == ""
    assert rows["quick-adc"]["recall"] == rows["adc"]["recall"]
    assert 0.0 < float(rows["quick-adc"]["pruned_fraction"]) < 1.0


def test_bench_empty_base_is_error(tmp_path, capsys):
    base = tmp_path / "empty.fvecs"
    queries = tmp_path / "q.fvecs"
    truth = tmp_path / "t.ivecs"
    assert main(["generate", "--out", str(base), "--n", "0", "--d", "8"]) == 0
    assert main(["generate", "--out", str(queries), "--n", "2", "--d", "8"]) == 0
    with open(truth, "wb") as f:
        f.write(b"")
    code, out, err = run(capsys, "bench", "--base", str(base),
                         "--queries", str(queries), "--truth", str(truth),
                         "--m", "4", "--b", "4")
    assert code == 1
    assert err
    assert out == ""  # no partial table on error


def test_shared_flags_parse_to_the_same_defaults_and_requirements():
    # The training flags of train, build-ivf and bench, and the search flags
    # of query and bench, are each declared once, so they cannot drift apart.
    parser = build_parser()
    training = ["--base", "x.fvecs", "--m", "4", "--b", "4"]
    search = ["--queries", "q.fvecs"]
    argv = {
        "train": ["train", *training, "--out", "o"],
        "build-ivf": ["build-ivf", *training, "--K", "4", "--out", "o"],
        "query": ["query", *search],
        "bench": ["bench", *training, *search, "--truth", "t"],
    }
    parsed = {command: parser.parse_args(args) for command, args in argv.items()}
    want_training = dict(base="x.fvecs", m=4, b=4, bderived=None, opq=False, iters=25, seed=0)
    want_search = dict(queries="q.fvecs", ma=8, kernel="adc", r2=None)
    for command, want in [("train", want_training), ("build-ivf", want_training),
                          ("bench", want_training), ("query", want_search),
                          ("bench", want_search)]:
        assert {key: getattr(parsed[command], key) for key in want} == want
    # the per-command flags keep their own defaults
    assert (parsed["query"].r, parsed["bench"].r, parsed["bench"].K) == (10, 100, None)
    assert (parsed["train"].sample, parsed["train"].opq_iters) == (0, 50)
    for command, required in [("train", training), ("build-ivf", training),
                              ("bench", training), ("query", search), ("bench", search)]:
        for flag in required[::2]:
            i = argv[command].index(flag)
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv[command][:i] + argv[command][i + 2:])
            assert exc.value.code == 2


def test_training_flags_take_the_library_defaults(monkeypatch):
    # --iters and --seed of train, build-ivf and bench default to TrainConfig's
    monkeypatch.setattr(TrainConfig, "kmeans_iters", 7)
    monkeypatch.setattr(TrainConfig, "seed", 11)
    parser = build_parser()
    training = ["--base", "x.fvecs", "--m", "4", "--b", "4"]
    for args in (["train", *training, "--out", "o"],
                 ["build-ivf", *training, "--K", "4", "--out", "o"],
                 ["bench", *training, "--queries", "q.fvecs", "--truth", "t"]):
        parsed = parser.parse_args(args)
        assert (parsed.iters, parsed.seed) == (7, 11), args[0]


@pytest.mark.parametrize("command", ["build-ivf", "bench"])
def test_opq_runs_take_the_library_opq_iters_default(workspace, tmp_path, capsys,
                                                     monkeypatch, command):
    # build-ivf and bench have no --opq-iters flag
    from pqscan import ivf

    configs = []

    def train_opq(training, m, b, cfg=None):
        configs.append(cfg)
        raise ValueError("stopped at train_opq")

    monkeypatch.setattr(ivf, "train_opq", train_opq)
    args = {"build-ivf": ["--K", "4", "--out", str(tmp_path / "i.ivf")],
            "bench": ["--queries", str(workspace / "q.fvecs"),
                      "--truth", str(workspace / "t.ivecs")]}[command]
    code, _, err = run(capsys, command, "--base", str(workspace / "base.fvecs"),
                       "--m", "4", "--b", "4", "--iters", "2", "--opq", *args)
    assert (code, err) == (1, "error: stopped at train_opq\n")
    assert [cfg.opq_iters for cfg in configs] == [TrainConfig().opq_iters]


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
    # The bench's only coarse lookups are the queries' own, one per query
    # plus the warm-up, and the codes it counts are the sizes of the lists
    # those lookups visited, as each query's ScanStats reports them.
    import pqscan.cli as cli
    from pqscan import ivf

    built, cells = [], []

    def counting_nearest_k(points, centroids, k):
        found = nearest_k(points, centroids, k)
        if built:  # a lookup after the build
            cells.append(found[0])
        return found

    def kept_build_ivf(*args, **kwargs):
        built.append(ivf.build_ivf(*args, **kwargs))
        return built[-1]

    # Every query takes 2^-20 s exactly, so mcodes_per_s shows the count.
    ticks = iter(range(1000))
    clock = SimpleNamespace(perf_counter=lambda: next(ticks) * 2.0**-20)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pqscan" and hasattr(module, "nearest_k"):
            monkeypatch.setattr(module, "nearest_k", counting_nearest_k)
    monkeypatch.setattr(cli, "build_ivf", kept_build_ivf)
    monkeypatch.setattr(cli, "time", clock)
    code, out, _ = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                       "--queries", str(workspace / "q.fvecs"),
                       "--truth", str(workspace / "t.ivecs"),
                       "--m", "4", "--b", "4", "--K", "8", "--ma", "4",
                       "--r", "10", "--iters", "5", "--kernel", "adc")
    assert code == 0
    assert [c.shape for c in cells] == [(1, 4)] * (1 + 8)
    sizes = np.array([lst.n for lst in built[0].lists])
    visited = int(sum(sizes[c].sum() for c in cells[1:]))
    row = dict(zip(*csv.reader(io.StringIO(out))))
    assert row["mcodes_per_s"] == f"{visited / (8 * 2.0**-20) / 1e6:.2f}"
    assert row["mean_ms"] == f"{2.0**-20 * 1e3:.3f}"


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


def test_query_8x8_index_quick_adc_equals_adc_csv(workspace, tmp_path, capsys):
    index = tmp_path / "x.ivf"
    assert main(["build-ivf", "--base", str(workspace / "base.fvecs"),
                 "--K", "4", "--m", "8", "--b", "8", "--iters", "4",
                 "--out", str(index)]) == 0
    outs = {}
    for kernel in ("adc", "quick-adc"):
        for r in ("1", "10", "100"):
            code, outs[kernel, r], _ = run(
                capsys, "query", "--queries", str(workspace / "q.fvecs"),
                "--index", str(index), "--ma", "2", "--r", r, "--kernel", kernel)
            assert code == 0
    assert len(list(csv.reader(io.StringIO(outs["adc", "100"])))) == 1 + 8 * 100
    for r in ("1", "10", "100"):
        assert outs["quick-adc", r] == outs["adc", r]


def test_fast_scan_kernel_name_is_a_usage_error(workspace, tmp_path):
    # quick-adc is the one name of the pruned kernel, 4- and 8-bit alike
    for argv in (["query", "--queries", str(workspace / "q.fvecs"),
                  "--index", str(tmp_path / "x.ivf")],
                 ["bench", "--base", str(workspace / "base.fvecs"),
                  "--queries", str(workspace / "q.fvecs"),
                  "--truth", str(workspace / "t.ivecs"), "--m", "8", "--b", "8"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kernel", "fast-scan"])
        assert exc.value.code == 2


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


@pytest.mark.parametrize("side", ["base", "queries"])
def test_ground_truth_rejects_non_finite_rows(workspace, tmp_path, capsys, side):
    paths = {"base": workspace / "base.fvecs", "queries": workspace / "q.fvecs"}
    rows = read_vecs(paths[side], "fvecs")
    rows[1] = np.nan
    paths[side] = tmp_path / f"{side}.fvecs"
    write_vecs(paths[side], rows, "fvecs")
    out = tmp_path / "t.ivecs"
    code, stdout, err = run(capsys, "ground-truth", "--base", str(paths["base"]),
                            "--queries", str(paths["queries"]), "--k", "10",
                            "--out", str(out))
    what = "base vectors" if side == "base" else "queries"
    assert (code, stdout, err) == (1, "", f"error: {what} contain non-finite values\n")
    assert not out.exists()


# train arguments of a quantizer each query kernel accepts
KERNEL_QUANTIZERS = {
    "adc": ["--m", "4", "--b", "4"],
    "quick-adc": ["--m", "4", "--b", "4"],
    "derived": ["--m", "4", "--b", "6", "--bderived", "3"],
}


# query cases: kernel name -> kernel, plus quick-adc over 8-bit codes of
# even m, with their train arguments
QUERY_KERNELS = {**{k: k for k in KERNEL_QUANTIZERS}, "quick-adc-8x8": "quick-adc"}
QUERY_QUANTIZERS = {**KERNEL_QUANTIZERS, "quick-adc-8x8": ["--m", "8", "--b", "8"]}


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
    """query case -> (quantizer path, path of the base encoded with it)."""
    files = {}
    for case, args in QUERY_QUANTIZERS.items():
        quant, codes = workspace / f"{case}.pqz", workspace / f"{case}.pql"
        assert main(["train", "--base", str(workspace / "base.fvecs"), "--iters", "3",
                     *args, "--out", str(quant)]) == 0
        assert main(["encode", "--base", str(workspace / "base.fvecs"),
                     "--quantizer", str(quant), "--out", str(codes)]) == 0
        files[case] = quant, codes
    return files


@pytest.mark.parametrize("case", sorted(QUERY_KERNELS))
def test_query_empty_code_file_prints_only_the_header(
    workspace, kernel_files, case, tmp_path, capsys
):
    quant = kernel_files[case][0]
    pq = load_quantizer(quant)
    codes = tmp_path / "empty.pql"
    save_codes(codes, CodeList(np.zeros((0, pq.code_width), pq.code_dtype), m=pq.m), pq.b)
    got = run(capsys, "query", "--queries", str(workspace / "q.fvecs"),
              "--codes", str(codes), "--quantizer", str(quant),
              "--kernel", QUERY_KERNELS[case])
    assert got == (0, "query,rank,id,distance\n", "")


@pytest.mark.parametrize("case", sorted(QUERY_KERNELS))
def test_query_overflowing_tables_is_exit_1(kernel_files, case, tmp_path, capsys):
    # finite float32 queries whose squared distances overflow float32
    queries = tmp_path / "far.fvecs"
    write_vecs(queries, np.full((2, 16), 1e20, dtype=np.float32), "fvecs")
    quant, codes = kernel_files[case]
    code, out, err = run(capsys, "query", "--queries", str(queries), "--codes",
                         str(codes), "--quantizer", str(quant),
                         "--kernel", QUERY_KERNELS[case])
    assert (code, out) == (1, "")
    assert err == "error: lookup table entries overflow float32\n"


@pytest.mark.parametrize("flag, message", [("--r", "r must be >= 1"), ("--r2", "r2 must be >= 1")])
def test_query_rejects_bad_r_before_output(workspace, kernel_files, capsys, flag, message):
    quant, codes = kernel_files["adc"]
    got = run(capsys, "query", "--queries", str(workspace / "q.fvecs"), "--codes",
              str(codes), "--quantizer", str(quant), flag, "0")
    assert got == (1, "", f"error: {message}\n")


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
    (["--m", "3", "--b", "8", "--kernel", "quick-adc"], QUICK_ADC_SHAPES),
    (["--m", "3", "--b", "8", "--K", "8", "--kernel", "quick-adc"], QUICK_ADC_SHAPES),
    (["--m", "4", "--b", "4", "--kernel", "derived"], "derived kernel needs a derived quantizer"),
    (["--m", "4", "--b", "4", "--K", "8", "--kernel", "derived"],
     "derived kernel needs a derived quantizer"),
    (["--m", "4", "--b", "6", "--kernel", "quick-adc"], QUICK_ADC_SHAPES),
    (["--m", "4", "--b", "4", "--bderived", "3", "--opq", "--K", "8", "--kernel", "derived"],
     "derived quantizers do not support a rotation"),
    (["--m", "4", "--b", "4", "--K", "0"], "K must be >= 1, got 0"),
    (["--m", "4", "--b", "4", "--K", "-1"], "K must be >= 1, got -1"),
    (["--m", "4", "--b", "4", "--K", "8", "--ma", "0"], "ma must be in [1, 8]"),
    (["--m", "4", "--b", "4", "--K", "8", "--ma", "9"], "ma must be in [1, 8]"),
    (["--m", "4", "--b", "4", "--r", "0"], "r must be >= 1"),
    (["--m", "4", "--b", "4", "--K", "8", "--r", "0"], "r must be >= 1"),
    (["--m", "4", "--b", "4", "--bderived", "2", "--kernel", "derived", "--r2", "0"],
     "r2 must be >= 1"),
    (["--m", "0", "--b", "4"], "m must be >= 1, got 0"),
    (["--m", "-4", "--b", "4", "--K", "8"], "m must be >= 1, got -4"),
    (["--m", "5", "--b", "4", "--K", "8"], "d=16 not divisible by m=5"),
    (["--m", "4", "--b", "0", "--K", "8"], "b=0 out of range [1, 16]"),
    (["--m", "4", "--b", "-1"], "b=-1 out of range [1, 16]"),
])
def test_bench_rejects_bad_flags_before_training(workspace, capsys, no_training, argv, message):
    code, out, err = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
                         "--queries", str(workspace / "q.fvecs"),
                         "--truth", str(workspace / "t.ivecs"), *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("index_flags", [[], ["--K", "8"]])
def test_bench_rejects_queries_of_another_dimension_before_training(
    workspace, tmp_path, capsys, no_training, index_flags
):
    queries = tmp_path / "q8.fvecs"
    write_vecs(queries, read_vecs(workspace / "q.fvecs", "fvecs")[:, :8], "fvecs")
    got = run(capsys, "bench", "--base", str(workspace / "base.fvecs"),
              "--queries", str(queries), "--truth", str(workspace / "t.ivecs"),
              "--m", "4", "--b", "4", *index_flags)
    assert got == (1, "", "error: query dimensionality 8, expected 16\n")


@pytest.mark.parametrize("command", ["train", "build-ivf"])
@pytest.mark.parametrize("shape, message", [
    (["--m", "0", "--b", "4"], "m must be >= 1, got 0"),
    (["--m", "-4", "--b", "4"], "m must be >= 1, got -4"),
    (["--m", "5", "--b", "4"], "d=16 not divisible by m=5"),
    (["--m", "4", "--b", "0"], "b=0 out of range [1, 16]"),
])
def test_training_commands_reject_a_quantizer_shape_before_training(
    workspace, tmp_path, capsys, no_training, command, shape, message
):
    out = tmp_path / "out.bin"
    extra = ["--K", "8"] if command == "build-ivf" else []
    got = run(capsys, command, "--base", str(workspace / "base.fvecs"), *shape, *extra,
              "--out", str(out))
    assert got == (1, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_ground_truth_rejects_k_below_1(workspace, tmp_path, capsys, k):
    out = tmp_path / "t.ivecs"
    got = run(capsys, "ground-truth", "--base", str(workspace / "base.fvecs"),
              "--queries", str(workspace / "q.fvecs"), "--k", k, "--out", str(out))
    assert got == (1, "", f"error: k must be >= 1, got {k}\n")
    assert not out.exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 4.66 PiB"), "error: out of memory: Unable to allocate 4.66 PiB"),
    (MemoryError(), "error: out of memory"),
])
def test_failed_allocation_is_one_error_line(tmp_path, capsys, monkeypatch, exc, message):
    # Raised, not allocated: a real allocation that size could succeed
    # lazily on a host that overcommits memory.
    import pqscan.cli as cli

    def generate_synthetic(*args):
        raise exc

    monkeypatch.setattr(cli, "generate_synthetic", generate_synthetic)
    out = tmp_path / "x.fvecs"
    got = run(capsys, "generate", "--out", str(out), "--n", "10000000000000", "--d", "128")
    assert got == (1, "", f"{message}\n")
    assert not out.exists()
