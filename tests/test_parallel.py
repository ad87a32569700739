"""The worker team, fork_map and the builds routed through them: the
parallel path returns what the serial loop returns, bit for bit, errors and
dead workers cross the process boundary, no child outlives a call, and the
fallbacks run the serial loop."""

import os
import signal
import threading

import numpy as np
import pytest

from pqscan import (
    TrainConfig,
    TrainError,
    build_ivf,
    encode,
    generate_synthetic,
    train_derived,
    train_pq,
)
from pqscan import _parallel, ivf, kmeans, quantizer
from pqscan._dist import SAFE_SCALE32
from pqscan._parallel import Team, fork_map

CFG = TrainConfig(kmeans_iters=4, seed=3)
# The tiny-data tests below take the parallel path only in a process with one
# OS thread (not, say, under a two-thread BLAS); otherwise they check that
# the serial fallback gives the same results.
SINGLE_THREADED = _parallel._threads() == 1


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fork_always(monkeypatch):
    """Fork for any cost, on two workers."""
    monkeypatch.setattr(_parallel, "_MIN_COST", 0)
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)


@pytest.fixture
def small_chunks(monkeypatch):
    """Encode and build_ivf in 64-row chunks, so tiny data has several."""
    monkeypatch.setattr(quantizer, "ENCODE_ROWS", 64)
    monkeypatch.setattr(ivf, "ENCODE_ROWS", 64)


@pytest.fixture
def forced(monkeypatch, small_chunks):
    fork_always(monkeypatch)


def serial_and_parallel(monkeypatch, build):
    """build() under the default gate, which keeps tiny data serial, then
    forced."""
    workers = []
    real = _parallel._workers

    def recorded(count, cost):
        workers.append(real(count, cost))
        return workers[-1]

    monkeypatch.setattr(_parallel, "_workers", recorded)
    serial = build()
    assert workers and max(workers) == 1
    fork_always(monkeypatch)
    return serial, build()


def pids(count):
    return fork_map(lambda i: os.getpid(), count, 0)


def test_items_come_back_in_order(forced):
    for count in (0, 1, 2, 5):
        assert fork_map(lambda i: i * i, count, 0) == [i * i for i in range(count)]


def test_forced_run_forks(forced):
    got = pids(4)
    assert got[:2] == [os.getpid()] * 2
    assert len(set(got)) == (2 if SINGLE_THREADED else 1)


def test_real_affinity_sets_the_worker_count(monkeypatch):
    # No worker count is patched: under `taskset -c 0` this is the serial
    # fallback, on a many-CPU host it forks up to the item count.
    monkeypatch.setattr(_parallel, "_MIN_COST", 0)
    cpus = len(os.sched_getaffinity(0))
    assert len(set(pids(3))) == (min(3, cpus) if SINGLE_THREADED else 1)


def test_one_cpu_runs_serially(forced, monkeypatch):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)
    assert set(pids(4)) == {os.getpid()}


def test_cost_model_forks_only_kmeans_that_repay_it():
    # ivf-16x4's residual train_pq: 16 sub-spaces of 1,600 rows, k = 16,
    # d = 8, 8 Lloyd steps, 70-110 ms serial; its per-step and per-draw
    # costs are what carry it over the gate.
    assert 16 * _parallel.kmeans_cost(1600, 16, 8, 8) >= _parallel._MIN_COST
    assert 16 * 9 * _parallel.assign_cost(1600, 16, 8) < _parallel._MIN_COST
    # Splitting the rows of one run pays for ivf-16x4's coarse k-means
    # (25,600 x 128, K = 256), not for a run whose draws are cheaper than
    # the round trip to a worker.
    assert _parallel.split_cost(25_600, 256, 128, 8) >= _parallel._MIN_COST
    assert _parallel.split_cost(5_000, 1024, 8, 8) < _parallel._MIN_COST


def test_small_work_runs_serially(monkeypatch):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    assert set(fork_map(lambda i: os.getpid(), 4, _parallel._MIN_COST - 1)) == {os.getpid()}


def test_a_live_thread_forces_the_serial_path(forced):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert set(pids(4)) == {os.getpid()}
    finally:
        release.set()
        thread.join()


def test_nested_calls_run_serially(forced):
    inner = fork_map(lambda i: pids(3), 2, 0)
    assert all(len(set(share)) == 1 for share in inner)


def test_child_error_reaches_the_parent(forced):
    def fail_late(i):
        if i >= 2:
            raise TrainError(f"item {i} failed")
        return i

    with pytest.raises(TrainError, match="^item 2 failed$"):
        fork_map(fail_late, 4, 0)


def test_lowest_failing_item_wins(forced):
    def fail(i):
        raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match="^item 0$"):
        fork_map(fail, 4, 0)


class OddError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_error_that_cannot_be_rebuilt_keeps_its_name_and_message(forced):
    def fail_late(i):
        if i == 3:
            raise OddError(1, 2)

    error = RuntimeError if SINGLE_THREADED else OddError
    with pytest.raises(error, match="1/2"):
        fork_map(fail_late, 4, 0)


def test_encode_error_in_the_second_half(forced):
    pq = train_pq(generate_synthetic(400, 8, 4, seed=1), 2, 4, CFG)
    x = generate_synthetic(300, 8, 4, seed=2)
    x[-1, 3] = np.nan
    with pytest.raises(ValueError, match="^vectors contain non-finite values$"):
        encode(pq, x)


@pytest.mark.parametrize("m, b", [(3, 4), (2, 9)])  # nibble-packed; uint16
def test_train_and_encode_match_serial(monkeypatch, small_chunks, m, b):
    x = generate_synthetic(600, 12, 6, seed=4)

    def build():
        pq = train_pq(x, m, b, CFG)
        return pq.codebooks, encode(pq, x)

    (books, codes), (books_p, codes_p) = serial_and_parallel(monkeypatch, build)
    np.testing.assert_array_equal(books_p, books)
    np.testing.assert_array_equal(codes_p, codes)
    assert codes_p.dtype == codes.dtype and codes.shape == (600, (m + 1) // 2 if b <= 4 else m)


def test_train_derived_matches_serial(monkeypatch, small_chunks):
    x = generate_synthetic(300, 8, 4, seed=5)

    def build():
        dpq = train_derived(x, 4, 6, 3, CFG)
        return dpq.codebooks, dpq.derived

    (full, derived), (full_p, derived_p) = serial_and_parallel(monkeypatch, build)
    np.testing.assert_array_equal(full_p, full)
    np.testing.assert_array_equal(derived_p, derived)


@pytest.mark.parametrize("options", [{}, {"bderived": 2}])
def test_build_ivf_matches_serial(monkeypatch, small_chunks, options):
    x = generate_synthetic(1500, 8, 6, seed=6).astype(np.float32)

    def build():
        return build_ivf(x, 4, 4, 4, CFG, **options)

    serial, par = serial_and_parallel(monkeypatch, build)
    np.testing.assert_array_equal(par.coarse, serial.coarse)
    np.testing.assert_array_equal(par.pq.codebooks, serial.pq.codebooks)
    for got, want in zip(par.lists, serial.lists, strict=True):
        np.testing.assert_array_equal(got.codes, want.codes)
        np.testing.assert_array_equal(got.ids, want.ids)


def test_team_keeps_each_share_across_calls(forced):
    def count_calls(share, msg):
        seen[share.start] = seen.get(share.start, 0) + msg
        return os.getpid(), seen[share.start]

    seen = {}
    with Team(count_calls, 5, 0) as team:
        for _ in range(3):
            got = team.map(2)
    assert [calls for _, calls in got] == [6] * len(team.shares)
    assert got[0][0] == os.getpid()
    assert len(team.shares) == len({pid for pid, _ in got}) == (2 if SINGLE_THREADED else 1)


def test_team_error_keeps_its_type_and_the_team_serves_on(forced):
    def fail_on_the_last_share(share, msg):
        if msg and share.stop == 4:
            raise TrainError(f"share {share.start} failed")
        return share.start

    with Team(fail_on_the_last_share, 4, 0) as team:
        with pytest.raises(TrainError, match=f"^share {team.shares[-1].start} failed$"):
            team.map(True)
        assert team.map(False) == [share.start for share in team.shares]


def test_team_inside_a_fork_map_item_stays_serial(forced):
    def team_size(i):
        with Team(lambda share, msg: os.getpid(), 8, 0) as team:
            return len(team.shares), set(team.map(None))

    got = fork_map(team_size, 2, 0)
    assert [size for size, _ in got] == [1, 1]
    assert all(len(pids) == 1 for _, pids in got)


@pytest.mark.parametrize("fallback", ["one cpu", "live thread"])
def test_team_fallbacks_run_in_process(forced, monkeypatch, fallback):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if fallback == "one cpu":
        monkeypatch.setattr(_parallel, "_cpus", lambda: 1)
    else:
        thread.start()
    try:
        with Team(lambda share, msg: (os.getpid(), share), 6, 0) as team:
            assert team.map(None) == [(os.getpid(), range(6))]
    finally:
        release.set()
        if thread.is_alive():
            thread.join()


@pytest.fixture
def team_sizes(monkeypatch):
    """Shares of every team k-means opens, in order."""
    sizes = []

    class Recorded(Team):
        def __init__(self, *args):
            super().__init__(*args)
            sizes.append(len(self.shares))

    monkeypatch.setattr(quantizer, "Team", Recorded)
    return sizes


def kmeans_case(case):
    """(points, k, cfg) for one k-means regime the team must not change."""
    if case == "float64 scores":
        # Centroid scale at SAFE_SCALE32 and above: float64 scores, and no
        # float32 copy of the rows.
        x = np.random.default_rng(7).normal(size=(400, 4)) * 2e19
        return x, 8, CFG
    if case == "empty clusters":
        # 12 distinct points for 16 clusters: seeds repeat, clusters empty.
        rows = np.random.default_rng(8).normal(size=(12, 3))
        return rows[np.arange(300) % 12], 16, CFG
    if case == "converges early":
        return generate_synthetic(500, 6, 4, seed=9), 4, TrainConfig(kmeans_iters=25, seed=2)
    return generate_synthetic(601, 8, 6, seed=10), 16, CFG


@pytest.mark.parametrize(
    "case, cpus",
    [("float32 scores", 2), ("float32 scores", 3), ("float32 scores", 5), ("float64 scores", 2),
     ("empty clusters", 2), ("empty clusters", 3), ("converges early", 2)],
)
def test_kmeans_team_matches_serial(monkeypatch, team_sizes, case, cpus):
    points, k, cfg = kmeans_case(case)
    repairs, updates = [], []
    real_repair, real_update = quantizer._repair_empty, quantizer._mean_update

    def repair(*args):
        repairs.append(real_repair(*args))
        return repairs[-1]

    def update(*args):
        updates.append(1)
        return real_update(*args)

    monkeypatch.setattr(quantizer, "_repair_empty", repair)
    monkeypatch.setattr(quantizer, "_mean_update", update)
    monkeypatch.setattr(_parallel, "_MIN_COST", 1 << 62)
    serial = kmeans(points, k, cfg)
    fork_always(monkeypatch)
    monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
    team = kmeans(points, k, cfg)
    np.testing.assert_array_equal(team[0].view(np.int32), serial[0].view(np.int32))
    np.testing.assert_array_equal(team[1], serial[1])
    assert team_sizes == [1, cpus if SINGLE_THREADED else 1]
    if case == "empty clusters":
        assert any(repairs)
    if case == "converges early":
        assert len(updates) < 2 * cfg.kmeans_iters
    if case == "float64 scores":
        scale = ((team[0] - points.mean(axis=0)) ** 2).sum(axis=1).max()
        assert scale >= SAFE_SCALE32


def test_kmeans_share_error_reaches_the_caller(forced, monkeypatch):
    # The last share is a worker's when the team forks, the caller's when not.
    real = quantizer._Shares._work

    def work(self, share, msg):
        if msg[0] == "assign" and share.stop == self.points.shape[0]:
            raise TrainError(f"rows from {share.start} failed")
        return real(self, share, msg)

    monkeypatch.setattr(quantizer._Shares, "_work", work)
    start = 300 if SINGLE_THREADED else 0
    with pytest.raises(TrainError, match=f"^rows from {start} failed$"):
        kmeans(generate_synthetic(600, 8, 6, seed=11), 16, CFG)


def test_kmeans_worker_killed_mid_run_is_an_error(forced, monkeypatch):
    parent = os.getpid()
    real = quantizer._Shares._work

    def work(self, share, msg):
        if msg[0] == "draw" and msg[1][0] == 5 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(self, share, msg)

    monkeypatch.setattr(quantizer._Shares, "_work", work)
    x = generate_synthetic(600, 8, 6, seed=12)
    if SINGLE_THREADED:
        with pytest.raises(RuntimeError, match="build worker exited without a result"):
            kmeans(x, 16, CFG)
    else:
        kmeans(x, 16, CFG)


def test_kmeans_inside_a_fork_map_item_matches_and_stays_serial(forced, team_sizes):
    x = generate_synthetic(400, 8, 6, seed=13)
    want = kmeans(x, 8, CFG)
    assert team_sizes == [2 if SINGLE_THREADED else 1]

    def item(i):
        return kmeans(x, 8, CFG), team_sizes[-1]

    for (centroids, assign), size in fork_map(item, 2, 0):
        np.testing.assert_array_equal(centroids, want[0])
        np.testing.assert_array_equal(assign, want[1])
        assert size == 1
