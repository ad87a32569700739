"""fork_map and the builds routed through it: the parallel path returns what
the serial loop returns, bit for bit, errors cross the process boundary,
no child outlives a call, and the fallbacks run the serial loop."""

import os
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
from pqscan import _parallel, ivf, quantizer
from pqscan._parallel import fork_map

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
    """build() under the default gate (serial for tiny data), then forced."""
    serial = build()
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
        return dpq.pq.codebooks, dpq.derived

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
