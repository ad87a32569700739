"""The build's parallel map: independent items in forked worker processes.

``fork_map(fn, count, cost)`` returns ``[fn(i) for i in range(count)]``,
in item order, with the items split into contiguous shares, one per CPU in
the process's affinity mask (``taskset`` restricts it). The calling process
runs the first share itself; each other share runs in an ``os.fork`` child,
which sends its pickled results back through a pipe. Each item computes
exactly what the serial loop would, so results are the same bit for bit.

It runs the plain serial loop instead when fewer than 2 CPUs are in the
mask, when ``os.fork`` is missing, when the process runs more than one OS
thread (forking a threaded process can copy a lock another thread holds, and
a multi-threaded BLAS already uses the cores), when that thread count cannot
be read, when the estimated cost is below ``_MIN_COST``, and inside an item
of another ``fork_map`` call.

A child always leaves through ``os._exit``, so it never returns into its
caller's stack or runs its exit handlers. The parent reads every pipe and
reaps every child before it returns, even when its own share raises. An
exception an item raises reaches the caller with its type and message; if
several shares fail, the one holding the lowest item wins, as in the loop.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, TypeVar

T = TypeVar("T")

# Estimated cost (see assign_cost) below which fork_map stays serial. A fork
# and its pipe cost 6-22 ms on a 2-vCPU x86-64 host, more for a process that
# holds more memory; this is roughly 100 ms of nearest-centroid assignment.
_MIN_COST = 1 << 30
# True inside a fork_map call, so that an item's own fork_map stays serial.
_busy = False


def assign_cost(rows: int, k: int, d: int) -> int:
    """Estimated cost of assigning rows to k centroids in d dimensions, in
    units of about 0.05-0.15 ns of one core (``_dist.nearest`` at d = 4 to
    128 and k = 16 to 1024): a per-row part and a per-score part, each
    growing with d."""
    return rows * (k + 32) * (d + 8)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def _threads() -> int:
    """OS threads of this process; 0 where that cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _workers(count: int, cost: int) -> int:
    if count < 2 or _busy or cost < _MIN_COST or not hasattr(os, "fork") or _threads() != 1:
        return 1
    return min(count, _cpus())


def fork_map(fn: Callable[[int], T], count: int, cost: int) -> list[T]:
    """``[fn(i) for i in range(count)]``, spread over the CPUs (see above)."""
    global _busy
    workers = _workers(count, cost)
    if workers < 2:
        return [fn(i) for i in range(count)]
    shares = [range(count * w // workers, count * (w + 1) // workers) for w in range(workers)]
    outcome: list[tuple[bool, object] | None] = [None] * workers
    children = {}
    _busy = True
    try:
        for w in range(1, workers):
            try:
                children[w] = _spawn(fn, shares[w])
            except OSError:  # no process to spare: run the rest here
                break
        for w in range(workers):
            if w not in children:
                outcome[w] = _run(fn, shares[w])
                if not outcome[w][0]:
                    break
    finally:
        _busy = False
        for w, (pid, fd) in children.items():
            outcome[w] = _collect(pid, fd)
    out = []
    for ok, value in outcome:
        if not ok:
            raise value
        out += value
    return out


def _run(fn, items) -> tuple[bool, object]:
    """(True, results) or (False, the exception the first failing item
    raised)."""
    try:
        return True, [fn(i) for i in items]
    except Exception as exc:
        return False, exc


def _spawn(fn, items) -> tuple[int, int]:
    """Fork a child that runs fn over items and writes its pickled _run
    outcome to a pipe; returns (pid, the pipe's read end)."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return pid, rfd
    status = 1
    try:
        os.close(rfd)
        ok, value = _run(fn, items)
        try:
            if not ok:  # the parent must be able to rebuild it
                pickle.loads(pickle.dumps(value))
            data = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            failed = value if not ok else exc
            data = pickle.dumps((False, RuntimeError(f"{type(failed).__name__}: {failed}")))
        with os.fdopen(wfd, "wb") as f:
            f.write(data)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, fd: int) -> tuple[bool, object]:
    """Read a child's reply to the end, then reap it."""
    try:
        with os.fdopen(fd, "rb") as f:
            data = f.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        return False, RuntimeError(f"build worker exited without a result (status {status})")
    return pickle.loads(data)
