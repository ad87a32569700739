"""The build's parallel paths: a worker team over contiguous shares, and the
parallel map built on it.

``Team(fn, count, cost)`` splits ``range(count)`` into contiguous shares,
one per CPU in the process's affinity mask (``taskset`` restricts it), and
forks once: each share but the first gets an ``os.fork`` child that lives
until the team closes. ``team.map(msg)`` returns ``[fn(share, msg) for
share in team.shares]``: the calling process runs the first share itself,
each child runs its own and sends its pickled result back through a pipe.
A team serves many calls on the same shares, so a child can keep what it
prepared for its share (say, a converted copy of its rows) from one call to
the next; the parent closes the team (``with Team(...)``) to reap them.
k-means runs its seeding draws and Lloyd assignments this way, one call per
draw or step, with the state every share updates in ``shared_array``
memory, created before the fork.

``fork_map(fn, count, cost)`` returns ``[fn(i) for i in range(count)]``, in
item order: one call of a team whose shares are runs of items. Each item,
and each share of a team call, computes exactly what the serial loop would,
so results are the same bit for bit.

A team runs everything in the calling process instead (one share) when
fewer than 2 CPUs are in the mask, when ``os.fork`` is missing, when the
process runs more than one OS thread (forking a threaded process can copy a
lock another thread holds, and a multi-threaded BLAS already uses the
cores), when that thread count cannot be read, when the estimated cost is
below ``_MIN_COST``, and while another team of this process has workers
(so a team or map inside a ``fork_map`` item stays serial). If a fork
fails, the parent runs that share and the ones after it itself.

Each child has a command pipe and a reply pipe, one-way
``multiprocessing.Pipe`` connections that carry one pickle per message. A
child always leaves through ``os._exit``, so it never returns into its
caller's stack or runs its exit handlers; it leaves when its command pipe
closes. Only the child holds the write end of its reply pipe, so a child
that dies mid-call reads as ``EOFError`` (``OSError`` within a message) in
the parent, which reaps it and raises ``ChildProcessError`` instead of
waiting. The parent reads every reply of a call, even when its own share
raises, and reaps every child when the team closes. An exception a share
raises reaches the caller with its type and message; if several shares
fail, the lowest share wins, as in the loop.
"""

from __future__ import annotations

import mmap
import os
import pickle
from multiprocessing import Pipe
from multiprocessing.connection import Connection
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

# Estimated cost (see assign_cost) below which a team stays serial. A fork
# and its pipe cost 6-22 ms on a 2-vCPU x86-64 host, more for a process that
# holds more memory; this is roughly 100 ms of nearest-centroid assignment.
_MIN_COST = 1 << 30
# What a k-means run pays on top of its assignments, in assign_cost units:
# each Lloyd step's mean update and empty-cluster check (0.2-0.8 ms below
# 5,000 rows on a 2-vCPU x86-64 host), and each k-means++ draw's passes over
# every row (weights, cumulative sum, bound test; 20-25 ns per row there).
_STEP_COST = 1 << 23
_DRAW_ROW_COST = 1 << 8
# One call of a team with workers: a message each way through every pipe
# (about 50 us on the same host).
_CALL_COST = 1 << 19
# True while a team of this process has workers, so that the teams and maps
# started inside its shares stay serial.
_busy = False


def assign_cost(rows: int, k: int, d: int) -> int:
    """Estimated cost of assigning rows to k centroids in d dimensions, in
    units of about 0.05-0.15 ns of one core (``_dist.nearest`` at d = 4 to
    128 and k = 16 to 1024): a per-row part and a per-score part, each
    growing with d."""
    return rows * (k + 32) * (d + 8)


def kmeans_cost(rows: int, k: int, d: int, iters: int) -> int:
    """Estimated cost of a whole k-means run of iters Lloyd steps on rows
    points: the seeding and each step cost about one assignment plus a
    fixed step cost, and each draw a pass over the rows. The fixed parts
    dominate on few rows and small k."""
    steps = (iters + 1) * (assign_cost(rows, k, d) + _STEP_COST)
    return steps + k * rows * _DRAW_ROW_COST


def split_cost(rows: int, k: int, d: int, iters: int) -> int:
    """Estimated gain of splitting one k-means run's rows over a team: the
    assignments of the seeding and of each step, less one team call per
    draw and per step. The draws' weights and the mean updates stay in
    the calling process and do not count."""
    return max(0, (iters + 1) * assign_cost(rows, k, d) - (k + iters) * _CALL_COST)


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


def shared_array(n: int, dtype) -> np.ndarray:
    """A zeroed (n,) array in anonymous shared memory: what a team's
    children write to it before they reply, the parent reads."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(1, n * dtype.itemsize)), dtype, n)


class Team:
    """Worker processes over contiguous shares of range(count), alive until
    the team closes (see the module docstring)."""

    def __init__(self, fn: Callable[[range, object], object], count: int, cost: int):
        global _busy
        workers = _workers(count, cost)
        self.fn = fn
        self.shares = [
            range(count * w // workers, count * (w + 1) // workers) for w in range(workers)
        ]
        # share -> (pid, command pipe's write end, reply pipe's read end)
        self.children: dict[int, tuple[int, Connection, Connection]] = {}
        if workers < 2:
            return
        _busy = True
        try:
            for w in range(1, workers):
                self.children[w] = self._spawn(w)
        except OSError:  # no process to spare: the parent runs the rest
            pass
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> Team:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def map(self, msg: object) -> list:
        """``[fn(share, msg) for share in self.shares]``, each share run
        where it lives."""
        data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL) if self.children else b""
        for _, cmd, _ in self.children.values():
            try:
                cmd.send_bytes(data)
            except OSError:  # a dead child: its reply reads as end-of-file
                pass
        outcome: list[tuple[bool, object] | None] = [None] * len(self.shares)
        try:
            for w, share in enumerate(self.shares):
                if w not in self.children:
                    outcome[w] = _run(self.fn, share, msg)
                    if not outcome[w][0]:
                        break
        finally:
            for w in list(self.children):
                outcome[w] = self._reply(w)
        out = []
        for ok, value in outcome:
            if not ok:
                raise value
            out.append(value)
        return out

    def close(self) -> None:
        """End every child (its command pipe closes) and reap it."""
        global _busy
        children, self.children = self.children, {}
        for _, cmd, _ in children.values():
            cmd.close()
        for pid, _, reply in children.values():
            reply.close()
            os.waitpid(pid, 0)
        if len(self.shares) > 1:
            _busy = False

    def _spawn(self, w: int) -> tuple[int, Connection, Connection]:
        """Fork the child of share w; returns (pid, command write end, reply
        read end)."""
        cmd_r, cmd_w = Pipe(duplex=False)
        reply_r, reply_w = Pipe(duplex=False)
        try:
            pid = os.fork()
        except OSError:
            for conn in (cmd_r, cmd_w, reply_r, reply_w):
                conn.close()
            raise
        if pid:
            cmd_r.close()
            reply_w.close()
            return pid, cmd_w, reply_r
        status = 1
        try:
            # The parent's ends of the siblings' pipes are not this child's.
            for _, cmd, reply in self.children.values():
                cmd.close()
                reply.close()
            cmd_w.close()
            reply_r.close()
            share = self.shares[w]
            while True:
                _send_outcome(reply_w, _run(self.fn, share, cmd_r.recv()))
        except EOFError:  # the command pipe closed: the team is done
            status = 0
        finally:
            os._exit(status)

    def _reply(self, w: int) -> tuple[bool, object]:
        """Child w's outcome of the current call; a child that died instead
        is reaped and reported."""
        pid, cmd, reply = self.children[w]
        try:
            return reply.recv()
        except (EOFError, OSError):
            pass
        del self.children[w]
        cmd.close()
        reply.close()
        _, status = os.waitpid(pid, 0)
        return False, ChildProcessError(f"build worker exited without a result (status {status})")


def fork_map(fn: Callable[[int], T], count: int, cost: int) -> list[T]:
    """``[fn(i) for i in range(count)]``, spread over the CPUs (see above)."""
    with Team(lambda share, _: [fn(i) for i in share], count, cost) as team:
        return [value for part in team.map(None) for value in part]


def _run(fn, share, msg) -> tuple[bool, object]:
    """(True, fn(share, msg)) or (False, the exception it raised)."""
    try:
        return True, fn(share, msg)
    except Exception as exc:
        return False, exc


def _send_outcome(conn: Connection, outcome: tuple[bool, object]) -> None:
    """Send a _run outcome; one the parent could not rebuild goes as a
    RuntimeError that keeps its exception's name and message."""
    ok, value = outcome
    try:
        if not ok:
            pickle.loads(pickle.dumps(value))
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        failed = value if not ok else exc
        data = pickle.dumps((False, RuntimeError(f"{type(failed).__name__}: {failed}")))
    conn.send_bytes(data)
