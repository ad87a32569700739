"""Tests of the benchmark's own checker, ground truth and span recorder.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib

import numpy as np
import pytest

from checks import Tally, check_op, nearest_ids, padded_ids, top_r
from spans import Tracer
from pqscan import (
    NeighborSet,
    TrainConfig,
    build_ivf,
    exact_knn,
    generate_synthetic,
    query_ivf,
)

R, N = 5, 50


def reference():
    dists = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5])
    return top_r(dists, np.arange(10, 18), R)


def perturbed():
    ref = reference()
    swapped = list(ref)
    (d0, i0), (d1, i1) = swapped[0], swapped[1]
    swapped[0], swapped[1] = (d0, i1), (d1, i0)
    distance = list(ref)
    distance[2] = (distance[2][0] + 1e-9, distance[2][1])
    return {
        "swapped id": swapped,
        "missing id": ref[:-1],
        "perturbed distance": distance,
        "duplicate id": ref[:-1] + [(ref[-1][0], ref[0][1])],
        "id out of range": ref[:-1] + [(ref[-1][0], N)],
        "raised": None,
    }


def test_correct_result_passes():
    tally = Tally()
    assert check_op(tally, reference(), R, N, expected=reference())
    assert (tally.attempted, tally.failed) == (1, 0)


@pytest.mark.parametrize("kind", sorted(perturbed()))
def test_wrong_result_is_counted(kind):
    tally = Tally()
    assert not check_op(tally, perturbed()[kind], R, N, expected=reference())
    assert (tally.attempted, tally.failed) == (1, 1)


def test_short_result_allowed_only_when_asked():
    short = reference()[:3]
    tally = Tally()
    assert check_op(tally, short, R, N, allow_short=True)
    assert (tally.failed, tally.short) == (0, 1)
    assert not check_op(tally, short, R, N)
    assert tally.failed == 1
    assert list(padded_ids(short, R)[3:]) == [-1, -1]


def test_ids_outside_scanned_lists_fail():
    tally = Tally()
    allowed = np.array([i for _, i in reference()][1:])
    assert not check_op(tally, reference(), R, N, allowed_ids=allowed)
    assert tally.reasons["id outside the scanned lists"] == 1


def test_nearest_ids_matches_exact_knn():
    rows = generate_synthetic(3000 + 40, 24, 4, seed=3)
    base, queries = rows[:3000], rows[3000:]
    assert np.array_equal(nearest_ids(base, queries), exact_knn(base, queries, 1).ids[:, 0])


def test_self_time_subtracts_children():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("inner", inner) + sum(range(20000))

    tracer.call("outer", outer)
    times = tracer.self_times(0, len(tracer.spans))
    (_, o_start, o_end, _, _), (_, i_start, i_end, parent, _) = tracer.spans
    assert parent == 0
    assert times["inner"][0] == pytest.approx(i_end - i_start)
    assert times["outer"][0] + times["inner"][0] == pytest.approx(o_end - o_start)


def test_tracing_changes_no_result_and_restores_library():
    ivf_module = importlib.import_module("pqscan.ivf")
    original = dict(vars(ivf_module))
    push = NeighborSet.push
    base = generate_synthetic(2000, 16, 4, seed=5)
    index = build_ivf(base, 8, 4, 4, TrainConfig(kmeans_iters=2, seed=1))
    q = base[7] + 1.0
    plain = [query_ivf(index, q, 3, 20, kernel=k).items() for k in ("adc", "quick-adc")]

    tracer = Tracer()
    tracer.install()
    try:
        traced = [query_ivf(index, q, 3, 20, kernel=k).items() for k in ("adc", "quick-adc")]
    finally:
        tracer.remove()
    tracer.settle()

    assert traced == plain
    assert {n for n, *_ in tracer.spans} >= {
        "dist.nearest_k", "scan.compute_tables", "scan.scan", "scan.scan_distances",
        "scan.relayout", "quickadc.qadc_scan", "quickadc.quantized_distances"}
    assert tracer.counts["scan.push_calls"] > 0
    assert tracer.counts["scan.rows_distanced"] > 0
    assert all(vars(ivf_module)[k] is v for k, v in original.items())
    assert NeighborSet.push is push
