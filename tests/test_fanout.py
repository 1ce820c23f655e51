"""Process pools are sized by their task count, not by --workers.

An executor forks its worker processes up front, so a pool asked for more
workers than it has tasks would start idle processes.  These tests swap in
an in-process executor that records the requested size and starts none.
The maximizer search runs in one process and opens no pool at all; the
optimizer opens one only when its grid fills two chunks for each of at
least two processes."""

from concurrent.futures import Future

import pytest

from extremal_count import (blowup, cli, complete_bipartite, cycle_graph,
                            embeddings, find_maximizers, h_degrees,
                            optimize_weights, oracle, path_graph, star_graph,
                            write_graph_file)

MANY = 1000


class RecordingExecutor:
    sizes: list[int] = []
    tasks = 0

    def __init__(self, max_workers=None):
        RecordingExecutor.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def submit(self, fn, *args):
        RecordingExecutor.tasks += 1
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def pools(monkeypatch):
    RecordingExecutor.sizes = []
    RecordingExecutor.tasks = 0
    for module in (embeddings, oracle, blowup):
        monkeypatch.setattr(module, "ProcessPoolExecutor", RecordingExecutor)
    return RecordingExecutor.sizes


@pytest.fixture
def levels(monkeypatch):
    """Empty level caches, so the next search grows its maximal levels."""
    monkeypatch.setattr(oracle, "_maximal_cache", {0: (0,)})
    monkeypatch.setattr(oracle, "_enum_cache", {})
    return oracle._maximal_cache


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.graph"
    write_graph_file(path_graph(2), path)
    return str(path)


def test_twin_quotient_opens_no_pool(pools):
    # every host is counted through its twin quotient in this process: the
    # two classes of K_{3,4}, and the six size-1 classes of the twin-free C6
    assert h_degrees(star_graph(2), complete_bipartite(3, 4)).h == \
        {v: 28 if v < 3 else 24 for v in range(7)}
    assert h_degrees(star_graph(2), cycle_graph(6)).h == dict.fromkeys(range(6), 6)
    assert pools == []


def test_small_levels_grow_in_process(pools, levels, k2_file, capsys):
    # search grows its maximal levels and scores its hosts in this process
    assert cli.main(["search", k2_file, "7", "--workers", "2"]) == 0
    assert pools == []
    assert sorted(levels) == list(range(8))
    assert oracle._enum_cache == {}


def test_maximizer_search_with_many_workers(pools, levels, k2_file, capsys):
    assert cli.main(["search", k2_file, "7"]) == 0
    serial = capsys.readouterr().out
    for workers in (2, MANY):
        assert cli.main(["search", k2_file, "7", "--workers", str(workers)]) == 0
        assert capsys.readouterr().out == serial
    assert pools == []


def test_cached_level_opens_no_pool(pools, levels, monkeypatch):
    find_maximizers(path_graph(3), 7)

    def no_growth(*args, **kwargs):
        raise AssertionError("a cached level was grown again")

    monkeypatch.setattr(oracle._pykernels, "maximal_triangle_free_growth", no_growth)
    for pattern in (path_graph(2), star_graph(3)):
        find_maximizers(pattern, 7)
    assert pools == []


def test_optimizer_pool_is_capped_at_chunk_count(pools, monkeypatch):
    # the run stream is cut into chunks of CHUNK_EVALUATIONS // (m + 1)
    # runs, one task each; the pool has no more processes than `workers`
    # or half the chunks of its look-ahead, and a stream of fewer than
    # four chunks is scored in this process
    monkeypatch.setattr(blowup, "CHUNK_EVALUATIONS", 16 * 5)
    runs = list(blowup._grid_seeds(cycle_graph(5), 12))
    chunks = -(-len(runs) // 16)
    assert 4 <= chunks < MANY
    serial = optimize_weights(cycle_graph(4), cycle_graph(5), grid=12)
    assert pools == []
    for workers in (2, 3, MANY):
        pools.clear()
        RecordingExecutor.tasks = 0
        parallel = optimize_weights(cycle_graph(4), cycle_graph(5), grid=12,
                                    workers=workers)
        assert parallel == serial
        assert pools == [min(workers, chunks // 2)]
        assert RecordingExecutor.tasks == chunks
    pools.clear()
    small = len(list(blowup._grid_seeds(cycle_graph(5), 9)))
    assert -(-small // 16) < 4
    optimize_weights(cycle_graph(4), cycle_graph(5), grid=9, workers=MANY)
    assert pools == []


def test_optimizer_pool_opens_only_for_two_chunks_per_process(pools):
    # with the shipped chunk size, C4 into C5 at grids 12 (73 runs) and 50
    # (2,691 runs) fill fewer than four chunks and open no pool; grid 100
    # (19,006 runs) opens one pool of two processes
    for grid in (12, 50):
        optimize_weights(cycle_graph(4), cycle_graph(5), grid=grid, workers=2)
    assert pools == []
    optimize_weights(cycle_graph(4), cycle_graph(5), grid=100, workers=2)
    assert pools == [2]
