"""Process pools are sized by their task count, not by --workers.

An executor forks its worker processes up front, so a pool asked for more
workers than it has tasks would start idle processes.  These tests swap in
an in-process executor that records the requested size and starts none."""

from concurrent.futures import Future

import pytest

from extremal_count import (blowup, cli, complete_bipartite, cycle_graph,
                            embeddings, find_maximizers, h_degrees,
                            optimize_weights, oracle, path_graph, star_graph,
                            triangle_free_masks, write_graph_file)

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
    """An empty enumeration cache, so the next search grows its level."""
    monkeypatch.setattr(oracle, "_enum_cache", {})
    return oracle._enum_cache


@pytest.fixture
def pool_from_6(monkeypatch):
    """Grow levels from 6 vertices up in a pool, so a search at 7 vertices
    pools the growth of level 6 from the 14 classes on 5 vertices."""
    monkeypatch.setattr(oracle, "POOL_MIN_LEVEL", 6)


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
    # below POOL_MIN_LEVEL vertices a pool costs more than it saves
    assert cli.main(["search", k2_file, "7", "--workers", "2"]) == 0
    assert pools == []
    assert max(levels) == 6


def test_maximizer_search_with_many_workers(pools, levels, pool_from_6):
    # one pool, one growth task per non-empty chunk of the 14 parents on
    # 5 vertices; the search at 7 vertices never grows level 7
    parallel = find_maximizers(path_graph(3), 7, workers=MANY)
    assert pools == [14]
    assert 7 not in levels
    level = levels.pop(6)
    assert find_maximizers(path_graph(3), 7, workers=9) == parallel
    assert pools[1:] == [9]
    assert levels[6] == level
    levels.pop(6)
    assert find_maximizers(path_graph(3), 7) == parallel
    assert pools == [14, 9]
    assert levels[6] == level


def test_cached_level_opens_no_pool(pools, levels, pool_from_6, monkeypatch):
    find_maximizers(path_graph(3), 7, workers=2)
    assert pools == [2]

    def no_growth(*args, **kwargs):
        raise AssertionError("a cached level was grown again")

    monkeypatch.setattr(oracle.kernels, "triangle_free_canonical_masks", no_growth)
    for pattern in (path_graph(2), star_graph(3)):
        for workers in (1, 2, MANY):
            find_maximizers(pattern, 7, workers=workers)
    assert pools == [2]


def test_search_opens_one_pool(pools, levels, pool_from_6, k2_file, capsys):
    assert cli.main(["search", k2_file, "7"]) == 0
    serial = capsys.readouterr().out
    assert pools == []
    for workers in (2, MANY):
        pools.clear()
        levels.clear()
        assert cli.main(["search", k2_file, "7", "--workers", str(workers)]) == 0
        assert capsys.readouterr().out == serial
        assert pools == [min(workers, len(triangle_free_masks(5)))]


def test_host_from_two_pool_tasks_exit_3(pools, levels, pool_from_6, k2_file,
                                         capsys, monkeypatch):
    # each host has one canonical parent, so no two chunks return the same
    # host; make every growth task also return the empty graph (mask 0)
    real = oracle.kernels.triangle_free_canonical_masks

    def leaky(n, parents=None):
        masks = real(n, parents)
        return masks if 0 in masks else [0] + masks

    monkeypatch.setattr(oracle.kernels, "triangle_free_canonical_masks", leaky)
    code = cli.main(["search", k2_file, "7", "--workers", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "two pool tasks" in captured.err
    assert pools == [2]
    assert 6 not in levels


def test_optimizer_pool_is_capped_at_chunk_count(pools, monkeypatch):
    # the seed stream is cut into chunks of SEED_CHUNK seeds, one task
    # each; the pool has no more processes than the chunks of its first
    # round, and a stream of fewer than POOL_MIN_SEEDS seeds is scored in
    # this process
    monkeypatch.setattr(blowup, "SEED_CHUNK", 16)
    seeds = list(blowup._grid_seeds(cycle_graph(5), 10))
    assert blowup.POOL_MIN_SEEDS <= len(seeds) < MANY
    chunks = -(-len(seeds) // 16)
    serial = optimize_weights(cycle_graph(4), cycle_graph(5), grid=10)
    assert pools == []
    for workers in (2, MANY):
        pools.clear()
        RecordingExecutor.tasks = 0
        parallel = optimize_weights(cycle_graph(4), cycle_graph(5), grid=10,
                                    workers=workers)
        assert parallel == serial
        assert pools == [min(workers, chunks)]
        assert RecordingExecutor.tasks == chunks
    pools.clear()
    small = len(list(blowup._grid_seeds(cycle_graph(5), 6)))
    assert small < blowup.POOL_MIN_SEEDS
    optimize_weights(cycle_graph(4), cycle_graph(5), grid=6, workers=MANY)
    assert pools == []
