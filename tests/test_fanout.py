"""Process pools are sized by their task count, not by --workers.

An executor forks its worker processes up front, so a pool asked for more
workers than it has tasks would start idle processes.  These tests swap in
an in-process executor that records the requested size and starts none."""

import pytest

from extremal_count import (blowup, cli, complete_bipartite, cycle_graph,
                            embeddings, find_maximizers, h_degrees,
                            optimize_weights, oracle, path_graph, star_graph,
                            triangle_free_masks, write_graph_file)

MANY = 1000


class RecordingExecutor:
    sizes: list[int] = []

    def __init__(self, max_workers=None):
        RecordingExecutor.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pools(monkeypatch):
    RecordingExecutor.sizes = []
    for module in (embeddings, oracle, blowup):
        monkeypatch.setattr(module, "ProcessPoolExecutor", RecordingExecutor)
    return RecordingExecutor.sizes


@pytest.fixture
def levels(monkeypatch):
    """An empty enumeration cache, so the next search grows its level."""
    monkeypatch.setattr(oracle, "_enum_cache", {})
    return oracle._enum_cache


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.graph"
    write_graph_file(path_graph(2), path)
    return str(path)


def test_embedding_pool_is_capped_at_host_size(pools):
    # C6 has no twins, so its H-degrees come from the pooled backtracking
    host = cycle_graph(6)
    assert h_degrees(star_graph(2), host, workers=MANY).h == \
        h_degrees(star_graph(2), host).h
    assert pools == [host.n]


def test_twin_quotient_opens_no_pool(pools):
    # K_{3,4} is counted through its two-class twin quotient in-process
    host = complete_bipartite(3, 4)
    assert h_degrees(star_graph(2), host, workers=MANY).h == \
        h_degrees(star_graph(2), host).h
    assert pools == []


def test_maximizer_search_with_many_workers(pools, levels):
    # one pool, one growth task per non-empty chunk of the 14 parents on
    # 5 vertices
    parallel = find_maximizers(path_graph(3), 6, workers=MANY)
    assert pools == [14]
    level = levels.pop(6)
    assert find_maximizers(path_graph(3), 6, workers=9) == parallel
    assert pools[1:] == [9]
    assert levels[6] == level
    levels.pop(6)
    assert find_maximizers(path_graph(3), 6) == parallel
    assert pools == [14, 9]
    assert levels[6] == level


def test_cached_level_opens_no_pool(pools, levels, monkeypatch):
    find_maximizers(path_graph(3), 6, workers=2)
    assert pools == [2]

    def no_growth(*args, **kwargs):
        raise AssertionError("a cached level was grown again")

    monkeypatch.setattr(oracle.kernels, "triangle_free_canonical_masks", no_growth)
    for pattern in (path_graph(2), star_graph(3)):
        for workers in (1, 2, MANY):
            find_maximizers(pattern, 6, workers=workers)
    assert pools == [2]


def test_search_opens_one_pool(pools, levels, k2_file, capsys):
    assert cli.main(["search", k2_file, "6"]) == 0
    serial = capsys.readouterr().out
    assert pools == []
    for workers in (2, MANY):
        pools.clear()
        levels.clear()
        assert cli.main(["search", k2_file, "6", "--workers", str(workers)]) == 0
        assert capsys.readouterr().out == serial
        assert pools == [min(workers, len(triangle_free_masks(5)))]


def test_host_from_two_pool_tasks_exit_3(pools, levels, k2_file, capsys,
                                         monkeypatch):
    # each host has one canonical parent, so no two chunks return the same
    # host; make every growth task also return the empty graph (mask 0)
    real = oracle.kernels.triangle_free_canonical_masks

    def leaky(n, parents=None):
        masks = real(n, parents)
        return masks if 0 in masks else [0] + masks

    monkeypatch.setattr(oracle.kernels, "triangle_free_canonical_masks", leaky)
    code = cli.main(["search", k2_file, "6", "--workers", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "two pool tasks" in captured.err
    assert pools == [2]
    assert 6 not in levels


def test_optimizer_pool_is_capped_at_seed_count(pools):
    seeds = blowup._grid_seeds(cycle_graph(5), 10)
    assert 64 < len(seeds) < MANY
    serial = optimize_weights(cycle_graph(4), cycle_graph(5), grid=10)
    parallel = optimize_weights(cycle_graph(4), cycle_graph(5), grid=10,
                                workers=MANY)
    assert parallel == serial
    assert pools == [len(seeds)]
