"""Process pools are sized by their task count, not by --workers.

An executor forks its worker processes up front, so a pool asked for more
workers than it has tasks would start idle processes.  These tests swap in
an in-process executor that records the requested size and starts none."""

import pytest

from extremal_count import (OptimizerConfig, blowup, complete_bipartite,
                            count_embeddings, cycle_graph, embeddings,
                            find_maximizers, h_degrees, optimize_weights,
                            oracle, path_graph, star_graph, triangle_free_masks)

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


def test_embedding_pool_is_capped_at_host_size(pools):
    host = complete_bipartite(3, 4)
    assert count_embeddings(path_graph(3), host, workers=MANY) == \
        count_embeddings(path_graph(3), host)
    assert h_degrees(star_graph(2), host, workers=MANY).h == \
        h_degrees(star_graph(2), host).h
    assert pools == [host.n, host.n]


def test_enumeration_pool_is_capped_at_parent_count(pools, monkeypatch):
    monkeypatch.setattr(oracle, "_enum_cache", {})
    parents = triangle_free_masks(5)
    assert triangle_free_masks(6, workers=MANY) == oracle._masks(6)
    assert pools == [len(parents)]
    monkeypatch.setattr(oracle, "_enum_cache", {})
    assert triangle_free_masks(6, workers=4) == oracle._masks(6)
    assert pools[1:] == [4]


def test_maximizer_search_with_many_workers(pools, monkeypatch):
    serial = find_maximizers(path_graph(3), 6)
    monkeypatch.setattr(oracle, "_enum_cache", {})
    assert find_maximizers(path_graph(3), 6, workers=MANY) == serial
    # 14 parents on 5 vertices; 38 hosts are too few to split the scoring
    assert pools == [14]
    monkeypatch.setattr(oracle, "_enum_cache", {})
    assert find_maximizers(path_graph(3), 6, workers=9) == serial
    assert pools[1:] == [9, 9]


def test_optimizer_pool_is_capped_at_seed_count(pools):
    seeds = blowup._grid_seeds(cycle_graph(5), 10)
    assert 64 < len(seeds) < MANY
    serial = optimize_weights(cycle_graph(4), cycle_graph(5),
                              OptimizerConfig(grid_resolution=10))
    parallel = optimize_weights(cycle_graph(4), cycle_graph(5),
                                OptimizerConfig(grid_resolution=10, workers=MANY))
    assert parallel == serial
    assert pools == [len(seeds)]
