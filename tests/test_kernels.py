"""Kernel checks: compiled and pure kernels agree bit for bit, and the pure
H-degree kernel matches the brute-force oracles."""

import random

import pytest

from extremal_count import _kernels, _pykernels
from extremal_count.embeddings import _first_vertex_chunks, search_plan
from extremal_count.graphs import Graph, disjoint_union, path_graph

from naive import naive_count_embeddings, naive_h_degree, random_graph

needs_fast = pytest.mark.skipif(not _kernels.HAS_FAST,
                                reason="compiled kernels not built")


@needs_fast
def test_count_injective_agreement():
    rng = random.Random(301)
    for _ in range(150):
        pattern = random_graph(rng, rng.randint(0, 5), 0.5)
        host = random_graph(rng, rng.randint(0, 8), 0.5)
        _, parents = search_plan(pattern)
        pure = _pykernels.count_injective(host.rows, host.n, parents)
        fast = _kernels.fast.count_injective(list(host.rows), host.n, parents, -1)
        assert pure == fast


@needs_fast
def test_count_injective_first_mask_agreement():
    rng = random.Random(307)
    for _ in range(50):
        pattern = random_graph(rng, rng.randint(1, 4), 0.6)
        host = random_graph(rng, rng.randint(1, 7), 0.5)
        _, parents = search_plan(pattern)
        mask = rng.randrange(1 << host.n)
        pure = _pykernels.count_injective(host.rows, host.n, parents, mask)
        fast = _kernels.fast.count_injective(list(host.rows), host.n, parents, mask)
        assert pure == fast


@needs_fast
def test_count_h_degrees_agreement():
    rng = random.Random(317)
    for _ in range(150):
        pattern = random_graph(rng, rng.randint(0, 5), 0.5)
        host = random_graph(rng, rng.randint(0, 8), 0.5)
        _, parents = search_plan(pattern)
        pure = _pykernels.count_h_degrees(host.rows, host.n, parents)
        fast = _kernels.fast.count_h_degrees(list(host.rows), host.n, parents, -1)
        assert pure == fast
        if pattern.n and host.n:
            mask = rng.randrange(1 << host.n)
            assert (_pykernels.count_h_degrees(host.rows, host.n, parents, mask)
                    == _kernels.fast.count_h_degrees(list(host.rows), host.n,
                                                     parents, mask))


def _h_degree_cases():
    """Random pairs plus the shapes a search order can trip on: empty and
    one-vertex patterns, patterns larger than the host, isolated pattern
    vertices and disconnected patterns."""
    rng = random.Random(331)
    two_edges = disjoint_union(path_graph(2), path_graph(2))
    cases = [(Graph(0), random_graph(rng, 4, 0.5)), (Graph(0), Graph(0)),
             (Graph(1), random_graph(rng, 5, 0.5)), (Graph(1), Graph(0)),
             (path_graph(3), path_graph(2)), (Graph(3), random_graph(rng, 5, 0.5)),
             (disjoint_union(path_graph(2), Graph(1)), random_graph(rng, 6, 0.5)),
             (two_edges, random_graph(rng, 6, 0.6)),
             (disjoint_union(path_graph(3), path_graph(2)), random_graph(rng, 7, 0.6))]
    for _ in range(60):
        cases.append((random_graph(rng, rng.randint(0, 5), 0.5),
                      random_graph(rng, rng.randint(0, 7), 0.5)))
    return cases


def test_count_h_degrees_matches_naive():
    for pattern, host in _h_degree_cases():
        _, parents = search_plan(pattern)
        total, h = _pykernels.count_h_degrees(host.rows, host.n, parents)
        assert total == naive_count_embeddings(pattern, host)
        assert h == [naive_h_degree(pattern, host, v) for v in range(host.n)]


def test_count_h_degrees_first_mask_partitions_add_up():
    rng = random.Random(337)
    for pattern, host in _h_degree_cases():
        if not pattern.n or not host.n:
            continue
        _, parents = search_plan(pattern)
        whole = _pykernels.count_h_degrees(host.rows, host.n, parents)
        mask = rng.randrange(1 << host.n)
        splits = [[mask, ((1 << host.n) - 1) ^ mask],
                  _first_vertex_chunks(host.n, 2), _first_vertex_chunks(host.n, 3)]
        for chunks in splits:
            parts = [_pykernels.count_h_degrees(host.rows, host.n, parents, c)
                     for c in chunks]
            assert sum(t for t, _ in parts) == whole[0]
            assert [sum(col) for col in zip(*(h for _, h in parts))] == whole[1]


@needs_fast
def test_canonical_agreement():
    rng = random.Random(311)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        assert (_pykernels.canonical_mask(g.rows, g.n)
                == _kernels.fast.canonical_mask(list(g.rows), g.n))
        assert (_pykernels.is_min_canonical(g.rows, g.n)
                == _kernels.fast.is_min_canonical(list(g.rows), g.n))


@needs_fast
def test_enumeration_agreement():
    for n in range(0, 7):
        assert (_pykernels.triangle_free_canonical_masks(n)
                == _kernels.fast.triangle_free_canonical_masks(n))


@needs_fast
def test_prefix_partition_covers_everything():
    n = 6
    n_edges = n * (n - 1) // 2
    for prefix_len in (4, 10):
        gathered = []
        for val in range(1 << prefix_len):
            gathered.extend(
                _kernels.fast.triangle_free_canonical_masks(n, prefix_len, val))
        assert gathered == _kernels.fast.triangle_free_canonical_masks(n)
        assert prefix_len <= n_edges


def test_mask_roundtrip():
    rng = random.Random(313)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8), 0.5)
        mask = _pykernels.mask_from_rows(g.rows, g.n)
        assert tuple(_pykernels.rows_from_mask(g.n, mask)) == g.rows
