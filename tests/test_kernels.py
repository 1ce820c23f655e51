"""Kernel checks: compiled and pure kernels agree bit for bit, H-degrees
and pair degrees from the occupancy profile and the twin-pruned canonical
form match the brute-force oracles, and the twin-pruned growth of maximal
triangle-free classes and the pruned edge-deletion closure reach every
class the unpruned ones reach."""

import itertools
import random
import types

import pytest

from extremal_count import _kernels, _pykernels, _pyplace
from extremal_count.embeddings import h_degrees
from extremal_count.graphs import (Graph, build_blowup, build_gps_example1,
                                   complete_bipartite, cycle_graph,
                                   disjoint_union, path_graph, star_graph)
from extremal_count.oracle import _maximal_masks, triangle_free_masks

from naive import (naive_canonical_mask, naive_count_embeddings, naive_h_degree,
                   naive_is_maximal_triangle_free, naive_pair_degree,
                   naive_triangle_free_levels, perm_canonical_mask,
                   random_graph, random_triangle_free)

needs_fast = pytest.mark.skipif(not _kernels.HAS_FAST,
                                reason="compiled kernels not built")


@needs_fast
def test_count_injective_agreement():
    rng = random.Random(301)
    for _ in range(150):
        pattern = random_graph(rng, rng.randint(0, 5), 0.5)
        host = random_graph(rng, rng.randint(0, 8), 0.5)
        _, parents = _pyplace.search_plan(pattern)
        pure = _pyplace.count_injective(host.rows, host.n, parents)
        fast = _kernels.fast.count_injective(list(host.rows), host.n, parents)
        assert pure == fast


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
    # every host, twin-free or not, is counted through its twin quotient
    for pattern, host in _h_degree_cases():
        report = h_degrees(pattern, host)
        assert report.total == naive_count_embeddings(pattern, host)
        assert ([report.h[v] for v in range(host.n)]
                == [naive_h_degree(pattern, host, v) for v in range(host.n)])
        for u, v in itertools.combinations(range(host.n), 2):
            assert report.pair(u, v) == naive_pair_degree(pattern, host, u, v)


@needs_fast
def test_canonical_agreement():
    rng = random.Random(311)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        assert (_pykernels.canonical_mask(g.rows, g.n)
                == _kernels.fast.canonical_mask(list(g.rows), g.n))


@needs_fast
def test_generator_same_with_compiled_canonical_form():
    for n in range(1, 8):
        parents = _maximal_masks(n - 1)
        maximal = _pykernels.maximal_triangle_free_growth(n, parents)
        assert _pykernels.maximal_triangle_free_growth(
            n, parents, _kernels.fast.canonical_mask) == maximal
        assert (_pykernels.triangle_free_canonical_masks(
                    n, maximal, canon=_kernels.fast.canonical_mask)
                == _pykernels.triangle_free_canonical_masks(n, maximal))


def test_dispatch_gives_generator_the_compiled_canonical_form(monkeypatch):
    sizes = []

    def compiled(rows, n):
        assert isinstance(rows, list)
        sizes.append(n)
        return _pykernels.canonical_mask(rows, n)

    parents, maximal, level = _maximal_masks(5), _maximal_masks(6), triangle_free_masks(6)
    monkeypatch.setattr(_kernels, "HAS_FAST", True)
    monkeypatch.setattr(_kernels, "fast", types.SimpleNamespace(canonical_mask=compiled))
    assert _kernels.maximal_triangle_free_growth(6, parents) == list(maximal)
    assert sizes and set(sizes) == {6}
    sizes.clear()
    assert _kernels.triangle_free_canonical_masks(6, maximal) == list(level)
    assert sizes and set(sizes) == {6}


def _twin_rich_graphs():
    """Graphs whose twin classes the pruned canonical form skips: edgeless
    graphs, complete bipartite graphs (stars among them), isolated and
    pendant twins, perfect matchings (adjacent twins) and C5 blow-ups, all
    with n <= 8."""
    c5 = cycle_graph(5)
    graphs = [Graph(n) for n in range(1, 9)]
    graphs += [complete_bipartite(a, b) for a in range(1, 5)
               for b in range(a, 9 - a)]
    graphs += [disjoint_union(complete_bipartite(2, 3), Graph(2)),
               disjoint_union(path_graph(3), Graph(3)),
               Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]),
               Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]),
               build_gps_example1(4)]
    matching = Graph(0)
    for _ in range(4):
        matching = disjoint_union(matching, path_graph(2))
        graphs.append(matching)
    graphs.append(disjoint_union(path_graph(2), star_graph(3)))
    graphs += [build_blowup(c5, sizes) for sizes in
               [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1, 1),
                (2, 1, 2, 1, 1), (3, 1, 1, 1, 1), (2, 2, 2, 1, 1),
                (4, 1, 1, 1, 1)]]
    return graphs


def test_pruned_canonical_form_matches_permutation_oracle_on_twins():
    rng = random.Random(347)
    for g in _twin_rich_graphs():
        assert g.n <= 8
        expected = perm_canonical_mask(g.rows, g.n)
        assert _pykernels.canonical_mask(g.rows, g.n) == expected
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert _pykernels.canonical_mask(relabeled.rows, g.n) == expected


def test_twin_reduced_growth_reaches_every_child_class():
    # per parent: the growth with S taken lowest index first in each twin
    # class keeps the same classes as the growth by every vertex set S
    for k in range(1, 8):
        for mask in _maximal_masks(k):
            rows = _pykernels.rows_from_mask(k, mask)
            every = set()
            for s in range(1 << k):
                child = [r & ~s | 1 << k if s >> v & 1 else r
                         for v, r in enumerate(rows)] + [s]
                if naive_is_maximal_triangle_free(child, k + 1):
                    every.add(_pykernels.canonical_mask(child, k + 1))
            assert _kernels.maximal_triangle_free_growth(k + 1, [mask]) == sorted(every)


def test_twin_pruned_deletions_cover_every_orbit():
    # the deletions of the twin-pruned edges give the same classes as the
    # deletions of every edge
    rng = random.Random(353)
    graphs = [random_triangle_free(rng, rng.randint(0, 8)) for _ in range(80)]
    graphs += [g for g in _twin_rich_graphs() if g.n <= 7]
    for g in graphs:
        n = g.n

        def deleted(i, j):
            rows = list(g.rows)
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
            return _pykernels.canonical_mask(rows, n)

        pruned = _pykernels._twin_pruned_edges(list(g.rows), n)
        assert set(pruned) <= set(g.edges())
        assert {deleted(i, j) for i, j in pruned} == {deleted(i, j) for i, j in g.edges()}


def test_closure_keeps_every_accepted_class():
    # an edge-count floor is accepted by every graph above one it accepts;
    # seeded with the maximal classes it accepts, the closure must hold
    # every class of the naive level with that many edges
    for n, level in enumerate(naive_triangle_free_levels(7)):
        naive = {mask: naive_canonical_mask(_pykernels.rows_from_mask(n, mask), n)
                 for mask in triangle_free_masks(n)}
        for floor in range(n * n // 4 + 1):
            seeds = [mask for mask in _maximal_masks(n) if mask.bit_count() >= floor]
            closed = _kernels.triangle_free_canonical_masks(
                n, seeds, lambda masks: [m for m in masks if m.bit_count() >= floor])
            expected = {mask for mask in level if mask.bit_count() >= floor}
            assert len(closed) == len(expected)
            assert {naive[mask] for mask in closed} == expected


def test_mask_roundtrip():
    rng = random.Random(313)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8), 0.5)
        mask = _pykernels.mask_from_rows(g.rows, g.n)
        assert tuple(_pykernels.rows_from_mask(g.n, mask)) == g.rows
