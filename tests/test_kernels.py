"""Kernel checks: compiled and pure kernels agree bit for bit, H-degrees
and pair degrees from the occupancy profile and the twin-pruned canonical
form match the brute-force oracles, and the enumerator's parent split
covers each level exactly."""

import itertools
import random
import types

import pytest

from extremal_count import _kernels, _pykernels
from extremal_count.embeddings import h_degrees, search_plan
from extremal_count.graphs import (Graph, build_blowup, build_gps_example1,
                                   complete_bipartite, cycle_graph,
                                   disjoint_union, path_graph, star_graph)
from extremal_count.oracle import triangle_free_masks

from naive import (naive_count_embeddings, naive_h_degree,
                   naive_maximal_independent_sets, naive_pair_degree,
                   perm_canonical_mask, random_graph)

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
    for n in range(0, 8):
        assert (_pykernels.triangle_free_canonical_masks(
                    n, canon=_kernels.fast.canonical_mask)
                == _pykernels.triangle_free_canonical_masks(n))


def test_dispatch_gives_generator_the_compiled_canonical_form(monkeypatch):
    sizes = []

    def compiled(rows, n):
        assert isinstance(rows, list)
        sizes.append(n)
        return _pykernels.canonical_mask(rows, n)

    monkeypatch.setattr(_kernels, "HAS_FAST", True)
    monkeypatch.setattr(_kernels, "fast", types.SimpleNamespace(canonical_mask=compiled))
    assert (_kernels.triangle_free_canonical_masks(6)
            == _pykernels.triangle_free_canonical_masks(6))
    assert max(sizes) == 6


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
    # per parent: each parent must keep exactly the child classes whose
    # canonical masks start with its own, so a child lost from its one
    # canonical parent shows here
    for k in range(1, 7):
        for mask in triangle_free_masks(k):
            rows = _pykernels.rows_from_mask(k, mask)
            every = set()
            for s in range(1 << k):
                if any(s >> v & 1 and s & rows[v] for v in range(k)):
                    continue
                child = [r | (s >> v & 1) << k for v, r in enumerate(rows)]
                every.add(_pykernels.canonical_mask(child + [s], k + 1))
            assert _kernels.triangle_free_canonical_masks(
                k + 1, parents=[mask]) == sorted(c for c in every if c >> k == mask)


def test_twin_reduced_maximal_independent_sets_cover_every_orbit():
    # every maximal independent set gives the same child class as one of
    # the twin-reduced sets, and every twin-reduced set is maximal
    rng = random.Random(353)
    graphs = [random_graph(rng, rng.randint(0, 7), rng.choice([0.2, 0.5]))
              for _ in range(80)] + _twin_rich_graphs()
    for g in graphs:
        k = g.n
        reduced = _pykernels.maximal_independent_subsets(g.rows, k)
        every = naive_maximal_independent_sets(g.rows, k)
        assert len(set(reduced)) == len(reduced) and set(reduced) <= set(every)

        def child_class(s):
            child = [r | (s >> v & 1) << k for v, r in enumerate(g.rows)]
            return _pykernels.canonical_mask(child + [s], k + 1)

        assert {child_class(s) for s in reduced} == {child_class(s) for s in every}


def test_parent_chunks_union_to_serial_level():
    # at n = 8 only the finest split runs: any chunking is a union of
    # single-parent extensions.  Chunks are pairwise disjoint, so their
    # sizes add up to the level size.
    for n in range(1, 9):
        serial = triangle_free_masks(n)
        parents = triangle_free_masks(n - 1) if n > 1 else (0,)
        splits = [len(parents)] if n == 8 else sorted({1, 2, 3, len(parents)})
        for k in splits:
            parts = [_kernels.triangle_free_canonical_masks(n, parents=parents[i::k])
                     for i in range(k)]
            union = set().union(*parts)
            assert tuple(sorted(union)) == serial
            assert sum(map(len, parts)) == len(serial)


def test_mask_roundtrip():
    rng = random.Random(313)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8), 0.5)
        mask = _pykernels.mask_from_rows(g.rows, g.n)
        assert tuple(_pykernels.rows_from_mask(g.n, mask)) == g.rows
