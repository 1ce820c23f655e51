"""Embedding counts, H-degrees, and the clone move."""

import math
import random
import time

import pytest

from extremal_count import (Graph, build_blowup, build_theorem2_H,
                            clone_move, complete_bipartite,
                            count_automorphisms, count_copies,
                            count_embeddings, cycle_graph, disjoint_union,
                            embeddings, h_degrees, is_bipartite,
                            is_isomorphic, is_triangle_free, path_graph,
                            star_graph)
from extremal_count.graphs import twin_quotient

from naive import (naive_count_embeddings, naive_h_degree, naive_pair_degree,
                   random_graph, random_triangle_free)


def test_count_embeddings_examples():
    assert count_embeddings(path_graph(2), path_graph(2)) == 2
    assert count_embeddings(cycle_graph(4), complete_bipartite(2, 2)) == 8
    assert count_embeddings(path_graph(3), cycle_graph(5)) == 10


def test_count_embeddings_edge_cases():
    assert count_embeddings(path_graph(3), path_graph(2)) == 0  # pattern too big
    assert count_embeddings(Graph(0), cycle_graph(4)) == 1      # empty map
    assert count_embeddings(Graph(2), Graph(3)) == 6            # no constraints


def test_count_automorphisms_examples():
    assert count_automorphisms(cycle_graph(4)) == 8
    assert count_automorphisms(cycle_graph(5)) == 10
    assert count_automorphisms(build_theorem2_H(1, 3)) == 8


def test_count_copies_examples():
    assert count_copies(cycle_graph(4), complete_bipartite(2, 2)) == 1
    assert count_copies(path_graph(2), complete_bipartite(2, 3)) == 6
    assert count_copies(cycle_graph(4), complete_bipartite(2, 3)) == 3


def test_counts_match_naive_enumeration():
    rng = random.Random(101)
    for _ in range(120):
        pattern = random_graph(rng, rng.randint(0, 5), 0.5)
        host = random_graph(rng, rng.randint(0, 7), 0.5)
        assert count_embeddings(pattern, host) == naive_count_embeddings(pattern, host)


def test_adding_host_edge_never_decreases_count():
    rng = random.Random(103)
    for _ in range(40):
        pattern = random_graph(rng, rng.randint(1, 4), 0.6)
        host = random_graph(rng, rng.randint(2, 7), 0.4)
        non_edges = [(u, v) for u in range(host.n) for v in range(u + 1, host.n)
                     if not host.has_edge(u, v)]
        if not non_edges:
            continue
        extra = rng.choice(non_edges)
        bigger = Graph(host.n, host.edges() + [extra])
        assert count_embeddings(pattern, bigger) >= count_embeddings(pattern, host)


def test_h_degrees_k2_in_k23():
    report = h_degrees(path_graph(2), complete_bipartite(2, 3))
    assert report.total == 12
    assert [report.h[v] for v in range(5)] == [6, 6, 4, 4, 4]
    host = complete_bipartite(2, 3)
    for v in range(5):
        assert report.h[v] == 2 * host.degree(v)


def test_h_degrees_c4_spans_k22():
    report = h_degrees(cycle_graph(4), complete_bipartite(2, 2))
    assert all(report.h[v] == 8 for v in range(4))


def test_h_degree_double_counting_identity():
    rng = random.Random(107)
    for _ in range(25):
        pattern = random_graph(rng, rng.randint(1, 4), 0.5)
        host = random_graph(rng, rng.randint(1, 6), 0.5)
        report = h_degrees(pattern, host)
        assert sum(report.h.values()) == pattern.n * report.total


def test_h_degree_matches_naive_membership_count():
    rng = random.Random(109)
    for _ in range(15):
        pattern = random_graph(rng, rng.randint(1, 3), 0.6)
        host = random_graph(rng, rng.randint(1, 6), 0.5)
        report = h_degrees(pattern, host)
        for v in range(host.n):
            assert report.h[v] == naive_h_degree(pattern, host, v)


def test_h_degree_pair_identities():
    rng = random.Random(113)
    for _ in range(15):
        pattern = random_graph(rng, rng.randint(1, 3), 0.6)
        host = random_graph(rng, rng.randint(2, 6), 0.5)
        report = h_degrees(pattern, host)
        for u in range(host.n):
            for v in range(host.n):
                if u == v:
                    continue
                huv = report.pair(u, v)
                assert huv <= min(report.h[u], report.h[v])
                assert report.complement(u, v) + huv == report.h[u]
                assert huv == report.pair(v, u)


def test_h_degree_pair_matches_naive():
    rng = random.Random(127)
    for _ in range(12):
        pattern = random_graph(rng, rng.randint(1, 4), 0.6)
        host = random_graph(rng, rng.randint(2, 6), 0.5)
        report = h_degrees(pattern, host)
        for u in range(host.n):
            for v in range(host.n):
                assert report.pair(u, v) == naive_pair_degree(pattern, host, u, v)


def test_clone_move_preserves_triangle_freeness():
    g = cycle_graph(5)
    result = clone_move(g, 0, 1)
    assert result.n == 5
    assert is_triangle_free(result)


def test_clone_move_k23():
    # clone a 2-side vertex over a 3-side one: still K_{2,3} up to iso
    g = complete_bipartite(2, 3)
    result = clone_move(g, 4, 0)
    assert is_isomorphic(result, complete_bipartite(2, 3))


def test_clone_move_rejects_equal_vertices():
    with pytest.raises(ValueError):
        clone_move(cycle_graph(5), 2, 2)


def test_clone_move_gain_ledger():
    # count(G') - count(G) >= h(v, u-bar) - h(u) on random triangle-free hosts
    rng = random.Random(127)
    pattern = path_graph(3)
    checked = 0
    while checked < 100:
        host = random_triangle_free(rng, rng.randint(3, 8))
        u, v = rng.sample(range(host.n), 2)
        report = h_degrees(pattern, host)
        before = report.total
        after = count_embeddings(pattern, clone_move(host, u, v))
        assert after - before >= report.complement(v, u) - report.h[u]
        checked += 1


def test_copies_divide_exactly_on_random_pairs():
    rng = random.Random(131)
    for _ in range(40):
        pattern = random_graph(rng, rng.randint(1, 4), 0.5)
        host = random_graph(rng, rng.randint(1, 6), 0.5)
        emb = count_embeddings(pattern, host)
        aut = count_automorphisms(pattern)
        assert emb % aut == 0
        assert count_copies(pattern, host) * aut == emb


def test_star_copies_formula():
    host = complete_bipartite(2, 6)
    # one K_{1,3} per choice of a center and 3 of its neighbors
    assert count_copies(star_graph(3), host) == 2 * 20


# ---------------------------------------------------------------------------
# counting through the twin quotient
# ---------------------------------------------------------------------------

def _random_tree(rng, n):
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _check_quotient_against_naive(rng, pattern, host):
    """Total, every h(v) and a sample of pair values, including a pair
    inside one twin class, against the brute-force oracles."""
    _, _, classes = twin_quotient(host)
    report = h_degrees(pattern, host)
    assert report.total == count_embeddings(pattern, host)
    assert report.total == naive_count_embeddings(pattern, host)
    for v in range(host.n):
        assert report.h[v] == naive_h_degree(pattern, host, v)
    pairs = [(u, v) for u in range(host.n) for v in range(u + 1, host.n)]
    sample = rng.sample(pairs, min(4, len(pairs)))
    sample += [(u, v) for u, v in pairs if classes[u] == classes[v]][:1]
    for u, v in sample:
        assert report.pair(u, v) == naive_pair_degree(pattern, host, u, v)
        assert report.pair(v, u) == report.pair(u, v)


def test_quotient_counts_match_naive_on_blowups():
    # blow-ups of random triangle-free skeletons on 2-6 vertices with blob
    # sizes 1-3; hosts over 9 vertices are redrawn to keep the oracle fast
    rng = random.Random(137)
    checked = 0
    while checked < 30:
        k = rng.randint(2, 6)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        if sum(sizes) > 9:
            continue
        host = build_blowup(random_triangle_free(rng, k), sizes)
        if twin_quotient(host)[0].n == host.n:
            continue
        pattern = rng.choice([_random_tree(rng, rng.randint(1, 5)), cycle_graph(4)])
        _check_quotient_against_naive(rng, pattern, host)
        checked += 1


def test_quotient_counts_with_isolated_vertices():
    rng = random.Random(139)
    for _ in range(10):
        k = rng.randint(2, 4)
        host = build_blowup(random_triangle_free(rng, k),
                            [rng.randint(1, 2) for _ in range(k)])
        host = disjoint_union(host, Graph(rng.randint(1, 2)))
        for pattern in (_random_tree(rng, rng.randint(1, 4)), Graph(2),
                        disjoint_union(path_graph(2), Graph(1))):
            _check_quotient_against_naive(rng, pattern, host)


def test_quotient_counts_on_host_with_triangle():
    rng = random.Random(149)
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    host = disjoint_union(build_blowup(k3, [2, 1, 2]), cycle_graph(4))
    assert not is_triangle_free(host)
    for pattern in (k3, path_graph(3), cycle_graph(4), star_graph(3)):
        _check_quotient_against_naive(rng, pattern, host)


def test_tree_in_k10_10_counts_through_the_quotient():
    # a 10-vertex tree with sides of 3 and 7: 2 * (10)_3 * (10)_7
    # embeddings.  Backtracking over the 20 host vertices took minutes
    tree = Graph(10, [(0, 3), (3, 1), (1, 4), (4, 2), (0, 5), (0, 6), (1, 7),
                      (2, 8), (2, 9)])
    host = complete_bipartite(10, 10)
    start = time.monotonic()
    assert count_embeddings(tree, host) == 870_912_000
    assert time.monotonic() - start < 1.0
    rng = random.Random(151)
    for _ in range(5):
        tree = _random_tree(rng, 10)
        side0, side1 = is_bipartite(tree)
        assert count_embeddings(tree, host) == \
            2 * math.perm(10, len(side0)) * math.perm(10, len(side1))


def test_inexact_second_moment_raises(monkeypatch):
    real = embeddings.occupancy_second_moment

    def off_by_one(profile, sizes):
        return [[x + 1 for x in row] for row in real(profile, sizes)]

    monkeypatch.setattr(embeddings, "occupancy_second_moment", off_by_one)
    report = h_degrees(path_graph(3), complete_bipartite(3, 3))
    with pytest.raises(RuntimeError, match="not divisible"):
        report.pair(0, 1)
