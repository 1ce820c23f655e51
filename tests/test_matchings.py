"""Maximum matching and the matching-based hypothesis checkers."""

import random
from fractions import Fraction

import pytest

from extremal_count import (Graph, NotBipartiteError, build_theorem2_H,
                            check_theorem1_hypothesis, complete_bipartite,
                            count_embeddings, cycle_graph, disjoint_union,
                            maximum_matching, path_graph, star_graph)

from extremal_count.matchings import _verify_koenig_cover

from naive import (naive_matchings_covering, naive_max_matching_size,
                   random_bipartite_with_components)


def test_matching_examples():
    report = maximum_matching(cycle_graph(4))
    assert report.size_x == 2 and not report.unmatched and report.d == 0
    report = maximum_matching(star_graph(3))
    assert report.size_x == 1 and len(report.unmatched) == 2 and report.d == 1


def test_matching_theorem2_patterns():
    report = maximum_matching(build_theorem2_H(2, 6))
    assert report.size_x == 6
    assert len(report.unmatched) == 4
    assert naive_max_matching_size(build_theorem2_H(2, 6)) == 6


def test_matching_pairs_are_disjoint_edges():
    rng = random.Random(17)
    for _ in range(30):
        g = random_bipartite_with_components(rng, rng.randint(2, 10),
                                             rng.randint(1, 3))
        report = maximum_matching(g)
        seen = set()
        for u, v in report.matched_pairs:
            assert g.has_edge(u, v)
            assert u not in seen and v not in seen
            seen.update((u, v))
        assert set(report.unmatched) == set(range(g.n)) - seen
        assert len(report.unmatched) == g.n - 2 * report.size_x


def test_matching_size_matches_bruteforce():
    rng = random.Random(19)
    for _ in range(40):
        g = random_bipartite_with_components(rng, rng.randint(1, 12),
                                             rng.randint(1, 3))
        assert maximum_matching(g).size_x == naive_max_matching_size(g)


def test_matching_rejects_non_bipartite():
    with pytest.raises(NotBipartiteError):
        maximum_matching(cycle_graph(5))


def test_theorem2_H_matching_sweep():
    for d in range(1, 6):
        for x in range(3, 13):
            report = maximum_matching(build_theorem2_H(d, x))
            assert report.size_x == x
            assert len(report.unmatched) == 2 * d
            assert report.d == d


def test_hypothesis_examples():
    assert check_theorem1_hypothesis(cycle_graph(4)).satisfies_thm1
    assert not check_theorem1_hypothesis(star_graph(3)).satisfies_thm1
    verdict = check_theorem1_hypothesis(build_theorem2_H(1, 20))
    assert verdict.satisfies_thm1  # 4*4 = 16 <= 19
    assert verdict.lambda_ratio == Fraction(2, 20)


def test_gps_condition():
    assert check_theorem1_hypothesis(cycle_graph(4)).satisfies_gps
    assert check_theorem1_hypothesis(path_graph(5)).satisfies_gps
    assert not check_theorem1_hypothesis(star_graph(3)).satisfies_gps


def test_hypothesis_monotone_under_disjoint_edge():
    rng = random.Random(23)
    for _ in range(30):
        g = random_bipartite_with_components(rng, rng.randint(2, 9),
                                             rng.randint(1, 2))
        if not check_theorem1_hypothesis(g).satisfies_thm1:
            continue
        extended = disjoint_union(g, path_graph(2))
        assert check_theorem1_hypothesis(extended).satisfies_thm1


def test_some_maximum_matching_covers_every_nonisolated_vertex():
    # proof step: under maximality every non-isolated w lies in some maximum
    # matching (swap an alternating edge if needed)
    rng = random.Random(29)
    for _ in range(20):
        g = random_bipartite_with_components(rng, rng.randint(2, 8),
                                             rng.randint(1, 2))
        size = maximum_matching(g).size_x
        for w in range(g.n):
            if not g.rows[w]:
                continue
            assert naive_matchings_covering(g, w, size)


def test_isolated_only_pattern():
    g = Graph(3)
    host = complete_bipartite(2, 3)
    assert count_embeddings(g, host) == 5 * 4 * 3
    # K2 plus an isolated vertex: 12 ordered edges times 3 free vertices
    assert count_embeddings(Graph(3, [(0, 1)]), host) == 36


def test_koenig_certificate_rejects_a_wrong_cover():
    # two disjoint edges with nothing matched: from the left vertex 0 the
    # cover is {1}, one vertex, and it leaves the edge (2, 3) uncovered
    g = Graph(4, [(0, 1), (2, 3)])
    match = dict.fromkeys(range(4))
    with pytest.raises(RuntimeError, match="cover size mismatch"):
        _verify_koenig_cover(g, [0], match, 0)
    with pytest.raises(RuntimeError, match=r"edge \(2,3\) uncovered"):
        _verify_koenig_cover(g, [0], match, 1)
