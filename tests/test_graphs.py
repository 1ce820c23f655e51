"""Graph construction, predicates, and the text format."""

import random

import pytest

from extremal_count import (Graph, GraphFormatError, build_blowup,
                            build_gps_example1, build_theorem2_H, build_turan2,
                            complete_bipartite, complete_graph,
                            connected_components, cycle_graph, degree_stats,
                            enumerate_triangle_free, is_bipartite,
                            is_complete_bipartite, is_isomorphic,
                            is_triangle_free, path_graph, read_graph_text,
                            star_graph, write_graph_text)
from extremal_count.graphs import twin_quotient

from naive import perm_canonical_mask, random_graph


def all_builders():
    return [
        build_turan2(1), build_turan2(2), build_turan2(7), build_turan2(10),
        build_blowup(cycle_graph(5), (2, 1, 1, 1, 1)),
        build_blowup(path_graph(2), (3, 4)),
        build_gps_example1(3), build_gps_example1(5),
        build_theorem2_H(1, 3), build_theorem2_H(2, 5),
        complete_bipartite(0, 4), star_graph(3), cycle_graph(6),
    ]


def test_graph_invariants_on_all_builders():
    for g in all_builders():
        assert g.edge_count() == len(g.edges())
        for u in range(g.n):
            assert not g.rows[u] >> u & 1
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)


def test_graph_rejects_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_rows([0b10, 0b00])  # asymmetric


def test_builders_reject_negative_sizes():
    for a, b in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            complete_bipartite(a, b)
    with pytest.raises(ValueError):
        star_graph(-1)
    assert complete_bipartite(0, 0).n == 0 and star_graph(0).n == 1


def test_turan2_small():
    assert build_turan2(2).edge_count() == 1
    g5 = build_turan2(5)
    assert g5.edge_count() == 6
    assert is_isomorphic(g5, complete_bipartite(2, 3))
    g10 = build_turan2(10)
    assert g10.edge_count() == 25
    assert is_bipartite(g10) is not None
    assert is_triangle_free(g10)


def test_turan2_is_edge_blowup():
    for n in range(1, 10):
        blown = build_blowup(path_graph(2), ((n + 1) // 2, n // 2))
        assert is_isomorphic(build_turan2(n), blown)


def test_blowup_edge_identity():
    assert is_isomorphic(build_blowup(path_graph(2), (2, 3)),
                         complete_bipartite(2, 3))
    assert is_isomorphic(build_blowup(cycle_graph(5), (1,) * 5), cycle_graph(5))


def test_blowup_c5_21111():
    # sizes sum to 6; each C5 edge contributes s_u * s_v edges, here 7
    g = build_blowup(cycle_graph(5), (2, 1, 1, 1, 1))
    assert g.n == 6
    assert g.edge_count() == 7
    assert is_triangle_free(g)
    assert sorted(g.labels.values()).count("blob0") == 2


def test_blowup_size_mismatch():
    with pytest.raises(ValueError):
        build_blowup(cycle_graph(5), (1, 1))


def test_blowup_preserves_triangle_freeness():
    rng = random.Random(11)
    for _ in range(40):
        pat = random_graph(rng, rng.randint(1, 5), 0.5)
        sizes = [rng.randint(1, 3) for _ in range(pat.n)]
        blown = build_blowup(pat, sizes)
        assert is_triangle_free(blown) == is_triangle_free(pat)


def test_gps_example1_k3_is_path6():
    assert is_isomorphic(build_gps_example1(3), path_graph(6))


def test_gps_example1_k4_by_hand():
    g = build_gps_example1(4)
    # centers 0 and 1, path 0-2-3-1, leaves 4,5 on 0 and 6,7 on 1
    expected = Graph(8, [(0, 2), (2, 3), (1, 3), (0, 4), (0, 5), (1, 6), (1, 7)])
    assert g.n == 8 and g.edge_count() == 7
    assert g.rows == expected.rows
    sides = is_bipartite(g)
    assert sides is not None and len(sides[0]) == 4


def test_gps_example1_vertex_count():
    for k in range(3, 12):
        g = build_gps_example1(k)
        assert g.n == 2 * k
        sides = is_bipartite(g)
        assert len(sides[0]) == k and len(sides[1]) == k


def test_theorem2_H_structure():
    g = build_theorem2_H(1, 3)
    assert g.n == 8 and g.edge_count() == 7
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [1, 1, 1, 1, 2, 2, 3, 3]  # two stars with 2 leaves, joined
    for d in range(1, 4):
        for x in range(3, 8):
            h = build_theorem2_H(d, x)
            assert h.n == 2 * x + 2 * d
            assert h.edge_count() == h.n - 1
            count, _ = connected_components(h)
            assert count == 1
            assert is_bipartite(h) is not None


def test_theorem2_H_blob_labels():
    g = build_theorem2_H(2, 5)
    counts = {}
    for lab in g.labels.values():
        counts[lab] = counts.get(lab, 0) + 1
    # blob1: 2(d+1) leaves + (x-3) tops; blob2: u1 + (x-3) middles
    assert counts == {"blob1": 8, "blob2": 3, "blob3": 1, "blob4": 1, "blob5": 1}


def test_theorem2_H_bad_params():
    with pytest.raises(ValueError):
        build_theorem2_H(0, 5)
    with pytest.raises(ValueError):
        build_theorem2_H(1, 2)


def test_predicates():
    assert is_triangle_free(cycle_graph(5))
    assert is_bipartite(cycle_graph(5)) is None
    assert not is_triangle_free(complete_graph(3))
    h = build_theorem2_H(1, 5)
    assert is_bipartite(h) is not None
    count, parts = connected_components(h)
    assert count == 1 and len(parts[0]) == h.n


def test_degree_stats():
    stats = degree_stats(complete_bipartite(2, 3))
    assert (stats.delta_min, stats.delta_max, stats.edge_count) == (2, 3, 6)
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        s = degree_stats(g)
        assert 0 <= s.delta_min <= s.delta_max <= g.n - 1
        assert sum(g.degree(v) for v in range(g.n)) == 2 * s.edge_count


def test_connected_components_counts():
    g = Graph(5, [(0, 1), (2, 3)])
    count, parts = connected_components(g)
    assert count == 3
    assert parts == ((0, 1), (2, 3), (4,))


def test_text_roundtrip_graph_to_text():
    for g in all_builders():
        text = write_graph_text(g)
        back = read_graph_text(text)
        assert back == g
        assert write_graph_text(back) == text


def test_text_roundtrip_text_to_graph():
    text = "n 4\n# label 0 center\n0 1\n0 2\n2 3\n"
    g = read_graph_text(text)
    assert write_graph_text(g) == text


def test_text_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        read_graph_text("n 3\n0 1\n1 x\n")
    assert err.value.lineno == 3
    with pytest.raises(GraphFormatError) as err:
        read_graph_text("vertices 3\n")
    assert err.value.lineno == 1
    with pytest.raises(GraphFormatError) as err:
        read_graph_text("n 2\n0 5\n")
    assert err.value.lineno == 2
    with pytest.raises(GraphFormatError) as err:
        read_graph_text("n 3\n0 1\n# label 7 x\n")
    assert err.value.lineno == 3


def test_labels_do_not_affect_equality_of_structure():
    g = build_turan2(4)
    assert is_isomorphic(g, complete_bipartite(2, 2))


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_is_complete_bipartite_matches_permutation_orbit_oracle():
    # every triangle-free graph with n <= 7, as enumerated and relabeled
    rng = random.Random(241)
    for n in range(8):
        targets = {perm_canonical_mask(complete_bipartite(a, n - a).rows, n)
                   for a in range(n // 2 + 1)}
        for g in enumerate_triangle_free(n):
            expected = perm_canonical_mask(g.rows, n) in targets
            assert is_complete_bipartite(g) == expected
            assert is_complete_bipartite(_relabeled(g, rng)) == expected


def test_is_complete_bipartite_large_families():
    # past n = 7 the permutation oracle is out of reach; these families are
    # complete bipartite, or not, by construction
    rng = random.Random(251)
    for n in range(15):
        assert is_complete_bipartite(Graph(n))
    for a in range(1, 8):
        for b in range(a, 15 - a):
            kab = complete_bipartite(a, b)
            assert is_complete_bipartite(kab)
            assert is_complete_bipartite(_relabeled(kab, rng))
            with_isolated = Graph(a + b + 1, kab.edges())
            assert not is_complete_bipartite(_relabeled(with_isolated, rng))
            if a >= 2:
                missing_edge = Graph(a + b, kab.edges()[1:])
                assert not is_complete_bipartite(_relabeled(missing_edge, rng))


def test_twin_quotient_inverts_blowup():
    rng = random.Random(61)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8), rng.choice([0.2, 0.5, 0.8]))
        if rng.random() < 0.5 and g.n:
            g = build_blowup(g, [rng.randint(1, 3) for _ in range(g.n)])
        q, sizes, classes = twin_quotient(g)
        assert sum(sizes) == g.n and len(classes) == g.n
        assert sizes == [classes.count(c) for c in range(q.n)]
        for u in range(g.n):
            for v in range(g.n):
                assert (classes[u] == classes[v]) == (g.rows[u] == g.rows[v])
                assert g.has_edge(u, v) == q.has_edge(classes[u], classes[v])
        # classes are numbered by their smallest vertex
        assert [classes.index(c) for c in range(q.n)] == sorted(
            classes.index(c) for c in range(q.n))
        assert twin_quotient(q)[0].n == q.n  # the quotient is twin-free
