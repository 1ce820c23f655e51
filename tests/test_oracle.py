"""Exhaustive triangle-free enumeration and exact maximizer search."""

import random

import pytest

from extremal_count import (BudgetExceededError, canonical_form,
                            complete_bipartite, count_copies, cycle_graph,
                            enumerate_triangle_free, find_maximizers,
                            graph_from_canonical_mask, is_complete_bipartite,
                            is_isomorphic, is_triangle_free, path_graph,
                            oracle, star_graph, triangle_free_masks)

from naive import naive_triangle_free_classes, perm_canonical_mask, random_graph


def test_canonical_form_matches_permutation_bruteforce():
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        assert canonical_form(g) == perm_canonical_mask(g.rows, g.n)


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(43)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        perm = list(range(g.n))
        rng.shuffle(perm)
        from extremal_count import Graph
        relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(g) == canonical_form(relabeled)


def test_enumeration_matches_permutation_filter_oracle():
    # the fast path is trusted only after the independent mask-and-permute
    # oracle fixes the counts; n=3 deliberately pins the contested total
    for n in range(0, 6):
        fast = set(triangle_free_masks(n))
        naive = naive_triangle_free_classes(n)
        assert fast == naive
    assert len(triangle_free_masks(3)) == 3  # empty, one edge, path


def test_enumeration_counts_small():
    counts = [len(triangle_free_masks(n)) for n in range(1, 8)]
    assert counts == [1, 2, 3, 7, 14, 38, 107]


def test_enumeration_is_duplicate_free_and_sorted():
    for n in range(1, 8):
        masks = triangle_free_masks(n)
        assert list(masks) == sorted(set(masks))
        for g in enumerate_triangle_free(n):
            assert is_triangle_free(g)
            assert canonical_form(g) == canonical_form(
                graph_from_canonical_mask(n, canonical_form(g)))


def test_enumeration_contains_named_graphs():
    masks = set(triangle_free_masks(5))
    assert canonical_form(cycle_graph(5)) in masks
    assert canonical_form(complete_bipartite(2, 3)) in masks


def test_complete_bipartite_closure():
    for n in range(2, 8):
        masks = set(triangle_free_masks(n))
        for a in range(0, n // 2 + 1):
            assert canonical_form(complete_bipartite(a, n - a)) in masks


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        triangle_free_masks(10)
    with pytest.raises(BudgetExceededError):
        list(enumerate_triangle_free(10))


def test_find_maximizers_edge_pattern():
    report = find_maximizers(path_graph(2), 5)
    assert report.max_count == 6
    assert len(report.witnesses) == 1
    assert is_isomorphic(report.witnesses[0], complete_bipartite(2, 3))
    assert report.all_bipartite and report.all_complete_bipartite


def test_find_maximizers_c4_at_6():
    report = find_maximizers(cycle_graph(4), 6)
    assert report.max_count == 9
    assert len(report.witnesses) == 1
    assert is_isomorphic(report.witnesses[0], complete_bipartite(3, 3))


def test_find_maximizers_star_prefers_unbalanced():
    report = find_maximizers(star_graph(3), 8)
    assert report.all_complete_bipartite
    assert not any(is_isomorphic(w, complete_bipartite(4, 4))
                   for w in report.witnesses)
    assert report.max_count == 40
    assert all(count_copies(star_graph(3), w) == 40 for w in report.witnesses)


def test_find_maximizers_rejects_oversized_pattern():
    with pytest.raises(ValueError):
        find_maximizers(cycle_graph(5), 4)


def test_is_complete_bipartite():
    assert is_complete_bipartite(complete_bipartite(2, 6))
    assert is_complete_bipartite(complete_bipartite(0, 4))  # edgeless
    assert not is_complete_bipartite(cycle_graph(5))
    assert not is_complete_bipartite(path_graph(4))


def test_hypothesis_patterns_soft_expectation():
    # finite corroboration of the matching theorem: for patterns meeting the
    # sqrt hypothesis, maximizer witnesses are expected (not required, since
    # small n is outside the "sufficiently large" regime) to be complete
    # bipartite; disagreements are findings to report, not failures
    from extremal_count import check_theorem1_hypothesis, complete_bipartite as cb
    patterns = [path_graph(2), path_graph(4), cycle_graph(4), cb(3, 3)]
    findings = []
    checked = 0
    for pattern in patterns:
        assert check_theorem1_hypothesis(pattern).satisfies_thm1
        for n in range(pattern.n + 1, 9):
            report = find_maximizers(pattern, n)
            checked += 1
            if not report.all_complete_bipartite:
                findings.append((pattern.edges(), n))
    assert checked > 0
    if findings:
        print("non-complete-bipartite maximizers at small n:", findings)
    else:
        print(f"all {checked} hypothesis-pattern maximizer sets complete bipartite")


def test_workers_do_not_change_maximizers():
    # level n is dropped before each worker count, so every count grows it
    # again in a pool, one task per chunk of the parents on n - 1 vertices;
    # the merged level and every report must equal the serial ones.  The
    # level does not depend on the pattern, so one growth per worker count
    # serves all three patterns.
    patterns = (path_graph(2), path_graph(4), star_graph(3))
    for n in range(2, 9):
        serial = {p: find_maximizers(p, n) for p in patterns if p.n <= n}
        level = triangle_free_masks(n)
        for workers in (2, 3, 4):
            oracle._enum_cache.pop(n)
            for pattern, report in serial.items():
                assert find_maximizers(pattern, n, workers=workers) == report
            assert triangle_free_masks(n) == level
    assert len(triangle_free_masks(8)) == 410
