"""Exhaustive triangle-free enumeration and exact maximizer search."""

import random

import pytest

from extremal_count import (BudgetExceededError, Graph, _pykernels,
                            canonical_form, cli,
                            complete_bipartite, complete_graph,
                            count_automorphisms,
                            count_copies, count_embeddings, cycle_graph,
                            enumerate_triangle_free, find_maximizers,
                            graph_from_canonical_mask, is_complete_bipartite,
                            is_isomorphic, is_triangle_free, path_graph,
                            oracle, star_graph, triangle_free_masks,
                            write_graph_file)

from naive import (naive_canonical_mask, naive_count_embeddings,
                   naive_is_maximal_triangle_free, naive_triangle_free_classes,
                   naive_triangle_free_levels, perm_canonical_mask,
                   random_graph)


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


def test_enumeration_matches_naive_growth():
    # each level against the unpruned growth of the naive level below,
    # compared through the naive canonical form
    for n, level in enumerate(naive_triangle_free_levels(7)):
        masks = triangle_free_masks(n)
        assert len(masks) == len(level)
        assert {naive_canonical_mask(_pykernels.rows_from_mask(n, mask), n)
                for mask in masks} == level


def test_enumeration_counts_small():
    counts = [len(triangle_free_masks(n)) for n in range(1, 9)]
    assert counts == [1, 2, 3, 7, 14, 38, 107, 410]
    maximal = [len(oracle._maximal_masks(n)) for n in range(1, 10)]
    assert maximal == [1, 1, 1, 2, 3, 4, 6, 10, 16]


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


def test_growths_cover_every_maximal_triangle_free_class():
    # the maximal level n is grown from the maximal level n-1 alone; it
    # must be exactly the maximal classes of level n, which the naive
    # growth and the pinned count of level 8 check independently
    for n in range(1, 9):
        maximal = tuple(mask for mask in triangle_free_masks(n)
                        if naive_is_maximal_triangle_free(
                            _pykernels.rows_from_mask(n, mask), n))
        assert oracle._maximal_masks(n) == maximal


def _random_tree(rng, m):
    return Graph(m, [(v, rng.randrange(v)) for v in range(1, m)])


def _maximizer_patterns(max_n, seed):
    """Edgeless patterns, patterns with isolated vertices, C4, K_{1,3},
    C5 (no triangle, not bipartite), the triangle (in no triangle-free
    host, so every host ties at 0) and seeded random trees."""
    rng = random.Random(seed)
    patterns = [Graph(0), Graph(1), Graph(3), Graph(4, [(0, 1)]),
                Graph(4, [(0, 1), (1, 2)]), Graph(4, [(0, 1), (2, 3)]),
                path_graph(2), path_graph(4), cycle_graph(4), star_graph(3),
                cycle_graph(5), cycle_graph(3)]
    patterns += [_random_tree(rng, rng.randint(2, max(max_n, 2))) for _ in range(4)]
    return patterns


def _check_against_scores(pattern, n, scores):
    """find_maximizers(pattern, n) against {canonical mask: embedding
    count} over every triangle-free class on n vertices."""
    best = max(scores.values())
    report = find_maximizers(pattern, n)
    # each witness is built from its canonical mask
    assert [_pykernels.mask_from_rows(w.rows, n) for w in report.witnesses] == \
        sorted(mask for mask, emb in scores.items() if emb == best)
    assert report.max_count * count_automorphisms(pattern) == best


def test_maximizers_match_naive_argmax():
    # the witnesses are the argmax of the brute-force count over the
    # brute-force classes
    for n in range(0, 6):
        hosts = {mask: graph_from_canonical_mask(n, mask)
                 for mask in naive_triangle_free_classes(n)}
        for pattern in _maximizer_patterns(n, seed=n):
            if pattern.n <= n:
                _check_against_scores(pattern, n, {
                    mask: naive_count_embeddings(pattern, host)
                    for mask, host in hosts.items()})


def test_maximizers_match_exhaustive_scoring():
    # past the naive oracle's reach, every class of level n is scored
    for n in (1, 6, 7, 8):
        hosts = {mask: graph_from_canonical_mask(n, mask)
                 for mask in triangle_free_masks(n)}
        for pattern in _maximizer_patterns(min(n, 7), seed=100 + n):
            if pattern.n <= n:
                _check_against_scores(pattern, n, {
                    mask: count_embeddings(pattern, host)
                    for mask, host in hosts.items()})


def test_edge_deletions_reach_every_maximizer(monkeypatch):
    # with a pattern scored on at most 8 host vertices, every maximizer is
    # maximal triangle-free unless every host ties, so the closure is
    # checked with a stand-in score that, like an embedding count, never
    # falls when an edge is added: the edge count capped at `cap`, which
    # every host with at least `cap` edges attains, doubled for the two
    # automorphisms of the pattern K2
    for n, cap in ((5, 4), (7, 9), (8, 12)):
        monkeypatch.setattr(oracle, "_count_task", lambda parents, k, masks, cap=cap: [
            (mask, 2 * min(mask.bit_count(), cap)) for mask in masks])
        report = find_maximizers(path_graph(2), n)
        assert report.max_count == cap
        witnesses = [_pykernels.mask_from_rows(w.rows, n) for w in report.witnesses]
        assert witnesses == [mask for mask in triangle_free_masks(n)
                             if mask.bit_count() >= cap]
        assert not all(naive_is_maximal_triangle_free(w.rows, n)
                       for w in report.witnesses)


def test_every_host_ties_takes_the_cached_level(monkeypatch):
    # a pattern with no edges, or with a triangle, ties on every host: the
    # witnesses are the whole level, built by one closure without a score
    # on the first call and taken from the cache after it
    real = oracle.kernels.triangle_free_canonical_masks
    closures = []

    def recording(n, seeds, keep=None):
        closures.append(keep is not None)
        return real(n, seeds, keep)

    monkeypatch.setattr(oracle.kernels, "triangle_free_canonical_masks", recording)
    monkeypatch.setattr(oracle, "_enum_cache", {})
    for pattern, copies, expected in ((Graph(1), 7, [False]), (Graph(3), 35, []),
                                      (complete_graph(3), 0, []),
                                      (Graph(1), 7, [])):
        closures.clear()
        report = find_maximizers(pattern, 7)
        assert closures == expected
        assert report.max_count == copies
        assert [canonical_form(w) for w in report.witnesses] == list(triangle_free_masks(7))


def test_search_never_grows_level_n(monkeypatch, tmp_path, capsys):
    # a pattern some triangle-free host holds is scored on the maximal
    # level n, and only the maximal classes that tie seed the closure,
    # which keeps only the deletions that tie; level n is never enumerated
    real = oracle.kernels.triangle_free_canonical_masks
    closures = []

    def recording(n, seeds, keep=None):
        closures.append((n, sorted(seeds), keep is not None))
        return real(n, seeds, keep)

    monkeypatch.setattr(oracle.kernels, "triangle_free_canonical_masks", recording)
    for pattern in (path_graph(2), cycle_graph(4), star_graph(3),
                    Graph(4, [(0, 1)]), cycle_graph(5)):
        maximal = oracle._maximal_masks(7)
        counts = {mask: count_embeddings(pattern, graph_from_canonical_mask(7, mask))
                  for mask in maximal}
        tied = sorted(mask for mask in maximal if counts[mask] == max(counts.values()))
        assert len(tied) < len(maximal)
        closures.clear()
        path = tmp_path / "pattern.graph"
        write_graph_file(pattern, path)
        assert cli.main(["search", str(path), "7"]) == 0
        assert capsys.readouterr().out
        assert closures == [(7, tied, True)]


def test_workers_do_not_change_maximizers(tmp_path, capsys):
    # search runs in one process whatever --workers says
    for pattern in (path_graph(2), path_graph(4), star_graph(3)):
        path = tmp_path / "pattern.graph"
        write_graph_file(pattern, path)
        for n in range(pattern.n, 9):
            outs = []
            for workers in ("1", "2", "4"):
                assert cli.main(["search", str(path), str(n), "--workers", workers]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] and outs[1:] == outs[:1] * 2
