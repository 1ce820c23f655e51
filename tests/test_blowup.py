"""Leading coefficients, homomorphism sums, saturation, and the optimizer."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from extremal_count import (Graph, WeightedPattern, blowup, build_blowup,
                            build_gps_example1, build_theorem2_H,
                            complete_bipartite, complete_graph,
                            connected_components, count_embeddings,
                            cycle_graph, disjoint_union,
                            is_bipartite, leading_coefficient,
                            optimize_weights, path_graph, saturation_check,
                            saturation_converges, star_graph,
                            weighted_hom_sum)
from extremal_count.blowup import (AUT_BUDGET, GRID_BUDGET, _best_in_runs,
                                   _best_seed, _grid_seeds, rounded_blob_sizes)
from extremal_count._pyplace import search_plan
from extremal_count.homsum import HomSumPlan
from extremal_count.oracle import BudgetExceededError

from naive import (as_fractions, naive_chain_candidates,
                   naive_count_embeddings, naive_grid_seeds, naive_hom_sum,
                   naive_homomorphisms, random_bipartite_with_components,
                   random_graph, random_triangle_free)

K2 = path_graph(2)
HALF = (Fraction(1, 2), Fraction(1, 2))


def test_weighted_pattern_validation():
    WeightedPattern(K2, HALF)
    with pytest.raises(ValueError, match="need 2 weights, got 1"):
        WeightedPattern(K2, (Fraction(1, 2),))
    with pytest.raises(ValueError, match="sum to exactly 1"):
        WeightedPattern(K2, (Fraction(3, 4), Fraction(1, 2)))
    with pytest.raises(ValueError, match="non-negative"):
        WeightedPattern(K2, (Fraction(3, 2), Fraction(-1, 2)))


def hom_count(patternH, patternP):
    return weighted_hom_sum(patternH, patternP, [1] * patternP.n)


def test_hom_count_examples():
    assert hom_count(build_theorem2_H(1, 4), K2) == 2  # connected bipartite
    assert hom_count(cycle_graph(5), cycle_graph(5)) == 10
    for c in (1, 2, 3):
        pattern = Graph(2 * c, [(2 * i, 2 * i + 1) for i in range(c)])
        assert hom_count(pattern, K2) == 2 ** c
    cases = [(cycle_graph(4), K2, 2), (path_graph(3), cycle_graph(5), 5 * 2 * 2)]
    for h, p, expected in cases:
        assert hom_count(h, p) == naive_hom_sum(h, p, [1] * p.n) == expected


def test_hom_listing_matches_count():
    listing = naive_homomorphisms(cycle_graph(4), K2)
    assert listing == [(0, 1, 0, 1), (1, 0, 1, 0)]
    assert hom_count(cycle_graph(4), K2) == len(listing) == 2
    p5 = cycle_graph(5)
    listing = naive_homomorphisms(path_graph(3), p5)
    assert len(set(listing)) == len(listing) == 5 * 2 * 2
    assert all(p5.has_edge(a, b) and p5.has_edge(b, c) for a, b, c in listing)
    assert hom_count(path_graph(3), p5) == len(listing)


def test_hom_sum_matches_naive_all_maps():
    rng = random.Random(211)
    for _ in range(60):
        h = random_graph(rng, rng.randint(0, 5), 0.5)
        p = random_graph(rng, rng.randint(1, 5), 0.6)
        weights = [Fraction(rng.randint(0, 4), 7) for _ in range(p.n)]
        assert weighted_hom_sum(h, p, weights) == naive_hom_sum(h, p, weights)


def test_fraction_hom_sum_matches_naive_over_mixed_denominators():
    # Fraction weights are summed as integers over their lcm; mix
    # denominators, ints and Fractions, and tree and cyclic components
    rng = random.Random(239)
    tree_and_cycle = disjoint_union(path_graph(4), cycle_graph(4))
    for _ in range(40):
        h = rng.choice((tree_and_cycle, random_graph(rng, rng.randint(0, 5), 0.5)))
        p = random_graph(rng, rng.randint(1, 5), 0.6)
        weights = [Fraction(rng.randint(0, 6), rng.randint(1, 9)) if rng.random() < 0.7
                   else rng.randint(0, 3) for _ in range(p.n)]
        # one listing per (H, P) serves both weight vectors
        homs = naive_homomorphisms(h, p)
        expected = naive_hom_sum(h, p, weights, homs)
        assert weighted_hom_sum(h, p, weights) == expected
        if sum(weights) and h.n:
            wp = WeightedPattern(p, [w / sum(weights) for w in weights])
            assert leading_coefficient(h, wp).value == naive_hom_sum(h, p, wp.weights, homs)
    # K2,3's search plan places its two degree-3 vertices first, the second
    # with no placed neighbour, so its homomorphism polynomial is built
    # from an unconstrained second placement
    k23 = complete_bipartite(2, 3)
    assert search_plan(k23)[1][:2] == [[], []]
    for h in (tree_and_cycle, k23, Graph(0)):
        for p in (K2, cycle_graph(5)):
            homs = naive_homomorphisms(h, p)
            zeros = [Fraction(0, 1)] * p.n
            assert weighted_hom_sum(h, p, zeros) == naive_hom_sum(h, p, zeros, homs)
            mixed = [Fraction(1, 3), 2] + [Fraction(5, 7)] * (p.n - 2)
            assert weighted_hom_sum(h, p, mixed) == naive_hom_sum(h, p, mixed, homs)


def test_leading_coefficient_examples():
    lc = leading_coefficient(K2, WeightedPattern(K2, HALF))
    assert lc.value == Fraction(1, 2) and lc.hom_count == 2
    lc = leading_coefficient(build_gps_example1(4), WeightedPattern(K2, HALF))
    assert lc.value == 2 * Fraction(1, 2) ** 8
    # a graph with an edge has no homomorphism into a loopless single vertex
    single = WeightedPattern(Graph(1), (Fraction(1),))
    assert leading_coefficient(cycle_graph(4), single).value == 0


def test_leading_coefficient_bipartite_formula():
    rng = random.Random(223)
    for _ in range(30):
        c = rng.randint(1, 3)
        m = rng.randint(c, 10)
        h = random_bipartite_with_components(rng, m, c)
        comp_count, _ = connected_components(h)
        lc = leading_coefficient(h, WeightedPattern(K2, HALF))
        assert lc.value == 2 ** comp_count * Fraction(1, 2) ** m


def test_leading_coefficient_single_hom_lower_bound():
    # the five-blob labeling of the counterexample pattern exhibits one
    # contributing homomorphism with product a^(x+2d-1) b^(x-2) c^3
    d, x = 1, 4
    h = build_theorem2_H(d, x)
    a, c = Fraction(3, 5), Fraction(1, 20)
    b = 1 - a - 3 * c
    wp = WeightedPattern(cycle_graph(5), (a, b, c, c, c))
    single = a ** (x + 2 * d - 1) * b ** (x - 2) * c ** 3
    value = leading_coefficient(h, wp).value
    assert value >= single > 0


def test_leading_coefficient_isomorphism_invariance():
    rng = random.Random(227)
    h = build_gps_example1(4)
    perm = list(range(h.n))
    rng.shuffle(perm)
    relabeled = Graph(h.n, [(perm[u], perm[v]) for u, v in h.edges()])
    p = cycle_graph(5)
    weights = as_fractions(("1/10", "1/5", "3/10", "1/5", "1/5"))
    wp = WeightedPattern(p, weights)
    assert leading_coefficient(h, wp).value == leading_coefficient(relabeled, wp).value
    # rotating the cycle together with its weights changes nothing either
    rotated_w = weights[1:] + weights[:1]
    rot = Graph(5, [((u - 1) % 5, (v - 1) % 5) for u, v in p.edges()])
    assert (leading_coefficient(h, WeightedPattern(rot, rotated_w)).value
            == leading_coefficient(h, wp).value)


def test_coefficient_multiplicative_over_components():
    rng = random.Random(229)
    p = cycle_graph(5)
    weights = as_fractions(("1/5",) * 5)
    for _ in range(15):
        h1 = random_graph(rng, rng.randint(1, 4), 0.5)
        h2 = random_graph(rng, rng.randint(1, 4), 0.5)
        both = disjoint_union(h1, h2)
        wp = WeightedPattern(p, weights)
        assert (leading_coefficient(both, wp).value
                == leading_coefficient(h1, wp).value
                * leading_coefficient(h2, wp).value)


def test_equal_tree_components_summed_once():
    # 100 disjoint edges are one class of tree components, summed once and
    # raised to the 100th power at each of the optimizer's evaluations;
    # summing each component at every evaluation takes about 0.05 s
    c5 = cycle_graph(5)
    matching = Graph(200, [(2 * i, 2 * i + 1) for i in range(100)])
    assert HomSumPlan(matching, c5).trees == ((HomSumPlan(K2, c5).trees[0][0], 100),)
    one_wp, one = optimize_weights(K2, c5, 10)
    start = time.perf_counter()
    wp, coeff = optimize_weights(matching, c5, 10)
    assert time.perf_counter() - start < 0.025
    assert wp.weights == one_wp.weights
    assert coeff == (one.value ** 100, one.hom_count ** 100)


def test_hom_sum_homogeneity():
    rng = random.Random(233)
    for _ in range(15):
        h = random_graph(rng, rng.randint(1, 4), 0.5)
        p = random_graph(rng, rng.randint(1, 4), 0.6)
        weights = [Fraction(rng.randint(0, 3), 5) for _ in range(p.n)]
        t = Fraction(rng.randint(1, 4), 3)
        scaled = [t * w for w in weights]
        assert (weighted_hom_sum(h, p, scaled)
                == t ** h.n * weighted_hom_sum(h, p, weights))


def test_tree_dp_agrees_with_backtracking_on_cycles():
    # C4 is evaluated from its homomorphism polynomial, its spanning tree
    # by DP; check the cyclic value directly against the naive sum
    weights = as_fractions(("1/3", "1/3", "1/3"))
    p = complete_graph(3)
    assert weighted_hom_sum(cycle_graph(4), p, weights) == naive_hom_sum(
        cycle_graph(4), p, weights)


def test_saturation_k2():
    wp = WeightedPattern(K2, HALF)
    report = saturation_check(K2, wp, 10)
    assert report.count == 50
    assert report.normalized == Fraction(1, 2)
    assert report.abs_error == 0


def test_saturation_p3_error_is_half_over_n():
    wp = WeightedPattern(K2, HALF)
    for n in (10, 20, 30):
        report = saturation_check(path_graph(3), wp, n)
        assert report.abs_error == Fraction(1, 2 * n)
    c, holds, _, _ = saturation_converges(path_graph(3), wp, 10, 20)
    assert holds and c == Fraction(1, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: saturation_converges(path_graph(3), WeightedPattern(K2, HALF), 5, 5),
     "need n1 < n2"),
    (lambda: HomSumPlan(path_graph(3), cycle_graph(5))(HALF),
     "one weight per pattern-P vertex required"),
])
def test_library_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_saturation_c4():
    wp = WeightedPattern(K2, HALF)
    c, holds, r1, r2 = saturation_converges(cycle_graph(4), wp, 8, 16)
    assert holds and r2.abs_error < r1.abs_error


def test_saturation_counts_past_the_old_budget():
    # 50^10 > 10^8 used to be refused; K_{25,25} now costs the tree's two
    # homomorphisms into K2, one per side assignment
    pattern = build_gps_example1(5)
    side0, side1 = is_bipartite(pattern)
    report = saturation_check(pattern, WeightedPattern(K2, HALF), 50)
    expected = 2 * math.perm(25, len(side0)) * math.perm(25, len(side1))
    assert report.count == expected
    assert report.normalized == Fraction(expected, 50 ** 10)


def test_saturation_matches_built_blowup():
    rng = random.Random(211)
    skeletons = (K2, path_graph(3), cycle_graph(4), cycle_graph(5),
                 star_graph(3), complete_graph(3))
    for _ in range(40):
        skeleton = rng.choice(skeletons)
        parts = [rng.randint(0, 3) for _ in range(skeleton.n)]
        if not sum(parts):
            continue
        wp = WeightedPattern(skeleton, [Fraction(a, sum(parts)) for a in parts])
        pattern = random_graph(rng, rng.randint(0, 4), 0.6)
        n = rng.randint(0, 7)
        host = build_blowup(skeleton, rounded_blob_sizes(wp.weights, n))
        count = saturation_check(pattern, wp, n).count
        assert count == count_embeddings(pattern, host)
        assert count == naive_count_embeddings(pattern, host)
    # K2,3 has no placed neighbour at its second placement (see
    # test_fraction_hom_sum_matches_naive_over_mixed_denominators)
    k23 = complete_bipartite(2, 3)
    for skeleton in skeletons:
        wp = WeightedPattern(skeleton, [Fraction(1, skeleton.n)] * skeleton.n)
        for n in (5, 7):
            host = build_blowup(skeleton, rounded_blob_sizes(wp.weights, n))
            count = saturation_check(k23, wp, n).count
            assert count == naive_count_embeddings(k23, host)
    # a C5 skeleton with a weight of 0, past the oracle's reach
    wp = WeightedPattern(cycle_graph(5), as_fractions(("1/2", "0", "1/4", "1/8", "1/8")))
    for pattern in (cycle_graph(4), build_gps_example1(4)):
        for n in (3, 8, 13, 24):
            host = build_blowup(wp.pattern, rounded_blob_sizes(wp.weights, n))
            assert saturation_check(pattern, wp, n).count == \
                count_embeddings(pattern, host)


def test_saturation_converges_at_hundreds():
    wp = WeightedPattern(cycle_graph(5), (Fraction(1, 5),) * 5)
    c, holds, r1, r2 = saturation_converges(build_gps_example1(4), wp, 200, 400)
    assert holds and 0 < r2.abs_error < r1.abs_error
    assert r1.abs_error * 200 <= c and r2.abs_error * 400 <= c


def test_optimize_k2_balanced():
    wp, coeff = optimize_weights(K2, K2)
    assert wp.weights == HALF
    assert coeff.value == Fraction(1, 2)


def test_optimize_c4_balanced():
    wp, coeff = optimize_weights(cycle_graph(4), K2)
    assert wp.weights == HALF
    assert coeff.value == Fraction(1, 8)


def test_optimize_balanced_tree_prefers_even_split():
    wp, coeff = optimize_weights(build_theorem2_H(1, 4), K2, grid=20)
    assert wp.weights == HALF
    assert coeff.value == 2 * Fraction(1, 2) ** 10


def test_optimize_deterministic_across_workers(monkeypatch):
    # C5 at grid 14 has 103 runs; chunks of 16 runs (at most 7 evaluations
    # a run for the 6-vertex H) give seven tasks, enough for 3 processes
    h = build_gps_example1(3)
    p = cycle_graph(5)
    monkeypatch.setattr(blowup, "CHUNK_EVALUATIONS", 16 * (h.n + 1))
    assert -(-len(list(_grid_seeds(p, 14))) // 16) >= 2 * 3
    w1, c1 = optimize_weights(h, p, grid=14, workers=1)
    for workers in (2, 3):
        w2, c2 = optimize_weights(h, p, grid=14, workers=workers)
        assert w1.weights == w2.weights and c1.value == c2.value


# Coefficients the float ascent, replaced by the integer one, returned for
# (pattern, skeleton, grid); the integer ascent may only improve on them.
# The tree is the certify benchmark workload's pattern at seed 1.
FLOAT_ASCENT_COEFFICIENTS = (
    (star_graph(3), K2, 5,
     Fraction(62499999999999998125839, 500000000000000000000000)),
    (star_graph(4), K2, 30, Fraction(213333333333286957, 2560000000000000000)),
    (build_gps_example1(11), cycle_graph(5), 20, Fraction(
        int("10990264456025373841730657327561780152840383573078482304803751"
            "0286114320954334161027895902801134905195258622653760481369"),
        2 ** 109 * 5 ** 132)),
    (build_theorem2_H(1, 4), cycle_graph(5), 10, Fraction(1, 512)),
    (Graph(7, [(0, 5), (0, 6), (1, 5), (2, 3), (2, 5), (4, 6)]),
     cycle_graph(5), 30, Fraction(1, 64)),
)


@pytest.mark.parametrize("h, p, grid, floor", FLOAT_ASCENT_COEFFICIENTS)
def test_integer_ascent_never_falls(h, p, grid, floor):
    # the result is exact over grid * 2^REFINE_BITS, at least the grid
    # seed's value, and at least what the float ascent returned
    wp, coeff = optimize_weights(h, p, grid)
    assert blowup.REFINE_BITS == 20
    assert all((grid << 20) % w.denominator == 0 for w in wp.weights)
    plan = HomSumPlan(h, p)
    seed = _best_seed(plan, p, grid, 1)
    assert coeff.value >= plan([Fraction(a, grid) for a in seed])
    assert coeff.value == plan(wp.weights) >= floor


def test_integer_ascent_reaches_k2_balance():
    # the float ascent stopped at 499963/1000000 on K1,3 into K2
    wp, coeff = optimize_weights(star_graph(3), K2, grid=5)
    assert wp.weights == HALF and coeff.value == Fraction(1, 8)


def run_compositions(runs, grid):
    """The compositions of `grid` that runs (prefix, lo, hi) stand for, in
    order."""
    for prefix, lo, hi in runs:
        assert lo <= hi
        free = grid - sum(prefix)
        for v in range(lo, hi + 1):
            yield (*prefix, v, free - v)


def test_grid_seeds_match_naive_orbit_minima():
    # the runs cover, in ascending order, exactly the compositions that
    # meet the stabiliser-chain bounds, and those include every orbit
    # minimum.  The orbit of vertex 0 is {0} on the star K1,3, {0, 3} on
    # P4, {0, 1} on K2,3 and on the disconnected K2 + K1, and every vertex
    # on K2 and the cycles.  The naive oracles walk (grid + 1)^k tuples, so
    # six-vertex skeletons stop at grid 8.  One vertex (K1) has no runs:
    # its only composition is the seed.
    for grid in range(1, 13):
        assert _best_seed(HomSumPlan(K2, Graph(1)), Graph(1), grid, 1) == (grid,)
    for p in (K2, path_graph(3), path_graph(4), cycle_graph(4),
              star_graph(3), cycle_graph(5), complete_bipartite(2, 3),
              cycle_graph(6), disjoint_union(K2, Graph(1)), Graph(4)):
        for grid in range(1, 13 if p.n < 6 else 9):
            comps = list(run_compositions(_grid_seeds(p, grid), grid))
            assert comps == naive_chain_candidates(p, grid)
            assert set(naive_grid_seeds(p, grid)) <= set(comps)


def test_optimizer_seed_is_the_exact_grid_argmax():
    # the seed the ascent starts from is the smallest composition with the
    # largest naive hom sum, taken over every composition (no orbit
    # reduction); integer parts give the exact order by homogeneity
    patterns = (cycle_graph(4), path_graph(4), star_graph(3),
                build_theorem2_H(1, 3))
    for p in (K2, path_graph(3), cycle_graph(4), cycle_graph(5)):
        for h in patterns:
            plan = HomSumPlan(h, p)
            homs = naive_homomorphisms(h, p)
            for grid in range(1, 9):
                comps = [c for c in itertools.product(range(grid + 1), repeat=p.n)
                         if sum(c) == grid]
                # naive_hom_sum over the listing, walked once per (H, P)
                values = {c: sum(math.prod(c[q] for q in image) for image in homs)
                          for c in comps}
                best = max(values.values())
                expected = min(c for c in comps if values[c] == best)
                _, seed = _best_in_runs((plan, grid, _grid_seeds(p, grid)))
                assert seed == expected, (h.edges(), p.edges(), grid)


def test_run_scorer_matches_direct_scoring():
    # random triangle-free skeletons on 1-6 vertices, with the edgeless
    # ones and K1, against trees, forests and cyclic patterns: the seed is
    # the smallest orbit minimum with the largest directly scored value.
    # Grids reach 30 where the naive walk over (grid + 1)^k tuples allows,
    # so runs both shorter and longer than |V(H)| + 1 occur.
    rng = random.Random(19)
    patterns = (K2, path_graph(4), star_graph(3), build_theorem2_H(1, 3),
                disjoint_union(path_graph(3), K2), cycle_graph(4),
                cycle_graph(6), disjoint_union(cycle_graph(4), path_graph(2)))
    max_grid = {1: 30, 2: 30, 3: 30, 4: 16, 5: 9, 6: 6}
    skeletons = [Graph(1), Graph(3), Graph(5)]
    skeletons += [random_triangle_free(rng, rng.randint(1, 6)) for _ in range(60)]
    lengths = set()
    for p in skeletons:
        h = rng.choice(patterns)
        grid = rng.randint(1, max_grid[p.n])
        plan = HomSumPlan(h, p)
        seeds = naive_grid_seeds(p, grid)
        best = max(plan._sum(seed) for seed in seeds)
        expected = min(seed for seed in seeds if plan._sum(seed) == best)
        assert _best_seed(plan, p, grid, 1) == expected, (h.edges(), p.edges(), grid)
        if p.n > 1:
            lengths |= {hi - lo + 1 > h.n + 1 for _, lo, hi in _grid_seeds(p, grid)}
    assert lengths == {False, True}


def test_optimize_grid_budget():
    # the README-scale six-vertex skeleton at grid 50 fits; eight vertices
    # at grid 50 (2.6e8 compositions) is refused
    assert math.comb(50 + 5, 5) <= GRID_BUDGET
    with pytest.raises(BudgetExceededError):
        optimize_weights(K2, cycle_graph(8))


def test_optimize_nine_vertex_skeleton():
    # C9 at grid 6 has C(14, 8) = 3003 compositions and 18 automorphisms
    c4, c9 = cycle_graph(4), cycle_graph(9)
    wp, coeff = optimize_weights(c4, c9, grid=6)
    assert coeff.value == naive_hom_sum(c4, c9, wp.weights)


def test_optimize_skeleton_limits():
    # the edgeless 8-vertex skeleton has exactly AUT_BUDGET automorphisms
    assert math.factorial(8) == AUT_BUDGET
    wp, coeff = optimize_weights(K2, Graph(8), grid=2)
    assert coeff.value == 0
    # the edgeless 9-vertex skeleton has 9!, and a coarse grid does not
    # admit it
    with pytest.raises(BudgetExceededError, match="automorphisms"):
        optimize_weights(K2, Graph(9), grid=1)


def test_example1_blowup_beats_balanced_bipartite():
    k = 20
    h = build_gps_example1(k)
    small = Fraction(1, 2 * k)
    wp_c5 = WeightedPattern(cycle_graph(5),
                            (small, small, small, small, 1 - Fraction(2, k)))
    l_c5 = leading_coefficient(h, wp_c5).value
    l_k2 = leading_coefficient(h, WeightedPattern(K2, HALF)).value
    assert l_c5 > l_k2
