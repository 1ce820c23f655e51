"""The tree DP over subtree kinds, and the kinds built from a tree."""

import random
import time
from fractions import Fraction

import pytest

from extremal_count import (Graph, WeightedPattern, build_gps_example1,
                            build_theorem2_H, connected_components,
                            leading_coefficient, path_graph, star_graph)
from extremal_count._treedp import kind_sum
from extremal_count.homsum import _tree_kinds

from naive import naive_hom_sum, naive_homomorphisms, random_graph

K2 = path_graph(2)
HALF = (Fraction(1, 2), Fraction(1, 2))


def random_forest(rng, n, trees):
    """A forest on n >= trees vertices with `trees` components, labels
    shuffled: each vertex past the first `trees` joins an earlier one."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[v], labels[rng.randrange(v)]) for v in range(trees, n)]
    return Graph(n, edges)


def neighbours(p: Graph):
    return tuple(tuple(p.neighbors(q)) for q in range(p.n))


def forest_kind_sum(h: Graph, p: Graph, weights):
    """The product of kind_sum over the components of the forest h."""
    total = 1
    for comp in connected_components(h)[1]:
        total *= kind_sum(_tree_kinds(h, comp), weights, neighbours(p))
    return total


@pytest.mark.parametrize("r", range(1, 8))
def test_star_has_two_kinds(r):
    assert _tree_kinds(star_graph(r), range(r + 1)) == ((), ((0, r),))


def test_theorem2_pattern_kinds():
    # leaf or pendant top, pendant middle, u2, q, p and u1; with x = 3
    # there are no pendant paths, so no pendant middle
    for d in range(1, 5):
        for x in range(3, 9):
            h = build_theorem2_H(d, x)
            assert len(_tree_kinds(h, range(h.n))) == (5 if x == 3 else 6)


def test_kind_sum_matches_naive_on_random_forests():
    rng = random.Random(41)
    for _ in range(80):
        trees = rng.randint(1, 3)
        h = random_forest(rng, rng.randint(trees, 7), trees)
        p = random_graph(rng, rng.randint(1, 4), 0.6)
        homs = naive_homomorphisms(h, p)
        ints = [rng.randint(0, 5) for _ in range(p.n)]
        fractions = [Fraction(rng.randint(0, 6), rng.randint(1, 9))
                     for _ in range(p.n)]
        for weights in (ints, fractions):
            assert (forest_kind_sum(h, p, weights)
                    == naive_hom_sum(h, p, weights, homs))


def test_kind_sum_multiplicity_zero():
    # a child kind of multiplicity 0 is an absent child: the sum is that
    # of the tree without it
    rng = random.Random(43)
    for _ in range(30):
        h = random_forest(rng, rng.randint(2, 7), 1)
        p = random_graph(rng, rng.randint(1, 4), 0.6)
        kinds = _tree_kinds(h, range(h.n))
        weights = [Fraction(rng.randint(0, 6), rng.randint(1, 9))
                   for _ in range(p.n)]
        absent = (*kinds[:-1], kinds[-1] + ((rng.randrange(len(kinds) - 1), 0),))
        expected = naive_hom_sum(h, p, weights)
        assert kind_sum(kinds, weights, neighbours(p)) == expected
        assert kind_sum(absent, weights, neighbours(p)) == expected


def test_double_star_coefficient_at_balanced_k2():
    # a connected bipartite tree on 2k vertices with equal colour classes
    # has two homomorphisms into K2, each of weight 2^-2k
    wp = WeightedPattern(K2, HALF)
    for k in range(3, 301):
        assert (leading_coefficient(build_gps_example1(k), wp).value
                == Fraction(2) ** (1 - 2 * k))


def test_matching_of_a_thousand_edges():
    # one plan over 1,000 components: the tree test reads each
    # component's degrees, not the whole edge list again
    matching = Graph(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
    start = time.perf_counter()
    value = leading_coefficient(matching, WeightedPattern(K2, HALF)).value
    assert value == Fraction(1, 2 ** 1000)
    assert time.perf_counter() - start < 0.5
