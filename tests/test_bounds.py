"""Inequality chains, parameter solving, and the end-to-end counterexample."""

import math
import random
from fractions import Fraction

import pytest

from extremal_count import (Graph, WeightedPattern, build_theorem2_H,
                            complete_bipartite, complete_graph, cycle_graph,
                            edge_bound_check, is_bipartite,
                            leading_coefficient, optimal_Delta_fraction,
                            path_graph,
                            solve_theorem2_params, theorem2_end_to_end,
                            thm1_chain_check, thm1_coefficient, thm1_sweep)
from extremal_count import _treedp, bounds, thm1
from extremal_count._treedp import kind_sum
from extremal_count.blowup import _tree_kinds
from extremal_count.bounds import admissible_x
from extremal_count.thm1 import sweep_pairs

from naive import naive_hom_sum, naive_homomorphisms, naive_theorem2_params


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def test_edge_bound_examples():
    report = edge_bound_check(complete_bipartite(2, 3))
    assert (report.edges, report.bound) == (6, 6)
    assert report.holds and report.equality and report.equality_is_complete_bipartite
    report = edge_bound_check(cycle_graph(5))
    assert (report.edges, report.bound) == (5, 6)
    assert report.holds and not report.equality
    report = edge_bound_check(petersen())
    assert (report.edges, report.bound) == (15, 21)
    assert report.holds


def test_edge_bound_rejects_triangles():
    with pytest.raises(ValueError):
        edge_bound_check(complete_graph(3))


def test_thm1_coefficient_values():
    assert thm1_coefficient(2, 0).value == Fraction(1, 2)
    boundary = thm1_coefficient(17, 1)
    assert boundary.exceeds_two_fifths
    violating = thm1_coefficient(5, 3)
    assert violating.value == Fraction(678223072849, 5120000000000)
    assert not violating.exceeds_two_fifths


def test_thm1_coefficient_half_when_defect_zero():
    for x in range(2, 40):
        assert thm1_coefficient(x, 0).value == Fraction(1, 2)


def test_thm1_coefficient_rejects_small_x():
    with pytest.raises(ValueError):
        thm1_coefficient(1, 0)


def test_optimal_delta_values():
    assert optimal_Delta_fraction(2, 0) == Fraction(1, 2)
    assert optimal_Delta_fraction(3, 0) == Fraction(1, 2)
    assert optimal_Delta_fraction(2, 1) == Fraction(3, 4)
    with pytest.raises(ValueError):
        optimal_Delta_fraction(1, 0)


def test_optimal_delta_matches_grid_argmax():
    grid = 10 ** 4
    for x in range(2, 31):
        for d in range(0, 6):
            frac = optimal_Delta_fraction(x, d)
            a, b = 2 * d + x - 1, x - 1
            best_t, best_val = 0, -math.inf
            for i in range(1, grid):
                t = i / grid
                val = a * math.log(t) + (b * math.log(1 - t) if b else 0.0)
                if val > best_val:
                    best_val, best_t = val, t
            assert abs(float(frac) - best_t) <= 1.0 / grid + 1e-12


def test_chain_boundary_pair():
    report = thm1_chain_check(17, 1)
    assert report.hypothesis_ok and report.all_hold
    assert report.expressions[-1] == Fraction(105, 256)
    assert report.expressions[-2] == Fraction(105, 256)  # d^2 = (x-1)/16 exactly


def test_chain_collapses_at_zero_defect():
    report = thm1_chain_check(2, 0)
    assert report.all_hold
    assert all(e == Fraction(1, 2) for e in report.expressions[:6])


def test_chain_large_x():
    report = thm1_chain_check(50, 1)
    assert report.hypothesis_ok and report.all_hold
    assert report.expressions[0] == thm1_coefficient(50, 1).value


def test_chain_reports_violated_hypothesis():
    report = thm1_chain_check(5, 3)
    assert not report.hypothesis_ok
    assert not report.all_hold
    failing = [s.name for s in report.steps if not s.holds]
    assert failing  # the arithmetic shows which steps break


def test_bernoulli_step_under_weak_hypothesis():
    # (1 - d/(x-1))^(2d) >= 1 - 2d^2/(x-1) whenever d <= x-1
    for x in range(2, 40):
        for d in range(0, x):
            r = Fraction(d, x - 1)
            if r > 1:
                continue
            assert (1 - r) ** (2 * d) >= 1 - 2 * Fraction(d * d, x - 1)


def test_sweep_smoke():
    report = thm1_sweep(60)
    assert not report.violations
    assert report.pairs_checked == sum(1 for _ in sweep_pairs(60))


def test_sweep_names_the_first_failing_step(monkeypatch):
    # pairs outside the hypothesis: the sweep must report exactly the
    # first step the chain report finds failing, and a coefficient at or
    # below 2/5
    pairs = [(5, 3), (3, 2), (17, 2), (17, 1)]
    monkeypatch.setattr(thm1, "sweep_pairs", lambda x_max: iter(pairs))
    report = thm1_sweep(17)
    assert report.pairs_checked == len(pairs)
    expected = []
    for x, d in pairs:
        chain = thm1_chain_check(x, d)
        if not chain.expressions[0] > Fraction(2, 5):
            expected.append((x, d, "coefficient"))
        failing = [s.name for s in chain.steps if not s.holds]
        if failing:
            expected.append((x, d, f"chain step: {failing[0]}"))
    assert report.violations == tuple(expected) == (
        (5, 3, "coefficient"), (5, 3, "chain step: Bernoulli lower bounds"),
        (3, 2, "coefficient"), (3, 2, "chain step: Bernoulli lower bounds"),
        (17, 2, "chain step: defect bound substitution"))


def test_solve_params_lambda_one():
    params = solve_theorem2_params(1)
    assert Fraction(1, 2) < params.a < 1
    assert 0 < params.c < (1 - params.a) / 3
    assert params.b == 1 - params.a - 3 * params.c
    assert params.p_float > 1
    assert params.all_hold
    # direct sanity at a hand-checkable point: 0.36 * 0.4 > 0.125
    a = Fraction(3, 5)
    assert a ** 2 * (1 - a) > Fraction(1, 8)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_solve_params_invariants(lam):
    params = solve_theorem2_params(lam)
    assert params.all_hold
    assert params.x_min >= 1
    u, w = lam.numerator, lam.denominator
    ratio = 2 * params.a * params.b ** 2 / params.c ** 3
    lhs = (params.a ** ((u + w) * params.x_min)
           * params.b ** (w * params.x_min)
           * Fraction(2) ** ((u + 2 * w) * params.x_min))
    assert lhs > ratio ** w


@pytest.mark.parametrize("lam", ["1/5", "1/3", "1/2", "2/3", "1", "3/2",
                                 "2", "3"])
def test_integer_solver_matches_fraction_reference(lam):
    lam = Fraction(lam)
    a, b, c, a_margin, b_margin, half_pow, p_w, ratio_w = naive_theorem2_params(lam)
    params = solve_theorem2_params(lam)
    assert (params.a, params.b, params.c) == (a, b, c)
    assert params.p_float == (float(a) ** (float(lam) + 1) * float(b)
                              / 0.5 ** (float(lam) + 2))
    # p^w > 1, so x_min is the least x with p_w^x > ratio^w
    x = params.x_min
    assert p_w > 1 and p_w ** x > ratio_w
    expected = [(a_margin, half_pow, ">"), (b_margin, half_pow, ">"),
                (p_w ** x, ratio_w, ">")]
    if x > 1:
        assert p_w ** (x - 1) <= ratio_w
        expected.append((p_w ** (x - 1), ratio_w, "<="))
    assert [(ch.lhs, ch.rhs, ch.relation) for ch in params.checks] == expected
    assert params.all_hold


@pytest.mark.parametrize("shift", [-6, 5])
def test_x_min_does_not_depend_on_the_float_seed(shift, monkeypatch):
    # the exact search steps up from a seed below x_min and down from one
    # above it, to the same parameters and certificate
    lams = [Fraction(1, 3), Fraction(1), Fraction(2)]
    expected = [solve_theorem2_params(lam) for lam in lams]
    monkeypatch.setattr(bounds.math, "ceil",
                        lambda v: math.floor(v) + 1 + shift)
    assert [solve_theorem2_params(lam) for lam in lams] == expected


def test_admissible_x_alignment():
    params = solve_theorem2_params(1)
    x = admissible_x(Fraction(1), params.x_min)
    assert x >= params.x_min and (x % 2 == 0)
    assert admissible_x(Fraction(1, 2), 3) == 4  # d = x/4 integer needs x = 4


def test_theorem2_end_to_end_certifies():
    cert = theorem2_end_to_end(1)
    assert cert.holds
    assert cert.d * 2 == cert.x  # lambda = 1
    assert cert.pattern_size == 2 * cert.x + 2 * cert.d
    assert cert.coeff_c5 > cert.coeff_k2
    assert cert.coeff_k2 == 2 * Fraction(1, 2) ** cert.pattern_size
    assert cert.coeff_c5 >= cert.single_hom
    by_name = {c.name: c.holds for c in cert.checks}
    assert by_name["single hom > 2 (1/2)^(2x + lambda x)  [pattern-size exponent]"]
    # the displayed exponent 2x + 2*lambda does not hold at x_min: recorded,
    # not assumed (the two forms only agree when lambda*x = 2*lambda)
    displayed = next(v for k, v in by_name.items() if "displayed exponent" in k)
    assert displayed is False


def _neighbours(p: Graph):
    return tuple(tuple(p.neighbors(q)) for q in range(p.n))


def _random_weights(rng, k):
    raw = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(k)]
    raw[0] += 1  # not all zero
    return tuple(r / sum(raw) for r in raw)


def _shape(kinds, i):
    """Kind i as nested sorted (child shape, multiplicity) pairs, the pairs
    of multiplicity 0 left out: equal for isomorphic rooted trees."""
    return tuple(sorted((_shape(kinds, c), m) for c, m in kinds[i] if m))


@pytest.mark.parametrize("d", range(1, 6))
def test_theorem2_hom_sum_matches_hom_sum_plan(d, monkeypatch):
    # the hand-written kinds table of bounds against the kinds that
    # blowup._tree_kinds builds from the tree: the same rooted tree, and
    # the same sums as the plan over the built pattern
    tables = []

    def recording_kind_sum(kinds, weights, neighbours):
        tables.append(kinds)
        return kind_sum(kinds, weights, neighbours)

    monkeypatch.setattr(_treedp, "kind_sum", recording_kind_sum)
    rng = random.Random(100 + d)
    c5, k2 = cycle_graph(5), path_graph(2)
    half = (Fraction(1, 2), Fraction(1, 2))
    certificate_weights = []
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        params = solve_theorem2_params(lam)
        a, b, c = params.a, params.b, params.c
        certificate_weights.append((a, b, c, c, c))
    for x in range(3, 15):
        h = build_theorem2_H(d, x)
        for weights in (*certificate_weights, _random_weights(rng, 5)):
            assert (bounds._theorem2_hom_sum(d, x, weights, _neighbours(c5))
                    == leading_coefficient(h, WeightedPattern(c5, weights)).value)
        assert (bounds._theorem2_hom_sum(d, x, half, _neighbours(k2))
                == leading_coefficient(h, WeightedPattern(k2, half)).value)
        built = _tree_kinds(h, range(h.n))
        assert _shape(tables[-1], -1) == _shape(built, -1)


@pytest.mark.parametrize("d, x, p", [(1, 3, cycle_graph(5)),
                                     (1, 3, path_graph(3)),
                                     (1, 4, complete_graph(3)),
                                     (2, 3, complete_graph(3))])
def test_theorem2_hom_sum_matches_naive(d, x, p):
    rng = random.Random(7 * d + x)
    h = build_theorem2_H(d, x)
    homs = naive_homomorphisms(h, p)
    for _ in range(3):
        weights = _random_weights(rng, p.n)
        assert (bounds._theorem2_hom_sum(d, x, weights, _neighbours(p))
                == naive_hom_sum(h, p, weights, homs))


def test_theorem2_below_threshold_reports_honestly():
    cert = theorem2_end_to_end(1, x=4)
    assert not cert.holds
    assert cert.coeff_c5 < cert.coeff_k2


def test_theorem2_rejects_incompatible_x():
    with pytest.raises(ValueError):
        theorem2_end_to_end(1, x=5)  # lambda*x odd


def test_c5_beats_k2_with_about_eleven_root_x_unmatched_vertices():
    # x = 10240 with 2d = 1112 unmatched vertices, about 11 sqrt(x - 1):
    # 2d/x is about 0.11, below every lambda that `verify thm2-e2e`
    # reaches.  The C5 weights are a float ascent's argmax rounded to
    # denominator 10^6; the comparison is exact
    x, d = 10240, 556
    weights = (Fraction(59, 62500), Fraction(474157, 1000000),
               Fraction(131201, 250000), Fraction(23, 500000),
               Fraction(49, 1000000))
    assert sum(weights) == 1
    half = (Fraction(1, 2), Fraction(1, 2))
    coeff_c5 = bounds._theorem2_hom_sum(d, x, weights, bounds._C5_NEIGHBOURS)
    coeff_k2 = bounds._theorem2_hom_sum(d, x, half, bounds._K2_NEIGHBOURS)
    assert coeff_c5 > coeff_k2
    assert 1.2395 < coeff_c5 / coeff_k2 < 1.2397
    # equal colour classes, so the balanced K2 is the best complete
    # bipartite blow-up
    side0, side1 = is_bipartite(build_theorem2_H(d, x))
    assert len(side0) == len(side1) == x + d
    assert 10.98 < 2 * d / math.sqrt(x - 1) < 11
