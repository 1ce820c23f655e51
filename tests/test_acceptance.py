"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with pytest -s or in captured
output on failure) and enforces the stated runtime budget where one is
given.  All comparisons are exact; there are no tolerances to tune.
"""

import contextlib
import random
import subprocess
import sys
import time
from fractions import Fraction

from extremal_count import (WeightedPattern, build_gps_example1,
                            complete_bipartite, connected_components,
                            count_embeddings, cycle_graph, edge_bound_check,
                            enumerate_triangle_free, find_maximizers,
                            h_degrees, is_complete_bipartite, is_isomorphic,
                            leading_coefficient, path_graph,
                            solve_theorem2_params, star_graph,
                            theorem2_end_to_end, thm1_chain_check, thm1_sweep)
from extremal_count.bounds import admissible_x
from extremal_count.families import build_turan2
from extremal_count.graphs import write_graph_file

from naive import (naive_count_embeddings, naive_hom_sum,
                   random_bipartite_with_components, random_graph)

K2 = path_graph(2)
HALF = (Fraction(1, 2), Fraction(1, 2))


@contextlib.contextmanager
def criterion(num, text, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {num} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")
    print(f"PASS criterion {num}: {text} ({elapsed:.1f}s)")


def test_criterion_1_turan_baseline():
    with criterion(1, "edge-count maximizers are the balanced complete "
                      "bipartite graphs for n = 4..8", budget_seconds=60):
        for n in range(4, 9):
            report = find_maximizers(K2, n)
            assert len(report.witnesses) == 1
            assert is_isomorphic(report.witnesses[0], build_turan2(n))
            assert report.max_count == ((n + 1) // 2) * (n // 2)


def test_criterion_2_leading_coefficient_formula():
    with criterion(2, "bipartite leading coefficient equals 2^c (1/2)^m on "
                      "30 random patterns"):
        rng = random.Random(2025)
        for _ in range(30):
            c = rng.randint(1, 3)
            m = rng.randint(c, 10)
            pattern = random_bipartite_with_components(rng, m, c)
            comp_count, _ = connected_components(pattern)
            value = leading_coefficient(pattern, WeightedPattern(K2, HALF)).value
            assert value == 2 ** comp_count * Fraction(1, 2) ** m


def test_criterion_3_example1_reproduction():
    with criterion(3, "five-cycle blow-up beats the balanced bipartite "
                      "coefficient for the double-star pattern at k = 20",
                   budget_seconds=10):
        k = 20
        pattern = build_gps_example1(k)
        small = Fraction(1, 2 * k)
        wp_c5 = WeightedPattern(cycle_graph(5),
                                (small, small, small, small, 1 - Fraction(2, k)))
        l_c5 = leading_coefficient(pattern, wp_c5).value
        l_k2 = leading_coefficient(pattern, WeightedPattern(K2, HALF)).value
        assert l_c5 > l_k2


def test_criterion_4_coefficient_sweep():
    with criterion(4, "coefficient > 2/5 and full chain for every (x, d) "
                      "with x <= 300, 16 d^2 <= x-1", budget_seconds=60):
        sweep = thm1_sweep(300)
        assert not sweep.violations
        assert sweep.pairs_checked > 300
        spot = thm1_chain_check(300, 4)
        assert spot.all_hold


def test_criterion_5_theorem2_end_to_end():
    with criterion(5, "counterexample certificate at lambda = 1",
                   budget_seconds=60):
        params = solve_theorem2_params(1)
        assert params.all_hold
        cert = theorem2_end_to_end(1)
        assert cert.x == admissible_x(Fraction(1), params.x_min)
        assert cert.x >= max(params.x_min, 3) and cert.d == cert.x // 2
        assert cert.holds
        assert cert.coeff_c5 > cert.coeff_k2


def test_criterion_6_oracle_equivalence():
    with criterion(6, "pruned counts match naive enumeration; coefficients "
                      "match all-maps summation"):
        rng = random.Random(606)
        for _ in range(200):
            pattern = random_graph(rng, rng.randint(0, 6), 0.5)
            host = random_graph(rng, rng.randint(0, 7), 0.5)
            assert count_embeddings(pattern, host) == naive_count_embeddings(
                pattern, host)
        for _ in range(40):
            h = random_graph(rng, rng.randint(0, 5), 0.5)
            p = random_graph(rng, rng.randint(1, 5), 0.6)
            weights = [Fraction(rng.randint(0, 3), 6) for _ in range(p.n)]
            total = sum(weights)
            if total == 0:
                continue
            weights = [w / total for w in weights]
            wp = WeightedPattern(p, tuple(weights))
            assert leading_coefficient(h, wp).value == naive_hom_sum(h, p, weights)


def test_criterion_7_lemma_suite_on_maximizers():
    with criterion(7, "symmetrization inequality on every maximizer witness "
                      "and edge bound on every enumerated graph, n = 6..8",
                   budget_seconds=600):
        patterns = [K2, path_graph(3), path_graph(4), cycle_graph(4), star_graph(3)]
        for n in range(6, 9):
            for pattern in patterns:
                report = find_maximizers(pattern, n)
                for witness in report.witnesses:
                    degrees = h_degrees(pattern, witness)
                    for u in range(n):
                        for v in range(n):
                            if u != v:
                                assert (degrees.h[v]
                                        <= degrees.h[u] + degrees.pair(u, v))
            for g in enumerate_triangle_free(n):
                check = edge_bound_check(g)
                assert check.holds
                assert check.equality == is_complete_bipartite(g)
                if check.equality:
                    assert check.equality_is_complete_bipartite


def test_criterion_8_star_counterexample():
    with criterion(8, "3-star maximizers at n = 8 are complete bipartite "
                      "but never balanced"):
        report = find_maximizers(star_graph(3), 8)
        assert report.witnesses
        assert report.all_complete_bipartite
        assert not any(is_isomorphic(w, complete_bipartite(4, 4))
                       for w in report.witnesses)


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "extremal_count.cli", *args],
                          capture_output=True, check=True)
    return proc.stdout


def test_criterion_9_determinism_across_workers(tmp_path):
    with criterion(9, "search and optimize output is byte-identical for "
                      "worker counts 1 and 8"):
        k2_file = tmp_path / "k2.graph"
        write_graph_file(K2, k2_file)
        c4_file = tmp_path / "c4.graph"
        write_graph_file(cycle_graph(4), c4_file)

        search_args = ["search", str(k2_file), "6"]
        out1 = _run_cli([*search_args, "--workers", "1"])
        out8 = _run_cli([*search_args, "--workers", "8"])
        assert out1 == out8 and out1

        # C5 at grid 24 has 382 runs, past POOL_MIN_RUNS: two chunks of
        # RUN_CHUNK runs, so the 8-worker run scores them in two processes
        opt_args = ["optimize", str(c4_file), "c5", "--grid", "24"]
        out1 = _run_cli([*opt_args, "--workers", "1"])
        out8 = _run_cli([*opt_args, "--workers", "8"])
        assert out1 == out8 and out1

        opt_args = ["optimize", str(c4_file), "k2", "--grid", "24"]
        out1 = _run_cli([*opt_args, "--workers", "1"])
        out8 = _run_cli([*opt_args, "--workers", "8"])
        assert out1 == out8 and out1
