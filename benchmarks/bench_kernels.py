#!/usr/bin/env python3
"""Time the three hot kernel paths on representative workloads.

Injective-embedding counting (into a host's own rows and into a blow-up
given by its skeleton and blob sizes), canonical-form minimization, and
triangle-free enumeration (the growth of the maximal triangle-free levels
and the edge-deletion closure of the top one).  Run from the repository
root:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--enum-n 7] [--repeats 3]
"""

import argparse
import random
import time

from extremal_count import _pykernels, _pyplace
from extremal_count.families import (build_gps_example1, complete_bipartite,
                                     cycle_graph, path_graph)


def best_of(repeats, fn, *args):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_count(repeats):
    """The 8-vertex tree into K_{8,8}, given by its 16 rows and by K_2 at
    sizes (8, 8), and the double star of k = 6 into a C_5 blow-up."""
    _, tree = _pyplace.search_plan(build_gps_example1(4))
    host = complete_bipartite(8, 8)
    t_rows, v_rows = best_of(repeats, _pyplace.count_injective,
                             host.rows, [1] * host.n, tree)
    t_k2, v_k2 = best_of(repeats, _pyplace.count_injective,
                         path_graph(2).rows, [8, 8], tree)
    assert v_rows == v_k2
    _, star = _pyplace.search_plan(build_gps_example1(6))
    t_c5, v_c5 = best_of(repeats, _pyplace.count_injective,
                         cycle_graph(5).rows, [6, 6, 5, 5, 5], star)
    return [("count embeddings (8-vertex tree in K_{8,8}, 16 rows)", t_rows, v_rows),
            ("count embeddings (8-vertex tree in K_2 at sizes 8, 8)", t_k2, v_k2),
            ("count embeddings (double star k=6 in C_5 at 6,6,5,5,5)", t_c5, v_c5)]


def bench_canonical(repeats):
    rng = random.Random(7)
    graphs = []
    for _ in range(300):
        n = 8
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        graphs.append(rows)

    def run():
        return [_pykernels.canonical_mask(rows, 8) for rows in graphs]

    t, v = best_of(repeats, run)
    return [("canonical form (300 random 8-vertex graphs)", t, len(v))]


def enumerate_triangle_free(n):
    """Level n with nothing cached: the maximal levels 1..n, then the
    closure of level n."""
    maximal = [0]
    for k in range(1, n + 1):
        maximal = _pykernels.maximal_triangle_free_growth(k, maximal)
    return _pykernels.triangle_free_canonical_masks(n, maximal)


def bench_enumeration(repeats, n):
    t, v = best_of(repeats, enumerate_triangle_free, n)
    return [(f"triangle-free enumeration (n={n})", t, len(v))]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--enum-n", type=int, default=7,
                        help="enumeration size (8 takes about 0.4 s; "
                             "9 about 5 s)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rows = []
    rows += bench_count(args.repeats)
    rows += bench_canonical(args.repeats)
    rows += bench_enumeration(args.repeats, args.enum_n)

    width = max(len(r[0]) for r in rows)
    print(f"{'benchmark':<{width}}  {'seconds':>10}  result")
    for name, seconds, result in rows:
        print(f"{name:<{width}}  {seconds:>10.4f}  {result}")


if __name__ == "__main__":
    main()
