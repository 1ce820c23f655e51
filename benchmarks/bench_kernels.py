#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the three hot paths on representative workloads: injective-embedding
counting, canonical-form minimization, and triangle-free enumeration (the
growth of the maximal triangle-free levels and the edge-deletion closure
of the top one, with the pure and with the compiled canonical form).  Run
from the repository root after building the extension:

    python benchmarks/bench_kernels.py [--enum-n 7] [--repeats 3]
"""

import argparse
import random
import time

from extremal_count import _kernels, _pykernels, _pyplace
from extremal_count.families import build_gps_example1, complete_bipartite


def best_of(repeats, fn, *args):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_count(repeats):
    pattern = build_gps_example1(4)   # 8-vertex tree
    host = complete_bipartite(8, 8)
    _, parents = _pyplace.search_plan(pattern)
    rows = list(host.rows)
    pure_t, pure_v = best_of(repeats, _pyplace.count_injective,
                             host.rows, host.n, parents)
    rows_out = [("count embeddings (8-vertex tree in K_{8,8})", "pure", pure_t, pure_v)]
    if _kernels.HAS_FAST:
        fast_t, fast_v = best_of(repeats, _kernels.fast.count_injective,
                                 rows, host.n, parents)
        assert fast_v == pure_v
        rows_out.append(("count embeddings (8-vertex tree in K_{8,8})",
                         "compiled", fast_t, fast_v))
    return rows_out


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

    def run_pure():
        return [_pykernels.canonical_mask(rows, 8) for rows in graphs]

    def run_fast():
        return [_kernels.fast.canonical_mask(rows, 8) for rows in graphs]

    pure_t, pure_v = best_of(repeats, run_pure)
    out = [("canonical form (300 random 8-vertex graphs)", "pure", pure_t, len(pure_v))]
    if _kernels.HAS_FAST:
        fast_t, fast_v = best_of(repeats, run_fast)
        assert fast_v == pure_v
        out.append(("canonical form (300 random 8-vertex graphs)",
                    "compiled", fast_t, len(fast_v)))
    return out


def enumerate_triangle_free(n, canon=None):
    """Level n with nothing cached: the maximal levels 1..n, then the
    closure of level n."""
    maximal = [0]
    for k in range(1, n + 1):
        maximal = _pykernels.maximal_triangle_free_growth(k, maximal, canon)
    return _pykernels.triangle_free_canonical_masks(n, maximal, canon=canon)


def bench_enumeration(repeats, n):
    # one enumerator on both backends; only its canonical form differs
    pure_t, pure_v = best_of(repeats, enumerate_triangle_free, n)
    out = [(f"triangle-free enumeration (n={n})", "pure", pure_t, len(pure_v))]
    if _kernels.HAS_FAST:
        fast_t, fast_v = best_of(repeats, enumerate_triangle_free,
                                 n, _kernels.fast.canonical_mask)
        assert fast_v == pure_v
        out.append((f"triangle-free enumeration (n={n})", "compiled",
                    fast_t, len(fast_v)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--enum-n", type=int, default=7,
                        help="enumeration size (8 takes about 0.4 s pure; "
                             "9 about 5 s pure)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    if not _kernels.HAS_FAST:
        print("note: compiled kernels not built; timing the pure backend only\n")

    rows = []
    rows += bench_count(args.repeats)
    rows += bench_canonical(args.repeats)
    rows += bench_enumeration(args.repeats, args.enum_n)

    width = max(len(r[0]) for r in rows)
    print(f"{'benchmark':<{width}}  {'backend':<8}  {'seconds':>10}  result")
    by_name = {}
    for name, backend, seconds, result in rows:
        print(f"{name:<{width}}  {backend:<8}  {seconds:>10.4f}  {result}")
        by_name.setdefault(name, {})[backend] = seconds
    print()
    for name, times in by_name.items():
        if "compiled" in times and times["compiled"] > 0:
            print(f"speedup {times['pure'] / times['compiled']:6.1f}x  {name}")


if __name__ == "__main__":
    main()
